"""Evaluation metrics over placement traces.

All metrics operate on pre-processed values ("the data the optimiser
sees"). Multiple runs on one snapshot are averaged within the snapshot
first; means and standard errors are then taken across snapshots.
Traces of unequal length are truncated to the shortest for the
cross-snapshot curve; full per-snapshot curves are kept alongside.
The ratio and distance curves read each row's running best
(``best_so_far``, ``best_x_km``, ``best_y_km``), which
:meth:`~airbo.traces.BoTrace.append_observation` maintains with a strict
``>`` (first index on ties), so both refer to the same estimated
maximiser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Snapshot
from .errors import DegenerateSnapshotError, InputError
from .traces import BoTrace


@dataclass
class MetricCurve:
    """Mean/SEM per iteration plus the per-snapshot values behind them."""

    iterations: np.ndarray
    mean: np.ndarray
    sem: np.ndarray
    n: int
    per_snapshot: dict[str, np.ndarray] = field(default_factory=dict)
    flagged: list[str] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["iteration,mean,sem,n"]
        for i, m, s in zip(self.iterations, self.mean, self.sem):
            lines.append(f"{int(i)},{float(m)!r},{float(s)!r},{self.n}")
        return "\n".join(lines) + "\n"


def summarize_interval(values) -> tuple[float, float]:
    """Mean minus/plus one standard error (sample sd over sqrt(count))."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise InputError(f"need at least 2 values, got {values.size}")
    mean = float(values.mean())
    sem = float(values.std(ddof=1) / math.sqrt(values.size))
    return mean - sem, mean + sem


def true_maximum(snapshot: Snapshot) -> tuple[float, np.ndarray]:
    """True pre-processed maximum and its location (first index on ties)."""
    if snapshot.values_pre is None:
        raise InputError(f"snapshot {snapshot.id} is not preprocessed")
    idx = snapshot.candidate_indices
    values = snapshot.values_pre[idx]
    at = int(idx[int(np.argmax(values))])
    return float(snapshot.values_pre[at]), snapshot.locations[at]


def _group_traces(traces: list[BoTrace]) -> dict[str, list[BoTrace]]:
    groups: dict[str, list[BoTrace]] = {}
    for t in traces:
        groups.setdefault(t.snapshot_id, []).append(t)
    return groups


def _aggregate(per_snapshot: dict[str, np.ndarray], flagged: list[str]) -> MetricCurve:
    if not per_snapshot:
        raise InputError("no traces to aggregate")
    length = min(len(v) for v in per_snapshot.values())
    stacked = np.vstack([v[:length] for _, v in sorted(per_snapshot.items())])
    mean = stacked.mean(axis=0)
    if stacked.shape[0] >= 2:
        sem = stacked.std(axis=0, ddof=1) / math.sqrt(stacked.shape[0])
    else:
        sem = np.zeros(length)
    return MetricCurve(
        iterations=np.arange(1, length + 1),
        mean=mean,
        sem=sem,
        n=stacked.shape[0],
        per_snapshot=per_snapshot,
        flagged=flagged,
    )


def _snapshot_map(snapshots: list[Snapshot]) -> dict[str, Snapshot]:
    return {s.id: s for s in snapshots}


def maximum_ratio_curve(traces: list[BoTrace], snapshots: list[Snapshot]) -> MetricCurve:
    """Mean ratio of best-so-far value to the true maximum, per iteration.

    Snapshots whose true pre-processed maximum is negative are kept but
    flagged: ratios against a negative target are not meaningful in the
    usual "at most 1" sense. A maximum of exactly zero is an error.
    """
    by_id = _snapshot_map(snapshots)
    per: dict[str, list[np.ndarray]] = {}
    flagged: list[str] = []
    for trace in traces:
        snap = _require(by_id, trace.snapshot_id)
        y_star, _ = true_maximum(snap)
        if y_star == 0.0:
            raise DegenerateSnapshotError(
                f"snapshot {snap.id}: true pre-processed maximum is exactly 0"
            )
        if y_star < 0.0 and snap.id not in flagged:
            flagged.append(snap.id)
        best = np.array([r.best_so_far for r in trace.rows])
        per.setdefault(snap.id, []).append(best / y_star)
    return _aggregate(_mean_runs(per), flagged)


def maximiser_distance_curve(traces: list[BoTrace], snapshots: list[Snapshot]) -> MetricCurve:
    """Mean distance (km) from best-so-far location to the true maximiser."""
    by_id = _snapshot_map(snapshots)
    per: dict[str, list[np.ndarray]] = {}
    for trace in traces:
        snap = _require(by_id, trace.snapshot_id)
        _, x_star = true_maximum(snap)
        locs = np.array([(r.best_x_km, r.best_y_km) for r in trace.rows])
        per.setdefault(snap.id, []).append(np.linalg.norm(locs - x_star, axis=1))
    return _aggregate(_mean_runs(per), [])


def exploration_curve(traces: list[BoTrace]) -> MetricCurve:
    """Mean distance from each new sample to its nearest predecessor.

    Defined from the second sample on, so the curve starts at
    iteration 2.
    """
    per: dict[str, list[np.ndarray]] = {}
    for trace in traces:
        locs = np.array(trace.locations())
        if len(locs) < 2:
            raise InputError(
                f"trace for {trace.snapshot_id} has {len(locs)} rows; exploration "
                "needs at least 2"
            )
        dist = np.linalg.norm(locs[:, None] - locs[None], axis=-1)
        dist[np.triu_indices(len(locs))] = np.inf  # keep earlier samples only
        scores = dist.min(axis=1)[1:]
        per.setdefault(trace.snapshot_id, []).append(scores)
    curve = _aggregate(_mean_runs(per), [])
    curve.iterations = curve.iterations + 1  # scores start at the second sample
    return curve


def _mean_runs(per: dict[str, list[np.ndarray]]) -> dict[str, np.ndarray]:
    """Average multiple runs of one snapshot into a single curve."""
    out = {}
    for sid, runs in per.items():
        length = min(len(r) for r in runs)
        out[sid] = np.vstack([r[:length] for r in runs]).mean(axis=0)
    return out


def _require(by_id: dict[str, Snapshot], snapshot_id: str) -> Snapshot:
    if snapshot_id not in by_id:
        raise InputError(f"trace references unknown snapshot {snapshot_id!r}")
    return by_id[snapshot_id]
