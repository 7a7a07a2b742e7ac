"""Output checks (a)-(d): the program's files against the benchmark's own
computations. Each check raises ``CheckFailed`` on the first mismatch.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import oracle
from generate import Inputs


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a, b, rtol=1e-12, atol=1e-12) -> bool:
    return bool(np.allclose(np.asarray(a, dtype=float), np.asarray(b, dtype=float),
                            rtol=rtol, atol=atol, equal_nan=True))


class Truth:
    """What the benchmark knows about each snapshot, indexed by id."""

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        every = inputs.tuning + inputs.test
        _, _, pre = oracle.log_standardise([r.readings for r in inputs.tuning],
                                           [r.readings for r in every])
        self.by_id = {r.id: r for r in every}
        self.pre = {r.id: p for r, p in zip(every, pre)}
        self.best = {}
        for r in every:
            live = np.flatnonzero(np.isfinite(r.readings))
            at = int(live[np.argmax(self.pre[r.id][live])])
            self.best[r.id] = (float(self.pre[r.id][at]), r.points[at])

    def locate(self, sid: str, points: np.ndarray) -> np.ndarray:
        """Candidate index of each (x, y) row; fails if one is not a candidate."""
        r = self.by_id[sid]
        d = np.hypot(points[:, None, 0] - r.points[None, :, 0],
                     points[:, None, 1] - r.points[None, :, 1])
        idx = np.argmin(d, axis=1)
        ok = (d[np.arange(len(idx)), idx] < 1e-9) & np.isfinite(r.readings[idx])
        _require(bool(ok.all()), f"{sid}: {points[~ok][:1]} is not an available candidate")
        return idx


def check_bundle(bundle: Path, truth: Truth) -> None:
    """(a) the bundle holds the expected snapshots, standardised as the
    benchmark standardises the generated readings."""
    records = [json.loads(line) for line in bundle.read_text().splitlines() if line]
    _require(records[0]["record"] == "stats", "bundle: first record is not stats")
    snaps = records[1:]
    expected = [(r.id, "tuning") for r in truth.inputs.tuning] + [
        (r.id, "test") for r in truth.inputs.test]
    _require([(s["id"], s["role"]) for s in snaps] == expected,
             f"bundle: snapshots {[(s['id'], s['role']) for s in snaps]} != {expected}")
    for s in snaps:
        r = truth.by_id[s["id"]]
        live = np.isfinite(r.readings)
        _require(s["mask"] == live.tolist(), f"{r.id}: mask differs from the blank cells")
        _require(_close(s["locations"], r.points, atol=1e-9), f"{r.id}: locations differ")
        pre = np.array([math.nan if v is None else v for v in s["values_pre"]])
        _require(_close(pre, truth.pre[r.id]), f"{r.id}: values_pre differ")


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_prior(out: Path, want: dict) -> dict:
    """(b) prior.jsonl against the header fields the INI implies, and
    chain_diagnostics.csv. Returns the pooled acceptance rates."""
    lines = [json.loads(line) for line in (out / "prior.jsonl").read_text().splitlines()]
    header, samples = lines[0], lines[1:]
    family, H, M = want["kernel"], want["H"], want["M"]
    _require(header.get("record") == "header" and all(header.get(k) == v for k, v in want.items()),
             f"prior header {header} does not match {want}")
    _require(len(samples) == M, f"prior has {len(samples)} samples, not {M}")
    for s in samples:
        values = s["values"]
        _require(sorted(values) == sorted(oracle.SLOTS[family]), f"prior slots {sorted(values)}")
        _require(all(math.isfinite(v) and v > 0 for v in values.values()),
                 f"prior sample {values} not finite and positive")
        if family == "sum":
            _require(0.0 <= s["gamma"] < math.pi, f"prior gamma {s['gamma']} outside [0, pi)")
        else:
            _require(s["gamma"] is None, "prior gamma set for an undirected kernel")

    rows = _read_rows(out / "chain_diagnostics.csv")
    theta_slots = list(oracle.SLOTS[family]) + (["gamma"] if family == "sum" else [])
    eta_slots = [f"eta.{s}.{w}" for s in oracle.SLOTS[family] for w in ("shape", "scale")]
    by_slot: dict[str, list[float]] = {}
    for row in rows:
        by_slot.setdefault(row["slot"], []).append(float(row["acceptance_rate"]))
    _require(sorted(by_slot) == sorted(theta_slots + eta_slots),
             f"diagnostics slots {sorted(by_slot)}")
    for slot, rates in by_slot.items():
        _require(len(rates) == H, f"diagnostics: {len(rates)} rows for {slot}")
        _require(all(0.0 <= r <= 1.0 for r in rates), f"diagnostics: {slot} rate outside [0, 1]")
    theta_rate = float(np.mean([r for s in theta_slots for r in by_slot[s]]))
    _require(0.0 < theta_rate < 1.0, f"theta acceptance {theta_rate} not strictly in (0, 1)")
    eta_rate = float(np.mean([r for s in eta_slots for r in by_slot[s]]))
    return {"theta": theta_rate, "eta": eta_rate}


TRACE_HEADER = "iteration,x_km,y_km,value_raw,value_preprocessed,best_so_far,ess"


def load_trace(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(points, raw, preprocessed, ess) columns of a trace CSV."""
    lines = path.read_text().splitlines()
    _require(lines[0] == TRACE_HEADER, f"{path}: header {lines[0]!r}")
    cols = np.array([[float(v) if v else math.nan for v in line.split(",")]
                     for line in lines[1:]])
    return cols[:, 1:3], cols[:, 3], cols[:, 4], cols[:, 6]


def _check_runs(sid: str, runs: list, truth: Truth, n_iter: int, distinct: bool, where: str):
    """All traces of one snapshot: n_iter rows each, on available
    candidates (distinct within a trace if asked), with the true values."""
    _require(all(len(t[0]) == n_iter for t in runs), f"{where}/{sid}: a trace is not {n_iter} rows")
    points, raw, pre = (np.concatenate([t[k] for t in runs]) for k in range(3))
    idx = truth.locate(sid, points)
    if distinct:
        per_run = np.sort(idx.reshape(len(runs), n_iter), axis=1)
        _require(bool(np.all(np.diff(per_run, axis=1) != 0)), f"{where}/{sid}: repeated locations")
    r = truth.by_id[sid]
    _require(_close(raw, r.readings[idx]), f"{where}/{sid}: raw values differ from the field")
    _require(_close(pre, truth.pre[sid][idx]), f"{where}/{sid}: preprocessed values differ")


def _manifest(trace_dir: Path) -> dict:
    return json.loads((trace_dir / "manifest.json").read_text())


def check_traces(out: Path, truth: Truth, wl, seed: int) -> dict:
    """(c) every trace places on real candidates with the generated values,
    and sampled BO steps place at the maximum of the reference EI."""
    test_ids = [r.id for r in truth.inputs.test]
    traces = {}
    for method in ("bo", "baseline-with-replacement", "baseline-without-replacement"):
        manifest = _manifest(out / method)
        entries = manifest["traces"]
        runs = 1 if method == "bo" else wl.n_runs
        _require(sorted(e["snapshot_id"] for e in entries) == sorted(test_ids * runs),
                 f"{method}: manifest snapshots differ from the test set")
        traces[method] = {}
        for e in entries:
            traces[method].setdefault(e["snapshot_id"], []).append(
                load_trace(out / method / e["file"]))
        for sid, per in traces[method].items():
            _check_runs(sid, per, truth, wl.n_iter,
                        distinct=method != "baseline-with-replacement", where=method)

    prior = [json.loads(line) for line in (out / "prior.jsonl").read_text().splitlines()[1:]]
    samples = [(s["values"], s["gamma"]) for s in prior]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    n_init, n_iter = wl.n_init, wl.n_iter
    for sid in test_ids:
        points, _, pre, _ = traces["bo"][sid][0]
        r = truth.by_id[sid]
        placed_idx = truth.locate(sid, points)
        for step in sorted({int(rng.integers(n_init + 1, n_iter + 1)), n_iter}):
            seen = set(placed_idx[: step - 1].tolist())
            open_idx = [i for i in np.flatnonzero(np.isfinite(r.readings)) if i not in seen]
            acq = oracle.weighted_ei(wl.kernel, samples, points[: step - 1], pre[: step - 1],
                                     r.points[open_idx])
            placed = open_idx.index(int(placed_idx[step - 1]))
            best = float(acq.max())
            _require(acq[placed] >= best - 1e-6 * max(best, 1e-9),
                     f"bo/{sid} step {step}: placed EI {float(acq[placed])!r} < max {best!r}")

    bo = _manifest(out / "bo")
    ess = np.concatenate([t[3][n_init:] for ts in traces["bo"].values() for t in ts])
    return {
        "traces": traces,
        "ess_over_m": float(np.mean(ess) / wl.m),
        "uniform_fallbacks": sum(len(e["flagged_iterations"]) for e in bo["traces"]),
    }


def check_evaluate(eval_dir: Path, traces: dict, truth: Truth) -> None:
    """(d) ratio and maximiser-distance curves equal the recomputation."""
    for method, per_snapshot in traces.items():
        mean_curves = {"ratio": [], "distance": []}
        expected = {"ratio": {}, "distance": {}}
        for sid, runs in sorted(per_snapshot.items()):
            y_star, x_star = truth.best[sid]
            curves = [oracle.best_so_far_curves(pre, pts, y_star, x_star)
                      for pts, _, pre, _ in runs]
            for k, name in enumerate(("ratio", "distance")):
                expected[name][sid] = np.mean([c[k] for c in curves], axis=0)
                mean_curves[name].append(expected[name][sid])
        for name in ("ratio", "distance"):
            got: dict[str, list[float]] = {}
            for row in _read_rows(eval_dir / f"{name}_{method}_snapshots.csv"):
                got.setdefault(row["snapshot_id"], []).append(float(row["value"]))
            _require(sorted(got) == sorted(expected[name]), f"{name}_{method}: snapshot ids")
            for sid, values in got.items():
                _require(_close(values, expected[name][sid], rtol=1e-9),
                         f"{name}_{method}: {sid} curve differs from the recomputation")
            mean = [float(r["mean"]) for r in _read_rows(eval_dir / f"{name}_{method}.csv")]
            _require(_close(mean, np.mean(mean_curves[name], axis=0), rtol=1e-9),
                     f"{name}_{method}: mean curve differs from the recomputation")
    for name in ("ratio", "distance", "exploration"):
        text = (eval_dir / f"{name}.svg").read_text()
        _require(text.startswith("<svg") and "polyline" in text, f"{name}.svg is not a chart")
