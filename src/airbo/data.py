"""Snapshot ingestion, preprocessing, projection and synthetic fields.

A snapshot is one spatial field to optimise over: a satellite image or
one day of station readings. Concentrations are log-transformed (they
are near log-normal) and standardised with the mean and standard
deviation of the tuning set only, so test data never leaks into the
statistics.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InputError, ParseError
from .gp import _stable_cholesky
from .kernels import CovarianceBuilder, KernelSpec, ThetaVector
from .rng import stream

EARTH_RADIUS_KM = 6371.0

#: Grid snapshots with a larger fraction of missing cells are excluded.
MAX_MISSING_FRACTION = 0.10


@dataclass
class Snapshot:
    """One spatial field sample set.

    ``mask`` flags the locations that are actually available; masked-out
    entries carry ``nan`` raw values and never enter the candidate set
    or the preprocessing statistics.
    """

    id: str
    locations: np.ndarray  # (n, 2) km
    values_raw: np.ndarray  # (n,) concentrations, nan where masked out
    mask: np.ndarray  # (n,) bool
    values_pre: np.ndarray | None = None
    units: str = ""

    def validate(self) -> None:
        n = len(self.locations)
        if not (len(self.values_raw) == len(self.mask) == n):
            raise InputError(
                f"snapshot {self.id}: locations/values/mask lengths differ "
                f"({n}/{len(self.values_raw)}/{len(self.mask)})"
            )
        seen = set(map(tuple, np.asarray(self.locations)))
        if len(seen) != n:
            raise InputError(f"snapshot {self.id}: duplicate locations")

    @property
    def candidate_indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    @property
    def n_candidates(self) -> int:
        return int(self.mask.sum())


@dataclass
class Dataset:
    """Tuning and test snapshots plus the tuning-set log statistics."""

    tuning: list[Snapshot]
    test: list[Snapshot]
    log_mean: float | None = None
    log_std: float | None = None
    meta: dict = field(default_factory=dict)

    @property
    def preprocessed(self) -> bool:
        return self.log_mean is not None

    def all_snapshots(self) -> list[Snapshot]:
        return list(self.tuning) + list(self.test)


def _as_snapshot_arrays(rows):
    """rows: list of (location, raw_or_None) in canonical order."""
    locations = np.array([r[0] for r in rows], dtype=float)
    raw = np.array([math.nan if r[1] is None else r[1] for r in rows], dtype=float)
    mask = np.array([r[1] is not None for r in rows], dtype=bool)
    return locations, raw, mask


def load_grid_csv(path, cell_size_km: float = 7.0) -> list[Snapshot]:
    """Load gridded (satellite-style) snapshots from a long-format CSV.

    Expected columns: ``snapshot_id,row,col,value`` with an empty value
    marking a missing cell. Cell (row, col) maps to the point
    ``(col*cell_size_km, row*cell_size_km)``. Snapshots with more than
    10 % missing cells are dropped entirely; remaining missing cells are
    masked out of the candidate set.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"grid CSV not found: {path}")
    cells: dict[str, dict[tuple[int, int], float | None]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["snapshot_id", "row", "col", "value"]:
            raise ParseError(f"{path}:1: expected header snapshot_id,row,col,value")
        for lineno, fields in enumerate(reader, start=2):
            if len(fields) != 4:
                raise ParseError(f"{path}:{lineno}: expected 4 fields, got {len(fields)}")
            sid, row_s, col_s, val_s = (f.strip() for f in fields)
            try:
                row, col = int(row_s), int(col_s)
                value = float(val_s) if val_s else None
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            grid = cells.setdefault(sid, {})
            if (row, col) in grid:
                raise InputError(f"{path}:{lineno}: duplicate cell ({sid}, {row}, {col})")
            grid[(row, col)] = value

    snapshots = []
    for sid in sorted(cells):
        grid = cells[sid]
        n_missing = sum(1 for v in grid.values() if v is None)
        if n_missing / len(grid) > MAX_MISSING_FRACTION:
            continue
        rows = [
            ((col * cell_size_km, row * cell_size_km), grid[(row, col)])
            for row, col in sorted(grid)
        ]
        locations, raw, mask = _as_snapshot_arrays(rows)
        snap = Snapshot(id=sid, locations=locations, values_raw=raw, mask=mask, units="mol/m^2")
        snap.validate()
        snapshots.append(snap)
    return snapshots


def project_latlon(reference, points) -> np.ndarray:
    """Project lat/lon pairs to local km coordinates about a reference.

    Equirectangular: ``x = R * dlon * cos(lat_ref)``, ``y = R * dlat``,
    angles in radians, R = 6371 km. The reference maps to (0, 0). Good
    to well under a percent at city scale.
    """
    ref = np.asarray(reference, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    for lat in np.concatenate([[ref[0]], pts[:, 0]]):
        if not (-90.0 < lat < 90.0):
            raise InputError(f"latitude {lat} out of range (-90, 90)")
    x = EARTH_RADIUS_KM * np.radians(pts[:, 1] - ref[1]) * math.cos(math.radians(ref[0]))
    y = EARTH_RADIUS_KM * np.radians(pts[:, 0] - ref[0])
    return np.column_stack([x, y])


def load_station_csv(
    path,
    min_readings: int = 40,
    classification_filter: str = "Roadside",
    reference: tuple[float, float] | None = None,
) -> list[Snapshot]:
    """Load station (LAQN-style) snapshots, one per calendar day.

    Expected columns: ``date,station_id,lat,lon,classification,value``.
    Rows failing the classification filter are dropped first; days with
    fewer than ``min_readings`` remaining readings are discarded; then
    duplicate same-day readings of one station are averaged. Locations
    are projected to km about ``reference`` (default: the most
    south-westerly station present after filtering).
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"station CSV not found: {path}")
    by_day: dict[datetime.date, list[tuple[str, float, float, float]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        expected = ["date", "station_id", "lat", "lon", "classification", "value"]
        if header is None or [h.strip() for h in header] != expected:
            raise ParseError(f"{path}:1: expected header {','.join(expected)}")
        for lineno, fields in enumerate(reader, start=2):
            if len(fields) != 6:
                raise ParseError(f"{path}:{lineno}: expected 6 fields, got {len(fields)}")
            date_s, sid, lat_s, lon_s, cls, val_s = (f.strip() for f in fields)
            if cls != classification_filter:
                continue
            try:
                day = datetime.date.fromisoformat(date_s)
                lat, lon, value = float(lat_s), float(lon_s), float(val_s)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            if not (-90.0 < lat < 90.0):
                raise ParseError(f"{path}:{lineno}: latitude {lat} out of range")
            by_day.setdefault(day, []).append((sid, lat, lon, value))

    kept = {day: rows for day, rows in by_day.items() if len(rows) >= min_readings}
    if reference is None:
        stations = [(lat, lon) for rows in kept.values() for _, lat, lon, _ in rows]
        if not stations:
            return []
        reference = min(stations)  # most south-westerly: smallest (lat, lon)

    snapshots = []
    for day in sorted(kept):
        per_station: dict[str, list[tuple[float, float, float]]] = {}
        for sid, lat, lon, value in kept[day]:
            per_station.setdefault(sid, []).append((lat, lon, value))
        ids = sorted(per_station)
        # readings are sorted before averaging so float summation order,
        # and therefore the output, is independent of input row order
        latlon = np.array(
            [np.mean(sorted((r[0], r[1]) for r in per_station[s]), axis=0) for s in ids]
        )
        values = np.array([np.mean(sorted(r[2] for r in per_station[s])) for s in ids])
        locations = project_latlon(reference, latlon)
        snap = Snapshot(
            id=day.isoformat(),
            locations=locations,
            values_raw=values,
            mask=np.ones(len(ids), dtype=bool),
            units="ug/m^3",
        )
        snap.validate()
        snapshots.append(snap)
    return snapshots


def preprocess(dataset: Dataset) -> Dataset:
    """Fill ``values_pre`` with log-standardised readings, in place.

    Statistics come from the masked-in tuning readings only (sample
    standard deviation). Calling twice is an error, not a second
    transform.
    """
    if dataset.preprocessed:
        raise InputError("dataset is already preprocessed")
    if not dataset.tuning:
        raise InputError("cannot preprocess: tuning set is empty")
    for snap in dataset.all_snapshots():
        bad = np.flatnonzero(snap.mask & ~(snap.values_raw > 0))
        if bad.size:
            i = int(bad[0])
            raise InputError(
                f"snapshot {snap.id}: non-positive reading "
                f"{snap.values_raw[i]!r} at location {tuple(snap.locations[i])}"
            )
    logs = np.concatenate([np.log(s.values_raw[s.mask]) for s in dataset.tuning])
    if logs.size < 2:
        raise InputError("tuning set has fewer than two readings")
    mean = float(logs.mean())
    std = float(logs.std(ddof=1))
    if std == 0.0:
        raise InputError("degenerate dataset: tuning log-values have zero spread")
    for snap in dataset.all_snapshots():
        pre = np.full_like(snap.values_raw, math.nan)
        pre[snap.mask] = (np.log(snap.values_raw[snap.mask]) - mean) / std
        snap.values_pre = pre
    dataset.log_mean = mean
    dataset.log_std = std
    return dataset


@dataclass
class SyntheticData:
    """Synthetic snapshots plus the generating settings, kept for oracles."""

    snapshots: list[Snapshot]
    family: str
    theta_true: ThetaVector
    grid_size: int
    cell_size_km: float
    seed: int
    log_shift: float

    def meta(self) -> dict:
        return {
            "generator": "synthetic",
            "kernel": self.family,
            "theta_true": dict(sorted(self.theta_true.values.items())),
            "theta_true_gamma": self.theta_true.gamma,
            "grid_size": self.grid_size,
            "cell_size_km": self.cell_size_km,
            "seed": self.seed,
            "log_shift": self.log_shift,
        }


def generate_synthetic(
    spec: KernelSpec,
    theta_true: ThetaVector,
    grid_size: int,
    n_snapshots: int,
    seed: int,
    cell_size_km: float = 7.0,
    log_shift: float = 0.0,
) -> SyntheticData:
    """Draw snapshots exactly from the zero-mean GP with ``theta_true``.

    Fields are sampled by dense Cholesky on a ``grid_size**2`` grid and
    exponentiated to positive concentrations; the shift is applied in
    log space so the log transform recovers the GP field exactly.
    """
    theta_true.validate(spec)
    n_points = grid_size * grid_size
    if n_points > 4096:
        raise InputError(f"grid of {n_points} points exceeds the dense-sampling cap of 4096")
    if n_snapshots < 1:
        raise InputError("n_snapshots must be >= 1")
    axis = np.arange(grid_size) * cell_size_km
    X = np.array([(x, y) for y in axis for x in axis])
    K = CovarianceBuilder(spec, X).gram(theta_true, include_noise=False)
    K[np.diag_indices_from(K)] += 1e-10  # factorisation jitter only
    L = _stable_cholesky(K)
    snapshots = []
    for i in range(n_snapshots):
        rng = stream(seed, "synthetic", i)
        field_values = L @ rng.standard_normal(n_points)
        snap = Snapshot(
            id=f"synth-{i:03d}",
            locations=X.copy(),
            values_raw=np.exp(field_values + log_shift),
            mask=np.ones(n_points, dtype=bool),
            units="synthetic",
        )
        snap.validate()
        snapshots.append(snap)
    return SyntheticData(
        snapshots=snapshots,
        family=spec.family.value,
        theta_true=theta_true,
        grid_size=grid_size,
        cell_size_km=cell_size_km,
        seed=seed,
        log_shift=log_shift,
    )


# ---------------------------------------------------------------------------
# dataset bundle (JSON-lines) serialisation


def _float_or_none(x: float) -> float | None:
    return None if (x is None or (isinstance(x, float) and math.isnan(x))) else float(x)


def _snapshot_record(snap: Snapshot, role: str) -> dict:
    return {
        "record": "snapshot",
        "role": role,
        "id": snap.id,
        "units": snap.units,
        "locations": [[float(x), float(y)] for x, y in snap.locations],
        "values_raw": [_float_or_none(v) for v in snap.values_raw],
        "mask": [bool(m) for m in snap.mask],
        "values_pre": None
        if snap.values_pre is None
        else [_float_or_none(v) for v in snap.values_pre],
    }


def require_fields(rec, names: tuple[str, ...], where: str) -> None:
    """Raise a :class:`ParseError` at ``where`` (``path:line``) unless the
    JSON record ``rec`` is an object holding every field in ``names``."""
    if not isinstance(rec, dict):
        raise ParseError(f"{where}: expected a JSON object")
    for name in names:
        if name not in rec:
            raise ParseError(f"{where}: missing field {name!r}")


def _snapshot_from_record(rec: dict) -> Snapshot:
    raw = np.array([math.nan if v is None else v for v in rec["values_raw"]], dtype=float)
    pre = rec.get("values_pre")
    snap = Snapshot(
        id=rec["id"],
        locations=np.array(rec["locations"], dtype=float),
        values_raw=raw,
        mask=np.array(rec["mask"], dtype=bool),
        values_pre=None
        if pre is None
        else np.array([math.nan if v is None else v for v in pre], dtype=float),
        units=rec.get("units", ""),
    )
    snap.validate()
    return snap


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file + rename so readers never see partial output."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset bundle as JSON-lines (stats record first)."""
    lines = [
        json.dumps(
            {
                "record": "stats",
                "log_mean": dataset.log_mean,
                "log_std": dataset.log_std,
                "n_tuning": len(dataset.tuning),
                "n_test": len(dataset.test),
                "meta": dataset.meta,
            },
            sort_keys=True,
        )
    ]
    for snap in dataset.tuning:
        lines.append(json.dumps(_snapshot_record(snap, "tuning"), sort_keys=True))
    for snap in dataset.test:
        lines.append(json.dumps(_snapshot_record(snap, "test"), sort_keys=True))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_dataset(path) -> Dataset:
    path = Path(path)
    if not path.exists():
        raise InputError(f"dataset bundle not found: {path}")
    tuning: list[Snapshot] = []
    test: list[Snapshot] = []
    stats: dict | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            require_fields(rec, (), f"{path}:{lineno}")
            kind = rec.get("record")
            if kind == "stats":
                stats = rec
            elif kind == "snapshot":
                require_fields(rec, ("id", "locations", "values_raw", "mask"), f"{path}:{lineno}")
                (tuning if rec.get("role") == "tuning" else test).append(
                    _snapshot_from_record(rec)
                )
            else:
                raise ParseError(f"{path}:{lineno}: unknown record type {kind!r}")
    if stats is None:
        raise ParseError(f"{path}: missing stats record")
    return Dataset(
        tuning=tuning,
        test=test,
        log_mean=stats.get("log_mean"),
        log_std=stats.get("log_std"),
        meta=stats.get("meta", {}),
    )


def dataset_fingerprint(snapshots: list[Snapshot]) -> str:
    """Stable content hash of a snapshot list, for provenance records."""
    h = hashlib.sha256()
    for snap in snapshots:
        h.update(json.dumps(_snapshot_record(snap, "any"), sort_keys=True).encode())
    return h.hexdigest()[:16]
