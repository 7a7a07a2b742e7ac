"""Seeded input generators for the pipeline benchmark (numpy only).

Nothing here imports ``airbo``: the program under test receives only the
CSV and INI files written from these structures, while the benchmark
keeps the true readings, maxima and maximisers for its output checks.

* ``grid_inputs``: satellite-style snapshots on a 16x16 grid with 7 km
  cells, drawn from an RBF+RBF Gaussian-process field (lengthscales of 2
  and 8 cells) and exponentiated to column densities. Every snapshot
  leaves exactly 13 cells (about 5 %) blank; one extra snapshot leaves
  32 blank (12.5 %) and must be excluded by the 10 % missing limit.
* ``station_inputs``: LAQN-style daily station readings in a
  London-sized box, drawn from an RBF + directed field with a per-day
  wind angle. Every kept day has exactly 80 roadside stations, 8 of
  them with a duplicate same-day reading; rows of other classifications
  are mixed in, and thin days with fewer than ``min_readings`` roadside
  rows must be dropped.

Sizes are constant across seeds, so the work per run does not depend
on the seed; only the values and positions do.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, field

import numpy as np

EARTH_RADIUS_KM = 6371.0

GRID_SIZE = 16
CELL_KM = 7.0
GRID_BLANK = 13  # of 256 cells: 5.1 %
GRID_BLANK_EXCLUDED = 32  # 12.5 %, over the 10 % limit
GRID_THETA = {"sigma_r1": 1.0, "l_r1": 2 * CELL_KM, "sigma_r2": 1.0, "l_r2": 8 * CELL_KM}
GRID_LOG_SHIFT = math.log(1e-4)  # column densities around 1e-4 mol/m^2

LONDON_LAT = (51.30, 51.68)
LONDON_LON = (-0.45, 0.25)
STATION_SITES = 90  # roadside sites; 80 report on a kept day
STATION_PER_DAY = 80
STATION_DUPLICATES = 8
STATION_OTHER_SITES = 30
STATION_OTHER_PER_DAY = 24
STATION_THIN_DAY_SITES = 30  # below min_readings = 40
STATION_MIN_READINGS = 40
STATION_THETA = {"sigma_r1": 1.0, "l_r1": 12.0, "sigma_w2": 0.8, "l_w2": 3.0}
STATION_LOG_SHIFT = math.log(40.0)  # ug/m^3
OTHER_CLASSES = ("Urban Background", "Suburban", "Kerbside", "Industrial")


@dataclass
class Reading:
    """One snapshot as the benchmark knows it.

    ``points`` are the locations in the program's order (km) and
    ``readings`` the true raw value at each: ``nan`` where a grid cell is
    blank, the mean of the duplicates where a station reported twice.
    """

    id: str
    points: np.ndarray  # (n, 2) km
    readings: np.ndarray  # (n,)


@dataclass
class Inputs:
    """Generated inputs plus what the checks need to know about them."""

    csv_text: str
    tuning: list[Reading]
    test: list[Reading]
    excluded: list[str] = field(default_factory=list)


def _rbf(d2, sigma, l):
    return sigma * sigma * np.exp(-d2 / (l * l))


def _field_cholesky(K: np.ndarray) -> np.ndarray:
    return np.linalg.cholesky(K + 1e-10 * np.eye(len(K)))


def grid_inputs(seed: int, n_tuning: int, n_test: int) -> Inputs:
    """Grid CSV (``snapshot_id,row,col,value``) for one workload seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    n = GRID_SIZE * GRID_SIZE
    rows, cols = np.divmod(np.arange(n), GRID_SIZE)
    points = np.column_stack([cols * CELL_KM, rows * CELL_KM]).astype(float)
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(-1)
    t = GRID_THETA
    L = _field_cholesky(_rbf(d2, t["sigma_r1"], t["l_r1"]) + _rbf(d2, t["sigma_r2"], t["l_r2"]))

    n_kept = n_tuning + n_test
    excluded_at = int(rng.integers(0, n_tuning + 1))
    kept: list[Reading] = []
    excluded: list[str] = []
    lines = ["snapshot_id,row,col,value"]
    for k in range(n_kept + 1):
        sid = f"sat-{k:03d}"
        drop = k == excluded_at
        blank = rng.choice(n, size=GRID_BLANK_EXCLUDED if drop else GRID_BLANK, replace=False)
        values = np.exp(L @ rng.standard_normal(n) + GRID_LOG_SHIFT)
        values[blank] = math.nan
        for i in range(n):
            v = "" if math.isnan(values[i]) else repr(float(values[i]))
            lines.append(f"{sid},{rows[i]},{cols[i]},{v}")
        if drop:
            excluded.append(sid)
        else:
            kept.append(Reading(sid, points.copy(), values))
    return Inputs("\n".join(lines) + "\n", kept[:n_tuning], kept[n_tuning:], excluded)


def project(reference, latlon) -> np.ndarray:
    """Equirectangular km offsets of ``latlon`` rows about ``reference``."""
    lat0, lon0 = reference
    x = EARTH_RADIUS_KM * np.radians(latlon[:, 1] - lon0) * math.cos(math.radians(lat0))
    y = EARTH_RADIUS_KM * np.radians(latlon[:, 0] - lat0)
    return np.column_stack([x, y])


def station_inputs(seed: int, n_tuning: int, n_test: int, n_thin: int = 2) -> Inputs:
    """Station CSV (``date,station_id,lat,lon,classification,value``)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    sites = np.column_stack([
        rng.uniform(*LONDON_LAT, size=STATION_SITES),
        rng.uniform(*LONDON_LON, size=STATION_SITES),
    ])
    others = np.column_stack([
        rng.uniform(*LONDON_LAT, size=STATION_OTHER_SITES),
        rng.uniform(*LONDON_LON, size=STATION_OTHER_SITES),
    ])
    other_class = [OTHER_CLASSES[i % len(OTHER_CLASSES)] for i in range(STATION_OTHER_SITES)]
    site_ids = [f"RS{i:03d}" for i in range(STATION_SITES)]
    other_ids = [f"OT{i:03d}" for i in range(STATION_OTHER_SITES)]

    n_days = n_tuning + n_test + n_thin
    thin = set(rng.choice(np.arange(1, n_days), size=n_thin, replace=False).tolist())
    start = datetime.date(2019, 1, 7)
    offsets = np.sort(rng.choice(np.arange(3 * n_days), size=n_days, replace=False))
    t = STATION_THETA

    rows: list[tuple] = []
    days: list[tuple[str, np.ndarray, list[list[float]]]] = []
    for k in range(n_days):
        date = (start + datetime.timedelta(days=int(offsets[k]))).isoformat()
        n_here = STATION_THIN_DAY_SITES if k in thin else STATION_PER_DAY
        here = np.sort(rng.choice(STATION_SITES, size=n_here, replace=False))
        latlon = np.vstack([sites[here], others[: STATION_OTHER_PER_DAY]])
        xy = project((LONDON_LAT[0], LONDON_LON[0]), latlon)
        tau = xy[:, None, :] - xy[None, :, :]
        gamma = float(rng.uniform(0.0, math.pi))
        proj = math.sin(gamma) * tau[..., 0] - math.cos(gamma) * tau[..., 1]
        K = _rbf((tau**2).sum(-1), t["sigma_r1"], t["l_r1"]) + _rbf(
            proj * proj, t["sigma_w2"], t["l_w2"]
        )
        values = np.exp(_field_cholesky(K) @ rng.standard_normal(len(xy)) + STATION_LOG_SHIFT)
        dup = set(rng.choice(n_here, size=STATION_DUPLICATES, replace=False).tolist())
        per_site = []
        for j, s in enumerate(here):
            readings = [float(values[j])]
            if j in dup:
                spread = float(rng.uniform(0.02, 0.2))
                readings = [float(values[j] * (1 + spread)), float(values[j] * (1 - spread))]
            per_site.append(readings)
            for r in readings:
                rows.append((date, site_ids[s], *map(float, sites[s]), "Roadside", r))
        for j in range(STATION_OTHER_PER_DAY):
            rows.append((date, other_ids[j], *map(float, others[j]), other_class[j],
                         float(values[n_here + j])))
        if k not in thin:
            days.append((date, here, per_site))

    order = rng.permutation(len(rows))
    lines = ["date,station_id,lat,lon,classification,value"]
    for i in order:
        date, sid, lat, lon, cls, v = rows[i]
        lines.append(f"{date},{sid},{lat!r},{lon!r},{cls},{v!r}")

    kept_sites = np.unique(np.concatenate([here for _, here, _ in days]))
    reference = min(map(tuple, sites[kept_sites]))
    readings = []
    for date, here, per_site in days:
        ids = sorted(site_ids[s] for s in here)  # the program orders stations by id
        by_id = {site_ids[s]: (sites[s], r) for s, r in zip(here, per_site)}
        latlon = np.array([by_id[i][0] for i in ids])
        values = np.array([np.mean(sorted(by_id[i][1])) for i in ids])
        readings.append(Reading(date, project(reference, latlon), values))
    return Inputs(
        "\n".join(lines) + "\n", readings[:n_tuning], readings[n_tuning:],
        [(start + datetime.timedelta(days=int(offsets[k]))).isoformat() for k in sorted(thin)],
    )
