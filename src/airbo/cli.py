"""Command-line interface.

Verbs: ``synth``, ``train-prior``, ``run-bo``, ``run-baseline``,
``evaluate``, ``correlation-curve``. Every command is a pure function of
its config file, input files and flags: rerunning yields byte-identical
outputs. Exit codes: 0 success, 1 numerical failure, 2 bad
configuration or input.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import click
import numpy as np

from . import svg
from .acquisition import BoConfig, run_bo
from .baselines import BaselineKind, BaselinePolicy, run_baseline
from .config import RunConfig, load_config
from .data import (
    Dataset,
    atomic_write_text,
    dataset_fingerprint,
    generate_synthetic,
    load_dataset,
    load_grid_csv,
    load_station_csv,
    preprocess,
    require_fields,
    save_dataset,
)
from .errors import InputError, NumericalError, ParseError
from .kernels import KernelSpec, ThetaVector, correlation_at_distance, get_spec
from .mcmc import PriorSampleSet, diagnostics_csv, load_prior, run_chain, save_prior
from .metrics import (
    MetricCurve,
    exploration_curve,
    maximiser_distance_curve,
    maximum_ratio_curve,
    summarize_interval,
)
from .traces import BoTrace, load_trace, save_trace


def _guard(fn):
    """Map package errors to the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except InputError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except NumericalError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(1)

    return wrapper


@click.group()
def main():
    """Sensor placement by importance-weighted Bayesian optimisation."""


_config_opt = click.option(
    "--config", "config_path", required=True, type=click.Path(), help="INI run config."
)
_out_opt = click.option("--out", "out_dir", default=None, help="Output directory override.")
_seed_opt = click.option("--seed", type=int, default=None, help="Seed override.")
_jobs_opt = click.option("--jobs", type=int, default=1, show_default=True,
                         help="Parallel workers across snapshots.")


def _resolve_out(cfg: RunConfig, out_dir: str | None) -> Path:
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_config_dataset(cfg: RunConfig) -> Dataset:
    d = cfg.data
    if not d.path:
        raise InputError("config has no data.path")
    if d.source == "bundle":
        ds = load_dataset(d.path)
    else:
        if d.source == "grid":
            snaps = load_grid_csv(d.path, cell_size_km=d.cell_size_km)
        else:
            snaps = load_station_csv(
                d.path, min_readings=d.min_readings, classification_filter=d.classification
            )
        if len(snaps) <= d.tuning_count:
            raise InputError(
                f"{d.path}: {len(snaps)} snapshots cannot be split with "
                f"tuning_count={d.tuning_count}"
            )
        ds = Dataset(tuning=snaps[: d.tuning_count], test=snaps[d.tuning_count :])
    if not ds.preprocessed:
        preprocess(ds)
    return ds


@main.command("synth")
@_config_opt
@_out_opt
@_seed_opt
@_guard
def cmd_synth(config_path, out_dir, seed):
    """Generate a synthetic dataset bundle from a known kernel."""
    cfg = load_config(config_path)
    s = cfg.synth
    if seed is not None:
        s.seed = seed
    spec = cfg.spec
    theta = ThetaVector(values=dict(s.theta), gamma=s.gamma)
    theta.validate(spec)
    synthetic = generate_synthetic(
        spec, theta, s.grid_size, s.n_snapshots, s.seed,
        cell_size_km=s.cell_size_km, log_shift=s.log_shift,
    )
    split = s.tuning_count if s.tuning_count is not None else s.n_snapshots // 2
    if not (0 < split < s.n_snapshots):
        raise InputError(f"synth tuning_count={split} must split {s.n_snapshots} snapshots")
    ds = Dataset(
        tuning=synthetic.snapshots[:split],
        test=synthetic.snapshots[split:],
        meta=synthetic.meta(),
    )
    preprocess(ds)
    out = _resolve_out(cfg, out_dir)
    save_dataset(ds, out / "dataset.jsonl")
    click.echo(f"wrote {out / 'dataset.jsonl'} "
               f"({len(ds.tuning)} tuning / {len(ds.test)} test snapshots)")


@main.command("train-prior")
@_config_opt
@_out_opt
@_seed_opt
@click.option("--dataset", "dataset_path", default=None,
              help="Dataset bundle override (else config data block).")
@_guard
def cmd_train_prior(config_path, out_dir, seed, dataset_path):
    """Train the hierarchical prior on the tuning snapshots."""
    cfg = load_config(config_path)
    if seed is not None:
        cfg.mcmc.seed = seed
    if dataset_path is not None:
        cfg.data.source, cfg.data.path = "bundle", dataset_path
    ds = _load_config_dataset(cfg)
    result = run_chain(
        cfg.spec, ds.tuning,
        H=cfg.mcmc.h, burn_in=cfg.mcmc.burn_in, B=cfg.mcmc.b,
        seed=cfg.mcmc.seed, widths=cfg.mcmc.widths,
    )
    prior = result.draw_prior(
        cfg.bo.m, cfg.mcmc.seed,
        provenance_extra={"M": cfg.bo.m, "tuning_set": dataset_fingerprint(ds.tuning)},
    )
    out = _resolve_out(cfg, out_dir)
    save_prior(prior, out / "prior.jsonl")
    atomic_write_text(out / "chain_diagnostics.csv", diagnostics_csv(result))
    click.echo(f"chain: H={cfg.mcmc.h} burn_in={cfg.mcmc.burn_in} B={cfg.mcmc.b} "
               f"seed={cfg.mcmc.seed} numerical_failures={result.n_numerical_failures}")
    for slot, rate in sorted(result.theta_acceptance.items()):
        click.echo(f"theta acceptance {slot}: {rate:.3f}")
    for key, rate in sorted(result.eta_acceptance.items()):
        click.echo(f"eta acceptance {key}: {rate:.3f}")
    click.echo(f"wrote {out / 'prior.jsonl'} ({len(prior)} samples)")


def _write_manifest(out: Path, entries: list[dict], extra: dict) -> None:
    manifest = {"traces": sorted(entries, key=lambda e: (e["snapshot_id"], e["file"])), **extra}
    atomic_write_text(out / "manifest.json", json.dumps(manifest, sort_keys=True, indent=1) + "\n")


def _bo_one(args) -> tuple[str, BoTrace]:
    snapshot, spec, config = args
    return snapshot.id, run_bo(snapshot, spec, config)


def _map_jobs(fn, items, jobs: int):
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


@main.command("run-bo")
@_config_opt
@click.option("--prior", "prior_path", required=True, type=click.Path(),
              help="Trained prior artifact (JSON-lines).")
@click.option("--dataset", "dataset_path", default=None,
              help="Dataset bundle override (else config data block).")
@_out_opt
@_seed_opt
@_jobs_opt
@_guard
def cmd_run_bo(config_path, prior_path, dataset_path, out_dir, seed, jobs):
    """Run weighted-EI placement on every test snapshot."""
    cfg = load_config(config_path)
    if seed is not None:
        cfg.bo.seed = seed
    if dataset_path is not None:
        cfg.data.source, cfg.data.path = "bundle", dataset_path
    spec = cfg.spec
    prior = load_prior(prior_path, expected_spec=spec)
    ds = _load_config_dataset(cfg)
    if not ds.test:
        raise InputError("dataset has no test snapshots")
    config = BoConfig(n_init=cfg.bo.n_init, n_iter=cfg.bo.n_iter, prior=prior, seed=cfg.bo.seed)
    out = _resolve_out(cfg, out_dir) / "bo"
    out.mkdir(parents=True, exist_ok=True)
    results = _map_jobs(_bo_one, [(snap, spec, config) for snap in ds.test], jobs)
    entries = []
    for sid, trace in results:
        name = f"trace_{sid}.csv"
        save_trace(trace, out / name)
        entries.append({
            "snapshot_id": sid, "file": name,
            "flagged_iterations": trace.flagged_iterations,
        })
    _write_manifest(out, entries, {
        "method": "bo", "kernel": spec.family.value,
        "n_init": cfg.bo.n_init, "n_iter": cfg.bo.n_iter,
        "m": len(prior), "seed": cfg.bo.seed, "prior_provenance": prior.provenance,
    })
    click.echo(f"wrote {len(entries)} traces to {out}")


def _baseline_one(args) -> tuple[str, list[BoTrace]]:
    snapshot, policy, n_iter = args
    return snapshot.id, run_baseline(snapshot, policy, n_iter)


@main.command("run-baseline")
@_config_opt
@click.option("--kind", type=click.Choice([k.value for k in BaselineKind]), required=True)
@click.option("--dataset", "dataset_path", default=None,
              help="Dataset bundle override (else config data block).")
@_out_opt
@_seed_opt
@_jobs_opt
@_guard
def cmd_run_baseline(config_path, kind, dataset_path, out_dir, seed, jobs):
    """Run a random placement baseline on every test snapshot."""
    cfg = load_config(config_path)
    if seed is not None:
        cfg.baseline.seed = seed
    if dataset_path is not None:
        cfg.data.source, cfg.data.path = "bundle", dataset_path
    ds = _load_config_dataset(cfg)
    if not ds.test:
        raise InputError("dataset has no test snapshots")
    policy = BaselinePolicy(
        kind=BaselineKind(kind), n_runs=cfg.baseline.n_runs, seed=cfg.baseline.seed
    )
    out = _resolve_out(cfg, out_dir) / f"baseline-{kind}"
    out.mkdir(parents=True, exist_ok=True)
    results = _map_jobs(
        _baseline_one, [(snap, policy, cfg.bo.n_iter) for snap in ds.test], jobs
    )
    entries = []
    for sid, traces in results:
        for run, trace in enumerate(traces):
            name = f"trace_{sid}_run_{run:03d}.csv"
            save_trace(trace, out / name)
            entries.append({"snapshot_id": sid, "file": name})
    _write_manifest(out, entries, {
        "method": f"baseline-{kind}", "kind": kind,
        "n_runs": policy.n_runs, "n_iter": cfg.bo.n_iter, "seed": policy.seed,
    })
    click.echo(f"wrote {len(entries)} traces to {out}")


def _load_trace_dir(trace_dir: Path) -> tuple[str, list[BoTrace]]:
    """Load all traces in a directory; label them by the directory name."""
    if not trace_dir.is_dir():
        raise InputError(f"trace directory not found: {trace_dir}")
    manifest_path = trace_dir / "manifest.json"
    traces = []
    if manifest_path.exists():
        try:
            manifest = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise ParseError(f"{manifest_path}: {exc}") from exc
        require_fields(manifest, ("traces",), str(manifest_path))
        if not isinstance(manifest["traces"], list):
            raise ParseError(f"{manifest_path}: 'traces' must be a list")
        for entry in manifest["traces"]:
            require_fields(entry, ("file", "snapshot_id"), str(manifest_path))
            traces.append(load_trace(trace_dir / entry["file"], entry["snapshot_id"]))
        label = manifest.get("method", trace_dir.name)
    else:
        for path in sorted(trace_dir.glob("trace_*.csv")):
            stem = path.stem[len("trace_"):]
            sid = stem.split("_run_")[0]
            traces.append(load_trace(path, sid))
        label = trace_dir.name
    if not traces:
        raise InputError(f"no traces found in {trace_dir}")
    return label, traces


def _interval(values: list[float]) -> str:
    if len(values) >= 2:
        lo, hi = summarize_interval(values)
    else:
        lo = hi = values[0]
    return f"{lo:.3f}-{hi:.3f}"


def _final_values(curve: MetricCurve) -> list[float]:
    last = len(curve.iterations) - 1
    return [float(v[last]) for _, v in sorted(curve.per_snapshot.items())]


@main.command("evaluate")
@click.option("--traces", "trace_dirs", multiple=True, required=True, type=click.Path(),
              help="Trace directory; repeat to compare methods.")
@click.option("--dataset", "dataset_path", required=True, type=click.Path())
@click.option("--out", "out_dir", default="out/eval", show_default=True)
@click.option("--svg", "with_svg", is_flag=True, default=False,
              help="Also render SVG charts.")
@_guard
def cmd_evaluate(trace_dirs, dataset_path, out_dir, with_svg):
    """Compute metric curves and the final-iteration comparison table."""
    ds = load_dataset(dataset_path)
    snapshots = ds.all_snapshots()
    known = {s.id for s in snapshots}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    methods: list[tuple[str, list[BoTrace]]] = []
    for trace_dir in trace_dirs:
        label, traces = _load_trace_dir(Path(trace_dir))
        orphans = sorted({t.snapshot_id for t in traces} - known)
        if orphans:
            raise InputError(
                f"{trace_dir}: traces reference snapshots missing from the dataset: "
                + ", ".join(orphans)
            )
        methods.append((label, traces))

    table = ["method,max_ratio,distance_km"]
    chart_data: dict[str, list[svg.Series]] = {"ratio": [], "distance": [], "exploration": []}
    for label, traces in methods:
        ratio = maximum_ratio_curve(traces, snapshots)
        distance = maximiser_distance_curve(traces, snapshots)
        exploration = exploration_curve(traces)
        for name, curve in (("ratio", ratio), ("distance", distance),
                            ("exploration", exploration)):
            atomic_write_text(out / f"{name}_{label}.csv", curve.to_csv())
            lines = ["snapshot_id,iteration,value"]
            for sid, values in sorted(curve.per_snapshot.items()):
                start = 2 if name == "exploration" else 1
                for i, v in enumerate(values):
                    lines.append(f"{sid},{start + i},{float(v)!r}")
            atomic_write_text(out / f"{name}_{label}_snapshots.csv", "\n".join(lines) + "\n")
            chart_data[name].append(svg.Series(
                label, [float(x) for x in curve.iterations], [float(y) for y in curve.mean]
            ))
        if ratio.flagged:
            click.echo(f"warning: {label}: snapshots with negative true maximum: "
                       + ", ".join(ratio.flagged), err=True)
        row = f"{label},{_interval(_final_values(ratio))},{_interval(_final_values(distance))}"
        table.append(row)
        click.echo(row)
    atomic_write_text(out / "comparison_table.csv", "\n".join(table) + "\n")
    if with_svg:
        labels = {"ratio": "best-so-far / true max", "distance": "km to true maximiser",
                  "exploration": "min distance to previous samples (km)"}
        for name, series in chart_data.items():
            svg.save_chart(series, out / f"{name}.svg", title=name,
                           x_label="iteration", y_label=labels[name])
    click.echo(f"wrote metric curves to {out}")


def _mean_theta(prior: PriorSampleSet, spec: KernelSpec) -> ThetaVector:
    names = [s.name for s in spec.sampled_slots]
    values = {
        n: float(np.mean([t.values[n] for t in prior.samples])) for n in names
    }
    gamma = (
        float(np.mean([t.gamma for t in prior.samples])) if spec.has_direction else None
    )
    return ThetaVector(values=values, gamma=gamma)


@main.command("correlation-curve")
@click.option("--prior", "prior_path", default=None, type=click.Path(),
              help="Prior artifact; uses the mean of its samples.")
@click.option("--theta", "theta_path", default=None, type=click.Path(),
              help="JSON file with kernel, values and optional gamma.")
@click.option("--d-max", type=float, default=20.0, show_default=True)
@click.option("--n-points", type=int, default=101, show_default=True)
@click.option("--out", "out_dir", default="out", show_default=True)
@_guard
def cmd_correlation_curve(prior_path, theta_path, d_max, n_points, out_dir):
    """Expected correlation as a function of distance for one theta."""
    if (prior_path is None) == (theta_path is None):
        raise InputError("provide exactly one of --prior or --theta")
    if prior_path is not None:
        prior = load_prior(prior_path)
        spec = get_spec(prior.provenance["kernel"])
        theta = _mean_theta(prior, spec)
    else:
        path = Path(theta_path)
        if not path.exists():
            raise InputError(f"theta file not found: {path}")
        try:
            rec = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{exc.lineno}: {exc}") from exc
        require_fields(rec, ("kernel", "values"), f"{path}:1")
        spec = get_spec(rec["kernel"])
        theta = ThetaVector(values=rec["values"], gamma=rec.get("gamma"))
        try:
            theta.validate(spec)
        except InputError as exc:
            raise ParseError(f"{path}:1: {exc}") from exc
    header = "d_km,correlation"
    if spec.has_direction:
        header += ",correlation_cross_wind"
    lines = [header]
    for d in np.linspace(0.0, d_max, n_points):
        row = f"{float(d)!r},{correlation_at_distance(spec, theta, float(d))!r}"
        if spec.has_direction:
            cross = correlation_at_distance(
                spec, theta, float(d), direction=theta.gamma + math.pi / 2
            )
            row += f",{cross!r}"
        lines.append(row)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out / "correlation_curve.csv", "\n".join(lines) + "\n")
    click.echo(f"wrote {out / 'correlation_curve.csv'}")


if __name__ == "__main__":
    main()
