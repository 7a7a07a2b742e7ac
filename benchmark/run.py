#!/usr/bin/env python3
"""Benchmark of the whole airbo CLI pipeline, one Python process per run.

    python3 benchmark/run.py --workload grid-train --seed 1 --seconds 34 --trace 0

Each round sets up (imports ``airbo`` afresh, ingests the generated CSV
with the public loaders, preprocesses and writes the bundle), then calls
``train-prior``, ``run-bo``, both ``run-baseline`` kinds and
``evaluate --svg`` in-process through ``airbo.cli.main``, so no timed
phase contains interpreter start-up. A run makes at least three rounds
and more while another fits in ``--seconds``; each round draws its own
inputs from the run's seed, and every metric is the median over the
rounds. Every round's outputs are checked against the benchmark's own
computations (``checks.py``). With ``--trace 1`` one more round runs
round 0's inputs again with spans around every layer, must write the
same bytes, and gives the per-layer metrics instead. The last line of
standard output is the JSON result.

BLAS is pinned to one thread before numpy is imported and the CLI keeps
its default ``--jobs 1``, so the numbers measure the program on one
core rather than the scheduling of a shared machine. Round outputs are
never deleted by a run: on ext4, creating files shortly after deleting
thousands of others was up to ten times slower, which made ``report_s``
follow the previous run's clean-up.
"""

from __future__ import annotations

import os

BLAS_THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import generate  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


@dataclass(frozen=True)
class Workload:
    kind: str  # grid | station
    kernel: str
    profile: str
    n_tuning: int
    n_test: int
    h: int
    burn_in: int
    m: int
    n_init: int
    n_iter: int
    n_runs: int


# Why these three: grid-train is dominated by the MH chain over
# ~243-point Gram matrices (exp and Cholesky in mcmc/gp/kernels);
# grid-place by importance-weighted EI over ~243 candidates and by the
# trace files the baselines and evaluate write and read; station-sum has
# small matrices, so per-call Python and scipy overhead dominates, and it
# alone runs the directed kernel's gamma slot and station ingestion.
WORKLOADS = {
    "grid-train": Workload("grid", "rbf_rbf", "satellite", n_tuning=10, n_test=2,
                           h=15, burn_in=3, m=100, n_init=10, n_iter=20, n_runs=200),
    "grid-place": Workload("grid", "rbf_rbf", "satellite", n_tuning=10, n_test=1,
                           h=3, burn_in=1, m=100, n_init=10, n_iter=40, n_runs=200),
    "station-sum": Workload("station", "sum", "station", n_tuning=10, n_test=2,
                            h=40, burn_in=10, m=100, n_init=5, n_iter=20, n_runs=200),
}
CHAIN_B = 5  # eta sweeps per chain iteration, the package default
#: rounds per run at least; more run while they fit in --seconds
MIN_ROUNDS = 3
#: set-ups per round; setup_s is the median of all of a run's set-ups
SETUP_REPS = 4

VERBS = ("train-prior", "run-bo", "run-baseline", "run-baseline", "evaluate")
END_TO_END = ("chain_iters_per_s", "placements_per_s", "report_s", "pipeline_s",
              "setup_s", "peak_rss_mb")


def round_seed(seed: int, k: int) -> int:
    """Input seed of round k: every round of a run draws fresh inputs, so a
    run's medians average over several inputs, not one draw."""
    return 1000 * seed + k


def derived_seeds(seed: int) -> dict[str, int]:
    """The INI's chain, BO and baseline seeds, derived from a round's seed."""
    chain, bo, baseline = np.random.SeedSequence([seed, 0]).generate_state(3)
    return {"mcmc": int(chain % 100_000), "bo": int(bo % 100_000),
            "baseline": int(baseline % 100_000)}


def write_ini(path: Path, wl: Workload, seeds: dict, bundle: Path, out: Path) -> None:
    path.write_text(
        f"[model]\nkernel = {wl.kernel}\nprofile = {wl.profile}\n\n"
        f"[mcmc]\nh = {wl.h}\nburn_in = {wl.burn_in}\nb = {CHAIN_B}\nseed = {seeds['mcmc']}\n\n"
        f"[bo]\nm = {wl.m}\nn_init = {wl.n_init}\nn_iter = {wl.n_iter}\nseed = {seeds['bo']}\n\n"
        f"[baseline]\nn_runs = {wl.n_runs}\nseed = {seeds['baseline']}\n\n"
        f"[data]\nsource = bundle\npath = {bundle}\n\n"
        f"[output]\ndir = {out}\n"
    )


def calibrate(blocks: int = 25) -> dict[str, float]:
    """Fixed numpy loop (exp plus Cholesky of a 256-point Gram matrix),
    independent of airbo: ms per block, to show drift of the machine."""
    X = np.random.default_rng(0).uniform(0.0, 100.0, size=(256, 2))
    d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(-1)
    eye = 1e-3 * np.eye(256)
    times = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(10):
            np.linalg.cholesky(np.exp(-d2 / 400.0) + eye)
        times.append((time.perf_counter() - t0) * 1e3)
    return {"median_ms": statistics.median(times), "min_ms": min(times), "max_ms": max(times)}


def fresh_airbo():
    """Import airbo from this checkout, discarding any earlier import."""
    for name in [n for n in sys.modules if n == "airbo" or n.startswith("airbo.")]:
        del sys.modules[name]
    pkg = importlib.import_module("airbo")
    importlib.import_module("airbo.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "airbo":
        raise RuntimeError(f"imported airbo from {pkg.__file__}, not from {SRC}")
    return pkg


def invoke(pkg, args: list[str]) -> int:
    """Run one CLI verb in-process; returns its exit code."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            pkg.cli.main.main(args=args, prog_name="airbo", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc(file=sink)
        code = 1
    else:
        code = 0
    if code:
        print(f"airbo {' '.join(args)} exited {code}:\n{sink.getvalue()}", file=sys.stderr)
    return code


class Round:
    """Set-ups plus the five verbs, with wall times per phase.

    The set-up is repeated ``setup_reps`` times (it is short, so one
    sample per round would be noisy); the last one starts the pipeline.
    """

    def __init__(self, wl: Workload, work: Path, seed: int, tag: str,
                 tracer: Tracer | None = None) -> None:
        self.wl, self.seed, self.tracer = wl, seed, tracer
        self.seeds = derived_seeds(seed)
        make = generate.grid_inputs if wl.kind == "grid" else generate.station_inputs
        self.inputs = make(seed, wl.n_tuning, wl.n_test)
        self.dir = work / tag
        self.csv_path = self.dir / f"{wl.kind}.csv"
        self.bundle = self.dir / "dataset.jsonl"
        self.out = self.dir / "out"
        self.config = self.dir / "run.ini"
        self.times: dict[str, float] = {}
        self.setups: list[float] = []
        self.failed = 0

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def set_up(self):
        wl = self.wl
        t0 = time.perf_counter()
        pkg = fresh_airbo()
        self.times["import"] = time.perf_counter() - t0
        if self.tracer:
            self.tracer.install(pkg)
        with self._span("data.ingest"):
            if wl.kind == "grid":
                snaps = pkg.load_grid_csv(self.csv_path, cell_size_km=generate.CELL_KM)
            else:
                snaps = pkg.load_station_csv(self.csv_path,
                                             min_readings=generate.STATION_MIN_READINGS,
                                             classification_filter="Roadside")
        ds = pkg.Dataset(tuning=snaps[: wl.n_tuning], test=snaps[wl.n_tuning:])
        with self._span("data.preprocess"):
            pkg.preprocess(ds)
        pkg.save_dataset(ds, self.bundle)
        self.times["setup"] = time.perf_counter() - t0
        self.setups.append(self.times["setup"])
        return pkg

    def run(self, setup_reps: int) -> None:
        self.dir.mkdir(parents=True)
        self.csv_path.write_text(self.inputs.csv_text)
        write_ini(self.config, self.wl, self.seeds, self.bundle, self.out)
        cfg, out = str(self.config), str(self.out)
        calls = [
            ("train-prior", ["train-prior", "--config", cfg]),
            ("run-bo", ["run-bo", "--config", cfg, "--prior", f"{out}/prior.jsonl"]),
            ("baseline-with", ["run-baseline", "--config", cfg, "--kind", "with-replacement"]),
            ("baseline-without",
             ["run-baseline", "--config", cfg, "--kind", "without-replacement"]),
            ("evaluate", ["evaluate", "--dataset", str(self.bundle), "--out", f"{out}/eval",
                          "--svg", "--traces", f"{out}/bo",
                          "--traces", f"{out}/baseline-with-replacement",
                          "--traces", f"{out}/baseline-without-replacement"]),
        ]
        try:
            for _ in range(setup_reps - 1):
                self.set_up()
            t0 = time.perf_counter()
            pkg = self.set_up()
        except Exception:
            traceback.print_exc()
            self.failed = len(calls)
            return
        for k, (phase, args) in enumerate(calls):
            t1 = time.perf_counter()
            with self._span(f"cli.{args[0]}"):
                code = invoke(pkg, args)
            self.times[phase] = time.perf_counter() - t1
            if code:
                self.failed = len(calls) - k  # later verbs cannot run without this one
                return
        self.times["pipeline"] = time.perf_counter() - t0

    def metrics(self) -> dict[str, float]:
        wl, t = self.wl, self.times
        return {
            "chain_iters_per_s": wl.h / t["train-prior"],
            "placements_per_s": wl.n_test * (wl.n_iter - wl.n_init) / t["run-bo"],
            "report_s": t["baseline-with"] + t["baseline-without"] + t["evaluate"],
            "pipeline_s": t["pipeline"],
        }

    def digest(self) -> dict[str, str]:
        return {
            str(p.relative_to(self.out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(self.out.rglob("*")) if p.is_file()
        }


def check_outputs(r: Round) -> dict:
    """Checks (a)-(d) on one round's outputs; raises checks.CheckFailed."""
    wl = r.wl
    truth = checks.Truth(r.inputs)
    checks.check_bundle(r.bundle, truth)
    header = {"kernel": wl.kernel, "H": wl.h, "burn_in": wl.burn_in, "B": CHAIN_B,
              "seed": r.seeds["mcmc"], "M": wl.m}
    rates = checks.check_prior(r.out, header)
    found = checks.check_traces(r.out, truth, wl, r.seed)
    checks.check_evaluate(r.out / "eval", found.pop("traces"), truth)
    return {"accept": rates, **found}


def per_layer(tracer: Tracer, traced: Round, untraced_pipeline: float, wl: Workload,
              found: dict) -> dict[str, float]:
    """The per-layer metrics of one traced round."""
    L = tracer.layer_totals()
    c = tracer.counts

    def calls(name):
        return L[name]["calls"] if name in L else 0

    def self_ms(name):
        return L[name]["self_ms"] if name in L else 0.0

    steps = calls("acquisition.step")
    return {
        "kernels.gram.calls": calls("kernels.gram"),
        "kernels.gram.ms": self_ms("kernels.gram"),
        "kernels.gram.entries": c["kernels.gram.entries"],
        "kernels.cross_covariance.calls": calls("kernels.cross_covariance"),
        "kernels.cross_covariance.ms": self_ms("kernels.cross_covariance"),
        "kernels.cross_covariance.entries": c["kernels.cross_covariance.entries"],
        "gp.marginal.calls": calls("gp.marginal"),
        "gp.marginal.ms": self_ms("gp.marginal"),
        "gp.solve.calls": calls("gp.solve"),
        "gp.solve.ms": self_ms("gp.solve"),
        "gp.posterior.calls": calls("gp.posterior"),
        "gp.posterior.ms": self_ms("gp.posterior"),
        "gp.cholesky.attempts": c["gp.cholesky.calls"],
        "gp.jitter_retries": c["gp.cholesky.calls"] - c["gp.factorisation.calls"],
        "gp.numerical_failures": c["gp.factorisation.errors"],
        "mcmc.theta_update.calls": calls("mcmc.theta_update"),
        "mcmc.theta_update.ms": self_ms("mcmc.theta_update"),
        "mcmc.eta_update.calls": calls("mcmc.eta_update"),
        "mcmc.eta_update.ms": self_ms("mcmc.eta_update"),
        "mcmc.run_chain.ms": self_ms("mcmc.run_chain"),
        "mcmc.iteration_ms": L["mcmc.run_chain"]["total_ms"] / wl.h,
        "mcmc.draw_prior.ms": self_ms("mcmc.draw_prior"),
        "mcmc.theta_accept_rate": found["accept"]["theta"],
        "mcmc.eta_accept_rate": found["accept"]["eta"],
        "acquisition.run_bo.ms": self_ms("acquisition.run_bo"),
        "acquisition.step_ms": L["acquisition.step"]["total_ms"] / steps,
        "acquisition.solves_per_step": calls("gp.solve") / steps,
        "acquisition.ess_over_m": found["ess_over_m"],
        "acquisition.uniform_fallbacks": found["uniform_fallbacks"],
        "baselines.run_baseline.ms": self_ms("baselines.run_baseline"),
        "traces.save_trace.calls": calls("traces.save_trace"),
        "traces.save_trace.ms": self_ms("traces.save_trace"),
        "traces.load_trace.calls": calls("traces.load_trace"),
        "traces.load_trace.ms": self_ms("traces.load_trace"),
        "metrics.curves.ms": self_ms("metrics.curves"),
        "svg.save_chart.ms": self_ms("svg.save_chart"),
        "data.ingest.ms": self_ms("data.ingest"),
        "data.preprocess.ms": self_ms("data.preprocess"),
        "data.load_dataset.calls": calls("data.load_dataset"),
        "data.load_dataset.ms": self_ms("data.load_dataset"),
        "data.atomic_write.calls": calls("data.atomic_write"),
        "data.atomic_write.bytes": c["data.atomic_write.bytes"],
        "data.atomic_write.ms": self_ms("data.atomic_write"),
        "cli.train-prior.ms": L["cli.train-prior"]["total_ms"],
        "cli.run-bo.ms": L["cli.run-bo"]["total_ms"],
        "cli.run-baseline.ms": L["cli.run-baseline"]["total_ms"],
        "cli.evaluate.ms": L["cli.evaluate"]["total_ms"],
        "cli.self_ms": sum(self_ms(f"cli.{v}") for v in set(VERBS)),
        "setup.import_ms": traced.times["import"] * 1e3,
        "trace.overhead_s": traced.times["pipeline"] - untraced_pipeline,
    }


def phase_shares(times: dict[str, float]) -> dict[str, float]:
    phases = {"setup": times["setup"], "train-prior": times["train-prior"],
              "run-bo": times["run-bo"],
              "report": times["baseline-with"] + times["baseline-without"] + times["evaluate"]}
    return {k: round(100.0 * v / times["pipeline"], 1) for k, v in phases.items()}


def run_rounds(wl: Workload, work: Path, seed: int, seconds: float):
    """Untraced rounds: at least MIN_ROUNDS, more while one more fits in
    ``seconds``. Returns (rounds, verbs attempted, verbs failed, problem)."""
    rounds: list[Round] = []
    attempted = failed = 0
    elapsed = 0.0
    while len(rounds) < MIN_ROUNDS or elapsed + statistics.median(
            r.times["pipeline"] for r in rounds) <= seconds:
        r = Round(wl, work, round_seed(seed, len(rounds)), f"round{len(rounds)}")
        gc.collect()  # every round starts from a collected heap
        r.run(SETUP_REPS)
        attempted += len(VERBS)
        failed += r.failed
        if r.failed:
            return rounds, attempted, failed, "a verb failed"
        elapsed += r.times["pipeline"]
        rounds.append(r)
    return rounds, attempted, failed, None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=34.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "airbo" / "__init__.py").is_file():
        print(f"error: no airbo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    wl = WORKLOADS[args.workload]

    calibration = {"start": calibrate()}
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)

    rounds, attempted, failed, problem = run_rounds(wl, work, args.seed, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    found = []
    if problem is None:
        try:
            found = [check_outputs(r) for r in rounds]
        except checks.CheckFailed as exc:
            problem = f"check failed: {exc}"
    summary = {"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
               "blas_threads": BLAS_THREADS,
               "round_metrics": [r.metrics() for r in rounds],
               "setup_s": [x for r in rounds for x in r.setups]}
    metrics = {}
    if problem is None:
        metrics = {k: statistics.median(r.metrics()[k] for r in rounds)
                   for k in END_TO_END if k not in ("setup_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(summary["setup_s"])
        metrics["peak_rss_mb"] = peak_rss_mb
        summary["phase_share_pct"] = phase_shares(
            {k: sum(r.times[k] for r in rounds) for k in rounds[0].times})

    if args.trace and problem is None:
        tracer = Tracer()
        traced = Round(wl, work, rounds[0].seed, "traced", tracer)
        traced.run(setup_reps=1)
        attempted += len(VERBS)
        failed += traced.failed
        if traced.failed or traced.digest() != rounds[0].digest():
            problem = "the traced round failed or changed the outputs"
        else:
            metrics = per_layer(tracer, traced, metrics["pipeline_s"], wl, found[0])
            summary["traced_phase_share_pct"] = phase_shares(traced.times)
            tracer.dump(work / "spans.csv")
    calibration["end"] = calibrate()
    summary["calibration_ms_per_block"] = calibration
    (work / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"BLAS threads {BLAS_THREADS['OPENBLAS_NUM_THREADS']}, outputs in {work}")
    print("calibration ms/block: " + ", ".join(
        f"{k} {c['median_ms']:.2f} ({c['min_ms']:.2f}-{c['max_ms']:.2f})"
        for k, c in calibration.items()))
    for key in ("phase_share_pct", "traced_phase_share_pct"):
        if key in summary:
            print(f"{key}: {summary[key]}")
    if problem:
        print(f"error: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": problem is None, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if problem is None else 1


if __name__ == "__main__":
    sys.exit(main())
