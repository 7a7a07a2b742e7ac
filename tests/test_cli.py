"""CLI behaviour: exit codes, artifact shapes, determinism, evaluation
outputs and the correlation-curve command."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import airbo
from airbo.cli import main
from airbo.data import Dataset, Snapshot, save_dataset
from airbo.kernels import ThetaVector, get_spec
from airbo.mcmc import PriorSampleSet, save_prior
from airbo.traces import BoTrace, save_trace

SPEC = get_spec("rbf_rbf")

BASE_CONFIG = """\
[model]
kernel = rbf_rbf

[mcmc]
h = {h}
burn_in = {burn_in}
seed = 13

[bo]
m = {m}
n_init = {n_init}
n_iter = {n_iter}
seed = 13

[baseline]
n_runs = {n_runs}

[data]
source = bundle
path = {data_path}

[synth]
grid_size = {grid_size}
n_snapshots = {n_snapshots}
seed = 13

[synth_theta]
sigma_r1 = 1.0
l_r1 = 14.0
sigma_r2 = 1.0
l_r2 = 56.0

[output]
dir = {out_dir}
"""


def write_config(path, **overrides):
    params = dict(
        h=25, burn_in=5, m=10, n_init=3, n_iter=8, n_runs=4,
        data_path="out/dataset.jsonl", grid_size=8, n_snapshots=6,
        out_dir="out",
    )
    params.update(overrides)
    path.write_text(BASE_CONFIG.format(**params))
    return path


def run_cli(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestSynth:
    def test_unset_blas_threads_default_to_one(self, workdir):
        # at 144 points a multi-threaded Cholesky gives other bits than a
        # single-threaded one, so the bytes pin the thread count; on a
        # one-core machine both runs are single-threaded anyway
        cfg = write_config(workdir / "cfg.ini", grid_size=12, n_snapshots=4)
        package_parent = str(Path(airbo.__file__).resolve().parent.parent)
        written = []
        for threads in (None, "1"):
            env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
            if threads is not None:
                env.update(dict.fromkeys(_BLAS_VARS, threads))
            path = filter(None, [package_parent, env.get("PYTHONPATH")])
            env["PYTHONPATH"] = os.pathsep.join(path)
            out = f"threads-{threads}"
            subprocess.run(
                [sys.executable, "-m", "airbo", "synth", "--config", str(cfg), "--out", out],
                cwd=workdir, env=env, check=True, capture_output=True,
            )
            written.append((workdir / out / "dataset.jsonl").read_bytes())
        assert written[0] == written[1]

    def test_default_split_half_half(self, workdir):
        cfg = write_config(workdir / "cfg.ini", n_snapshots=20, grid_size=6)
        result = run_cli("synth", "--config", str(cfg))
        assert result.exit_code == 0
        from airbo.data import load_dataset

        ds = load_dataset(workdir / "out" / "dataset.jsonl")
        assert len(ds.tuning) == 10
        assert len(ds.test) == 10

    def test_seed_echoed_in_metadata(self, workdir):
        cfg = write_config(workdir / "cfg.ini")
        run_cli("synth", "--config", str(cfg), "--seed", "99")
        meta = json.loads((workdir / "out" / "dataset.jsonl").read_text().splitlines()[0])
        assert meta["meta"]["seed"] == 99

    def test_regeneration_reproducible(self, workdir):
        cfg = write_config(workdir / "cfg.ini")
        run_cli("synth", "--config", str(cfg))
        first = (workdir / "out" / "dataset.jsonl").read_bytes()
        run_cli("synth", "--config", str(cfg))
        assert (workdir / "out" / "dataset.jsonl").read_bytes() == first


class TestTrainPrior:
    def test_smoke_run_completes_quickly_with_m_records(self, workdir):
        cfg = write_config(workdir / "cfg.ini", h=50, burn_in=10, m=12,
                           grid_size=5, n_snapshots=6)
        run_cli("synth", "--config", str(cfg))
        t0 = time.monotonic()
        result = run_cli("train-prior", "--config", str(cfg))
        assert result.exit_code == 0
        assert time.monotonic() - t0 < 60
        lines = (workdir / "out" / "prior.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["record"] == "header"
        assert sum(r["record"] == "sample" for r in records) == 12
        assert "acceptance" in result.output

    def test_missing_tuning_file_exits_2_naming_path(self, workdir):
        cfg = write_config(workdir / "cfg.ini", data_path="nowhere/tuning.jsonl")
        result = CliRunner().invoke(main, ["train-prior", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "nowhere/tuning.jsonl" in result.output

    def test_rerun_byte_identical(self, workdir):
        cfg = write_config(workdir / "cfg.ini")
        run_cli("synth", "--config", str(cfg))
        run_cli("train-prior", "--config", str(cfg))
        first = (workdir / "out" / "prior.jsonl").read_bytes()
        diag = (workdir / "out" / "chain_diagnostics.csv").read_bytes()
        run_cli("train-prior", "--config", str(cfg))
        assert (workdir / "out" / "prior.jsonl").read_bytes() == first
        assert (workdir / "out" / "chain_diagnostics.csv").read_bytes() == diag


def prepare_pipeline(workdir, **overrides):
    cfg = write_config(workdir / "cfg.ini", **overrides)
    assert run_cli("synth", "--config", str(cfg)).exit_code == 0
    assert run_cli("train-prior", "--config", str(cfg)).exit_code == 0
    return cfg


class TestRunBo:
    def test_trace_files_and_row_counts(self, workdir):
        cfg = prepare_pipeline(workdir, n_snapshots=10, grid_size=6, n_iter=20, m=8)
        result = run_cli("run-bo", "--config", str(cfg), "--prior", "out/prior.jsonl")
        assert result.exit_code == 0
        traces = sorted((workdir / "out" / "bo").glob("trace_*.csv"))
        assert len(traces) == 5
        for path in traces:
            assert len(path.read_text().splitlines()) == 21  # header + 20 rows
        manifest = json.loads((workdir / "out" / "bo" / "manifest.json").read_text())
        assert len(manifest["traces"]) == 5

    def test_kernel_mismatch_refused_naming_both(self, workdir):
        cfg = prepare_pipeline(workdir)
        sum_spec = get_spec("sum")
        theta = ThetaVector(
            values={"sigma_r1": 1, "l_r1": 1, "sigma_w2": 1, "l_w2": 1}, gamma=0.3
        )
        prior = PriorSampleSet(samples=[theta], provenance={"kernel": "sum"})
        save_prior(prior, workdir / "sum_prior.jsonl")
        result = CliRunner().invoke(
            main, ["run-bo", "--config", str(cfg), "--prior", str(workdir / "sum_prior.jsonl")]
        )
        assert result.exit_code == 2
        assert "sum" in result.output and "rbf_rbf" in result.output

    def test_identical_config_and_seed_identical_traces(self, workdir):
        cfg = prepare_pipeline(workdir)
        run_cli("run-bo", "--config", str(cfg), "--prior", "out/prior.jsonl", "--out", "r1")
        run_cli("run-bo", "--config", str(cfg), "--prior", "out/prior.jsonl", "--out", "r2")
        assert tree_digest(workdir / "r1") == tree_digest(workdir / "r2")

    def test_parallel_jobs_match_sequential(self, workdir):
        cfg = prepare_pipeline(workdir, n_snapshots=8)
        run_cli("run-bo", "--config", str(cfg), "--prior", "out/prior.jsonl", "--out", "seq")
        run_cli("run-bo", "--config", str(cfg), "--prior", "out/prior.jsonl",
                "--out", "par", "--jobs", "2")
        assert tree_digest(workdir / "seq") == tree_digest(workdir / "par")


class TestExitCodes:
    def test_numerical_failure_exits_1(self, workdir):
        # amplitudes this large make the dense Gram factorisation fail
        # beyond every jitter rung
        cfg = workdir / "cfg.ini"
        cfg.write_text(
            "[synth]\ngrid_size = 6\nn_snapshots = 2\nseed = 13\n\n"
            "[synth_theta]\nsigma_r1 = 1e9\nl_r1 = 1e7\nsigma_r2 = 1e9\nl_r2 = 1e7\n"
        )
        result = CliRunner().invoke(main, ["synth", "--config", str(cfg)])
        assert result.exit_code == 1
        assert "numerical" in result.output.lower()


_HEADER = '{"record": "header", "kernel": "rbf_rbf"}\n'
_SUM_HEADER = '{"record": "header", "kernel": "sum"}\n'


def _sample(**override):
    """A prior.jsonl sample line of the sum kernel, with entries overridden."""
    rec = {"record": "sample", "gamma": 0.5,
           "values": {"sigma_r1": 1.0, "l_r1": 1.0, "sigma_w2": 1.0, "l_w2": 1.0}}
    if "gamma" in override:
        rec["gamma"] = override.pop("gamma")
    rec["values"].update(override)
    return json.dumps(rec) + "\n"


def _theta_file(**override):
    rec = json.loads(_sample(**override))
    return json.dumps({"kernel": "sum", "values": rec["values"], "gamma": rec["gamma"]})


class TestMalformedArtifacts:
    @pytest.mark.parametrize("verb,flag,text,where,message", [
        ("correlation-curve", "--prior", '{"record": "header"}\n', 1, "'kernel'"),
        ("correlation-curve", "--prior", _HEADER + '{"record": "sample"}\n', 2, "'values'"),
        ("correlation-curve", "--theta", '{"kernel": "rbf_rbf"}', 1, "'values'"),
        ("correlation-curve", "--theta", '{"kernel":\n', 2, "Expecting value"),
        ("correlation-curve", "--theta", "5\n", 1, "expected a JSON object"),
        ("correlation-curve", "--prior", _HEADER + "5\n", 2, "expected a JSON object"),
        ("correlation-curve", "--prior", '["header"]\n', 1, "expected a JSON object"),
        ("evaluate", "--dataset",
         '{"record": "stats"}\n{"record": "snapshot", "id": "a", "locations": [[0, 0]], '
         '"mask": [true]}\n', 2, "'values_raw'"),
        ("evaluate", "--dataset", '{"record": "stats"}\n5\n', 2, "expected a JSON object"),
        ("correlation-curve", "--prior", _SUM_HEADER + _sample(sigma_r1="1"), 2, "sigma_r1='1'"),
        ("correlation-curve", "--prior", _SUM_HEADER + _sample(l_r1=True), 2, "l_r1=True"),
        ("correlation-curve", "--prior", _SUM_HEADER + _sample(l_w2=None), 2, "l_w2=None"),
        ("correlation-curve", "--prior", _SUM_HEADER + _sample(gamma="0.5"), 2, "gamma='0.5'"),
        ("correlation-curve", "--theta", _theta_file(gamma="0.5"), 1, "gamma='0.5'"),
        ("correlation-curve", "--theta", _theta_file(sigma_w2=False), 1, "sigma_w2=False"),
        ("correlation-curve", "--theta", _theta_file(gamma=None), 1, "gamma=None"),
        ("correlation-curve", "--theta", '{"kernel": "rbf_rbf", "values": 5}', 1,
         "must be a mapping"),
    ], ids=["prior-header", "prior-sample", "theta-fields", "theta-json", "theta-scalar",
         "prior-scalar", "prior-list", "dataset-snapshot", "dataset-scalar",
         "prior-string-value", "prior-bool-value", "prior-null-value", "prior-string-gamma",
         "theta-string-gamma", "theta-bool-value", "theta-null-gamma", "theta-values-scalar"])
    def test_bad_input_exits_2_naming_path_and_line(
        self, workdir, verb, flag, text, where, message
    ):
        path = workdir / "artifact"
        path.write_text(text)
        extra = ["--traces", "traces"] if verb == "evaluate" else []
        result = CliRunner().invoke(main, [verb, flag, str(path), *extra])
        assert result.exit_code == 2, result.output
        assert f"{path}:{where}: " in result.output
        assert message in result.output


    def test_non_numeric_prior_value_exits_2_from_run_bo(self, workdir):
        cfg = write_config(workdir / "cfg.ini")
        path = workdir / "prior.jsonl"
        path.write_text(_HEADER + '{"record": "sample", "values": {"sigma_r1": "1", '
                        '"l_r1": 1.0, "sigma_r2": 1.0, "l_r2": 1.0}}\n')
        result = CliRunner().invoke(main, ["run-bo", "--config", str(cfg), "--prior", str(path)])
        assert result.exit_code == 2, result.output
        assert f"{path}:2: " in result.output

    @pytest.mark.parametrize("manifest,message", [
        ('{"method": "bo"', "Expecting"),
        ('{"method": "bo"}', "'traces'"),
        ('{"traces": 5}', "'traces' must be a list"),
        ('{"traces": [{"snapshot_id": "perfect"}]}', "'file'"),
        ('{"traces": [{"file": "trace_perfect.csv"}]}', "'snapshot_id'"),
        ('{"traces": ["trace_perfect.csv"]}', "expected a JSON object"),
    ], ids=["json", "traces", "traces-type", "file", "snapshot-id", "entry-scalar"])
    def test_bad_trace_manifest_exits_2_naming_it(self, workdir, manifest, message):
        perfect_dataset_and_trace(workdir)
        path = workdir / "traces" / "manifest.json"
        path.write_text(manifest)
        result = CliRunner().invoke(main, [
            "evaluate", "--dataset", str(workdir / "ds.jsonl"), "--traces",
            str(workdir / "traces"), "--out", str(workdir / "eval"),
        ])
        assert result.exit_code == 2, result.output
        assert f"{path}: " in result.output
        assert message in result.output


class TestRunBaseline:
    def test_without_replacement_full_coverage_ends_at_one(self, workdir):
        cfg = prepare_pipeline(workdir, grid_size=3, n_iter=9, n_init=2, n_runs=5)
        result = run_cli(
            "run-baseline", "--config", str(cfg), "--kind", "without-replacement"
        )
        assert result.exit_code == 0
        out = workdir / "out" / "baseline-without-replacement"
        for path in out.glob("trace_*.csv"):
            rows = path.read_text().splitlines()[1:]
            best = float(rows[-1].split(",")[5])
            values = [float(r.split(",")[4]) for r in rows]
            assert best == max(values)
            assert len(values) == 9
            assert len({tuple(r.split(",")[1:3]) for r in rows}) == 9

    def test_default_n_runs_is_100(self, workdir):
        cfg_text = (workdir / "cfg.ini").write_text(
            BASE_CONFIG.format(
                h=25, burn_in=5, m=10, n_init=2, n_iter=4, n_runs=100,
                data_path="out/dataset.jsonl", grid_size=4, n_snapshots=4, out_dir="out",
            ).replace("[baseline]\nn_runs = 100\n\n", "")
        )
        cfg = workdir / "cfg.ini"
        run_cli("synth", "--config", str(cfg))
        result = run_cli("run-baseline", "--config", str(cfg), "--kind", "with-replacement")
        assert result.exit_code == 0
        manifest = json.loads(
            (workdir / "out" / "baseline-with-replacement" / "manifest.json").read_text()
        )
        assert manifest["n_runs"] == 100
        assert len(manifest["traces"]) == 100 * 2

    def test_unrecognised_kind_is_usage_error(self, workdir):
        cfg = write_config(workdir / "cfg.ini")
        result = CliRunner().invoke(main, ["run-baseline", "--config", str(cfg), "--kind", "sobol"])
        assert result.exit_code == 2


def perfect_dataset_and_trace(workdir):
    values = np.array([0.5, 2.0, 1.0])
    locs = np.array([[0.0, 0.0], [7.0, 0.0], [14.0, 0.0]])
    snap = Snapshot(
        id="perfect", locations=locs, values_raw=np.exp(values),
        mask=np.ones(3, dtype=bool), values_pre=values,
    )
    ds = Dataset(tuning=[snap], test=[], log_mean=0.0, log_std=1.0)
    save_dataset(ds, workdir / "ds.jsonl")
    trace = BoTrace(snapshot_id="perfect")
    trace.append_observation(1, 7.0, 0.0, float(np.exp(2.0)), 2.0)
    trace.append_observation(2, 0.0, 0.0, float(np.exp(0.5)), 0.5)
    (workdir / "traces").mkdir()
    save_trace(trace, workdir / "traces" / "trace_perfect.csv")


class TestEvaluate:
    def test_perfect_trace_gives_unit_ratio_zero_distance(self, workdir):
        perfect_dataset_and_trace(workdir)
        result = run_cli(
            "evaluate", "--traces", "traces", "--dataset", "ds.jsonl", "--out", "eval"
        )
        assert result.exit_code == 0
        ratio = (workdir / "eval" / "ratio_traces.csv").read_text().splitlines()[1:]
        assert [float(r.split(",")[1]) for r in ratio] == [1.0, 1.0]
        dist = (workdir / "eval" / "distance_traces.csv").read_text().splitlines()[1:]
        assert [float(r.split(",")[1]) for r in dist] == [0.0, 0.0]
        table = (workdir / "eval" / "comparison_table.csv").read_text().splitlines()
        assert table[1] == "traces,1.000-1.000,0.000-0.000"

    def test_merged_table_and_interval_format(self, workdir):
        cfg = prepare_pipeline(workdir, n_snapshots=8, grid_size=6, n_iter=6, m=6, n_runs=3)
        run_cli("run-bo", "--config", str(cfg), "--prior", "out/prior.jsonl")
        run_cli("run-baseline", "--config", str(cfg), "--kind", "with-replacement")
        result = run_cli(
            "evaluate",
            "--traces", "out/bo",
            "--traces", "out/baseline-with-replacement",
            "--dataset", "out/dataset.jsonl",
            "--out", "out/eval", "--svg",
        )
        assert result.exit_code == 0
        table = (workdir / "out" / "eval" / "comparison_table.csv").read_text().splitlines()
        assert table[0] == "method,max_ratio,distance_km"
        assert len(table) == 3
        import re

        for row in table[1:]:
            assert re.match(r"^[\w-]+,-?\d+\.\d{3}--?\d+\.\d{3},-?\d+\.\d{3}--?\d+\.\d{3}$", row)
        assert (workdir / "out" / "eval" / "ratio.svg").exists()

    def test_orphan_traces_rejected_with_ids(self, workdir):
        perfect_dataset_and_trace(workdir)
        orphan = BoTrace(snapshot_id="ghost")
        orphan.append_observation(1, 0.0, 0.0, 1.0, 0.0)
        orphan.append_observation(2, 1.0, 0.0, 1.0, 0.0)
        save_trace(orphan, workdir / "traces" / "trace_ghost.csv")
        result = CliRunner().invoke(
            main, ["evaluate", "--traces", "traces", "--dataset", "ds.jsonl", "--out", "eval"]
        )
        assert result.exit_code == 2
        assert "ghost" in result.output


class TestCorrelationCurve:
    def write_theta(self, workdir):
        theta = {
            "kernel": "rbf_rbf",
            "values": {"sigma_r1": 2.05, "l_r1": 2.0, "sigma_r2": 2.04, "l_r2": 241.0},
        }
        path = workdir / "theta.json"
        path.write_text(json.dumps(theta))
        return path

    def read_curve(self, workdir):
        lines = (workdir / "out" / "correlation_curve.csv").read_text().splitlines()[1:]
        return [(float(r.split(",")[0]), float(r.split(",")[1])) for r in lines]

    def test_reported_mean_theta_reproduces_half_correlation(self, workdir):
        path = self.write_theta(workdir)
        result = run_cli("correlation-curve", "--theta", str(path), "--d-max", "10",
                         "--n-points", "11", "--out", "out")
        assert result.exit_code == 0
        curve = self.read_curve(workdir)
        assert curve[0] == (0.0, 1.0)
        assert curve[-1][0] == 10.0
        assert curve[-1][1] == pytest.approx(0.5, abs=0.02)

    def test_monotone_nonincreasing_for_rbf_rbf(self, workdir):
        path = self.write_theta(workdir)
        run_cli("correlation-curve", "--theta", str(path), "--d-max", "50",
                "--n-points", "26", "--out", "out")
        values = [v for _, v in self.read_curve(workdir)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_prior_route_uses_sample_mean(self, workdir):
        thetas = [
            ThetaVector(values={"sigma_r1": 1.0, "l_r1": 1.0, "sigma_r2": 1.0, "l_r2": 8.0}),
            ThetaVector(values={"sigma_r1": 3.0, "l_r1": 3.0, "sigma_r2": 1.0, "l_r2": 12.0}),
        ]
        prior = PriorSampleSet(samples=thetas, provenance={"kernel": "rbf_rbf"})
        save_prior(prior, workdir / "prior.jsonl")
        result = run_cli("correlation-curve", "--prior", str(workdir / "prior.jsonl"),
                         "--out", "out")
        assert result.exit_code == 0
        from airbo.kernels import correlation_at_distance

        mean_theta = ThetaVector(
            values={"sigma_r1": 2.0, "l_r1": 2.0, "sigma_r2": 1.0, "l_r2": 10.0}
        )
        curve = self.read_curve(workdir)
        d, value = curve[5]
        assert value == pytest.approx(correlation_at_distance(SPEC, mean_theta, d), abs=1e-12)

    def test_requires_exactly_one_source(self, workdir):
        result = CliRunner().invoke(main, ["correlation-curve"])
        assert result.exit_code == 2
