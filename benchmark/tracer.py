"""In-memory spans around the program's layers, installed from outside.

The package's modules import each other's names directly
(``from .gp import GpSolve``), so a wrapper is installed on the name the
caller looks up: on the class for methods, and in the calling module's
namespace for functions. Spans are kept as ``[name, start, end,
parent]`` lists and turned into per-layer self times at the end; a
layer's self time is its span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, fn, name: str, count=None):
        """``fn`` inside a span; ``count(args, kwargs)`` adds to the counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(self.counts, args, kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self, pkg) -> None:
        """Wrap the layers of a freshly imported ``airbo`` package."""
        cli, gp, kernels, mcmc = pkg.cli, pkg.gp, pkg.kernels, pkg.mcmc
        acquisition = pkg.acquisition

        def gram_entries(c, args, kwargs):
            c["kernels.gram.entries"] += args[0].n ** 2

        def cross_entries(c, args, kwargs):
            c["kernels.cross_covariance.entries"] += len(np.atleast_2d(args[2])) * len(
                np.atleast_2d(args[3])
            )

        def text_bytes(c, args, kwargs):
            c["data.atomic_write.bytes"] += len(args[1].encode("utf-8"))

        builder = kernels.CovarianceBuilder
        builder.gram = self.wrap(builder.gram, "kernels.gram", gram_entries)
        gp.cross_covariance = self.wrap(gp.cross_covariance, "kernels.cross_covariance",
                                        cross_entries)
        gp.CachedMarginal.__call__ = self.wrap(gp.CachedMarginal.__call__, "gp.marginal")
        gp.GpSolve.__init__ = self.wrap(gp.GpSolve.__init__, "gp.solve")
        gp.GpSolve.posterior = self.wrap(gp.GpSolve.posterior, "gp.posterior")
        gp.cholesky = self._counted(gp.cholesky, "gp.cholesky")
        gp._stable_cholesky = self._counted(gp._stable_cholesky, "gp.factorisation")
        mcmc.theta_update = self.wrap(mcmc.theta_update, "mcmc.theta_update")
        mcmc.eta_update = self.wrap(mcmc.eta_update, "mcmc.eta_update")
        mcmc.ChainResult.draw_prior = self.wrap(mcmc.ChainResult.draw_prior, "mcmc.draw_prior")
        cli.run_chain = self.wrap(cli.run_chain, "mcmc.run_chain")
        cli.run_bo = self.wrap(cli.run_bo, "acquisition.run_bo")
        acquisition._weighted_acquisition_batch = self.wrap(
            acquisition._weighted_acquisition_batch, "acquisition.step"
        )
        cli.run_baseline = self.wrap(cli.run_baseline, "baselines.run_baseline")
        cli.save_trace = self.wrap(cli.save_trace, "traces.save_trace")
        cli.load_trace = self.wrap(cli.load_trace, "traces.load_trace")
        for name in ("maximum_ratio_curve", "maximiser_distance_curve", "exploration_curve"):
            setattr(cli, name, self.wrap(getattr(cli, name), "metrics.curves"))
        pkg.svg.save_chart = self.wrap(pkg.svg.save_chart, "svg.save_chart")
        cli.load_dataset = self.wrap(cli.load_dataset, "data.load_dataset")
        write = self.wrap(pkg.data.atomic_write_text, "data.atomic_write", text_bytes)
        for module in (pkg.data, cli, pkg.traces, mcmc, pkg.svg):
            module.atomic_write_text = write

    def _counted(self, fn, name: str):
        """Count calls and raised errors without opening a span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[f"{name}.calls"] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.counts[f"{name}.errors"] += 1
                raise

        return counted

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms."""
        child_time = np.zeros(len(self.spans))
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
        )
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - child_time[i]) * 1e3
        return out

    def dump(self, path) -> None:
        """Write every span as ``name,start_ms,end_ms,parent`` (ms from the first)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        lines = ["name,start_ms,end_ms,parent"]
        for name, start, end, parent in self.spans:
            lines.append(f"{name},{(start - t0) * 1e3:.4f},{(end - t0) * 1e3:.4f},{parent}")
        path.write_text("\n".join(lines) + "\n")
