"""In-memory spans around calls into setfuse, installed from outside.

``instrument`` wraps every public function of each setfuse layer module
and rebinds the wrapper at every place a setfuse module holds the
original (``solvers`` imports ``localisation_emd`` by name, the package
re-exports most functions), so calls between modules are seen too. Spans
are kept in memory with a link to their parent span and written out once,
when the run ends. Self time is a span's duration minus the time its
direct children cover; the code under test is single-threaded, so
children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter

LAYERS = ("model", "gaussian", "quadrature", "fusion", "solvers", "diagnostics", "scenarios", "cli")
# spans that each hold exactly one fusion, in process or behind the CLI
FUSION_SPANS = ("op.joint", "op.consistent", "scenarios.run_fuse")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, parent span index or -1, start, end)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([self._name_id(name), parent, time.perf_counter(), 0.0])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def active(self, name: str) -> bool:
        """True when a span called ``name`` is open on the stack."""
        name_id = self._name_ids.get(name)
        return name_id is not None and any(self.spans[i][0] == name_id for i in self._stack)

    def wrap(self, name: str, fn, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name_id, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for index, (name_id, _, start, end) in enumerate(self.spans):
            entry = out.setdefault(self.names[name_id], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[index]
        return {name: {"calls": c, "total_s": t, "self_s": s} for name, (c, t, s) in out.items()}

    def write(self, path) -> None:
        """Write every span as one tab-separated line: name, parent, start, end."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tparent\tstart\tend\n")
            for index, (name_id, parent, start, end) in enumerate(self.spans):
                fh.write(f"{index}\t{self.names[name_id]}\t{parent}\t{start:.9f}\t{end:.9f}\n")


def _hooks(tracer: Tracer) -> dict:
    """Counters taken at layer boundaries, keyed by span name."""

    def grid_eval(args, result):
        values = args[0].values
        tracer.counts["quadrature.grid_cells"] += values.size
        tracer.counts["quadrature.grid_bytes"] += 2 * values.nbytes

    def curvature(args, result):
        if tracer.active("solvers.newton_localisation"):
            tracer.counts["solvers.loc_evaluations"] += 1

    def grid_curvature(args, result):
        grid_eval(args, result)
        curvature(args, result)

    def loc_solve(args, result):
        tracer.counts["solvers.loc_solves"] += 1
        tracer.counts["solvers.loc_iterations"] += result[3].iterations

    def card_solve(args, result):
        tracer.counts["solvers.card_solves"] += 1
        tracer.counts["solvers.card_iterations"] += result[2].iterations

    def csv_written(args, result):
        tracer.counts["scenarios.write_csv.bytes"] += os.path.getsize(result)

    def sweep(args, result):
        spec = args[0].sweep
        tracer.counts["scenarios.sweep_cells"] += spec.kappa[2] * spec.omega[2]

    return {
        "quadrature.grid_z_omega": grid_eval,
        "quadrature.grid_z_prime": grid_eval,
        "quadrature.grid_z_double_prime": grid_curvature,
        "quadrature.mc_z_double_prime": curvature,
        "solvers.newton_localisation": loc_solve,
        "solvers.newton_cardinality": card_solve,
        "scenarios.write_csv": csv_written,
        "scenarios.run_sweep": sweep,
    }


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every layer and count numpy Cholesky
    factorisations. Not reversible; call once per process."""
    import numpy as np

    modules = [importlib.import_module(f"setfuse.{layer}") for layer in LAYERS]
    hooks = _hooks(tracer)
    sites = [m for name, m in sys.modules.items() if name == "setfuse" or name.startswith("setfuse.")]
    for layer, module in zip(LAYERS, modules):
        for name, fn in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            span_name = f"{layer}.{name}"
            traced = tracer.wrap(span_name, fn, hooks.get(span_name))
            for site in sites:
                for attr, value in list(vars(site).items()):
                    if value is fn:
                        setattr(site, attr, traced)

    cholesky = np.linalg.cholesky

    @functools.wraps(cholesky)
    def counted_cholesky(*args, **kwargs):
        tracer.counts["cholesky"] += 1
        if tracer.active("scenarios.run_sweep"):
            tracer.counts["cholesky.sweep"] += 1
        if any(tracer.active(op) for op in FUSION_SPANS):
            tracer.counts["cholesky.fusions"] += 1
        return cholesky(*args, **kwargs)

    np.linalg.cholesky = counted_cholesky
