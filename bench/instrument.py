"""Outside-in instrumentation of fairclf, installed by the benchmark's worker.

Nothing under ``src/`` is changed. A public function is replaced by a wrapper
at every fairclf module that binds it, so ``fairclf.sweep.audit`` and
``fairclf.cli.run_audit`` are both caught, and ``fairclf.models.fit_logreg``
also catches the baseline refits that the gamma-mode fits make internally.
The objective, gradient and constraint callables of each problem handed to a
solver are wrapped with ``dataclasses.replace``.

Every run records the outermost fit calls (time, status, whether it raised)
and checks each fitted model. A traced run also records one span per call at
each layer boundary, with its parent, plus counters, keeps them in memory and
writes them out when the pass ends.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace

import numpy as np

import checks

FIT_FUNCTIONS = (
    "fit_logreg",
    "fit_logreg_fair",
    "fit_logreg_fairness_max",
    "fit_logreg_fine_grained",
    "fit_linear_svm_fair",
    "fit_kernel_svm_fair",
)

# span name -> (defining module, attribute); the layer is the part before the dot
TRACED = {
    "solvers.minimize_smooth": ("fairclf.solvers", "minimize_smooth"),
    "solvers.solve_qp": ("fairclf.solvers", "solve_qp"),
    "models.gram_matrix": ("fairclf.models", "gram_matrix"),
    "models.decision_values": ("fairclf.models", "decision_values"),
    "metrics.audit": ("fairclf.metrics", "audit"),
    "sweep.run_sweep": ("fairclf.sweep", "run_sweep"),
    "sweep.emit_results": ("fairclf.sweep", "emit_results"),
    "cli.cli_main": ("fairclf.cli", "cli_main"),
    "ingest.load_adult": ("fairclf.ingest", "load_adult"),
    "data.split": ("fairclf.data", "split"),
    "data.standardize_columns": ("fairclf.data", "standardize_columns"),
    "synth.generate": ("fairclf.synth", "generate"),
}

LAYERS = ("solvers", "models", "sweep", "metrics", "cli", "ingest", "data", "synth")

# oracle and constraint callables run models code on the solver's behalf;
# their time is reported on its own, not as any layer's self time
OWN_TIME = ("solvers.oracle", "solvers.constraint")


def _fairclf_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "fairclf" or name.startswith("fairclf.")]


class Instrument:
    """Fit records and checks always; spans and counters when ``trace`` is set."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.fits: list[dict] = []
        self.failed_checks: list[str] = []
        self.check_s = 0.0
        self.marks: list[float] = []  # end of each outermost fit, check time left out
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, float] = {}
        self._open: list[int] = []
        self._fit_depth = 0
        self._patched: list[tuple] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        import fairclf.models

        for name in FIT_FUNCTIONS:
            original = getattr(fairclf.models, name)
            self._rebind(original, self._fit_wrapper(original, "models." + name))
        if not self.trace:
            return
        for span_name, (module_name, attr) in TRACED.items():
            original = getattr(sys.modules[module_name], attr)
            if span_name.startswith("solvers."):
                wrapper = self._solver_wrapper(original, span_name)
            else:
                wrapper = self._span_wrapper(original, span_name)
            self._rebind(original, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _rebind(self, original, wrapper) -> None:
        for module in _fairclf_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def _count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _timed(self, fn, name: str, bytes_counter: str | None = None):
        def wrapped(*args, **kwargs):
            index = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(index)
            self._count(name + "_calls")
            if bytes_counter is not None:
                self._count(bytes_counter, np.asarray(out).nbytes)
            return out

        return wrapped

    def _span_wrapper(self, original, name: str):
        if name == "models.gram_matrix":
            return self._timed(original, name, bytes_counter="models.gram_bytes")
        timed = self._timed(original, name)
        if name != "ingest.load_adult":
            return timed

        def wrapped(*args, **kwargs):
            dataset, report = timed(*args, **kwargs)
            self._count("ingest.rows_read", report.rows_read)
            return dataset, report

        return wrapped

    def _solver_wrapper(self, original, name: str):
        def wrapped(problem, settings=None):
            problem = self._wrap_problem(problem)
            index = self._enter(name)
            try:
                result = original(problem, settings)
            finally:
                self._exit(index)
            self._count(name + "_calls")
            if any(self.spans[i][0] == "sweep.run_sweep" for i in self._open):
                self._count("sweep.solves")
            self._count("solvers.inner_iterations", result.iterations)
            self._count("solvers.uncertified", result.status != "converged")
            return result

        return wrapped

    def _wrap_problem(self, problem):
        from fairclf.solvers import ConstraintBlock, SmoothProblem

        if not isinstance(problem, SmoothProblem):
            return problem  # a QP's oracle is built inside the solver
        blocks = []
        for entry in problem.convex_constraints:
            if isinstance(entry, ConstraintBlock):
                blocks.append(
                    replace(
                        entry,
                        value=self._timed(entry.value, "solvers.constraint"),
                        jacobian=self._timed(entry.jacobian, "solvers.constraint", "solvers.jacobian_bytes"),
                    )
                )
            else:
                value_fn, grad_fn = entry
                blocks.append(
                    (
                        self._timed(value_fn, "solvers.constraint"),
                        self._timed(grad_fn, "solvers.constraint", "solvers.jacobian_bytes"),
                    )
                )
        return replace(
            problem,
            objective=self._timed(problem.objective, "solvers.oracle"),
            gradient=self._timed(problem.gradient, "solvers.oracle"),
            convex_constraints=blocks,
        )

    # -- fits -------------------------------------------------------------

    def _fit_wrapper(self, original, name: str):
        def wrapped(train, spec, settings=None):
            outer = self._fit_depth == 0
            self._fit_depth += 1
            index = self._enter(name) if self.trace else None
            start = time.perf_counter()
            try:
                model = original(train, spec, settings)
            except Exception:
                if outer:
                    self.fits.append({"fn": name, "seconds": time.perf_counter() - start, "status": "raised"})
                raise
            finally:
                if index is not None:
                    self._exit(index)
                self._fit_depth -= 1
            seconds = time.perf_counter() - start
            if self.trace:
                self._count(name + "_calls")
            if outer:
                self.fits.append({"fn": name, "seconds": seconds, "status": model.training_meta["status"]})
                check_start = time.perf_counter()
                self.marks.append(check_start - self.check_s)
                problem = checks.check_fit(train, spec, model)
                if problem:
                    self.failed_checks.append(f"{name} ({spec.mode}): {problem}")
                self.check_s += time.perf_counter() - check_start
            return model

        return wrapped

    # -- results ----------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Inclusive seconds per span name, self seconds per layer, and counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name + "_s"] = out.get(name + "_s", 0.0) + (end - start)
            if name not in OWN_TIME:
                out[name.split(".", 1)[0] + ".self_s"] += end - start - inner
        out.update(self.counters)
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)
