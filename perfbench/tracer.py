"""Outside-in tracer for the superkrylov modules.

The tracer times calls into each module's public functions from outside
the program: it replaces every public function with a timing wrapper,
both in the module that defines it and in every ``superkrylov`` module
that bound the name at import time (``experiments``, ``solver`` and
``measurement`` all do, e.g. ``fit``, ``evaluate_x0`` and
``recovery_derivative``).  Each call becomes one span
``(name, start, end, parent, run_id)``; spans stay in memory until the
caller writes them out, and ``restore`` puts the original functions back.

Spans nest through one call stack, which is exact while the program runs
its sweep cells on one thread (the CLI default).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "superkrylov"

# metric group of each traced module; the CLI is part of the runner layer
GROUPS = {
    "pauli": "pauli",
    "dynamics": "dynamics",
    "measurement": "measurement",
    "minimax": "minimax",
    "solver": "solver",
    "experiments": "experiments",
    "cli": "experiments",
}

ORACLE = frozenset(f"dynamics.{f}" for f in (
    "recovery_probability", "recovery_derivative", "exact_J_entry",
    "exact_second_derivative"))
WEIGHTS = "dynamics.eigenbasis_weights"


def _model_key(model) -> tuple:
    b = model.budget
    return (model.M, model.x_in.tobytes(), model.tau, b.q, b.r)


def _array_bytes(x) -> bytes:
    import numpy as np

    return np.asarray(x).tobytes()


# Per-function argument probes: ``distinct`` keys measure repeated work,
# ``volume`` sums a work size.  Their parameter names mirror the traced
# functions so positional and keyword calls bind alike.
DISTINCT = {
    WEIGHTS: lambda spec, v: (spec.eigenvalues.tobytes(), _array_bytes(v)),
    "minimax.forcing_gram": lambda model, timepoints: (
        _model_key(model), _array_bytes(timepoints)),
    "minimax.evaluate_component": lambda fit_result, t, component: (
        fit_result.beta.tobytes(), fit_result.timepoints.tobytes(),
        _model_key(fit_result.model), float(t), component),
}
VOLUME = {
    "pauli.assemble_dense": ("pauli.dense_bytes",
                             lambda ham: 16 * 4 ** ham.n_qubits),
    "measurement.forcing_norm_sq": (
        "measurement.quadrature_nodes",
        lambda spec, v, j, k, tau, order=3, n_nodes=120: n_nodes),
    "measurement.measure_series": (
        "measurement.samples",
        lambda spec, v, j, k, grid, theta, seed=None: len(grid)),
    "minimax.forcing_gram": ("minimax.gram_entries",
                             lambda model, timepoints: len(timepoints) ** 2),
}

# per-layer metrics reported as "<name>.calls" and/or "<name>.s" (self time)
CALLS = ("pauli.assemble_dense", WEIGHTS, "measurement.forcing_norm_sq",
         "minimax.forcing_gram", "minimax.evaluate_component",
         "solver.assemble_pair_minimax", "solver.threshold_solve")
SELF_TIMES = ("pauli.assemble_dense", "dynamics.eigendecompose",
              "measurement.forcing_norm_sq", "measurement.measure_series",
              "minimax.forcing_gram", "minimax.fit", "minimax.error_certificate",
              "minimax.evaluate_component", "solver.assemble_pair_exact",
              "solver.assemble_pair_minimax", "solver.threshold_solve",
              "solver.noise_rate", "experiments.build_context")
RATIOS = {"dynamics.weights_useful_ratio": WEIGHTS,
          "minimax.gram_useful_ratio": "minimax.forcing_gram",
          "minimax.eval_useful_ratio": "minimax.evaluate_component"}


class Tracer:
    """Records one span per call into a public ``superkrylov`` function."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.errors: Counter = Counter()
        self.distinct: dict = defaultdict(set)
        self.volume: Counter = Counter()
        self._stack: list[int] = []
        self.patches: list = []  # (module, name, original) while installed

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every public function of the traced modules, wherever bound."""
        errors = sys.modules[f"{PACKAGE}.errors"]
        wrappers = {}
        for short in GROUPS:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}",
                                               errors.SuperKrylovError)
        for name, mod in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self.patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        return self

    def restore(self):
        """Put every original function back where it was bound."""
        while self.patches:
            mod, attr, obj = self.patches.pop()
            setattr(mod, attr, obj)

    def _wrap(self, fn, name: str, error_type):
        spans, stack = self.spans, self._stack
        group = GROUPS[name.split(".", 1)[0]]
        distinct, volume = DISTINCT.get(name), VOLUME.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if distinct is not None:
                self.distinct[name].add(distinct(*args, **kwargs))
            if volume is not None:
                self.volume[volume[0]] += volume[1](*args, **kwargs)
            idx = len(spans)
            spans.append((name,))  # completed in ``finally``
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except error_type:
                # count an error once, where it leaves its module's layer
                if parent < 0 or _group(spans[parent]) != group:
                    self.errors[group] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id)

        return traced

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def metrics(self) -> dict:
        """Per-layer counts and self times of everything recorded so far."""
        own = self.self_times()
        calls: Counter = Counter()
        self_s: Counter = Counter()
        group_s: Counter = Counter()
        oracle_calls, oracle_s = 0, 0.0
        for span, t in zip(self.spans, own):
            name, parent = span[0], span[3]
            calls[name] += 1
            self_s[name] += t
            group_s[_group(span)] += t
            parent_name = self.spans[parent][0] if parent >= 0 else None
            if name in ORACLE:
                oracle_s += t
                oracle_calls += parent_name not in ORACLE
            elif name == WEIGHTS and parent_name in ORACLE:
                oracle_s += t
        out = {}
        for group in sorted(set(GROUPS.values())):
            out[f"{group}.self_s"] = group_s[group]
            out[f"{group}.errors"] = self.errors[group]
        for name in CALLS:
            out[f"{name}.calls"] = calls[name]
        for name in SELF_TIMES:
            out[f"{name}.s"] = self_s[name]
        out.update({k: self.volume[k] for k, _ in VOLUME.values()})
        out["dynamics.oracle.calls"] = oracle_calls
        out["dynamics.oracle.s"] = oracle_s
        out["dynamics.oracle.us_per_call"] = (
            1e6 * oracle_s / oracle_calls if oracle_calls else 0.0)
        for metric, name in RATIOS.items():
            out[metric] = len(self.distinct[name]) / calls[name] if calls[name] else 0.0
        return out

    def write(self, path):
        """Write the spans as CSV: run_id,index,name,start,end,parent."""
        with open(path, "w") as fh:
            fh.write("run_id,index,name,start,end,parent\n")
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(f"{run_id},{i},{name},{start!r},{end!r},{parent}\n")


def _group(span) -> str:
    return GROUPS[span[0].split(".", 1)[0]]
