"""Spans around the public functions of each ``spinprep`` module, recorded from outside.

``Tracer.installed()`` wraps every function named in ``LAYERS`` and rebinds
the wrapper under every module-level name that holds the original: the
package copies names with ``from .x import y`` (``cli.blow_up``,
``diagnostics.invert_field``, the package ``__init__``), and
``evolve.reduced_evolution`` imports ``prepare.blow_up`` when it runs, which
then finds the wrapper.  Leaving the ``with`` block restores the originals.

Each span is ``[name, start_ns, end_ns, parent, call]``: ``parent`` is the
index of the enclosing span (-1 for a root) and ``call`` numbers the root
spans, so every span of one CLI call shares it.  Spans stay in memory until
the run writes them out.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = {
    "linalg": ("herm_eig", "validate_density", "matrix_function", "partial_trace"),
    "model": ("equilibrium_observables", "hamiltonian", "qubit_bloch"),
    "prepare": (
        "invert_field",
        "equilibrium_state",
        "blow_up",
        "susceptibility",
        "kubo_integral",
        "mori_fields",
        "mori_blow_up",
    ),
    "evolve": (
        "propagator",
        "evolve_total",
        "reduced_evolution",
        "factorizing_propagator",
        "invert_propagator",
        "fit_affine_map",
    ),
    "diagnostics": (
        "figure_sweep",
        "linearity_scan",
        "convexity_test",
        "affinity_defect",
        "factorization_residual",
    ),
    "cli": ("main",),
}

# prepare.blow_up is split by the preparation it is given
BLOW_UP_KINDS = {
    "Equilibrium": "equilibrium",
    "Factorizing": "factorizing",
    "MoriLinearResponse": "mori",
    "FactorizeAndWait": "factorize_and_wait",
}
BLOW_UP_SPANS = tuple(
    f"prepare.blow_up.{kind}" for kind in ("equilibrium", "factorizing", "mori", "factorize_and_wait")
)


def span_names() -> list[str]:
    """Every span name a traced pass reports, blow_up split by preparation."""
    names = []
    for module, functions in LAYERS.items():
        for fn in functions:
            names.extend(BLOW_UP_SPANS if fn == "blow_up" else [f"{module}.{fn}"])
    return names


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._calls = 0

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if name == "prepare.blow_up":
                span_name = "prepare.blow_up." + BLOW_UP_KINDS[type(args[0]).__name__]
            if stack:
                parent, call = stack[-1], spans[stack[-1]][4]
            else:
                parent, call = -1, self._calls
                self._calls += 1
            index = len(spans)
            span = [span_name, 0, 0, parent, call]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every function in LAYERS wherever the package binds it."""
        originals = {}
        for module, functions in LAYERS.items():
            mod = sys.modules[f"spinprep.{module}"]
            for fn in functions:
                original = getattr(mod, fn)
                originals[id(original)] = (original, self._wrap(f"{module}.{fn}", original))
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "spinprep" or mod_name.startswith("spinprep.")):
                continue
            for attr, value in list(vars(mod).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    patched.append((mod, attr, value))
        try:
            yield
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def write(self, path) -> None:
        """All spans, one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


# Flags of the ancestors a span sits under, for the ratios that need a base.
_INSIDE = {
    "prepare.invert_field": 1,
    "prepare.blow_up.mori": 2,
    "prepare.blow_up.factorize_and_wait": 4,
}
_BLOW_UP = 8


def profile(spans: list[list], lo: int, hi: int) -> dict:
    """Counts, self and inclusive time per span name over spans[lo:hi].

    ``spans[lo:hi]`` must hold whole root spans (one or more complete CLI
    calls).  Self time is a span's duration minus its direct children's.
    Also returns the counts that only make sense under an ancestor.
    """
    child_ns = [0] * (hi - lo)
    flags = [0] * (hi - lo)
    for i in range(lo, hi):
        name, start, end, parent, _ = spans[i]
        if parent >= lo:
            child_ns[parent - lo] += end - start
            p = spans[parent][0]
            flags[i - lo] = flags[parent - lo] | _INSIDE.get(p, 0) | (_BLOW_UP if p in BLOW_UP_SPANS else 0)
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    incl_ns: dict[str, int] = {}
    nested = {"evals_in_invert": 0, "susceptibility_in_mori": 0, "factorizing_in_faw": 0, "eigensolves_in_blow_up": 0}
    root_ns = 0
    for i in range(lo, hi):
        name, start, end, parent, _ = spans[i]
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + dur - child_ns[i - lo]
        incl_ns[name] = incl_ns.get(name, 0) + dur
        if parent < lo:
            root_ns += dur
        f = flags[i - lo]
        if name == "model.equilibrium_observables" and f & 1:
            nested["evals_in_invert"] += 1
        elif name == "prepare.susceptibility" and f & 2:
            nested["susceptibility_in_mori"] += 1
        elif name == "evolve.factorizing_propagator" and f & 4:
            nested["factorizing_in_faw"] += 1
        elif name in ("linalg.herm_eig", "linalg.validate_density") and f & _BLOW_UP:
            nested["eigensolves_in_blow_up"] += 1
    return {"calls": calls, "self_ns": self_ns, "incl_ns": incl_ns, "nested": nested, "root_ns": root_ns}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(profiles: list[dict], overhead_ratio: float) -> dict[str, float]:
    """Per-pass layer metrics from the profiles of identical traced passes.

    Counts come from the first pass (the run checks that all passes agree);
    self times are medians over the passes.  A ratio whose base is zero on
    this workload is reported as 0.
    """
    first = profiles[0]
    calls = first["calls"]
    metrics: dict[str, float] = {}
    for name in span_names():
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.self_ms"] = statistics.median(p["self_ns"].get(name, 0) for p in profiles) / 1e6
    nested = first["nested"]
    blow_ups = sum(calls.get(n, 0) for n in BLOW_UP_SPANS)
    metrics["prepare.invert_field.evals_per_call"] = _ratio(
        nested["evals_in_invert"], calls.get("prepare.invert_field", 0)
    )
    metrics["prepare.susceptibility.per_mori_blow_up"] = _ratio(
        nested["susceptibility_in_mori"], calls.get("prepare.blow_up.mori", 0)
    )
    metrics["evolve.factorizing_propagator.per_faw_blow_up"] = _ratio(
        nested["factorizing_in_faw"], calls.get("prepare.blow_up.factorize_and_wait", 0)
    )
    metrics["linalg.eigensolves_per_blow_up"] = _ratio(nested["eigensolves_in_blow_up"], blow_ups)
    metrics["trace.overhead_ratio"] = overhead_ratio
    return metrics

