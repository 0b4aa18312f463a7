"""Seeded workload generator: CLI argument vectors and the work units they request.

A workload is an endless sequence of *passes*; a pass is a short, fixed list
of call kinds whose parameters are drawn from a stream seeded by
``(workload, seed, pass index)``.  The program under test receives only the
generated ``argv``.  Units of work are counted from the generated inputs,
never from counters inside the program.

Parameters are drawn from the ranges that the CLI defaults and the test suite
already use.  An input on which a CLI check fails is counted as a failure by
the benchmark, never redrawn; the ranges below are chosen so that none fails
at a correct commit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb


@dataclass(frozen=True)
class Call:
    """One in-process CLI call: its argv, its work units and its kind label."""

    argv: tuple[str, ...]
    units: int
    kind: str


# The unit of work_per_s for each workload; BENCHMARK.json says why each
# workload was chosen.
WORKLOADS = {
    "bloch_sweep": "field points",
    "inversion_scan": "field inversions",
    "reduced_dynamics": "prepared states",
}

PREPARATIONS = ("equilibrium", "factorizing", "mori", "factorize-and-wait")

# Call sizes and call mixes are chosen for the steadiness of the quantiles.
# On a shared virtual machine (measured on a 2-vCPU Xeon VM, see README.md)
# the CPU speed has bursts that can last a whole run.  A quantile that falls
# in the middle of one call kind's times moves with how many bursts a run
# catches; one that falls in the upper part of a kind's times moves only when
# most of the run is a burst.  So each pass puts 50 % and
# 90 % in the upper parts of two kinds: for bloch_sweep, three short and two
# long sweeps (a median at 5/6 of the short ones, p90 at 3/4 of the long ones).
BLOCH_STEPS = (1001, 1001, 1001, 3001, 3001)
BLOCH_BETA_G_COUNT = 3

LINEARITY_POINTS = 9
CONVEXITY_F_STEPS = 5
AFFINITY_SAMPLES = 5
EVOLVE_GRID = 5
MORI_FD_STEP = 1e-4


def _num(x: float) -> str:
    return f"{x:.4f}"


def _flags(**values: str) -> tuple[str, ...]:
    """``--key=value`` tokens; the ``=`` form keeps lists such as -1,2 from
    being parsed as options."""
    return tuple(f"--{key.replace('_', '-')}={value}" for key, value in values.items())


def _distinct_sorted(rng: random.Random, n: int, lo: float, hi: float) -> list[str]:
    """n distinct values from U[lo, hi], formatted and sorted numerically."""
    values: set[str] = set()
    while len(values) < n:
        values.add(_num(rng.uniform(lo, hi)))
    return sorted(values, key=float)


def _bloch_pass(rng: random.Random) -> list[Call]:
    sizes = list(BLOCH_STEPS)
    rng.shuffle(sizes)
    calls = []
    for base in sizes:
        steps = base + rng.randrange(50)
        beta_g = _distinct_sorted(rng, BLOCH_BETA_G_COUNT, 0.0, 2.0)
        argv = (
            "sweep-bloch",
            *_flags(
                beta_e=_num(rng.uniform(0.5, 1.5)),
                beta_g=",".join(beta_g),
                fz_min=_num(rng.uniform(-6.0, -3.0)),
                fz_max=_num(rng.uniform(3.0, 6.0)),
                steps=str(steps),
            ),
        )
        calls.append(Call(argv, steps * len(beta_g), "sweep-bloch"))
    return calls


def _inversion_pass(rng: random.Random) -> list[Call]:
    # two short linearity scans and one convexity lattice: the median falls in
    # the upper part of the scans' times, p90 in the upper part of the lattice's
    calls = []
    for _ in range(2):
        # beta_g = 0 keeps the one real linearity gate of sweep-linearity in play
        lin_g = ["0", *_distinct_sorted(rng, 3, 0.2, 2.0)]
        linearity = (
            "sweep-linearity",
            *_flags(
                beta_e=_num(rng.uniform(0.5, 1.5)),
                beta_g=",".join(lin_g),
                s1z_max=_num(rng.uniform(0.6, 0.95)),
                points=str(LINEARITY_POINTS),
            ),
        )
        calls.append(Call(linearity, LINEARITY_POINTS * len(lin_g), "sweep-linearity"))
    lambdas = _distinct_sorted(rng, 3, 0.1, 0.9)
    convexity = (
        "convexity",
        *_flags(
            beta_e=_num(rng.uniform(0.5, 1.5)),
            beta_g=_num(rng.uniform(0.2, 2.0)),
            f_min=_num(rng.uniform(-3.0, -1.0)),
            f_max=_num(rng.uniform(1.0, 3.0)),
            f_steps=str(CONVEXITY_F_STEPS),
            lambdas=",".join(lambdas),
        ),
    )
    calls.append(Call(convexity, CONVEXITY_F_STEPS**2 * len(lambdas), "convexity"))
    return calls


def _model(rng: random.Random) -> dict[str, str]:
    return {"beta_e": _num(rng.uniform(0.5, 1.5)), "beta_g": _num(rng.uniform(0.5, 2.0))}


def _reduced_pass(rng: random.Random) -> list[Call]:
    calls = []
    for prep in PREPARATIONS:
        grid = _distinct_sorted(rng, EVOLVE_GRID, -2.0, 2.0)
        argv = (
            "evolve",
            *_flags(
                prep=prep,
                **_model(rng),
                time=_num(rng.uniform(0.2, 2.0)),
                fz_grid=",".join(grid),
                evolve_fz=_num(rng.uniform(-1.0, 1.0)),
                t0=_num(rng.uniform(0.4, 1.0)),
            ),
        )
        # the Mori preparation evolves its own grid of max(5, len(fz_grid)) states
        states = max(5, len(grid)) if prep == "mori" else len(grid)
        calls.append(Call(argv, states, f"evolve:{prep}"))
    # Mori affinity, the slowest call, runs four times per pass and pechukas,
    # the fastest, three times: p90 falls at 5/8 of the Mori affinity times
    # and the median at 3/4 of the equilibrium and factorize-and-wait evolve
    # times.  With one call of each kind, p90 would sit in the gap between the
    # two slowest kinds.
    for prep in (*PREPARATIONS, "mori", "mori", "mori"):
        lambdas = _distinct_sorted(rng, 3, 0.1, 0.9)
        argv = (
            "affinity",
            *_flags(
                prep=prep,
                **_model(rng),
                samples=str(AFFINITY_SAMPLES),
                s1z_max=_num(rng.uniform(0.5, 0.9)),
                t0=_num(rng.uniform(0.4, 1.0)),
                lambdas=",".join(lambdas),
            ),
        )
        # one blow-up per sample plus one per (pair of samples, mixing weight)
        states = AFFINITY_SAMPLES + comb(AFFINITY_SAMPLES, 2) * len(lambdas)
        calls.append(Call(argv, states, f"affinity:{prep}"))
    mori_check = ("mori-check", *_flags(**_model(rng), fd_step=f"{MORI_FD_STEP:g}"))
    calls.append(Call(mori_check, 2, "mori-check"))  # blow-ups at beta*F = 0.02 and 0.01
    for _ in range(3):
        start = rng.uniform(4.0, 5.0)
        fz_list = [start, start + rng.uniform(1.0, 2.0)]
        fz_list.append(fz_list[-1] + rng.uniform(1.0, 2.0))
        pechukas = ("pechukas", *_flags(**_model(rng), fz_list=",".join(_num(f) for f in fz_list)))
        calls.append(Call(pechukas, 0, "pechukas"))  # equilibrium states only, no blow-up
    return calls


_PASS_MAKERS = {
    "bloch_sweep": _bloch_pass,
    "inversion_scan": _inversion_pass,
    "reduced_dynamics": _reduced_pass,
}


def make_pass(workload: str, seed: int, index: int) -> list[Call]:
    """The calls of pass ``index`` of ``workload`` under ``seed`` (deterministic)."""
    return _PASS_MAKERS[workload](random.Random(f"{workload}:{seed}:{index}"))


# Spans whose calls in one traced pass must add up to the pass's work units:
# one closed-form evaluation per field point, one inversion per inversion row,
# one blow-up per prepared state.
UNIT_SPANS = {
    "bloch_sweep": ("model.equilibrium_observables",),
    "inversion_scan": ("prepare.invert_field",),
    "reduced_dynamics": (
        "prepare.blow_up.equilibrium",
        "prepare.blow_up.factorizing",
        "prepare.blow_up.mori",
        "prepare.blow_up.factorize_and_wait",
    ),
}

# Which functions each workload must exercise (non-zero calls in a traced
# pass) and which it must leave alone (zero calls).  A wrapper that missed a
# copied name shows up here as a zero where a call was expected.
EXERCISED = {
    "bloch_sweep": (
        "cli.main",
        "diagnostics.figure_sweep",
        "model.equilibrium_observables",
    ),
    "inversion_scan": (
        "cli.main",
        "diagnostics.linearity_scan",
        "diagnostics.convexity_test",
        "prepare.invert_field",
        "model.equilibrium_observables",
    ),
    "reduced_dynamics": (
        "cli.main",
        "linalg.herm_eig",
        "linalg.validate_density",
        "linalg.matrix_function",
        "linalg.partial_trace",
        "model.equilibrium_observables",
        "model.hamiltonian",
        "model.qubit_bloch",
        "prepare.invert_field",
        "prepare.equilibrium_state",
        "prepare.blow_up.equilibrium",
        "prepare.blow_up.factorizing",
        "prepare.blow_up.mori",
        "prepare.blow_up.factorize_and_wait",
        "prepare.susceptibility",
        "prepare.kubo_integral",
        "prepare.mori_fields",
        "prepare.mori_blow_up",
        "evolve.propagator",
        "evolve.evolve_total",
        "evolve.reduced_evolution",
        "evolve.factorizing_propagator",
        "evolve.invert_propagator",
        "evolve.fit_affine_map",
        "diagnostics.affinity_defect",
        "diagnostics.factorization_residual",
    ),
}

UNTOUCHED = {
    "bloch_sweep": ("linalg.herm_eig", "linalg.validate_density", "prepare.invert_field"),
    "inversion_scan": (
        "linalg.herm_eig",
        "linalg.validate_density",
        "prepare.blow_up.equilibrium",
        "prepare.blow_up.mori",
    ),
    "reduced_dynamics": ("diagnostics.figure_sweep",),
}
