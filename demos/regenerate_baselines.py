"""Recompute the frozen nonlinearity baselines used by the test suite.

The qualitative statements (coupling makes the preparable family nonconvex,
the blow-up non-affine, the reduced evolution nonlinear) fix no magnitudes;
the concrete defect values at the canonical parameters (beta*e = 1,
beta*g = 1.5, and beta*g = 1 where noted) are pinned from one oracle run of
this script and re-checked by the tests to 1% relative tolerance.

Run from the repository root:

    python3 demos/regenerate_baselines.py          # print values
    python3 demos/regenerate_baselines.py --write  # overwrite tests/baselines.json
"""

import json
import pathlib
import sys

import numpy as np

import spinprep as sp

CANONICAL_BETA_E = 1.0
WIDE = {"s1z_max": 0.9, "points": 21}
NARROW = {"s1z_max": 0.05, "points": 21}
CONVEXITY = {"f_min": -2.0, "f_max": 2.0, "f_steps": 5, "lambdas": [0.25, 0.5, 0.75]}
AFFINITY = {"samples": 5, "s1z_max": 0.9, "lambdas": [0.25, 0.5, 0.75]}
EVOLUTION = {"fz_grid": [-2.0, -1.0, 0.0, 1.0, 2.0], "time": 1.0, "evolve_fz": 0.0}


def wide_grid():
    return np.linspace(-WIDE["s1z_max"], WIDE["s1z_max"], WIDE["points"])


def narrow_grid():
    return np.linspace(-NARROW["s1z_max"], NARROW["s1z_max"], NARROW["points"])


def linearity_residuals():
    values = {}
    for beta_g in (0.5, 1.0, 1.5):
        model = sp.ModelParams(1.0, CANONICAL_BETA_E, beta_g)
        report = sp.linearity_scan(model, wide_grid())
        values[str(beta_g)] = report.fits["S2z"].max_residual
    return values


def correlation_residuals():
    model = sp.ModelParams(1.0, CANONICAL_BETA_E, 1.5)
    wide = sp.linearity_scan(model, wide_grid())
    narrow = sp.linearity_scan(model, narrow_grid())
    return (
        {"Cxx": wide.fits["Cxx"].max_residual, "Cyy": wide.fits["Cyy"].max_residual},
        {"Cxx": narrow.fits["Cxx"].max_residual, "Cyy": narrow.fits["Cyy"].max_residual},
    )


def convexity_max_defect():
    model = sp.ModelParams(1.0, CANONICAL_BETA_E, 1.5)
    fields = np.linspace(CONVEXITY["f_min"], CONVEXITY["f_max"], CONVEXITY["f_steps"])
    worst = 0.0
    for f1 in fields:
        for f2 in fields:
            for lam in CONVEXITY["lambdas"]:
                r = sp.convexity_test(model, float(f1), float(f2), lam)
                worst = max(worst, r.S2_defect, r.C_defect)
    return worst


def equilibrium_affinity():
    model = sp.ModelParams(1.0, CANONICAL_BETA_E, 1.5)
    prep = sp.Equilibrium(model)
    targets = sp.chebyshev_targets(AFFINITY["samples"], -AFFINITY["s1z_max"], AFFINITY["s1z_max"])
    samples = [sp.reduced_from_bloch(np.array([0.0, 0.0, float(s)])) for s in targets]
    return sp.affinity_defect(lambda rs: sp.blow_up(prep, rs), samples, AFFINITY["lambdas"])


def evolution_fit_residual():
    model = sp.ModelParams(1.0, CANONICAL_BETA_E, 1.5)
    prep = sp.Equilibrium(model)
    u = sp.propagator(sp.hamiltonian(model, EVOLUTION["evolve_fz"]), EVOLUTION["time"])
    states = [
        sp.partial_trace(sp.equilibrium_state(model, f), keep=0) for f in EVOLUTION["fz_grid"]
    ]
    pairs = [(rs, sp.reduced_evolution(prep, u, rs)) for rs in states]
    return sp.fit_affine_map(pairs).residual


def main(argv):
    cxx_cyy_wide, cxx_cyy_narrow = correlation_residuals()
    baselines = {
        "canonical_beta_e": CANONICAL_BETA_E,
        "wide_window": WIDE,
        "narrow_window": NARROW,
        "convexity_grid": CONVEXITY,
        "affinity_sampling": AFFINITY,
        "evolution_pipeline": EVOLUTION,
        "s2z_wide_residual": linearity_residuals(),
        "correlation_wide_residual": cxx_cyy_wide,
        "correlation_narrow_residual": cxx_cyy_narrow,
        "convexity_max_defect_bg_1.5": convexity_max_defect(),
        "equilibrium_affinity_defect_bg_1.5": equilibrium_affinity(),
        "evolution_fit_residual_bg_1.5": evolution_fit_residual(),
    }
    text = json.dumps(baselines, indent=2, sort_keys=True) + "\n"
    print(text)
    if "--write" in argv:
        path = pathlib.Path(__file__).resolve().parent.parent / "tests" / "baselines.json"
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
