"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with output visible:

    pytest tests/test_acceptance.py -s

Quantitative tolerances are stated inline; where only qualitative behavior is
fixed (nonlinearity magnitudes), the values are pinned to the frozen oracle
baselines in baselines.json at 1% relative tolerance.
"""

import time

import numpy as np
import scipy.linalg

import spinprep as sp
from spinprep.cli import main as cli_main
from spinprep.model import SZ, ModelParams

from conftest import random_density


def report(num, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] acceptance {num:02d}: {description}{suffix}")
    assert ok, f"acceptance {num}: {description}{suffix}"


def z_state(s1z):
    return sp.reduced_from_bloch(np.array([0.0, 0.0, s1z]))


def test_01_spectrum_oracle():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        beta_e, beta_g, beta_fz = rng.uniform(-3.0, 3.0, size=3)
        model = ModelParams(1.0, float(beta_e), float(beta_g))
        vals, _ = sp.analytic_spectrum(model, float(beta_fz))
        w, _ = sp.herm_eig(sp.hamiltonian(model, float(beta_fz)))
        worst = max(worst, float(np.abs(np.sort(vals) - w).max()))
    elapsed = time.perf_counter() - start
    report(
        1,
        "closed-form spectrum matches the eigensolver on 50 random parameter triples",
        worst <= 1e-12 and elapsed < 1.0,
        f"worst {worst:.2e}, {elapsed * 1000:.0f} ms",
    )


def test_02_closed_form_observables():
    grid = np.linspace(-5.0, 5.0, 201)
    worst = 0.0
    for beta_g in (0.0, 0.5, 1.0, 1.5):
        model = ModelParams(1.0, 1.0, beta_g)
        for fz in grid:
            rho = scipy.linalg.expm(-sp.hamiltonian(model, fz))
            rho /= np.trace(rho).real
            b = sp.bloch_decompose(rho)
            p = sp.equilibrium_observables(model, fz)
            worst = max(
                worst,
                abs(b.s1[2] - p.S1z),
                abs(b.s2[2] - p.S2z),
                abs(b.c[0, 0] - p.Cxx),
                abs(b.c[1, 1] - p.Cyy),
                abs(b.c[2, 2] - p.Czz),
            )
    report(
        2,
        "closed-form observables match the matrix-exponential state to 1e-10 "
        "on a 201-point field grid for four couplings",
        worst <= 1e-10,
        f"worst {worst:.2e}",
    )


def test_03_bloch_curve_monotone_with_ordered_slopes():
    grid = np.linspace(-5.0, 5.0, 201)
    monotone = True
    slopes = []
    for beta_g in (0.5, 1.0, 1.5):
        model = ModelParams(1.0, 1.0, beta_g)
        s1z = np.array([sp.equilibrium_observables(model, f).S1z for f in grid])
        monotone = monotone and bool(np.all(np.diff(s1z) > 0.0))
        h = 1e-5
        slopes.append(
            (sp.equilibrium_observables(model, h).S1z - sp.equilibrium_observables(model, -h).S1z)
            / (2 * h)
        )
    ordered = slopes[0] > slopes[1] > slopes[2]
    report(
        3,
        "S1z(field) is strictly monotone and its zero-field slope decreases with coupling",
        monotone and ordered,
        "slopes " + ", ".join(f"{s:.4f}" for s in slopes),
    )


def test_04_s2z_linearity_only_without_coupling(baselines):
    wide = np.linspace(-0.9, 0.9, 21)
    res0 = sp.linearity_scan(ModelParams(1.0, 1.0, 0.0), wide).fits["S2z"].max_residual
    ok = res0 < 1e-9
    details = [f"g=0: {res0:.2e}"]
    for beta_g in (0.5, 1.0, 1.5):
        measured = sp.linearity_scan(ModelParams(1.0, 1.0, beta_g), wide).fits["S2z"].max_residual
        frozen = baselines["s2z_wide_residual"][str(beta_g)]
        ok = ok and measured > 0.0 and abs(measured - frozen) <= 0.01 * frozen
        details.append(f"bg={beta_g}: {measured:.3e}")
    report(
        4,
        "S2z[S1z] is a straight line only for vanishing coupling; coupled residuals "
        "reproduce the frozen baselines to 1%",
        ok,
        "; ".join(details),
    )


def test_05_correlations_linear_only_near_zero(baselines):
    model = ModelParams(1.0, 1.0, 1.5)
    wide = sp.linearity_scan(model, np.linspace(-0.9, 0.9, 21))
    narrow = sp.linearity_scan(model, np.linspace(-0.05, 0.05, 21))
    ok = True
    details = []
    for name in ("Cxx", "Cyy"):
        w = wide.fits[name].max_residual
        n = narrow.fits[name].max_residual
        frozen = baselines["correlation_wide_residual"][name]
        ok = ok and abs(w - frozen) <= 0.01 * frozen and w >= 10.0 * n
        details.append(f"{name}: wide {w:.3e}, narrow {n:.3e}")
    report(
        5,
        "Cxx and Cyy deviate from straight lines over the wide window but are "
        ">= 10x more linear near S1z = 0",
        ok,
        "; ".join(details),
    )


def test_06_convexity_defect_lattice():
    fields = np.linspace(-2.0, 2.0, 5)
    lams = (0.25, 0.5, 0.75)

    def lattice_defects(beta_g):
        model = ModelParams(1.0, 1.0, beta_g)
        worst = 0.0
        for f1 in fields:
            for f2 in fields:
                for lam in lams:
                    r = sp.convexity_test(model, float(f1), float(f2), lam)
                    worst = max(worst, r.S2_defect, r.C_defect)
        return worst

    uncoupled = lattice_defects(0.0)
    coupled = lattice_defects(1.5)
    report(
        6,
        "convex combinations stay preparable iff coupling vanishes "
        "(5x5x3 field/weight lattice)",
        uncoupled <= 1e-10 and coupled > 1e-4,
        f"g=0 worst {uncoupled:.2e}, bg=1.5 worst {coupled:.3e}",
    )


def test_07_trace_back_for_every_preparation():
    rng = np.random.default_rng(11)
    model = ModelParams(1.0, 1.0, 1.0)
    rho_b = sp.partial_trace(sp.equilibrium_state(model, 0.0), keep=1)
    up = np.array([[1, 0], [0, 0]], dtype=complex)
    down = np.array([[0, 0], [0, 1]], dtype=complex)
    worst = {}

    prep = sp.Equilibrium(model)
    worst["equilibrium"] = max(
        np.linalg.norm(sp.partial_trace(sp.blow_up(prep, z_state(s)), 0) - z_state(s))
        for s in np.linspace(-0.95, 0.95, 11)
    )

    prep = sp.Factorizing(rho_b)
    samples = [random_density(rng, 2) for _ in range(11)]
    worst["factorizing"] = max(
        np.linalg.norm(sp.partial_trace(sp.blow_up(prep, rs), 0) - rs) for rs in samples
    )

    gaps = []
    for fz in np.linspace(-2.0, 2.0, 11):
        prep = sp.OperatorSandwich(model, float(fz), ((up, up), (down, down)))
        state, _ = sp.operator_sandwich_state(model, float(fz), prep.ops)
        own = sp.partial_trace(state, keep=0)
        gaps.append(np.linalg.norm(sp.partial_trace(sp.blow_up(prep, own), 0) - own))
    worst["operator-sandwich"] = max(gaps)

    prep = sp.FactorizeAndWait(model, Fz_wait=0.0, t0=0.7, rho_B0=rho_b)
    g_map = sp.factorizing_propagator(sp.propagator(sp.hamiltonian(model, 0.0), 0.7), rho_b)
    worst["factorize-and-wait"] = max(
        np.linalg.norm(sp.partial_trace(sp.blow_up(prep, g_map.apply(z_state(s))), 0)
                       - g_map.apply(z_state(s)))
        for s in np.linspace(-0.9, 0.9, 11)
    )

    prep = sp.MoriLinearResponse(model, (SZ,))
    worst["mori"] = max(
        np.linalg.norm(sp.partial_trace(sp.blow_up(prep, z_state(s)), 0) - z_state(s))
        for s in np.linspace(-0.03, 0.03, 11)
    )

    ok = all(v <= 1e-10 for v in worst.values())
    report(
        7,
        "partial trace of every blow-up returns the reduced state "
        "(11 domain samples per preparation)",
        ok,
        ", ".join(f"{k} {v:.1e}" for k, v in worst.items()),
    )


def test_08_affinity_of_special_preparations():
    rng = np.random.default_rng(3)
    lams = (0.25, 0.5, 0.75)
    model = ModelParams(1.0, 1.0, 1.0)
    rho_b = sp.partial_trace(sp.equilibrium_state(model, 0.0), keep=1)

    fac = sp.Factorizing(rho_b)
    fac_samples = [random_density(rng, 2) for _ in range(5)]
    fac_defect = sp.affinity_defect(lambda r: sp.blow_up(fac, r), fac_samples, lams)

    fw = sp.FactorizeAndWait(model, Fz_wait=0.0, t0=0.7, rho_B0=rho_b)
    g_map = sp.factorizing_propagator(sp.propagator(sp.hamiltonian(model, 0.0), 0.7), rho_b)
    fw_samples = [g_map.apply(z_state(s)) for s in sp.chebyshev_targets(5, -0.9, 0.9)]
    fw_defect = sp.affinity_defect(lambda r: sp.blow_up(fw, r), fw_samples, lams)

    mori = sp.MoriLinearResponse(model, (SZ,))
    mori_samples = [z_state(s) for s in np.linspace(-0.04, 0.04, 5)]
    mori_defect = sp.affinity_defect(lambda r: sp.blow_up(mori, r), mori_samples, lams)

    ok = fac_defect < 1e-13 and fw_defect < 1e-10 and mori_defect < 1e-12
    report(
        8,
        "factorizing, factorize-and-wait, and linear-response blow-ups are affine",
        ok,
        f"defects {fac_defect:.1e}, {fw_defect:.1e}, {mori_defect:.1e}",
    )


def test_09_reduced_evolution_nonlinear_only_for_equilibrium(baselines):
    model = ModelParams(1.0, 1.0, 1.5)
    u = sp.propagator(sp.hamiltonian(model, 0.0), 1.0)
    states = [
        sp.partial_trace(sp.equilibrium_state(model, f), keep=0) for f in (-2, -1, 0, 1, 2)
    ]

    eq_pairs = [(rs, sp.reduced_evolution(sp.Equilibrium(model), u, rs)) for rs in states]
    eq_res = sp.fit_affine_map(eq_pairs).residual
    frozen = baselines["evolution_fit_residual_bg_1.5"]

    rho_b = sp.partial_trace(sp.equilibrium_state(model, 0.0), keep=1)
    fac_pairs = [
        (rs, sp.reduced_evolution(sp.Factorizing(rho_b), u, rs)) for rs in states
    ]
    fac_res = sp.fit_affine_map(fac_pairs).residual

    ok = eq_res > 0.0 and abs(eq_res - frozen) <= 0.01 * frozen and fac_res < 1e-11
    report(
        9,
        "t = 1 reduced evolution is nonlinear under equilibrium preparation and "
        "affine under the factorizing one",
        ok,
        f"equilibrium {eq_res:.4e} (frozen {frozen:.4e}), factorizing {fac_res:.1e}",
    )


def test_10_linear_response_consistency():
    model = ModelParams(1.0, 1.0, 1.0)
    chi = float(sp.susceptibility(model, [SZ])[0, 0])
    step = 1e-4
    fd = (
        sp.equilibrium_observables(model, step).S1z
        - sp.equilibrium_observables(model, -step).S1z
    ) / (2 * step)
    prep = sp.MoriLinearResponse(model, (SZ,))
    residuals = {}
    for beta_f in (0.02, 0.01):
        rho_s = sp.partial_trace(sp.equilibrium_state(model, beta_f), keep=0)
        residuals[beta_f] = float(
            np.linalg.norm(sp.mori_blow_up(prep, rho_s) - sp.equilibrium_state(model, beta_f))
        )
    ratio = residuals[0.02] / residuals[0.01]
    ok = abs(chi - fd) <= 1e-6 and 4.0 * 0.7 <= ratio <= 4.0 * 1.3
    report(
        10,
        "susceptibility matches the field derivative and the linear-response "
        "blow-up deviates at second order in the field",
        ok,
        f"|chi - fd| {abs(chi - fd):.1e}, halving ratio {ratio:.3f}",
    )


def test_11_factorization_residual_decay():
    model = ModelParams(1.0, 1.0, 1.0)
    values = [sp.factorization_residual(sp.equilibrium_state(model, f)) for f in (4.0, 6.0, 8.0)]
    report(
        11,
        "equilibrium states factorize asymptotically as the field purifies the system spin",
        values[0] > values[1] > values[2],
        "residuals " + ", ".join(f"{v:.4f}" for v in values),
    )


def test_12_sweep_determinism(tmp_path, capsys):
    args = ["sweep-bloch", "--beta-g", "0.5,1,1.5", "--steps", "201"]
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    code1 = cli_main(args + ["--out", str(out1)])
    code2 = cli_main(args + ["--out", str(out2)])
    capsys.readouterr()  # swallow the run-summary lines
    identical = out1.read_bytes() == out2.read_bytes()
    report(
        12,
        "consecutive sweep runs produce byte-identical CSV files",
        code1 == 0 and code2 == 0 and identical,
    )
