"""Tour of the five preparation classes and their blow-up maps.

A preparation procedure picks, for each preparable reduced state rho_S, one
total state R(rho_S) with Tr_env R(rho_S) = rho_S.  The maps differ sharply
in how much of the state space they reach and in whether they respect convex
mixing:

  equilibrium         reaches the z-axis; NOT affine once the spins couple
  factorizing         reaches everything; exactly affine (rho_S (x) rho_B)
  operator sandwich   a single configured state; positivity not guaranteed
  factorize-and-wait  affine but reaches only mixed states (no pure ones)
  linear response     affine by construction, trusted only near zero field

The affinity defect quantifies the failure of
R(l x + (1-l) y) = l R(x) + (1-l) R(y) over sampled pairs.
"""

import warnings

import numpy as np

import spinprep as sp
from spinprep.model import SZ, ID2

MODEL = sp.ModelParams(beta=1.0, e=1.0, g=1.5)
LAMS = (0.25, 0.5, 0.75)
UP = np.array([[1, 0], [0, 0]], dtype=complex)
DOWN = np.array([[0, 0], [0, 1]], dtype=complex)


def z_state(s1z):
    return sp.reduced_from_bloch(np.array([0.0, 0.0, s1z]))


def main():
    rho_b = sp.partial_trace(sp.equilibrium_state(MODEL, 0.0), keep=1)
    z_targets = sp.chebyshev_targets(5, -0.9, 0.9)

    print("== equilibrium preparation")
    prep = sp.Equilibrium(MODEL)
    total = sp.blow_up(prep, z_state(0.6))
    print("  trace-back gap:",
          np.linalg.norm(sp.partial_trace(total, 0) - z_state(0.6)))
    defect = sp.affinity_defect(
        lambda r: sp.blow_up(prep, r), [z_state(float(s)) for s in z_targets], LAMS
    )
    print(f"  affinity defect over 5 states: {defect:.4f}  (far from affine)")
    try:
        sp.blow_up(prep, sp.reduced_from_bloch(np.array([0.3, 0.0, 0.0])))
    except sp.PreparationDomainError as err:
        print(f"  transverse states are not preparable: {err}")

    print("\n== factorizing preparation")
    fac = sp.Factorizing(rho_b)
    rng = np.random.default_rng(0)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho_rand = g @ g.conj().T
    rho_rand /= np.trace(rho_rand).real
    samples = [z_state(float(s)) for s in z_targets[:4]] + [rho_rand]
    defect = sp.affinity_defect(lambda r: sp.blow_up(fac, r), samples, LAMS)
    print(f"  affinity defect: {defect:.2e}  (affine: multiplication by rho_B)")

    print("\n== operator-sandwich preparation (z-pinched equilibrium)")
    sandwich = sp.OperatorSandwich(MODEL, 0.7, ((UP, UP), (DOWN, DOWN)))
    state, report = sp.operator_sandwich_state(MODEL, 0.7, sandwich.ops)
    print(f"  valid density matrix: {report.ok}; its own reduction is the only domain point")
    _, identity_report = sp.operator_sandwich_state(MODEL, 0.7, ((ID2, ID2),))
    print(f"  identity sandwich stays valid: {identity_report.ok}")
    _, failed = sp.operator_sandwich_state(MODEL, 0.7, ((np.array([[0, 1], [1, 0]], dtype=complex), ID2),))
    print(f"  one-sided sigma_x sandwich fails validation: ok={failed.ok} "
          f"(hermiticity defect {failed.hermiticity_defect:.2f})")

    print("\n== factorize-and-wait preparation")
    model_fw = sp.ModelParams(1.0, 1.0, 1.0)
    fw = sp.FactorizeAndWait(model_fw, Fz_wait=0.0, t0=0.7, rho_B0=ID2 / 2)
    in_range = [fw.G.apply(z_state(float(s))) for s in z_targets]  # G: the waiting map
    defect = sp.affinity_defect(lambda r: sp.blow_up(fw, r), in_range, LAMS)
    print(f"  affinity defect on its domain: {defect:.2e}  (affine)")
    try:
        sp.blow_up(fw, z_state(0.999))
    except sp.PreparationDomainError as err:
        print(f"  near-pure states are NOT preparable this way: {err}")

    print("\n== linear-response (weak-field) preparation")
    model_lr = sp.ModelParams(1.0, 1.0, 1.0)
    mori = sp.MoriLinearResponse(model_lr, (SZ,))
    small = [z_state(s) for s in np.linspace(-0.04, 0.04, 5)]
    defect = sp.affinity_defect(lambda r: sp.blow_up(mori, r), small, LAMS)
    print(f"  affinity defect: {defect:.2e}  (affine by construction)")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sp.blow_up(mori, z_state(0.5))
    print(f"  far from equilibrium it extrapolates: warning = {caught[0].category.__name__}")


if __name__ == "__main__":
    main()
