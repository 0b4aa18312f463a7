"""Does mixing two preparable states land back inside the preparation class?

Take two equilibrium preparations at fields F1 and F2 and form the convex
combination of their REDUCED states.  Because S1z(F) is invertible there is
a unique third field F3 that reproduces the mixed reduced state.  If the
preparable set of TOTAL states were convex, the state at F3 would also
reproduce the mixed environment polarization and correlations:

    S2z(F3) = l S2z(F1) + (1-l) S2z(F2),   C(F3) = l C(F1) + (1-l) C(F2).

This demo scans a (F1, F2, weight) lattice and reports the worst violation.
Uncoupled spins satisfy the conditions exactly; any finite coupling breaks
them, so the set of preparable total states is then nonconvex and no affine
blow-up map exists.
"""

import numpy as np

import spinprep as sp

FIELDS = np.linspace(-2.0, 2.0, 5)
WEIGHTS = (0.25, 0.5, 0.75)


def lattice_worst(beta_g):
    model = sp.ModelParams(1.0, 1.0, beta_g)
    ends = [sp.equilibrium_observables(model, f) for f in FIELDS.tolist()]
    worst = None
    for end1 in ends:
        for end2 in ends:
            for lam in WEIGHTS:
                r = sp.convexity_test(model, end1, end2, lam)
                if worst is None or max(r.S2_defect, r.C_defect) > max(
                    worst.S2_defect, worst.C_defect
                ):
                    worst = r
    return worst


def main():
    print("worst convex-combination defect over a 5x5x3 (F1, F2, weight) lattice:\n")
    for beta_g in (0.0, 0.5, 1.0, 1.5):
        w = lattice_worst(beta_g)
        print(
            f"  beta*g = {beta_g}: S2 defect {w.S2_defect:.3e}, C defect {w.C_defect:.3e}"
            f"  (at F1={w.F1:+.1f}, F2={w.F2:+.1f}, weight={w.weight})"
        )

    print("\nhow one defect arises (beta*g = 1.5, F1 = -2, F2 = +2, weight = 1/2):")
    model = sp.ModelParams(1.0, 1.0, 1.5)
    o1, o2 = sp.equilibrium_observables(model, -2.0), sp.equilibrium_observables(model, 2.0)
    r = sp.convexity_test(model, o1, o2, 0.5)
    o3 = sp.equilibrium_observables(model, r.F3)
    print(f"  S1z mixes to {0.5 * o1.S1z + 0.5 * o2.S1z:+.6f} -> F3 = {r.F3:+.6f} (exact)")
    print(f"  Cxx at F3:        {o3.Cxx:+.6f}")
    print(f"  Cxx if convex:    {0.5 * o1.Cxx + 0.5 * o2.Cxx:+.6f}")
    print(f"  defect:            {abs(o3.Cxx - 0.5 * o1.Cxx - 0.5 * o2.Cxx):.6f}")

    print("\nparity shortcut: S1z is odd in the field, Cxx is even, so an affine")
    print("Cxx[S1z] would have to be constant; its actual spread over the grid:")
    for beta_g in (0.0, 0.5, 1.0, 1.5):
        cxx = [p.Cxx for p in sp.figure_sweep(sp.ModelParams(1.0, 1.0, beta_g), -5.0, 5.0, 101)]
        spread = max(cxx) - min(cxx)
        print(f"  beta*g = {beta_g}: spread {spread:.3e}"
              + ("  (constant -> affine possible)" if spread <= 1e-10 else ""))


if __name__ == "__main__":
    main()
