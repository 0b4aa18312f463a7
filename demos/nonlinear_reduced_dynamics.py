"""Is the reduced time evolution linear?  It depends on the preparation.

The total two-spin system always evolves unitarily.  The induced map on the
system spin alone,

    rho_S(0)  ->  rho_S(t) = Tr_env U(t) R(rho_S(0)) U^dagger(t),

inherits the structure of the blow-up map R.  This demo prepares the same
family of reduced states three ways, evolves each for t = 1 with the field
switched off, and fits the best affine map to the (input, output) pairs:

  factorizing      residual at roundoff   -> evolution IS affine
  linear response  residual at roundoff   -> evolution IS linear
  equilibrium      residual ~ 1e-2        -> evolution is GENUINELY nonlinear

The equilibrium residual is no numerical artifact: it shrinks as the sample
window closes in on S1z = 0 (the weak-field regime) and grows with the
window, exactly as a preparation-induced nonlinearity must.
"""

import numpy as np

import spinprep as sp
from spinprep.model import SZ

MODEL = sp.ModelParams(beta=1.0, e=1.0, g=1.5)
TIME = 1.0


def z_state(s1z):
    return sp.reduced_from_bloch(np.array([0.0, 0.0, s1z]))


def fit_residual(prep, states, u):
    pairs = [(rs, sp.reduced_evolution(prep, u, rs)) for rs in states]
    return sp.fit_affine_map(pairs).residual


def main():
    h_evolve = sp.hamiltonian(MODEL, 0.0)  # prepare with a field, evolve without
    u = sp.propagator(h_evolve, TIME)  # one propagator, shared by every state
    fields = (-2.0, -1.0, 0.0, 1.0, 2.0)
    states = [sp.partial_trace(sp.equilibrium_state(MODEL, f), keep=0) for f in fields]
    rho_b = sp.partial_trace(sp.equilibrium_state(MODEL, 0.0), keep=1)

    print(f"affine-fit residuals of the t = {TIME} reduced evolution")
    print(f"  factorizing:     {fit_residual(sp.Factorizing(rho_b), states, u):.3e}")

    model_lr = sp.ModelParams(1.0, 1.0, 1.0)
    mori_states = [z_state(s) for s in np.linspace(-0.05, 0.05, 7)]
    mori_res = fit_residual(
        sp.MoriLinearResponse(model_lr, (SZ,)),
        mori_states,
        sp.propagator(sp.hamiltonian(model_lr, 0.0), TIME),
    )
    print(f"  linear response: {mori_res:.3e}")

    eq_res = fit_residual(sp.Equilibrium(MODEL), states, u)
    print(f"  equilibrium:     {eq_res:.3e}   <- nonlinear")

    print("\nthe equilibrium nonlinearity vanishes toward the weak-field regime:")
    for s_max in (0.8, 0.4, 0.2, 0.1, 0.05):
        window = [z_state(s) for s in np.linspace(-s_max, s_max, 5)]
        res = fit_residual(sp.Equilibrium(MODEL), window, u)
        print(f"  |S1z| <= {s_max:<4}: residual {res:.3e}")

    print("\nand it persists over time (same five prepared states):")
    for t in (0.25, 0.5, 1.0, 2.0, 4.0):
        res = fit_residual(sp.Equilibrium(MODEL), states, sp.propagator(h_evolve, t))
        print(f"  t = {t:<4}: residual {res:.3e}")


if __name__ == "__main__":
    main()
