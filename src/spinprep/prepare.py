"""Preparation classes and their blow-up maps.

A preparation procedure determines which total (two-spin) density matrices
can serve as initial conditions, and therefore defines a blow-up map R that
assigns to each preparable reduced state rho_S a total state with
Tr_env R(rho_S) = rho_S.  Five procedures are implemented:

* Equilibrium: canonical state exp(-beta H(Fz))/Z with the field tuned so the
  system Bloch z-component matches the requested reduced state.
* Factorizing: rho_S (x) rho_B with a fixed environment reference state.
* OperatorSandwich: sum_j (O_j (x) 1) rho^F (O_j' (x) 1), a single-state
  preparation built from system operators acting on an equilibrium state.
* FactorizeAndWait: factorize at time -t0, evolve to 0; the blow-up inverts
  the reduced waiting propagator before re-running the wait.
* MoriLinearResponse: first order of the equilibrium preparation in the
  field, an exactly affine blow-up built from Kubo canonical correlations.

Each class builds its model-only data once, at construction, and owns its
blow-up (a private _total_state) that does only the per-state work; blow_up
is the one public entry and holds the checks common to all five.

All constructors and maps are pure.  Every array a preparation holds is one
read-only copy (each class docstring names what it stores), the arrays the
caller passed included.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    ExtrapolationWarning,
    PreparationDomainError,
    UnreachableStateError,
    ValidationError,
)
from .evolve import _store, factorizing_propagator, invert_propagator, propagator
from .linalg import (
    DensityReport,
    as_operator,
    checked_inverse,
    dag,
    herm_eig,
    is_hermitian,
    kron,
    partial_trace,
    require_density,
    validate_density,
)
from .model import ID2, EquilibriumCurvePoint, ModelParams, equilibrium_observables
from .model import hamiltonian, qubit_bloch

# How closely a reduced state must sit on a preparation's reachable manifold.
TRACE_BACK_ATOL = 1e-10

# The Mori trust region: a blow-up whose inferred fields reach |beta F_i| above
# this still evaluates, but emits ExtrapolationWarning.
MORI_BETA_F_MAX = 0.2


@dataclass(frozen=True, eq=False)
class Equilibrium:
    """Canonical preparation: vary the field on the system spin at fixed beta; it stores only its model."""

    model: ModelParams

    def _total_state(self, rho_S: np.ndarray) -> np.ndarray:
        return _equilibrium_matrix(invert_field(self.model, qubit_bloch(rho_S)[2]))


@dataclass(frozen=True, eq=False)
class Factorizing:
    """Product preparation rho_S (x) rho_B with a fixed environment state,
    stored as rho_B, a read-only complex copy of the 2x2 state passed."""

    rho_B: np.ndarray

    def __post_init__(self):
        _store(self, rho_B=require_density(np.array(self.rho_B, dtype=complex), "rho_B", shape=(2, 2)))

    def _total_state(self, rho_S: np.ndarray) -> np.ndarray:
        return kron(rho_S, self.rho_B)


@dataclass(frozen=True, eq=False)
class OperatorSandwich:
    """sum_j (O_j (x) 1) rho^Fz (O_j' (x) 1) for system operator pairs (O_j, O_j').

    Construction builds the one reachable state (operator_sandwich_state) and
    raises PreparationDomainError when it is not a density matrix; it stores,
    read-only, that state and ops, an (n, 2, 2, 2) complex copy of the pairs.
    """

    model: ModelParams
    Fz: float
    ops: tuple

    def __post_init__(self):
        state, report = operator_sandwich_state(self.model, self.Fz, self.ops)
        if not report.ok:
            raise PreparationDomainError(
                "operator-sandwich configuration does not produce a valid density matrix "
                f"(hermiticity defect {report.hermiticity_defect:.3e}, trace defect "
                f"{report.trace_defect:.3e}, min eigenvalue {report.min_eigenvalue:.3e})"
            )
        _store(self, ops=np.array(self.ops, dtype=complex), state=state)

    def _total_state(self, rho_S: np.ndarray) -> np.ndarray:
        return self.state.copy()


@dataclass(frozen=True, eq=False)
class FactorizeAndWait:
    """Factorize at -t0, evolve with the waiting Hamiltonian, prepare at 0.

    Construction builds the waiting propagator u_wait = exp(-i H(Fz_wait) t0)
    once, reads the reduced waiting propagator G off it with
    factorizing_propagator, which checks rho_B0, and inverts G to G_inv; it
    raises NonInvertibleError when G cannot be inverted.  It stores, read-only,
    rho_B0 (a complex copy of the state passed), u_wait, G and G_inv.
    A blow-up checks the pre-wait state sigma0 = G_inv(rho_S) and returns
    u_wait (sigma0 (x) rho_B0) u_wait^dagger.
    """

    model: ModelParams
    Fz_wait: float
    t0: float
    rho_B0: np.ndarray

    def __post_init__(self):
        if not self.t0 > 0.0:
            raise ValueError(f"waiting time t0 must be positive, got {self.t0}")
        rho_b0 = np.array(self.rho_B0, dtype=complex)
        u_wait = propagator(hamiltonian(self.model, self.Fz_wait), self.t0)
        g_map = factorizing_propagator(u_wait, rho_b0)
        _store(self, rho_B0=rho_b0, u_wait=u_wait, G=g_map, G_inv=invert_propagator(g_map))

    def _total_state(self, rho_S: np.ndarray) -> np.ndarray:
        sigma0 = self.G_inv.apply(rho_S)
        report = validate_density(sigma0)
        if not report.ok:
            raise PreparationDomainError(
                "reduced state lies outside the range of the waiting propagator: "
                f"pre-wait state has min eigenvalue {report.min_eigenvalue:.3e}"
            )
        return self.u_wait @ kron(sigma0, self.rho_B0) @ dag(self.u_wait)


@dataclass(frozen=True, eq=False)
class MoriLinearResponse:
    """Linear-response preparation around zero field.

    observables are the n Hermitian system (2x2) operators conjugate to the
    external fields.

    Construction computes the zero-field state rho0, the Kubo operators
    kubo[j] of the observables and the susceptibility chi once, with chi's
    symmetry check, and inverts chi through checked_inverse; it raises
    NonInvertibleError when chi cannot be inverted (for instance for a
    repeated observable).  It stores, read-only, observables (an (n, 2, 2)
    complex copy), kubo (stacked, (n, 4, 4)), rho0, chi and what mori_fields
    needs per state: chi_inv, the Bloch rows bloch_rows[j] = qubit_bloch(X_j)/2
    (tr(X_j delta) = bloch_rows[j] . ds for a traceless Hermitian delta with
    Bloch vector ds) and s0 = qubit_bloch(Tr_env rho0).
    """

    model: ModelParams
    observables: tuple

    def __post_init__(self):
        if len(self.observables) == 0:
            raise ValueError("linear-response preparation requires at least one observable")
        rho0 = equilibrium_state(self.model, 0.0)
        h0 = hamiltonian(self.model, 0.0)
        total_obs = [embed_system(x) for x in self.observables]
        kubo = np.array([kubo_integral(h0, x, beta=self.model.beta) for x in total_obs])
        # tr(dX_i K_j) = tr(X_i K_j): the Kubo integral is traceless
        chi = np.array([[float(np.trace(xi @ kj).real) for kj in kubo] for xi in total_obs])
        sym_defect = float(np.abs(chi - chi.T).max())
        if sym_defect > 1e-10 * (1.0 + float(np.abs(chi).max())):
            raise ValidationError(f"susceptibility came out non-symmetric (defect {sym_defect:.3e})")
        chi = 0.5 * (chi + chi.T)
        rows = np.array([0.5 * qubit_bloch(x) for x in self.observables])
        _store(self, observables=np.array(self.observables, dtype=complex), rho0=rho0, kubo=kubo, chi=chi,
               chi_inv=checked_inverse(chi, "susceptibility matrix"), bloch_rows=rows,
               s0=qubit_bloch(partial_trace(rho0, keep=0)))

    def _total_state(self, rho_S: np.ndarray) -> np.ndarray:
        return mori_blow_up(self, rho_S)


Preparation = Equilibrium | Factorizing | OperatorSandwich | FactorizeAndWait | MoriLinearResponse


def embed_system(op) -> np.ndarray:
    """Lift a system (2x2) operator to the total space as op (x) 1."""
    op = as_operator(op)
    if op.shape != (2, 2):
        raise DimensionError(f"expected a 2x2 system operator, got {op.shape}")
    return kron(op, ID2)


def equilibrium_state(model: ModelParams, Fz: float) -> np.ndarray:
    """exp(-beta H(Fz)) / Z built from its five closed-form components.

    The components are those of equilibrium_observables, which are
    overflow-safe for any field; no eigensolver is involved.
    """
    return _equilibrium_matrix(equilibrium_observables(model, Fz))


def _equilibrium_matrix(p: EquilibriumCurvePoint) -> np.ndarray:
    """1/4 (1 + S1z sz1 + S2z sz2 + Cxx sx sx + Cyy sy sy + Czz sz sz) from p.

    In the basis |up,up>, |up,down>, |down,up>, |down,down> it has eight
    non-zero entries: 1/4 (1 +- S1z +- S2z +- Czz) on the diagonal, and
    1/4 (Cxx -+ Cyy) on the anti-diagonal of the even (odd) parity sector.
    Each entry is summed in the order of the operator sum above, so the
    result is bit-identical to it.
    """
    up, down = 1.0 + p.S1z, 1.0 - p.S1z
    # 0.0 + Cxx: the operator sum adds Cxx to a zero entry, which turns -0 into +0
    even, odd = 0.25 * (0.0 + p.Cxx - p.Cyy), 0.25 * (0.0 + p.Cxx + p.Cyy)
    return np.array(
        (
            0.25 * (up + p.S2z + p.Czz), 0.0, 0.0, even,
            0.0, 0.25 * (up - p.S2z - p.Czz), odd, 0.0,
            0.0, odd, 0.25 * (down + p.S2z - p.Czz), 0.0,
            even, 0.0, 0.0, 0.25 * (down - p.S2z + p.Czz),
        ),
        dtype=complex,
    ).reshape(4, 4)


def invert_field(model: ModelParams, target_S1z: float) -> EquilibriumCurvePoint:
    """The equilibrium observables at the field Fz with S1z(Fz) = target, to
    within 1e-12 in S1z; their Fz is that field.

    S1z is odd and strictly increasing in Fz, and uncoupled it is exactly
    tanh(beta Fz).  The root is therefore sought in atanh coordinates, where
    phi(F) = atanh(S1z(F)) - atanh(|target|) is close to linear also when
    coupled: a secant iteration on phi starts at the uncoupled root
    atanh(|target|)/beta, with the exact point (0, -atanh(|target|)) as the
    previous iterate.  Every evaluation tightens a bracket [lo, hi] of the
    root (hi = inf until S1z reaches the target; S1z rounding to 1 gives
    phi = inf).  A secant step that is not finite or leaves the bracket is
    replaced by bisection, or by doubling lo while there is no upper end.
    It stops at |S1z - target| <= 1e-14, or when the next iterate is not
    strictly inside the bracket, and returns the evaluated field with the
    smallest residual; a residual above 1e-12 raises RuntimeError.  A target
    with |S1z| >= 1, or one whose next step needs |Fz| > 1e8/beta, raises
    UnreachableStateError.

    The iteration runs on |Fz| and sign(target) S1z, but each evaluation is
    at the signed field copysign(|Fz|, target): S1z is bitwise odd, so the
    iterates are those of the positive target, and the result is exactly
    equilibrium_observables(model, Fz) at its Fz.  A zero target is one
    evaluation, at Fz = 0.
    """
    sup = 1.0  # sup |S1z| over all fields, approached only as Fz -> +-inf
    if not abs(target_S1z) < sup:
        raise UnreachableStateError(
            f"target S1z = {target_S1z} is at or beyond the supremum {sup} "
            "(pure states are reached only asymptotically as Fz -> +-inf)"
        )
    if target_S1z == 0.0:
        return equilibrium_observables(model, 0.0)

    # Python floats throughout: inf - inf gives nan with no RuntimeWarning (a
    # numpy scalar warns), and the bracket test below rejects nan
    sign = math.copysign(1.0, target_S1z)
    goal = float(abs(target_S1z))
    phi_goal = math.atanh(goal)
    beta = float(model.beta)
    cap = 1e8 / beta
    lo, hi = 0.0, math.inf
    x_prev, phi_prev = 0.0, -phi_goal  # S1z(0) = 0 exactly: S1z is odd
    x = phi_goal / beta
    root, r = None, math.inf
    while True:
        obs = equilibrium_observables(model, sign * x)
        s = sign * obs.S1z
        r_x = s - goal
        phi = math.atanh(s) - phi_goal if s < 1.0 else math.inf
        if abs(r_x) < abs(r):
            root, r = obs, r_x
        if abs(r) <= 1e-14:
            break
        if r_x < 0.0:
            lo = x
        else:
            hi = x
        den = phi - phi_prev
        step = phi * (x - x_prev) / den if den else math.nan
        x_prev, phi_prev = x, phi
        x -= step
        if not lo < x < min(hi, cap):
            x = 0.5 * (lo + hi) if hi < math.inf else 2.0 * lo
            if not lo < x < hi:
                break
        if x > cap:
            raise UnreachableStateError(
                f"target S1z = {target_S1z} needs |Fz| > {cap:.3e}; "
                f"the supremum {sup} is approached only asymptotically"
            )
    if abs(r) > 1e-12:
        raise RuntimeError(
            f"field inversion did not converge for target S1z = {target_S1z}"
        )
    return root


def operator_sandwich_state(model: ModelParams, Fz: float, ops) -> tuple[np.ndarray, DensityReport]:
    """Total state sum_j (O_j (x) 1) rho^Fz (O_j' (x) 1) plus its validity report.

    The sum is not positivity- or trace-preserving for arbitrary operator
    pairs, so the state is returned together with the density-matrix report;
    nothing is renormalized behind the caller's back.
    """
    ops = list(ops)
    if not ops:
        raise ValueError("operator sandwich requires a nonempty ops list")
    rho_f = equilibrium_state(model, Fz)
    total = np.zeros((4, 4), dtype=complex)
    for left, right in ops:
        total = total + embed_system(left) @ rho_f @ embed_system(right)
    return total, validate_density(total)


def kubo_integral(H, X, beta: float = 1.0) -> np.ndarray:
    """Canonical correlation integral beta * int_0^1 rho0^(1-x) dX rho0^x dx.

    rho0 = exp(-beta H)/Z and dX = X - <X>_0.  In the eigenbasis of H, with
    energies E and weights p = exp(-beta (E - E_min)) / sum, element (m, n)
    is beta dX_mn (p_m - p_n) / (beta (E_n - E_m)), evaluated as

        beta dX_mn max(p_m, p_n) (1 - exp(-b)) / b,  b = beta |E_m - E_n|,

    and beta dX_mn p_m at b = 0.  Weights from the energies, not from rho0,
    keep a probability far below the roundoff of rho0's entries accurate.
    The result is Hermitian and traceless, and linear in X.
    """
    H = as_operator(H)
    X = as_operator(X)
    if X.shape != H.shape:
        raise DimensionError(f"X shape {X.shape} does not match H shape {H.shape}")
    if not is_hermitian(X):
        raise ValidationError("X must be Hermitian")

    w, v = herm_eig(H)
    # a gap beyond the largest double reads inf: its weight p, and its kernel
    # (1 - exp(-b)) / b, are then exactly 0, the b -> inf limit
    with np.errstate(over="ignore"):
        p = np.exp(-beta * (w - w[0]))  # ascending energies: w[0] is the ground
        b = beta * np.abs(w[:, None] - w[None, :])
    p /= p.sum()
    x_eig = dag(v) @ X @ v
    dx_eig = x_eig - float(p @ x_eig.diagonal().real) * np.eye(len(w))

    # (1 - exp(-b)) / b, and its limit 1 at b = 0
    ratio = np.divide(-np.expm1(-b), b, out=np.ones_like(b), where=b > 0.0)
    kernel = np.maximum(p[:, None], p[None, :]) * ratio
    return beta * (v @ (dx_eig * kernel) @ dag(v))


def susceptibility(model: ModelParams, observables) -> np.ndarray:
    """Response matrix chi_ij = tr(dX_i * K_j) with K_j the Kubo integral of X_j.

    It is the zero-field chi that MoriLinearResponse(model, observables)
    computes: real symmetric, and positive definite whenever the observables
    are linearly independent and none is conserved; a condition number above
    1e12 (or a non-finite one) raises NonInvertibleError.
    """
    return MoriLinearResponse(model, tuple(observables)).chi


def mori_fields(prep: MoriLinearResponse, rho_S) -> np.ndarray:
    """Field estimates F_i = sum_j chi^-1_ij <X_j - <X_j>_0> inferred from rho_S.

    The excess <X_j - <X_j>_0> is tr(X_j (rho_S - Tr_env rho0)), read off the
    Bloch vectors as bloch_rows[j] . (s - s0); chi_inv, bloch_rows and s0 are
    the ones prep computed at construction.
    """
    rho_S = require_density(rho_S, "reduced state", shape=(2, 2))
    return prep.chi_inv @ (prep.bloch_rows @ (qubit_bloch(rho_S) - prep.s0))


def _outside_stacklevel() -> int:
    """The warnings.warn stacklevel, counted from the caller, of the first
    frame outside this module and evolve: a warning names the line that
    called into the library, whether that called mori_blow_up directly or
    through blow_up or evolve.reduced_evolution.
    """
    inside = (__name__, propagator.__module__)  # this module and evolve
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get("__name__") in inside:
        frame, level = frame.f_back, level + 1
    return level


def mori_blow_up(prep: MoriLinearResponse, rho_S) -> np.ndarray:
    """Linear-response blow-up: rho0 + sum_i F_i K_i with F from mori_fields.

    rho0 and the Kubo operators K_i are the ones prep computed at
    construction, so the map is affine in rho_S.  For rho_S equal to the
    reduced zero-field state all field estimates vanish and rho0 is returned
    exactly.  Emits ExtrapolationWarning when some |beta F_i| exceeds
    MORI_BETA_F_MAX.
    """
    fields = mori_fields(prep, rho_S)
    state = prep.rho0  # never returned as is: there is at least one observable
    for k, f in zip(prep.kubo, fields):
        state = state + f * k
    # in Python floats; the fields are finite, since mori_fields checked rho_S
    beta_field = prep.model.beta * max(map(abs, fields.tolist()))
    if beta_field > MORI_BETA_F_MAX:
        warnings.warn(
            f"inferred fields reach |beta F| = {beta_field:.3f}, beyond the "
            f"linear-response trust region {MORI_BETA_F_MAX}; result is an extrapolation",
            ExtrapolationWarning,
            stacklevel=_outside_stacklevel(),
        )
    return state


def blow_up(prep: Preparation, rho_S) -> np.ndarray:
    """Total initial state R(rho_S) for the given preparation.

    rho_S must be a qubit density matrix.  The defining identity
    Tr_env R(rho_S) = rho_S is checked once, for every preparation: a
    Frobenius gap above TRACE_BACK_ATOL, or a NaN gap, raises
    PreparationDomainError.  That is how a reduced state off the reachable
    set is rejected.  A factorize-and-wait pre-wait state that is not a
    density matrix raises it too.  The output itself is not checked: it is
    a density matrix by construction for every preparation but Mori, whose
    affine rho0 + sum_i F_i K_i can have negative eigenvalues.
    """
    rho_S = require_density(rho_S, "reduced state", shape=(2, 2))
    state = prep._total_state(rho_S)
    diff = partial_trace(state, keep=0) - rho_S
    gap = math.sqrt(np.vdot(diff, diff).real)  # Frobenius norm; nan stays nan
    if not gap <= TRACE_BACK_ATOL:
        raise PreparationDomainError(
            f"{type(prep).__name__} preparation does not reach this reduced state: "
            f"its trace-back differs from it by {gap:.3e} in Frobenius norm "
            f"(tolerance {TRACE_BACK_ATOL:.0e})"
        )
    return state
