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

All constructors and maps are pure; preparation values are immutable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    ExtrapolationWarning,
    NonInvertibleSusceptibilityError,
    PreparationDomainError,
    UnreachableStateError,
    ValidationError,
)
from .evolve import evolve_total, factorizing_propagator, invert_propagator
from .linalg import (
    DensityReport,
    as_operator,
    dag,
    herm_eig,
    is_hermitian,
    kron,
    partial_trace,
    require_density,
    validate_density,
)
from .model import ID2, ModelParams, equilibrium_observables, hamiltonian, qubit_bloch

# How closely a reduced state must sit on a preparation's reachable manifold.
TRACE_BACK_ATOL = 1e-10

_CHI_MAX_COND = 1e12
_KUBO_DEGENERATE_LOG = 1e-8


def _check_qubit_density(rho, what: str) -> np.ndarray:
    rho = as_operator(rho)
    if rho.shape != (2, 2):
        raise DimensionError(f"{what} must be 2x2, got {rho.shape}")
    return require_density(rho, what)


@dataclass(frozen=True, eq=False)
class Equilibrium:
    """Canonical preparation: vary the field on the system spin at fixed beta."""

    model: ModelParams


@dataclass(frozen=True, eq=False)
class Factorizing:
    """Product preparation rho_S (x) rho_B with a fixed environment state."""

    rho_B: np.ndarray

    def __post_init__(self):
        _check_qubit_density(self.rho_B, "rho_B")


@dataclass(frozen=True, eq=False)
class OperatorSandwich:
    """sum_j (O_j (x) 1) rho^Fz (O_j' (x) 1) for system operator pairs (O_j, O_j')."""

    model: ModelParams
    Fz: float
    ops: tuple

    def __post_init__(self):
        if len(self.ops) == 0:
            raise ValueError("operator sandwich requires a nonempty ops list")
        for left, right in self.ops:
            if as_operator(left).shape != (2, 2) or as_operator(right).shape != (2, 2):
                raise DimensionError("sandwich operators must act on the system qubit (2x2)")


@dataclass(frozen=True, eq=False)
class FactorizeAndWait:
    """Factorize at -t0, evolve with the waiting Hamiltonian, prepare at 0."""

    model: ModelParams
    Fz_wait: float
    t0: float
    rho_B0: np.ndarray

    def __post_init__(self):
        if not self.t0 > 0.0:
            raise ValueError(f"waiting time t0 must be positive, got {self.t0}")
        _check_qubit_density(self.rho_B0, "rho_B0")


@dataclass(frozen=True, eq=False)
class MoriLinearResponse:
    """Linear-response preparation around zero field.

    observables are the system operators conjugate to the external fields.
    beta_f_max bounds |beta * F_i| of the inferred fields; beyond it the
    blow-up still evaluates but emits ExtrapolationWarning.
    """

    model: ModelParams
    observables: tuple
    beta_f_max: float = 0.2

    def __post_init__(self):
        if len(self.observables) == 0:
            raise ValueError("linear-response preparation requires at least one observable")
        for x in self.observables:
            x = as_operator(x)
            if x.shape != (2, 2):
                raise DimensionError("observables must act on the system qubit (2x2)")
            if not is_hermitian(x):
                raise ValidationError("observables must be Hermitian")
        if not self.beta_f_max > 0.0:
            raise ValueError(f"beta_f_max must be positive, got {self.beta_f_max}")


Preparation = Equilibrium | Factorizing | OperatorSandwich | FactorizeAndWait | MoriLinearResponse


def embed_system(op) -> np.ndarray:
    """Lift a system (2x2) operator to the total space as op (x) 1."""
    op = as_operator(op)
    if op.shape != (2, 2):
        raise DimensionError(f"expected a 2x2 system operator, got {op.shape}")
    return kron(op, ID2)


def equilibrium_state(model: ModelParams, Fz: float) -> np.ndarray:
    """exp(-beta H(Fz)) / Z via the eigensolver, overflow-safe for any field.

    The Boltzmann weights are computed after shifting by the ground energy.
    """
    w, v = herm_eig(hamiltonian(model, Fz))
    weights = np.exp(-model.beta * (w - w.min()))
    weights /= weights.sum()
    return (v * weights) @ dag(v)


def invert_field(model: ModelParams, target_S1z: float) -> float:
    """Field Fz with S1z(Fz) = target, to within 1e-12 in S1z.

    S1z is odd and strictly increasing in Fz, so the root is bracketed by
    doubling and pinned by bisection, with a Newton polish at the end.
    """
    sup = 1.0  # sup |S1z| over all fields, approached only as Fz -> +-inf
    if not abs(target_S1z) < sup:
        raise UnreachableStateError(
            f"target S1z = {target_S1z} is at or beyond the supremum {sup} "
            "(pure states are reached only asymptotically as Fz -> +-inf)",
            supremum=sup,
        )
    if target_S1z == 0.0:
        return 0.0

    goal = abs(target_S1z)
    sign = 1.0 if target_S1z > 0 else -1.0

    def s1z(f: float) -> float:
        return equilibrium_observables(model, f).S1z

    hi = 1.0 / model.beta
    cap = 1e8 / model.beta
    while s1z(hi) < goal:
        hi *= 2.0
        if hi > cap:
            raise UnreachableStateError(
                f"target S1z = {target_S1z} needs |Fz| > {cap:.3e}; "
                f"the supremum {sup} is approached only asymptotically",
                supremum=sup,
            )
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if s1z(mid) < goal:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    # Newton polish with a finite-difference slope
    for _ in range(3):
        err = s1z(root) - goal
        if abs(err) <= 1e-13:
            break
        h = 1e-7 * (1.0 + abs(root))
        slope = (s1z(root + h) - s1z(root - h)) / (2.0 * h)
        if slope <= 0.0:
            break
        step = err / slope
        if abs(step) < 4.0 * abs(root) + 1.0:
            root -= step
    if abs(s1z(root) - goal) > 1e-12:
        raise RuntimeError(
            f"field inversion did not converge for target S1z = {target_S1z}"
        )
    return sign * root


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


def kubo_integral(rho0, X, beta: float = 1.0) -> np.ndarray:
    """Canonical correlation integral beta * int_0^1 rho0^(1-x) dX rho0^x dx.

    dX = X - <X>_0 with <X>_0 = tr(X rho0).  In the eigenbasis of rho0 with
    probabilities p the integral is exact:

        element (m, n) = dX_mn (p_m - p_n) / ln(p_m / p_n)   for p_m != p_n,
        element (m, n) = dX_mn p_m                           for p_m = p_n,

    and zero whenever both probabilities vanish.  The result is Hermitian and
    traceless, and linear in X.
    """
    rho0 = require_density(rho0, "rho0")
    X = as_operator(X)
    if X.shape != rho0.shape:
        raise DimensionError(f"X shape {X.shape} does not match rho0 shape {rho0.shape}")
    if not is_hermitian(X):
        raise ValidationError("X must be Hermitian")

    w, v = herm_eig(rho0)
    p = np.clip(w, 0.0, None)
    mean = float(np.trace(X @ rho0).real)
    dx_eig = dag(v) @ (X - mean * np.eye(X.shape[0])) @ v

    n = len(p)
    kernel = np.zeros((n, n))
    for m in range(n):
        for k in range(n):
            pm, pk = p[m], p[k]
            if pm == 0.0 or pk == 0.0:
                continue  # (pm - pk)/ln(pm/pk) -> 0 when a probability vanishes
            d = math.log(pm) - math.log(pk)
            if abs(d) < _KUBO_DEGENERATE_LOG:
                kernel[m, k] = 0.5 * (pm + pk)
            else:
                kernel[m, k] = (pm - pk) / d
    return beta * (v @ (dx_eig * kernel) @ dag(v))


def susceptibility(model: ModelParams, observables) -> np.ndarray:
    """Response matrix chi_ij = tr(dX_i * K_j) with K_j the Kubo integral of X_j.

    Everything is evaluated in the zero-field equilibrium state.  chi is real
    symmetric, and positive definite whenever the observables are linearly
    independent and none is conserved; a condition number above 1e12 (or a
    non-finite one) raises NonInvertibleSusceptibilityError.
    """
    observables = list(observables)
    if not observables:
        raise ValueError("susceptibility requires at least one observable")
    rho0 = equilibrium_state(model, 0.0)
    total_obs = [embed_system(x) for x in observables]
    kubo = [kubo_integral(rho0, x, beta=model.beta) for x in total_obs]
    n = len(observables)
    chi = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            # tr(dX_i K_j) = tr(X_i K_j): the Kubo integral is traceless
            chi[i, j] = float(np.trace(total_obs[i] @ kubo[j]).real)
    sym_defect = float(np.abs(chi - chi.T).max())
    if sym_defect > 1e-10 * (1.0 + float(np.abs(chi).max())):
        raise ValidationError(f"susceptibility came out non-symmetric (defect {sym_defect:.3e})")
    chi = 0.5 * (chi + chi.T)
    cond = float(np.linalg.cond(chi))
    if not math.isfinite(cond) or cond > _CHI_MAX_COND:
        raise NonInvertibleSusceptibilityError(
            f"susceptibility matrix is not invertible (condition number {cond:.3e})", cond
        )
    return chi


def mori_fields(model: ModelParams, observables, rho_S) -> np.ndarray:
    """Field estimates F_i = sum_j chi^-1_ij <X_j - <X_j>_0> inferred from rho_S."""
    rho_S = _check_qubit_density(rho_S, "reduced state")
    observables = list(observables)
    chi = susceptibility(model, observables)
    rho_s0 = partial_trace(equilibrium_state(model, 0.0), keep=0)
    excess = np.array(
        [float(np.trace(as_operator(x) @ (rho_S - rho_s0)).real) for x in observables]
    )
    return np.linalg.solve(chi, excess)


def mori_blow_up(model: ModelParams, observables, rho_S) -> np.ndarray:
    """Linear-response blow-up: rho0 + sum_i K_i F_i with F from mori_fields.

    Affine in rho_S by construction.  For rho_S equal to the reduced
    zero-field state all field estimates vanish and rho0 is returned exactly.
    """
    rho_S = _check_qubit_density(rho_S, "reduced state")
    observables = list(observables)
    fields = mori_fields(model, observables, rho_S)
    rho0 = equilibrium_state(model, 0.0)
    state = rho0.astype(complex)
    for x, f in zip(observables, fields):
        state = state + f * kubo_integral(rho0, embed_system(x), beta=model.beta)
    return state


def blow_up(prep: Preparation, rho_S) -> np.ndarray:
    """Total initial state R(rho_S) for the given preparation.

    Raises PreparationDomainError when rho_S is not preparable by the chosen
    procedure; on the domain, the output always satisfies
    Tr_env R(rho_S) = rho_S and passes validate_density.
    """
    rho_S = _check_qubit_density(rho_S, "reduced state")

    if isinstance(prep, Equilibrium):
        s = qubit_bloch(rho_S)
        transverse = math.hypot(s[0], s[1])
        if transverse > TRACE_BACK_ATOL:
            raise PreparationDomainError(
                "equilibrium preparation reaches only sigma_z-polarized reduced states; "
                f"got transverse Bloch magnitude {transverse:.3e}"
            )
        return equilibrium_state(prep.model, invert_field(prep.model, s[2]))

    if isinstance(prep, Factorizing):
        return kron(rho_S, prep.rho_B)

    if isinstance(prep, OperatorSandwich):
        state, report = operator_sandwich_state(prep.model, prep.Fz, prep.ops)
        if not report.ok:
            raise PreparationDomainError(
                "operator-sandwich configuration does not produce a valid density matrix "
                f"(hermiticity defect {report.hermiticity_defect:.3e}, trace defect "
                f"{report.trace_defect:.3e}, min eigenvalue {report.min_eigenvalue:.3e})"
            )
        gap = float(np.linalg.norm(partial_trace(state, keep=0) - rho_S))
        if gap > TRACE_BACK_ATOL:
            raise PreparationDomainError(
                "operator-sandwich preparation produces a single reduced state; the "
                f"requested one differs from it by {gap:.3e} in Frobenius norm"
            )
        return state

    if isinstance(prep, FactorizeAndWait):
        h_wait = hamiltonian(prep.model, prep.Fz_wait)
        propagator = factorizing_propagator(h_wait, prep.rho_B0, prep.t0)
        sigma0 = invert_propagator(propagator).apply(rho_S)
        report = validate_density(sigma0)
        if not report.ok:
            raise PreparationDomainError(
                "reduced state lies outside the range of the waiting propagator: "
                f"pre-wait state has min eigenvalue {report.min_eigenvalue:.3e}"
            )
        return evolve_total(kron(sigma0, prep.rho_B0), h_wait, prep.t0)

    if isinstance(prep, MoriLinearResponse):
        fields = mori_fields(prep.model, prep.observables, rho_S)
        state = mori_blow_up(prep.model, prep.observables, rho_S)
        gap = float(np.linalg.norm(partial_trace(state, keep=0) - rho_S))
        if gap > TRACE_BACK_ATOL:
            raise PreparationDomainError(
                "reduced state is not representable in the linear-response manifold "
                f"spanned by the configured observables (trace-back gap {gap:.3e})"
            )
        beta_fields = prep.model.beta * np.abs(fields)
        if beta_fields.max() > prep.beta_f_max:
            warnings.warn(
                f"inferred fields reach |beta F| = {beta_fields.max():.3f}, beyond the "
                f"linear-response trust region {prep.beta_f_max}; result is an extrapolation",
                ExtrapolationWarning,
                stacklevel=2,
            )
        return state

    raise TypeError(f"unknown preparation {type(prep).__name__}")
