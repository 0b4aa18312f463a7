"""Exact propagation and affine-map machinery for the reduced dynamics.

The total system evolves unitarily, rho(t) = U rho U^dagger with
U = exp(-i H t) (hbar = 1, time in units of inverse energy).  Reduced
dynamics under a preparation is the partial trace of the evolved blow-up.

Qubit states are handled through their coefficient vector (1, Sx, Sy, Sz),
where rho = (1 + S.sigma)/2; trace-preserving affine maps on states are then
a 3x3 Bloch matrix plus an offset vector, which makes fitting, composing and
inverting reduced propagators transparent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    InsufficientSpanError,
    NonInvertiblePropagatorError,
    ValidationError,
)
from .linalg import as_operator, dag, kron, matrix_function, partial_trace, require_density
from .model import ID2, PAULIS, qubit_bloch, reduced_from_bloch_unchecked

_PROPAGATOR_MAX_COND = 1e12


def propagator(H, t: float) -> np.ndarray:
    """U(t) = exp(-i H t) for a Hermitian H."""
    return matrix_function(H, lambda w: np.exp(-1j * w * t))


def evolve_total(rho, H, t: float) -> np.ndarray:
    """U rho U^dagger: exact unitary evolution of a total density matrix."""
    rho = require_density(rho, "state")
    H = as_operator(H)
    if H.shape != rho.shape:
        raise DimensionError(f"Hamiltonian shape {H.shape} does not match state {rho.shape}")
    u = propagator(H, t)
    return u @ rho @ dag(u)


def reduced_evolution(prep, H, rho_S, t: float) -> np.ndarray:
    """Reduced state at time t: Tr_env U(t) R(rho_S) U^dagger(t).

    The preparation supplies the blow-up map R; H governs the evolution and
    need not equal the preparation's Hamiltonian (fields used to prepare are
    typically switched off before the evolution starts).
    """
    from .prepare import blow_up  # deferred: prepare builds on this module

    total = blow_up(prep, rho_S)
    return partial_trace(evolve_total(total, H, t), keep=0)


@dataclass(frozen=True, eq=False)
class ReducedAffineMap:
    """Trace-preserving affine map on qubit states: S -> bloch @ S + offset.

    In homogeneous coordinates this is a 4x4 matrix acting on (1, Sx, Sy, Sz)
    whose first row is (1, 0, 0, 0) by construction, see as_matrix().
    """

    bloch: np.ndarray
    offset: np.ndarray

    def apply_bloch(self, s: np.ndarray) -> np.ndarray:
        return self.bloch @ np.asarray(s, dtype=float) + self.offset

    def apply(self, rho) -> np.ndarray:
        """Act on a 2x2 state (or any unit-trace Hermitian operator)."""
        return reduced_from_bloch_unchecked(self.apply_bloch(qubit_bloch(rho)))

    def as_matrix(self) -> np.ndarray:
        m = np.zeros((4, 4))
        m[0, 0] = 1.0
        m[1:, 0] = self.offset
        m[1:, 1:] = self.bloch
        return m

    def compose(self, inner: "ReducedAffineMap") -> "ReducedAffineMap":
        """self after inner: x -> self(inner(x))."""
        return ReducedAffineMap(self.bloch @ inner.bloch, self.bloch @ inner.offset + self.offset)

    @staticmethod
    def identity() -> "ReducedAffineMap":
        return ReducedAffineMap(np.eye(3), np.zeros(3))


def factorizing_propagator(H, rho_B0, t: float) -> ReducedAffineMap:
    """The reduced propagator G_t of the factorizing preparation.

    G_t(rho_S) = Tr_env U(t) (rho_S (x) rho_B0) U^dagger(t) is affine in
    rho_S; its Bloch matrix and offset are read off by propagating the four
    basis operators {1/2, sigma_x/2, sigma_y/2, sigma_z/2} (x) rho_B0.
    """
    H = as_operator(H)
    rho_B0 = require_density(rho_B0, "rho_B0")
    u = propagator(H, t)

    def reduced_image(system_op: np.ndarray) -> np.ndarray:
        total = kron(system_op, rho_B0)
        return partial_trace(u @ total @ dag(u), keep=0)

    offset = qubit_bloch(reduced_image(0.5 * ID2))
    # traceless inputs: each image is a pure Bloch column
    bloch = np.column_stack([qubit_bloch(reduced_image(0.5 * s)) for s in PAULIS])
    return ReducedAffineMap(bloch, offset)


def invert_propagator(G: ReducedAffineMap) -> ReducedAffineMap:
    """Affine inverse S -> A^-1 (S - b); fails on an ill-conditioned Bloch block.

    Reduced propagators are contractions, so the inverse generally is not
    defined on all states; the returned map is exact on G's range.
    """
    cond = float(np.linalg.cond(G.bloch))
    if not math.isfinite(cond) or cond > _PROPAGATOR_MAX_COND:
        raise NonInvertiblePropagatorError(
            f"Bloch block of the propagator has condition number {cond:.3e}", cond
        )
    inv = np.linalg.inv(G.bloch)
    return ReducedAffineMap(inv, -inv @ G.offset)


@dataclass(frozen=True, eq=False)
class AffineFitReport:
    """Least-squares affine fit of a sampled qubit map and its residual.

    residual is the maximum Frobenius distance between fitted and actual
    outputs over the sample: the direct witness of nonlinearity.  The fit is
    exact on the affine hull of the inputs; directions not spanned by the
    sample carry no information and are fitted with zero coefficients.
    """

    map: ReducedAffineMap
    residual: float
    sample_size: int


def fit_affine_map(samples) -> AffineFitReport:
    """Fit rho_out ~ T(rho_in) + I over (input, output) operator pairs.

    Needs at least 5 samples with at least two distinct inputs; raises
    InsufficientSpanError otherwise.  A sample with a non-finite entry raises
    ValidationError: its residual would be NaN, which the maximum over the
    sample would drop.  Inputs confined to a subspace (for instance the
    sigma_z axis for equilibrium-preparable states) are handled by a
    minimum-norm least-squares solution, so the residual always measures
    deviation from affinity on the sampled family itself.
    """
    pairs = [(as_operator(a), as_operator(b)) for a, b in samples]
    if not all(np.isfinite(a).all() and np.isfinite(b).all() for a, b in pairs):
        raise ValidationError("affine fit samples must be finite")
    if len(pairs) < 5:
        raise InsufficientSpanError(
            f"affine fit needs at least 5 samples, got {len(pairs)}"
        )
    design = np.array([[1.0, *qubit_bloch(a)] for a, _ in pairs])
    targets = np.array([qubit_bloch(b) for _, b in pairs])
    rank = int(np.linalg.matrix_rank(design, tol=1e-10))
    if rank < 2:
        raise InsufficientSpanError(
            "samples do not span an affine family (all inputs coincide)"
        )
    theta, *_ = np.linalg.lstsq(design, targets, rcond=None)  # (4, 3)
    fitted = ReducedAffineMap(theta[1:, :].T.copy(), theta[0, :].copy())
    residual = max(float(np.linalg.norm(fitted.apply(a) - b)) for a, b in pairs)
    return AffineFitReport(fitted, residual, len(pairs))


def chebyshev_targets(n: int, lo: float, hi: float) -> np.ndarray:
    """Chebyshev-spaced values in (lo, hi), densest near the ends.

    Used to pick S1z targets inside the preparable interval: the clustering
    keeps the affine fits well conditioned near the interval boundaries.
    """
    if n < 1:
        raise ValueError("need at least one node")
    k = np.arange(n)
    nodes = np.cos(np.pi * (2 * k + 1) / (2 * n))  # in (-1, 1), descending
    return (0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes)[::-1].copy()
