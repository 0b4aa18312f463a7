"""Exact propagation and affine-map machinery for the reduced dynamics.

The total system evolves unitarily, rho(t) = U rho U^dagger with
U = exp(-i H t) (hbar = 1, time in units of inverse energy); propagator
alone builds U, and everything downstream takes it.  Reduced dynamics
under a preparation is the partial trace of the evolved blow-up.

Qubit states are handled through their coefficient vector (1, Sx, Sy, Sz),
where rho = (1 + S.sigma)/2; trace-preserving affine maps on states are then
a 3x3 Bloch matrix plus an offset vector, which makes fitting, composing and
inverting reduced propagators transparent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InsufficientSpanError, ValidationError
from .linalg import as_operator, checked_inverse, dag, kron, matrix_function
from .linalg import partial_trace, require_density
from .model import ID2, PAULIS, qubit_bloch, reduced_from_bloch_unchecked


def _store(frozen, **values) -> None:
    """Set values on the frozen dataclass instance frozen, each array made
    read-only first: the one way a preparation or an affine map keeps a value.
    Each caller passes arrays of its own, so every array held is a copy."""
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(frozen, name, value)


def propagator(H, t: float) -> np.ndarray:
    """U(t) = exp(-i H t) for a Hermitian H.

    A phase w * t that is not finite (an energy times a time beyond the
    largest double, or a time that is not finite) raises ValidationError,
    and so does a finite one with max |w t| >= 2^53: there the rounding of
    an energy alone moves the phase by about a radian.
    """

    def phase(w: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            wt = w * t
        if not np.isfinite(wt).all():
            raise ValidationError(f"phase w*t of exp(-i H t) is not finite at t = {t!r}")
        largest = max(map(abs, wt.tolist()))
        if largest >= 2.0**53:
            raise ValidationError(f"phase w*t of exp(-i H t) is {largest:.3e} >= 2^53 at t = {t!r}: all roundoff")
        return np.exp(-1j * wt)

    return matrix_function(H, phase)


def evolve_total(rho, u: np.ndarray) -> np.ndarray:
    """u rho u^dagger: exact unitary evolution of a total density matrix."""
    rho = require_density(rho, "state")
    if u.shape != rho.shape:
        raise DimensionError(f"propagator shape {u.shape} does not match state {rho.shape}")
    return u @ rho @ dag(u)


def reduced_evolution(prep, u: np.ndarray, rho_S) -> np.ndarray:
    """Reduced state Tr_env u R(rho_S) u^dagger for the propagator u = U(t).

    The preparation supplies the blow-up map R; u need not come from the
    preparation's Hamiltonian (fields used to prepare are typically switched
    off before the evolution starts).
    """
    from .prepare import blow_up  # deferred: prepare builds on this module

    return partial_trace(evolve_total(blow_up(prep, rho_S), u), keep=0)


@dataclass(frozen=True, eq=False)
class ReducedAffineMap:
    """Trace-preserving affine map S -> bloch @ S + offset on qubit states; stores read-only float copies."""

    bloch: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        _store(self, bloch=np.array(self.bloch, dtype=float), offset=np.array(self.offset, dtype=float))

    def apply(self, rho) -> np.ndarray:
        """Act on a 2x2 state (or any unit-trace Hermitian operator)."""
        return reduced_from_bloch_unchecked(self.bloch @ qubit_bloch(rho) + self.offset)

    def compose(self, inner: "ReducedAffineMap") -> "ReducedAffineMap":
        """self after inner: x -> self(inner(x))."""
        return ReducedAffineMap(self.bloch @ inner.bloch, self.bloch @ inner.offset + self.offset)


def factorizing_propagator(u: np.ndarray, rho_B0) -> ReducedAffineMap:
    """The reduced propagator G_t of the factorizing preparation, for u = U(t).

    G_t(rho_S) = Tr_env u (rho_S (x) rho_B0) u^dagger is affine in rho_S;
    its Bloch matrix and offset are read off by propagating the four basis
    operators {1/2, sigma_x/2, sigma_y/2, sigma_z/2} (x) rho_B0.  rho_B0
    must be a 2x2 density matrix: another shape raises DimensionError, and
    a 2x2 matrix that is not a state raises ValidationError.
    """
    rho_B0 = require_density(rho_B0, "rho_B0", shape=(2, 2))

    def reduced_image(system_op: np.ndarray) -> np.ndarray:
        total = kron(system_op, rho_B0)
        return partial_trace(u @ total @ dag(u), keep=0)

    offset = qubit_bloch(reduced_image(0.5 * ID2))
    # traceless inputs: each image is a pure Bloch column
    bloch = np.column_stack([qubit_bloch(reduced_image(0.5 * s)) for s in PAULIS])
    return ReducedAffineMap(bloch, offset)


def invert_propagator(G: ReducedAffineMap) -> ReducedAffineMap:
    """Affine inverse S -> A^-1 (S - b), with A^-1 from linalg.checked_inverse.

    A Bloch block A that it cannot invert raises NonInvertibleError.
    Reduced propagators are contractions, so the inverse generally is not
    defined on all states; the returned map is exact on G's range.
    """
    inv = checked_inverse(G.bloch, "Bloch block of the propagator")
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
    theta, _, _, singular = np.linalg.lstsq(design, targets, rcond=None)  # (4, 3)
    # the rank of the design, read off the singular values lstsq computed
    if np.count_nonzero(singular > 1e-10) < 2:
        raise InsufficientSpanError(
            "samples do not span an affine family (all inputs coincide)"
        )
    fitted = ReducedAffineMap(theta[1:, :].T, theta[0, :])
    residual = max(float(np.linalg.norm(fitted.apply(a) - b)) for a, b in pairs)
    return AffineFitReport(fitted, residual)


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
