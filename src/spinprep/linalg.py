"""Dense complex linear algebra for small Hilbert spaces.

Everything here operates on plain complex ``numpy`` arrays.  Operators are
square matrices; the only bipartite layout is the two-qubit one (4x4), with
the system factor always on the left of the Kronecker product.

All functions are pure: inputs are never mutated.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionError, ValidationError

# Structural tolerances, relative where it makes sense at 4x4 double precision.
HERMITICITY_RTOL = 1e-12
DENSITY_TRACE_ATOL = 1e-10
DENSITY_EIG_FLOOR = -1e-10


def as_operator(a) -> np.ndarray:
    """Coerce to a square complex matrix (copy left to numpy's discretion)."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def hermiticity_defect(a: np.ndarray) -> float:
    """max |A - A^dagger| entrywise; NaN when an entry is not finite."""
    return _hermiticity(np.asarray(a))[0]


def _hermitian_within_tol(defect: float, scale: float) -> bool:
    """Whether a Hermiticity defect is <= 1e-12 * (1 + scale), scale = max|a|.

    A NaN defect or scale fails the check.
    """
    return defect <= HERMITICITY_RTOL * (1.0 + scale)


def _hermiticity(a: np.ndarray) -> tuple[float, bool]:
    """The Hermiticity defect of a and whether it is <= 1e-12 * (1 + max|a|).

    A non-finite entry makes the defect NaN, and the check fails; the
    difference A - A^dagger is then not formed (inf - inf would warn).  A
    finite difference beyond the largest double reads inf, with no warning.
    """
    scale = float(np.abs(a).max())
    if not math.isfinite(scale):
        return math.nan, False
    with np.errstate(over="ignore"):
        defect = float(np.abs(a - dag(a)).max())
    return defect, _hermitian_within_tol(defect, scale)


def is_hermitian(a: np.ndarray) -> bool:
    return _hermiticity(as_operator(a))[1]


def kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices, system (left) factor first.

    Row-major block convention: block (i, j) of the result is a[i, j] * b,
    so a 4x4 product of qubit operators orders the basis as
    |up,up>, |up,down>, |down,up>, |down,down>.  Formed as one broadcast
    outer product: the same complex multiplications as ``np.kron``, so the
    result is bit-identical to it (signed zeros included), at a fraction of
    its overhead.  Any other rank raises DimensionError.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"expected two matrices, got shapes {a.shape} and {b.shape}")
    shape = (a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(shape)


def partial_trace(rho, keep: int = 0) -> np.ndarray:
    """Trace out one qubit of a two-qubit (4x4) operator.

    keep=0 retains the left (system) qubit, keep=1 the right (environment);
    any other shape raises DimensionError.
    """
    rho = as_operator(rho)
    if rho.shape != (4, 4):
        raise DimensionError(f"expected a two-qubit (4x4) operator, got shape {rho.shape}")
    if keep not in (0, 1):
        raise DimensionError(f"keep must be 0 (system) or 1 (environment), got {keep!r}")
    r = rho.reshape(2, 2, 2, 2)
    if keep == 0:
        return np.einsum("ikjk->ij", r)
    return np.einsum("ikil->kl", r)


class SpectralData(NamedTuple):
    """Eigendecomposition of a Hermitian operator.

    eigenvalues are real and ascending; eigenvectors holds the matching
    orthonormal eigenvectors as columns, so V diag(w) V^dagger reconstructs
    the input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def herm_eig(a) -> SpectralData:
    """Eigendecomposition of a Hermitian operator via LAPACK (``numpy.linalg.eigh``).

    Raises ValidationError if the input is not Hermitian within tolerance (a
    NaN entry fails that check).  The Hermitian part (A + A^dagger)/2 is
    diagonalized.  Eigenvalues come back ascending; each eigenvector's
    largest-magnitude component, the first one on ties, is made real and
    positive so repeated runs are bit-identical.
    """
    a = as_operator(a)
    defect, hermitian = _hermiticity(a)
    if not hermitian:
        raise ValidationError(
            f"operator is not Hermitian: max |A - A^dagger| = {defect:.3e} "
            f"exceeds {HERMITICITY_RTOL:.0e} * (1 + max|A|)"
        )
    # halved before the sum, which cannot overflow for finite entries
    w, v = np.linalg.eigh(0.5 * a + 0.5 * dag(a))
    # Columns are unit vectors, so the largest component is never zero.
    z = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return SpectralData(w, v * (np.conj(z) / np.abs(z)))


def matrix_function(a, f: Callable) -> np.ndarray:
    """Apply a function to a Hermitian operator through its spectrum.

    Returns V diag(f(w)) V^dagger.  ``f`` is applied once to the array of
    eigenvalues, so it must act elementwise on numpy arrays; it may return
    complex values (e.g. w -> exp(-1j*w*t) builds the unitary propagator).
    """
    w, v = herm_eig(a)
    return (v * np.asarray(f(w), dtype=complex)) @ dag(v)


@dataclass(frozen=True)
class DensityReport:
    """Outcome of validate_density; report-style, never raises."""

    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    ok: bool


def validate_density(rho) -> DensityReport:
    """Check the density-matrix conditions: Hermitian, unit trace, positive.

    Pass thresholds: Hermiticity defect <= 1e-12 * (1 + max|rho|), trace
    within 1e-10 of one, smallest eigenvalue >= -1e-10.  The eigenvalue is
    computed from the Hermitian part, so a report is produced even for badly
    non-Hermitian input; a non-finite entry gives min_eigenvalue nan (not
    ok).  A qubit (2x2) state is checked in closed form, in Python floats and
    with no eigensolver: its Hermitian part has diagonal p, q and
    off-diagonal h, so its smallest eigenvalue is
    (p + q)/2 - hypot((p - q)/2, |h|).  Larger inputs go through LAPACK
    ``eigvalsh``.
    """
    rho = as_operator(rho)
    if rho.shape == (2, 2):
        (a, b), (c, d) = rho.tolist()
        # every modulus |z| is hypot(z.real, z.imag), written out: abs(complex)
        # raises OverflowError where hypot returns inf
        hypot = math.hypot
        ga, gb, gd = a - a.conjugate(), b - c.conjugate(), d - d.conjugate()
        # the entrywise max |rho - rho^dagger| ((1, 0) mirrors (0, 1)), NaN
        # when any gap is NaN, as numpy's max on the larger path
        gaps = (hypot(ga.real, ga.imag), hypot(gb.real, gb.imag), hypot(gd.real, gd.imag))
        h_defect = math.nan if math.isnan(sum(gaps)) else max(gaps)
        scale = max(hypot(a.real, a.imag), hypot(b.real, b.imag))
        scale = max(scale, hypot(c.real, c.imag), hypot(d.real, d.imag))
        hermitian = _hermitian_within_tol(h_defect, scale)
        trace = a + d
        t_defect = hypot(trace.real - 1.0, trace.imag)
        if all(map(cmath.isfinite, (a, b, c, d))):
            p, q = a.real, d.real
            h = 0.5 * (b + c.conjugate())
            min_eig = 0.5 * (p + q) - hypot(0.5 * (p - q), hypot(h.real, h.imag))
        else:
            min_eig = math.nan
    else:
        h_defect, hermitian = _hermiticity(rho)
        if math.isnan(h_defect):
            # a non-finite entry: LAPACK rejects it, and the report comes back not ok
            t_defect = min_eig = math.nan
        else:
            t_defect = abs(complex(np.trace(rho)) - 1.0)
            # halved before the sum, which cannot overflow for finite entries
            min_eig = float(np.linalg.eigvalsh(0.5 * rho + 0.5 * dag(rho))[0])
    ok = hermitian and t_defect <= DENSITY_TRACE_ATOL and min_eig >= DENSITY_EIG_FLOOR
    return DensityReport(h_defect, t_defect, min_eig, ok)


def require_density(rho, what: str = "operator") -> np.ndarray:
    """Validate and return rho, raising ValidationError with the failed condition."""
    rho = as_operator(rho)
    report = validate_density(rho)
    if not report.ok:
        raise ValidationError(
            f"{what} is not a valid density matrix "
            f"(hermiticity defect {report.hermiticity_defect:.3e}, "
            f"trace defect {report.trace_defect:.3e}, "
            f"min eigenvalue {report.min_eigenvalue:.3e})"
        )
    return rho
