"""Dense complex linear algebra for small Hilbert spaces.

Everything here operates on plain complex ``numpy`` arrays.  Operators are
square matrices; bipartite structure (system x environment) is carried by an
explicit ``dims`` argument where it matters, with the system factor always on
the left of the Kronecker product.

All functions are pure: inputs are never mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionError, DomainError, ValidationError

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
    """max |A - A^dagger| entrywise."""
    a = np.asarray(a)
    return float(np.abs(a - dag(a)).max())


def is_hermitian(a: np.ndarray, rtol: float = HERMITICITY_RTOL) -> bool:
    a = as_operator(a)
    scale = 1.0 + float(np.abs(a).max())
    return hermiticity_defect(a) <= rtol * scale


def kron(a, b) -> np.ndarray:
    """Kronecker product, system (left) factor first.

    Row-major block convention: block (i, j) of the result is a[i, j] * b,
    so a 4x4 product of qubit operators orders the basis as
    |up,up>, |up,down>, |down,up>, |down,down>.
    """
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(rho, keep: int = 0, dims: tuple[int, int] | None = None) -> np.ndarray:
    """Trace out one tensor factor of a bipartite operator.

    keep=0 retains the left (system) factor, keep=1 the right (environment).
    For 4x4 inputs ``dims`` defaults to (2, 2); any other size requires the
    subsystem dimensions explicitly.
    """
    rho = as_operator(rho)
    n = rho.shape[0]
    if dims is None:
        if n == 4:
            dims = (2, 2)
        else:
            raise DimensionError(
                f"subsystem dimensions are required for a {n}x{n} operator; pass dims=(dS, dB)"
            )
    d0, d1 = dims
    if d0 * d1 != n:
        raise DimensionError(f"dims {dims} inconsistent with operator size {n}")
    if keep not in (0, 1):
        raise DimensionError(f"keep must be 0 (system) or 1 (environment), got {keep!r}")
    r = rho.reshape(d0, d1, d0, d1)
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
    scale = 1.0 + float(np.abs(a).max())
    defect = hermiticity_defect(a)
    if not defect <= HERMITICITY_RTOL * scale:
        raise ValidationError(
            f"operator is not Hermitian: max |A - A^dagger| = {defect:.3e} "
            f"exceeds {HERMITICITY_RTOL:.0e} * (1 + max|A|)"
        )
    w, v = np.linalg.eigh(0.5 * (a + dag(a)))
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


def fractional_power(rho, x: float) -> np.ndarray:
    """rho**x for a positive semidefinite Hermitian operator, with 0**x = 0.

    Eigenvalues in (DENSITY_EIG_FLOOR, 0] are treated as roundoff and clamped
    to zero; anything below the floor is a genuine domain violation.
    """
    if not x > 0.0:
        raise DomainError(f"fractional power requires x > 0, got {x}")
    w, v = herm_eig(rho)
    if w.min() < DENSITY_EIG_FLOOR:
        raise DomainError(
            f"fractional power of an operator with eigenvalue {w.min():.3e} < {DENSITY_EIG_FLOOR:.0e}"
        )
    w = np.clip(w, 0.0, None)
    return (v * (w**x).astype(complex)) @ dag(v)


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
    non-Hermitian input.
    """
    rho = as_operator(rho)
    scale = 1.0 + float(np.abs(rho).max())
    h_defect = hermiticity_defect(rho)
    t_defect = abs(complex(np.trace(rho)) - 1.0)
    herm = 0.5 * (rho + dag(rho))
    # LAPACK rejects non-finite input; such a report must still come back (not ok).
    min_eig = float(np.linalg.eigvalsh(herm)[0]) if np.isfinite(herm).all() else math.nan
    ok = (
        h_defect <= HERMITICITY_RTOL * scale
        and t_defect <= DENSITY_TRACE_ATOL
        and min_eig >= DENSITY_EIG_FLOOR
    )
    return DensityReport(h_defect, float(t_defect), min_eig, ok)


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
