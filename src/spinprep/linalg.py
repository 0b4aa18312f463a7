"""Dense complex linear algebra for small Hilbert spaces.

Everything here operates on plain complex ``numpy`` arrays.  Operators are
square matrices; the only bipartite layout is the two-qubit one (4x4), with
the system factor always on the left of the Kronecker product.

All functions are pure: inputs are never mutated.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionError, ValidationError

# Structural tolerances, relative where it makes sense at 4x4 double precision.
HERMITICITY_RTOL = 1e-12
DENSITY_TRACE_ATOL = 1e-10
DENSITY_EIG_FLOOR = -1e-10


def as_operator(a) -> np.ndarray:
    """Coerce to a square complex matrix (copy left to numpy's discretion)."""
    return _square(np.asarray(a, dtype=complex))


def _square(a: np.ndarray) -> np.ndarray:
    """a itself, or DimensionError if it is not a square matrix."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def _hermitian_within_tol(defect: float, scale: float) -> bool:
    """Whether a Hermiticity defect is <= 1e-12 * (1 + max|a|); a NaN fails."""
    return defect <= HERMITICITY_RTOL * (1.0 + scale)


def _hermiticity(a: np.ndarray) -> tuple[float, float]:
    """The Hermiticity defect max|A - A^dagger| of a and its scale max|A|.

    A non-finite scale (a NaN or inf entry, or a modulus beyond the largest
    double) makes the defect NaN, and the difference A - A^dagger is then
    not formed (inf - inf would warn).  A finite difference beyond the
    largest double reads inf, with no warning.
    """
    scale = float(np.abs(a).max())
    if not math.isfinite(scale):
        return math.nan, scale
    with np.errstate(over="ignore"):
        return float(np.abs(a - dag(a)).max()), scale


def is_hermitian(a: np.ndarray) -> bool:
    return _hermitian_within_tol(*_hermiticity(as_operator(a)))


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
    any other shape raises DimensionError.  Row 2i + k of the 4x4 operator
    is system index i and environment index k, so each reduced operator is
    the sum of two strided 2x2 blocks.
    """
    rho = as_operator(rho)
    if rho.shape != (4, 4):
        raise DimensionError(f"expected a two-qubit (4x4) operator, got shape {rho.shape}")
    if keep not in (0, 1):
        raise DimensionError(f"keep must be 0 (system) or 1 (environment), got {keep!r}")
    if keep == 0:
        return rho[0::2, 0::2] + rho[1::2, 1::2]
    return rho[:2, :2] + rho[2:, 2:]


def herm_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, v) of a Hermitian operator via ``numpy.linalg.eigh``.

    Raises ValidationError if the input is not Hermitian within tolerance (a
    NaN entry fails that check).  The Hermitian part (A + A^dagger)/2 is
    diagonalized.  The eigenvalues w are real and ascending; v holds the
    matching orthonormal eigenvectors as columns, so V diag(w) V^dagger
    reconstructs the Hermitian part.  Each eigenvector's largest-magnitude
    component, the first one on ties, is made real and positive so repeated
    runs are bit-identical.
    """
    a = as_operator(a)
    defect, scale = _hermiticity(a)
    if not _hermitian_within_tol(defect, scale):
        raise ValidationError(
            f"operator is not Hermitian: max |A - A^dagger| = {defect:.3e} "
            f"exceeds {HERMITICITY_RTOL:.0e} * (1 + max|A|)"
        )
    # halved before the sum, which cannot overflow for finite entries
    w, v = np.linalg.eigh(0.5 * a + 0.5 * dag(a))
    # Columns are unit vectors, so the largest component is never zero.
    z = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return w, v * (np.conj(z) / np.abs(z))


def matrix_function(a, f: Callable) -> np.ndarray:
    """Apply a function to a Hermitian operator through its spectrum.

    Returns V diag(f(w)) V^dagger.  ``f`` is applied once to the array of
    eigenvalues, so it must act elementwise on numpy arrays; it may return
    complex values (e.g. w -> exp(-1j*w*t) builds the unitary propagator).
    """
    w, v = herm_eig(a)
    return (v * np.asarray(f(w), dtype=complex)) @ dag(v)


class DensityReport(NamedTuple):
    """Outcome of validate_density; report-style, never raises."""

    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    ok: bool


def _half_sum(x: float, y: float) -> float:
    """(x + y)/2, halved before the sum only where the sum overflows
    (halving first may round away the last bit of a subnormal)."""
    s = x + y
    return 0.5 * s if abs(s) < math.inf else 0.5 * x + 0.5 * y


def validate_density(rho) -> DensityReport:
    """Check the density-matrix conditions: Hermitian, unit trace, positive.

    Pass thresholds: Hermiticity defect <= 1e-12 * (1 + max|rho|), trace
    within 1e-10 of one, smallest eigenvalue >= -1e-10.  The eigenvalue is
    that of the Hermitian part, halved before the sum where the sum would
    overflow, so a report is produced even for badly non-Hermitian input.
    At every size, a non-finite max|rho| (a NaN or inf part, or a modulus
    beyond the largest double) reads NaN in all three fields, not ok.
    A complex ndarray is read as is (the checkers that call this have
    coerced it already), so that it is coerced once; any other input goes
    through as_operator first.

    A qubit (2x2) state is checked in closed form, as straight-line float
    arithmetic on the eight real parts of its entries, with no eigensolver:
    its Hermitian part has diagonal p, q and off-diagonal h, so its smallest
    eigenvalue is (p + q)/2 - hypot((p - q)/2, |h|).  Larger inputs go
    through LAPACK ``eigvalsh``.
    """
    if not (type(rho) is np.ndarray and rho.dtype == complex):
        rho = as_operator(rho)
    qubit = rho.shape == (2, 2)
    if qubit:
        (a, b), (c, d) = rho.tolist()
        ar, ai, br, bi, cr, ci, dr, di = a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag
        # every modulus |z| is hypot(z.real, z.imag), as is the trace defect
        # below: abs(complex) raises OverflowError where hypot returns inf
        hypot = math.hypot
        ma, mb, mc, md = hypot(ar, ai), hypot(br, bi), hypot(cr, ci), hypot(dr, di)
        # a NaN modulus fails every comparison, where max() may pass over it
        finite = ma < math.inf and mb < math.inf and mc < math.inf and md < math.inf
        scale = max(ma, mb, mc, md) if finite else math.nan
        # the entrywise max |rho - rho^dagger|, z - conj(w) being
        # (z.real - w.real, z.imag + w.imag); (1, 0) mirrors (0, 1)
        h_defect = max(abs(ai + ai), hypot(br - cr, bi + ci), abs(di + di))
    else:
        h_defect, scale = _hermiticity(_square(rho))
    if not math.isfinite(scale):
        # LAPACK rejects a non-finite entry, and numpy's trace would warn
        return DensityReport._make((math.nan, math.nan, math.nan, False))
    if qubit:
        t_re, t_im = ar + dr, ai + di
        # p = ar, q = dr and h = (b + conj(c))/2
        h = hypot(_half_sum(br, cr), _half_sum(bi, -ci))
        min_eig = _half_sum(ar, dr) - hypot(_half_sum(ar, -dr), h)
    else:
        trace = complex(rho.trace())
        t_re, t_im = trace.real, trace.imag
        min_eig = float(np.linalg.eigvalsh(0.5 * rho + 0.5 * dag(rho))[0])
    t_defect = math.hypot(t_re - 1.0, t_im)
    ok = (
        _hermitian_within_tol(h_defect, scale)
        and t_defect <= DENSITY_TRACE_ATOL
        and min_eig >= DENSITY_EIG_FLOOR
    )
    # _make takes the one tuple as is, past the keyword handling of __new__
    return DensityReport._make((h_defect, t_defect, min_eig, ok))


def require_density(rho, what: str = "operator", *, shape: tuple | None = None) -> np.ndarray:
    """Validate and return rho, raising ValidationError with the failed condition.

    rho is coerced here, and a qubit state goes on to validate_density as is.
    When shape is given, a rho of another shape raises DimensionError before
    any density check.
    """
    rho = as_operator(rho)
    if shape is not None and rho.shape != shape:
        raise DimensionError(f"{what} must be {'x'.join(map(str, shape))}, got {rho.shape}")
    report = validate_density(rho)
    if not report.ok:
        raise ValidationError(
            f"{what} is not a valid density matrix "
            f"(hermiticity defect {report.hermiticity_defect:.3e}, "
            f"trace defect {report.trace_defect:.3e}, "
            f"min eigenvalue {report.min_eigenvalue:.3e})"
        )
    return rho
