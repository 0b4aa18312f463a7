"""The two-spin model: Hamiltonian, closed-form spectrum, equilibrium observables.

Spin 1 is the open system, spin 2 the (single-spin) environment.  The
Hamiltonian is

    H = -Fz sigma1_z + e sigma2_z + g sigma1_x sigma2_x,

with an external field Fz acting on the system spin only.  Because H commutes
with sigma1_z sigma2_z it diagonalizes in closed form, and the canonical state
exp(-beta H)/Z has Bloch and correlation components expressible through the
auxiliary functions F+/- below.  Only products beta*e, beta*g, beta*Fz matter
for the equilibrium observables, so sweeps are usually run at beta = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, DomainError
from .linalg import as_operator, kron

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)

PAULIS = (SX, SY, SZ)
# Embeddings on the two-spin space, system factor first.
SIGMA1 = tuple(kron(s, ID2) for s in PAULIS)
SIGMA2 = tuple(kron(ID2, s) for s in PAULIS)
# Two-spin correlation operators: CORR[i][j] = sigma1_i sigma2_j.
CORR = tuple(tuple(kron(a, b) for b in PAULIS) for a in PAULIS)

@dataclass(frozen=True)
class ModelParams:
    """Inverse temperature and the two couplings of the Hamiltonian.

    e is the environment-spin splitting, g the x-x coupling constant.  The
    field Fz is not part of the model: it varies per preparation.
    """

    beta: float
    e: float
    g: float

    def __post_init__(self):
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise DomainError(f"beta must be positive and finite, got {self.beta}")
        if not (math.isfinite(self.e) and math.isfinite(self.g)):
            raise DomainError(f"e and g must be finite, got e={self.e}, g={self.g}")


def hamiltonian(p: ModelParams, Fz: float) -> np.ndarray:
    """H = -Fz sigma1_z + e sigma2_z + g sigma1_x sigma2_x as a 4x4 matrix.

    An entry beyond the largest double raises DomainError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        h = -Fz * SIGMA1[2] + p.e * SIGMA2[2] + p.g * CORR[0][0]
    if not np.isfinite(h).all():
        raise DomainError(f"an entry of H overflows at e = {p.e}, g = {p.g}, Fz = {Fz}")
    return h


def energies(p: ModelParams, Fz: float) -> np.ndarray:
    """The four eigenvalues in fixed order:

    E1 = -sqrt((Fz-e)^2 + g^2),  E2 = +sqrt((Fz-e)^2 + g^2),
    E3 = -sqrt((Fz+e)^2 + g^2),  E4 = +sqrt((Fz+e)^2 + g^2).

    E1, E2 belong to the even sector of sigma1_z sigma2_z, E3, E4 to the odd.
    """
    r_minus = math.hypot(Fz - p.e, p.g)
    r_plus = math.hypot(Fz + p.e, p.g)
    return np.array([-r_minus, r_minus, -r_plus, r_plus])


def analytic_spectrum(p: ModelParams, Fz: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """Closed-form eigenvalues and rank-1 eigenprojectors of the Hamiltonian.

    In the even sector (i = 1, 2):

        P_i = 1/4 (1 + sz sz - (Fz-e)/E_i (sz1 + sz2) + g/E_i (sx sx - sy sy)),

    and in the odd sector (i = 3, 4):

        P_i = 1/4 (1 - sz sz - (Fz+e)/E_i (sz1 - sz2) + g/E_i (sx sx + sy sy)).

    The expressions divide by E_i.  An energy is exactly zero only for g = 0
    and Fz = +-e; there the g -> 0 limit is used, with g/E_i = 0 and the
    detuning ratio (Fz -+ e)/E_i = -1 for E1, E3 and +1 for E2, E4.  The
    projectors then stay in their sector, and the first projector of each
    degenerate pair has the larger <sigma1_z>.
    """
    vals = energies(p, Fz)
    szsz, sxsx, sysy = CORR[2][2], CORR[0][0], CORR[1][1]
    sz_sum = SIGMA1[2] + SIGMA2[2]
    sz_dif = SIGMA1[2] - SIGMA2[2]
    projectors = []
    for i, energy in enumerate(vals):
        if energy == 0.0:
            detuning, coupling = (-1.0 if i % 2 == 0 else 1.0), 0.0
        else:
            detuning = (Fz - p.e if i < 2 else Fz + p.e) / energy
            coupling = p.g / energy
        if i < 2:
            proj = 0.25 * (ID4 + szsz - detuning * sz_sum + coupling * (sxsx - sysy))
        else:
            proj = 0.25 * (ID4 - szsz - detuning * sz_dif + coupling * (sxsx + sysy))
        projectors.append(proj)
    return vals, projectors


def _sinhc(x: float) -> float:
    """sinh(x)/x, even in x; short Taylor series below 1e-4 to avoid cancellation."""
    if abs(x) < 1e-4:
        x2 = x * x
        return 1.0 + x2 / 6.0 + x2 * x2 / 120.0 + x2 * x2 * x2 / 5040.0
    return math.sinh(x) / x


def _sech_product(s: float, d: float) -> float:
    """sech(s) sech(d) from exp(-|s|) and exp(-|d|): it underflows, never overflows."""
    es, ed = math.exp(-abs(s)), math.exp(-abs(d))
    return 4.0 * es * ed / ((1.0 + es * es) * (1.0 + ed * ed))


def _equilibrium_kernel(x: float, y: float, d: float) -> tuple[float, float, float]:
    """F+(x, y), F-(x, y) and (cosh(x) - cosh(y)) / (cosh(x) + cosh(y)) in one pass.

    d is the half-difference (x - y)/2, passed in so that a caller can form
    it without cancellation; s = (x + y)/2 is the half-sum.  With
    cosh(x) + cosh(y) = 2 cosh(s) cosh(d) and sinh(x) = sinh(s) cosh(d) +
    cosh(s) sinh(d), exactly

        Czz = tanh(s) tanh(d),   F+- = (A(x) +- A(y)) / 2,
        A(x) = (tanh(s) + tanh(d)) / x,   A(y) = (tanh(s) - tanh(d)) / y.

    Where |x| < 1 the quotient would cancel, and A(x) = sinhc(x) sech(s)
    sech(d) is used instead (likewise for y).  tanh and sech are bounded and
    sinhc is taken only below 1, so nothing overflows for any input.
    """
    s = 0.5 * (x + y)
    ts, td = math.tanh(s), math.tanh(d)
    small_x, small_y = abs(x) < 1.0, abs(y) < 1.0
    sech_sd = _sech_product(s, d) if small_x or small_y else 0.0
    a_x = _sinhc(x) * sech_sd if small_x else (ts + td) / x
    a_y = _sinhc(y) * sech_sd if small_y else (ts - td) / y
    return 0.5 * (a_x + a_y), 0.5 * (a_x - a_y), ts * td


class EquilibriumCurvePoint(NamedTuple):
    """The field Fz, exactly as passed to equilibrium_observables, and the
    five equilibrium observables at it (dimensionless, in [-1, 1])."""

    Fz: float
    S1z: float
    S2z: float
    Cxx: float
    Cyy: float
    Czz: float


def equilibrium_observables(p: ModelParams, Fz: float) -> EquilibriumCurvePoint:
    """Closed-form Bloch and correlation components of exp(-beta H)/Z.

    With x = beta E1 and y = beta E3:

        S1z = beta (Fz F+(x, y) - e F-(x, y))
        S2z = beta (Fz F-(x, y) - e F+(x, y))
        Cxx = -beta g F+(x, y)
        Cyy =  beta g F-(x, y)
        Czz = (cosh(x) - cosh(y)) / (cosh(x) + cosh(y))

    The half-difference (x - y)/2 = beta (|E3| - |E1|)/2 is formed as
    beta Fz e / r_mean with r_mean = (|E1| + |E3|)/2, since
    |E3|^2 - |E1|^2 = 4 Fz e: no two rounded energies are subtracted, and
    S1z moves smoothly with the field even where beta |e| is large.  Halving
    each energy before the sum keeps r_mean finite wherever both energies
    are (2e / (|E1| + |E3|) is inf / inf = nan at e = 1e308).  An energy
    beta |E_i| beyond the largest double has no closed form here and raises
    DomainError.  All other Bloch/correlation components of the equilibrium
    state vanish.
    """
    beta, e, g = p.beta, p.e, p.g
    r_minus = math.hypot(Fz - e, g)
    r_plus = math.hypot(Fz + e, g)
    x, y = -beta * r_minus, -beta * r_plus
    if not (x > -math.inf and y > -math.inf):
        raise DomainError(
            f"beta times an energy overflows at beta = {beta}, e = {e}, g = {g}, Fz = {Fz}"
        )
    r_mean = 0.5 * r_minus + 0.5 * r_plus  # >= |e|, and 0 only at e = g = Fz = 0
    d = beta * Fz * (e / r_mean) if r_mean else 0.0
    f_plus, f_minus, czz = _equilibrium_kernel(x, y, d)
    # tuple.__new__ takes the one tuple as is, past the keyword handling of
    # the class's __new__ and the length check of _make
    return tuple.__new__(EquilibriumCurvePoint, (
        Fz,
        beta * (Fz * f_plus - e * f_minus),
        beta * (Fz * f_minus - e * f_plus),
        -beta * g * f_plus,
        beta * g * f_minus,
        czz,
    ))


@dataclass(frozen=True, eq=False)
class BlochDecomposition:
    """Two Bloch vectors and the 3x3 correlation matrix of a two-spin state.

    Any 4x4 density matrix is rho = 1/4 (1 + s1.sigma1 + s2.sigma2
    + sigma1.c.sigma2); the decomposition below inverts that exactly.
    """

    s1: np.ndarray
    s2: np.ndarray
    c: np.ndarray


def bloch_decompose(rho) -> BlochDecomposition:
    """Extract (s1, s2, c) from a 4x4 Hermitian unit-trace operator.

    s1_i = Re tr(rho sigma1_i), s2_j = Re tr(rho sigma2_j),
    c_ij = Re tr(rho sigma1_i sigma2_j).
    """
    rho = as_operator(rho)
    if rho.shape != (4, 4):
        raise DimensionError(f"expected a 4x4 operator, got {rho.shape}")
    s1 = np.array([np.trace(rho @ s).real for s in SIGMA1])
    s2 = np.array([np.trace(rho @ s).real for s in SIGMA2])
    c = np.array([[np.trace(rho @ op).real for op in row] for row in CORR])
    return BlochDecomposition(s1, s2, c)


def qubit_bloch(rho) -> np.ndarray:
    """Bloch vector (Re tr(rho sigma_i)) of a 2x2 operator, read off its entries.

    Re tr(rho sigma) = (Re(rho01 + rho10), Im(rho10 - rho01), Re(rho00 - rho11)),
    the inverse of reduced_from_bloch_unchecked on Hermitian unit-trace input.
    """
    rho = as_operator(rho)
    if rho.shape != (2, 2):
        raise DimensionError(f"expected a 2x2 operator, got {rho.shape}")
    (r00, r01), (r10, r11) = rho.tolist()
    return np.array([(r01 + r10).real, (r10 - r01).imag, (r00 - r11).real])


def reduced_from_bloch_unchecked(s) -> np.ndarray:
    """(1 + S.sigma)/2 without the |S| <= 1 check (affine maps may leave the ball)."""
    # Python floats: the same IEEE operations as on numpy scalars, at a
    # fraction of their cost
    x, y, z = np.asarray(s).tolist()
    return 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])


def reduced_from_bloch(s1) -> np.ndarray:
    """(1 + s1.sigma)/2, the qubit state with Bloch vector s1; pure iff |s1| = 1."""
    s1 = np.asarray(s1, dtype=float)
    if s1.shape != (3,):
        raise DimensionError(f"expected a 3-vector, got shape {s1.shape}")
    norm = float(np.linalg.norm(s1))
    if not norm <= 1.0 + 1e-10:  # a NaN norm fails too
        raise DomainError(f"|s1| = {norm} exceeds 1: not a state")
    return reduced_from_bloch_unchecked(s1)
