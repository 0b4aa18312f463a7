"""Diagnostics: convexity and linearity of the preparable family, affinity
defects of maps between state spaces, factorization residuals, and the
deterministic parameter sweeps behind the standard figures.

The central quantities are defect functionals that vanish exactly when a map
is affine (or a curve is a straight line) and are strictly positive
otherwise; all operator distances use the Frobenius norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DomainError, PreparationDomainError, ValidationError
from .linalg import kron, partial_trace
from .model import EquilibriumCurvePoint, ModelParams, equilibrium_observables
from .prepare import invert_field


@dataclass(frozen=True)
class ConvexityTestResult:
    """Defects of one convex-combination test of the equilibrium preparation.

    F3 solves S1z(F3) = weight*S1z(F1) + (1-weight)*S1z(F2) exactly (by field
    inversion); the defects measure how far S2z and the correlation matrix at
    F3 are from the same convex combination.  Both vanish for all inputs iff
    the preparable set of total states is convex.
    """

    weight: float
    F1: float
    F2: float
    F3: float
    S2_defect: float
    C_defect: float


def convexity_test(
    model: ModelParams, obs1: EquilibriumCurvePoint, obs2: EquilibriumCurvePoint, weight: float
) -> ConvexityTestResult:
    """Check whether mixing two equilibrium preparations stays in the class.

    obs1 and obs2 are the two end states, as equilibrium_observables returns
    them; the mixed state's are the ones its field inversion evaluated at its
    root, so the test itself evaluates no closed form.
    """
    if not 0.0 < weight < 1.0:
        raise ValueError(f"mixing weight must lie in (0, 1), got {weight}")
    obs3 = invert_field(model, weight * obs1.S1z + (1.0 - weight) * obs2.S1z)
    s2_defect = abs(obs3.S2z - weight * obs1.S2z - (1.0 - weight) * obs2.S2z)
    c_defect = max(
        abs(getattr(obs3, name) - weight * getattr(obs1, name) - (1.0 - weight) * getattr(obs2, name))
        for name in ("Cxx", "Cyy", "Czz")
    )
    return ConvexityTestResult(weight, obs1.Fz, obs2.Fz, obs3.Fz, float(s2_defect), float(c_defect))


@dataclass(frozen=True)
class LineFit:
    """Least-squares straight line y = slope*x + intercept and its worst residual."""

    slope: float
    intercept: float
    max_residual: float


@dataclass(frozen=True, eq=False)
class LinearityReport:
    """Equilibrium observables on an S1z grid and their straight-line fits.

    curves maps observable name -> sampled values; fits maps the same names
    to LineFit.  A residual significantly above roundoff witnesses that the
    observable is not an affine function of S1z.
    """

    s1z: np.ndarray
    curves: dict
    fits: dict


def _fit_line(x: np.ndarray, y: np.ndarray) -> LineFit:
    """Least-squares line through (x, y) in closed form, from the centred sums.

    slope = sum (x - mean x)(y - mean y) / sum (x - mean x)^2 and
    intercept = mean y - slope mean x; the residual is
    max |slope x + intercept - y|, NaN when the fit is not finite (a NaN or
    inf input).  Both sums are taken over (x - mean x) / max |x - mean x|,
    so that they do not underflow on a grid as narrow as 1e-200.  The points
    are few (one per S1z grid value), so the sums run in Python floats.  x
    must hold at least two distinct values.
    """
    xs, ys = x.tolist(), y.tolist()
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    dx = [a - x_mean for a in xs]
    scale = max(map(abs, dx))
    sxy = sxx = 0.0
    for d, b in zip(dx, ys):
        d /= scale
        sxy += d * (b - y_mean)
        sxx += d * d
    slope = sxy / (sxx * scale)
    intercept = y_mean - slope * x_mean
    residual = 0.0 if math.isfinite(slope + intercept) else math.nan
    for a, b in zip(xs, ys):
        gap = abs(slope * a + intercept - b)
        if gap > residual:
            residual = gap
    return LineFit(slope, intercept, residual)


def linearity_scan(model: ModelParams, s1z_grid) -> LinearityReport:
    """Evaluate S2z, Cxx, Cyy, Czz against S1z and fit each as a straight line.

    The grid values are S1z targets strictly inside the preparable interval;
    each is realized by inverting the field, and its observables are the
    ones the inversion evaluated at its root.  A grid of fewer than 3 points,
    or with fewer than 2 distinct values, raises ValueError: no line is
    fitted through it.
    """
    s1z = np.array(s1z_grid, dtype=float)  # a copy: the report outlives the caller's grid
    if s1z.size < 3:
        raise ValueError(f"linearity scan needs at least 3 grid points, got {s1z.size}")
    if not (s1z != s1z[0]).any():
        raise ValueError("linearity scan needs at least 2 distinct S1z values")
    rows = [invert_field(model, s) for s in s1z]
    curves = {
        name: np.array([getattr(r, name) for r in rows])
        for name in ("S2z", "Cxx", "Cyy", "Czz")
    }
    fits = {name: _fit_line(s1z, values) for name, values in curves.items()}
    return LinearityReport(s1z, curves, fits)


def affinity_defect(map_fn, domain_samples, lambdas) -> float:
    """Worst violation of M(lx + (1-l)y) = l M(x) + (1-l) M(y) over the sample.

    map_fn takes and returns operators; domain_samples is a sequence of
    operators whose pairwise convex combinations must also lie in the map's
    domain.  Returns the maximum Frobenius-norm defect over all pairs and
    mixing weights; zero (to roundoff) iff the map is affine on the sample.
    A defect that is not finite raises ValidationError naming its pair and
    weight: the maximum would drop a NaN.  A test that mixes nothing (fewer
    than 2 samples, no weight, or every sample the same state) raises
    ValueError: its maximum over no mixture would read 0.0, as if affine.
    """
    samples = list(domain_samples)
    lambdas = list(lambdas)
    if len(samples) < 2 or not lambdas:
        raise ValueError(
            "affinity test needs at least 2 samples and 1 mixing weight, "
            f"got {len(samples)} and {len(lambdas)}"
        )
    if all(np.array_equal(s, samples[0]) for s in samples[1:]):
        raise ValueError("affinity test needs at least 2 distinct samples")
    for lam in lambdas:
        if not 0.0 < lam < 1.0:
            raise ValueError(f"mixing weights must lie in (0, 1), got {lam}")
    images = [map_fn(s) for s in samples]
    worst = 0.0
    for (i, x), (j, y) in combinations(enumerate(samples), 2):
        for lam in lambdas:
            mix = lam * x + (1.0 - lam) * y
            try:
                image = map_fn(mix)
            except DomainError as err:
                raise PreparationDomainError(
                    f"map domain violated at the convex combination lambda={lam} "
                    f"of samples {i} and {j}: {err}"
                ) from err
            diff = image - lam * images[i] - (1.0 - lam) * images[j]
            defect = math.sqrt(np.vdot(diff, diff).real)  # Frobenius norm
            if not math.isfinite(defect):
                raise ValidationError(
                    f"affinity defect is {defect} at lambda={lam} of samples {i} and {j}"
                )
            worst = max(worst, defect)
    return worst


def factorization_residual(rho) -> float:
    """Frobenius distance of a two-qubit (4x4) state from the product of its marginals.

    ||rho - Tr_env(rho) (x) Tr_sys(rho)||_F, zero iff rho factorizes.
    Invariant under local unitaries u (x) v.
    """
    rho_s = partial_trace(rho, keep=0)
    chi = partial_trace(rho, keep=1)
    return float(np.linalg.norm(np.asarray(rho, dtype=complex) - kron(rho_s, chi)))


def figure_sweep(model: ModelParams, fz_min: float, fz_max: float, steps: int) -> list[EquilibriumCurvePoint]:
    """Equilibrium observables of one model on a field grid, in field order.

    Each point is equilibrium_observables at one of the steps fields of
    np.linspace(fz_min, fz_max, steps).
    """
    if steps < 2:
        raise ValueError(f"need at least 2 field steps, got {steps}")
    if not math.isfinite(float(fz_max) - float(fz_min)):
        raise ValueError("sweep bounds and their width must be finite")
    fields = np.linspace(fz_min, fz_max, steps).tolist()
    return [equilibrium_observables(model, fz) for fz in fields]
