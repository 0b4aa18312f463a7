import math

import numpy as np
import pytest

from spinprep import (
    Equilibrium,
    MoriLinearResponse,
    PreparationDomainError,
    ValidationError,
    affinity_defect,
    blow_up,
    chebyshev_targets,
    convexity_test,
    equilibrium_observables,
    equilibrium_state,
    factorization_residual,
    figure_sweep,
    invert_field,
    kron,
    linearity_scan,
    reduced_from_bloch,
)
from spinprep.diagnostics import _fit_line
from spinprep.model import SZ, EquilibriumCurvePoint, ModelParams

from conftest import bits, random_density

MODEL15 = ModelParams(1.0, 1.0, 1.5)
MODEL0 = ModelParams(1.0, 1.0, 0.0)


def z_state(s1z):
    return reduced_from_bloch(np.array([0.0, 0.0, s1z]))


def mix(model, f1, f2, weight):
    ends = equilibrium_observables(model, f1), equilibrium_observables(model, f2)
    return convexity_test(model, *ends, weight)


# the models of the reuse tests: coupled, uncoupled, beta e = 1e5 (S1z steps
# by near 1e-12 between adjacent fields there) and a negative splitting
REUSE_MODELS = [MODEL15, MODEL0, ModelParams(1.0, 1e5, 0.3), ModelParams(0.7, -1.3, 2.0)]


class TestConvexityTest:
    def test_equal_fields_no_defect(self):
        r = mix(MODEL15, 1.3, 1.3, 0.4)
        assert r.S2_defect < 1e-14
        assert r.C_defect < 1e-14
        assert abs(r.F3 - 1.3) < 1e-10

    def test_uncoupled_class_is_convex(self):
        for f1, f2, lam in [(-2.0, 2.0, 0.5), (-1.0, 0.5, 0.25), (0.3, 1.7, 0.75)]:
            r = mix(MODEL0, f1, f2, lam)
            assert r.S2_defect < 1e-10
            assert r.C_defect < 1e-10

    def test_coupled_class_is_not_convex(self, baselines):
        # every tested coupling produces a defect well above threshold
        for beta_g in (0.5, 1.0, 1.5):
            r = mix(ModelParams(1.0, 1.0, beta_g), -2.0, 2.0, 0.5)
            assert max(r.S2_defect, r.C_defect) > 1e-4
        r = mix(MODEL15, -2.0, 2.0, 0.5)
        assert r.C_defect > 1e-4
        # canonical lattice maximum is pinned from the oracle run
        frozen = baselines["convexity_max_defect_bg_1.5"]
        fields = np.linspace(-2.0, 2.0, 5)
        worst = 0.0
        for f1 in fields:
            for f2 in fields:
                for lam in (0.25, 0.5, 0.75):
                    rr = mix(MODEL15, float(f1), float(f2), lam)
                    worst = max(worst, rr.S2_defect, rr.C_defect)
        assert abs(worst - frozen) <= 0.01 * frozen

    def test_weight_validated(self):
        with pytest.raises(ValueError):
            mix(MODEL15, -1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            mix(MODEL15, -1.0, 1.0, 1.0)

    def test_s1z_component_exact_by_construction(self):
        r = mix(MODEL15, -1.5, 0.8, 0.3)
        s3 = equilibrium_observables(MODEL15, r.F3).S1z
        s1 = equilibrium_observables(MODEL15, r.F1).S1z
        s2 = equilibrium_observables(MODEL15, r.F2).S1z
        assert abs(s3 - 0.3 * s1 - 0.7 * s2) < 1e-12

    @pytest.mark.parametrize("model", REUSE_MODELS)
    def test_rows_equal_a_fresh_evaluation_at_the_mixed_field(self, model):
        # the mixed state's observables come from its inversion: they are
        # those at F3 bit for bit, so every row is what re-evaluating gives
        ends = [equilibrium_observables(model, f) for f in (-2.0, -0.3, 0.0, 0.3, 2.0)]
        for o1 in ends:
            for o2 in ends:
                for lam in (0.25, 0.5, 0.75):
                    r = convexity_test(model, o1, o2, lam)
                    target = lam * o1.S1z + (1.0 - lam) * o2.S1z
                    o3 = equilibrium_observables(model, r.F3)
                    assert bits(invert_field(model, target)) == bits(o3)
                    s2 = abs(o3.S2z - lam * o1.S2z - (1.0 - lam) * o2.S2z)
                    c = max(
                        abs(getattr(o3, n) - lam * getattr(o1, n) - (1.0 - lam) * getattr(o2, n))
                        for n in ("Cxx", "Cyy", "Czz")
                    )
                    assert bits((r.S2_defect, r.C_defect)) == bits((s2, c))
                    assert (r.F1, r.F2) == (o1.Fz, o2.Fz)


class TestLinearityScan:
    def test_uncoupled_curves_are_straight(self):
        report = linearity_scan(MODEL0, np.linspace(-0.9, 0.9, 21))
        for fit in report.fits.values():
            assert fit.max_residual < 1e-9
        # S2z is constant -tanh(beta e); Czz = S1z * S2z
        assert abs(report.fits["S2z"].slope) < 1e-12
        assert abs(report.fits["S2z"].intercept + math.tanh(1.0)) < 1e-12
        assert abs(report.fits["Czz"].slope + math.tanh(1.0)) < 1e-12
        assert abs(report.fits["Czz"].intercept) < 1e-12

    def test_coupled_curves_deviate(self, baselines):
        report = linearity_scan(MODEL15, np.linspace(-0.9, 0.9, 21))
        for name in ("Cxx", "Cyy"):
            frozen = baselines["correlation_wide_residual"][name]
            measured = report.fits[name].max_residual
            assert measured > 0.0
            assert abs(measured - frozen) <= 0.01 * frozen

    def test_narrow_window_is_much_more_linear(self):
        wide = linearity_scan(MODEL15, np.linspace(-0.9, 0.9, 21))
        narrow = linearity_scan(MODEL15, np.linspace(-0.05, 0.05, 21))
        for name in ("Cxx", "Cyy"):
            assert wide.fits[name].max_residual >= 10.0 * narrow.fits[name].max_residual

    @pytest.mark.parametrize("model", REUSE_MODELS)
    def test_curves_equal_a_fresh_evaluation_at_each_root(self, model):
        grid = np.linspace(-0.9, 0.9, 13)
        report = linearity_scan(model, grid)
        for k, s in enumerate(grid):
            fresh = equilibrium_observables(model, invert_field(model, s).Fz)
            for name, values in report.curves.items():
                assert bits([values[k]]) == bits([getattr(fresh, name)]), (model, s, name)

    def test_report_keeps_its_own_grid(self):
        # editing the caller's grid afterwards moves neither the report's
        # S1z values nor their agreement with the curves computed at them
        grid = np.linspace(-0.9, 0.9, 5)
        report = linearity_scan(MODEL15, grid)
        grid[0] = 0.5
        assert report.s1z[0] == -0.9
        assert report.curves["S2z"][0] == invert_field(MODEL15, report.s1z[0]).S2z

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            linearity_scan(MODEL15, [0.0, 0.1])

    def test_grid_of_one_repeated_value(self):
        with pytest.raises(ValueError, match="distinct"):
            linearity_scan(MODEL15, [0.3, 0.3, 0.3, 0.3])


def _lstsq_line(x, y):
    design = np.column_stack([x, np.ones_like(x)])
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    return slope, intercept, float(np.abs(design @ [slope, intercept] - y).max())


class TestFitLine:
    def test_matches_lstsq_on_random_data(self, rng):
        for _ in range(200):
            n = int(rng.integers(3, 40))
            x, y = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
            fit = _fit_line(x, y)
            slope, intercept, residual = _lstsq_line(x, y)
            assert abs(fit.slope - slope) <= 1e-13
            assert abs(fit.intercept - intercept) <= 1e-13
            assert abs(fit.max_residual - residual) <= 1e-13

    def test_exact_line(self, rng):
        for _ in range(200):
            x = np.linspace(-0.9, 0.9, int(rng.integers(3, 30)))
            a, b = rng.uniform(-1.0, 1.0, 2)
            fit = _fit_line(x, a * x + b)
            assert abs(fit.slope - a) <= 1e-13
            assert abs(fit.intercept - b) <= 1e-13
            assert fit.max_residual <= 1e-15

    def test_narrow_grid_does_not_underflow(self):
        # the centred sums of squares of a 1e-200 grid would underflow to 0
        x = np.linspace(-1e-200, 1e-200, 5)
        fit = _fit_line(x, 2e-200 - 3.0 * x)
        assert fit.slope == pytest.approx(-3.0, rel=1e-14)
        assert fit.intercept == pytest.approx(2e-200, rel=1e-14)
        assert fit.max_residual <= 1e-214


class TestAffinityDefect:
    def test_exact_affine_map(self, rng):
        lin = rng.standard_normal((4, 4)) * 0.2
        const = random_density(rng, 4)

        def amap(rho):
            coeffs = np.array([rho[0, 0].real, rho[0, 1].real, rho[1, 0].imag, rho[1, 1].real])
            return const + sum(c * m for c, m in zip(coeffs, [np.eye(4) * x for x in lin[0]]))

        samples = [random_density(rng, 2) for _ in range(4)]
        assert affinity_defect(amap, samples, [0.25, 0.5, 0.75]) < 1e-13

    def test_factorizing_blow_up_affine(self, rng):
        from spinprep import Factorizing

        prep = Factorizing(random_density(rng, 2))
        samples = [random_density(rng, 2) for _ in range(5)]
        assert affinity_defect(lambda r: blow_up(prep, r), samples, [0.25, 0.5, 0.75]) < 1e-13

    def test_equilibrium_blow_up_not_affine(self, baselines):
        prep = Equilibrium(MODEL15)
        targets = chebyshev_targets(5, -0.9, 0.9)
        samples = [z_state(float(s)) for s in targets]
        defect = affinity_defect(lambda r: blow_up(prep, r), samples, [0.25, 0.5, 0.75])
        frozen = baselines["equilibrium_affinity_defect_bg_1.5"]
        assert defect > 1e-3
        assert abs(defect - frozen) <= 0.01 * frozen

    def test_uncoupled_equilibrium_blow_up_affine(self):
        prep = Equilibrium(MODEL0)
        samples = [z_state(float(s)) for s in chebyshev_targets(5, -0.9, 0.9)]
        assert affinity_defect(lambda r: blow_up(prep, r), samples, [0.25, 0.5, 0.75]) < 1e-9

    def test_mori_blow_up_affine(self):
        model = ModelParams(1.0, 1.0, 1.0)
        prep = MoriLinearResponse(model, (SZ,))
        samples = [z_state(s) for s in np.linspace(-0.04, 0.04, 5)]
        assert affinity_defect(lambda r: blow_up(prep, r), samples, [0.25, 0.5, 0.75]) < 1e-12

    def test_domain_error_carries_combination(self):
        # non-convex toy domain: polarized states are fine, mixtures are not
        def partial_domain(rho):
            if abs(rho[0, 0].real - 0.5) < 0.2:
                raise PreparationDomainError("outside the toy domain")
            return kron(rho, np.eye(2) / 2)

        samples = [z_state(0.9), z_state(-0.9)]
        with pytest.raises(PreparationDomainError) as err:
            affinity_defect(partial_domain, samples, [0.5])
        assert "lambda=0.5" in str(err.value)
        assert "samples 0 and 1" in str(err.value)

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            affinity_defect(lambda r: r, [z_state(0.1), z_state(-0.1)], [1.5])

    @pytest.mark.parametrize(
        "samples, lambdas",
        [([0.6], [0.5]), ([0.6, -0.6], []), ([0.6, 0.6, 0.6], [0.25, 0.5])],
        ids=["one-sample", "no-weight", "one-state"],
    )
    def test_a_test_that_mixes_nothing_is_an_error(self, samples, lambdas):
        # the coupled equilibrium blow-up is not affine, yet a maximum over no
        # mixture would read 0.0, the defect of an affine map
        prep = Equilibrium(MODEL15)
        with pytest.raises(ValueError, match="^affinity test needs at least 2"):
            affinity_defect(lambda r: blow_up(prep, r), [z_state(s) for s in samples], lambdas)

    @pytest.mark.parametrize("mixtures_only", [False, True], ids=["every-image", "mixtures-only"])
    def test_non_finite_defect_is_an_error(self, mixtures_only):
        # max(worst, nan) keeps worst: a NaN defect must not read as affine
        samples = [z_state(0.9), z_state(-0.9)]

        def nan_map(rho):
            if mixtures_only and abs(rho[0, 0].real - 0.5) > 0.4:
                return rho
            return np.full((2, 2), np.nan)

        with pytest.raises(ValidationError, match=r"lambda=0\.5 of samples 0 and 1"):
            affinity_defect(nan_map, samples, [0.5])


class TestFactorizationResidual:
    def test_product_state(self, rng):
        rho = kron(random_density(rng, 2), random_density(rng, 2))
        assert factorization_residual(rho) < 1e-13

    def test_bell_state_value(self):
        # marginals of the Bell state are both 1/2, so the residual is
        # ||bell - 1/4||_F; the eigenvalues of the difference are
        # (3/4, -1/4, -1/4, -1/4), giving sqrt(3)/2
        v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        bell = np.outer(v, v.conj())
        assert abs(factorization_residual(bell) - math.sqrt(3) / 2) < 1e-13

    def test_local_unitary_invariance(self, rng):
        from spinprep import matrix_function

        from conftest import random_hermitian

        rho = random_density(rng, 4)
        u = matrix_function(random_hermitian(rng, 2), lambda w: np.exp(1j * w))
        v = matrix_function(random_hermitian(rng, 2), lambda w: np.exp(1j * w))
        local = kron(u, v)
        rotated = local @ rho @ local.conj().T
        assert abs(factorization_residual(rotated) - factorization_residual(rho)) < 1e-12

    def test_decay_at_large_fields(self):
        model = ModelParams(1.0, 1.0, 1.0)
        values = [
            factorization_residual(equilibrium_state(model, fz)) for fz in (4.0, 6.0, 8.0)
        ]
        assert values[0] > values[1] > values[2]


class TestFigureSweep:
    def test_row_count_and_order(self):
        points = figure_sweep(ModelParams(1.0, 1.0, 0.5), -5.0, 5.0, 201)
        assert len(points) == 201
        fz = [p.Fz for p in points]
        assert fz == sorted(fz)
        assert fz == np.linspace(-5.0, 5.0, 201).tolist()

    def test_points_are_the_closed_form_bit_for_bit(self):
        for beta_g in (-0.0, 1e-300, 0.5, 1.5):
            model = ModelParams(1.0, 1.0, beta_g)
            points = figure_sweep(model, -3.0, 4.0, 57)
            fields = np.linspace(-3.0, 4.0, 57).tolist()
            expected = [equilibrium_observables(model, f) for f in fields]
            assert [bits(p) for p in points] == [bits(p) for p in expected]
            assert all(type(p) is EquilibriumCurvePoint for p in points)

    def test_monotone_bloch_curves(self):
        for beta_g in (0.5, 1.0, 1.5):
            s1z = [p.S1z for p in figure_sweep(ModelParams(1.0, 1.0, beta_g), -5.0, 5.0, 201)]
            assert all(b > a for a, b in zip(s1z, s1z[1:]))

    def test_uncoupled_s2z_constant(self):
        points = figure_sweep(MODEL0, -5.0, 5.0, 51)
        s2z = np.array([p.S2z for p in points])
        assert np.abs(s2z + math.tanh(1.0)).max() < 1e-12

    # S1z is odd and Cxx even in the field, so an affine Cxx[S1z] would have
    # to be constant: it is uncoupled and is not coupled
    def test_uncoupled_cxx_constant(self):
        cxx = [p.Cxx for p in figure_sweep(MODEL0, -5.0, 5.0, 101)]
        assert max(abs(c) for c in cxx) < 1e-14
        assert max(cxx) - min(cxx) < 1e-14

    def test_coupled_cxx_varies(self):
        cxx = [p.Cxx for p in figure_sweep(MODEL15, -5.0, 5.0, 101)]
        assert max(cxx) - min(cxx) > 0.01

    def test_parity_defects_small_for_all_couplings(self):
        for beta_g in (0.0, 0.5, 1.0, 1.5):
            model = ModelParams(1.0, 1.0, beta_g)
            for p in figure_sweep(model, -5.0, 5.0, 101):
                mirror = equilibrium_observables(model, -p.Fz)
                assert abs(p.S1z + mirror.S1z) < 1e-12
                assert abs(p.Cxx - mirror.Cxx) < 1e-12

    def test_malformed_grids(self):
        model = ModelParams(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ModelParams(1.0, 1.0, math.nan)
        with pytest.raises(ValueError):
            figure_sweep(model, -5.0, 5.0, 1)
        with pytest.raises(ValueError):
            figure_sweep(model, -np.inf, 5.0, 10)
        with pytest.raises(ValueError, match="width"):
            # finite bounds whose width overflows np.linspace
            figure_sweep(model, -1e308, 1e308, 10)

    def test_deterministic(self):
        a = figure_sweep(MODEL15, -3.0, 3.0, 21)
        b = figure_sweep(MODEL15, -3.0, 3.0, 21)
        assert a == b
