import math

import numpy as np
import pytest

from spinprep import (
    DimensionError,
    Equilibrium,
    Factorizing,
    InsufficientSpanError,
    MoriLinearResponse,
    NonInvertibleError,
    ReducedAffineMap,
    ValidationError,
    chebyshev_targets,
    evolve_total,
    factorizing_propagator,
    fit_affine_map,
    invert_propagator,
    kron,
    partial_trace,
    propagator,
    qubit_bloch,
    reduced_evolution,
    reduced_from_bloch,
)
from spinprep.model import ID2, SZ, ModelParams, hamiltonian
from spinprep.prepare import equilibrium_state

from conftest import assert_close, random_density, random_hermitian


def z_state(s1z):
    return reduced_from_bloch(np.array([0.0, 0.0, s1z]))


class TestPropagator:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t", [1e308, np.inf, np.nan])
    def test_non_finite_phase_rejected(self, t):
        # w * t overflows (or is inf * 0, or NaN): a ValidationError where H
        # meets t, not a RuntimeWarning and a unitary of NaNs
        h = hamiltonian(ModelParams(1.0, 1.0, 1.5), 0.0)
        with pytest.raises(ValidationError, match="not finite"):
            propagator(h, t)

    def test_phase_from_2_to_the_53_is_refused(self):
        # there the rounding of an energy alone moves exp(-i w t) by about a
        # radian; one ulp below 2^53 the phase is still evaluated
        h = np.diag([1.0, -1.0])
        below = math.nextafter(2.0**53, 0.0)
        assert np.allclose(propagator(h, below), np.diag(np.exp([-1j * below, 1j * below])))
        for t in (2.0**53, -(2.0**53), 1e300):
            with pytest.raises(ValidationError, match=r"\^53"):
                propagator(h, t)


class TestEvolveTotal:
    def test_zero_time(self, rng):
        rho = random_density(rng, 4)
        h = random_hermitian(rng, 4)
        assert_close(evolve_total(rho, propagator(h, 0.0)), rho, 1e-13, "t = 0")

    def test_equilibrium_is_stationary(self):
        model = ModelParams(1.0, 1.0, 1.0)
        rho = equilibrium_state(model, 0.8)
        h = hamiltonian(model, 0.8)
        assert_close(evolve_total(rho, propagator(h, 2.3)), rho, 1e-12, "canonical stationarity")

    def test_spectrum_preserved(self, rng):
        rho = random_density(rng, 4)
        h = random_hermitian(rng, 4)
        out = evolve_total(rho, propagator(h, 1.4))
        assert_close(
            np.linalg.eigvalsh(out), np.linalg.eigvalsh(rho), 1e-12, "unitary invariance"
        )
        assert abs(np.trace(out) - 1.0) < 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            evolve_total(random_density(rng, 4), propagator(random_hermitian(rng, 2), 1.0))


class TestReducedEvolution:
    def test_zero_time_returns_input(self):
        model = ModelParams(1.0, 1.0, 1.5)
        prep = Equilibrium(model)
        rho_s = z_state(0.6)
        out = reduced_evolution(prep, propagator(hamiltonian(model, 0.0), 0.0), rho_s)
        assert_close(out, rho_s, 1e-10, "trace-back at t = 0")

    def test_state_moves_when_field_is_switched_off(self):
        # prepared at finite field, evolved with the field off: for g > 0 the
        # prepared state is not stationary under the field-free Hamiltonian
        model = ModelParams(1.0, 1.0, 1.0)
        prep = Equilibrium(model)
        rho_s = z_state(0.5)
        out = reduced_evolution(prep, propagator(hamiltonian(model, 0.0), 1.0), rho_s)
        assert np.linalg.norm(qubit_bloch(out) - qubit_bloch(rho_s)) > 1e-3

    def test_uncoupled_factorizing_is_precession(self):
        # g = 0: the system spin precesses freely about z; |S| is conserved
        # and (Sx, Sy) rotates by 2 Fz t
        model = ModelParams(1.0, 1.0, 0.0)
        fz, t = 0.9, 1.3
        prep = Factorizing(ID2 / 2)
        u = propagator(hamiltonian(model, fz), t)
        s_in = np.array([0.4, -0.1, 0.3])
        out = reduced_evolution(prep, u, reduced_from_bloch(s_in))
        s_out = qubit_bloch(out)
        assert abs(np.linalg.norm(s_out) - np.linalg.norm(s_in)) < 1e-12
        angle = 2.0 * fz * t
        rot = np.array(
            [
                [np.cos(angle), np.sin(angle), 0.0],
                [-np.sin(angle), np.cos(angle), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        assert_close(s_out, rot @ s_in, 1e-12, "free precession")

    def test_purity_never_exceeds_one(self):
        model = ModelParams(1.0, 1.0, 1.5)
        prep = Equilibrium(model)
        h = hamiltonian(model, 0.0)
        for s1z in (-0.9, 0.2, 0.7):
            for t in (0.3, 1.0, 2.5):
                out = reduced_evolution(prep, propagator(h, t), z_state(s1z))
                assert np.trace(out @ out).real <= 1.0 + 1e-10


class TestFactorizingPropagator:
    def test_zero_time_identity(self, rng):
        u = propagator(random_hermitian(rng, 4), 0.0)
        g_map = factorizing_propagator(u, random_density(rng, 2))
        assert_close(g_map.bloch, np.eye(3), 1e-13, "identity Bloch block")
        assert np.abs(g_map.offset).max() < 1e-13

    def test_matches_direct_evolution(self, rng):
        model = ModelParams(1.0, 1.0, 1.0)
        u = propagator(hamiltonian(model, 0.3), 0.7)
        rho_b = random_density(rng, 2)
        g_map = factorizing_propagator(u, rho_b)
        for _ in range(10):
            rho_s = random_density(rng, 2)
            direct = partial_trace(evolve_total(kron(rho_s, rho_b), u), keep=0)
            assert np.linalg.norm(g_map.apply(rho_s) - direct) < 1e-12

    def test_applied_to_maximally_mixed(self):
        model = ModelParams(1.0, 1.0, 1.0)
        u = propagator(hamiltonian(model, 0.3), 0.7)
        g_map = factorizing_propagator(u, ID2 / 2)
        direct = partial_trace(evolve_total(kron(ID2 / 2, ID2 / 2), u), keep=0)
        assert np.linalg.norm(g_map.apply(ID2 / 2) - direct) < 1e-12

    def test_uncoupled_rotation_block(self):
        model = ModelParams(1.0, 1.0, 0.0)
        fz, t = 0.9, 1.3
        g_map = factorizing_propagator(propagator(hamiltonian(model, fz), t), ID2 / 2)
        angle = 2.0 * fz * t
        rot = np.array(
            [
                [np.cos(angle), np.sin(angle), 0.0],
                [-np.sin(angle), np.cos(angle), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        assert_close(g_map.bloch, rot, 1e-12, "rotation block")
        assert np.abs(g_map.offset).max() < 1e-13

    @pytest.mark.parametrize("n", [4, 3])
    def test_environment_state_must_be_a_qubit_state(self, n):
        # the shape is checked before any matrix product meets u
        u = propagator(hamiltonian(ModelParams(1.0, 1.0, 1.0), 0.0), 0.7)
        with pytest.raises(DimensionError, match=rf"^rho_B0 must be 2x2, got \({n}, {n}\)$"):
            factorizing_propagator(u, np.eye(n) / n)


class TestReducedAffineMap:
    def test_holds_read_only_float_copies(self, rng):
        # a map is a value: the caller's arrays, edited later, do not move it,
        # and every map built from it (compose, inverse, fit) is a value too
        bloch, offset = [[0.9, 0.1, 0.0], [-0.1, 0.8, 0.0], [0.0, 0.0, 0.7]], np.array([0.02, -0.01, 0.05])
        g_map = ReducedAffineMap(bloch, offset)
        offset[0] = 1.0
        assert g_map.offset.tolist() == [0.02, -0.01, 0.05]
        pairs = [(rho, g_map.apply(rho)) for rho in (random_density(rng, 2) for _ in range(6))]
        for made in (g_map, g_map.compose(g_map), invert_propagator(g_map), fit_affine_map(pairs).map):
            for stored in (made.bloch, made.offset):
                assert stored.dtype == float
                with pytest.raises(ValueError, match="read-only"):
                    stored[(0,) * stored.ndim] = 0.0


class TestInvertPropagator:
    def test_identity(self):
        inv = invert_propagator(ReducedAffineMap(np.eye(3), np.zeros(3)))
        assert np.array_equal(inv.bloch, np.eye(3))
        assert np.array_equal(inv.offset, np.zeros(3))

    def test_composition_is_identity(self):
        model = ModelParams(1.0, 1.0, 1.0)
        g_map = factorizing_propagator(propagator(hamiltonian(model, 0.0), 0.7), ID2 / 2)
        composed = invert_propagator(g_map).compose(g_map)
        assert np.abs(composed.bloch - np.eye(3)).max() < 1e-10
        assert np.abs(composed.offset).max() < 1e-10

    def test_condition_number_at_most_1e12_inverts(self):
        inv = invert_propagator(ReducedAffineMap(np.diag([1.0, 1.0, 2e-12]), np.zeros(3)))
        assert np.array_equal(inv.bloch, np.diag([1.0, 1.0, 5e11]))

    @pytest.mark.parametrize("smallest, cond", [(0.0, np.inf), (1e-13, 1e13)])
    def test_singular_map_rejected(self, smallest, cond):
        # the one bound of linalg.checked_inverse: a condition number above
        # 1e12, or one that is not finite
        flat = ReducedAffineMap(np.diag([1.0, 1.0, smallest]), np.zeros(3))
        with pytest.raises(NonInvertibleError, match="^Bloch block of the propagator is not invertible") as err:
            invert_propagator(flat)
        assert err.value.condition_number == pytest.approx(cond, rel=1e-12)


class TestFitAffineMap:
    def test_exact_affine_data(self, rng):
        target = ReducedAffineMap(
            np.array([[0.9, 0.1, 0.0], [-0.1, 0.8, 0.0], [0.0, 0.0, 0.7]]),
            np.array([0.02, -0.01, 0.05]),
        )
        pairs = []
        for _ in range(8):
            rho = random_density(rng, 2)
            pairs.append((rho, target.apply(rho)))
        report = fit_affine_map(pairs)
        assert report.residual < 1e-12
        assert np.abs(report.map.bloch - target.bloch).max() < 1e-10
        assert np.abs(report.map.offset - target.offset).max() < 1e-10

    def test_too_few_samples(self, rng):
        rho = random_density(rng, 2)
        with pytest.raises(InsufficientSpanError):
            fit_affine_map([(rho, rho)] * 4)

    def test_degenerate_samples(self, rng):
        rho = random_density(rng, 2)
        with pytest.raises(InsufficientSpanError):
            fit_affine_map([(rho, rho)] * 6)

    @pytest.mark.parametrize("spacing,spans", [(1e-12, False), (1e-9, True)])
    def test_span_threshold_on_both_sides(self, spacing, spans):
        # six z-states S1z = 0.3 + k * spacing: the design's second singular
        # value is about 4.2 * spacing, so the 1e-10 rank cut falls between
        # spacings of 2.2e-11 and 2.5e-11
        target = ReducedAffineMap(np.diag([0.5, 0.5, 0.8]), np.array([0.0, 0.0, 0.1]))
        pairs = [(z_state(0.3 + k * spacing), target.apply(z_state(0.3 + k * spacing))) for k in range(6)]
        if not spans:
            with pytest.raises(InsufficientSpanError):
                fit_affine_map(pairs)
        else:
            assert fit_affine_map(pairs).residual < 1e-12

    def test_non_finite_sample_rejected(self, rng):
        # max(0.0, nan) is 0.0: without the check a NaN output reads as a perfect fit
        pairs = [(rho, rho) for rho in (random_density(rng, 2) for _ in range(6))]
        pairs[3] = (pairs[3][0], np.full((2, 2), np.nan))
        with pytest.raises(ValidationError):
            fit_affine_map(pairs)

    def test_axis_confined_exact_family(self):
        # inputs on the z-axis only: the fit is exact on that family even
        # though the coefficient space is not fully spanned
        def affine_on_axis(rho):
            s = qubit_bloch(rho)
            return reduced_from_bloch(np.array([0.1, 0.2 * s[2], 0.5 * s[2] - 0.1]))

        pairs = [(z_state(s), affine_on_axis(z_state(s))) for s in np.linspace(-0.8, 0.8, 7)]
        assert fit_affine_map(pairs).residual < 1e-12

    def test_factorizing_evolution_is_affine(self, rng):
        model = ModelParams(1.0, 1.0, 1.5)
        prep = Factorizing(random_density(rng, 2))
        u = propagator(hamiltonian(model, 0.0), 1.0)
        states = [partial_trace(equilibrium_state(model, f), keep=0) for f in (-2, -1, 0, 1, 2)]
        pairs = [(s, reduced_evolution(prep, u, s)) for s in states]
        assert fit_affine_map(pairs).residual < 1e-11

    def test_mori_evolution_is_linear(self):
        model = ModelParams(1.0, 1.0, 1.0)
        prep = MoriLinearResponse(model, (SZ,))
        u = propagator(hamiltonian(model, 0.0), 1.0)
        states = [z_state(s) for s in np.linspace(-0.05, 0.05, 7)]
        pairs = [(s, reduced_evolution(prep, u, s)) for s in states]
        assert fit_affine_map(pairs).residual < 1e-10

    def test_equilibrium_evolution_is_nonlinear(self, baselines):
        model = ModelParams(1.0, 1.0, 1.5)
        prep = Equilibrium(model)
        u = propagator(hamiltonian(model, 0.0), 1.0)
        states = [partial_trace(equilibrium_state(model, f), keep=0) for f in (-2, -1, 0, 1, 2)]
        pairs = [(s, reduced_evolution(prep, u, s)) for s in states]
        residual = fit_affine_map(pairs).residual
        frozen = baselines["evolution_fit_residual_bg_1.5"]
        assert residual > 0.0
        assert abs(residual - frozen) <= 0.01 * frozen

    def test_equilibrium_nonlinearity_shrinks_near_zero_polarization(self):
        # an approximately linear regime survives around S1z = 0
        model = ModelParams(1.0, 1.0, 1.5)
        prep = Equilibrium(model)
        u = propagator(hamiltonian(model, 0.0), 1.0)

        def window_residual(s_max):
            states = [z_state(s) for s in np.linspace(-s_max, s_max, 5)]
            pairs = [(s, reduced_evolution(prep, u, s)) for s in states]
            return fit_affine_map(pairs).residual

        wide = window_residual(0.8)
        narrow = window_residual(0.1)
        assert wide > 0.0
        assert narrow < wide / 10.0


class TestChebyshevTargets:
    def test_inside_interval_and_sorted(self):
        nodes = chebyshev_targets(7, -0.9, 0.9)
        assert np.all(nodes > -0.9) and np.all(nodes < 0.9)
        assert np.all(np.diff(nodes) > 0)
        assert len(nodes) == 7

    def test_needs_at_least_one(self):
        with pytest.raises(ValueError):
            chebyshev_targets(0, 0.0, 1.0)
