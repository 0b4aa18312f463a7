import math
import warnings

import numpy as np
import pytest
import scipy.linalg

import spinprep.prepare
from spinprep import (
    Equilibrium,
    ExtrapolationWarning,
    Factorizing,
    FactorizeAndWait,
    MoriLinearResponse,
    NonInvertibleSusceptibilityError,
    OperatorSandwich,
    PreparationDomainError,
    UnreachableStateError,
    analytic_spectrum,
    blow_up,
    bloch_decompose,
    equilibrium_observables,
    equilibrium_state,
    fractional_power,
    hamiltonian,
    invert_field,
    kron,
    kubo_integral,
    mori_blow_up,
    mori_fields,
    operator_sandwich_state,
    partial_trace,
    reduced_from_bloch,
    susceptibility,
    validate_density,
)
from spinprep.model import ID2, SX, SZ, ModelParams
from spinprep.prepare import embed_system

from conftest import assert_close, random_density

MODEL = ModelParams(1.0, 1.0, 1.5)
UP = np.array([[1, 0], [0, 0]], dtype=complex)
DOWN = np.array([[0, 0], [0, 1]], dtype=complex)


def z_state(s1z):
    return reduced_from_bloch(np.array([0.0, 0.0, s1z]))


class TestEquilibriumState:
    def test_zero_temperature_limit(self):
        # e = 1, g = 0, Fz = 5: the ground state is |up, down> with a gap of 2,
        # so at beta = 50 the excited weights are ~exp(-100)
        model = ModelParams(50.0, 1.0, 0.0)
        rho = equilibrium_state(model, 5.0)
        ground = kron(UP, DOWN)
        assert_close(rho, ground, 1e-10, "zero-temperature state")

    def test_matches_projector_mixture(self):
        # exp(-beta H)/Z equals sum_i p_i P_i with Boltzmann weights
        model = ModelParams(1.0, 1.0, 1.0)
        for fz in (-1.3, 0.0, 0.8):
            vals, projs = analytic_spectrum(model, fz)
            weights = np.exp(-model.beta * vals)
            weights /= weights.sum()
            mixture = sum(w * proj for w, proj in zip(weights, projs))
            assert_close(equilibrium_state(model, fz), mixture, 1e-12, "Boltzmann mixture")

    def test_bloch_matches_closed_forms(self):
        model = ModelParams(1.0, 1.0, 1.0)
        b = bloch_decompose(equilibrium_state(model, 0.0))
        p = equilibrium_observables(model, 0.0)
        assert abs(b.s1[2] - p.S1z) < 1e-12
        assert abs(b.s2[2] - p.S2z) < 1e-12
        assert abs(b.c[0, 0] - p.Cxx) < 1e-12

    @pytest.mark.parametrize(
        "beta, e, g, fz",
        [
            (1.0, 1.0, 1.0, 0.0),  # the canonical point
            (1.0, 1.0, 1.5, math.sqrt(349.9**2 - 1.5**2) - 1.0),  # |beta E3| just below 350
            (1.0, 1.0, 1.5, math.sqrt(350.1**2 - 1.5**2) - 1.0),  # just above: exponent-scaled
            (2.0, 1.0, 1.5, 0.5 * math.sqrt(700.0**2 - 3.0**2) - 1.0),  # |beta E3| = 700
            (1.0, 1.0, 0.0, 1.0),  # g = 0, Fz = e: E1 = E2 = 0
            (1.0, 1.0, 0.0, -1.0),  # g = 0, Fz = -e: E3 = E4 = 0
            (1.0, 0.0, 0.0, 0.0),  # fourfold degenerate
        ],
        ids=[
            "canonical",
            "below-cutoff",
            "above-cutoff",
            "beta-E-700",
            "g0-Fz-e",
            "g0-Fz-minus-e",
            "zero",
        ],
    )
    def test_matches_shifted_matrix_exponential(self, beta, e, g, fz):
        # independent reference: exp(-beta (H - E_min)) / Z from scipy
        h = hamiltonian(ModelParams(beta, e, g), fz)
        rho = scipy.linalg.expm(-beta * (h - np.linalg.eigvalsh(h)[0] * np.eye(4)))
        rho /= np.trace(rho).real
        assert_close(equilibrium_state(ModelParams(beta, e, g), fz), rho, 1e-12, "thermal state")

    def test_uncoupled_state_factorizes(self):
        model = ModelParams(1.0, 1.0, 0.0)
        for fz in (-0.7, 0.4, 2.0):
            rho = equilibrium_state(model, fz)
            rho1 = partial_trace(rho, keep=0)
            rho2 = partial_trace(rho, keep=1)
            assert np.linalg.norm(rho - kron(rho1, rho2)) < 1e-12
            b = bloch_decompose(rho)
            assert abs(b.c[2, 2] - b.s1[2] * b.s2[2]) < 1e-12
            assert abs(b.c[0, 0]) < 1e-13
            assert abs(b.c[1, 1]) < 1e-13

    def test_huge_field_is_overflow_safe(self):
        rho = equilibrium_state(MODEL, 1e6)
        assert validate_density(rho).ok


class TestInvertField:
    def test_zero_target(self):
        assert invert_field(MODEL, 0.0) == 0.0

    def test_round_trips(self):
        for beta_f in (-3.0, -1.0, 0.5, 2.0):
            s = equilibrium_observables(MODEL, beta_f).S1z
            assert abs(invert_field(MODEL, s) - beta_f) < 1e-10

    def test_inverts_to_stated_tolerance(self, monkeypatch):
        fields = []

        def counting(model, fz):
            fields.append(fz)
            return equilibrium_observables(model, fz)

        monkeypatch.setattr(spinprep.prepare, "equilibrium_observables", counting)
        for target in (-0.9999, -0.93, -0.2, 0.41, 0.88, 0.9999):
            fields.clear()
            field = invert_field(MODEL, target)
            assert len(fields) <= 30, f"{len(fields)} closed-form evaluations for {target}"
            assert abs(equilibrium_observables(MODEL, field).S1z - target) <= 1e-12

    def test_extreme_target_needs_large_field(self):
        field = invert_field(MODEL, 0.9999)
        assert field > 50.0
        assert abs(equilibrium_observables(MODEL, field).S1z - 0.9999) <= 1e-12

    def test_unreachable_targets(self):
        for target in (1.0, -1.0, 1.2):
            with pytest.raises(UnreachableStateError) as err:
                invert_field(MODEL, target)
            assert err.value.supremum == 1.0


class TestBlowUpEquilibrium:
    def test_trace_back_on_eleven_states(self):
        prep = Equilibrium(MODEL)
        for s1z in np.linspace(-0.95, 0.95, 11):
            rho_s = z_state(s1z)
            total = blow_up(prep, rho_s)
            assert validate_density(total).ok
            assert np.linalg.norm(partial_trace(total, keep=0) - rho_s) < 1e-10

    def test_transverse_state_rejected(self):
        prep = Equilibrium(MODEL)
        rho_s = reduced_from_bloch(np.array([0.3, 0.0, 0.0]))
        with pytest.raises(PreparationDomainError):
            blow_up(prep, rho_s)

    def test_invalid_reduced_state_rejected(self):
        prep = Equilibrium(MODEL)
        with pytest.raises(Exception):
            blow_up(prep, np.diag([1.5, -0.5]))


class TestBlowUpFactorizing:
    def test_product_construction(self):
        prep = Factorizing(ID2 / 2)
        total = blow_up(prep, UP)
        assert_close(total, kron(UP, ID2 / 2), 1e-15, "product blow-up")

    def test_trace_back_arbitrary_states(self, rng):
        prep = Factorizing(random_density(rng, 2))
        for _ in range(11):
            rho_s = random_density(rng, 2)
            total = blow_up(prep, rho_s)
            assert validate_density(total).ok
            assert np.linalg.norm(partial_trace(total, keep=0) - rho_s) < 1e-12

    def test_bath_state_validated(self):
        with pytest.raises(Exception):
            Factorizing(np.diag([1.5, -0.5]))


class TestOperatorSandwich:
    def test_identity_sandwich_is_equilibrium(self):
        state, report = operator_sandwich_state(MODEL, 0.7, [(ID2, ID2)])
        assert report.ok
        assert_close(state, equilibrium_state(MODEL, 0.7), 1e-13, "identity sandwich")

    def test_pinching_keeps_density(self):
        state, report = operator_sandwich_state(MODEL, 0.7, [(UP, UP), (DOWN, DOWN)])
        assert report.ok
        assert abs(np.trace(state) - 1.0) < 1e-12
        rho_f = equilibrium_state(MODEL, 0.7)
        pinched = sum(
            embed_system(p) @ rho_f @ embed_system(p) for p in (UP, DOWN)
        )
        assert_close(state, pinched, 1e-14, "pinched state")

    def test_one_sided_multiplication_fails_validation(self):
        state, report = operator_sandwich_state(MODEL, 0.7, [(SX, ID2)])
        assert not report.ok
        assert report.hermiticity_defect > 1e-3

    def test_empty_ops_rejected(self):
        with pytest.raises(ValueError):
            operator_sandwich_state(MODEL, 0.7, [])
        with pytest.raises(ValueError):
            OperatorSandwich(MODEL, 0.7, ())

    def test_blow_up_single_point_domain(self):
        prep = OperatorSandwich(MODEL, 0.7, ((UP, UP), (DOWN, DOWN)))
        state, _ = operator_sandwich_state(MODEL, 0.7, prep.ops)
        own_reduction = partial_trace(state, keep=0)
        total = blow_up(prep, own_reduction)
        assert_close(total, state, 1e-13, "sandwich blow-up")
        with pytest.raises(PreparationDomainError):
            blow_up(prep, z_state(0.9))

    def test_blow_up_invalid_sandwich_rejected(self):
        prep = OperatorSandwich(MODEL, 0.7, ((SX, ID2),))
        with pytest.raises(PreparationDomainError):
            blow_up(prep, ID2 / 2)


class TestKuboIntegral:
    def test_commuting_case_is_classical_covariance(self):
        # g = 0, zero field: rho0 depends only on sigma2_z, so sigma1_z
        # commutes with it and the integral collapses to beta * dX rho0
        model = ModelParams(1.0, 1.0, 0.0)
        rho0 = equilibrium_state(model, 0.0)
        x = embed_system(SZ)
        mean = np.trace(x @ rho0).real
        expected = model.beta * (x - mean * np.eye(4)) @ rho0
        assert_close(kubo_integral(rho0, x, beta=model.beta), expected, 1e-13, "commuting Kubo")

    def test_traceless_and_hermitian(self, rng):
        rho0 = equilibrium_state(ModelParams(1.0, 1.0, 1.0), 0.3)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x = x + x.conj().T
        k = kubo_integral(rho0, x)
        assert abs(np.trace(k)) < 1e-12
        assert np.abs(k - k.conj().T).max() < 1e-12

    def test_against_midpoint_quadrature(self):
        model = ModelParams(1.0, 1.0, 1.0)
        rho0 = equilibrium_state(model, 0.0)
        x = embed_system(SZ)
        closed = kubo_integral(rho0, x, beta=model.beta)
        mean = np.trace(x @ rho0).real
        dx = x - mean * np.eye(4)
        nodes = 2000
        acc = np.zeros((4, 4), dtype=complex)
        for k in range(nodes):
            t = (k + 0.5) / nodes
            acc += fractional_power(rho0, 1.0 - t) @ dx @ fractional_power(rho0, t)
        acc *= model.beta / nodes
        assert np.abs(closed - acc).max() < 1e-8

    def test_linear_in_the_observable(self, rng):
        rho0 = equilibrium_state(ModelParams(1.0, 1.0, 1.0), 0.0)
        x = embed_system(SZ)
        y = embed_system(SX)
        a, b = 0.7, -1.3
        combined = kubo_integral(rho0, a * x + b * y)
        split = a * kubo_integral(rho0, x) + b * kubo_integral(rho0, y)
        assert_close(combined, split, 1e-12, "Kubo linearity")

    def test_kernel_with_vanishing_and_repeated_probabilities(self, rng):
        # diagonal rho0: element (m, n) is dX_mn (p_m - p_n) / ln(p_m / p_n),
        # dX_mn p_m where p_m = p_n, and zero where a probability vanishes
        p = np.array([0.0, 0.25, 0.25, 0.5])
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x = x + x.conj().T
        dx = x - np.trace(x @ np.diag(p)).real * np.eye(4)
        kernel = np.zeros((4, 4))
        for m, pm in enumerate(p):
            for n, pn in enumerate(p):
                if pm > 0.0 and pn > 0.0:
                    kernel[m, n] = pm if pm == pn else (pm - pn) / math.log(pm / pn)
        assert_close(kubo_integral(np.diag(p), x), dx * kernel, 1e-15, "Kubo kernel")


class TestSusceptibility:
    def test_free_spin_value(self):
        # g = 0, zero field: <sigma_z^2> - <sigma_z>^2 = 1, so chi = beta
        chi = susceptibility(ModelParams(1.0, 0.7, 0.0), [SZ])
        assert abs(chi[0, 0] - 1.0) < 1e-12

    def test_against_finite_difference(self):
        model = ModelParams(1.0, 1.0, 1.0)
        chi = susceptibility(model, [SZ])[0, 0]
        h = 1e-4
        fd = (
            equilibrium_observables(model, h).S1z - equilibrium_observables(model, -h).S1z
        ) / (2 * h)
        assert abs(chi - fd) < 1e-6

    def test_single_observable_positive(self):
        chi = susceptibility(MODEL, [SZ])
        assert chi[0, 0] > 1e-12

    def test_two_observables_symmetric_positive_definite(self):
        chi = susceptibility(MODEL, [SZ, SX])
        assert np.abs(chi - chi.T).max() < 1e-10
        assert np.linalg.eigvalsh(chi).min() > 1e-12

    def test_duplicated_observables_singular(self):
        with pytest.raises(NonInvertibleSusceptibilityError) as err:
            susceptibility(MODEL, [SZ, SZ])
        assert err.value.condition_number > 1e12


class TestMori:
    def test_fixed_point(self):
        model = ModelParams(1.0, 1.0, 1.0)
        rho_s0 = partial_trace(equilibrium_state(model, 0.0), keep=0)
        state = mori_blow_up(model, [SZ], rho_s0)
        assert_close(state, equilibrium_state(model, 0.0), 1e-14, "zero-field fixed point")
        assert np.abs(mori_fields(model, [SZ], rho_s0)).max() < 1e-14

    def test_first_order_agreement_with_equilibrium(self):
        # || mori(rho_S^F) - rho^F || = O(F^2): halving the field drops the
        # residual by ~4
        model = ModelParams(1.0, 1.0, 1.0)
        residuals = {}
        for beta_f in (0.02, 0.01):
            rho_s = partial_trace(equilibrium_state(model, beta_f), keep=0)
            state = mori_blow_up(model, [SZ], rho_s)
            residuals[beta_f] = np.linalg.norm(state - equilibrium_state(model, beta_f))
        ratio = residuals[0.02] / residuals[0.01]
        assert 2.8 <= ratio <= 5.2

    def test_blow_up_trace_back(self):
        model = ModelParams(1.0, 1.0, 1.0)
        prep = MoriLinearResponse(model, (SZ,))
        for s1z in np.linspace(-0.03, 0.03, 11):
            rho_s = z_state(s1z)
            total = blow_up(prep, rho_s)
            assert np.linalg.norm(partial_trace(total, keep=0) - rho_s) < 1e-10
            assert validate_density(total).ok

    def test_exactly_affine(self):
        model = ModelParams(1.0, 1.0, 1.0)
        x, y = z_state(0.02), z_state(-0.015)
        lam = 0.3
        mixed = mori_blow_up(model, [SZ], lam * x + (1 - lam) * y)
        split = lam * mori_blow_up(model, [SZ], x) + (1 - lam) * mori_blow_up(model, [SZ], y)
        assert np.linalg.norm(mixed - split) < 1e-12

    def test_extrapolation_warning_outside_trust_region(self):
        model = ModelParams(1.0, 1.0, 1.0)
        prep = MoriLinearResponse(model, (SZ,))
        with pytest.warns(ExtrapolationWarning):
            blow_up(prep, z_state(0.5))

    def test_off_manifold_state_rejected(self):
        model = ModelParams(1.0, 1.0, 1.0)
        prep = MoriLinearResponse(model, (SZ,))
        with pytest.raises(PreparationDomainError):
            blow_up(prep, reduced_from_bloch(np.array([0.02, 0.0, 0.0])))


class TestFactorizeAndWait:
    def test_bad_waiting_time(self):
        with pytest.raises(ValueError):
            FactorizeAndWait(MODEL, 0.0, 0.0, ID2 / 2)

    def test_trace_back_inside_range(self):
        from spinprep import factorizing_propagator
        from spinprep.model import hamiltonian

        model = ModelParams(1.0, 1.0, 1.0)
        prep = FactorizeAndWait(model, Fz_wait=0.0, t0=0.7, rho_B0=ID2 / 2)
        g_map = factorizing_propagator(hamiltonian(model, 0.0), ID2 / 2, 0.7)
        for s1z in np.linspace(-0.9, 0.9, 11):
            rho_s = g_map.apply(z_state(s1z))  # in range by construction
            total = blow_up(prep, rho_s)
            assert validate_density(total).ok
            assert np.linalg.norm(partial_trace(total, keep=0) - rho_s) < 1e-10

    def test_near_pure_state_leaves_domain(self):
        model = ModelParams(1.0, 1.0, 1.0)
        prep = FactorizeAndWait(model, Fz_wait=0.3, t0=0.7, rho_B0=ID2 / 2)
        with pytest.raises(PreparationDomainError):
            blow_up(prep, z_state(0.999))
