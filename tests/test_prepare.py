import decimal
import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
import scipy.linalg

import spinprep.evolve
import spinprep.linalg
import spinprep.prepare
from spinprep import (
    DimensionError,
    DomainError,
    Equilibrium,
    ExtrapolationWarning,
    Factorizing,
    FactorizeAndWait,
    MoriLinearResponse,
    NonInvertibleError,
    OperatorSandwich,
    PreparationDomainError,
    ReducedAffineMap,
    UnreachableStateError,
    analytic_spectrum,
    blow_up,
    bloch_decompose,
    equilibrium_observables,
    equilibrium_state,
    evolve_total,
    hamiltonian,
    invert_field,
    kron,
    kubo_integral,
    mori_blow_up,
    mori_fields,
    operator_sandwich_state,
    partial_trace,
    propagator,
    qubit_bloch,
    reduced_evolution,
    reduced_from_bloch,
    susceptibility,
    ValidationError,
    validate_density,
)
from spinprep.linalg import DENSITY_EIG_FLOOR, dag, herm_eig
from spinprep.model import CORR, ID2, SIGMA1, SIGMA2, SX, SY, SZ, ModelParams
from spinprep.prepare import TRACE_BACK_ATOL, embed_system

from conftest import assert_close, bits, random_density
from test_model import _REFERENCE_CONTEXT, _decimal_reference

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
            (1.0, 1.0, 1.5, math.sqrt(350.1**2 - 1.5**2) - 1.0),  # just above
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

    def test_entries_equal_the_operator_sum(self):
        # the reference is 1/4 (1 + S1z sz1 + S2z sz2 + Cxx sx sx + Cyy sy sy
        # + Czz sz sz) summed as operators; the eight entries match it bit for
        # bit, signed zeros included
        def operator_sum(model, fz):
            p = equilibrium_observables(model, fz)
            return 0.25 * (
                np.eye(4) + p.S1z * SIGMA1[2] + p.S2z * SIGMA2[2]
                + p.Cxx * CORR[0][0] + p.Cyy * CORR[1][1] + p.Czz * CORR[2][2]
            )

        for g in (0.0, -0.0, 1.5, -1.5):
            for e in (1.0, -2.0, 0.0):
                model = ModelParams(1.0, e, g)
                for fz in (0.0, -0.0, 5.0, -5.0, 1e300, -1e300, 0.37):
                    state, reference = equilibrium_state(model, fz), operator_sum(model, fz)
                    assert np.array_equal(state, reference)
                    assert np.array_equal(state.view(np.uint64), reference.view(np.uint64))


class TestInvertField:
    def test_zero_target(self, fields):
        for target in (0.0, -0.0):
            fields.clear()
            root = invert_field(MODEL, target)
            assert fields == [0.0] and math.copysign(1.0, fields[0]) == 1.0
            assert root == equilibrium_observables(MODEL, 0.0)
            assert math.copysign(1.0, root.Fz) == 1.0

    def test_round_trips(self):
        for beta_f in (-3.0, -1.0, 0.5, 2.0):
            s = equilibrium_observables(MODEL, beta_f).S1z
            assert abs(invert_field(MODEL, s).Fz - beta_f) < 1e-10

    @pytest.fixture
    def fields(self, monkeypatch):
        """The fields at which invert_field evaluates the closed form."""
        fields = []

        def counting(model, fz):
            fields.append(fz)
            return equilibrium_observables(model, fz)

        monkeypatch.setattr(spinprep.prepare, "equilibrium_observables", counting)
        return fields

    def test_inverts_to_stated_tolerance(self, fields):
        for target in (-0.9999, -0.93, -0.2, 0.41, 0.88, 0.9999):
            fields.clear()
            root = invert_field(MODEL, target)
            assert len(fields) <= 12, f"{len(fields)} closed-form evaluations for {target}"
            assert abs(equilibrium_observables(MODEL, root.Fz).S1z - target) <= 1e-12

    def test_uncoupled_root_is_the_first_evaluation(self, fields):
        # uncoupled, S1z = tanh(beta Fz): the start atanh(target)/beta is the root
        model = ModelParams(2.0, 1.0, 0.0)
        for target in (-0.9, 0.3, 0.7):
            fields.clear()
            root = invert_field(model, target)
            assert len(fields) == 1
            assert abs(root.Fz - math.atanh(target) / 2.0) <= 1e-15

    def test_few_evaluations_on_the_bench_family(self, fields):
        # the models and targets of the benchmark's inversions: beta e in
        # [0.5, 1.5], beta g in [0, 2], |S1z| <= 0.95
        rng = np.random.default_rng(20261018)
        counts = []
        for _ in range(300):
            model = ModelParams(1.0, rng.uniform(0.5, 1.5), rng.uniform(0.0, 2.0))
            target = float(rng.uniform(-0.95, 0.95))
            fields.clear()
            root = invert_field(model, target)
            counts.append(len(fields))
            assert abs(equilibrium_observables(model, root.Fz).S1z - target) <= 1e-12, model
        assert np.mean(counts) <= 6.0, f"mean {np.mean(counts)} evaluations per inversion"

    @pytest.mark.parametrize("beta", [1e-3, 1.0, 50.0])
    @pytest.mark.parametrize("g", [0.0, 1.0, 3.0])
    def test_edge_targets(self, beta, g):
        # coupled at beta = 50, 1 - S1z falls off only as a power of the field:
        # 1 - 1e-15 needs a field beyond the cap there, and only there
        model = ModelParams(beta, 1.0, g)
        for target in (1e-300, 5e-324, 1.0 - 1e-10, 1.0 - 1e-15):
            for signed in (target, -target):
                if beta == 50.0 and g != 0.0 and target == 1.0 - 1e-15:
                    with pytest.raises(UnreachableStateError):
                        invert_field(model, signed)
                    continue
                root = invert_field(model, signed)
                assert abs(equilibrium_observables(model, root.Fz).S1z - signed) <= 1e-12

    def test_extreme_target_needs_large_field(self):
        root = invert_field(MODEL, 0.9999)
        assert root.Fz > 50.0
        assert abs(equilibrium_observables(MODEL, root.Fz).S1z - 0.9999) <= 1e-12

    def test_converges_across_large_beta_e_models(self):
        # beta e up to 9e4 with |g| < 0.3: S1z must move smoothly enough
        # between adjacent fields for the 1e-12 check to be met everywhere
        rng = np.random.default_rng(20261018)
        cases = [(ModelParams(1797.6, 16.91, 0.0834), [-0.6289])]
        for _ in range(100):
            beta, e, g = rng.uniform(100.0, 3000.0), rng.uniform(5.0, 30.0), rng.uniform(-0.3, 0.3)
            cases.append((ModelParams(beta, e, g), rng.uniform(-0.99, 0.99, 5)))
        for model, targets in cases:
            for target in targets:
                root = invert_field(model, float(target))
                fresh = equilibrium_observables(model, root.Fz)
                assert abs(fresh.S1z - target) <= 1e-12, model
                assert bits(root) == bits(fresh), model

    @pytest.mark.parametrize(
        "model", [MODEL, ModelParams(1.0, 1.0, 0.0), ModelParams(1.0, 1e5, 0.3), ModelParams(1e3, 2.0, -0.5)]
    )
    def test_evaluates_at_the_signed_field(self, fields, model):
        # S1z is bitwise odd, so a negative target runs the iterates of the
        # positive one at the negated fields; the observables returned are
        # the ones evaluated at the returned root
        for target in (0.05, 0.3, 0.77, 0.999, 1e-300):
            fields.clear()
            up = invert_field(model, target)
            up_fields = list(fields)
            fields.clear()
            down = invert_field(model, -target)
            assert bits(fields) == bits([-f for f in up_fields])
            assert bits([down.Fz]) == bits([-up.Fz]) and up.Fz in up_fields
            for root in (up, down):
                assert bits(root) == bits(equilibrium_observables(model, root.Fz))

    def test_unreachable_targets(self):
        for target in (1.0, -1.0, 1.2):
            with pytest.raises(UnreachableStateError, match="supremum 1.0"):
                invert_field(MODEL, target)


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
        # the one state is built and checked when the preparation is
        with pytest.raises(PreparationDomainError):
            OperatorSandwich(MODEL, 0.7, ((SX, ID2),))


def fractional_power(rho, x: float) -> np.ndarray:
    """rho**x for a positive semidefinite Hermitian operator, with 0**x = 0.

    Eigenvalues in (DENSITY_EIG_FLOOR, 0] are treated as roundoff and clamped
    to zero; anything below the floor is a genuine domain violation.  The
    midpoint-quadrature reference for the Kubo integral.
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


class TestFractionalPower:
    def test_power_split_recombines(self, rng):
        rho = random_density(rng, 4)
        product = fractional_power(rho, 0.3) @ fractional_power(rho, 0.7)
        assert_close(product, rho, 1e-12, "rho^0.3 rho^0.7")

    def test_fractional_power_domain(self):
        with pytest.raises(DomainError):
            fractional_power(np.diag([1.0, -0.5]), 0.5)
        # eigenvalues inside the roundoff floor are clamped, not rejected
        result = fractional_power(np.diag([1.0, -0.5e-10]), 0.5)
        assert_close(result, np.diag([1.0, 0.0]), 1e-12, "clamped power")


class TestKuboIntegral:
    def test_commuting_case_is_classical_covariance(self):
        # g = 0, zero field: rho0 depends only on sigma2_z, so sigma1_z
        # commutes with it and the integral collapses to beta * dX rho0
        model = ModelParams(1.0, 1.0, 0.0)
        rho0 = equilibrium_state(model, 0.0)
        x = embed_system(SZ)
        mean = np.trace(x @ rho0).real
        expected = model.beta * (x - mean * np.eye(4)) @ rho0
        closed = kubo_integral(hamiltonian(model, 0.0), x, beta=model.beta)
        assert_close(closed, expected, 1e-13, "commuting Kubo")

    def test_traceless_and_hermitian(self, rng):
        h = hamiltonian(ModelParams(1.0, 1.0, 1.0), 0.3)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x = x + x.conj().T
        k = kubo_integral(h, x)
        assert abs(np.trace(k)) < 1e-12
        assert np.abs(k - k.conj().T).max() < 1e-12

    def test_against_midpoint_quadrature(self):
        model = ModelParams(1.0, 1.0, 1.0)
        rho0 = equilibrium_state(model, 0.0)
        x = embed_system(SZ)
        closed = kubo_integral(hamiltonian(model, 0.0), x, beta=model.beta)
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
        h = hamiltonian(ModelParams(1.0, 1.0, 1.0), 0.0)
        x = embed_system(SZ)
        y = embed_system(SX)
        a, b = 0.7, -1.3
        combined = kubo_integral(h, a * x + b * y)
        split = a * kubo_integral(h, x) + b * kubo_integral(h, y)
        assert_close(combined, split, 1e-12, "Kubo linearity")

    def test_kernel_with_vanishing_and_repeated_probabilities(self, rng):
        # diagonal H with a degenerate pair and a gap of 800: exp(-800)
        # underflows, so p_3 = 0, yet element (m, 3) is the finite
        # dX_m3 max(p_m, p_3) (1 - exp(-b)) / b, not zero; dX_mn p_m where
        # b = 0
        energies = [0.0, 0.5, 0.5, 800.0]
        weights = [math.exp(-e) for e in energies]
        p = np.array(weights) / sum(weights)
        assert p[3] == 0.0
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x = x + x.conj().T
        dx = x - np.trace(x @ np.diag(p)).real * np.eye(4)
        kernel = np.zeros((4, 4))
        for m, em in enumerate(energies):
            for n, en in enumerate(energies):
                b = abs(em - en)
                kernel[m, n] = max(p[m], p[n]) * -math.expm1(-b) / b if b else p[m]
        assert kernel[0, 3] > 1e-4
        assert_close(kubo_integral(np.diag(energies), x), dx * kernel, 1e-15, "Kubo kernel")

    def test_non_hermitian_inputs_rejected(self):
        h = hamiltonian(MODEL, 0.0)
        with pytest.raises(ValidationError):
            kubo_integral(h, embed_system(SZ) + 1j * np.eye(4))
        with pytest.raises(ValidationError):
            kubo_integral(h + 1j * np.eye(4), embed_system(SZ))
        with pytest.raises(DimensionError):
            kubo_integral(h, SZ)


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

    @pytest.mark.parametrize(
        "beta_e, beta_g",
        [
            (1.0, 0.0), (0.6, 0.8), (9.0, 12.0), (12.0, 16.0),
            (15.0, 20.0), (30.0, 40.0), (40.0, 30.0), (1.0, 800.0),
        ],
    )
    def test_matches_60_digit_derivative(self, beta_e, beta_g):
        # chi = dS1z/d(beta Fz) at Fz = 0: a central difference of the 60-digit
        # closed form, whose O(h^2) error is far below double precision.  At
        # r = hypot(beta_e, beta_g) >= 15 two eigenvalues of rho0 are below
        # the roundoff of its entries
        h = 1e-25
        with decimal.localcontext(_REFERENCE_CONTEXT):
            plus = _decimal_reference(1.0, beta_e, beta_g, h)[0]
            minus = _decimal_reference(1.0, beta_e, beta_g, -h)[0]
            reference = (plus - minus) / (2 * Decimal(h))
            chi = Decimal(float(susceptibility(ModelParams(1.0, beta_e, beta_g), [SZ])[0, 0]))
            gap = abs(chi - reference) / reference
        assert gap <= Decimal("1e-12"), float(gap)

    def test_duplicated_observables_singular(self):
        with pytest.raises(NonInvertibleError) as err:
            susceptibility(MODEL, [SZ, SZ])
        assert err.value.condition_number > 1e12
        with pytest.raises(NonInvertibleError, match="^susceptibility matrix is not invertible"):
            MoriLinearResponse(MODEL, (SZ, SZ))  # chi is checked at construction


class TestMori:
    def test_fixed_point(self):
        model = ModelParams(1.0, 1.0, 1.0)
        prep = MoriLinearResponse(model, (SZ,))
        rho_s0 = partial_trace(equilibrium_state(model, 0.0), keep=0)
        state = mori_blow_up(prep, rho_s0)
        assert_close(state, equilibrium_state(model, 0.0), 1e-14, "zero-field fixed point")
        assert np.abs(mori_fields(prep, rho_s0)).max() < 1e-14

    def test_first_order_agreement_with_equilibrium(self):
        # || mori(rho_S^F) - rho^F || = O(F^2): halving the field drops the
        # residual by ~4
        model = ModelParams(1.0, 1.0, 1.0)
        prep = MoriLinearResponse(model, (SZ,))
        residuals = {}
        for beta_f in (0.02, 0.01):
            rho_s = partial_trace(equilibrium_state(model, beta_f), keep=0)
            state = mori_blow_up(prep, rho_s)
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
        prep = MoriLinearResponse(ModelParams(1.0, 1.0, 1.0), (SZ,))
        x, y = z_state(0.02), z_state(-0.015)
        lam = 0.3
        mixed = mori_blow_up(prep, lam * x + (1 - lam) * y)
        split = lam * mori_blow_up(prep, x) + (1 - lam) * mori_blow_up(prep, y)
        assert np.linalg.norm(mixed - split) < 1e-12

    def test_observables_must_be_hermitian_qubit_operators(self):
        with pytest.raises(DimensionError):
            MoriLinearResponse(MODEL, (np.eye(4),))
        with pytest.raises(ValidationError):
            MoriLinearResponse(MODEL, (SZ + 1j * SX,))

    def test_needs_at_least_one_observable(self):
        with pytest.raises(ValueError, match="at least one observable"):
            MoriLinearResponse(MODEL, ())

    def test_extrapolation_warning_outside_trust_region(self):
        # the warning points at the first frame outside prepare.py and
        # evolve.py, here this file, whether reached through blow_up or
        # reduced_evolution or called directly
        model = ModelParams(1.0, 1.0, 1.0)
        prep = MoriLinearResponse(model, (SZ,))
        u = propagator(hamiltonian(model, 0.0), 0.7)
        for fn in (blow_up, mori_blow_up, lambda p, rho_s: reduced_evolution(p, u, rho_s)):
            with pytest.warns(ExtrapolationWarning) as record:
                fn(prep, z_state(0.5))
            assert [w.filename for w in record] == [__file__]

    def test_off_manifold_state_rejected(self):
        model = ModelParams(1.0, 1.0, 1.0)
        prep = MoriLinearResponse(model, (SZ,))
        with pytest.raises(PreparationDomainError):
            blow_up(prep, reduced_from_bloch(np.array([0.02, 0.0, 0.0])))

    @pytest.mark.parametrize(
        "observables", [(SZ,), (SZ, SX), (SZ, SX, SY)], ids=["z", "zx", "zxy"]
    )
    def test_fields_match_a_solve_against_chi(self, observables, rng):
        # the reference solves chi F = excess with the excess read as
        # tr(X_j (rho_S - Tr_env rho0)); mori_fields applies the stored chi^-1
        # to the Bloch-vector form of the same excess
        prep = MoriLinearResponse(MODEL, observables)
        rho0_s = partial_trace(prep.rho0, keep=0)
        for _ in range(20):
            s = qubit_bloch(rho0_s) + 0.05 * rng.uniform(-1.0, 1.0, 3)
            rho_s = reduced_from_bloch(s)
            excess = np.array([np.trace(x @ (rho_s - rho0_s)).real for x in observables])
            reference = np.linalg.solve(prep.chi, excess)
            gap = np.linalg.norm(mori_fields(prep, rho_s) - reference)
            assert gap <= 1e-15 * np.linalg.norm(reference)

    def test_blow_up_validates_the_state_twice(self, monkeypatch):
        # blow_up checks rho_S once and mori_fields once (reached through
        # mori_blow_up); the trust-region warning fires from mori_blow_up
        prep = MoriLinearResponse(ModelParams(1.0, 1.0, 1.0), (SZ,))
        calls = []
        original = spinprep.linalg.validate_density

        def counting(rho):
            calls.append(rho)
            return original(rho)

        monkeypatch.setattr(spinprep.linalg, "validate_density", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ExtrapolationWarning)
            blow_up(prep, z_state(0.03))
        assert len(calls) == 2
        calls.clear()
        with pytest.warns(ExtrapolationWarning):
            blow_up(prep, z_state(0.5))
        assert len(calls) == 2
        with pytest.warns(ExtrapolationWarning):
            mori_blow_up(prep, z_state(0.5))


class TestFactorizeAndWait:
    def test_bad_waiting_time(self):
        with pytest.raises(ValueError):
            FactorizeAndWait(MODEL, 0.0, 0.0, ID2 / 2)

    @pytest.mark.parametrize(
        "rho_b0, error, message",
        [
            (
                np.diag([1.5, -0.5]),
                ValidationError,
                "rho_B0 is not a valid density matrix (hermiticity defect 0.000e+00, "
                "trace defect 0.000e+00, min eigenvalue -5.000e-01)",
            ),
            (np.eye(4) / 4, DimensionError, "rho_B0 must be 2x2, got (4, 4)"),
        ],
        ids=["not-a-state", "4x4"],
    )
    def test_environment_state_is_checked(self, rho_b0, error, message):
        with pytest.raises(error) as err:
            FactorizeAndWait(MODEL, Fz_wait=0.0, t0=0.7, rho_B0=rho_b0)
        assert str(err.value) == message

    def test_trace_back_inside_range(self):
        from spinprep import factorizing_propagator

        model = ModelParams(1.0, 1.0, 1.0)
        prep = FactorizeAndWait(model, Fz_wait=0.0, t0=0.7, rho_B0=ID2 / 2)
        g_map = factorizing_propagator(propagator(hamiltonian(model, 0.0), 0.7), ID2 / 2)
        for s1z in np.linspace(-0.9, 0.9, 11):
            rho_s = g_map.apply(z_state(s1z))  # in range by construction
            total = blow_up(prep, rho_s)
            assert validate_density(total).ok
            assert np.linalg.norm(partial_trace(total, keep=0) - rho_s) < 1e-10

    def test_singular_wait_is_not_invertible(self):
        # H = g sx sx and rho_B0 = 1/2 give G = diag(1, cos 2g t0, cos 2g t0),
        # singular at t0 = pi/4 for g = 1
        with pytest.raises(NonInvertibleError, match="^Bloch block of the propagator") as err:
            FactorizeAndWait(ModelParams(1.0, 0.0, 1.0), Fz_wait=0.0, t0=math.pi / 4, rho_B0=ID2 / 2)
        assert err.value.condition_number > 1e12

    def test_near_pure_state_leaves_domain(self):
        model = ModelParams(1.0, 1.0, 1.0)
        prep = FactorizeAndWait(model, Fz_wait=0.3, t0=0.7, rho_B0=ID2 / 2)
        with pytest.raises(PreparationDomainError):
            blow_up(prep, z_state(0.999))


def _equilibrium_case():
    prep = Equilibrium(MODEL)
    return prep, z_state(0.6), prep, reduced_from_bloch(np.array([0.3, 0.0, 0.2]))


def _factorizing_case():
    # a product preparation reaches every state; an environment state changed
    # to trace 1.001 after construction puts every state out of its reach
    rho_b = partial_trace(equilibrium_state(MODEL, 0.0), keep=1)
    broken = Factorizing(rho_b)
    object.__setattr__(broken, "rho_B", 1.001 * rho_b)
    inside = reduced_from_bloch(np.array([0.3, -0.2, 0.5]))
    return Factorizing(rho_b), inside, broken, inside


def _sandwich_case():
    prep = OperatorSandwich(MODEL, 0.7, ((UP, UP), (DOWN, DOWN)))
    state, _ = operator_sandwich_state(MODEL, 0.7, prep.ops)
    return prep, partial_trace(state, keep=0), prep, z_state(0.9)


def _factorize_and_wait_case():
    prep = FactorizeAndWait(MODEL, Fz_wait=0.0, t0=0.7, rho_B0=ID2 / 2)
    return prep, prep.G.apply(z_state(0.6)), prep, z_state(0.999)


def _mori_case():
    prep = MoriLinearResponse(MODEL, (SZ,))
    return prep, z_state(0.02), prep, reduced_from_bloch(np.array([0.02, 0.0, 0.0]))


# each case: (preparation, state in its domain, preparation, state out of its reach)
TRACE_BACK_CASES = {
    "equilibrium": _equilibrium_case,
    "factorizing": _factorizing_case,
    "operator-sandwich": _sandwich_case,
    "factorize-and-wait": _factorize_and_wait_case,
    "mori": _mori_case,
}


class TestTraceBackContract:
    @pytest.mark.parametrize("name", sorted(TRACE_BACK_CASES))
    def test_in_domain_traces_back_and_out_of_reach_raises(self, name):
        prep, inside, outside_prep, outside = TRACE_BACK_CASES[name]()
        total = blow_up(prep, inside)
        assert validate_density(total).ok
        assert np.linalg.norm(partial_trace(total, keep=0) - inside) <= TRACE_BACK_ATOL
        with pytest.raises(PreparationDomainError):
            blow_up(outside_prep, outside)

    def test_wrong_waiting_inverse_is_caught(self):
        # a slightly wrong G_inv still gives a valid pre-wait state, but the
        # re-run wait no longer lands on rho_S
        prep = FactorizeAndWait(MODEL, Fz_wait=0.0, t0=0.7, rho_B0=ID2 / 2)
        rho_s = prep.G.apply(z_state(0.6))
        blow_up(prep, rho_s)
        wrong = ReducedAffineMap(prep.G_inv.bloch * (1.0 + 1e-6), prep.G_inv.offset)
        object.__setattr__(prep, "G_inv", wrong)
        with pytest.raises(PreparationDomainError):
            blow_up(prep, rho_s)

    def test_nan_gap_fails(self):
        prep = Factorizing(ID2 / 2)
        object.__setattr__(prep, "rho_B", np.full((2, 2), np.nan))
        with pytest.raises(PreparationDomainError):
            blow_up(prep, z_state(0.5))


class TestAffineInvariantsBuiltOnce:
    def test_blow_ups_reuse_construction_invariants(self, monkeypatch):
        # rho0, K_j and chi (Mori), u_wait, G and G^-1 (factorize-and-wait) and
        # the sandwich state depend only on the model: built when the
        # preparation is, never per state.  propagator is counted in both
        # namespaces: G is read off u_wait, so construction makes one
        # exp(-i H t0), not a second one inside factorizing_propagator
        names = (
            "kubo_integral",
            "factorizing_propagator",
            "invert_propagator",
            "propagator",
            "operator_sandwich_state",
        )
        targets = [(spinprep.prepare, name) for name in names] + [(spinprep.evolve, "propagator")]
        calls = []
        for module, name in targets:
            original = getattr(module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        model = ModelParams(1.0, 1.0, 1.0)
        mori = MoriLinearResponse(model, (SZ,))
        faw = FactorizeAndWait(model, Fz_wait=0.0, t0=0.7, rho_B0=ID2 / 2)
        sandwich = OperatorSandwich(model, 0.7, ((UP, UP), (DOWN, DOWN)))
        assert sorted(calls) == sorted(names)
        calls.clear()
        own = partial_trace(sandwich.state, keep=0)
        for s1z in np.linspace(-0.9, 0.9, 20):
            blow_up(mori, z_state(0.03 * s1z))
            blow_up(faw, faw.G.apply(z_state(s1z)))
            blow_up(sandwich, own)
        assert calls == []

    def test_factorize_and_wait_reruns_the_wait(self):
        # u_wait (G^-1(rho_S) (x) rho_B0) u_wait^dagger is the evolution of the
        # pre-wait product state under H(Fz_wait) for t0
        model = ModelParams(1.0, 1.0, 1.5)
        rho_b = partial_trace(equilibrium_state(model, 0.4), keep=1)
        prep = FactorizeAndWait(model, Fz_wait=0.3, t0=1.3, rho_B0=rho_b)
        u_wait = propagator(hamiltonian(model, 0.3), 1.3)
        for s1z in np.linspace(-0.9, 0.9, 7):
            rho_s = prep.G.apply(reduced_from_bloch(np.array([0.2, -0.1, s1z]) * 0.95))
            direct = evolve_total(kron(prep.G_inv.apply(rho_s), rho_b), u_wait)
            assert_close(blow_up(prep, rho_s), direct, 1e-14, "factorize-and-wait blow-up")


def _held_arrays(value, prefix=""):
    """Every array a preparation or an affine map holds, by attribute path."""
    held = {}
    for name, item in vars(value).items():
        if isinstance(item, np.ndarray):
            held[prefix + name] = item
        elif isinstance(item, ReducedAffineMap):
            held.update(_held_arrays(item, prefix + name + "."))
    return held


class TestStoredValues:
    # a preparation sends each rho_S to one total state as long as it exists:
    # every array it holds is a read-only copy, the caller's operators and
    # environment state included

    @pytest.mark.parametrize(
        "build, shapes",
        [
            (lambda: Equilibrium(MODEL), {}),
            (lambda: Factorizing([[0.5, 0.0], [0.0, 0.5]]), {"rho_B": (2, 2)}),
            (
                lambda: OperatorSandwich(MODEL, 0.7, ((UP, UP / 2), (UP, UP / 2), (DOWN, DOWN))),
                {"ops": (3, 2, 2, 2), "state": (4, 4)},
            ),
            (
                lambda: FactorizeAndWait(MODEL, Fz_wait=0.0, t0=0.7, rho_B0=np.eye(2) / 2),
                {"rho_B0": (2, 2), "u_wait": (4, 4), "G.bloch": (3, 3), "G.offset": (3,),
                 "G_inv.bloch": (3, 3), "G_inv.offset": (3,)},
            ),
            (
                lambda: MoriLinearResponse(MODEL, (SZ, SX, SY)),
                {"observables": (3, 2, 2), "rho0": (4, 4), "kubo": (3, 4, 4), "chi": (3, 3),
                 "chi_inv": (3, 3), "bloch_rows": (3, 3), "s0": (3,)},
            ),
        ],
        ids=["equilibrium", "factorizing", "operator-sandwich", "factorize-and-wait", "mori"],
    )
    def test_every_held_array_is_read_only(self, build, shapes):
        # one array per name, the operators stacked: (n, 2, 2, 2) pairs,
        # (n, 2, 2) observables and their (n, 4, 4) Kubo operators
        held = _held_arrays(build())
        assert {path: stored.shape for path, stored in held.items()} == shapes
        for stored in held.values():
            with pytest.raises(ValueError, match="read-only"):
                stored[(0,) * stored.ndim] = 0.0
        assert all(held[path].dtype == complex for path in ("rho_B", "rho_B0", "ops", "observables") if path in held)

    @pytest.mark.parametrize("wrong", [np.eye(4), np.eye(3)], ids=["4x4", "3x3"])
    def test_an_operator_that_is_not_2x2_is_a_dimension_error(self, wrong):
        # every operator is checked before the stacked copy is made, also one
        # whose shape would not stack with the others
        with pytest.raises(DimensionError):
            OperatorSandwich(MODEL, 0.7, ((UP, UP), (wrong, wrong)))
        with pytest.raises(DimensionError):
            MoriLinearResponse(MODEL, (SZ, wrong))

    def test_editing_a_sandwich_operator_leaves_recipe_and_state_agreeing(self):
        up, down = UP.copy(), DOWN.copy()
        prep = OperatorSandwich(MODEL, 0.7, ((up, up), (down, down)))
        up[0, 0] = 0.5
        state, report = operator_sandwich_state(prep.model, prep.Fz, prep.ops)
        assert report.ok
        assert np.array_equal(state, prep.state)

    def test_editing_an_observable_leaves_recipe_and_chi_agreeing(self):
        obs = np.array(SZ, dtype=complex)
        prep = MoriLinearResponse(MODEL, (obs,))
        obs[0, 0] = 7.0
        assert np.array_equal(susceptibility(prep.model, prep.observables), prep.chi)

    @pytest.mark.parametrize("kind", ["factorizing", "factorize-and-wait"])
    def test_editing_the_environment_state_changes_no_blow_up(self, kind):
        # the caller's array, edited after construction, is not the one the
        # preparation holds: no later blow-up moves, and G still matches it
        rho_b = np.eye(2) / 2
        if kind == "factorizing":
            prep = Factorizing(rho_b)
            rho_s = np.diag([0.6, 0.4])
        else:
            prep = FactorizeAndWait(ModelParams(1.0, 1.0, 1.0), 0.0, 0.7, rho_b)
            rho_s = prep.G.apply(np.diag([0.6, 0.4]))
        before = blow_up(prep, rho_s)
        rho_b[0, 0] = 5.0
        after = blow_up(prep, rho_s)
        assert np.array_equal(after, before)
