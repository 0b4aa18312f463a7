import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
import scipy.linalg

from spinprep import (
    DimensionError,
    DomainError,
    EquilibriumCurvePoint,
    ModelParams,
    analytic_spectrum,
    bloch_decompose,
    energies,
    equilibrium_observables,
    equilibrium_state,
    hamiltonian,
    herm_eig,
    kron,
    partial_trace,
    qubit_bloch,
    reduced_from_bloch,
)
from spinprep.model import ID2, PAULIS, SZ, _equilibrium_kernel, reduced_from_bloch_unchecked

from conftest import assert_close, bits, random_density

# (beta, e, g, Fz) of the points whose closed-form bits are pinned in KERNEL_BITS
KERNEL_POINTS = {
    "canonical": (1.0, 1.0, 1.0, 0.7),
    "below-cutoff": (1.0, 1.0, 1.5, math.sqrt(349.9**2 - 1.5**2) - 1.0),
    "above-cutoff": (1.0, 1.0, 1.5, math.sqrt(350.1**2 - 1.5**2) - 1.0),
    "beta-E-700": (2.0, 1.0, 1.5, 0.5 * math.sqrt(700.0**2 - 3.0**2) - 1.0),
    "g0-Fz-e": (1.0, 1.0, 0.0, 1.0),
    "g0-Fz-minus-e": (1.0, 1.0, 0.0, -1.0),
    "zero": (1.0, 0.0, 0.0, 0.0),
    "sinhc-series": (1.0, 3e-5, 2e-5, -1e-5),
}

# S1z, S2z, Cxx, Cyy, Czz as float.hex, signs of zeros included, recorded
# from the half-sum/half-difference kernel: a rewrite that moves a bit must
# say so.  The points cover |beta E3| = 349.9, 350.1 and 700 (large
# exponents), g = 0 with Fz = +-e (one energy exactly zero), the all-zero
# model and the sinhc series.
KERNEL_BITS = {
    "canonical": (
        "0x1.04e2cec7b3c32p-1", "-0x1.4a7fa3dd62184p-1", "-0x1.21f52a81ddb06p-1",
        "-0x1.cf5321ccc4a38p-4", "-0x1.92678424ce4ccp-2",
    ),
    "below-cutoff": (
        "0x1.fffecb3ee47c6p-1", "-0x1.85ee3eaf037a7p-1", "-0x1.192430d34dbc0p-8",
        "-0x1.ab8cfe6dea14cp-9", "-0x1.85ef2914d5282p-1",
    ),
    "above-cutoff": (
        "0x1.fffecb993c89fp-1", "-0x1.85ee3f19ae748p-1", "-0x1.18fb0c1584dacp-8",
        "-0x1.ab4e863f61869p-9", "-0x1.85ef293b062acp-1",
    ),
    "beta-E-700": (
        "0x1.fffecbc8207d3p-1", "-0x1.ed93b11541250p-1", "-0x1.18e5c9765eae6p-8",
        "-0x1.0ebc537a32edep-8", "-0x1.ed94da16896f8p-1",
    ),
    "g0-Fz-e": (
        "0x1.85efab514f394p-1", "-0x1.85efab514f394p-1", "-0x0.0p+0",
        "-0x0.0p+0", "-0x1.28f91f83379ddp-1",
    ),
    "g0-Fz-minus-e": (
        "-0x1.85efab514f394p-1", "-0x1.85efab514f394p-1", "-0x0.0p+0",
        "0x0.0p+0", "0x1.28f91f83379ddp-1",
    ),
    "zero": (
        "0x0.0p+0", "0x0.0p+0", "-0x0.0p+0",
        "0x0.0p+0", "-0x0.0p+0",
    ),
    "sinhc-series": (
        "-0x1.4f8b588d465e0p-17", "-0x1.f75104d1a916fp-16", "-0x1.4f8b588b96058p-16",
        "0x1.203afb7e90ffap-49", "0x1.49da7e3387c32p-32",
    ),
}

_REFERENCE_CONTEXT = decimal.Context(prec=60, Emax=10**8, Emin=-(10**8))


def _decimal_reference(beta, e, g, fz):
    """S1z, S2z, Cxx, Cyy, Czz to 60 digits from the textbook closed form.

    The float inputs are converted exactly; sinh and cosh are built from
    Decimal.exp, whose exponent range holds exp(2e5) and more.
    """
    with decimal.localcontext(_REFERENCE_CONTEXT):
        beta, e, g, fz = (Decimal(v) for v in (beta, e, g, fz))
        x = -beta * ((fz - e) ** 2 + g**2).sqrt()
        y = -beta * ((fz + e) ** 2 + g**2).sqrt()

        def cosh(a):
            return (a.exp() + (-a).exp()) / 2

        def sinhc(a):
            return Decimal(1) if a == 0 else (a.exp() - (-a).exp()) / (2 * a)

        den = cosh(x) + cosh(y)
        f_plus = (sinhc(x) + sinhc(y)) / den
        f_minus = (sinhc(x) - sinhc(y)) / den
        return (
            beta * (fz * f_plus - e * f_minus),
            beta * (fz * f_minus - e * f_plus),
            -beta * g * f_plus,
            beta * g * f_minus,
            (cosh(x) - cosh(y)) / den,
        )


class TestHamiltonian:
    def test_explicit_matrix(self):
        # basis |11>, |10>, |01>, |00> with sigma_z |1> = +|1>
        e, g, fz = 1.3, 0.7, 0.4
        expected = np.array(
            [
                [-fz + e, 0, 0, g],
                [0, -fz - e, g, 0],
                [0, g, fz + e, 0],
                [g, 0, 0, fz - e],
            ],
            dtype=complex,
        )
        assert_close(hamiltonian(ModelParams(1.0, e, g), fz), expected, 1e-15, "H matrix")

    def test_uncoupled_field_free_spectrum(self):
        w, _ = herm_eig(hamiltonian(ModelParams(1.0, 1.0, 0.0), 0.0))
        assert_close(w, [-1.0, -1.0, 1.0, 1.0], 1e-14, "spectrum at e=1, g=0, Fz=0")

    def test_all_couplings_off(self):
        assert np.array_equal(hamiltonian(ModelParams(1.0, 0.0, 0.0), 0.0), np.zeros((4, 4)))

    def test_closed_form_eigenvalues(self):
        # E = +-sqrt((Fz -+ e)^2 + g^2) at e=1, g=1, Fz=2
        w, _ = herm_eig(hamiltonian(ModelParams(1.0, 1.0, 1.0), 2.0))
        expected = np.sort([math.sqrt(2), -math.sqrt(2), math.sqrt(10), -math.sqrt(10)])
        assert_close(w, expected, 1e-12, "closed-form eigenvalues")
        assert_close(
            np.sort(energies(ModelParams(1.0, 1.0, 1.0), 2.0)), expected, 1e-15, "energies()"
        )

    def test_entry_beyond_the_largest_double_is_a_domain_error(self):
        # the diagonal holds -Fz -+ e: finite parameters, an overflowing sum
        for e, fz in ((-1e308, 1e308), (1e308, 1e308), (1e308, -1e308)):
            with pytest.raises(DomainError, match="overflows"):
                hamiltonian(ModelParams(1.0, e, 0.0), fz)
        assert np.isfinite(hamiltonian(ModelParams(1.0, 1e308, 1e308), 0.0)).all()

    def test_bad_params_rejected(self):
        with pytest.raises(DomainError):
            ModelParams(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            ModelParams(1.0, math.inf, 0.0)


class TestAnalyticSpectrum:
    def test_projector_completeness(self):
        _, projs = analytic_spectrum(ModelParams(1.0, 1.0, 1.5), 0.7)
        assert_close(sum(projs), np.eye(4), 1e-13, "sum of projectors")

    def test_reconstruction_on_field_grid(self):
        p = ModelParams(1.0, 1.0, 1.5)
        for fz in np.linspace(-3.0, 3.0, 21):
            vals, projs = analytic_spectrum(p, fz)
            h = hamiltonian(p, fz)
            assert np.linalg.norm(sum(e * proj for e, proj in zip(vals, projs)) - h) < 1e-12
            w, _ = herm_eig(h)
            assert_close(np.sort(vals), w, 1e-12, f"spectrum vs eigensolver at Fz={fz}")

    def test_projectors_rank_one(self):
        vals, projs = analytic_spectrum(ModelParams(1.0, 0.8, 1.2), -1.1)
        for proj in projs:
            assert np.linalg.norm(proj @ proj - proj) < 1e-12
            assert abs(np.trace(proj) - 1.0) < 1e-12
            assert np.abs(proj - proj.conj().T).max() < 1e-13

    def test_field_reflection_swaps_sectors(self):
        p = ModelParams(1.0, 1.0, 1.5)
        for fz in (0.3, 1.0, 2.7):
            assert abs(energies(p, -fz)[0] - energies(p, fz)[2]) < 1e-15

    def test_degenerate_point_handled(self):
        # g = 0 and Fz = +-e make a pair of energies vanish (all four at
        # e = Fz = 0); the closed-form projectors divide by the energy there,
        # so the g -> 0 limit must take over.
        for e, g, fz in ((1.0, 0.0, 1.0), (1.0, 0.0, -1.0), (0.0, 0.0, 0.0)):
            p = ModelParams(1.0, e, g)
            vals, projs = analytic_spectrum(p, fz)
            h = hamiltonian(p, fz)
            assert np.linalg.norm(sum(en * proj for en, proj in zip(vals, projs)) - h) < 1e-12
            assert_close(sum(projs), np.eye(4), 1e-12, "completeness at degeneracy")
            for proj in projs:
                assert np.linalg.norm(proj @ proj - proj) < 1e-12
            # degenerate-basis convention: within a degenerate pair the first
            # projector has the larger <sigma1_z>
            s1z = [float(np.trace(proj @ kron(SZ, ID2)).real) for proj in projs]
            for i in (0, 2):
                if vals[i] == vals[i + 1]:
                    assert s1z[i] > s1z[i + 1]
            # E1, E2 project into the even sector of sigma1_z sigma2_z, E3, E4 the odd
            parity = [float(np.trace(proj @ kron(SZ, SZ)).real) for proj in projs]
            assert_close(parity, [1.0, 1.0, -1.0, -1.0], 1e-12, "sector of each projector")


def f_plus_minus(x, y):
    # F+(x, y) and F-(x, y) of the closed form's kernel, with the
    # half-difference d = (x - y)/2 formed directly
    return _equilibrium_kernel(x, y, 0.5 * (x - y))[:2]


class TestEquilibriumKernel:
    def test_antisymmetric_at_equal_arguments(self):
        for x in (0.2, 1.0, 3.7):
            assert f_plus_minus(x, x)[1] == 0.0

    def test_equal_argument_plus_reduces_to_tanh(self):
        assert abs(f_plus_minus(1.0, 1.0)[0] - math.tanh(1.0) / 1.0) < 1e-14

    def test_swap_symmetry(self):
        x, y = 0.3, 1.7
        (plus_xy, minus_xy), (plus_yx, minus_yx) = f_plus_minus(x, y), f_plus_minus(y, x)
        assert abs(plus_xy - plus_yx) < 1e-14
        assert abs(minus_xy + minus_yx) < 1e-14

    def test_small_argument_series_is_smooth(self):
        # series kicks in below 1e-4; both branches must agree with the raw formula
        for x in (0.99e-4, 1.01e-4):
            raw = (math.sinh(x) / x + math.sinh(0.5) / 0.5) / (math.cosh(x) + math.cosh(0.5))
            assert abs(f_plus_minus(x, 0.5)[0] - raw) < 1e-15

    def test_zero_argument_finite(self):
        # limit sinh(x)/x -> 1
        expected = (1.0 + math.sinh(2.0) / 2.0) / (1.0 + math.cosh(2.0))
        assert abs(f_plus_minus(0.0, 2.0)[0] - expected) < 1e-14

    def test_scaled_evaluation_matches_direct(self):
        # at 400 tanh of the half-sum and half-difference both round to 1,
        # but the naive formula is still inside double range and must agree
        x, y = 400.0, 2.0
        direct = (math.sinh(x) / x + math.sinh(y) / y) / (math.cosh(x) + math.cosh(y))
        assert abs(f_plus_minus(x, y)[0] - direct) < 1e-15
        huge = f_plus_minus(2000.0, 3.0)[0]  # would overflow naively
        assert 0.0 < huge < 1.0


class TestEquilibriumObservables:
    @pytest.mark.parametrize("e, g, fz", [(1.0, 0.5, 0.25), (0.0, 0.0, 0.0), (1e308, -2.0, -0.0)])
    def test_returns_an_equilibrium_curve_point(self, e, g, fz):
        p = equilibrium_observables(ModelParams(1.0, e, g), fz)
        assert type(p) is EquilibriumCurvePoint
        assert len(p) == 6 and p._fields == ("Fz", "S1z", "S2z", "Cxx", "Cyy", "Czz")
        assert p.Fz is fz
        assert p == EquilibriumCurvePoint(*p)

    def test_zero_field_parity_zeros(self):
        for e, g in ((1.0, 0.5), (0.3, 2.0), (2.0, 0.0)):
            p = equilibrium_observables(ModelParams(1.0, e, g), 0.0)
            assert abs(p.S1z) < 1e-15
            assert abs(p.Czz) < 1e-15

    def test_uncoupled_environment_spin(self):
        # g = 0: the environment spin decouples with H2 = e sigma_z, so
        # S2z = -tanh(beta e) whatever the field; the system spin is free,
        # S1z = tanh(beta Fz).
        model = ModelParams(1.0, 1.0, 0.0)
        for fz in (-2.0, 0.0, 0.7, 3.0):
            p = equilibrium_observables(model, fz)
            assert abs(p.S2z + math.tanh(1.0)) < 1e-14
            assert abs(p.S1z - math.tanh(fz)) < 1e-14

    @pytest.mark.parametrize("beta_g", [0.0, 0.5, 1.0, 1.5])
    def test_matches_matrix_exponential(self, beta_g):
        model = ModelParams(1.0, 1.0, beta_g)
        for fz in np.linspace(-5.0, 5.0, 41):
            rho = scipy.linalg.expm(-hamiltonian(model, fz))
            rho /= np.trace(rho).real
            b = bloch_decompose(rho)
            p = equilibrium_observables(model, fz)
            assert abs(b.s1[2] - p.S1z) < 1e-10
            assert abs(b.s2[2] - p.S2z) < 1e-10
            assert abs(b.c[0, 0] - p.Cxx) < 1e-10
            assert abs(b.c[1, 1] - p.Cyy) < 1e-10
            assert abs(b.c[2, 2] - p.Czz) < 1e-10
            # everything else vanishes
            assert np.abs(b.s1[:2]).max() < 1e-12
            assert np.abs(b.s2[:2]).max() < 1e-12
            off_diag = b.c - np.diag(np.diag(b.c))
            assert np.abs(off_diag).max() < 1e-12

    def test_parity_in_the_field(self):
        model = ModelParams(1.0, 1.0, 1.5)
        for fz in np.linspace(0.0, 4.0, 9):
            plus = equilibrium_observables(model, fz)
            minus = equilibrium_observables(model, -fz)
            assert abs(plus.S1z + minus.S1z) < 1e-12
            assert abs(plus.Cxx - minus.Cxx) < 1e-12

    def test_parity_in_the_field_is_bitwise(self):
        # field inversion evaluates at the signed field and iterates on
        # sign(target) S1z, so its iterates depend on S1z being odd to the
        # last bit; Cyy, odd too, may differ in the sign of a zero
        rng = np.random.default_rng(20261018)
        signed = lambda lo, hi: float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(lo, hi))
        for k in range(4000):
            beta, e, g, fz = 10.0 ** rng.uniform(-3.0, 3.0), signed(-3, 2), signed(-3, 2), signed(-8, 3)
            if k % 4 == 1:
                g = 0.0
            elif k % 4 == 2:
                e = math.copysign(1e5 / beta, e)  # beta e = 1e5
            elif k % 4 == 3:
                fz = e  # and at k % 8 == 7 also g = 0: an energy is exactly 0
                g = 0.0 if k % 8 == 7 else g
            model = ModelParams(beta, e, g)
            for f in (fz, -fz):
                plus, minus = equilibrium_observables(model, f), equilibrium_observables(model, -f)
                for name in ("Fz", "S1z", "Czz"):
                    assert bits([getattr(minus, name)]) == bits([-getattr(plus, name)]), (model, f)
                for name in ("S2z", "Cxx"):
                    assert bits([getattr(minus, name)]) == bits([getattr(plus, name)]), (model, f)
                assert minus.Cyy == -plus.Cyy, (model, f)

    def test_monotone_and_slope_ordering(self):
        grid = np.linspace(-5.0, 5.0, 201)
        slopes = []
        for beta_g in (0.5, 1.0, 1.5):
            model = ModelParams(1.0, 1.0, beta_g)
            s1z = np.array([equilibrium_observables(model, f).S1z for f in grid])
            assert np.all(np.diff(s1z) > 0.0)
            h = 1e-5
            slopes.append(
                (equilibrium_observables(model, h).S1z - equilibrium_observables(model, -h).S1z)
                / (2 * h)
            )
        assert slopes[0] > slopes[1] > slopes[2]

    def test_observables_bounded(self):
        model = ModelParams(1.0, 1.0, 1.5)
        for fz in np.linspace(-8.0, 8.0, 33):
            p = equilibrium_observables(model, fz)
            for value in p[1:]:
                assert abs(value) <= 1.0 + 1e-10

    @pytest.mark.parametrize("point", KERNEL_POINTS)
    def test_bit_identical_to_three_pass_evaluation(self, point):
        beta, e, g, fz = KERNEL_POINTS[point]
        p = equilibrium_observables(ModelParams(beta, e, g), fz)
        assert tuple(float(v).hex() for v in p[1:]) == KERNEL_BITS[point]
        assert bits([p.Fz]) == bits([fz])

    @pytest.mark.parametrize(
        "beta, e, g, fz",
        [
            *(pytest.param(*args, id=name) for name, args in KERNEL_POINTS.items()),
            # g >> e makes x and y nearly equal: a difference of the two
            # rounded energies would cost Cxx and Cyy most of their digits
            pytest.param(1407.6, 0.09687, 35.52, -0.09687, id="g-much-larger-than-e"),
            # near S1z = -0.6289, where the field inversion used to fail
            pytest.param(1797.6, 16.91, 0.0834, -4.1144635817544806e-4, id="large-beta-e"),
            # beta e = 1e5, g = 0: |x| < 1 while |s| ~ 1e5, so sech underflows
            pytest.param(100.0, 1000.0, 0.0, 1000.0, id="beta-e-1e5-Fz-e"),
            pytest.param(100.0, 1000.0, 0.0, -1000.0, id="beta-e-1e5-Fz-minus-e"),
            pytest.param(100.0, 1000.0, 0.0, 1000.001, id="beta-e-1e5-small-x"),
        ],
    )
    def test_matches_60_digit_reference(self, beta, e, g, fz):
        p = equilibrium_observables(ModelParams(beta, e, g), fz)
        reference = _decimal_reference(beta, e, g, fz)
        gaps = [abs(float(Decimal(v) - r)) for v, r in zip(p[1:], reference)]
        assert max(gaps) <= 1e-15, dict(zip(p._fields[1:], gaps))

    @pytest.mark.parametrize(
        "beta_g, fz_min, fz_max, steps",
        [
            (0.0, -40.0, 40.0, 201),  # tanh saturates at both ends
            (1.5, 1.0, 1.000000000000001, 50),  # field steps below an ulp
            (0.5, -5.0, 5.0, 41),
        ],
    )
    def test_s1z_on_a_sweep_grid_is_within_the_roundoff_of_the_monotonicity_gate(
        self, beta_g, fz_min, fz_max, steps
    ):
        # sweep-bloch treats a drop of S1z down to 2e-15 between two grid
        # points as roundoff: twice this bound on the error of one S1z
        for fz in np.linspace(fz_min, fz_max, steps).tolist():
            s1z = equilibrium_observables(ModelParams(1.0, 1.0, beta_g), fz).S1z
            exact = _decimal_reference(1.0, 1.0, beta_g, fz)[0]
            assert abs(float(Decimal(s1z) - exact)) <= 1e-15, fz

    @pytest.mark.parametrize("e", [1e308, -1e308])
    @pytest.mark.parametrize("g", [0.0, 1.5])
    def test_finite_where_the_energies_sum_beyond_the_largest_double(self, e, g):
        # |E1| + |E3| overflows here, and 2e / (|E1| + |E3|) was inf / inf =
        # nan.  Against a splitting of 1e308 the coupling is nothing: the
        # environment spin is frozen against e, and the system spin is free
        for fz in (0.0, 0.5, -5.0, 1e300):
            p = equilibrium_observables(ModelParams(1.0, e, g), fz)
            assert all(math.isfinite(v) for v in p), p
            frozen = -math.copysign(1.0, e)
            assert abs(p.S2z - frozen) <= 1e-15
            assert abs(p.S1z - math.tanh(fz)) <= 1e-15
            assert abs(p.Czz - frozen * math.tanh(fz)) <= 1e-15

    @pytest.mark.parametrize(
        "beta, e, fz",
        [(1.0, 1.7976931348623157e308, 1e300), (1.0, 1e308, -1e308), (1e300, 1e10, 0.0)],
    )
    def test_an_overflowing_energy_is_a_domain_error(self, beta, e, fz):
        # beta |E3| = beta hypot(Fz + e, g) is beyond the largest double: the
        # closed form would read a wrong finite S1z (or nan), not a result
        with pytest.raises(DomainError, match="overflows"):
            equilibrium_observables(ModelParams(beta, e, 1.0), fz)


class TestBloch:
    def test_maximally_mixed(self):
        b = bloch_decompose(np.eye(4) / 4)
        assert np.abs(b.s1).max() == 0.0
        assert np.abs(b.s2).max() == 0.0
        assert np.abs(b.c).max() == 0.0

    def test_polarized_product(self):
        up = np.array([[1, 0], [0, 0]], dtype=complex)
        b = bloch_decompose(kron(up, ID2 / 2))
        assert np.array_equal(b.s1, [0.0, 0.0, 1.0])
        assert np.abs(b.s2).max() == 0.0
        assert np.abs(b.c).max() == 0.0

    def test_parseval_random_densities(self, rng):
        # the Pauli products are orthogonal, so
        # tr rho^2 = (1 + |s1|^2 + |s2|^2 + ||c||_F^2) / 4
        worst = 0.0
        for _ in range(100):
            rho = random_density(rng, 4)
            b = bloch_decompose(rho)
            norms = 1.0 + b.s1 @ b.s1 + b.s2 @ b.s2 + np.sum(b.c**2)
            worst = max(worst, abs(np.trace(rho @ rho).real - 0.25 * norms))
        assert worst < 1e-13

    def test_wrong_dimension(self):
        with pytest.raises(DimensionError):
            bloch_decompose(np.eye(2))

    @pytest.mark.parametrize(
        "convert, value",
        [(qubit_bloch, np.eye(4) / 4), (reduced_from_bloch, np.zeros(2))],
        ids=["qubit-bloch-of-4x4", "reduced-from-bloch-of-2-vector"],
    )
    def test_qubit_conversions_reject_other_shapes(self, convert, value):
        with pytest.raises(DimensionError):
            convert(value)

    def test_reduced_from_bloch_basics(self):
        assert_close(reduced_from_bloch(np.zeros(3)), ID2 / 2, 1e-15, "unpolarized")
        up = np.array([[1, 0], [0, 0]], dtype=complex)
        assert_close(reduced_from_bloch(np.array([0.0, 0.0, 1.0])), up, 1e-15, "pure up state")
        with pytest.raises(DomainError):
            reduced_from_bloch(np.array([0.8, 0.8, 0.8]))

    @pytest.mark.parametrize("s1", [[np.nan, 0.0, 0.0], [0.0, 0.0, np.inf]], ids=["nan", "inf"])
    def test_reduced_from_bloch_rejects_a_non_finite_vector(self, s1):
        with pytest.raises(DomainError):
            reduced_from_bloch(np.array(s1))

    def test_reduction_consistent_with_decomposition(self, rng):
        for _ in range(20):
            rho = random_density(rng, 4)
            b = bloch_decompose(rho)
            assert_close(
                partial_trace(rho, keep=0),
                reduced_from_bloch(b.s1),
                1e-12,
                "marginal vs Bloch vector",
            )

    def test_reduced_from_bloch_unchecked_equals_the_pauli_sum(self, rng):
        # the reference is the operator sum (1 + x sx + y sy + z sz) / 2
        def pauli_sum(s):
            rho = ID2.copy()
            for i in range(3):
                rho = rho + s[i] * PAULIS[i]
            return 0.5 * rho

        vectors = [rng.standard_normal(3) for _ in range(20)]  # in the ball or not
        for g in (0.0, 1.5):
            model = ModelParams(1.0, 1.0, g)
            for fz in (0.0, 5.0, -5.0, 1e300, -1e300):
                vectors.append(qubit_bloch(partial_trace(equilibrium_state(model, fz), keep=0)))
        for s in vectors:
            assert np.array_equal(reduced_from_bloch_unchecked(s), pauli_sum(s))

    def test_qubit_bloch_round_trip(self, rng):
        rho = random_density(rng, 2)
        assert_close(reduced_from_bloch(qubit_bloch(rho)), rho, 1e-13, "qubit round trip")

    def test_qubit_bloch_is_re_tr_rho_sigma(self, rng):
        # read off the entries, bit for bit the trace against each Pauli matrix
        for _ in range(50):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for rho in (a, a + a.conj().T):
                reference = np.array([np.trace(rho @ s).real for s in PAULIS])
                assert np.array_equal(qubit_bloch(rho), reference)
