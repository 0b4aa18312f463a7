import cmath
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.linalg

import spinprep
from spinprep import (
    DimensionError,
    ValidationError,
    herm_eig,
    kron,
    matrix_function,
    partial_trace,
    validate_density,
)
from spinprep.linalg import is_hermitian, require_density
from spinprep.model import ID2, SX, ModelParams, hamiltonian
from spinprep.prepare import equilibrium_state

from conftest import assert_close, random_density, random_hermitian


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(ID2, ID2), np.eye(4))

    def test_trace_multiplicative(self, rng):
        for _ in range(10):
            a = random_hermitian(rng, 2)
            b = random_hermitian(rng, 3)
            assert_close(
                np.trace(kron(a, b)), np.trace(a) * np.trace(b), 1e-12, "trace of product"
            )

    def test_sigma_x_pair_is_antidiagonal(self):
        # hand-expanded 4x4: the coupling term of the Hamiltonian divided by g
        expected = np.array(
            [
                [0, 0, 0, 1],
                [0, 0, 1, 0],
                [0, 1, 0, 0],
                [1, 0, 0, 0],
            ],
            dtype=complex,
        )
        assert np.array_equal(kron(SX, SX), expected)
        coupling = hamiltonian(ModelParams(1.0, 0.0, 2.5), 0.0) / 2.5
        assert_close(coupling, expected, 1e-15, "coupling term")

    @pytest.mark.parametrize("shapes", [((2, 2), (2, 2)), ((2, 2), (3, 3)), ((3, 2), (2, 3))])
    def test_bit_identical_to_numpy(self, rng, shapes):
        # the same products as np.kron, down to the sign of a zero
        signed_zeros = np.array([0.0, -0.0, 0.0j, -0.0 - 0.0j, complex(-0.0, 0.0)])
        for _ in range(20):
            a, b = (rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes)
            a.flat[rng.integers(a.size)] = rng.choice(signed_zeros)
            b.flat[rng.integers(b.size)] = rng.choice(signed_zeros)
            got, want = kron(a, b), np.kron(a, b)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_rejects_other_ranks(self):
        with pytest.raises(DimensionError):
            kron(np.ones(2), ID2)


def einsum_partial_trace(rho, keep: int) -> np.ndarray:
    """The index-contraction form of the two-qubit partial trace: the reference."""
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    return np.einsum("ikjk->ij", r) if keep == 0 else np.einsum("ikil->kl", r)


class TestPartialTrace:
    @pytest.mark.parametrize("keep", [0, 1])
    def test_strided_blocks_equal_the_contraction(self, rng, keep):
        # two strided 2x2 blocks add the same pairs of entries as the einsum
        general = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        operators = [random_density(rng, 4), general]
        for g in (0.0, 1.5):
            model = ModelParams(1.0, 1.0, g)
            operators += [equilibrium_state(model, fz) for fz in (0.0, 5.0, -5.0, 1e300, -1e300)]
        for rho in operators:
            assert np.array_equal(partial_trace(rho, keep=keep), einsum_partial_trace(rho, keep))

    def test_product_state(self, rng):
        rho_s = random_density(rng, 2)
        rho_b = random_density(rng, 2)
        assert_close(partial_trace(kron(rho_s, rho_b), keep=0), rho_s, 1e-12, "system marginal")
        assert_close(partial_trace(kron(rho_s, rho_b), keep=1), rho_b, 1e-12, "bath marginal")

    def test_bell_state(self):
        v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        bell = np.outer(v, v.conj())
        assert_close(partial_trace(bell, keep=0), ID2 / 2, 1e-14, "Bell marginal")

    def test_equilibrium_marginal_at_zero_field(self):
        # exp(-H)/Z with beta*e = beta*g = 1, F = 0: the system marginal is
        # (1 + S1z sigma_z)/2 with S1z = 0 because S1z is odd in the field.
        h = hamiltonian(ModelParams(1.0, 1.0, 1.0), 0.0)
        rho = scipy.linalg.expm(-h)
        rho /= np.trace(rho).real
        assert_close(partial_trace(rho, keep=0), ID2 / 2, 1e-12, "zero-field marginal")

    def test_linearity_beyond_densities(self, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert_close(
            partial_trace(kron(a, b), keep=0), a * np.trace(b), 1e-12, "partial trace linearity"
        )

    def test_trace_preserved_and_hermitian(self, rng):
        rho = random_density(rng, 4)
        reduced = partial_trace(rho, keep=0)
        assert abs(np.trace(reduced) - np.trace(rho)) < 1e-12
        assert np.abs(reduced - reduced.conj().T).max() < 1e-12

    def test_missing_dims_is_an_error(self, rng):
        # the layout is fixed at two qubits: anything but 4x4 is rejected
        with pytest.raises(DimensionError):
            partial_trace(random_density(rng, 8), keep=0)

    def test_keep_names_one_of_the_two_qubits(self, rng):
        with pytest.raises(DimensionError, match="keep must be 0"):
            partial_trace(random_density(rng, 4), keep=2)


class TestHermEig:
    def test_diagonal_input(self):
        w, v = herm_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.array_equal(w, [1.0, 2.0, 3.0])
        assert_close(v.conj().T @ v, np.eye(3), 1e-14, "unitarity")

    def test_pauli_x(self):
        w, _ = herm_eig(SX)
        assert_close(w, [-1.0, 1.0], 1e-14, "sigma_x spectrum")

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValidationError):
            herm_eig(np.array([[1.0, np.nan], [np.nan, 0.0]]))

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("entry", [np.inf, -np.inf, complex(0.0, np.inf)])
    def test_infinite_diagonal_rejected_without_warning(self, n, entry):
        # inf - conj(inf) is inf - inf: the defect is NaN, never a RuntimeWarning
        a = np.eye(n, dtype=complex)
        a[0, 0] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(validate_density(a).hermiticity_defect)
            assert not is_hermitian(a)
            with pytest.raises(ValidationError):
                herm_eig(a)

    def test_hermitian_part_does_not_overflow(self):
        # A + A^dagger overflows for g = 1e308; A/2 + A^dagger/2 is exact
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, v = herm_eig(hamiltonian(ModelParams(1.0, 1.0, 1e308), 0.0))
        assert_close(w / 1e308, [-1.0, -1.0, 1.0, 1.0], 1e-15, "eigenvalues / 1e308")
        assert np.isfinite(v).all()

    def test_against_lapack(self, rng):
        for n in (2, 3, 4, 5):
            a = random_hermitian(rng, n)
            w, v = herm_eig(a)
            assert_close(w, np.linalg.eigvalsh(a), 1e-12, "eigenvalues vs LAPACK")
            scale = 1.0 + np.linalg.norm(a)
            assert np.linalg.norm((v * w) @ v.conj().T - a) <= 1e-12 * scale
            assert np.abs(v.conj().T @ v - np.eye(n)).max() <= 1e-12
            # phase convention: the largest-magnitude component is real and positive
            lead = v[np.argmax(np.abs(v), axis=0), np.arange(n)]
            assert np.abs(lead.imag).max() <= 1e-15
            assert lead.real.min() > 0.0

    def test_deterministic(self, rng):
        a = random_hermitian(rng, 4)
        w1, v1 = herm_eig(a)
        w2, v2 = herm_eig(a)
        assert np.array_equal(w1, w2)
        assert np.array_equal(v1, v2)


class TestMatrixFunction:
    def test_zero_time_propagator(self, rng):
        h = random_hermitian(rng, 4)
        u = matrix_function(h, lambda w: np.exp(-1j * w * 0.0))
        assert_close(u, np.eye(4), 1e-14, "U(0)")

    def test_exponential_vs_scipy(self, rng):
        h = random_hermitian(rng, 4)
        assert_close(
            matrix_function(h, lambda w: np.exp(-w)),
            scipy.linalg.expm(-h),
            1e-12,
            "matrix exponential",
        )

    def test_propagator_unitary(self, rng):
        h = random_hermitian(rng, 4)
        u = matrix_function(h, lambda w: np.exp(-1j * w * 1.7))
        assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12

    def test_spectral_mapping(self, rng):
        a = random_hermitian(rng, 4)
        fa = matrix_function(a, np.tanh)
        w_f = np.sort(np.linalg.eigvalsh(fa))
        w = np.sort(np.tanh(np.linalg.eigvalsh(a)))
        assert_close(w_f, w, 1e-12, "spectral mapping")

    def test_unitary_preserves_trace(self, rng):
        h = random_hermitian(rng, 4)
        rho = random_density(rng, 4)
        u = matrix_function(h, lambda w: np.exp(-1j * w * 0.9))
        assert abs(np.trace(u @ rho @ u.conj().T) - np.trace(rho)) < 1e-12


class TestValidateDensity:
    def test_maximally_mixed_passes(self):
        assert validate_density(np.eye(4) / 4).ok

    def test_negative_eigenvalue_fails(self):
        report = validate_density(np.diag([1.5, -0.5]))
        assert not report.ok
        assert report.min_eigenvalue < -1e-10
        assert report.trace_defect < 1e-12

    def test_non_hermitian_fails(self):
        report = validate_density(np.array([[0.5, 0.5], [0.0, 0.5]]))
        assert not report.ok
        assert report.hermiticity_defect > 0.1
        # report-style also for non-finite input: no exception, not ok
        assert not validate_density(np.array([[np.nan, 0.0], [0.0, 1.0]])).ok

    @pytest.mark.parametrize(
        "n, index", [(2, (0, 0)), (2, (0, 1)), (2, (1, 1)), (4, (0, 0)), (4, (1, 2)), (4, (3, 0))]
    )
    @pytest.mark.parametrize(
        "entry",
        [
            np.inf,
            -np.inf,
            complex(0.0, np.inf),
            complex(np.inf, np.inf),
            np.nan,
            complex(0.0, np.nan),
            # finite parts whose modulus is beyond the largest double
            1.5e308 + 1.5e308j,
        ],
    )
    def test_non_finite_input_reads_nan_without_warning(self, n, index, entry):
        # one rule at every size: a non-finite max|rho| reads NaN in all
        # three fields, not ok
        rho = np.eye(n, dtype=complex) / n
        rho[index] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_density(rho)
        assert not report.ok
        assert math.isnan(report.hermiticity_defect)
        assert math.isnan(report.trace_defect)
        assert math.isnan(report.min_eigenvalue)

    @pytest.mark.parametrize("n", [2, 4])
    def test_trace_beyond_the_largest_double_reads_inf(self, n):
        # finite moduli whose trace |1.3e308 (1 + j) - 1| is beyond the
        # largest double: an inf trace defect, no OverflowError
        rho = np.zeros((n, n), dtype=complex)
        rho[0, 0], rho[1, 1] = 1.3e308, 1.3e308j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_density(rho)
        assert report.trace_defect == math.inf
        assert not report.ok

    def test_overflowing_hermitian_part_reads_its_true_eigenvalue(self):
        # b + conj(c) = 2e308 (1 - j) overflows; halved first, h = 1e308 (1 - j)
        rho = np.array([[0.5, 1e308 - 1e308j], [1e308 + 1e308j, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_density(rho)
        assert report.min_eigenvalue == 0.5 - math.hypot(1e308, 1e308)
        assert report.hermiticity_defect == 0.0
        assert not report.ok

    def test_overflowing_hermiticity_defect_reads_inf_without_warning(self):
        # finite entries whose gap |rho - rho^dagger| is beyond the largest double
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 0], rho[1, 1], rho[0, 1], rho[1, 0] = 1e308, -1e308, 1e308, -1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_density(rho)
            hermitian = is_hermitian(rho)
        assert report.hermiticity_defect == math.inf
        assert not hermitian
        assert not report.ok
        assert report.min_eigenvalue == -1e308

    def test_finite_hermiticity_defect_is_the_entrywise_maximum(self, rng):
        for scale in (1e-300, 1.0, 1e300):
            a = scale * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            assert validate_density(a).hermiticity_defect == float(np.abs(a - a.conj().T).max())

    @staticmethod
    def _reference(rho):
        # the generic definitions: entrywise |rho - rho^dagger| (as hypot),
        # |tr rho - 1| and LAPACK's smallest eigenvalue of the Hermitian part,
        # halved before the sum; all NaN where max|rho| is not finite
        if not np.isfinite(np.abs(rho)).all():
            return math.nan, math.nan, math.nan
        gap = rho - rho.conj().T
        herm = 0.5 * rho + 0.5 * rho.conj().T
        return (
            float(np.hypot(gap.real, gap.imag).max()),
            abs(complex(np.trace(rho)) - 1.0),
            float(np.linalg.eigvalsh(herm)[0]),
        )

    @staticmethod
    def _qubit_cases(rng):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        pure = np.outer(v, v.conj()) / np.vdot(v, v).real
        floor = 1e-10
        cases = {
            "maximally-mixed": np.eye(2) / 2,
            "pure": pure,
            "pure-basis": np.diag([1.0, 0.0]).astype(complex),
            "rank-deficient-offdiagonal": np.array([[0.5, 0.5j], [-0.5j, 0.5]]),
            "non-hermitian": np.array([[0.5, 0.5], [0.0, 0.5]]),
            "non-hermitian-diagonal": np.array([[0.5 + 1e-3j, 0.0], [0.0, 0.5]]),
            "just-above-floor": np.diag([1.0 + 0.5 * floor, -0.5 * floor]),
            "just-below-floor": np.diag([1.0 + 2.0 * floor, -2.0 * floor]),
            "nan": np.array([[np.nan, 0.0], [0.0, 1.0]]),
            "inf": np.array([[0.5, np.inf], [0.0, 0.5]]),
            "nan-imaginary": np.array([[0.5, complex(0.0, np.nan)], [0.0, 0.5]]),
        }
        for k in range(20):
            cases[f"random-mixed-{k}"] = random_density(rng, 2)
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            cases[f"random-matrix-{k}"] = g
        return cases

    def test_qubit_closed_form_matches_the_eigensolver(self, rng):
        for name, rho in self._qubit_cases(rng).items():
            report = validate_density(rho)
            h_defect, t_defect, min_eig = self._reference(rho)
            # equal, NaN included
            assert np.array_equal(report.hermiticity_defect, h_defect, equal_nan=True), name
            assert np.array_equal(report.trace_defect, t_defect, equal_nan=True), name
            if math.isnan(min_eig):
                assert math.isnan(report.min_eigenvalue), name
            else:
                tol = 1e-15 * (1.0 + float(np.abs(rho).max()))
                assert abs(report.min_eigenvalue - min_eig) <= tol, name
            ok = (
                h_defect <= 1e-12 * (1.0 + float(np.abs(rho).max()))
                and t_defect <= 1e-10
                and min_eig >= -1e-10
            )
            assert report.ok == ok, name

    @staticmethod
    def _complex_closed_form(rho):
        # the qubit closed form in complex arithmetic: (defects, min
        # eigenvalue, ok); the float form must give the same bits.  A
        # non-finite modulus reads NaN in all three fields, and each half-sum
        # is halved before the sum where the sum overflows
        (a, b), (c, d) = np.asarray(rho, dtype=complex).tolist()
        hypot = math.hypot
        moduli = [hypot(z.real, z.imag) for z in (a, b, c, d)]
        if not all(map(math.isfinite, moduli)):
            return (math.nan, math.nan, math.nan), False

        def half_sum(z, w):
            s = z + w
            return 0.5 * s if cmath.isfinite(s) else 0.5 * z + 0.5 * w

        ga, gb, gd = a - a.conjugate(), b - c.conjugate(), d - d.conjugate()
        h_defect = max(hypot(ga.real, ga.imag), hypot(gb.real, gb.imag), hypot(gd.real, gd.imag))
        trace = a + d
        t_defect = hypot(trace.real - 1.0, trace.imag)
        p, q = a.real, d.real
        h = half_sum(b, c.conjugate())
        min_eig = half_sum(p, q) - hypot(half_sum(p, -q), hypot(h.real, h.imag))
        ok = h_defect <= 1e-12 * (1.0 + max(moduli)) and t_defect <= 1e-10 and min_eig >= -1e-10
        return (h_defect, t_defect, min_eig), ok

    @classmethod
    def _bit_identity_cases(cls, rng):
        cases = dict(cls._qubit_cases(rng))
        # every non-finite entry in each of the four positions
        for value in (np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(0.0, -np.inf)):
            for index in ((0, 0), (0, 1), (1, 0), (1, 1)):
                rho = np.eye(2, dtype=complex) / 2
                rho[index] = value
                cases[f"{value}-at-{index}"] = rho
        # finite entries near the largest double whose gaps, trace or
        # eigenvalue terms overflow
        big = 1e308
        cases["overflowing-offdiagonal-gap"] = np.array([[0.5, big + big * 1j], [-big - big * 1j, 0.5]])
        cases["overflowing-imaginary-diagonal"] = np.array([[0.5 + big * 1j, 0.0], [0.0, 0.5 - big * 1j]])
        cases["overflowing-trace"] = np.array([[big, 0.0], [0.0, big]], dtype=complex)
        cases["overflowing-diagonal-difference"] = np.array([[big, big], [big, -big]], dtype=complex)
        cases["overflowing-hermitian-part"] = np.array([[0.5, big - big * 1j], [big + big * 1j, 0.5]])
        # subnormal parts, whose half-sums are summed first: halving 5e-324
        # first would round it to zero
        tiny = 5e-324
        cases["subnormal-diagonal"] = np.array([[tiny, 0.0], [0.0, tiny]], dtype=complex)
        cases["subnormal-offdiagonal"] = np.array([[0.0, tiny + tiny * 1j], [tiny - tiny * 1j, 0.0]])
        # signed zeros in every part
        for k in range(16):
            signs = [-1.0 if k >> bit & 1 else 1.0 for bit in range(4)]
            zeros = [complex(math.copysign(0.0, s), math.copysign(0.0, -s)) for s in signs]
            cases[f"signed-zeros-{k}"] = np.array(zeros, dtype=complex).reshape(2, 2)
        cases["negative-zero-state"] = np.array([[1.0, -0.0], [-0.0, -0.0]], dtype=complex)
        return cases

    def test_qubit_report_is_bit_identical_to_the_complex_closed_form(self, rng):
        for name, rho in self._bit_identity_cases(rng).items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = validate_density(rho)
            fields, ok = self._complex_closed_form(rho)
            got = (report.hermiticity_defect, report.trace_defect, report.min_eigenvalue)
            for field, value, expected in zip(("defect", "trace", "eigenvalue"), got, fields):
                assert np.array_equal(value, expected, equal_nan=True), (name, field)
                # equal as floats and in the sign bit: -0.0 stays -0.0
                assert math.isnan(expected) or np.signbit(value) == np.signbit(expected), (name, field)
            assert report.ok is ok, name

    @staticmethod
    def _lapack_report_as_first_written(rho):
        # the larger path before it dropped its overhead: the gap always
        # under np.errstate and the trace through np.trace; the report must
        # keep these bits
        scale = float(np.abs(rho).max())
        if not math.isfinite(scale):
            return (math.nan, math.nan, math.nan), False
        with np.errstate(over="ignore"):
            h_defect = float(np.abs(rho - rho.conj().T).max())
        t_defect = abs(complex(np.trace(rho)) - 1.0)
        min_eig = float(np.linalg.eigvalsh(0.5 * rho + 0.5 * rho.conj().T)[0])
        ok = h_defect <= 1e-12 * (1.0 + scale) and t_defect <= 1e-10 and min_eig >= -1e-10
        return (h_defect, t_defect, min_eig), ok

    @staticmethod
    def _two_qubit_cases(rng):
        cases = {"maximally-mixed": np.eye(4, dtype=complex) / 4}
        for k in range(10):
            cases[f"random-mixed-{k}"] = random_density(rng, 4)
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            for scale in (1e-300, 1.0, 1e300):
                cases[f"random-matrix-{k}-{scale}"] = scale * g
        for fz in (-5.0, 0.0, 0.3, 5.0):
            cases[f"equilibrium-{fz}"] = equilibrium_state(ModelParams(1.0, 1.0, 1.5), fz)
        for value in (np.nan, np.inf, -np.inf, complex(np.inf, np.inf), complex(0.0, -np.inf)):
            for index in ((0, 0), (1, 2), (3, 0)):
                rho = np.eye(4, dtype=complex) / 4
                rho[index] = value
                cases[f"{value}-at-{index}"] = rho
        # entries near the largest double, on both sides of the scale beyond
        # which the gap |rho - rho^dagger| may overflow
        for big in (1e308, 6e307, 4.4e307, 1e307):
            rho = np.eye(4, dtype=complex) / 4
            rho[0, 0], rho[1, 1], rho[0, 1], rho[1, 0] = big, -big, big, -big
            cases[f"opposite-entries-{big}"] = rho
            rho = np.eye(4, dtype=complex) / 4
            rho[2, 3], rho[3, 2] = big + big * 1j, -big + big * 1j
            cases[f"opposite-complex-entries-{big}"] = rho
        cases["signed-zeros"] = np.array([[-0.0, 0.0, -0.0j, 0.0j]] * 4, dtype=complex)
        return cases

    def test_two_qubit_report_keeps_the_bits_of_the_first_lapack_path(self, rng):
        for name, rho in self._two_qubit_cases(rng).items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = validate_density(rho)
            fields, ok = self._lapack_report_as_first_written(rho)
            got = (report.hermiticity_defect, report.trace_defect, report.min_eigenvalue)
            for field, value, expected in zip(("defect", "trace", "eigenvalue"), got, fields):
                assert np.array_equal(value, expected, equal_nan=True), (name, field)
                assert math.isnan(expected) or np.signbit(value) == np.signbit(expected), (name, field)
            assert report.ok is ok, name

    def test_non_square_complex_input_is_a_dimension_error(self):
        for shape in ((2, 3), (4,), (2, 2, 2)):
            with pytest.raises(DimensionError):
                validate_density(np.zeros(shape, dtype=complex))

    def test_report_is_an_immutable_record(self):
        for rho in (np.eye(2) / 2, np.eye(4) / 4):
            report = validate_density(rho)
            assert type(report) is spinprep.DensityReport
            assert report._fields == ("hermiticity_defect", "trace_defect", "min_eigenvalue", "ok")
            with pytest.raises(AttributeError):
                report.ok = False

    def test_require_density_checks_the_shape_first(self):
        # a wrong shape is a DimensionError even when the density check would fail too
        with pytest.raises(DimensionError, match="state must be 2x2, got \\(4, 4\\)"):
            require_density(np.eye(4), "state", shape=(2, 2))
        rho = [[0.5, 0.0], [0.0, 0.5]]
        checked = require_density(rho, shape=(2, 2))
        assert checked.dtype == complex and np.array_equal(checked, rho)

    def test_qubit_min_eigenvalue_matches_a_50_digit_reference(self, rng):
        # (p + q)/2 - sqrt(((p - q)/2)^2 + |h|^2) on the exact binary inputs
        for _ in range(200):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            rho = g @ g.conj().T if rng.random() < 0.5 else g
            (a, b), (c, d) = rho.tolist()
            with localcontext() as ctx:
                ctx.prec = 50
                p, q = Decimal(a.real), Decimal(d.real)
                h_re = (Decimal(b.real) + Decimal(c.real)) / 2
                h_im = (Decimal(b.imag) - Decimal(c.imag)) / 2
                exact = (p + q) / 2 - (((p - q) / 2) ** 2 + h_re**2 + h_im**2).sqrt()
            gap = abs(validate_density(rho).min_eigenvalue - float(exact))
            assert gap <= 4e-16 * (1.0 + float(np.abs(rho).max()))

    def test_equilibrium_states_pass(self):
        # exp(-beta H)/Z is a density matrix by construction; sweep the field
        model = ModelParams(1.0, 1.0, 1.5)
        for beta_fz in np.linspace(-5.0, 5.0, 21):
            assert validate_density(equilibrium_state(model, beta_fz)).ok
