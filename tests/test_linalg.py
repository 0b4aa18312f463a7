import numpy as np
import pytest
import scipy.linalg

from spinprep import (
    DimensionError,
    DomainError,
    ValidationError,
    fractional_power,
    herm_eig,
    kron,
    matrix_function,
    partial_trace,
    validate_density,
)
from spinprep.model import ID2, SX, SZ, ModelParams, hamiltonian
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


class TestPartialTrace:
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
        with pytest.raises(DimensionError):
            partial_trace(random_density(rng, 8), keep=0)
        # explicit dims make the same call valid
        reduced = partial_trace(random_density(rng, 8), keep=0, dims=(2, 4))
        assert reduced.shape == (2, 2)

    def test_inconsistent_dims(self, rng):
        with pytest.raises(DimensionError):
            partial_trace(random_density(rng, 4), keep=0, dims=(3, 2))


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
    def test_power_split_recombines(self, rng):
        rho = random_density(rng, 4)
        product = fractional_power(rho, 0.3) @ fractional_power(rho, 0.7)
        assert_close(product, rho, 1e-12, "rho^0.3 rho^0.7")

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

    def test_fractional_power_domain(self):
        with pytest.raises(DomainError):
            fractional_power(np.diag([1.0, -0.5]), 0.5)
        # eigenvalues inside the roundoff floor are clamped, not rejected
        result = fractional_power(np.diag([1.0, -0.5e-10]), 0.5)
        assert_close(result, np.diag([1.0, 0.0]), 1e-12, "clamped power")


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

    def test_equilibrium_states_pass(self):
        # exp(-beta H)/Z is a density matrix by construction; sweep the field
        model = ModelParams(1.0, 1.0, 1.5)
        for beta_fz in np.linspace(-5.0, 5.0, 21):
            assert validate_density(equilibrium_state(model, beta_fz)).ok
