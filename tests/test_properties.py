"""Property-based checks of the structural invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import spinprep as sp
from spinprep.model import SX, SZ, ModelParams

from conftest import random_density, random_hermitian

seeds = st.integers(min_value=0, max_value=2**32 - 1)
couplings = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
fields = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


@given(seeds)
def test_bloch_round_trip(seed):
    rho = random_density(np.random.default_rng(seed), 4)
    rebuilt = sp.bloch_compose(sp.bloch_decompose(rho))
    assert np.abs(rebuilt - rho).max() < 1e-13


@given(seeds)
def test_partial_trace_linearity(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.abs(sp.partial_trace(sp.kron(a, b), keep=0) - a * np.trace(b)).max() < 1e-12
    assert np.abs(sp.partial_trace(sp.kron(a, b), keep=1) - b * np.trace(a)).max() < 1e-12


@given(seeds, st.integers(min_value=2, max_value=6))
def test_eigendecomposition_reconstructs(seed, n):
    a = random_hermitian(np.random.default_rng(seed), n)
    w, v = sp.herm_eig(a)
    scale = 1.0 + np.linalg.norm(a)
    assert np.all(np.diff(w) >= 0.0)
    assert np.linalg.norm((v * w) @ v.conj().T - a) <= 1e-12 * scale
    assert np.abs(v.conj().T @ v - np.eye(n)).max() <= 1e-12


@given(seeds)
def test_spectral_mapping(seed):
    a = random_hermitian(np.random.default_rng(seed), 4)
    fa = sp.matrix_function(a, np.cos)
    assert (
        np.abs(np.sort(np.linalg.eigvalsh(fa)) - np.sort(np.cos(np.linalg.eigvalsh(a)))).max()
        < 1e-12
    )


@given(
    st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
    st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
)
def test_aux_function_symmetries(x, y):
    assert abs(sp.aux_F(+1, x, y) - sp.aux_F(+1, y, x)) < 1e-14
    assert abs(sp.aux_F(-1, x, y) + sp.aux_F(-1, y, x)) < 1e-14
    # even in each argument separately
    assert sp.aux_F(+1, x, y) == sp.aux_F(+1, -x, y)


@given(couplings, couplings, fields)
def test_equilibrium_parity(beta_e, beta_g, beta_fz):
    model = ModelParams(1.0, beta_e, beta_g)
    plus = sp.equilibrium_observables(model, beta_fz)
    minus = sp.equilibrium_observables(model, -beta_fz)
    assert abs(plus.S1z + minus.S1z) < 1e-12
    assert abs(plus.S2z - minus.S2z) < 1e-12
    assert abs(plus.Cxx - minus.Cxx) < 1e-12
    assert abs(plus.Cyy + minus.Cyy) < 1e-12
    assert abs(plus.Czz + minus.Czz) < 1e-12


@settings(max_examples=25, deadline=None)
@given(seeds, st.floats(min_value=-2.0, max_value=2.0), st.floats(min_value=-2.0, max_value=2.0))
def test_kubo_linearity(seed, a, b):
    rng = np.random.default_rng(seed)
    h = sp.hamiltonian(ModelParams(1.0, 1.0, 1.0), float(rng.uniform(-1, 1)))
    x = sp.kron(SZ, np.eye(2))
    y = sp.kron(SX, np.eye(2))
    combined = sp.kubo_integral(h, a * x + b * y)
    split = a * sp.kubo_integral(h, x) + b * sp.kubo_integral(h, y)
    assert np.abs(combined - split).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_affine_fit_recovers_affine_maps(seed):
    rng = np.random.default_rng(seed)
    target = sp.ReducedAffineMap(0.5 * rng.standard_normal((3, 3)), 0.1 * rng.standard_normal(3))
    pairs = []
    for _ in range(6):
        rho = random_density(rng, 2)
        pairs.append((rho, target.apply(rho)))
    assert sp.fit_affine_map(pairs).residual < 1e-11


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-0.98, max_value=0.98, allow_nan=False))
def test_field_inversion_round_trip(target):
    model = ModelParams(1.0, 1.0, 1.5)
    field = sp.invert_field(model, target)
    assert abs(sp.equilibrium_observables(model, field).S1z - target) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(seeds, st.floats(min_value=0.05, max_value=2.0, allow_nan=False))
def test_factorizing_reduced_evolution_is_affine(seed, t):
    rng = np.random.default_rng(seed)
    model = ModelParams(1.0, 1.0, 1.0)
    prep = sp.Factorizing(random_density(rng, 2))
    u = sp.propagator(sp.hamiltonian(model, 0.0), t)
    pairs = []
    for _ in range(6):
        rho = random_density(rng, 2)
        pairs.append((rho, sp.reduced_evolution(prep, u, rho)))
    assert sp.fit_affine_map(pairs).residual < 1e-11


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_evolution_preserves_trace_and_purity_bound(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 4)
    u = sp.propagator(random_hermitian(rng, 4), float(rng.uniform(0, 3)))
    out = sp.evolve_total(rho, u)
    assert abs(np.trace(out) - 1.0) < 1e-12
    reduced = sp.partial_trace(out, keep=0)
    assert np.trace(reduced @ reduced).real <= 1.0 + 1e-10
