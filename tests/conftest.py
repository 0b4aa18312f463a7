import json
import pathlib
import struct

import numpy as np
import pytest

BASELINES_PATH = pathlib.Path(__file__).parent / "baselines.json"


@pytest.fixture(scope="session")
def baselines():
    """Frozen oracle values; regenerate with demos/regenerate_baselines.py --write."""
    return json.loads(BASELINES_PATH.read_text())


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_density(rng, n):
    """Ginibre-induced random density matrix (full rank almost surely)."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.conj().T


def bits(values):
    """The IEEE bytes of each value: equal iff bit for bit, signed zeros included."""
    return [struct.pack("<d", v) for v in values]


def assert_close(actual, desired, atol, what=""):
    gap = float(np.abs(np.asarray(actual) - np.asarray(desired)).max())
    assert gap <= atol, f"{what} deviates by {gap:.3e} > {atol:.0e}"
