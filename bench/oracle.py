"""Independent oracle for the CLI's CSV output.

Nothing here imports ``spinprep``.  Thermal states come from
``scipy.linalg.expm`` of the Hamiltonian built from Pauli matrices, field
inversions from ``scipy.optimize.brentq`` on that thermal state, propagation
from ``expm(-i H t)``, and the linear-response (Mori) state from a
finite-difference derivative of the thermal state in the field.  Each checker
takes the generated argv and the CSV text and returns a list of problems; an
empty list means the checked rows agree.

Tolerance: values are compared to ``ORACLE_TOL * max(1, |expected|)``.  The
program and the oracle agree to ~1e-13 here, so a last-ulp change passes,
while wrong physics (a sign, a missing factor, a wrong field) moves the
outputs by far more than 1e-8.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

import numpy as np
from scipy.linalg import expm
from scipy.optimize import brentq

ORACLE_TOL = 1e-8

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_I2 = np.eye(2, dtype=complex)
_S1Z = np.kron(_SZ, _I2)
_S2Z = np.kron(_I2, _SZ)
_CXX = np.kron(_SX, _SX)
_CYY = np.kron(_SY, _SY)
_CZZ = np.kron(_SZ, _SZ)
_FD_H = 1e-3  # step of the five-point field derivative of the thermal state


def hamiltonian(e: float, g: float, fz: float) -> np.ndarray:
    """H = -Fz s1z + e s2z + g s1x s2x, system factor first."""
    return -fz * _S1Z + e * _S2Z + g * _CXX


def thermal(e: float, g: float, fz: float) -> np.ndarray:
    """exp(-H)/Z at beta = 1 (the CLI's dimensionless convention)."""
    m = expm(-hamiltonian(e, g, fz))
    return m / np.trace(m).real


def expect(rho: np.ndarray, op: np.ndarray) -> float:
    return float(np.trace(rho @ op).real)


def reduce_system(rho: np.ndarray) -> np.ndarray:
    return np.trace(rho.reshape(2, 2, 2, 2), axis1=1, axis2=3)


def reduce_environment(rho: np.ndarray) -> np.ndarray:
    return np.trace(rho.reshape(2, 2, 2, 2), axis1=0, axis2=2)


def bloch(rho2: np.ndarray) -> np.ndarray:
    return np.array([expect(rho2, s) for s in (_SX, _SY, _SZ)])


def evolve(rho: np.ndarray, h: np.ndarray, t: float) -> np.ndarray:
    u = expm(-1j * h * t)
    return u @ rho @ u.conj().T


def observables(e: float, g: float, fz: float) -> dict[str, float]:
    rho = thermal(e, g, fz)
    ops = {"S1z": _S1Z, "S2z": _S2Z, "Cxx": _CXX, "Cyy": _CYY, "Czz": _CZZ}
    return {name: expect(rho, op) for name, op in ops.items()}


def s1z(e: float, g: float, fz: float) -> float:
    return expect(thermal(e, g, fz), _S1Z)


def invert_field(e: float, g: float, target: float) -> float:
    """Field with S1z = target, by Brent's method on the expm thermal state."""
    if target == 0.0:
        return 0.0
    hi = 1.0
    while s1z(e, g, hi) <= abs(target):
        hi *= 2.0
    # S1z is odd and increasing: [-hi, hi] brackets every |target| < S1z(hi)
    return brentq(lambda f: s1z(e, g, f) - target, -hi, hi, xtol=1e-15, rtol=1e-15, maxiter=200)


def field_derivative(e: float, g: float) -> np.ndarray:
    """d rho / dFz at Fz = 0, five-point central difference."""
    h = _FD_H
    return (
        -thermal(e, g, 2 * h) + 8 * thermal(e, g, h) - 8 * thermal(e, g, -h) + thermal(e, g, -2 * h)
    ) / (12 * h)


def mori_state(e: float, g: float, s: float) -> np.ndarray:
    """Linear-response blow-up of the z-state s: rho0 + (s - s0) / chi * d rho/dFz."""
    rho0 = thermal(e, g, 0.0)
    drho = field_derivative(e, g)
    chi = expect(drho, _S1Z)
    return rho0 + (s - expect(rho0, _S1Z)) / chi * drho


# ---------------------------------------------------------------- argv / CSV


def parse_argv(argv) -> tuple[str, dict[str, str]]:
    """('subcommand', {'beta_e': '1.0', ...}) from ``--key=value`` tokens."""
    sub, *rest = argv
    options = {}
    for token in rest:
        key, _, value = token[2:].partition("=")
        options[key.replace("-", "_")] = value
    return sub, options


def floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def parse_rows(text: str) -> list[list[str]]:
    """The CSV's data rows (the header is skipped), as lists of cells."""
    return [line.split(",") for line in text.splitlines()[1:]]


class _Report:
    """Collects mismatches; ``close`` compares one value to its oracle value."""

    def __init__(self):
        self.problems: list[str] = []

    def close(self, what: str, got: float, want: float, tol: float = ORACLE_TOL) -> None:
        if not (math.isfinite(got) and abs(got - want) <= tol * max(1.0, abs(want))):
            self.problems.append(f"{what}: got {got!r}, oracle {want!r}")

    def fail(self, message: str) -> None:
        self.problems.append(message)


def _pick(n: int, rng: random.Random | None, max_rows: int | None) -> list[int]:
    if max_rows is None or n <= max_rows:
        return list(range(n))
    return sorted(rng.sample(range(n), max_rows))


# ---------------------------------------------------------------- checkers
# Each takes (options, rows, picked row indices, report).


def _check_sweep_bloch(opt, rows, picked, rep):
    e = float(opt["beta_e"])
    gs = floats(opt["beta_g"])
    steps = int(opt["steps"])
    fields = np.linspace(float(opt["fz_min"]), float(opt["fz_max"]), steps)
    if len(rows) != steps * len(gs):
        rep.fail(f"expected {steps * len(gs)} rows, got {len(rows)}")
        return
    for i in picked:
        g, fz = gs[i // steps], float(fields[i % steps])
        row = [float(x) for x in rows[i]]
        rep.close(f"row {i} beta_g", row[0], g)
        rep.close(f"row {i} beta_Fz", row[1], fz)
        want = observables(e, g, row[1])
        for k, name in enumerate(("S1z", "S2z", "Cxx", "Cyy", "Czz"), start=2):
            rep.close(f"row {i} {name}", row[k], want[name])


def _check_sweep_linearity(opt, rows, picked, rep):
    e = float(opt["beta_e"])
    gs = floats(opt["beta_g"])
    points = int(opt["points"])
    grid = np.linspace(-float(opt["s1z_max"]), float(opt["s1z_max"]), points)
    if len(rows) != points * len(gs):
        rep.fail(f"expected {points * len(gs)} rows, got {len(rows)}")
        return
    for i in picked:
        g, target = gs[i // points], float(grid[i % points])
        row = [float(x) for x in rows[i]]
        rep.close(f"row {i} beta_g", row[0], g)
        rep.close(f"row {i} S1z", row[1], target)
        want = observables(e, g, invert_field(e, g, target))
        for k, name in enumerate(("S2z", "Cxx", "Cyy", "Czz"), start=2):
            rep.close(f"row {i} {name}", row[k], want[name])


def _check_convexity(opt, rows, picked, rep):
    e = float(opt["beta_e"])
    gs = floats(opt["beta_g"])
    fields = np.linspace(float(opt["f_min"]), float(opt["f_max"]), int(opt["f_steps"]))
    lambdas = floats(opt["lambdas"])
    lattice = [(g, f1, f2, lam) for g in gs for f1 in fields for f2 in fields for lam in lambdas]
    if len(rows) != len(lattice):
        rep.fail(f"expected {len(lattice)} rows, got {len(rows)}")
        return
    for i in picked:
        g, f1, f2, lam = lattice[i]
        row = [float(x) for x in rows[i]]
        for k, want in enumerate((g, f1, f2, lam)):
            rep.close(f"row {i} column {k}", row[k], float(want))
        o1, o2, o3 = observables(e, g, f1), observables(e, g, f2), observables(e, g, row[4])

        def mix(name):
            return abs(o3[name] - lam * o1[name] - (1.0 - lam) * o2[name])

        rep.close(f"row {i} S1z(F3)", o3["S1z"], lam * o1["S1z"] + (1.0 - lam) * o2["S1z"])
        rep.close(f"row {i} S2_defect", row[5], mix("S2z"))
        rep.close(f"row {i} C_defect", row[6], max(mix(n) for n in ("Cxx", "Cyy", "Czz")))


def _chebyshev(n: int, lo: float, hi: float) -> list[float]:
    return [0.5 * (lo + hi) + 0.5 * (hi - lo) * math.cos(math.pi * (2 * k + 1) / (2 * n)) for k in range(n)]


def _check_affinity(opt, rows, picked, rep):
    e = float(opt["beta_e"])
    gs = floats(opt["beta_g"])
    prep = opt["prep"]
    if len(rows) != len(gs):
        rep.fail(f"expected {len(gs)} rows, got {len(rows)}")
        return
    for i in picked:
        g = gs[i]
        defect = float(rows[i][3])
        if rows[i][0] != prep:
            rep.fail(f"row {i} prep {rows[i][0]!r} != {prep!r}")
        rep.close(f"row {i} beta_e", float(rows[i][1]), e)
        rep.close(f"row {i} beta_g", float(rows[i][2]), g)
        if prep != "equilibrium":
            # factorizing, Mori and factorize-and-wait blow-ups are affine maps
            rep.close(f"row {i} defect of the affine {prep} blow-up", defect, 0.0)
            continue
        targets = _chebyshev(int(opt["samples"]), -float(opt["s1z_max"]), float(opt["s1z_max"]))

        def blow_up(s):
            return thermal(e, g, invert_field(e, g, s))

        images = [blow_up(s) for s in targets]
        worst = 0.0
        for (a, sa), (b, sb) in combinations(enumerate(targets), 2):
            for lam in floats(opt["lambdas"]):
                gap = blow_up(lam * sa + (1.0 - lam) * sb) - lam * images[a] - (1.0 - lam) * images[b]
                worst = max(worst, float(np.linalg.norm(gap)))
        rep.close(f"row {i} equilibrium defect", defect, worst)


def _check_evolve(opt, rows, picked, rep):
    e = float(opt["beta_e"])
    gs = floats(opt["beta_g"])
    grid = floats(opt["fz_grid"])
    prep = opt["prep"]
    n_states = max(5, len(grid)) if prep == "mori" else len(grid)
    if len(rows) != n_states * len(gs):
        rep.fail(f"expected {n_states * len(gs)} rows, got {len(rows)}")
        return
    t, t0 = float(opt["time"]), float(opt["t0"])
    for i in picked:
        g, k = gs[i // n_states], i % n_states
        if prep == "mori":
            s = float(np.linspace(-0.05, 0.05, n_states)[k])
            s_in, total = s, mori_state(e, g, s)
        else:
            rho_f = thermal(e, g, grid[k])
            rho_s = reduce_system(rho_f)
            rho_b = reduce_environment(thermal(e, g, 0.0))
            if prep == "equilibrium":
                total = rho_f
            elif prep == "factorizing":
                total = np.kron(rho_s, rho_b)
            else:  # factorize at -t0, wait under H(Fz=0): the input is the waited state
                total = evolve(np.kron(rho_s, rho_b), hamiltonian(e, g, 0.0), t0)
            s_in = bloch(reduce_system(total))[2]
        out = bloch(reduce_system(evolve(total, hamiltonian(e, g, float(opt["evolve_fz"])), t)))
        row = [float(x) for x in rows[i]]
        rep.close(f"row {i} beta_g", row[0], g)
        rep.close(f"row {i} S1z_in", row[1], s_in)
        for j, name in enumerate(("Sx_out", "Sy_out", "Sz_out")):
            rep.close(f"row {i} {name}", row[2 + j], float(out[j]))


def _check_mori_check(opt, rows, picked, rep):
    e = float(opt["beta_e"])
    gs = floats(opt["beta_g"])
    step = float(opt["fd_step"])
    if len(rows) != len(gs):
        rep.fail(f"expected {len(gs)} rows, got {len(rows)}")
        return
    for i in picked:
        g = gs[i]
        row = [float(x) for x in rows[i]]
        chi = expect(field_derivative(e, g), _S1Z)
        fd = (s1z(e, g, step) - s1z(e, g, -step)) / (2.0 * step)
        residuals = []
        for beta_f in (0.02, 0.01):
            rho_f = thermal(e, g, beta_f)
            s = bloch(reduce_system(rho_f))[2]
            residuals.append(float(np.linalg.norm(mori_state(e, g, s) - rho_f)))
        rep.close(f"row {i} beta_g", row[0], g)
        rep.close(f"row {i} chi", row[1], chi)
        rep.close(f"row {i} finite_difference", row[2], fd)
        rep.close(f"row {i} residual_02", row[3], residuals[0])
        rep.close(f"row {i} residual_01", row[4], residuals[1])
        rep.close(f"row {i} ratio", row[5], residuals[0] / residuals[1], tol=1e-6)


def _check_pechukas(opt, rows, picked, rep):
    e = float(opt["beta_e"])
    gs = floats(opt["beta_g"])
    fz_list = floats(opt["fz_list"])
    if len(rows) != len(gs) * len(fz_list):
        rep.fail(f"expected {len(gs) * len(fz_list)} rows, got {len(rows)}")
        return
    for i in picked:
        g, fz = gs[i // len(fz_list)], fz_list[i % len(fz_list)]
        rho = thermal(e, g, fz)
        want = float(np.linalg.norm(rho - np.kron(reduce_system(rho), reduce_environment(rho))))
        row = [float(x) for x in rows[i]]
        rep.close(f"row {i} beta_g", row[0], g)
        rep.close(f"row {i} beta_Fz", row[1], fz)
        rep.close(f"row {i} residual", row[2], want)


_CHECKERS = {
    "sweep-bloch": _check_sweep_bloch,
    "sweep-linearity": _check_sweep_linearity,
    "convexity": _check_convexity,
    "affinity": _check_affinity,
    "evolve": _check_evolve,
    "mori-check": _check_mori_check,
    "pechukas": _check_pechukas,
}


def check_output(argv, csv_text: str, rng: random.Random | None = None, max_rows: int | None = None) -> list[str]:
    """Problems found when comparing ``csv_text`` with the oracle.

    With ``max_rows`` set, only that many rows, drawn with ``rng``, are
    recomputed; row counts and grids are always checked in full.
    """
    sub, options = parse_argv(argv)
    rows = parse_rows(csv_text)
    rep = _Report()
    try:
        _CHECKERS[sub](options, rows, _pick(len(rows), rng, max_rows), rep)
    except (ValueError, IndexError, KeyError) as err:
        rep.fail(f"unreadable output or argv: {err!r}")
    return rep.problems
