"""Command-line front end: parameter sweeps, property checks, CSV output.

Subcommands
    sweep-bloch       S1z (and friends) against the field, per coupling
    sweep-linearity   equilibrium observables against S1z plus straight-line fits
    convexity         convex-combination defects on an (F1, F2, lambda) lattice
    affinity          affinity defect of a chosen preparation's blow-up map
    evolve            reduced evolution samples and their affine-fit residual
    mori-check        susceptibility vs finite differences, quadratic-order check
    pechukas          factorization residual of equilibrium states at large fields

Every flag is declared once, in _OPTIONS: its converter, default, help and
own rules; each subcommand names its flags in _SUBCOMMANDS.  --out PATH
(default stdout) and --config PATH (key=value file, flags win) are shared.

Couplings run independently and in order: --beta-g=a,b writes the header,
the rows of --beta-g=a, then those of --beta-g=b, and its run-summary lists
the checks of a, then those of b.  Every runner returns one coupling's
flat cells, its row template and its checks; each coupling's rows become
CSV text before the next coupling runs: _csv_rows fills the row template,
repeated per row, from the flat cells of every row.  The template holds the
text that is the same in every row (the coupling, and affinity's --prep and
beta_e); sweep-bloch also formats its field column once per grid
(_field_cells keeps the last grid's cells).  The CSV is written only once
every coupling has succeeded, so a run that fails at a later coupling
writes none.  Every check's threshold is in _THRESHOLDS; README's Command
line section tables when each check applies and whether --tolerance-scale
scales it.

Exit codes: 0 all checks passed, 1 a property check failed, 2 usage or
configuration error (an unknown --prep among them), an --out that cannot be
written, an input outside a preparation's domain, or a solver that did not
converge (then no CSV is written).  Results go to --out as CSV
(one header row, floats with 17 significant digits); a single
machine-readable ``run-summary`` key=value line goes to stderr at the end of
each run.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from array import array
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .diagnostics import (
    affinity_defect,
    convexity_test,
    factorization_residual,
    figure_sweep,
    linearity_scan,
)
from .errors import ValidationError
from .evolve import chebyshev_targets, fit_affine_map, propagator, reduced_evolution
from .linalg import partial_trace, require_density
from .model import (
    SZ,
    ModelParams,
    equilibrium_observables,
    hamiltonian,
    qubit_bloch,
    reduced_from_bloch,
)
from .prepare import (
    Equilibrium,
    Factorizing,
    FactorizeAndWait,
    MoriLinearResponse,
    blow_up,
    equilibrium_state,
    susceptibility,
)


def _fmt(value: float) -> str:
    # np.float64 is a float subclass and formats like one
    return format(value, ".17g")


def _parse_float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip() != ""]


_PREPARATIONS = ("equilibrium", "factorizing", "mori", "factorize-and-wait")

# the Mori blow-up is a linear response: its samples stay within |S1z| <= this
_MORI_S1Z = 0.05

# Every threshold of the checks: key -> (bound, scaled, witness), each with
# its reason.  A scaled bound is a tolerance: a value passes below it times
# --tolerance-scale.  The scale does not move an unscaled bound: a roundoff
# floor, which picks the branch of a check (the scale loosens a gate, it does
# not pick one), or a (low, high) range, which passes the values inside it.
# A witness of the equilibrium preparation is gated only when uncoupled.
_THRESHOLDS = {
    "linearity": (1e-9, True, True),  # uncoupled, the observables are linear in S1z
    "convexity": (1e-10, True, True),  # uncoupled, mixing equilibrium states gives one
    "chi": (1e-6, True, False),  # chi against a central difference with an O(fd-step^2) error
    "roundoff": (1e-12, True, False),  # Mori and pechukas residuals that are roundoff
    # a Mori residual at beta_F = 0.01 below this is roundoff (up to 8e-14 at
    # beta*e = 1000); a quadratic one at beta_F = 0.02 is then below 5.2e-13,
    # which passes the roundoff gate too
    "mori_floor": (1e-13, False, False),
    "pechukas_floor": (1e-12, False, False),  # residuals all below it are roundoff: 1e-16 at beta*e = 1e308
    # a drop of S1z between grid points within twice the 1e-15 error of one S1z
    "s1z_rise": ((-2e-15, math.inf), False, False),
    "quadratic_order": ((2.8, 5.2), False, False),  # 4 when the Mori residual is quadratic
    # the affinity defect of each preparation's blow-up and the affine-fit
    # residual of its reduced evolution: the roundoff of an affine map
    ("affinity", "equilibrium"): (1e-9, True, True), ("evolve", "equilibrium"): (1e-9, True, True),
    ("affinity", "factorizing"): (1e-13, True, False), ("evolve", "factorizing"): (1e-11, True, False),
    ("affinity", "mori"): (1e-12, True, False), ("evolve", "mori"): (1e-10, True, False),
    ("affinity", "factorize-and-wait"): (1e-10, True, False), ("evolve", "factorize-and-wait"): (1e-10, True, False),
}


def _parse_preparation(text: str) -> str:
    if text not in _PREPARATIONS:
        raise ValueError(text)
    return text


# what a value that its converter refuses is told: "<flag> <this>, got '<text>'"
_EXPECTED = {
    int: "must be an integer",
    float: "must be a number",
    _parse_float_list: "must be a comma-separated list of numbers",
    _parse_preparation: "names an unknown preparation, expected one of " + ", ".join(_PREPARATIONS),
}


# A flag's converter, default and help, its own rules as (test, text) pairs
# (a value that fails test is refused as "<flag> <text>, got <value>"), and
# a note that --help prints after the default
_Option = namedtuple("_Option", "convert default help rules note", defaults=((), ""))


def _at_least(least: int) -> tuple:
    return (lambda n: n >= least, f"must be at least {least}")


_POSITIVE = (lambda x: x > 0.0, "must be finite and positive")
_FRACTIONS = (lambda v: all(0.0 < x < 1.0 for x in np.atleast_1d(v)), "must lie strictly between 0 and 1")
_ONCE = (lambda gs: len(set(gs)) == len(gs), "lists a coupling more than once")
# A central difference of step h is off by up to 1e-15/h of roundoff (each
# S1z is within 1e-15 of its value) plus h^2/3 of truncation (|d3 S1z/dFz3|
# <= 2 at beta = 1).  The unscaled chi bound decides whether the check can
# run; --tolerance-scale still moves the gate itself.
_FD_WINDOW = (
    lambda h: 1e-15 / h + h * h / 3.0 <= _THRESHOLDS["chi"][0],
    f"must keep the central difference's error 1e-15/h + h^2/3 within the chi bound {_THRESHOLDS['chi'][0]:g}",
)
_FZ_LIST = (
    (lambda fs: len(fs) >= 2, "needs at least two fields to show a decay"),
    (lambda fs: all(abs(a) < abs(b) for a, b in zip(fs, fs[1:])), "must grow strictly in |Fz| to show a decay"),
)

# Every flag of every subcommand, declared once; each _Subcommand names its
# own, and gives the --beta-g default.  The rules joining two flags are in _resolve.
_OPTIONS = {
    "beta_e": _Option(float, 1.0, "beta*e, environment-spin splitting"),
    "tolerance_scale": _Option(float, 1.0, "multiply every scaled threshold", (_POSITIVE,)),
    "beta_g": _Option(_parse_float_list, None, "comma-separated beta*g couplings, run in order", (_ONCE,)),
    "fz_min": _Option(float, -5.0, "lowest beta*Fz of the field grid"),
    "fz_max": _Option(float, 5.0, "highest beta*Fz of the field grid"),
    "steps": _Option(int, 201, "fields on the field grid", (_at_least(2),)),
    "s1z_max": _Option(float, 0.9, "half-width of the S1z grid or targets", (_FRACTIONS,),
                       f"--prep mori ignores it and uses {_MORI_S1Z}"),
    "points": _Option(int, 21, "points on the S1z grid", (_at_least(3),)),
    "f_min": _Option(float, -2.0, "first end field of the convexity lattice"),
    "f_max": _Option(float, 2.0, "last end field of the convexity lattice"),
    "f_steps": _Option(int, 5, "end fields, evenly spaced", (_at_least(2),)),
    "lambdas": _Option(_parse_float_list, [0.25, 0.5, 0.75], "comma-separated mixing weights", (_FRACTIONS,)),
    "prep": _Option(_parse_preparation, "equilibrium", "preparation: " + ", ".join(_PREPARATIONS)),
    "samples": _Option(int, 5, "Chebyshev targets of S1z to blow up", (_at_least(2),)),
    "t0": _Option(float, 0.7, "waiting time of --prep factorize-and-wait", note="the other preparations ignore it"),
    "time": _Option(float, 1.0, "evolution time"),
    "fz_grid": _Option(_parse_float_list, [-2.0, -1.0, 0.0, 1.0, 2.0],
                       "comma-separated fields that pick the input states", note="--prep mori reads only how many"),
    "evolve_fz": _Option(float, 0.0, "beta*Fz of the evolution Hamiltonian"),
    "fd_step": _Option(float, 1e-4, "step of the central difference that chi is checked against",
                       (_POSITIVE, _FD_WINDOW)),
    "fz_list": _Option(_parse_float_list, [4.0, 6.0, 8.0], "comma-separated large beta*Fz fields", _FZ_LIST),
}


def _show(value) -> str:
    """A default as --help prints it, in a form the flag reads back."""
    if isinstance(value, list):
        return ",".join(map(_show, value))
    return format(value, "g") if isinstance(value, float) else str(value)


@dataclass
class Check:
    name: str
    passed: bool
    value: float


def _gate(cfg: dict, beta_g: float, key: str | tuple, name: str, value: float, recorded: str = "") -> Check:
    """The check name of value against _THRESHOLDS[key]: inside a (low, high)
    range, or below a bound, times --tolerance-scale when the bound is scaled.

    A witness of the equilibrium preparation vanishes at g = 0 and is gated
    there; at g != 0 it is the nonlinearity being measured, recorded as a
    pass, as recorded_bg_<g> or, without a recorded stem, as name.
    """
    bound, scaled, witness = _THRESHOLDS[key]
    if witness and beta_g != 0.0:
        return Check(f"{recorded}_bg_{_fmt(beta_g)}" if recorded else name, True, value)
    if isinstance(bound, tuple):
        return Check(name, bound[0] <= value <= bound[1], value)
    return Check(name, value < bound * (cfg["tolerance_scale"] if scaled else 1.0), value)


def _roundoff_gate(cfg: dict, beta_g: float, residuals, probe, floor: str, exact: str) -> Check | None:
    """mori-check's and pechukas' rule: their residuals are gated themselves
    when uncoupled (the Mori blow-up is exact, the equilibrium state a
    product) or roundoff (probe below its floor), where a ratio or a decay of
    them measures nothing; None leaves the claim on their order or decay."""
    if beta_g == 0.0 or _gate(cfg, beta_g, floor, floor, probe).passed:
        name = f"{exact}_when_uncoupled" if beta_g == 0.0 else f"{exact}_bg_{_fmt(beta_g)}"
        return _gate(cfg, beta_g, "roundoff", name, max(residuals))
    return None


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """Merge flag values over config-file values over defaults, then check them.

    Each flag's own rules are in _OPTIONS, the rules that join two flags
    here; README's Command line section tables them.  A violation is a
    configuration error (exit 2), found before any runner starts.
    """
    command = _SUBCOMMANDS[args.subcommand]
    config = _read_config(args.config) if args.config else {}
    unknown = set(config) - set(command.options)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    cfg = {}
    for key in command.options:
        text = getattr(args, key)  # a flag wins over the config file
        text = config.get(key) if text is None else text
        convert = _OPTIONS[key].convert
        try:
            cfg[key] = command.default(key) if text is None else convert(text)
        except ValueError:
            raise ValueError(f"{key.replace('_', '-')} {_EXPECTED[convert]}, got {text!r}") from None
    for key, value in cfg.items():
        flag = key.replace("_", "-")
        if not isinstance(value, str):
            numbers = value if isinstance(value, list) else [value]
            if not numbers:
                raise ValueError(f"{flag} needs at least one value")
            if not all(map(math.isfinite, numbers)):
                raise ValueError(f"{flag} must be finite, got {value}")
        for test, text in _OPTIONS[key].rules:
            if not test(value):
                raise ValueError(f"{flag} {text}, got {value}")
    if "fz_min" in cfg and not cfg["fz_min"] < cfg["fz_max"]:
        raise ValueError(f"fz-min must be below fz-max, got {cfg['fz_min']} and {cfg['fz_max']}")
    for lo, hi in (("fz_min", "fz_max"), ("f_min", "f_max")):
        if lo in cfg and not math.isfinite(cfg[hi] - cfg[lo]):
            raise ValueError(f"the width of the field range must be finite, got {cfg[lo]} to {cfg[hi]}")
    if "f_min" in cfg and cfg["f_min"] == cfg["f_max"]:
        raise ValueError(f"f-min and f-max must differ, or every test mixes a state with itself, got {cfg['f_min']}")
    if "fz_grid" in cfg and cfg["prep"] != "mori":
        if len(cfg["fz_grid"]) < 5:
            raise ValueError(f"fz-grid needs at least five fields for the affine fit, got {cfg['fz_grid']}")
        if len(set(cfg["fz_grid"])) < 2:
            raise ValueError(f"fz-grid needs at least two distinct fields for the affine fit, got {cfg['fz_grid']}")
    if cfg.get("prep") == "factorize-and-wait" and not cfg["t0"] > 0.0:
        raise ValueError(f"t0 must be positive for factorize-and-wait, got {cfg['t0']}")
    return cfg


def _csv_rows(cells: Sequence, template: str) -> str:
    """One coupling's rows as CSV lines: one % call on the row template,
    repeated per row, over the flat cells of every row in row order.  %.17g
    gives the bytes of _fmt; the one cell that is already text, a sweep-bloch
    field from _field_cells, is written with %s.  Text that is the same in
    every row (the coupling, affinity's --prep and beta_e) sits in the
    template itself, so the template holds no % but those of its cells."""
    return (template * (len(cells) // template.count("%"))) % tuple(cells)


def _template(model: ModelParams, n: int) -> str:
    """The row template of a coupling: its cell, then n float cells.  The
    coupling is finite, so its text holds no %."""
    return _fmt(model.g) + ",%.17g" * n + "\n"


def _write_csv(path: str | None, header: tuple[str, ...], chunks: list[str]) -> None:
    """Write the header line, then each coupling's chunk of _csv_rows in order."""
    lines = [",".join(header) + "\n", *chunks]
    if path is None:
        sys.stdout.writelines(lines)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)


def _z_state(s1z: float):
    return reduced_from_bloch(np.array([0.0, 0.0, s1z]))


def _prepared(cfg: dict, model: ModelParams, states: list) -> tuple:
    """The --prep preparation and the states it blows up.

    --prep factorize-and-wait blows up the images of the given states under
    its wait map G, the states in G's range; the other preparations blow up
    the given list itself, the same objects.
    """
    kind = cfg["prep"]
    if kind == "equilibrium":
        return Equilibrium(model), states
    if kind == "mori":
        return MoriLinearResponse(model, (SZ,)), states
    # the product preparations start from the zero-field environment marginal
    rho_b = partial_trace(equilibrium_state(model, 0.0), keep=1)
    if kind == "factorizing":
        return Factorizing(rho_b), states
    prep = FactorizeAndWait(model, Fz_wait=0.0, t0=cfg["t0"], rho_B0=rho_b)
    return prep, [prep.G.apply(s) for s in states]


@functools.lru_cache(maxsize=1)
def _field_cells(fields: bytes) -> tuple[str, ...]:
    """The %.17g cells of a grid's fields, given as their float64 bytes.

    One grid serves every coupling of a run.  The key is the fields' own
    bytes, not a tuple of them: -0.0 == 0.0, so a tuple key would serve a
    grid that ends at -0 the cells of one that ends at 0.
    """
    return tuple(["%.17g" % fz for fz in memoryview(fields).cast("d")])


def _run_sweep_bloch(cfg: dict, model: ModelParams) -> tuple[tuple, str, list[Check]]:
    points = figure_sweep(model, cfg["fz_min"], cfg["fz_max"], cfg["steps"])
    # the cells of each point in order: beta_Fz, S1z, S2z, Cxx, Cyy, Czz
    cells = list(itertools.chain.from_iterable(points))
    del points  # cells hold its floats
    worst = float(np.diff(cells[1::6]).min())
    cells[0::6] = _field_cells(array("d", cells[0::6]).tobytes())
    coupling = _fmt(model.g)  # finite, so its text holds no %
    template = coupling + ",%s" + ",%.17g" * 5 + "\n"
    # a tuple, which _csv_rows formats without a copy, and the list is freed
    return tuple(cells), template, [_gate(cfg, model.g, "s1z_rise", f"s1z_monotone_bg_{coupling}", worst)]


def _run_sweep_linearity(cfg: dict, model: ModelParams) -> tuple[list, str, list[Check]]:
    grid = np.linspace(-cfg["s1z_max"], cfg["s1z_max"], cfg["points"])
    report = linearity_scan(model, grid)
    curves = [report.curves[name] for name in ("S2z", "Cxx", "Cyy", "Czz")]
    # the cells of each S1z in order: S1z, S2z, Cxx, Cyy, Czz
    cells = np.column_stack((report.s1z, *curves)).ravel().tolist()
    worst = max(fit.max_residual for fit in report.fits.values())
    check = _gate(cfg, model.g, "linearity", "linear_when_uncoupled", worst, "residual_recorded")
    return cells, _template(model, 5), [check]


def _run_convexity(cfg: dict, model: ModelParams) -> tuple[list, str, list[Check]]:
    fields = np.linspace(cfg["f_min"], cfg["f_max"], cfg["f_steps"]).tolist()
    # each end state is evaluated once and shared by every test it takes part in
    ends = [equilibrium_observables(model, f) for f in fields]
    cells: list[float] = []
    worst = 0.0
    for end1 in ends:
        for end2 in ends:
            for lam in cfg["lambdas"]:
                r = convexity_test(model, end1, end2, float(lam))
                cells += (r.F1, r.F2, r.weight, r.F3, r.S2_defect, r.C_defect)
                worst = max(worst, r.S2_defect, r.C_defect)
    check = _gate(cfg, model.g, "convexity", "convex_when_uncoupled", worst, "defect_recorded")
    return cells, _template(model, 6), [check]


def _run_affinity(cfg: dict, model: ModelParams) -> tuple[tuple, str, list[Check]]:
    reach = _MORI_S1Z if cfg["prep"] == "mori" else cfg["s1z_max"]
    targets = chebyshev_targets(cfg["samples"], -reach, reach)
    if cfg["prep"] == "factorizing":
        # off-axis states are fine for the product preparation
        bloch = [[0.3 * np.sin(3.0 * s), 0.2 * np.cos(2.0 * s), float(s)] for s in targets]
        samples = [reduced_from_bloch(np.array(b) * 0.9) for b in bloch]
    else:
        samples = [_z_state(float(s)) for s in targets]
    prep, samples = _prepared(cfg, model, samples)

    def image(rho_s):
        state = blow_up(prep, rho_s)
        # the Mori blow-up can leave the states; it is affine, so every image
        # is a mix of the two end images, and those two are checked
        if cfg["prep"] == "mori" and (rho_s is samples[0] or rho_s is samples[-1]):
            require_density(state, "the Mori blow-up of an end sample")
        return state

    defect = affinity_defect(image, samples, cfg["lambdas"])
    # a quadratic nonlinearity moves the defect by about the spread squared:
    # samples closer than the square root of the gate cannot show one above it
    key = ("affinity", cfg["prep"])
    floor = math.sqrt(_THRESHOLDS[key][0] * cfg["tolerance_scale"])
    # hypot, which neither underflows nor overflows: the largest Frobenius distance
    spread = max(math.hypot(*np.abs(a - b).flat) for a, b in itertools.combinations(samples, 2))
    if spread < floor:
        raise ValueError(
            f"affinity samples lie within {spread:.3e} of each other (Frobenius), below {floor:.3e}, "
            "the square root of the gate, where no quadratic nonlinearity shows; widen --s1z-max "
            "or lower --tolerance-scale"
        )
    check = _gate(cfg, model.g, key, f"affinity_{cfg['prep']}_bg_{_fmt(model.g)}", defect)
    # one row: the --prep name and beta_e sit in the template before the coupling
    return (defect,), f"{cfg['prep']},{_fmt(model.e)},{_template(model, 1)}", [check]


def _run_evolve(cfg: dict, model: ModelParams) -> tuple[list, str, list[Check]]:
    if cfg["prep"] == "mori":
        s1z = np.linspace(-_MORI_S1Z, _MORI_S1Z, max(5, len(cfg["fz_grid"])))
        states = [_z_state(s) for s in s1z]
    else:
        states = [partial_trace(equilibrium_state(model, f), keep=0) for f in cfg["fz_grid"]]
    prep, states = _prepared(cfg, model, states)
    u = propagator(hamiltonian(model, cfg["evolve_fz"]), cfg["time"])

    def evolved(rho_s):
        try:
            return reduced_evolution(prep, u, rho_s)
        except ValidationError as err:
            # evolve_total refuses a total state that is not a density matrix,
            # which of these preparations only the affine Mori blow-up gives
            if cfg["prep"] != "mori":
                raise
            named = f"the Mori blow-up of S1z_in = {_fmt(qubit_bloch(rho_s)[2])}"
            raise ValidationError(str(err).replace("state", named, 1)) from err

    pairs = [(rho_s, evolved(rho_s)) for rho_s in states]
    # the cells of each pair in order: S1z in, then Sx, Sy, Sz out
    cells = [x for rho_s, out in pairs for x in (qubit_bloch(rho_s)[2], *qubit_bloch(out))]
    residual = fit_affine_map(pairs).residual
    name = f"evolution_fit_{cfg['prep']}_bg_{_fmt(model.g)}"
    return cells, _template(model, 4), [_gate(cfg, model.g, ("evolve", cfg["prep"]), name, residual)]


def _run_mori_check(cfg: dict, model: ModelParams) -> tuple[tuple, str, list[Check]]:
    step = cfg["fd_step"]
    chi = float(susceptibility(model, [SZ])[0, 0])
    fd = (
        equilibrium_observables(model, step).S1z
        - equilibrium_observables(model, -step).S1z
    ) / (2.0 * step)
    prep = MoriLinearResponse(model, (SZ,))
    residuals = []
    for beta_f in (0.02, 0.01):
        rho = equilibrium_state(model, beta_f)
        residuals.append(float(np.linalg.norm(blow_up(prep, partial_trace(rho, keep=0)) - rho)))
    # a zero residual is roundoff too, whose ratio no check reads
    ratio = residuals[0] / residuals[1] if residuals[1] else 0.0
    # at a large enough coupling the Mori blow-up is exact to roundoff
    roundoff = _roundoff_gate(cfg, model.g, residuals, residuals[1], "mori_floor", "mori_exact")
    order = roundoff or _gate(cfg, model.g, "quadratic_order", f"quadratic_order_bg_{_fmt(model.g)}", ratio)
    chi_check = _gate(cfg, model.g, "chi", f"chi_matches_fd_bg_{_fmt(model.g)}", abs(chi - fd))
    return (chi, fd, *residuals, ratio), _template(model, 5), [chi_check, order]


def _run_pechukas(cfg: dict, model: ModelParams) -> tuple[list, str, list[Check]]:
    values = [factorization_residual(equilibrium_state(model, fz)) for fz in cfg["fz_list"]]
    cells = [x for pair in zip(cfg["fz_list"], values) for x in pair]
    # where the environment spin is frozen (beta e = 1e308) the state is a product to roundoff
    roundoff = _roundoff_gate(cfg, model.g, values, max(values), "pechukas_floor", "factorized")
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    check = roundoff or Check(f"residual_decay_bg_{_fmt(model.g)}", decreasing, values[-1])
    return cells, _template(model, 2), [check]


class _Subcommand:
    """A subcommand's runner, its CSV header, its flags (keys of _OPTIONS)
    and its --beta-g default, the one default that differs between
    subcommands."""

    def __init__(self, run: Callable, header: tuple[str, ...], beta_g: list[float], *options: str):
        self.run = run  # (cfg, model) -> (cells, row template, checks) of one coupling
        self.header = header
        self.beta_g = beta_g
        self.options = ("beta_e", "tolerance_scale", "beta_g", *options)

    def default(self, key: str):
        return self.beta_g if key == "beta_g" else _OPTIONS[key].default


_SUBCOMMANDS = {
    "sweep-bloch": _Subcommand(_run_sweep_bloch, ("beta_g", "beta_Fz", "S1z", "S2z", "Cxx", "Cyy", "Czz"),
                               [0.5, 1.0, 1.5], "fz_min", "fz_max", "steps"),
    "sweep-linearity": _Subcommand(_run_sweep_linearity, ("beta_g", "S1z", "S2z", "Cxx", "Cyy", "Czz"),
                                   [0.0, 0.5, 1.0, 1.5], "s1z_max", "points"),
    "convexity": _Subcommand(_run_convexity, ("beta_g", "F1", "F2", "lambda", "F3", "S2_defect", "C_defect"),
                             [1.5], "f_min", "f_max", "f_steps", "lambdas"),
    "affinity": _Subcommand(_run_affinity, ("prep", "beta_e", "beta_g", "defect"),
                            [1.5], "prep", "samples", "s1z_max", "t0", "lambdas"),
    "evolve": _Subcommand(_run_evolve, ("beta_g", "S1z_in", "Sx_out", "Sy_out", "Sz_out"),
                          [1.5], "prep", "time", "fz_grid", "evolve_fz", "t0"),
    "mori-check": _Subcommand(
        _run_mori_check, ("beta_g", "chi", "finite_difference", "residual_02", "residual_01", "ratio"), [1.0], "fd_step"
    ),
    "pechukas": _Subcommand(_run_pechukas, ("beta_g", "beta_Fz", "residual"), [1.0], "fz_list"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls.

    Parsing does not change it: every call gets a fresh Namespace whose
    unset flags are None.
    """
    parser = argparse.ArgumentParser(
        prog="spinprep",
        description="two-spin preparation classes, blow-up maps, and reduced-dynamics checks",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in _SUBCOMMANDS.items():
        p = sub.add_parser(name)
        for key in command.options:
            option = _OPTIONS[key]
            note = f"; {option.note}" if option.note else ""
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                           help=f"{option.help} (default {_show(command.default(key))}){note}")
        p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
        p.add_argument("--config", default=None, help="key=value config file; flags override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
    except (OSError, ValueError) as err:
        print(f"spinprep: configuration error: {err}", file=sys.stderr)
        return 2
    command = _SUBCOMMANDS[args.subcommand]
    chunks: list[str] = []
    n_rows = 0
    checks: list[Check] = []
    try:
        # the one loop over couplings: each runs on its own, in the given
        # order, and its rows become CSV text before the next one runs
        for beta_g in cfg["beta_g"]:
            # dimensionless convention: beta = 1, couplings carry the beta products
            cells, template, coupling_checks = command.run(cfg, ModelParams(beta=1.0, e=cfg["beta_e"], g=beta_g))
            chunks.append(_csv_rows(cells, template))
            n_rows += len(cells) // template.count("%")
            checks += coupling_checks
            del cells  # not held while the next coupling runs
        _write_csv(args.out, command.header, chunks)
    except (ValueError, RuntimeError, OSError) as err:
        # RuntimeError: a solver that did not converge (invert_field); no result.
        # OSError: --out cannot be written (a missing directory, a directory)
        print(f"spinprep: {err}", file=sys.stderr)
        return 2

    status = "pass" if all(c.passed for c in checks) else "fail"
    parts = [f"subcommand={args.subcommand}", f"status={status}", f"rows={n_rows}"]
    for c in checks:
        parts.append(f"{c.name}={'pass' if c.passed else 'fail'}")
        parts.append(f"{c.name}_value={_fmt(c.value)}")
    print("run-summary " + " ".join(parts), file=sys.stderr)
    return 0 if status == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
