"""Command-line front end: parameter sweeps, property checks, CSV output.

Subcommands
    sweep-bloch       S1z (and friends) against the field, per coupling
    sweep-linearity   equilibrium observables against S1z plus straight-line fits
    convexity         convex-combination defects on an (F1, F2, lambda) lattice
    affinity          affinity defect of a chosen preparation's blow-up map
    evolve            reduced evolution samples and their affine-fit residual
    mori-check        susceptibility vs finite differences, quadratic-order check
    pechukas          factorization residual of equilibrium states at large fields

Shared flags: --beta-e, --beta-g (comma list), --out PATH (default stdout),
--config PATH (key=value file, flags win), --tolerance-scale FLOAT
(multiplies every pass/fail tolerance).

Couplings run independently and in order: --beta-g=a,b writes the header,
the rows of --beta-g=a, then those of --beta-g=b, and its run-summary lists
the checks of a, then those of b.  The witnesses of the equilibrium
preparation are gated when uncoupled, where they vanish, and recorded when
coupled; every other preparation is gated at every coupling.  Uncoupled,
the mori-check and pechukas residuals are roundoff, so there they are gated
themselves (below 1e-12) in place of their quadratic order and their decay.

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
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diagnostics import (
    affinity_defect,
    convexity_test,
    factorization_residual,
    figure_sweep,
    linearity_scan,
)
from .errors import DomainError, ValidationError
from .evolve import chebyshev_targets, fit_affine_map, propagator, reduced_evolution
from .linalg import partial_trace
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


def _fmt(value) -> str:
    # np.float64 is a float subclass and formats like one
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as err:
        raise ValueError(f"expected a comma-separated list of numbers, got {text!r}") from err


# --prep -> subcommand -> tolerance of its gate: the affinity defect of the
# blow-up (affinity), the affine-fit residual of the reduced evolution
# (evolve).  The equilibrium gates hold only when uncoupled.
_PREPARATIONS = {
    "equilibrium": {"affinity": 1e-9, "evolve": 1e-9},
    "factorizing": {"affinity": 1e-13, "evolve": 1e-11},
    "mori": {"affinity": 1e-12, "evolve": 1e-10},
    "factorize-and-wait": {"affinity": 1e-10, "evolve": 1e-10},
}

# the Mori blow-up is a linear response: its samples stay within |S1z| <= this
_MORI_S1Z = 0.05


def _parse_preparation(text: str) -> str:
    if text not in _PREPARATIONS:
        choices = ", ".join(_PREPARATIONS)
        raise ValueError(f"unknown preparation {text!r}, expected one of {choices}")
    return text


# the options of every subcommand: name -> (converter, default)
_COMMON = {
    "beta_e": (float, 1.0),
    "tolerance_scale": (float, 1.0),
}


@dataclass
class Check:
    name: str
    passed: bool
    value: float


def _gate(cfg: dict, name: str, value: float, tol: float) -> Check:
    return Check(name, value < tol * cfg["tolerance_scale"], value)


def _equilibrium_gate(cfg: dict, beta_g: float, names: tuple, value: float, tol: float) -> Check:
    """The equilibrium gate policy: gated when uncoupled, recorded when coupled.

    names is (uncoupled name, coupled name).  An equilibrium witness vanishes
    at g = 0, so there it must stay below tol; at g != 0 it is the
    nonlinearity being measured, and it is recorded as a pass.
    """
    if beta_g == 0.0:
        return _gate(cfg, names[0], value, tol)
    return Check(names[1], True, value)


def _preparation_gate(cfg: dict, beta_g: float, subcommand: str, name: str, value: float) -> Check:
    tol = _PREPARATIONS[cfg["prep"]][subcommand]
    if cfg["prep"] == "equilibrium":
        return _equilibrium_gate(cfg, beta_g, (name, name), value, tol)
    return _gate(cfg, name, value, tol)


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

    Every number and list entry must be finite, every list nonempty,
    fd_step and tolerance_scale positive, fz_min below fz_max, s1z_max and
    every mixing weight in lambdas inside (0, 1), fz_list at least two fields
    long, fz_grid at least five fields with at least two distinct ones (the
    affine fit's minimum; the Mori preparation samples its own states),
    samples at least 2, f_steps at least 1, points at least 3 and steps at
    least 2, so that no run tests nothing; no coupling may appear twice in
    beta_g (0 and -0 are the same coupling), so every run-summary key is
    unique; prep must name a preparation of the table, and t0 must be
    positive for factorize-and-wait.  A violation is a configuration error
    (exit 2), found before any runner starts.
    """
    schema = _SUBCOMMANDS[args.subcommand].options
    config = _read_config(args.config) if args.config else {}
    unknown = set(config) - set(schema)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    cfg = {}
    for key, (convert, default) in schema.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            cfg[key] = convert(flag_value) if isinstance(flag_value, str) else flag_value
        elif key in config:
            cfg[key] = convert(config[key])
        else:
            cfg[key] = default
    for key, value in cfg.items():
        if isinstance(value, str):
            continue
        flag = key.replace("_", "-")
        numbers = value if isinstance(value, list) else [value]
        if not numbers:
            raise ValueError(f"{flag} needs at least one value")
        if not all(map(math.isfinite, numbers)):
            raise ValueError(f"{flag} must be finite, got {value}")
    if len(set(cfg["beta_g"])) < len(cfg["beta_g"]):
        raise ValueError(f"beta-g lists a coupling more than once, got {cfg['beta_g']}")
    for key in ("fd_step", "tolerance_scale"):
        if key in cfg and not cfg[key] > 0.0:
            raise ValueError(f"{key.replace('_', '-')} must be finite and positive, got {cfg[key]}")
    if "fz_min" in cfg and not cfg["fz_min"] < cfg["fz_max"]:
        raise ValueError(f"fz-min must be below fz-max, got {cfg['fz_min']} and {cfg['fz_max']}")
    if "s1z_max" in cfg and not 0.0 < cfg["s1z_max"] < 1.0:
        raise ValueError(f"s1z-max must lie strictly between 0 and 1, got {cfg['s1z_max']}")
    if "lambdas" in cfg and not all(0.0 < lam < 1.0 for lam in cfg["lambdas"]):
        raise ValueError(f"lambdas must lie strictly between 0 and 1, got {cfg['lambdas']}")
    if "fz_list" in cfg and len(cfg["fz_list"]) < 2:
        raise ValueError(f"fz-list needs at least two fields to show a decay, got {cfg['fz_list']}")
    if "fz_grid" in cfg and cfg["prep"] != "mori":
        if len(cfg["fz_grid"]) < 5:
            raise ValueError(f"fz-grid needs at least five fields for the affine fit, got {cfg['fz_grid']}")
        if len(set(cfg["fz_grid"])) < 2:
            raise ValueError(f"fz-grid needs at least two distinct fields for the affine fit, got {cfg['fz_grid']}")
    if cfg.get("prep") == "factorize-and-wait" and not cfg["t0"] > 0.0:
        raise ValueError(f"t0 must be positive for factorize-and-wait, got {cfg['t0']}")
    for key, least in (("samples", 2), ("f_steps", 1), ("points", 3), ("steps", 2)):
        if key in cfg and cfg[key] < least:
            raise ValueError(f"{key.replace('_', '-')} must be at least {least}, got {cfg[key]}")
    return cfg


def _write_csv(path: str | None, header: tuple[str, ...], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    if rows:
        # one row template, the same bytes as _fmt per cell: every row of a
        # subcommand has the cell types of its first
        template = ",".join("%.17g" if isinstance(v, float) else "%s" for v in rows[0])
        lines.extend(template % row for row in rows)
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _model(beta_e: float, beta_g: float) -> ModelParams:
    # dimensionless convention: beta = 1, couplings carry the beta products
    return ModelParams(beta=1.0, e=beta_e, g=beta_g)


def _z_state(s1z: float):
    return reduced_from_bloch(np.array([0.0, 0.0, s1z]))


def _make_preparation(cfg: dict, model: ModelParams):
    kind = cfg["prep"]
    if kind == "equilibrium":
        return Equilibrium(model)
    if kind == "mori":
        return MoriLinearResponse(model, (SZ,))
    # the product preparations start from the zero-field environment marginal
    rho_b = partial_trace(equilibrium_state(model, 0.0), keep=1)
    if kind == "factorizing":
        return Factorizing(rho_b)
    return FactorizeAndWait(model, Fz_wait=0.0, t0=cfg["t0"], rho_B0=rho_b)


def _into_range(cfg: dict, prep, states: list) -> list:
    # factorize-and-wait blows up only states in the range of its wait map G
    if cfg["prep"] == "factorize-and-wait":
        return [prep.G.apply(s) for s in states]
    return states


def _run_sweep_bloch(cfg: dict, beta_g: float) -> tuple[list[tuple], list[Check]]:
    rows = figure_sweep(cfg["beta_e"], [beta_g], cfg["fz_min"], cfg["fz_max"], cfg["steps"])
    rises = np.diff([r.S1z for r in rows])
    check = Check(f"s1z_monotone_bg_{_fmt(beta_g)}", bool(np.all(rises > 0.0)), float(rises.min()))
    return [tuple(r) for r in rows], [check]


def _run_sweep_linearity(cfg: dict, beta_g: float) -> tuple[list[tuple], list[Check]]:
    grid = np.linspace(-cfg["s1z_max"], cfg["s1z_max"], cfg["points"])
    report = linearity_scan(_model(cfg["beta_e"], beta_g), grid)
    curves = [report.curves[name] for name in ("S2z", "Cxx", "Cyy", "Czz")]
    rows = [(beta_g, float(s), *(float(c[k]) for c in curves)) for k, s in enumerate(report.s1z)]
    worst = max(fit.max_residual for fit in report.fits.values())
    names = ("linear_when_uncoupled", f"residual_recorded_bg_{_fmt(beta_g)}")
    return rows, [_equilibrium_gate(cfg, beta_g, names, worst, 1e-9)]


def _run_convexity(cfg: dict, beta_g: float) -> tuple[list[tuple], list[Check]]:
    model = _model(cfg["beta_e"], beta_g)
    fields = np.linspace(cfg["f_min"], cfg["f_max"], cfg["f_steps"])
    rows: list[tuple] = []
    worst = 0.0
    for f1 in fields:
        for f2 in fields:
            for lam in cfg["lambdas"]:
                r = convexity_test(model, float(f1), float(f2), float(lam))
                rows.append((beta_g, r.F1, r.F2, r.weight, r.F3, r.S2_defect, r.C_defect))
                worst = max(worst, r.S2_defect, r.C_defect)
    names = ("convex_when_uncoupled", f"defect_recorded_bg_{_fmt(beta_g)}")
    return rows, [_equilibrium_gate(cfg, beta_g, names, worst, 1e-10)]


def _run_affinity(cfg: dict, beta_g: float) -> tuple[list[tuple], list[Check]]:
    prep = _make_preparation(cfg, _model(cfg["beta_e"], beta_g))
    reach = _MORI_S1Z if cfg["prep"] == "mori" else cfg["s1z_max"]
    targets = chebyshev_targets(cfg["samples"], -reach, reach)
    if cfg["prep"] == "factorizing":
        # off-axis states are fine for the product preparation
        bloch = [[0.3 * np.sin(3.0 * s), 0.2 * np.cos(2.0 * s), float(s)] for s in targets]
        samples = [reduced_from_bloch(np.array(b) * 0.9) for b in bloch]
    else:
        samples = _into_range(cfg, prep, [_z_state(float(s)) for s in targets])
    defect = affinity_defect(lambda rs: blow_up(prep, rs), samples, cfg["lambdas"])
    name = f"affinity_{cfg['prep']}_bg_{_fmt(beta_g)}"
    check = _preparation_gate(cfg, beta_g, "affinity", name, defect)
    return [(cfg["prep"], cfg["beta_e"], beta_g, defect)], [check]


def _run_evolve(cfg: dict, beta_g: float) -> tuple[list[tuple], list[Check]]:
    model = _model(cfg["beta_e"], beta_g)
    prep = _make_preparation(cfg, model)
    u = propagator(hamiltonian(model, cfg["evolve_fz"]), cfg["time"])
    if cfg["prep"] == "mori":
        s1z = np.linspace(-_MORI_S1Z, _MORI_S1Z, max(5, len(cfg["fz_grid"])))
        states = [_z_state(s) for s in s1z]
    else:
        states = [partial_trace(equilibrium_state(model, f), keep=0) for f in cfg["fz_grid"]]
        states = _into_range(cfg, prep, states)
    pairs = [(rho_s, reduced_evolution(prep, u, rho_s)) for rho_s in states]
    rows = [
        (beta_g, float(qubit_bloch(rho_s)[2]), *(float(x) for x in qubit_bloch(out)))
        for rho_s, out in pairs
    ]
    residual = fit_affine_map(pairs).residual
    name = f"evolution_fit_{cfg['prep']}_bg_{_fmt(beta_g)}"
    return rows, [_preparation_gate(cfg, beta_g, "evolve", name, residual)]


def _run_mori_check(cfg: dict, beta_g: float) -> tuple[list[tuple], list[Check]]:
    model = _model(cfg["beta_e"], beta_g)
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
    ratio = residuals[0] / residuals[1]
    if beta_g == 0.0:
        # uncoupled, the Mori blow-up is exact: both residuals are roundoff
        order = _gate(cfg, "mori_exact_when_uncoupled", max(residuals), 1e-12)
    else:
        order = Check(f"quadratic_order_bg_{_fmt(beta_g)}", 2.8 <= ratio <= 5.2, ratio)
    chi_check = _gate(cfg, f"chi_matches_fd_bg_{_fmt(beta_g)}", abs(chi - fd), 1e-6)
    return [(beta_g, chi, float(fd), *residuals, ratio)], [chi_check, order]


def _run_pechukas(cfg: dict, beta_g: float) -> tuple[list[tuple], list[Check]]:
    model = _model(cfg["beta_e"], beta_g)
    values = [factorization_residual(equilibrium_state(model, fz)) for fz in cfg["fz_list"]]
    rows = [(beta_g, fz, res) for fz, res in zip(cfg["fz_list"], values)]
    if beta_g == 0.0:
        # uncoupled, the equilibrium state is a product: every residual is roundoff
        return rows, [_gate(cfg, "factorized_when_uncoupled", max(values), 1e-12)]
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    return rows, [Check(f"residual_decay_bg_{_fmt(beta_g)}", decreasing, values[-1])]


class _Subcommand:
    """A subcommand's runner, its CSV header and its option schema."""

    def __init__(self, run: Callable, header: tuple[str, ...], **options):
        self.run = run  # (cfg, beta_g) -> (rows, checks) of one coupling
        self.header = header
        self.options = {**_COMMON, **options}  # name -> (converter, default)


_SUBCOMMANDS = {
    "sweep-bloch": _Subcommand(
        _run_sweep_bloch,
        ("beta_g", "beta_Fz", "S1z", "S2z", "Cxx", "Cyy", "Czz"),
        beta_g=(_parse_float_list, [0.5, 1.0, 1.5]),
        fz_min=(float, -5.0),
        fz_max=(float, 5.0),
        steps=(int, 201),
    ),
    "sweep-linearity": _Subcommand(
        _run_sweep_linearity,
        ("beta_g", "S1z", "S2z", "Cxx", "Cyy", "Czz"),
        beta_g=(_parse_float_list, [0.0, 0.5, 1.0, 1.5]),
        s1z_max=(float, 0.9),
        points=(int, 21),
    ),
    "convexity": _Subcommand(
        _run_convexity,
        ("beta_g", "F1", "F2", "lambda", "F3", "S2_defect", "C_defect"),
        beta_g=(_parse_float_list, [1.5]),
        f_min=(float, -2.0),
        f_max=(float, 2.0),
        f_steps=(int, 5),
        lambdas=(_parse_float_list, [0.25, 0.5, 0.75]),
    ),
    "affinity": _Subcommand(
        _run_affinity,
        ("prep", "beta_e", "beta_g", "defect"),
        beta_g=(_parse_float_list, [1.5]),
        prep=(_parse_preparation, "equilibrium"),
        samples=(int, 5),
        s1z_max=(float, 0.9),
        t0=(float, 0.7),
        lambdas=(_parse_float_list, [0.25, 0.5, 0.75]),
    ),
    "evolve": _Subcommand(
        _run_evolve,
        ("beta_g", "S1z_in", "Sx_out", "Sy_out", "Sz_out"),
        beta_g=(_parse_float_list, [1.5]),
        prep=(_parse_preparation, "equilibrium"),
        time=(float, 1.0),
        fz_grid=(_parse_float_list, [-2.0, -1.0, 0.0, 1.0, 2.0]),
        evolve_fz=(float, 0.0),
        t0=(float, 0.7),
    ),
    "mori-check": _Subcommand(
        _run_mori_check,
        ("beta_g", "chi", "finite_difference", "residual_02", "residual_01", "ratio"),
        beta_g=(_parse_float_list, [1.0]),
        fd_step=(float, 1e-4),
    ),
    "pechukas": _Subcommand(
        _run_pechukas,
        ("beta_g", "beta_Fz", "residual"),
        beta_g=(_parse_float_list, [1.0]),
        fz_list=(_parse_float_list, [4.0, 6.0, 8.0]),
    ),
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
    flag_help = {
        "beta_e": "beta*e, environment-spin splitting (default 1)",
        "beta_g": "comma-separated beta*g couplings",
        "tolerance_scale": "multiply every pass/fail tolerance (default 1)",
        "prep": "preparation: " + ", ".join(_PREPARATIONS),
    }
    for name, command in _SUBCOMMANDS.items():
        p = sub.add_parser(name)
        for key in command.options:
            p.add_argument(
                "--" + key.replace("_", "-"),
                dest=key,
                default=None,
                help=flag_help.get(key, ""),
            )
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
    rows: list[tuple] = []
    checks: list[Check] = []
    try:
        # the one loop over couplings: each runs on its own, in the given order
        for beta_g in cfg["beta_g"]:
            coupling_rows, coupling_checks = command.run(cfg, beta_g)
            rows += coupling_rows
            checks += coupling_checks
        _write_csv(args.out, command.header, rows)
    except (DomainError, ValidationError, ValueError, RuntimeError, OSError) as err:
        # RuntimeError: a solver that did not converge (invert_field); no result.
        # OSError: --out cannot be written (a missing directory, a directory)
        print(f"spinprep: {err}", file=sys.stderr)
        return 2

    status = "pass" if all(c.passed for c in checks) else "fail"
    parts = [f"subcommand={args.subcommand}", f"status={status}", f"rows={len(rows)}"]
    for c in checks:
        parts.append(f"{c.name}={'pass' if c.passed else 'fail'}")
        parts.append(f"{c.name}_value={_fmt(c.value)}")
    print("run-summary " + " ".join(parts), file=sys.stderr)
    return 0 if status == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
