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

Exit codes: 0 all checks passed, 1 a property check failed, 2 usage or
configuration error, an --out that cannot be written, an input outside a
preparation's domain, or a solver that did not converge (then no CSV is
written).  Results go to --out as CSV
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

import numpy as np

from .diagnostics import (
    affinity_defect,
    convexity_test,
    factorization_residual,
    figure_sweep,
    linearity_scan,
)
from .errors import DomainError, ValidationError
from .evolve import chebyshev_targets, fit_affine_map, reduced_evolution
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


# per-subcommand option schema: name -> (converter, default)
_COMMON = {
    "beta_e": (float, 1.0),
    "tolerance_scale": (float, 1.0),
}

_SCHEMAS = {
    "sweep-bloch": {
        **_COMMON,
        "beta_g": (_parse_float_list, [0.5, 1.0, 1.5]),
        "fz_min": (float, -5.0),
        "fz_max": (float, 5.0),
        "steps": (int, 201),
    },
    "sweep-linearity": {
        **_COMMON,
        "beta_g": (_parse_float_list, [0.0, 0.5, 1.0, 1.5]),
        "s1z_max": (float, 0.9),
        "points": (int, 21),
    },
    "convexity": {
        **_COMMON,
        "beta_g": (_parse_float_list, [1.5]),
        "f_min": (float, -2.0),
        "f_max": (float, 2.0),
        "f_steps": (int, 5),
        "lambdas": (_parse_float_list, [0.25, 0.5, 0.75]),
    },
    "affinity": {
        **_COMMON,
        "beta_g": (_parse_float_list, [1.5]),
        "prep": (str, "equilibrium"),
        "samples": (int, 5),
        "s1z_max": (float, 0.9),
        "t0": (float, 0.7),
        "lambdas": (_parse_float_list, [0.25, 0.5, 0.75]),
    },
    "evolve": {
        **_COMMON,
        "beta_g": (_parse_float_list, [1.5]),
        "prep": (str, "equilibrium"),
        "time": (float, 1.0),
        "fz_grid": (_parse_float_list, [-2.0, -1.0, 0.0, 1.0, 2.0]),
        "evolve_fz": (float, 0.0),
        "t0": (float, 0.7),
    },
    "mori-check": {
        **_COMMON,
        "beta_g": (_parse_float_list, [1.0]),
        "fd_step": (float, 1e-4),
    },
    "pechukas": {
        **_COMMON,
        "beta_g": (_parse_float_list, [1.0]),
        "fz_list": (_parse_float_list, [4.0, 6.0, 8.0]),
    },
}


@dataclass
class Check:
    name: str
    passed: bool
    value: float
    threshold: float


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
    fd_step and tolerance_scale positive, fz_min below fz_max, s1z_max
    inside (0, 1), fz_list at least two fields long, samples at least 2 and
    f_steps at least 1, so that no run tests nothing; no coupling may appear
    twice in beta_g (0 and -0 are the same coupling), so every run-summary
    key is unique.  A violation is a configuration error (exit 2).
    """
    schema = _SCHEMAS[args.subcommand]
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
    if "fz_list" in cfg and len(cfg["fz_list"]) < 2:
        raise ValueError(f"fz-list needs at least two fields to show a decay, got {cfg['fz_list']}")
    for key, least in (("samples", 2), ("f_steps", 1)):
        if key in cfg and cfg[key] < least:
            raise ValueError(f"{key.replace('_', '-')} must be at least {least}, got {cfg[key]}")
    return cfg


def _write_csv(path: str | None, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(map(_fmt, row)) for row in rows)
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


def _run_sweep_bloch(cfg: dict) -> tuple[list[str], list[tuple], list[Check]]:
    steps = cfg["steps"]
    rows = figure_sweep(cfg["beta_e"], cfg["beta_g"], cfg["fz_min"], cfg["fz_max"], steps)
    checks = []
    for k, beta_g in enumerate(cfg["beta_g"]):
        # figure_sweep returns one block of `steps` rows per coupling, in order
        s1z = np.array([r.S1z for r in rows[k * steps : (k + 1) * steps]])
        monotone = bool(np.all(np.diff(s1z) > 0.0))
        checks.append(Check(f"s1z_monotone_bg_{_fmt(beta_g)}", monotone, float(np.diff(s1z).min()), 0.0))
    header = ["beta_g", "beta_Fz", "S1z", "S2z", "Cxx", "Cyy", "Czz"]
    return header, [tuple(r) for r in rows], checks


def _run_sweep_linearity(cfg: dict) -> tuple[list[str], list[tuple], list[Check]]:
    grid = np.linspace(-cfg["s1z_max"], cfg["s1z_max"], cfg["points"])
    header = ["beta_g", "S1z", "S2z", "Cxx", "Cyy", "Czz"]
    rows: list[tuple] = []
    checks: list[Check] = []
    scale = cfg["tolerance_scale"]
    for beta_g in cfg["beta_g"]:
        report = linearity_scan(_model(cfg["beta_e"], beta_g), grid)
        for k, s in enumerate(report.s1z):
            rows.append(
                (
                    beta_g,
                    float(s),
                    float(report.curves["S2z"][k]),
                    float(report.curves["Cxx"][k]),
                    float(report.curves["Cyy"][k]),
                    float(report.curves["Czz"][k]),
                )
            )
        worst = max(fit.max_residual for fit in report.fits.values())
        if beta_g == 0.0:
            checks.append(Check("linear_when_uncoupled", worst < 1e-9 * scale, worst, 1e-9 * scale))
        else:
            checks.append(Check(f"residual_recorded_bg_{_fmt(beta_g)}", True, worst, float("inf")))
    return header, rows, checks


def _run_convexity(cfg: dict) -> tuple[list[str], list[tuple], list[Check]]:
    fields = np.linspace(cfg["f_min"], cfg["f_max"], cfg["f_steps"])
    header = ["beta_g", "F1", "F2", "lambda", "F3", "S2_defect", "C_defect"]
    rows: list[tuple] = []
    checks: list[Check] = []
    scale = cfg["tolerance_scale"]
    for beta_g in cfg["beta_g"]:
        model = _model(cfg["beta_e"], beta_g)
        worst = 0.0
        for f1 in fields:
            for f2 in fields:
                for lam in cfg["lambdas"]:
                    r = convexity_test(model, float(f1), float(f2), float(lam))
                    rows.append((beta_g, r.F1, r.F2, r.weight, r.F3, r.S2_defect, r.C_defect))
                    worst = max(worst, r.S2_defect, r.C_defect)
        if beta_g == 0.0:
            checks.append(Check("convex_when_uncoupled", worst < 1e-10 * scale, worst, 1e-10 * scale))
        else:
            checks.append(Check(f"defect_recorded_bg_{_fmt(beta_g)}", True, worst, float("inf")))
    return header, rows, checks


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
    if kind == "factorize-and-wait":
        return FactorizeAndWait(model, Fz_wait=0.0, t0=cfg["t0"], rho_B0=rho_b)
    raise ValueError(f"unknown preparation {kind!r}")


def _affinity_samples(cfg: dict, prep) -> list[np.ndarray]:
    kind = cfg["prep"]
    if kind == "mori":
        targets = chebyshev_targets(cfg["samples"], -0.05, 0.05)
        return [_z_state(float(s)) for s in targets]
    targets = chebyshev_targets(cfg["samples"], -cfg["s1z_max"], cfg["s1z_max"])
    if kind == "factorizing":
        # off-axis states are fine for the product preparation
        return [
            reduced_from_bloch(np.array([0.3 * np.sin(3.0 * s), 0.2 * np.cos(2.0 * s), float(s)]) * 0.9)
            for s in targets
        ]
    if kind == "factorize-and-wait":
        return [prep.G.apply(_z_state(float(s))) for s in targets]
    return [_z_state(float(s)) for s in targets]


_AFFINITY_TOL = {
    "factorizing": 1e-13,
    "mori": 1e-12,
    "factorize-and-wait": 1e-10,
}


def _run_affinity(cfg: dict) -> tuple[list[str], list[tuple], list[Check]]:
    header = ["prep", "beta_e", "beta_g", "defect"]
    rows: list[tuple] = []
    checks: list[Check] = []
    scale = cfg["tolerance_scale"]
    for beta_g in cfg["beta_g"]:
        model = _model(cfg["beta_e"], beta_g)
        prep = _make_preparation(cfg, model)
        samples = _affinity_samples(cfg, prep)
        defect = affinity_defect(lambda rs: blow_up(prep, rs), samples, cfg["lambdas"])
        rows.append((cfg["prep"], cfg["beta_e"], beta_g, defect))
        name = f"affinity_{cfg['prep']}_bg_{_fmt(beta_g)}"
        if cfg["prep"] in _AFFINITY_TOL:
            tol = _AFFINITY_TOL[cfg["prep"]] * scale
            checks.append(Check(name, defect < tol, defect, tol))
        elif beta_g == 0.0:
            checks.append(Check(name, defect < 1e-9 * scale, defect, 1e-9 * scale))
        else:
            checks.append(Check(name, True, defect, float("inf")))
    return header, rows, checks


# affine-fit tolerance of the reduced evolution under the affine preparations
_EVOLVE_FIT_TOL = {
    "factorizing": 1e-11,
    "mori": 1e-10,
    "factorize-and-wait": 1e-10,
}


def _run_evolve(cfg: dict) -> tuple[list[str], list[tuple], list[Check]]:
    header = ["beta_g", "S1z_in", "Sx_out", "Sy_out", "Sz_out"]
    rows: list[tuple] = []
    checks: list[Check] = []
    scale = cfg["tolerance_scale"]
    for beta_g in cfg["beta_g"]:
        model = _model(cfg["beta_e"], beta_g)
        prep = _make_preparation(cfg, model)
        h_evolve = hamiltonian(model, cfg["evolve_fz"])
        if cfg["prep"] == "mori":
            states = [_z_state(s) for s in np.linspace(-0.05, 0.05, max(5, len(cfg["fz_grid"])))]
        else:
            states = [
                partial_trace(equilibrium_state(model, f), keep=0) for f in cfg["fz_grid"]
            ]
            if cfg["prep"] == "factorize-and-wait":
                states = [prep.G.apply(s) for s in states]
        pairs = []
        for rho_s in states:
            out = reduced_evolution(prep, h_evolve, rho_s, cfg["time"])
            pairs.append((rho_s, out))
            bloch_out = qubit_bloch(out)
            rows.append(
                (beta_g, float(qubit_bloch(rho_s)[2]), *(float(x) for x in bloch_out))
            )
        residual = fit_affine_map(pairs).residual
        name = f"evolution_fit_{cfg['prep']}_bg_{_fmt(beta_g)}"
        if cfg["prep"] in _EVOLVE_FIT_TOL:
            tol = _EVOLVE_FIT_TOL[cfg["prep"]] * scale
            checks.append(Check(name, residual < tol, residual, tol))
        else:
            checks.append(Check(name, True, residual, float("inf")))
    return header, rows, checks


def _run_mori_check(cfg: dict) -> tuple[list[str], list[tuple], list[Check]]:
    header = ["beta_g", "chi", "finite_difference", "residual_02", "residual_01", "ratio"]
    rows: list[tuple] = []
    checks: list[Check] = []
    scale = cfg["tolerance_scale"]
    step = cfg["fd_step"]
    for beta_g in cfg["beta_g"]:
        model = _model(cfg["beta_e"], beta_g)
        chi = float(susceptibility(model, [SZ])[0, 0])
        fd = (
            equilibrium_observables(model, step).S1z
            - equilibrium_observables(model, -step).S1z
        ) / (2.0 * step)
        prep = MoriLinearResponse(model, (SZ,))
        residuals = {}
        for beta_f in (0.02, 0.01):
            rho_s = partial_trace(equilibrium_state(model, beta_f), keep=0)
            residuals[beta_f] = float(
                np.linalg.norm(blow_up(prep, rho_s) - equilibrium_state(model, beta_f))
            )
        ratio = residuals[0.02] / residuals[0.01]
        rows.append((beta_g, chi, float(fd), residuals[0.02], residuals[0.01], ratio))
        checks.append(
            Check(
                f"chi_matches_fd_bg_{_fmt(beta_g)}",
                abs(chi - fd) < 1e-6 * scale,
                abs(chi - fd),
                1e-6 * scale,
            )
        )
        checks.append(
            Check(
                f"quadratic_order_bg_{_fmt(beta_g)}",
                2.8 <= ratio <= 5.2,
                ratio,
                4.0,
            )
        )
    return header, rows, checks


def _run_pechukas(cfg: dict) -> tuple[list[str], list[tuple], list[Check]]:
    header = ["beta_g", "beta_Fz", "residual"]
    rows: list[tuple] = []
    checks: list[Check] = []
    for beta_g in cfg["beta_g"]:
        model = _model(cfg["beta_e"], beta_g)
        values = []
        for fz in cfg["fz_list"]:
            res = factorization_residual(equilibrium_state(model, fz))
            values.append(res)
            rows.append((beta_g, fz, res))
        decreasing = all(a > b for a, b in zip(values, values[1:]))
        checks.append(
            Check(f"residual_decay_bg_{_fmt(beta_g)}", decreasing, values[-1], values[0])
        )
    return header, rows, checks


_RUNNERS = {
    "sweep-bloch": _run_sweep_bloch,
    "sweep-linearity": _run_sweep_linearity,
    "convexity": _run_convexity,
    "affinity": _run_affinity,
    "evolve": _run_evolve,
    "mori-check": _run_mori_check,
    "pechukas": _run_pechukas,
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
        "prep": "preparation: equilibrium, factorizing, mori, factorize-and-wait",
    }
    for name, schema in _SCHEMAS.items():
        p = sub.add_parser(name)
        for key in schema:
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
    except (OSError, ValueError) as err:
        print(f"spinprep: configuration error: {err}", file=sys.stderr)
        return 2
    try:
        header, rows, checks = _RUNNERS[args.subcommand](cfg)
        _write_csv(args.out, header, rows)
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
