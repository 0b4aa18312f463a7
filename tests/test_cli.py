import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import spinprep.cli
import spinprep.diagnostics
import spinprep.evolve
import spinprep.linalg
import spinprep.prepare
from spinprep import ModelParams, equilibrium_observables, invert_field
from spinprep.cli import (
    _OPTIONS,
    _SUBCOMMANDS,
    _THRESHOLDS,
    _csv_rows,
    _field_cells,
    _fmt,
    _write_csv,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def summary_value(err, key):
    line = [l for l in err.splitlines() if l.startswith("run-summary")][-1]
    for part in line.split():
        if part.startswith(key + "="):
            return part.split("=", 1)[1]
    raise AssertionError(f"{key} not in summary: {line}")


def summary_checks(err):
    # the check entries of the run-summary, after subcommand, status and rows
    line = [l for l in err.splitlines() if l.startswith("run-summary")][-1]
    return line.split()[4:]


class TestSweepBloch:
    def test_fig1_shape_and_exit(self, capsys, tmp_path):
        out = tmp_path / "fig1.csv"
        code, _, err = run(
            capsys,
            "sweep-bloch",
            "--beta-e", "1",
            "--beta-g", "0.5,1,1.5",
            "--fz-min", "-5",
            "--fz-max", "5",
            "--steps", "201",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "beta_g,beta_Fz,S1z,S2z,Cxx,Cyy,Czz"
        assert len(lines) == 1 + 603
        assert summary_value(err, "status") == "pass"

    @pytest.mark.parametrize(
        "args",
        [
            pytest.param(["sweep-bloch", "--steps", "51"], id="sweep-bloch"),
            # the subcommands below run through herm_eig and validate_density
            pytest.param(["evolve", "--prep", "equilibrium"], id="evolve-equilibrium"),
            pytest.param(["affinity", "--prep", "mori"], id="affinity-mori"),
            pytest.param(
                ["affinity", "--prep", "factorize-and-wait"], id="affinity-factorize-and-wait"
            ),
            pytest.param(["pechukas"], id="pechukas"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, tmp_path, args):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, *args, "--out", str(out1))[0] == 0
        assert run(capsys, *args, "--out", str(out2))[0] == 0
        assert len(out1.read_text().splitlines()) >= 2  # header and at least one row
        assert out1.read_bytes() == out2.read_bytes()

    def test_stdout_by_default(self, capsys):
        code, out, _ = run(capsys, "sweep-bloch", "--steps", "3", "--beta-g", "1")
        assert code == 0
        assert out.startswith("beta_g,")
        assert len(out.splitlines()) == 4

    def test_row_template_writes_the_cell_format_bytes(self, capsys, tmp_path):
        # the formatter's one row template gives the bytes of _fmt per cell;
        # text that is the same in every row sits in the template itself
        specials = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072009e-308]
        rows = [
            (np.float64(x), x, -x, 0.1 * (k + 1), np.float64(1.0 / 3.0))
            for k, x in enumerate(specials)
        ]
        header = ("prep", "a", "b", "c", "d", "e")
        expected = "\n".join([",".join(header), *("mori," + ",".join(map(_fmt, r)) for r in rows)]) + "\n"
        template = "mori" + ",%.17g" * 5 + "\n"

        def cells(chunk):
            return [cell for row in chunk for cell in row]

        _write_csv(None, header, [_csv_rows(cells(rows), template)])
        assert capsys.readouterr().out == expected
        target = tmp_path / "rows.csv"
        chunks = [_csv_rows(cells(rows[:2]), template), _csv_rows([], template), _csv_rows(cells(rows[2:]), template)]
        _write_csv(str(target), header, chunks)
        assert target.read_bytes() == expected.encode()

    @staticmethod
    def _figure_rows(beta_e, couplings, grid):
        # the CSV rows of figure_sweep's points, every cell through _fmt
        return [
            ",".join(map(_fmt, (beta_g, *point)))
            for beta_g in couplings
            for point in spinprep.diagnostics.figure_sweep(ModelParams(1.0, beta_e, beta_g), *grid)
        ]

    @pytest.mark.parametrize(
        "flags, beta_e, couplings, grid",
        [
            # -0 and a tiny coupling: the coupling cell in the template holds
            # the bytes of _fmt of the float
            (("--beta-g=-0,1e-300,1.5", "--steps=7"), 1.0, (-0.0, 1e-300, 1.5), (-5.0, 5.0, 7)),
            (("--steps=2",), 1.0, (0.5, 1.0, 1.5), (-5.0, 5.0, 2)),
            (("--beta-g=-1.5,0.5", "--steps=11"), 1.0, (-1.5, 0.5), (-5.0, 5.0, 11)),
            (("--beta-e=1e308", "--steps=9"), 1e308, (0.5, 1.0, 1.5), (-5.0, 5.0, 9)),
            # steps below an ulp: equal fields, each written as its own cell
            (
                ("--fz-min=1", "--fz-max=1.000000000000001", "--steps=50"),
                1.0,
                (0.5, 1.0, 1.5),
                (1.0, 1.000000000000001, 50),
            ),
        ],
        ids=["minus-zero-and-tiny-coupling", "steps-2", "negative-coupling", "beta-e-1e308", "sub-ulp-grid"],
    )
    def test_rows_are_the_cells_of_each_figure_sweep_point(self, capsys, flags, beta_e, couplings, grid):
        code, out, _ = run(capsys, "sweep-bloch", *flags)
        assert code == 0
        assert out.splitlines()[1:] == self._figure_rows(beta_e, couplings, grid)

    def test_field_cells_serve_only_their_own_grid(self, capsys):
        # main calls in one process: the same grid with other couplings, then
        # other grids, -0 and 0 as a last field among them.  The field cells
        # are formatted once per grid; no run writes another grid's fields or
        # another run's couplings
        runs = [
            (("--beta-g=0.5,1", "--fz-min=-3", "--fz-max=2", "--steps=7"), (0.5, 1.0), (-3.0, 2.0, 7), 1),
            (("--beta-g=-2,3", "--fz-min=-3", "--fz-max=2", "--steps=7"), (-2.0, 3.0), (-3.0, 2.0, 7), 0),
            (("--beta-g=-2", "--fz-min=-3", "--fz-max=2", "--steps=8"), (-2.0,), (-3.0, 2.0, 8), 1),
            (("--beta-g=1", "--fz-min=-1", "--fz-max=0", "--steps=3"), (1.0,), (-1.0, 0.0, 3), 1),
            (("--beta-g=1", "--fz-min=-1", "--fz-max=-0", "--steps=3"), (1.0,), (-1.0, -0.0, 3), 1),
        ]
        for flags, couplings, grid, formatted in runs:
            before = _field_cells.cache_info().misses
            code, out, _ = run(capsys, "sweep-bloch", *flags)
            assert code == 0
            assert out.splitlines()[1:] == self._figure_rows(1.0, couplings, grid), flags
            assert _field_cells.cache_info().misses - before == formatted, flags
        assert [line.split(",")[1] for line in out.splitlines()[1:]] == ["-1", "-0.5", "-0"]

    def test_writes_only_the_requested_file(self, capsys, tmp_path):
        target = tmp_path / "only.csv"
        before = set(p.name for p in tmp_path.iterdir())
        run(capsys, "sweep-bloch", "--steps", "11", "--out", str(target))
        after = set(p.name for p in tmp_path.iterdir())
        assert after - before == {"only.csv"}

    @pytest.mark.parametrize(
        "argv, check, value",
        [
            # the field steps are below an ulp of S1z: equal or 1-ulp-apart values
            (
                ("--fz-min=1", "--fz-max=1.000000000000001", "--steps=50"),
                "s1z_monotone_bg_0.5",
                "-1.1102230246251565e-16",
            ),
            # tanh saturates: the values near +-1 differ by roundoff
            (
                ("--beta-g=0", "--fz-min=-40", "--fz-max=40"),
                "s1z_monotone_bg_0",
                "-3.3306690738754696e-16",
            ),
        ],
        ids=["field-step-below-an-ulp", "saturated-tanh"],
    )
    def test_roundoff_drops_pass_the_monotonicity_gate(self, capsys, argv, check, value):
        code, _, err = run(capsys, "sweep-bloch", *argv)
        assert code == 0
        assert summary_value(err, "status") == "pass"
        assert summary_value(err, check) == "pass"
        assert summary_value(err, check + "_value") == value

    @staticmethod
    def _patched_sweep(monkeypatch, edit):
        figure_sweep = spinprep.diagnostics.figure_sweep

        def patched(*args):
            points = figure_sweep(*args)
            edit(points)
            return points

        monkeypatch.setattr(spinprep.cli, "figure_sweep", patched)

    def test_swapped_points_fail_the_monotonicity_gate(self, capsys, monkeypatch):
        def swap(points):
            points[100], points[101] = points[101], points[100]

        self._patched_sweep(monkeypatch, swap)
        code, out, err = run(capsys, "sweep-bloch", "--beta-g=1")
        assert code == 1
        assert summary_value(err, "s1z_monotone_bg_1") == "fail"
        assert float(summary_value(err, "s1z_monotone_bg_1_value")) < -1e-3
        # the beta_Fz cells are the swapped points' own fields, not the grid's
        fields = np.linspace(-5.0, 5.0, 201).tolist()
        fields[100], fields[101] = fields[101], fields[100]
        assert [line.split(",")[1] for line in out.splitlines()[1:]] == [_fmt(fz) for fz in fields]

    @pytest.mark.parametrize("drop, passed", [(1.5e-15, True), (2.5e-15, False), (1e-14, False)])
    def test_a_drop_beyond_roundoff_fails_the_monotonicity_gate(self, capsys, monkeypatch, drop, passed):
        # point 101 moved to just below point 100: only a drop within the
        # 2e-15 roundoff of two S1z values passes, at any tolerance scale
        def lower(points):
            points[101] = points[101]._replace(S1z=points[100].S1z - drop)

        self._patched_sweep(monkeypatch, lower)
        code, _, err = run(capsys, "sweep-bloch", "--beta-g=1", "--tolerance-scale=1e6")
        assert code == (0 if passed else 1)
        assert summary_value(err, "s1z_monotone_bg_1") == ("pass" if passed else "fail")


class TestAffinity:
    def test_factorizing_passes_tight_tolerance(self, capsys):
        code, out, err = run(capsys, "affinity", "--prep", "factorizing")
        assert code == 0
        defect = float(summary_value(err, "affinity_factorizing_bg_1.5_value"))
        assert defect < 1e-13

    def test_equilibrium_reports_frozen_scale_defect(self, capsys, baselines):
        code, _, err = run(capsys, "affinity", "--prep", "equilibrium", "--beta-g", "1.5")
        assert code == 0
        defect = float(summary_value(err, "affinity_equilibrium_bg_1.5_value"))
        frozen = baselines["equilibrium_affinity_defect_bg_1.5"]
        assert abs(defect - frozen) <= 0.01 * frozen

    def test_tolerance_scale_can_fail_the_run(self, capsys):
        code, _, err = run(
            capsys, "affinity", "--prep", "factorizing", "--tolerance-scale", "1e-30"
        )
        assert code == 1
        assert summary_value(err, "status") == "fail"

    def test_unknown_preparation(self, capsys):
        code, _, _ = run(capsys, "affinity", "--prep", "bogus")
        assert code == 2

    @pytest.mark.parametrize(
        "prep, floor",
        [("equilibrium", "3.162e-05"), ("factorize-and-wait", "1.000e-05")],
        ids=["equilibrium", "factorize-and-wait"],
    )
    def test_samples_of_one_state_are_an_input_error(self, capsys, prep, floor):
        # every target of |S1z| <= 1e-17 rounds to the maximally mixed state:
        # the test would mix a state with itself and read roundoff as affine.
        # Their spread, 0, is below the floor, which is checked first
        code, out, err = run(capsys, "affinity", f"--prep={prep}", "--s1z-max=1e-17")
        assert code == 2
        assert out == ""
        assert err == (
            f"spinprep: affinity samples lie within 0.000e+00 of each other (Frobenius), below {floor}, "
            "the square root of the gate, where no quadratic nonlinearity shows; widen --s1z-max "
            "or lower --tolerance-scale\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [("--s1z-max=1e-15",), ("--prep=factorizing", "--s1z-max=1e-300")],
        ids=["equilibrium-1e-15", "factorizing-1e-300"],
    )
    def test_samples_too_close_are_refused_before_any_blow_up(self, capsys, monkeypatch, argv):
        # the spread floor reads only the samples, so it is checked first
        calls = []
        for module in (spinprep.cli, spinprep.prepare):
            original = module.blow_up

            def counting(*args, _original=original):
                calls.append(args)
                return _original(*args)

            monkeypatch.setattr(module, "blow_up", counting)
        code, out, _ = run(capsys, "affinity", *argv)
        assert (code, out, calls) == (2, "", [])
        # the counter does count: the same preparation at the defaults blows up
        assert run(capsys, "affinity", *argv[:-1])[0] == 0
        assert calls

    @pytest.mark.parametrize(
        "argv, spread, floor",
        [
            (("--s1z-max=1e-15",), "1.335e-15", "3.162e-05"),
            (("--prep=factorizing", "--s1z-max=1e-300"), "1.089e-300", "3.162e-07"),
            (("--s1z-max=3e-5", "--tolerance-scale=1e3"), "4.035e-05", "1.000e-03"),
            (("--prep=mori", "--tolerance-scale=1e10"), "6.725e-02", "1.000e-01"),
        ],
        ids=["equilibrium-1e-15", "factorizing-1e-300", "equilibrium-scaled", "mori-scaled"],
    )
    def test_samples_within_the_root_of_the_gate_are_an_input_error(self, capsys, argv, spread, floor):
        # a quadratic nonlinearity moves the defect by the spread squared, so
        # samples that differ by roundoff would pass any map as affine
        code, out, err = run(capsys, "affinity", *argv)
        assert code == 2
        assert out == ""
        assert err == (
            f"spinprep: affinity samples lie within {spread} of each other (Frobenius), below {floor}, "
            "the square root of the gate, where no quadratic nonlinearity shows; widen --s1z-max "
            "or lower --tolerance-scale\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [("--s1z-max=3e-5",), ("--prep=factorizing", "--s1z-max=4e-7"), ("--prep=factorize-and-wait", "--s1z-max=1e-4")],
        ids=["equilibrium", "factorizing", "factorize-and-wait"],
    )
    def test_samples_beyond_the_root_of_the_gate_run(self, capsys, argv):
        code, _, err = run(capsys, "affinity", *argv)
        assert code == 0
        assert summary_value(err, "status") == "pass"

    def test_mori_ignores_s1z_max(self, capsys):
        # the Mori preparation takes its targets within |S1z| <= 0.05, as its
        # --help says, whatever --s1z-max is
        runs = [run(capsys, "affinity", "--prep=mori", *flag) for flag in ((), ("--s1z-max=0.01",), ("--s1z-max=0.5",))]
        assert runs[0][0] == 0
        assert runs[1] == runs[0] and runs[2] == runs[0]


class TestEvolve:
    def test_equilibrium_pipeline(self, capsys, baselines):
        code, out, err = run(capsys, "evolve", "--prep", "equilibrium")
        assert code == 0
        residual = float(summary_value(err, "evolution_fit_equilibrium_bg_1.5_value"))
        frozen = baselines["evolution_fit_residual_bg_1.5"]
        assert abs(residual - frozen) <= 0.01 * frozen
        assert out.splitlines()[0] == "beta_g,S1z_in,Sx_out,Sy_out,Sz_out"

    def test_factorizing_pipeline_linear(self, capsys):
        code, _, err = run(capsys, "evolve", "--prep", "factorizing")
        assert code == 0
        residual = float(summary_value(err, "evolution_fit_factorizing_bg_1.5_value"))
        assert residual < 1e-11

    def test_factorize_and_wait_fit_is_gated(self, capsys):
        # affine by construction: the fit is held to 1e-10 times the scale
        code, _, err = run(capsys, "evolve", "--prep", "factorize-and-wait")
        assert code == 0
        residual = float(summary_value(err, "evolution_fit_factorize-and-wait_bg_1.5_value"))
        assert residual < 1e-10
        code, _, err = run(
            capsys, "evolve", "--prep", "factorize-and-wait", "--tolerance-scale", "1e-7"
        )
        assert code == 1
        assert summary_value(err, "status") == "fail"

    def test_mori_samples_its_own_states(self, capsys):
        # the Mori preparation ignores the grid's length: five states at least
        code, out, _ = run(capsys, "evolve", "--prep=mori", "--fz-grid=-1,0,1")
        assert code == 0
        assert len(out.splitlines()) == 1 + 5

    @pytest.mark.parametrize("subcommand", ["affinity", "evolve"])
    @pytest.mark.parametrize("prep", ["equilibrium", "factorizing", "mori"])
    def test_only_factorize_and_wait_reads_t0(self, capsys, subcommand, prep):
        code, out, err = run(capsys, subcommand, f"--prep={prep}", "--t0=0.7")
        assert code == 0
        assert run(capsys, subcommand, f"--prep={prep}", "--t0=3") == (code, out, err)

    def test_mori_reads_only_how_many_fields_there_are(self, capsys):
        # seven equal fields and seven distinct ones give the same seven states
        code, out, err = run(capsys, "evolve", "--prep=mori", "--fz-grid=7,7,7,7,7,7,7")
        assert code == 0
        assert len(out.splitlines()) == 1 + 7
        assert run(capsys, "evolve", "--prep=mori", "--fz-grid=-3,-2,-1,0,1,2,3") == (code, out, err)

    def test_equilibrium_fit_is_gated_when_uncoupled(self, capsys):
        # at g = 0 the equilibrium blow-up is affine: its fit residual is
        # roundoff and is held to 1e-9 times the scale, like its affinity
        code, _, err = run(capsys, "evolve", "--prep", "equilibrium", "--beta-g=0")
        assert code == 0
        assert float(summary_value(err, "evolution_fit_equilibrium_bg_0_value")) < 1e-9
        code, _, err = run(
            capsys, "evolve", "--prep", "equilibrium", "--beta-g=0", "--tolerance-scale=1e-8"
        )
        assert code == 1
        assert summary_value(err, "evolution_fit_equilibrium_bg_0") == "fail"

    @pytest.mark.parametrize("prep", ["equilibrium", "factorizing", "mori", "factorize-and-wait"])
    def test_one_propagator_per_coupling(self, capsys, monkeypatch, prep):
        # every state of a coupling shares one U = exp(-i H t); a
        # factorize-and-wait preparation builds one more, its u_wait
        calls = []
        for module in (spinprep.cli, spinprep.evolve, spinprep.prepare):
            original = module.propagator

            def counting(*args, _original=original):
                calls.append(args)
                return _original(*args)

            monkeypatch.setattr(module, "propagator", counting)
        code, _, _ = run(capsys, "evolve", f"--prep={prep}", "--beta-g=0.5,1.5")
        assert code == 0
        assert len(calls) == 2 * (2 if prep == "factorize-and-wait" else 1)

    @pytest.mark.parametrize(
        "argv, eigenvalue, warned",
        [
            (("--beta-g=800",), "-3.279e-04", 1),
            # a short time keeps |E t| ~ 1e15 below 2^53, where the phase has digits
            (("--beta-g=1e20", "--time=1e-5"), "-3.123e-04", 1),
            (("--beta-e=40", "--beta-g=30"), "-1.145e-07", 0),
        ],
        ids=["bg-800", "bg-1e20", "be-40-bg-30"],
    )
    def test_mori_blow_up_that_is_not_a_state_is_named(self, capsys, argv, eigenvalue, warned):
        # the affine Mori blow-up of the first state leaves the states: the
        # error names it and its S1z_in cell, and an ExtrapolationWarning
        # names the line of cli.py that called into the library
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always", spinprep.ExtrapolationWarning)
            code, out, err = run(capsys, "evolve", "--prep=mori", *argv)
        assert (code, out) == (2, "")
        assert err == (
            "spinprep: the Mori blow-up of S1z_in = -0.050000000000000044 is not a valid density "
            f"matrix (hermiticity defect 0.000e+00, trace defect 0.000e+00, min eigenvalue {eigenvalue})\n"
        )
        assert [w.filename for w in record] == [spinprep.cli.__file__] * warned

    @pytest.mark.parametrize("subcommand", ["affinity", "evolve"])
    @pytest.mark.parametrize("prep", ["equilibrium", "factorizing", "factorize-and-wait"])
    def test_no_object_is_checked_twice(self, capsys, monkeypatch, subcommand, prep):
        # every checked object is kept, so no id is reused by a later object
        checked = []
        original = spinprep.linalg.validate_density

        def keeping(rho):
            checked.append(rho)
            return original(rho)

        for module in (spinprep.linalg, spinprep.prepare):
            monkeypatch.setattr(module, "validate_density", keeping)
        code, _, _ = run(capsys, subcommand, f"--prep={prep}")
        assert code == 0
        assert checked
        assert len({id(rho) for rho in checked}) == len(checked)

    @pytest.mark.parametrize(
        "argv",
        [
            ("evolve", "--time=1e308"),
            ("evolve", "--prep=factorize-and-wait", "--t0=1e308"),
            ("affinity", "--prep=factorize-and-wait", "--t0=1e308"),
        ],
        ids=["evolve-time", "evolve-t0", "affinity-t0"],
    )
    def test_overflowing_phase_is_an_input_error(self, capsys, argv):
        # each energy times 1e308 overflows: an error where H meets t, with
        # no CSV and no RuntimeWarning
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("spinprep: ") and "not finite" in err

    @pytest.mark.parametrize(
        "argv, phase, time",
        [
            (("evolve", "--prep=factorizing", "--time=1e17"), "1.803e+17", "1e+17"),
            (("evolve", "--prep=factorizing", "--evolve-fz=1e308"), "1.000e+308", "1.0"),
            (("evolve", "--prep=factorizing", "--beta-e=1e308"), "1.000e+308", "1.0"),
            (("affinity", "--prep=factorize-and-wait", "--beta-g=1e308"), "7.000e+307", "0.7"),
        ],
        ids=["time-1e17", "evolve-fz-1e308", "beta-e-1e308", "affinity-beta-g-1e308"],
    )
    def test_phase_with_no_significant_digit_is_an_input_error(self, capsys, argv, phase, time):
        # at |w t| >= 2^53 the rounding of an energy alone moves exp(-i w t)
        # by about a radian: the phase is roundoff, refused before any blow-up
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"spinprep: phase w*t of exp(-i H t) is {phase} >= 2^53 at t = {time}: all roundoff\n"

    @pytest.mark.parametrize("subcommand", ["affinity", "evolve"])
    def test_singular_waiting_propagator_is_an_input_error(self, capsys, tmp_path, subcommand):
        # H = g sx sx and rho_B0 = 1/2: G = diag(1, cos 2g t0, cos 2g t0),
        # singular at t0 = pi/4, where no blow-up exists
        target = tmp_path / "out.csv"
        argv = (subcommand, "--prep=factorize-and-wait", "--beta-e=0", "--beta-g=1", "--t0=0.7853981633974483")
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 2
        assert out == ""
        assert not target.exists()
        assert err == "spinprep: Bloch block of the propagator is not invertible (condition number 9.007e+15)\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("evolve", "--prep=factorizing", "--evolve-fz=1e308", "--time=1e-300"),
            ("affinity", "--prep=factorize-and-wait", "--beta-g=1e308", "--t0=1e-300"),
        ],
        ids=["evolve-fz", "affinity-beta-g"],
    )
    def test_hamiltonian_near_the_largest_double_runs(self, capsys, argv):
        # its Hermitian part is formed without overflow, so the eigensolver
        # converges and every CSV value is finite; the time keeps each phase
        # below 2^53, where it still has significant digits
        code, out, _ = run(capsys, *argv)
        assert code == 0
        _, *rows = out.splitlines()
        assert rows
        for row in rows:
            values = row.split(",")[1:] if argv[0] == "affinity" else row.split(",")
            assert all(math.isfinite(float(v)) for v in values), row


class TestMoriCheckAndPechukas:
    def test_mori_check(self, capsys):
        code, _, err = run(capsys, "mori-check")
        assert code == 0
        assert summary_value(err, "chi_matches_fd_bg_1") == "pass"
        ratio = float(summary_value(err, "quadratic_order_bg_1_value"))
        assert 2.8 <= ratio <= 5.2

    def test_pechukas(self, capsys):
        # the residuals decay in |Fz|, whatever the signs of the fields
        for fz_list in ("4,6,8", "-4,-6,-8"):
            code, out, err = run(capsys, "pechukas", f"--fz-list={fz_list}")
            assert code == 0
            assert summary_value(err, "residual_decay_bg_1") == "pass"
            rows = [line.split(",") for line in out.splitlines()[1:]]
            residuals = [float(r[2]) for r in rows]
            assert residuals == sorted(residuals, reverse=True)

    @pytest.mark.parametrize(
        "subcommand,check",
        [("mori-check", "mori_exact_when_uncoupled"), ("pechukas", "factorized_when_uncoupled")],
    )
    def test_residuals_are_gated_when_uncoupled(self, capsys, subcommand, check):
        # at g = 0 the Mori blow-up is exact and the equilibrium state is a
        # product: the residuals are roundoff, held to 1e-12 times the scale,
        # and neither their quadratic order nor their decay is asked for
        code, _, err = run(capsys, subcommand, "--beta-g=0")
        assert code == 0
        assert summary_value(err, check) == "pass"
        assert float(summary_value(err, check + "_value")) < 1e-12
        assert "quadratic_order_bg_0" not in err and "residual_decay_bg_0" not in err
        code, _, err = run(capsys, subcommand, "--beta-g=0", "--tolerance-scale=1e-8")
        assert code == 1
        assert summary_value(err, check) == "fail"

    @pytest.mark.parametrize(
        "argv,check",
        [
            (("mori-check", "--beta-g=1e5"), "mori_exact_bg_100000"),
            (("mori-check", "--beta-g=1e10"), "mori_exact_bg_10000000000"),
            (("pechukas", "--beta-e=1e308"), "factorized_bg_1"),
        ],
        ids=["mori-check-1e5", "mori-check-1e10", "pechukas-1e308"],
    )
    def test_coupled_roundoff_residuals_are_gated_themselves(self, capsys, argv, check):
        # the Mori residual at beta_F = 0.01 is 5.6e-15 at beta g = 1e5 and
        # 1.1e-16 at 1e10, and every pechukas residual is near 1e-16 at
        # beta e = 1e308: a ratio or a decay of roundoff measures nothing
        code, _, err = run(capsys, *argv)
        assert code == 0
        assert summary_value(err, check) == "pass"
        assert float(summary_value(err, check + "_value")) < 1e-13
        assert "quadratic_order" not in err and "residual_decay" not in err
        # a tight scale fails the roundoff gate but does not leave its branch
        code, _, err = run(capsys, *argv, "--tolerance-scale=1e-5")
        assert code == 1
        assert summary_value(err, check) == "fail"

    @pytest.mark.parametrize("scale", ["1e-3", "1e12"])
    @pytest.mark.parametrize(
        "subcommand,check", [("mori-check", "quadratic_order_bg_1"), ("pechukas", "residual_decay_bg_1")]
    )
    def test_tolerance_scale_does_not_skip_the_coupled_claim(self, capsys, subcommand, check, scale):
        # the scale loosens or tightens the roundoff gates but does not take
        # their branch: at beta g = 1 the order and the decay are still
        # checked, and their verdict does not move; only chi's gap of 2.0e-9
        # fails, at 1e-3, its gate of 1e-9
        code, _, err = run(capsys, subcommand, f"--tolerance-scale={scale}")
        assert code == (1 if (subcommand, scale) == ("mori-check", "1e-3") else 0)
        assert summary_value(err, check) == "pass"
        assert "_exact_bg_" not in err and "factorized_bg_" not in err

    @pytest.mark.parametrize("step", ["1e-12", "5e-324", "1e-2", "1e308"])
    def test_fd_step_outside_the_difference_window_is_a_usage_error(self, capsys, step):
        # 1e-15/h of roundoff plus h^2/3 of truncation beyond the 1e-6 chi
        # bound: the finite difference could fail the gate on correct code
        code, out, err = run(capsys, "mori-check", f"--fd-step={step}")
        assert code == 2
        assert out == ""
        assert err.startswith("spinprep: configuration error: fd-step must keep the central difference's error")

    @pytest.mark.parametrize("step", ["2e-9", "1e-4", "1e-3"])
    def test_fd_step_inside_the_difference_window_runs(self, capsys, step):
        code, _, err = run(capsys, "mori-check", f"--fd-step={step}")
        assert code == 0
        assert summary_value(err, "chi_matches_fd_bg_1") == "pass"

    def test_chi_is_gated_when_uncoupled(self, capsys):
        code, _, err = run(capsys, "mori-check", "--beta-g=0")
        assert code == 0
        assert summary_value(err, "chi_matches_fd_bg_0") == "pass"
        code, _, err = run(capsys, "mori-check", "--beta-g=0", "--tolerance-scale=1e-5")
        assert code == 1
        assert summary_value(err, "chi_matches_fd_bg_0") == "fail"

    # beta*e = 1e4 is left out: there the roundoff of residual_01 grows past
    # the fixed 1e-13 mori_floor and 11 of these couplings exit 1, an open
    # fault of that floor (CHANGES.md's FOUND line on beta*e >= 1e4)
    @pytest.mark.parametrize("beta_e", ["0.5", "1", "1.5", "40", "1000"])
    def test_mori_check_passes_a_coupling_scan_into_roundoff(self, capsys, beta_e):
        # from beta g = 1e2 to 1e12 the Mori residuals fall into roundoff, and
        # at some couplings residual_01 is exactly 0; every coupling passes,
        # whether its residuals are roundoff or exactly 0, with finite cells
        for beta_g in np.logspace(2, 12, 41).tolist():
            code, out, err = run(capsys, "mori-check", f"--beta-e={beta_e}", f"--beta-g={beta_g!r}")
            assert code == 0, (beta_g, err)
            cells = out.splitlines()[1].split(",")
            assert all(math.isfinite(float(v)) for v in cells), (beta_g, cells)

    @pytest.mark.parametrize("beta_e,beta_g", [("40", "30"), ("1", "800")])
    def test_mori_check_where_rho0_has_sub_roundoff_eigenvalues(self, capsys, beta_e, beta_g):
        # rho0's two smallest eigenvalues (1.9e-44 at (40, 30)) are below the
        # roundoff of its entries: Kubo weights taken from its eigenvalues
        # gave the wrong chi and a first-order residual
        code, _, err = run(capsys, "mori-check", f"--beta-e={beta_e}", f"--beta-g={beta_g}")
        assert code == 0
        assert summary_value(err, f"chi_matches_fd_bg_{beta_g}") == "pass"
        assert summary_value(err, f"quadratic_order_bg_{beta_g}") == "pass"

    @pytest.mark.parametrize("subcommand", ["evolve", "affinity"])
    def test_non_positive_mori_blow_up_is_an_input_error(self, capsys, subcommand):
        # at (40, 30) the linear-response state of every nonzero field has an
        # eigenvalue near -1e-7: there is no total state to evolve, and an
        # affinity defect of roundoff measures an affine map onto non-states
        code, out, err = run(capsys, subcommand, "--prep=mori", "--beta-e=40", "--beta-g=30")
        assert code == 2
        assert out == ""
        assert "not a valid density matrix" in err


def _preparation_cases():
    for subcommand, stem in (("affinity", "affinity"), ("evolve", "evolution_fit")):
        for prep in ("equilibrium", "factorizing", "mori", "factorize-and-wait"):
            # the equilibrium witnesses are gated only when uncoupled
            g = "0" if prep == "equilibrium" else "1.5"
            yield (subcommand, prep), (subcommand, f"--prep={prep}", f"--beta-g={g}"), f"{stem}_{prep}_bg_{g}"


# an argv for each threshold of the table, and the check it decides there:
# a scaled tolerance at a positive value of its check, an unscaled bound
# where scaling it would change the check's verdict or branch.  The two
# roundoff floors, which pick a branch, are in UNSCALED_CASES and
# test_tolerance_scale_does_not_skip_the_coupled_claim.
THRESHOLD_CASES = [
    ("linearity", ("sweep-linearity", "--beta-g=0"), "linear_when_uncoupled"),
    ("convexity", ("convexity", "--beta-g=0"), "convex_when_uncoupled"),
    ("chi", ("mori-check",), "chi_matches_fd_bg_1"),
    ("roundoff", ("mori-check", "--beta-g=0"), "mori_exact_when_uncoupled"),
    ("roundoff", ("mori-check", "--beta-g=1e5"), "mori_exact_bg_100000"),
    ("roundoff", ("pechukas", "--beta-g=0"), "factorized_when_uncoupled"),
    ("roundoff", ("pechukas", "--beta-e=1e308"), "factorized_bg_1"),
    ("s1z_rise", ("sweep-bloch", "--beta-g=0", "--fz-min=-40", "--fz-max=40"), "s1z_monotone_bg_0"),
    ("quadratic_order", ("mori-check",), "quadratic_order_bg_1"),
    *_preparation_cases(),
]
THRESHOLD_IDS = [f"{'/'.join(k) if isinstance(k, tuple) else k}:{' '.join(argv)}" for k, argv, _ in THRESHOLD_CASES]


# an argv for each unscaled threshold, the check it decides there, and how
# to read its value: a range's from the run-summary, a roundoff floor's probe
# (the Mori residual at beta_F = 0.01, the largest pechukas residual) from
# the CSV, with the roundoff check and the claim the floor chooses between
UNSCALED_CASES = [
    ("s1z_rise", ("sweep-bloch", "--beta-g=0", "--fz-min=-40", "--fz-max=40"), "s1z_monotone_bg_0"),
    ("quadratic_order", ("mori-check",), "quadratic_order_bg_1"),
    ("mori_floor", ("mori-check",), ("mori_exact_bg_1", "quadratic_order_bg_1")),
    ("pechukas_floor", ("pechukas",), ("factorized_bg_1", "residual_decay_bg_1")),
]


def _floor_probe(key, out):
    _, *rows = out.splitlines()
    if key == "mori_floor":
        return float(rows[0].split(",")[4])
    return max(float(row.split(",")[2]) for row in rows)


# the help line of each flag that only some preparations read, as --help
# prints it with its whitespace collapsed
FLAG_HELP = {
    "s1z_max": "--s1z-max S1Z_MAX half-width of the S1z grid or targets (default 0.9); "
    "--prep mori ignores it and uses 0.05",
    "fz_grid": "--fz-grid FZ_GRID comma-separated fields that pick the input states (default -2,-1,0,1,2); "
    "--prep mori reads only how many",
    "t0": "--t0 T0 waiting time of --prep factorize-and-wait (default 0.7); the other preparations ignore it",
}


class TestThresholds:
    def test_every_threshold_has_a_case(self):
        unscaled = {key for key, (_, scaled, _) in _THRESHOLDS.items() if not scaled}
        assert {key for key, _, _ in UNSCALED_CASES} == unscaled
        assert {key for key, _, _ in THRESHOLD_CASES} | unscaled == set(_THRESHOLDS)

    @pytest.mark.parametrize("key, argv, check", THRESHOLD_CASES, ids=THRESHOLD_IDS)
    def test_each_threshold_is_the_one_in_use(self, capsys, key, argv, check):
        bound, scaled, _ = _THRESHOLDS[key]
        _, _, err = run(capsys, *argv)
        value = float(summary_value(err, check + "_value"))
        if scaled:
            # the check passes at twice its value and fails at half of it
            assert value > 0.0
            for factor, verdict in ((2.0, "pass"), (0.5, "fail")):
                _, _, err = run(capsys, *argv, f"--tolerance-scale={factor * value / bound!r}")
                assert summary_value(err, check) == verdict, factor
            return
        # the scale moves no verdict of this check and no branch of any check
        for scale in ("1e-3", "1e12"):
            _, _, scaled_err = run(capsys, *argv, f"--tolerance-scale={scale}")
            assert summary_value(scaled_err, check) == summary_value(err, check) == "pass"
            assert summary_value(scaled_err, check + "_value") == summary_value(err, check + "_value")
            names = [[part.split("=")[0] for part in summary_checks(e)] for e in (scaled_err, err)]
            assert names[0] == names[1]

    @pytest.mark.parametrize("subcommand", list(spinprep.cli._SUBCOMMANDS))
    def test_help_says_the_scale_moves_only_scaled_thresholds(self, capsys, subcommand):
        # the floors and the ranges are unscaled, so "every tolerance" would be wrong
        with pytest.raises(SystemExit) as exit_info:
            main([subcommand, "--help"])
        assert exit_info.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--tolerance-scale TOLERANCE_SCALE multiply every scaled threshold (default 1)" in help_text

    @pytest.mark.parametrize(
        "subcommand, flag",
        [("sweep-linearity", "s1z_max"), ("affinity", "s1z_max"), ("affinity", "t0"), ("evolve", "fz_grid"), ("evolve", "t0")],
    )
    def test_help_says_which_preparations_read_a_flag(self, capsys, subcommand, flag):
        # one line, true in every subcommand that has the flag; the Mori and
        # --t0 tests of TestAffinity and TestEvolve pin what it says
        with pytest.raises(SystemExit) as exit_info:
            main([subcommand, "--help"])
        assert exit_info.value.code == 0
        assert FLAG_HELP[flag] in " ".join(capsys.readouterr().out.split())

    def test_every_threshold_is_the_one_readme_states(self):
        preps = ("equilibrium", "factorizing", "mori", "factorize-and-wait")
        documented = {
            "linearity": (1e-9, True, True),
            "convexity": (1e-10, True, True),
            "chi": (1e-6, True, False),
            "roundoff": (1e-12, True, False),
            "mori_floor": (1e-13, False, False),
            "pechukas_floor": (1e-12, False, False),
            "s1z_rise": ((-2e-15, math.inf), False, False),
            "quadratic_order": ((2.8, 5.2), False, False),
            **{("affinity", p): (v, True, p == "equilibrium") for p, v in zip(preps, (1e-9, 1e-13, 1e-12, 1e-10))},
            **{("evolve", p): (v, True, p == "equilibrium") for p, v in zip(preps, (1e-9, 1e-11, 1e-10, 1e-10))},
        }
        assert _THRESHOLDS == documented

    @pytest.mark.parametrize("key, argv, check", UNSCALED_CASES, ids=[key for key, _, _ in UNSCALED_CASES])
    def test_each_unscaled_threshold_is_read_from_the_table(self, capsys, monkeypatch, key, argv, check):
        # the scale does not move these, so the table is moved instead: a
        # bound just past the observed value flips the verdict or the branch
        _, out, err = run(capsys, *argv)
        _, scaled, witness = _THRESHOLDS[key]
        if isinstance(check, str):
            v = float(summary_value(err, check + "_value"))
            below, above = math.nextafter(v, -math.inf), math.nextafter(v, math.inf)
            for bound, verdict in (((v, v), "pass"), ((above, math.inf), "fail"), ((-math.inf, below), "fail")):
                monkeypatch.setitem(_THRESHOLDS, key, (bound, scaled, witness))
                _, _, err = run(capsys, *argv)
                assert summary_value(err, check) == verdict, bound
            return
        # a probe below its floor is roundoff: its residuals, here far above
        # roundoff, are gated themselves and fail; at the floor the claim holds
        probe = _floor_probe(key, out)
        exact, claim = check
        for floor, taken, verdict, skipped in (
            (probe, claim, "pass", exact),
            (math.nextafter(probe, math.inf), exact, "fail", claim),
        ):
            monkeypatch.setitem(_THRESHOLDS, key, (floor, scaled, witness))
            _, _, err = run(capsys, *argv)
            assert summary_value(err, taken) == verdict, floor
            assert skipped not in [part.split("=")[0] for part in summary_checks(err)], floor


class TestInputsNearTheLargestDouble:
    # the tier-1 filter turns a RuntimeWarning into an error, so each of these
    # also asserts that no overflow or invalid-value warning fires

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep-bloch", "--beta-e=1e308"),
            # a time that keeps each phase below 2^53
            ("evolve", "--prep=factorizing", "--beta-e=1e308", "--time=1e-300"),
            ("pechukas", "--beta-e=1e308"),
        ],
        ids=["sweep-bloch", "evolve-factorizing", "pechukas"],
    )
    def test_splitting_of_1e308_writes_finite_cells(self, capsys, argv):
        # |E1| + |E3| is beyond the largest double here; their half-sum is not
        code, out, _ = run(capsys, *argv)
        assert code == 0
        _, *rows = out.splitlines()
        assert rows
        for row in rows:
            assert all(math.isfinite(float(v)) for v in row.split(",")), row

    def test_overflowing_energy_is_an_input_error(self, capsys):
        # beta |E3| = |Fz + e| is beyond the largest double: no closed form
        code, out, err = run(
            capsys,
            "sweep-bloch",
            "--beta-e=1.7976931348623157e308",
            "--fz-min=1e300",
            "--fz-max=2e300",
        )
        assert code == 2
        assert out == ""
        assert "energy overflows" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # a grid whose width overflows np.linspace
            (("sweep-bloch", "--fz-min=-1e308", "--fz-max=1e308"), "width of the field range"),
            (("convexity", "--f-min=-1e308", "--f-max=1e308"), "width of the field range"),
            (("convexity", "--f-min=1e308", "--f-max=-1e308"), "width of the field range"),
            # a diagonal entry -Fz -+ e of H
            (("evolve", "--beta-e=-1e308", "--evolve-fz=1e308"), "an entry of H overflows"),
            (("evolve", "--beta-e=1e308", "--evolve-fz=1e308"), "an entry of H overflows"),
        ],
        ids=["sweep-bloch", "convexity", "convexity-descending", "evolve-H", "evolve-H-same-sign"],
    )
    def test_sum_beyond_the_largest_double_is_an_input_error(self, capsys, argv, message):
        # two finite inputs whose sum or difference is not
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("mori-check", "--beta-g=1e308"),
            ("affinity", "--prep=mori", "--beta-g=1e308"),
            ("evolve", "--prep=mori", "--beta-g=1e308"),
        ],
        ids=["mori-check", "affinity-mori", "evolve-mori"],
    )
    def test_coupling_of_1e308_has_no_susceptibility(self, capsys, argv):
        # every energy gap is infinite, so every Kubo weight is exactly 0
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "susceptibility matrix is not invertible" in err

    def test_mori_check_with_zero_residuals_is_gated_as_roundoff(self, capsys):
        # at beta g = 1e20 both Mori residuals are exactly 0, the most exact
        # roundoff: they are gated themselves, and the ratio no check reads is 0
        code, out, err = run(capsys, "mori-check", "--beta-g=1e20")
        assert code == 0
        assert out.splitlines()[1].endswith(",0,0,0")
        assert summary_value(err, "mori_exact_bg_1e+20") == "pass"
        assert "quadratic_order" not in err


class TestConvexityAndLinearity:
    def test_convexity_uncoupled_passes(self, capsys):
        code, _, err = run(capsys, "convexity", "--beta-g", "0")
        assert code == 0
        assert summary_value(err, "convex_when_uncoupled") == "pass"

    def test_non_converged_inversion_is_an_input_error(self, capsys, monkeypatch):
        # a field inversion that cannot meet its 1e-12 check is a bad-input
        # exit with no CSV, not a traceback: S1z stepping from 0 straight to
        # +-0.99 at Fz = 0 passes every target of the grid without a root
        def step(model, fz):
            return equilibrium_observables(model, fz)._replace(S1z=math.copysign(0.99, fz))

        monkeypatch.setattr(spinprep.prepare, "equilibrium_observables", step)
        code, out, err = run(capsys, "sweep-linearity", "--beta-g=1.5", "--points=5")
        assert code == 2
        assert out == ""
        assert "did not converge" in err

    def test_large_beta_e_inversions_converge(self, capsys):
        # beta e = 30397: S1z steps smoothly between adjacent fields
        code, out, err = run(
            capsys,
            "sweep-linearity",
            "--beta-e=30397",
            "--beta-g=150,0",
            "--s1z-max=0.63",
            "--points=41",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "beta_g,S1z,S2z,Cxx,Cyy,Czz"
        assert len(lines) == 1 + 2 * 41
        assert summary_value(err, "status") == "pass"

    def test_sweep_linearity_uncoupled_check(self, capsys):
        code, _, err = run(capsys, "sweep-linearity", "--beta-g", "0,1.5", "--points", "7")
        assert code == 0
        assert summary_value(err, "linear_when_uncoupled") == "pass"

    @pytest.fixture
    def outside(self, monkeypatch):
        """Counts the closed-form evaluations made outside every field inversion."""
        count, depth = [0], [0]

        def counting(model, fz):
            count[0] += depth[0] == 0
            return equilibrium_observables(model, fz)

        def inverting(model, target):
            depth[0] += 1
            try:
                return invert_field(model, target)
            finally:
                depth[0] -= 1

        for module in (spinprep.prepare, spinprep.diagnostics, spinprep.cli):
            monkeypatch.setattr(module, "equilibrium_observables", counting)
            if hasattr(module, "invert_field"):
                monkeypatch.setattr(module, "invert_field", inverting)
        return count

    def test_inversion_rows_reuse_the_observables_at_their_roots(self, capsys, outside):
        # a linearity row is the inversion's own evaluation at its root, and
        # a convexity lattice evaluates each of its f-steps end fields once
        code, out, _ = run(capsys, "sweep-linearity", "--beta-g=0,1.5", "--points=9")
        assert code == 0 and len(out.splitlines()) == 1 + 2 * 9
        assert outside[0] == 0
        code, out, _ = run(capsys, "convexity", "--beta-g=0,1.5", "--f-steps=5")
        assert code == 0 and len(out.splitlines()) == 1 + 2 * 5 * 5 * 3
        assert outside[0] == 2 * 5


class TestCouplingIndependence:
    @pytest.mark.parametrize(
        "argv,couplings",
        [
            (("sweep-bloch", "--steps=5"), ("0", "1.2")),
            (("sweep-linearity", "--points=5"), ("1.2", "0")),
            (("convexity", "--f-steps=2", "--lambdas=0.5"), ("0", "1.2")),
            (("affinity", "--prep=equilibrium", "--samples=3"), ("0", "1.2")),
            (("affinity", "--prep=factorizing", "--samples=3"), ("0.5", "1.2")),
            (("affinity", "--prep=mori", "--samples=3"), ("1.2", "0")),
            (("affinity", "--prep=factorize-and-wait", "--samples=3"), ("1.2", "0.5")),
            (("evolve", "--prep=equilibrium"), ("1.2", "0")),
            (("evolve", "--prep=factorizing"), ("0", "1.2")),
            (("evolve", "--prep=mori"), ("0.5", "1.2")),
            (("evolve", "--prep=factorize-and-wait"), ("1.2", "0.5")),
            (("mori-check",), ("0.5", "1.2")),
            (("pechukas",), ("1.2", "0.5")),
            # every subcommand at its defaults
            *(((name,), ("1.5", "0")) for name in spinprep.cli._SUBCOMMANDS),
        ],
        ids=lambda value: "-".join(value).replace("--", ""),
    )
    def test_couplings_run_independently_and_in_order(self, capsys, tmp_path, argv, couplings):
        # --beta-g=a,b is the header, the rows of --beta-g=a, then those of
        # --beta-g=b, byte for byte on stdout and in --out; the run-summary
        # checks concatenate the same way
        a, b = couplings
        code_a, out_a, err_a = run(capsys, *argv, f"--beta-g={a}")
        code_b, out_b, err_b = run(capsys, *argv, f"--beta-g={b}")
        code, out, err = run(capsys, *argv, f"--beta-g={a},{b}")
        header, body_a = out_a.split("\n", 1)
        header_b, body_b = out_b.split("\n", 1)
        assert header_b == header
        assert body_a and body_b
        assert out == "\n".join([header, body_a + body_b])
        assert summary_checks(err) == summary_checks(err_a) + summary_checks(err_b)
        assert code == max(code_a, code_b)
        target = tmp_path / "two.csv"
        assert run(capsys, *argv, f"--beta-g={a},{b}", "--out", str(target))[0] == code
        assert target.read_bytes() == out.encode()
        # every row has a cell per column, and the constants of its row
        # template sit in their columns: the coupling, or affinity's --prep,
        # beta_e and coupling
        columns = header.split(",")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert all(len(row) == len(columns) for row in rows)
        prep = next((arg.split("=", 1)[1] for arg in argv if arg.startswith("--prep=")), "equilibrium")
        for coupling, body in ((a, body_a), (b, body_b)):
            for line in body.splitlines():
                row = dict(zip(columns, line.split(",")))
                assert row["beta_g"] == _fmt(float(coupling))
                if argv[0] == "affinity":
                    assert (row["prep"], row["beta_e"]) == (prep, "1")

    def test_failure_at_a_later_coupling_writes_no_csv(self, capsys, tmp_path):
        # beta g = 1 runs; at beta g = 800 the Mori blow-up is not a state
        argv = ("affinity", "--prep=mori", "--beta-e=1", "--beta-g=1,800")
        with pytest.warns(spinprep.ExtrapolationWarning):
            code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("spinprep: ") and "run-summary" not in err
        target = tmp_path / "affinity.csv"
        with pytest.warns(spinprep.ExtrapolationWarning):
            code, out, _ = run(capsys, *argv, "--out", str(target))
        assert code == 2
        assert out == ""
        assert not target.exists()


class TestPeakMemory:
    @staticmethod
    def _peak_bytes(capsys, argv):
        tracemalloc.start()
        try:
            assert main(list(argv)) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    def test_peak_follows_the_text_and_not_the_rows_of_every_coupling(self, capsys, tmp_path):
        # each coupling's rows become text before the next coupling runs, so
        # two more couplings add their text (~2.3 MB each), not their rows
        out = str(tmp_path / "sweep.csv")
        main(["sweep-bloch", "--steps=3", "--out", out])  # first-call allocations
        capsys.readouterr()
        argv = ("sweep-bloch", "--steps=20000", "--out", out)
        one = self._peak_bytes(capsys, (*argv, "--beta-g=1"))
        three = self._peak_bytes(capsys, (*argv, "--beta-g=0.5,1,1.5"))
        assert three < 2.0 * one, (one, three)


class TestConfigHandling:
    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 5\nbeta-g = 1\n# comment line\n")
        code, out, _ = run(capsys, "sweep-bloch", "--config", str(cfg))
        assert code == 0
        assert len(out.splitlines()) == 1 + 5

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=5\nbeta-g=1\n")
        code, out, _ = run(capsys, "sweep-bloch", "--config", str(cfg), "--steps", "3")
        assert code == 0
        assert len(out.splitlines()) == 1 + 3

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("who=knows\n")
        code, _, err = run(capsys, "sweep-bloch", "--config", str(cfg))
        assert code == 2
        assert "unknown config keys" in err

    def test_unknown_preparation_in_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("prep = bogus\n")
        code, out, err = run(capsys, "evolve", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "configuration error" in err and "bogus" in err

    def test_config_line_without_equals_sign(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=5\nbeta-g 1\n")
        code, out, err = run(capsys, "sweep-bloch", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "configuration error" in err and ":2: expected key=value" in err

    def test_missing_config_file(self, capsys):
        code, _, _ = run(capsys, "sweep-bloch", "--config", "/nonexistent/path.cfg")
        assert code == 2

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path, target):
        out = tmp_path / "missing" / "x.csv" if target == "missing-dir" else tmp_path
        code, stdout, err = run(capsys, "pechukas", "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err.startswith("spinprep: ") and "run-summary" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep-bloch", "--beta-g", "zero"),
            ("mori-check", "--fd-step", "0"),
            ("mori-check", "--fd-step=-1e-4"),
            ("mori-check", "--fd-step", "inf"),
            ("sweep-linearity", "--tolerance-scale=-1"),
            ("sweep-linearity", "--tolerance-scale", "0"),
            ("sweep-linearity", "--tolerance-scale", "nan"),
            ("pechukas", "--fz-list", "4"),
            ("evolve", "--time=nan"),
            ("evolve", "--time", "inf"),
            ("pechukas", "--fz-list=4,inf"),
            ("pechukas", "--fz-list=8,6,4"),
            ("pechukas", "--fz-list=-8,-6,-4"),
            ("pechukas", "--fz-list=4,4,8"),
            ("affinity", "--samples", "1"),
            ("convexity", "--lambdas="),
            ("convexity", "--f-steps", "0"),
            ("sweep-linearity", "--beta-g="),
            ("sweep-bloch", "--fz-min=2", "--fz-max=-2"),
            ("sweep-bloch", "--fz-min=1", "--fz-max=1"),
            ("sweep-linearity", "--s1z-max=0"),
            ("sweep-linearity", "--s1z-max=1"),
            ("affinity", "--s1z-max=-0.5"),
            ("affinity", "--prep=bogus"),
            ("evolve", "--prep=bogus"),
            ("evolve", "--fz-grid=-1,0,1"),
            ("evolve", "--prep=factorizing", "--fz-grid=-2,-1,1,2"),
            ("evolve", "--prep=factorize-and-wait", "--fz-grid=0"),
            ("evolve", "--prep=equilibrium", "--fz-grid=1,1,1,1,1"),
            ("evolve", "--prep=factorizing", "--fz-grid=-0.5,-0.5,-0.5,-0.5,-0.5,-0.5"),
            ("evolve", "--prep=factorize-and-wait", "--fz-grid=2,2,2,2,2"),
            ("affinity", "--prep=factorize-and-wait", "--t0=0"),
            ("affinity", "--prep=factorize-and-wait", "--t0=-0.7"),
            ("evolve", "--prep=factorize-and-wait", "--t0=0"),
            ("evolve", "--prep=factorize-and-wait", "--t0=-1e-3"),
            ("convexity", "--lambdas=0,0.5"),
            ("convexity", "--lambdas=0.5,1"),
            ("affinity", "--lambdas=-0.25"),
            ("sweep-linearity", "--points=2"),
            ("sweep-bloch", "--steps=1"),
            ("convexity", "--f-steps=1", "--beta-g=0"),
            ("convexity", "--f-min=1", "--f-max=1", "--beta-g=0"),
        ],
        ids=[
            "beta-g-not-a-number",
            "fd-step-zero",
            "fd-step-negative",
            "fd-step-inf",
            "tolerance-scale-negative",
            "tolerance-scale-zero",
            "tolerance-scale-nan",
            "fz-list-single-field",
            "time-nan",
            "time-inf",
            "fz-list-inf",
            "fz-list-decreasing",
            "fz-list-decreasing-in-magnitude",
            "fz-list-repeated-field",
            "samples-one",
            "lambdas-empty",
            "f-steps-zero",
            "beta-g-empty",
            "fz-range-reversed",
            "fz-range-empty",
            "s1z-max-zero",
            "s1z-max-one",
            "s1z-max-negative",
            "affinity-prep-unknown",
            "evolve-prep-unknown",
            "fz-grid-three-fields",
            "fz-grid-four-fields-factorizing",
            "fz-grid-one-field-factorize-and-wait",
            "fz-grid-one-distinct-field-equilibrium",
            "fz-grid-one-distinct-field-factorizing",
            "fz-grid-one-distinct-field-factorize-and-wait",
            "affinity-t0-zero-factorize-and-wait",
            "affinity-t0-negative-factorize-and-wait",
            "evolve-t0-zero-factorize-and-wait",
            "evolve-t0-negative-factorize-and-wait",
            "lambdas-zero",
            "lambdas-one",
            "lambdas-negative",
            "points-two",
            "steps-one",
            "f-steps-one",
            "f-range-empty",
        ],
    )
    def test_malformed_flag_value(self, capsys, argv):
        # rejected before any runner starts: no CSV, configuration-error exit
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "configuration error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep-bloch", "--beta-g=1,1"),
            ("sweep-bloch", "--beta-g=0,-0"),
            ("sweep-linearity", "--beta-g=0,0.5,0"),
            ("affinity", "--beta-g=1.5,1.50"),
        ],
        ids=["sweep-bloch-1-1", "sweep-bloch-0-minus-0", "sweep-linearity-0-0.5-0", "affinity-1.5-1.50"],
    )
    def test_repeated_coupling_rejected(self, capsys, argv):
        # two rows blocks under one coupling would share their run-summary keys
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "configuration error" in err

    def test_reused_parser_keeps_no_flags(self, capsys):
        # the parser is built once per process; a flag of one call must not
        # become the default of the next
        code, out, _ = run(capsys, "sweep-bloch", "--steps", "3")
        assert code == 0 and len(out.splitlines()) == 1 + 3 * 3
        code, out, _ = run(capsys, "sweep-bloch")
        assert code == 0 and len(out.splitlines()) == 1 + 3 * 201
        assert run(capsys, "evolve", "--prep", "mori")[0] == 0
        code, _, err = run(capsys, "evolve")
        assert code == 0
        assert summary_value(err, "evolution_fit_equilibrium_bg_1.5") == "pass"

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["not-a-subcommand"])
        assert err.value.code == 2


def _shown(value):
    # a default as --help prints it: each number in %g, a list comma-separated
    if isinstance(value, list):
        return ",".join(format(v, "g") for v in value)
    return format(value, "g") if isinstance(value, float) else str(value)


class TestOptions:
    @pytest.mark.parametrize(
        "subcommand, key",
        [(name, key) for name, command in _SUBCOMMANDS.items() for key in command.options],
        ids=lambda value: value.replace("_", "-"),
    )
    def test_every_flag_prints_its_help_and_default(self, capsys, subcommand, key):
        with pytest.raises(SystemExit) as exit_info:
            main([subcommand, "--help"])
        assert exit_info.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        # a flag's help runs from its name and metavar to the next flag's
        flag = key.replace("_", "-")
        match = re.search(rf" --{flag} {key.upper()} (.*?) --[a-z0-9-]+ [A-Z0-9_]+ ", help_text)
        assert match, f"--{flag} prints no help"
        line = match.group(1)
        default = _SUBCOMMANDS[subcommand].beta_g if key == "beta_g" else _OPTIONS[key].default
        assert f"(default {_shown(default)})" in line
        assert line != f"(default {_shown(default)})", "no help besides the default"

    def test_every_flag_is_the_one_readme_tables(self):
        # README's flags table: subcommands, default and own rules of each flag
        every = tuple(_SUBCOMMANDS)
        fraction = ("must lie strictly between 0 and 1",)
        documented = {
            "beta_e": (every, 1.0, ()),
            "tolerance_scale": (every, 1.0, ("must be finite and positive",)),
            "beta_g": (every, None, ("lists a coupling more than once",)),
            "fz_min": (("sweep-bloch",), -5.0, ()),
            "fz_max": (("sweep-bloch",), 5.0, ()),
            "steps": (("sweep-bloch",), 201, ("must be at least 2",)),
            "s1z_max": (("sweep-linearity", "affinity"), 0.9, fraction),
            "points": (("sweep-linearity",), 21, ("must be at least 3",)),
            "f_min": (("convexity",), -2.0, ()),
            "f_max": (("convexity",), 2.0, ()),
            "f_steps": (("convexity",), 5, ("must be at least 2",)),
            "lambdas": (("convexity", "affinity"), [0.25, 0.5, 0.75], fraction),
            "prep": (("affinity", "evolve"), "equilibrium", ()),
            "samples": (("affinity",), 5, ("must be at least 2",)),
            "t0": (("affinity", "evolve"), 0.7, ()),
            "time": (("evolve",), 1.0, ()),
            "fz_grid": (("evolve",), [-2.0, -1.0, 0.0, 1.0, 2.0], ()),
            "evolve_fz": (("evolve",), 0.0, ()),
            "fd_step": (
                ("mori-check",),
                1e-4,
                (
                    "must be finite and positive",
                    "must keep the central difference's error 1e-15/h + h^2/3 within the chi bound 1e-06",
                ),
            ),
            "fz_list": (
                ("pechukas",),
                [4.0, 6.0, 8.0],
                ("needs at least two fields to show a decay", "must grow strictly in |Fz| to show a decay"),
            ),
        }
        tabled = {
            key: (
                tuple(name for name, command in _SUBCOMMANDS.items() if key in command.options),
                option.default,
                tuple(text for _, text in option.rules),
            )
            for key, option in _OPTIONS.items()
        }
        assert tabled == documented
        beta_g = {name: command.beta_g for name, command in _SUBCOMMANDS.items()}
        assert beta_g == {
            "sweep-bloch": [0.5, 1.0, 1.5],
            "sweep-linearity": [0.0, 0.5, 1.0, 1.5],
            "convexity": [1.5],
            "affinity": [1.5],
            "evolve": [1.5],
            "mori-check": [1.0],
            "pechukas": [1.0],
        }

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "subcommand, key, text, expected",
        [
            ("sweep-bloch", "steps", "2.5", "must be an integer"),
            ("affinity", "samples", "five", "must be an integer"),
            ("sweep-bloch", "beta_e", "abc", "must be a number"),
            ("mori-check", "fd_step", "1e-4x", "must be a number"),
            ("pechukas", "fz_list", "4,x,8", "must be a comma-separated list of numbers"),
            ("sweep-linearity", "beta_g", "0;1", "must be a comma-separated list of numbers"),
            (
                "evolve",
                "prep",
                "bogus",
                "names an unknown preparation, expected one of equilibrium, factorizing, mori, factorize-and-wait",
            ),
        ],
    )
    def test_a_value_that_does_not_convert_names_its_flag(
        self, capsys, tmp_path, source, subcommand, key, text, expected
    ):
        flag = key.replace("_", "-")
        if source == "flag":
            argv = (subcommand, f"--{flag}={text}")
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{flag}={text}\n")
            argv = (subcommand, "--config", str(cfg))
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"spinprep: configuration error: {flag} {expected}, got {text!r}\n"
