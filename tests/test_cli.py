import math

import numpy as np
import pytest

import spinprep.cli
import spinprep.evolve
import spinprep.prepare
from spinprep import equilibrium_observables
from spinprep.cli import _fmt, _write_csv, main


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
        # the writer's one row template gives the bytes of _fmt per cell
        specials = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072009e-308]
        rows = [
            ("mori", np.float64(x), x, -x, 0.1 * (k + 1), np.float64(1.0 / 3.0))
            for k, x in enumerate(specials)
        ]
        header = ("prep", "a", "b", "c", "d", "e")
        expected = "\n".join([",".join(header), *(",".join(map(_fmt, r)) for r in rows)]) + "\n"
        _write_csv(None, header, rows)
        assert capsys.readouterr().out == expected
        target = tmp_path / "rows.csv"
        _write_csv(str(target), header, rows)
        assert target.read_bytes() == expected.encode()

    def test_writes_only_the_requested_file(self, capsys, tmp_path):
        target = tmp_path / "only.csv"
        before = set(p.name for p in tmp_path.iterdir())
        run(capsys, "sweep-bloch", "--steps", "11", "--out", str(target))
        after = set(p.name for p in tmp_path.iterdir())
        assert after - before == {"only.csv"}


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
        "argv",
        [
            ("evolve", "--prep=factorizing", "--evolve-fz=1e308"),
            ("affinity", "--prep=factorize-and-wait", "--beta-g=1e308"),
        ],
        ids=["evolve-fz", "affinity-beta-g"],
    )
    def test_hamiltonian_near_the_largest_double_runs(self, capsys, argv):
        # its Hermitian part is formed without overflow, so the eigensolver
        # converges and every CSV value is finite
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
        code, out, err = run(capsys, "pechukas")
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

    def test_chi_is_gated_when_uncoupled(self, capsys):
        code, _, err = run(capsys, "mori-check", "--beta-g=0")
        assert code == 0
        assert summary_value(err, "chi_matches_fd_bg_0") == "pass"
        code, _, err = run(capsys, "mori-check", "--beta-g=0", "--tolerance-scale=1e-5")
        assert code == 1
        assert summary_value(err, "chi_matches_fd_bg_0") == "fail"

    @pytest.mark.parametrize("beta_e,beta_g", [("40", "30"), ("1", "800")])
    def test_mori_check_where_rho0_has_sub_roundoff_eigenvalues(self, capsys, beta_e, beta_g):
        # rho0's two smallest eigenvalues (1.9e-44 at (40, 30)) are below the
        # roundoff of its entries: Kubo weights taken from its eigenvalues
        # gave the wrong chi and a first-order residual
        code, _, err = run(capsys, "mori-check", f"--beta-e={beta_e}", f"--beta-g={beta_g}")
        assert code == 0
        assert summary_value(err, f"chi_matches_fd_bg_{beta_g}") == "pass"
        assert summary_value(err, f"quadratic_order_bg_{beta_g}") == "pass"

    def test_mori_evolution_of_a_non_positive_blow_up_is_an_input_error(self, capsys):
        # at (40, 30) the linear-response state of every nonzero field has an
        # eigenvalue near -1.1e-7: there is no total state to evolve
        code, out, err = run(capsys, "evolve", "--prep=mori", "--beta-e=40", "--beta-g=30")
        assert code == 2
        assert out == ""
        assert "not a valid density matrix" in err


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


class TestCouplingIndependence:
    @pytest.mark.parametrize(
        "argv,couplings",
        [
            (("sweep-bloch", "--steps=5"), ("0", "1.2")),
            (("sweep-linearity", "--points=5"), ("1.2", "0")),
            (("convexity", "--f-steps=2", "--lambdas=0.5"), ("0", "1.2")),
            (("affinity", "--prep=equilibrium", "--samples=3"), ("0", "1.2")),
            (("affinity", "--prep=factorize-and-wait", "--samples=3"), ("1.2", "0.5")),
            (("evolve", "--prep=equilibrium"), ("1.2", "0")),
            (("evolve", "--prep=mori"), ("0.5", "1.2")),
            (("mori-check",), ("0.5", "1.2")),
            (("pechukas",), ("1.2", "0.5")),
        ],
        ids=lambda value: "-".join(value).replace("--", ""),
    )
    def test_couplings_run_independently_and_in_order(self, capsys, argv, couplings):
        # --beta-g=a,b is the header, the rows of --beta-g=a, then those of
        # --beta-g=b; the run-summary checks concatenate the same way
        a, b = couplings
        code_a, out_a, err_a = run(capsys, *argv, f"--beta-g={a}")
        code_b, out_b, err_b = run(capsys, *argv, f"--beta-g={b}")
        code, out, err = run(capsys, *argv, f"--beta-g={a},{b}")
        header, *rows_a = out_a.splitlines()
        assert out_b.splitlines()[0] == header
        assert rows_a and out_b.splitlines()[1:]
        assert out.splitlines() == [header, *rows_a, *out_b.splitlines()[1:]]
        assert summary_checks(err) == summary_checks(err_a) + summary_checks(err_b)
        assert code == max(code_a, code_b)


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
