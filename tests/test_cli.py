import numpy as np
import pytest

from spinprep.cli import main


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


class TestConvexityAndLinearity:
    def test_convexity_uncoupled_passes(self, capsys):
        code, _, err = run(capsys, "convexity", "--beta-g", "0")
        assert code == 0
        assert summary_value(err, "convex_when_uncoupled") == "pass"

    def test_sweep_linearity_uncoupled_check(self, capsys):
        code, _, err = run(capsys, "sweep-linearity", "--beta-g", "0,1.5", "--points", "7")
        assert code == 0
        assert summary_value(err, "linear_when_uncoupled") == "pass"


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

    def test_missing_config_file(self, capsys):
        code, _, _ = run(capsys, "sweep-bloch", "--config", "/nonexistent/path.cfg")
        assert code == 2

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
        ],
    )
    def test_malformed_flag_value(self, capsys, argv):
        # rejected before any runner starts: no CSV, configuration-error exit
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "configuration error" in err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["not-a-subcommand"])
        assert err.value.code == 2
