import contextlib
import io
import pathlib
import re

from spinprep.cli import _OPTIONS, _SUBCOMMANDS, _show

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_library_tour_runs_and_prints_the_residual_it_claims():
    # README's one python block runs against the package, and its last line
    # prints the affine-fit residual that its comment states
    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    (claim,) = re.findall(r"print\(.*\)\s*# ~ (\S+),", tour)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(tour, str(README), "exec"), {})
    residual = float(printed.getvalue())
    assert float(f"{residual:.2g}") == float(claim), (residual, claim)


def _cells(text):
    """The backticked names of a README table cell, in order."""
    return re.findall(r"`([^`]*)`", text)


def test_flag_table_matches_the_options():
    # one row per flag of cli._OPTIONS, each with the default that --help
    # prints and the subcommands of cli._SUBCOMMANDS that take it
    rows = re.findall(r"^\| `(--[a-z0-9-]+)` \| ([^|]*) \| ([^|]*) \|", README.read_text(), re.M)
    assert sorted(flag for flag, _, _ in rows) == sorted("--" + key.replace("_", "-") for key in _OPTIONS)
    for flag, subcommands, default in rows:
        key = flag[2:].replace("-", "_")
        taking = [name for name, command in _SUBCOMMANDS.items() if key in command.options]
        listed = list(_SUBCOMMANDS) if subcommands.strip() == "all" else _cells(subcommands)
        assert listed == taking, flag
        # a default, or a default followed by the subcommands it belongs to
        shown = {}
        for value, owners in re.findall(r"`([^`]*)`(?: \(([^)]*)\))?", default):
            for name in _cells(owners) if owners else taking:
                shown[name] = value
        assert shown == {name: _show(_SUBCOMMANDS[name].default(key)) for name in taking}, flag
