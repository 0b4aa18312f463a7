"""The exit-code table, exit_codes.txt, run through cli.main in-process.

CI runs the same rows through the installed console script; here each row
is one test, with RuntimeWarning as an error.  Both runners check the same
things: the exit code, and on exit 2 an empty stdout and a last stderr line
that starts with "spinprep: ".
"""

import pathlib
import warnings

import pytest

from spinprep.cli import main

TABLE = pathlib.Path(__file__).with_name("exit_codes.txt")
ROWS = [line.split(None, 1) for line in TABLE.read_text().splitlines() if line.strip() and not line.startswith("#")]


def test_table_has_every_row():
    assert len(ROWS) == 42
    assert all(expected in ("0", "1", "2") for expected, _ in ROWS)


@pytest.mark.parametrize("expected, args", ROWS, ids=[args for _, args in ROWS])
def test_row_gives_its_exit_code(capsys, expected, args):
    # argparse ends a --help row in SystemExit(0); every other row returns.
    # Other warnings (an ExtrapolationWarning) are recorded, as the console
    # script prints them to stderr
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code, exited = main(args.split()), False
        except SystemExit as stop:
            code, exited = stop.code, True
    out, err = capsys.readouterr()
    assert exited == ("--help" in args.split())
    assert code == int(expected)
    if code == 2:
        assert out == ""
        assert err.splitlines()[-1].startswith("spinprep: ")
