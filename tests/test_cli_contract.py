"""The exit-code contract of the CLI under generated argument vectors.

Each argv is drawn from a subcommand's flags in cli._SUBCOMMANDS, each
through its converter in cli._OPTIONS.
A flag is either left at its default or set: a number to +-1e308, 1e-308,
5e-324, 0, -0 or an ordinary value, a list to one to three of them
(repeats included), --prep to any preparation, and a size (--steps,
--points, --samples, --f-steps) to at most a small cap, so that no case
costs much.  cli.main runs in-process.
"""

import contextlib
import io
import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from spinprep.cli import _OPTIONS, _PREPARATIONS, _SUBCOMMANDS, _parse_float_list, _parse_preparation, main

# half of the numbers are +-1e308: an overflow needs two of them in one argv
NUMBERS = st.one_of(
    st.sampled_from(("1e308", "-1e308")),
    st.sampled_from(("1e-308", "5e-324", "0", "-0", "0.05", "0.5", "1", "1.5", "-2", "40")),
)

# the largest value drawn for each integer option
SIZE_CAPS = {"steps": 40, "points": 12, "samples": 6, "f_steps": 4}


def _value(key):
    convert = _OPTIONS[key].convert
    if convert is _parse_preparation:
        return st.sampled_from(list(_PREPARATIONS))
    if convert is _parse_float_list:
        return st.lists(NUMBERS, min_size=1, max_size=3).map(",".join)
    if convert is int:
        return st.integers(min_value=-1, max_value=SIZE_CAPS[key]).map(str)
    return NUMBERS


def _argvs(name, options):
    # each flag is left out (None, its default) or set, half the time each
    flags = [st.one_of(st.none(), _value(key).map(f"--{key.replace('_', '-')}={{}}".format)) for key in options]
    return st.tuples(*flags).map(lambda drawn: [name, *(f for f in drawn if f is not None)])


ARGVS = st.one_of(*(_argvs(name, command.options) for name, command in _SUBCOMMANDS.items()))


@settings(max_examples=700, deadline=None, derandomize=True)
@given(ARGVS)
def test_generated_argv_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        # an overflow or an invalid value is a fault, never a result
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("spinprep: "), argv
        return
    _, *rows = out.getvalue().splitlines()
    assert rows, argv
    for row in rows:
        for cell in row.split(","):
            assert cell in _PREPARATIONS or math.isfinite(float(cell)), (argv, row)
