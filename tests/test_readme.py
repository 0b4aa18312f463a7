import contextlib
import io
import pathlib
import re

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
