"""Tests of the benchmark itself: generator, tracing arithmetic, oracle.

Run from the repository root with ``python -m pytest bench -q``.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, layer_metrics, profile, span_names  # noqa: E402
from workloads import WORKLOADS, make_pass  # noqa: E402

from spinprep import cli  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    for index in range(3):
        assert make_pass(workload, 7, index) == make_pass(workload, 7, index)
    assert make_pass(workload, 7, 1) != make_pass(workload, 8, 1)
    assert make_pass(workload, 7, 1) != make_pass(workload, 7, 2)
    for call in make_pass(workload, 7, 0):
        assert all(isinstance(token, str) for token in call.argv)


def _traced_pass(tracer: Tracer, calls):
    lo = len(tracer.spans)
    with tracer.installed():
        start = time.perf_counter()
        records = run.run_pass(cli, calls)
        wall_ns = (time.perf_counter() - start) * 1e9
    assert all(r.ok for r in records), [r.error for r in records]
    return profile(tracer.spans, lo, len(tracer.spans)), wall_ns


def test_self_times_account_for_the_traced_pass():
    calls = make_pass("inversion_scan", 0, 0)
    prof, wall_ns = _traced_pass(Tracer(), calls)
    # self times partition the CLI calls exactly; the harness between calls is small
    assert sum(prof["self_ns"].values()) == prof["root_ns"]
    assert 0.9 * wall_ns <= prof["root_ns"] <= wall_ns
    assert prof["calls"]["cli.main"] == len(calls)


def test_traced_counts_repeat_and_pass_the_self_checks():
    calls = make_pass("reduced_dynamics", 0, 0)
    tracer = Tracer()
    first, _ = _traced_pass(tracer, calls)
    second, _ = _traced_pass(tracer, calls)
    assert first["calls"] == second["calls"]
    assert first["nested"] == second["nested"]
    assert run.count_problems("reduced_dynamics", calls, first["calls"]) == []
    assert set(first["calls"]) <= set(span_names())


def test_wrappers_are_removed_after_the_traced_pass():
    import spinprep.prepare as prepare

    original = prepare.blow_up
    with Tracer().installed():
        assert cli.blow_up is not original
        assert cli.blow_up is prepare.blow_up
    assert cli.blow_up is original and prepare.blow_up is original


def _output(call) -> str:
    record, text = run.invoke(cli, call)
    assert record.ok, record.error
    return text


def _perturb(csv_text: str, row: int, column: int) -> str:
    lines = csv_text.splitlines()
    cells = lines[1 + row].split(",")
    value = float(cells[column])
    cells[column] = repr(value + 1e-6 * max(1.0, abs(value)))
    lines[1 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


# one generated call of every kind: (workload, position in pass 0)
_KINDS = [("bloch_sweep", 0), ("inversion_scan", 0), ("inversion_scan", 1)] + [
    ("reduced_dynamics", k) for k in range(len(make_pass("reduced_dynamics", 0, 0)))
]


@pytest.mark.parametrize("workload,position", _KINDS)
def test_oracle_accepts_the_program_and_rejects_a_perturbed_csv(workload, position):
    call = make_pass(workload, 0, 0)[position]
    text = _output(call)
    rng = random.Random(0)
    assert oracle.check_output(call.argv, text, rng, 4) == []
    n_rows = len(text.splitlines()) - 1
    row = n_rows // 2
    header = text.splitlines()[0].split(",")
    for column in range(len(header)):
        if header[column] == "prep":
            continue
        bad = _perturb(text, row, column)
        problems = oracle.check_output(call.argv, bad, rng, None)
        assert problems, f"perturbed column {header[column]} passed the oracle"


def test_oracle_rejects_a_missing_row():
    call = make_pass("inversion_scan", 0, 0)[1]
    text = _output(call)
    truncated = "\n".join(text.splitlines()[:-1]) + "\n"
    assert oracle.check_output(call.argv, truncated) != []


def test_benchmark_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "bloch_sweep", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    reported = layer_metrics([profile([], 0, 0)], 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(reported)
    assert all(m["unit"] == run._layer_unit(m["name"]) for m in spec["per_layer"])
