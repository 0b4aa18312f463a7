"""spinprep benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload bloch_sweep --seed 0 --seconds 30 --trace 0

Every workload is a closed loop with one client in this process: it calls
``spinprep.cli.main(argv)`` with generated argument vectors, each call
starting after the previous one returns.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` is a separate run that wraps each module's
public functions (see ``tracing.py``) and reports per-layer metrics per pass.
Both runs check the outputs outside the timed part: a repeated argv must give
byte-identical CSV, and a seeded subsample of rows must agree with an
independent oracle (``oracle.py``).

Human-readable lines go first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full record, with the environment stanza, is also written to ``bench/out/``.
"""

from __future__ import annotations

import os

# The matrices are 4x4: pin BLAS to one thread before numpy is imported, here
# and in the cold-start interpreters.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, layer_metrics, profile  # noqa: E402
from workloads import EXERCISED, UNIT_SPANS, UNTOUCHED, WORKLOADS, Call, make_pass  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

COLD_STARTS = 7  # timed interpreter starts per run; setup_s is their median
CHECKED_CALLS = 6  # calls re-run and oracle-checked per run, at least one per kind
CHECKED_ROWS = 8  # rows of each checked call recomputed by the oracle
MAX_TRACED_PASSES = 8  # bounds the spans a traced run holds in memory

END_TO_END_UNITS = {
    "setup_s": "s",
    "work_per_s": "units/s",
    "call_ms.p50": "ms",
    "call_ms.p90": "ms",
    "peak_rss_mb": "MiB",
}


@dataclass(frozen=True)
class Record:
    call: Call
    seconds: float
    ok: bool
    digest: str
    error: str | None


def invoke(cli, call: Call) -> tuple[Record, str]:
    """Run one CLI call in-process; return its record and its CSV text.

    A call succeeds when it returns 0 and its run-summary says status=pass.
    Only ``cli.main`` is inside the timer.
    """
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(call.argv))
        except (Exception, SystemExit):  # a crash is a failed call, not the end of the run
            error = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
    summary = [line for line in err.getvalue().splitlines() if line.startswith("run-summary ")]
    ok = error is None and code == 0 and bool(summary) and " status=pass" in summary[-1]
    if not ok and error is None:
        error = f"exit {code}: {err.getvalue().strip()[-400:]}"
    text = out.getvalue()
    digest = hashlib.sha256(text.encode()).hexdigest()
    return Record(call, seconds, ok, digest, error), text


def run_pass(cli, calls: list[Call]) -> list[Record]:
    return [invoke(cli, call)[0] for call in calls]


def cold_start_seconds() -> float:
    """Wall time from spawning a fresh interpreter until ``import spinprep.cli`` returns."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = "import time, spinprep.cli; print(time.monotonic())"
    start = time.monotonic()  # CLOCK_MONOTONIC is shared by all processes
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.strip()) - start


def cold_starts(n: int) -> list[float]:
    return [cold_start_seconds() for _ in range(n)]


def verify(cli, records: list[Record], workload: str, seed: int) -> tuple[set[int], list[str]]:
    """Re-run a seeded sample of successful calls and check them against the oracle.

    Returns the indices of calls found wrong and the problems found.  The
    sample holds at least one call of every kind that ran.
    """
    import oracle  # scipy is imported only after the timed part

    rng = random.Random(f"verify:{workload}:{seed}")
    by_kind = defaultdict(list)
    for i, rec in enumerate(records):
        if rec.ok:
            by_kind[rec.call.kind].append(i)
    chosen = {rng.choice(indices) for indices in by_kind.values()}
    candidates = [i for indices in by_kind.values() for i in indices]
    while len(chosen) < min(CHECKED_CALLS, len(candidates)):
        chosen.add(rng.choice(candidates))
    wrong, problems = set(), []
    for i in sorted(chosen):
        rec = records[i]
        again, text = invoke(cli, rec.call)
        found = []
        if again.digest != rec.digest:
            found.append("a repeated argv gave a different CSV")
        if not again.ok:
            found.append(f"the repeated call failed: {again.error}")
        found += oracle.check_output(rec.call.argv, text, rng, CHECKED_ROWS)
        if found:
            wrong.add(i)
            problems += [f"{' '.join(rec.call.argv)}: {p}" for p in found[:5]]
    return wrong, problems


def failure_problems(records: list[Record]) -> list[str]:
    return [f"{' '.join(r.call.argv)}: {r.error}" for r in records if not r.ok][:10]


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    cold_starts(1)  # compiles bytecode and warms the file cache; not counted
    setup = cold_starts(COLD_STARTS)
    cli = importlib.import_module("spinprep.cli")
    run_pass(cli, make_pass(workload, seed, 0))  # warm-up, not timed
    records: list[Record] = []
    pass_rates = []  # units per second of call time, one per pass
    start = time.perf_counter()
    while not pass_rates or time.perf_counter() - start < seconds:
        done = run_pass(cli, make_pass(workload, seed, len(pass_rates) + 1))
        pass_rates.append(sum(r.call.units for r in done if r.ok) / sum(r.seconds for r in done))
        records += done
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux

    wrong, problems = verify(cli, records, workload, seed)
    failed = sum(1 for i, r in enumerate(records) if not r.ok or i in wrong)
    times_ms = [r.seconds * 1e3 for r in records]
    p90 = statistics.quantiles(times_ms, n=10, method="inclusive")[8]
    units = sum(r.call.units for i, r in enumerate(records) if r.ok and i not in wrong)
    return {
        "metrics": {
            "setup_s": statistics.median(setup),
            "work_per_s": _low_decile(pass_rates),
            "call_ms.p50": statistics.median(times_ms),
            "call_ms.p90": p90,
            "peak_rss_mb": peak_rss_mb,
        },
        "attempted": len(records),
        "failed": failed,
        "problems": failure_problems(records) + problems,
        "details": {
            "setup_samples_s": setup,
            "passes": len(pass_rates),
            "calls": len(records),
            "units": units,
            "calls_beyond_p90": sum(1 for t in times_ms if t > p90),
            "loop_wall_s": wall,
            "failed_ratio": failed / len(records),
        },
    }


def _low_decile(values: list[float]) -> float:
    """The throughput that 90 % of the passes reach.

    On a shared virtual machine it is steadier than the mean or the median:
    CPU speed bursts make some passes faster, and the slower passes are the
    common state (see README.md).
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def count_problems(workload: str, calls: list[Call], counts: dict[str, int]) -> list[str]:
    """Self-checks of a traced pass's call counts against the generated inputs."""
    problems = []
    units = sum(c.units for c in calls)
    seen = sum(counts.get(name, 0) for name in UNIT_SPANS[workload])
    if seen != units:
        problems.append(f"{' + '.join(UNIT_SPANS[workload])} ran {seen} times, the inputs ask for {units}")
    problems += [f"{fn} never ran" for fn in EXERCISED[workload] if counts.get(fn, 0) == 0]
    problems += [
        f"{fn} ran {counts[fn]} times, expected none" for fn in UNTOUCHED[workload] if counts.get(fn, 0)
    ]
    return problems


def trace_run(workload: str, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced runs of pass 0 and report per-pass layer metrics."""
    cli = importlib.import_module("spinprep.cli")
    calls = make_pass(workload, seed, 0)
    reference = run_pass(cli, calls)  # warm-up, and the outputs every later pass must repeat
    records = list(reference)
    tracer = Tracer()
    untraced_s, traced_s, bounds = [], [], []
    start = time.perf_counter()
    while len(traced_s) < MAX_TRACED_PASSES and (len(traced_s) < 2 or time.perf_counter() - start < seconds):
        t0 = time.perf_counter()
        records += run_pass(cli, calls)
        untraced_s.append(time.perf_counter() - t0)
        lo = len(tracer.spans)
        with tracer.installed():
            t0 = time.perf_counter()
            traced = run_pass(cli, calls)
            traced_s.append(time.perf_counter() - t0)
        bounds.append((lo, len(tracer.spans)))
        records += traced

    problems = failure_problems(records)
    digests = [r.digest for r in reference]
    for k in range(len(reference), len(records), len(calls)):
        if [r.digest for r in records[k : k + len(calls)]] != digests:
            problems.append("a repeated pass (traced or not) gave a different CSV")
            break
    profiles = [profile(tracer.spans, lo, hi) for lo, hi in bounds]
    for p in profiles[1:]:
        if p["calls"] != profiles[0]["calls"] or p["nested"] != profiles[0]["nested"]:
            problems.append("call counts differ between traced passes of the same inputs")
            break
    problems += count_problems(workload, calls, profiles[0]["calls"])
    for p, wall in zip(profiles, traced_s):
        if sum(p["self_ns"].values()) != p["root_ns"] or p["root_ns"] > wall * 1e9:
            problems.append("self times do not add up to the traced CLI calls")
            break
    wrong, oracle_problems = verify(cli, reference, workload, seed)
    problems += oracle_problems

    overhead = statistics.median(traced_s) / statistics.median(untraced_s)
    first = profiles[0]
    inclusive_us = {
        name: first["incl_ns"][name] / first["calls"][name] / 1e3 for name in sorted(first["calls"])
    }
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl.gz"
    tracer.write(spans_path)
    return {
        "metrics": layer_metrics(profiles, overhead),
        "attempted": len(records),
        "failed": sum(1 for i, r in enumerate(records) if not r.ok or i in wrong),
        "problems": problems,
        "details": {
            "traced_passes": len(traced_s),
            "untraced_pass_s": untraced_s,
            "traced_pass_s": traced_s,
            "calls_per_pass": len(calls),
            "units_per_pass": sum(c.units for c in calls),
            "inclusive_us_per_call": inclusive_us,
            "spans_file": str(spans_path.relative_to(ROOT)),
            "spans": len(tracer.spans),
        },
    }


def git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args, result: dict) -> dict:
    import numpy

    sources = sorted((SRC / "spinprep").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    details = result["details"]
    return {
        "git_commit": git_commit(),
        "source_sha256": digest,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "client": "closed loop, 1 client, in-process cli.main(argv)",
        "runs": {
            "cold_starts": 0 if args.trace else COLD_STARTS,
            "passes": details.get("passes", details.get("traced_passes")),
            "calls": result["attempted"],
        },
    }


def print_end_to_end(workload: str, result: dict) -> None:
    m, d = result["metrics"], result["details"]
    unit = WORKLOADS[workload]
    rows = [
        ("setup_s", m["setup_s"], "s", f"median of {COLD_STARTS} cold starts"),
        ("work_per_s", m["work_per_s"], "units/s", f"{unit} per second of call time, low decile of {d['passes']} passes"),
        ("call_ms.p50", m["call_ms.p50"], "ms", f"n={d['calls']} calls in {d['passes']} passes"),
        ("call_ms.p90", m["call_ms.p90"], "ms", f"n={d['calls']} calls, {d['calls_beyond_p90']} beyond"),
        ("failed_ratio", d["failed_ratio"], "failed/attempted", f"{result['failed']} of {result['attempted']}"),
        ("peak_rss_mb", m["peak_rss_mb"], "MiB", "getrusage ru_maxrss"),
    ]
    for name, value, u, note in rows:
        print(f"{name:<13} {value:>14.6g} {u:<17} {note}")


def print_layers(result: dict) -> None:
    for name, value in result["metrics"].items():
        if not name.endswith(".calls") or value:
            print(f"{name:<52} {value:.6g}")
    print("inclusive us per call (first traced pass):")
    for name, value in result["details"]["inclusive_us_per_call"].items():
        print(f"  {name:<50} {value:10.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spinprep" / "cli.py").is_file():
        print(f"bench: no spinprep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    print(f"# spinprep benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        result = trace_run(args.workload, args.seed, args.seconds)
        print_layers(result)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
        print_end_to_end(args.workload, result)
    env = environment(args, result)
    for problem in result["problems"]:
        print(f"PROBLEM {problem}")
    correct = not result["problems"] and result["failed"] == 0
    final = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": _layer_unit(name) if args.trace else END_TO_END_UNITS[name]}
            for name, value in result["metrics"].items()
        },
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(final, environment=env, details=result["details"], problems=result["problems"])
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("environment " + json.dumps(env))
    print(json.dumps(final))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".self_ms"):
        return "ms"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
