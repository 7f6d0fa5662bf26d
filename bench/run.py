"""Benchmark of the qfg CLI on seeded workloads, checked against a physics oracle.

Run from the repository root (qfg is imported from ``src/``; nothing needs
to be installed)::

    python3 bench/run.py --workload qubit-scan --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all      # every workload, both modes, one process each

Workloads (``workloads.py``): ``qubit-scan`` and ``qudit-scan`` run ``qfg
scan`` through ``qfg.cli.main`` in this process, warm, as one closed-loop
client: the next command starts when the previous one returns. Every command
scans a scenario of its own. Every output is checked by ``oracle.py``; an
operation (one command) fails when it exits non-zero or when the oracle
rejects any of its rows.

Times are reported at a fixed machine speed (``calibration.py``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes the traced
replay of ``tracing.py`` and prints the per-layer metrics, writing them and
the spans (gzipped JSON lines) under ``.bench_out/``. The last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import os
import sys

# Pin the environment before numpy loads: single-threaded BLAS, no scan
# worker pool, qfg from this checkout's sources (children inherit all three).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QFG_JOBS", None)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
os.environ["PYTHONPATH"] = SRC
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gzip  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
from calibration import Reference  # noqa: E402
from workloads import CYCLE, SCAN_ROWS, WORKLOADS, commands, cycle, write_scenario  # noqa: E402

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPEATS = 7
#: Rows of the untimed warm-up scans (one per slot of the cycle).
WARMUP_ROWS = 8
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORK_DIR = os.path.join(ROOT, ".bench_work")

END_TO_END_UNITS = {"rows_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform()}


def call_cli(main, argv: list[str]) -> tuple[object, str]:
    """Run ``qfg.cli.main(argv)`` in-process; return (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code
        except Exception:  # a traceback is a failed operation, not a crash of the run
            rc = "traceback: " + traceback.format_exc(limit=3)
    return rc, out.getvalue()


class Checker:
    """Counts operations and the ones that failed, with the first problems found."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def check(self, cmd, rc, stdout: str) -> None:
        self.record(cmd, oracle.check_scan(cmd, rc, stdout))

    def record(self, cmd, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"command {cmd.index} ({cmd.kind}): {problems[:3]}")


def measure_setup(workload: str, seed: int, workdir: str, n: int) -> float:
    """Wall time of a fresh interpreter importing qfg.cli and writing and loading a cycle."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", os.path.join(workdir, f"setup-{n}"),
           "--workload", workload, "--seed", str(seed)]
    # the child prints when it is done, on the clock all processes share: with
    # a timeout, subprocess waits by polling, which rounds its time up to 50 ms
    t0 = time.monotonic()
    done = subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.PIPE, text=True).stdout
    return float(done) - t0


def setup_only(directory: str, workload: str, seed: int) -> None:
    from qfg import cli  # noqa: F401  -- the import is part of what set-up costs
    from qfg.scenario import load_scenario

    for cmd in cycle(workload, seed):
        load_scenario(write_scenario(cmd, directory))
    print(time.monotonic())


def run_end_to_end(workload: str, seed: int, seconds: float, workdir: str):
    from qfg.cli import main

    checker = Checker()
    size = CYCLE[workload]
    # warm-up: one short scan per slot, from a sequence of its own; checked, not timed
    for cmd in cycle(workload, seed, stream=1, rows=WARMUP_ROWS):
        checker.check(cmd, *call_cli(main, cmd.argv(write_scenario(cmd, os.path.join(workdir, "warm")))))

    # Each command is timed once and scaled to the nominal machine speed by
    # the reference kernel runs during and around it (see calibration.py). At
    # least one whole cycle runs, so every slot has a time.
    reference = Reference()
    reference.run()
    setups = []  # (seconds, position of the reference samples that follow)
    per_slot = [[] for _ in range(size)]
    setup_time = 0.0
    start = time.perf_counter()
    stream = commands(workload, seed)
    k = 0
    while k < size or time.perf_counter() - start - setup_time < seconds:
        # set-up samples are spread over the window so that they see the same
        # machine as the commands; their own time does not count toward it
        elapsed = time.perf_counter() - start - setup_time
        if len(setups) < min(SETUP_REPEATS, SETUP_REPEATS * elapsed / seconds):
            t0 = time.perf_counter()
            setups.append((measure_setup(workload, seed, workdir, len(setups)), len(reference.samples)))
            reference.run()
            setup_time += time.perf_counter() - t0
        cmd = next(stream)
        argv = cmd.argv(write_scenario(cmd, os.path.join(workdir, "scan")))
        result, cost = reference.time_call(call_cli, main, argv)
        per_slot[k % size].append(cost)
        checker.check(cmd, *result)
        k += 1
    while len(setups) < SETUP_REPEATS:
        setups.append((measure_setup(workload, seed, workdir, len(setups)), len(reference.samples)))
        reference.run()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # every invocation counts; a slot's mean keeps the family mix fixed when
    # the window ends inside a cycle
    metrics = {
        "rows_per_s": SCAN_ROWS[workload] * size / sum(statistics.fmean(costs) for costs in per_slot),
        "setup_s": statistics.median(t * reference.scale_at(pos) for t, pos in setups),
        "peak_rss_mb": peak_rss_mb,
    }
    info = {"commands": k, "rows_per_command": SCAN_ROWS[workload],
            "machine_speed": round(reference.scale(), 4)}
    return checker, {name: (v, END_TO_END_UNITS[name]) for name, v in metrics.items()}, info


def run_traced(workload: str, seed: int, seconds: float, workdir: str):
    import tracing
    from qfg.cli import main

    size = CYCLE[workload]
    # a tenth of the rows, so that several whole cycles fit in one run
    stream = commands(workload, seed, rows=SCAN_ROWS[workload] // 10)
    checker = Checker()
    off, on = tracing.Tracer(enabled=False), tracing.Tracer(enabled=True)
    reference = Reference()
    for cmd in cycle(workload, seed, stream=1, rows=WARMUP_ROWS):  # warm-up
        tracing.replay(off, cmd, write_scenario(cmd, os.path.join(workdir, "warm")))

    overhead = []
    deadline = time.perf_counter() + seconds
    while not overhead or time.perf_counter() < deadline:
        batch = [next(stream) for _ in range(size)]
        paths = [write_scenario(cmd, os.path.join(workdir, "scan")) for cmd in batch]
        t_off = t_on = 0.0
        for cmd, path in zip(batch, paths):
            t0 = time.perf_counter()
            tracing.replay(off, cmd, path)
            t_off += time.perf_counter() - t0
        for cmd, path in zip(batch, paths):
            on.tag = "main"
            with on.span("cli.main", (cmd.index, None)):
                rc, stdout = call_cli(main, cmd.argv(path))
            reference.run()
            on.tag = ""
            t0 = time.perf_counter()
            rows = tracing.replay(on, cmd, path)
            t_on += time.perf_counter() - t0
            problems = oracle.check_scan(cmd, rc, stdout)
            # the replay re-implements the CLI's per-row steps; it must print the same rows
            if rows != stdout.splitlines()[1:]:
                problems.append("the traced replay's rows differ from the output of qfg.cli")
            checker.record(cmd, problems)
        overhead.append(t_on / t_off - 1.0)

    # a few calls of every kind, so each per-call metric has samples on every workload
    on.tag = "fill"
    for w in WORKLOADS:
        for cmd in cycle(w, seed, stream=1, rows=2):
            tracing.replay(on, cmd, write_scenario(cmd, os.path.join(workdir, f"fill-{w}")))

    metrics = tracing.layer_metrics(on, overhead, reference.scale())
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}")
    origin = on.records[0][5]
    with gzip.open(stem + "-spans.jsonl.gz", "wt", encoding="utf-8") as fh:
        for sid, parent, name, row, tag, start, end in on.records:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "row": row,
                                 "tag": tag, "start": start - origin, "end": end - origin}) + "\n")
    with open(stem + "-layers.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "environment": environment(),
                   "machine_speed": reference.scale(), "metrics": metrics}, fh, indent=1)
    info = {"cycles": len(overhead), "spans": len(on.records), "written": stem + "-{spans.jsonl.gz,layers.json}"}
    return checker, {name: (metrics[name], unit) for name, unit in tracing.PER_LAYER_UNITS.items()}, info


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = os.path.join(WORK_DIR, f"{workload}-seed{seed}-pid{os.getpid()}")
    try:
        runner = run_traced if trace else run_end_to_end
        checker, metrics, info = runner(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = checker.attempted, checker.failed
    for problem in checker.problems[:20]:
        print(f"REJECTED {workload}: {problem}", file=sys.stderr)
    print(f"{workload} seed={seed} trace={int(trace)} attempted={attempted} failed={failed} "
          f"fail_ratio={failed / attempted:.6g} " + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(seed: int, seconds: float) -> dict:
    """Every workload in both modes, each in a fresh process, so peak_rss_mb is the workload's own."""
    results = {}
    for w in WORKLOADS:
        for t in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", str(seed),
                   "--seconds", repr(seconds), "--trace", str(t)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900, check=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[1:-1]), flush=True)  # the environment line is printed once
            results[w, t] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for (w, t), r in results.items() if not t
                    for name, m in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", dest="setup_only", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # only this checkout's sources are measured, never an installed qfg
    if not os.path.isfile(os.path.join(SRC, "qfg", "cli.py")):
        print(f"no qfg sources under {SRC}; run from a qfg checkout", file=sys.stderr)
        return 2
    if args.setup_only:
        setup_only(args.setup_only, args.workload, args.seed)
        return 0
    print("environment: " + json.dumps(environment()))
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
