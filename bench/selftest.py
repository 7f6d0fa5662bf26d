"""Self-test of the benchmark's oracle and traced replay against the real CLI.

    python3 bench/selftest.py

1. The oracle accepts the unmodified output of one whole cycle of every
   workload at two seeds, and the traced replay (``tracing.py``) makes the
   same CSV rows as the CLI for each of those commands.
2. The oracle rejects outputs with one value perturbed by a relative 1e-6 in
   an analytic row, and outputs whose degenerate-SLD case is flipped
   (cfi = qfi on a pure d=4 row, cfi = 0 on a pure d=3 row).

Scans here have ``ROWS`` rows; the oracle checks each row on its own, so the
workloads' larger scans add nothing to what this tests. Exits 0 when both
parts pass.
"""

from __future__ import annotations

import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import ROOT, WORK_DIR, call_cli  # noqa: E402  (run.py pins the environment)
import oracle  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, cycle, write_scenario  # noqa: E402

SEEDS = (1, 2)
ROWS = 50


def _perturb_csv(stdout: str, row: int, column: int, new) -> str:
    lines = stdout.splitlines()
    fields = lines[row + 1].split(",")
    fields[column] = repr(new(float(fields[column]), [float(x) for x in fields]))
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def main() -> int:
    from qfg.cli import main as cli_main

    workdir = os.path.join(WORK_DIR, f"selftest-pid{os.getpid()}")
    tracer = tracing.Tracer(enabled=False)
    failures = []
    outputs = {}
    try:
        for seed in SEEDS:
            for workload in WORKLOADS:
                commands = cycle(workload, seed, rows=ROWS)
                rejected = differ = 0
                for cmd in commands:
                    path = write_scenario(cmd, os.path.join(workdir, f"{workload}-{seed}"))
                    rc, stdout = call_cli(cli_main, cmd.argv(path))
                    outputs.setdefault((workload, cmd.kind), (cmd, stdout))
                    rejected += bool(oracle.check_scan(cmd, rc, stdout))
                    differ += tracing.replay(tracer, cmd, path) != stdout.splitlines()[1:]
                print(f"accept {workload} seed={seed}: {len(commands) - rejected}/{len(commands)} accepted, "
                      f"{len(commands) - differ}/{len(commands)} replayed identically")
                if rejected:
                    failures.append(f"{workload} seed={seed}: {rejected} seed outputs rejected")
                if differ:
                    failures.append(f"{workload} seed={seed}: {differ} replays differ from the CLI")

        mutations = [
            ("qubit-scan", "sphere", 4, lambda x, f: x * (1 + 1e-6), "qfi_total * (1 + 1e-6) on an analytic row"),
            ("qubit-scan", "sphere", 1, lambda x, f: x * (1 - 1e-6), "cfi * (1 - 1e-6) on an analytic row"),
            ("qubit-scan", "transverse-z", 3, lambda x, f: x * (1 + 1e-6), "qfi_transverse * (1 + 1e-6)"),
            ("qudit-scan", "pure-d4", 1, lambda x, f: f[4], "degenerate d=4 SLD: cfi set to qfi"),
            ("qudit-scan", "pure-d3", 1, lambda x, f: 0.0, "non-degenerate d=3 SLD: cfi set to 0"),
        ]
        for workload, kind, column, new, label in mutations:
            cmd, stdout = outputs[workload, kind]
            bad = _perturb_csv(stdout, 3, column, new)
            ok = bool(oracle.check_scan(cmd, 0, bad))
            print(f"{'reject' if ok else 'MISSED'} {label}")
            if not ok:
                failures.append(f"oracle accepted: {label}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("FAILED" if failures else "OK") + f" ({ROOT})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
