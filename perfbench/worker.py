"""Runs a workload's ops through ``memchan.cli.main`` in this process.

Usage: worker.py WORKLOAD SEED CYCLE TRACE

Runs cycle CYCLE of the workload, one op after another.  Each op is timed
around the ``cli.main`` call alone, with stdout and stderr captured, and
written as one JSON line as soon as it ends.  After the cycle, outside the
timed region, a fixed calibration loop gauges the host's speed.  The last
line holds the calibration time, the process's peak RSS and, with TRACE 1,
the tracer's totals.
memchan is imported from the ``src`` directory beside this one, never
from an installed copy.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_cli():
    """memchan.cli from this checkout's src directory."""
    sys.path.insert(0, str(SRC))
    from memchan import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"memchan imported from {cli.__file__}, not {SRC}")
    return cli


def calibration_s() -> float:
    """Median time of a fixed numpy and pure-Python loop; no metric is divided by it."""
    import numpy as np

    a = np.arange(16.0).reshape(4, 4)
    a = a + a.T
    times = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(400):
            np.linalg.eigvalsh(a)
            sum(i * i for i in range(50))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident set of this process's own memory (Linux only).

    ``ru_maxrss`` is no use here: across fork and exec, Linux carries the
    parent's peak into the child's, so it would count the harness.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def run_op(cli, argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a traceback is a failed op, recorded with its text
            rc = 1
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return {"argv": argv, "rc": rc, "s": elapsed, "out": out.getvalue(), "err": err.getvalue()}


def main(args: list) -> int:
    workload_name, seed, cycle, trace = args
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    cli = import_cli()
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer().install()
    for argv in workload.cycle(int(seed), int(cycle)):
        print(json.dumps({"op": run_op(cli, argv)}), flush=True)
    tail = {"calibration_s": calibration_s(), "rss_mb": peak_rss_mb(), "trace": tracer.snapshot() if tracer else None}
    print(json.dumps(tail))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
