"""memchan benchmark: timed CLI workloads, answer checks and a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload {sweep,scalar,verify} --seed N \\
        --seconds S --trace {0,1}

Each workload is a closed loop with one client: one op at a time, each
op one call to ``memchan.cli.main(argv)`` in a worker process (see
worker.py), timed around that call alone.  Every cycle of ops runs in a
fresh worker: users run each command once per process, so a memo kept
across invocations gets no hits.  Every output is checked (checks.py)
after the workers end, outside the timed region.

``--trace 0`` reports the end-to-end metrics with tracing off, and times
a cold start of the program after every cycle.  ``--trace 1`` runs every
cycle twice, untraced and with the tracer installed (tracer.py), and
reports the per-layer metrics per traced op plus the tracing overhead.

Stdout ends with a ``{"report": ...}`` line (environment, fingerprints,
failures) and, last, the result object.  The exit code is non-zero, with
no result printed, when the program cannot be run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
from workloads import ROUND_DP_OP, WORKLOADS  # noqa: E402
from tracer import FUNCTIONS, LAYERS  # noqa: E402
from worker import import_cli, run_op  # noqa: E402

# cold starts before the first cycle; one more follows every cycle, so
# they sample the host's speed over the whole run
SETUP_RUNS_BEFORE = 3
WORKER_TIMEOUT_S = 170
COLD_START = (
    "import sys; sys.path.insert(0, sys.argv[1]); from memchan import cli; "
    "cli._build_parser().parse_args(['verify'])"
)
RATIOS = (
    "channels.DensityMatrix.per_i2",
    "linalg.hermitian_eigen.per_i2",
    "channels.build_memory_channel.per_i2",
)


class BenchError(RuntimeError):
    """The program could not be run; no result is printed."""


@dataclass
class Phase:
    ops: list = field(default_factory=list)
    cycle_s: list = field(default_factory=list)  # mean seconds per op of each cycle
    rss_mb: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    calibration_s: list = field(default_factory=list)

    @property
    def op_s_p50(self) -> float:
        """Median over cycles of seconds per op.

        Op kinds within a cycle differ in cost (a dp sweep takes ~1.4x an
        ad sweep), and a plain median of such a mix sits in the gap between
        the kinds and jumps with their extremes.  Per-cycle means share one
        mode.
        """
        return statistics.median(self.cycle_s)


def spawn_worker(phase: Phase, workload: str, seed: int, cycle: int, trace: bool) -> None:
    argv = [sys.executable, str(WORKER), workload, str(seed), str(cycle), "1" if trace else "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    *op_lines, last = proc.stdout.splitlines()
    ops = [json.loads(line)["op"] for line in op_lines]
    tail = json.loads(last)
    phase.ops += ops
    phase.cycle_s.append(statistics.fmean(op["s"] for op in ops))
    phase.rss_mb.append(tail["rss_mb"])
    phase.calibration_s.append(tail["calibration_s"])
    if tail["trace"] is not None:
        phase.traces.append(tail["trace"])


def run_cycles(seconds: float, run_cycle) -> None:
    """Call run_cycle(k) for k = 0, 1, ... while less than `seconds` has passed."""
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        run_cycle(k)
        k += 1


def run_timed(workload: str, seed: int, seconds: float) -> tuple:
    """The timed cycles, and the cold-start times taken before and between them."""
    phase = Phase()
    setup = [cold_start_s() for _ in range(SETUP_RUNS_BEFORE)]

    def run_cycle(k: int) -> None:
        spawn_worker(phase, workload, seed, k, False)
        setup.append(cold_start_s())

    run_cycles(seconds, run_cycle)
    return phase, setup


def run_traced(workload: str, seed: int, seconds: float) -> tuple:
    """Each cycle runs untraced and traced, in fresh processes, in alternating order.

    Pairing the two in time keeps the host's speed drift out of the
    tracing overhead.
    """
    untraced, traced = Phase(), Phase()

    def run_pair(k: int) -> None:
        pair = ((untraced, False), (traced, True))
        for phase, trace in pair if k % 2 == 0 else pair[::-1]:
            spawn_worker(phase, workload, seed, k, trace)

    run_cycles(seconds, run_pair)
    return untraced, traced


def cold_start_s() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", COLD_START, str(SRC)], check=True,
                   capture_output=True, timeout=WORKER_TIMEOUT_S)
    return time.perf_counter() - start


def environment() -> dict:
    import numpy as np

    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            sha = proc.stdout.strip() or None
        except OSError:  # no git on this host
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_lines": src_lines,
    }


def calibration_summary(samples: list) -> dict:
    """Host speed over the run, from the workers' per-cycle calibration loops."""
    return {"median": statistics.median(samples), "min": min(samples),
            "max": max(samples), "samples": len(samples)}


def known_defect(argv: list, reason: str) -> bool:
    """`threshold dp 0.5` prints mu_t null where the closed-form root is 0.25.

    The root sits on the bisection's seed grid, where the gap is zero and
    carries no sign.  The op still counts as failed; only this exact
    symptom leaves the run's answers marked correct.
    """
    return tuple(argv) == ROUND_DP_OP and reason.startswith("threshold: mu_t null")


def check_ops(ops: list) -> list:
    import checks  # imports memchan, which import_cli has put on the path

    failures = []
    for op in ops:
        reason = checks.check(op["argv"], op["rc"], op["out"])
        if reason is not None:
            failures.append({"argv": op["argv"], "reason": reason, "stderr": op["err"][-500:],
                             "known_defect": known_defect(op["argv"], reason)})
    return failures


def fingerprints(workload: str, first_cycle: list) -> dict:
    """Values a second run of the same seed must reproduce exactly."""
    import checks

    digest = hashlib.sha256()
    for op in first_cycle:
        digest.update(op["out"].encode())
    fp = {"first_cycle_sha256": digest.hexdigest()}
    threshold = run_op(import_cli(), ["threshold", "ad", repr(math.pi / 5), "1e-12"])
    fp["mu_t_ad_pi_5"] = json.loads(threshold["out"])["mu_t"]
    if workload == "sweep":
        fp["sweep_max_delta"] = {op["argv"][1]: checks.sweep_max_delta(op["out"]) for op in first_cycle}
    if workload == "verify":
        fp["verify_max_residual"] = {
            s["name"]: s["max_residual"] for s in json.loads(first_cycle[0]["out"])["sections"]
        }
    return fp


def end_to_end(phase: Phase, setup: list) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "rss_peak_mb": (max(phase.rss_mb), "MB"),
    }


def per_layer(untraced: Phase, traced: Phase, failed: int, attempted: int) -> dict:
    n = len(traced.ops)
    calls = {fn: sum(t["calls"].get(fn, 0) for t in traced.traces) for fn in FUNCTIONS}
    secs = {fn: sum(t["seconds"].get(fn, 0.0) for t in traced.traces) for fn in FUNCTIONS}
    self_s = {m: sum(t["self_s"].get(m, 0.0) for t in traced.traces) for m in LAYERS}
    kraus_ops = sum(t["kraus_ops"] for t in traced.traces)
    gap_evals = sum(t["gap_evals"] for t in traced.traces)
    i2 = calls["capacity.mutual_information_numeric"]
    thresholds = calls["capacity.threshold_numeric"]

    m = {}
    for fn in FUNCTIONS:
        m[f"{fn}.calls"] = (calls[fn] / n, "count/op")
        m[f"{fn}.s"] = (secs[fn] / n, "s/op")
    m["channels.apply.kraus_ops"] = (kraus_ops / n, "count/op")
    for module in LAYERS:
        m[f"{module}.self_s"] = (self_s[module] / n, "s/op")
    for name in RATIOS:
        base = name.rsplit(".", 1)[0]
        m[name] = (calls[base] / i2 if i2 else 0.0, "ratio")
    m["capacity.threshold_numeric.gap_evals"] = (gap_evals / thresholds if thresholds else 0.0, "count/call")
    m["error_rate"] = (failed / attempted, "ratio")
    m["trace.op_s.p50.traced"] = (traced.op_s_p50, "s")
    m["trace.op_s.p50.untraced"] = (untraced.op_s_p50, "s")
    m["trace.overhead"] = (traced.op_s_p50 / untraced.op_s_p50 - 1.0, "ratio")
    traced_s = sum(op["s"] for op in traced.ops)
    m["trace.self_coverage"] = (sum(self_s.values()) / traced_s, "ratio")
    root_self_s = sum(t["fn_self_s"]["cli.main"] for t in traced.traces)
    m["trace.root_self_share"] = (root_self_s / traced_s, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "memchan" / "cli.py").is_file():
        print(f"error: no memchan sources under {SRC}", file=sys.stderr)
        return 1
    try:
        import_cli()
        env = environment()
        if args.trace:
            untraced, traced = run_traced(args.workload, args.seed, args.seconds)
            phases = [untraced, traced]
        else:
            timed, setup = run_timed(args.workload, args.seed, args.seconds)
            phases = [timed]
        ops = [op for phase in phases for op in phase.ops]
        failures = check_ops(ops)
        cycle_len = len(WORKLOADS[args.workload].cycle(args.seed, 0))
        fp = fingerprints(args.workload, ops[:cycle_len])
    except (BenchError, subprocess.SubprocessError, ImportError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer(untraced, traced, len(failures), len(ops))
    else:
        metrics = end_to_end(phases[0], setup)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(ops),
        "cycles": sum(len(phase.cycle_s) for phase in phases),
        # op times follow the host's slow phases too closely to be bounded
        # metrics (see README.md); they are recorded for paired comparisons
        "op_s_p50": [phase.op_s_p50 for phase in phases],
        "op_s": [[op["s"] for op in phase.ops] for phase in phases],
        "setup_samples": 0 if args.trace else len(setup),
        "environment": env,
        "calibration_s": calibration_summary([c for phase in phases for c in phase.calibration_s]),
        "fingerprints": fp,
        "failures": failures[:20],
        "absent": phases[-1].traces[0]["absent"] if args.trace else [],
    }
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": all(f["known_defect"] for f in failures),
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
