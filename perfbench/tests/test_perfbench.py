"""Tests of the benchmark itself: smoke runs, checkers and the tracer.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from memchan import cli  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import ROUND_DP_OP, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def cli_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    assert rc == 0
    return out.getvalue()


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request):
    """One cycle of the workload, untraced and traced, with the same seed."""
    out = {}
    for trace in ("0", "1"):
        proc = bench("--workload", request.param, "--seed", "3", "--seconds", "0.01", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        *_, report, result = proc.stdout.splitlines()
        out[trace] = (json.loads(report)["report"], json.loads(result))
    return request.param, out


def test_smoke_every_workload(runs):
    name, out = runs
    for trace, (report, result) in out.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] == len(WORKLOADS[name].cycle(3, 0)) * (2 if trace == "1" else 1)
        # the only failure the seed has is the known `threshold dp 0.5` op
        assert all(f["known_defect"] for f in report["failures"])
        assert result["failed"] == sum(f["argv"] == list(ROUND_DP_OP) for f in report["failures"])
    assert report["absent"] == []
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        units = {name: v["unit"] for name, v in out[trace][1]["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(v["value"] > 0 for v in out["0"][1]["metrics"].values())


def test_fingerprints_reproduce(runs):
    _, out = runs
    assert out["0"][0]["fingerprints"] == out["1"][0]["fingerprints"]


def test_traced_self_times_cover_op_time(runs):
    _, out = runs
    metrics = {k: v["value"] for k, v in out["1"][1]["metrics"].items()}
    assert abs(metrics["trace.self_coverage"] - 1.0) < 0.1
    # time no wrapped function below the root covers; a wrapper that stops
    # covering the work moves time here
    assert metrics["trace.root_self_share"] < 0.1
    assert metrics["cli.main.calls"] == 1.0


def test_rss_counts_the_worker_alone():
    ballast = b"x" * (200 << 20)  # a parent far larger than any worker
    phase = run.Phase()
    run.spawn_worker(phase, "verify", 1, 0, False)
    assert len(ballast) and phase.rss_mb[0] < 100


def test_benchmark_json_names_the_workloads():
    # scalar stays runnable but is left out of BENCHMARK.json as unsteady
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS) - {"scalar"}


def test_sweep_check_rejects_altered_value():
    argv = ["sweep", "dp", "0:1:3", "0.1:0.9:3", "0:0.7853981633974483:2"]
    out = cli_output(argv)
    assert checks.check(argv, 0, out) is None
    lines = out.splitlines()
    fields = lines[5].split(",")
    fields[4] = repr(float(fields[4]) + 1e-6)
    lines[5] = ",".join(fields)
    assert checks.check(argv, 0, "\n".join(lines) + "\n") is not None
    assert checks.check(argv, 0, "\n".join(lines[:-1]) + "\n") is not None


def test_threshold_check_rejects_shifted_root():
    argv = ["threshold", "ad", "0.7", "1e-12"]
    out = cli_output(argv)
    assert checks.check(argv, 0, out) is None
    payload = json.loads(out)
    payload["mu_t"] += 1e-6
    assert checks.check(argv, 0, json.dumps(payload)) is not None
    payload["mu_t"] = None
    assert checks.check(argv, 0, json.dumps(payload)) is not None


def test_threshold_check_flags_round_dp_defect():
    argv = list(ROUND_DP_OP)
    reason = checks.check(argv, 0, cli_output(argv))
    assert reason is not None and run.known_defect(argv, reason)
    # dp 0.875 has eta < 0 and a root at 1/7
    argv = ["threshold", "dp", "0.875", "1e-12"]
    assert checks.check(argv, 0, cli_output(argv)) is None
    assert abs(checks.closed_root("dp", 0.875) - 1 / 7) < 1e-12


def test_inequality_check_rejects_altered_row():
    argv = ["inequality", "7"]
    out = cli_output(argv)
    assert checks.check(argv, 0, out) is None
    assert checks.check(argv, 0, out.replace("true", "false", 1)) is not None
    lines = out.splitlines()
    chi, lhs, rhs, holds = lines[3].split(",")
    lines[3] = ",".join((chi, repr(float(lhs) + 1e-6), rhs, holds))
    assert checks.check(argv, 0, "\n".join(lines) + "\n") is not None


def test_verify_check_rejects_altered_report():
    sections = [
        {"name": name, "max_residual": 0.0, "threshold": threshold, "pass": True}
        for name, threshold in checks.VERIFY_SECTIONS
    ]
    good = {"sections": sections, "overall": True}
    assert checks.check(["verify"], 0, json.dumps(good)) is None
    assert checks.check(["verify"], 1, json.dumps(good)) is not None
    assert checks.check(["verify"], 0, json.dumps({**good, "overall": False})) is not None
    loose = [dict(s) for s in sections]
    loose[2]["threshold"] = 1e-6
    assert checks.check(["verify"], 0, json.dumps({**good, "sections": loose})) is not None


STAND_IN = {
    "__init__.py": "",
    "channels.py": """
        class DensityMatrix:
            def __init__(self, x):
                self.x = x

        def apply(kraus, rho):
            return DensityMatrix(rho.x)
    """,
    "capacity.py": """
        from .channels import DensityMatrix, apply

        def mutual_information_numeric(kraus, ensemble):
            return apply(kraus, DensityMatrix(ensemble)).x
    """,
    "cli.py": """
        from . import capacity

        def check_duality():
            return capacity.mutual_information_numeric(None, 1.0)

        VERIFY_CHECKS = (check_duality,)

        def main(argv=None):
            return sum(fn() for fn in VERIFY_CHECKS)
    """,
}


def test_tracer_survives_missing_names(tmp_path, monkeypatch):
    pkg = tmp_path / "standin"
    pkg.mkdir()
    for name, body in STAND_IN.items():
        (pkg / name).write_text(textwrap.dedent(body))
    monkeypatch.syspath_prepend(str(tmp_path))
    import standin.cli

    tracer = Tracer().install("standin")
    assert standin.cli.main() == 1.0
    snap = tracer.snapshot()
    assert "linalg.hermitian_eigen" in snap["absent"]
    assert "channels.build_memory_channel" in snap["absent"]
    for key in ("cli.main", "cli.check_duality", "capacity.mutual_information_numeric",
                "channels.apply", "channels.DensityMatrix"):
        assert snap["calls"][key] == (2 if key == "channels.DensityMatrix" else 1), key
    assert snap["seconds"]["cli.main"] == pytest.approx(sum(snap["self_s"].values()))
    assert snap["fn_self_s"]["cli.main"] == pytest.approx(
        snap["seconds"]["cli.main"] - snap["seconds"]["cli.check_duality"])


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "scalar", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("argv", [
    ["sweep", "ad", "0:1:2", "0:1:2", "0:1:2"],
    ["threshold", "ad", "0.7", "1e-12"],
    ["inequality", "3"],
    ["verify"],
])
@pytest.mark.parametrize("out", ["", "[1, 2]", "garbage\n1,2\n", '{"sections": [{"name": 1}]}'])
def test_checks_reject_malformed_output(argv, out):
    assert checks.check(argv, 0, out) is not None
