import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import memchan
from memchan import channels, cli, lindblad
from memchan.capacity import depolarizing_threshold_closed
from memchan.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAIL,
    SWEEP_HEADER,
    UsageError,
    parse_range_spec,
)

PI = math.pi


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# range specs
# ----------------------------------------------------------------------

def test_parse_range_spec_grid():
    values = parse_range_spec("0:1:5", "x", 0.0, 1.0)
    assert values == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_parse_range_spec_single_point():
    assert parse_range_spec("0.3:0.9:1", "x", 0.0, 1.0) == [0.3]


@pytest.mark.parametrize(
    "spec",
    ["0:1", "a:b:c", "0:1:0", "1:0:3", "-0.5:1:3", "0:1.5:3", "nan:nan:1", "0:nan:3"],
)
def test_parse_range_spec_rejects_bad_input(spec):
    with pytest.raises(UsageError):
        parse_range_spec(spec, "x", 0.0, 1.0)


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

def test_sweep_row_count_and_order(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "ad", "0:1:11", "0.628318:0.628318:1", "0:0.785398:2"
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 1 + 22
    # lexicographic (mu, param, theta) ordering
    mus = [float(line.split(",")[1]) for line in lines[1:]]
    assert mus == sorted(mus)
    thetas = [float(line.split(",")[3]) for line in lines[1:3]]
    assert thetas[0] < thetas[1]


def test_sweep_noiseless_depolarizing(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "dp", "0:1:3", "0:0:1", "0.785398:0.785398:1"
    )
    assert code == EXIT_OK
    for line in out.strip().split("\n")[1:]:
        fields = line.split(",")
        assert float(fields[4]) == pytest.approx(2.0, abs=1e-9)
        assert float(fields[5]) == pytest.approx(2.0, abs=1e-9)


def test_sweep_closed_numeric_delta_column(capsys):
    code, out, _ = run_cli(capsys, "sweep", "ad", "0:1:5", "0:1.5:4", "0:0.785398:3")
    assert code == EXIT_OK
    for line in out.strip().split("\n")[1:]:
        assert float(line.split(",")[6]) <= 1e-9


def test_sweep_dephasing_has_no_closed_form(capsys):
    code, out, _ = run_cli(capsys, "sweep", "dephasing", "0:1:2", "0.3:0.3:1", "0:0:1")
    assert code == EXIT_OK
    for line in out.strip().split("\n")[1:]:
        fields = line.split(",")
        assert fields[5] == "" and fields[6] == ""


def test_sweep_output_is_deterministic_and_round_trips(capsys, tmp_path):
    args = ("sweep", "ad", "0:1:3", "0.2:1.2:3", "0:0.785398:2")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2

    path = tmp_path / "sweep.csv"
    code3, _, _ = run_cli(capsys, *args, "--out", str(path))
    assert code3 == EXIT_OK
    text = path.read_text(encoding="utf-8")
    assert text == out1
    assert "\r" not in text

    # 12 significant digits survive a parse/format round trip
    for line in text.strip().split("\n")[1:]:
        for field in line.split(",")[1:]:
            if field:
                assert f"{float(field):.12g}" == field


def test_sweep_unwritable_path(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "ad", "0:0:1", "0:0:1", "0:0:1", "--out", "/no/such/dir/x.csv"
    )
    assert code == EXIT_IO
    assert "i/o error" in err


def test_sweep_bad_range_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "sweep", "ad", "0:2:3", "0:0:1", "0:0:1")
    assert code == EXIT_USAGE
    assert "mu_spec" in err


def test_sweep_nan_range_is_usage_error(capsys):
    # nan passes the lo <= hi and domain comparisons, so it needs its own check
    code, _, err = run_cli(capsys, "sweep", "ad", "nan:nan:1", "0:1:1", "0:0:1")
    assert code == EXIT_USAGE
    assert "mu_spec" in err and "finite" in err


def test_sweep_rejects_unknown_channel():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["sweep", "bogus", "0:1:2", "0:0:1", "0:0:1"])
    assert excinfo.value.code == EXIT_USAGE


# ----------------------------------------------------------------------
# threshold
# ----------------------------------------------------------------------

def test_threshold_ad_pi_fifth(capsys):
    code, out, _ = run_cli(capsys, "threshold", "ad", "0.628318", "1e-6")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["channel"] == "ad"
    assert 0.5 < payload["mu_t"] < 0.6
    assert payload["bracket"][1] - payload["bracket"][0] <= 1e-6
    assert payload["iterations"] > 0


def test_threshold_dp_matches_closed_form(capsys):
    code, out, _ = run_cli(capsys, "threshold", "dp", "0.375", "1e-6")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["mu_t"] == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_threshold_identity_channel_reports_null(capsys):
    code, out, _ = run_cli(capsys, "threshold", "ad", "0", "1e-6")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["mu_t"] is None
    assert payload["bracket"] == [0.0, 1.0]


def test_threshold_rejects_bad_param(capsys):
    code, _, err = run_cli(capsys, "threshold", "ad", "3.0", "1e-6")
    assert code == EXIT_USAGE
    assert "chi" in err


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_threshold_rejects_non_finite_tol(capsys, tol):
    # a nan bracket width never compares above tol, so bisection would not run
    code, out, err = run_cli(capsys, "threshold", "ad", "0.6", tol)
    assert code == EXIT_USAGE
    assert out == ""
    assert "tol" in err


@pytest.mark.parametrize("p", [0.5, 0.3, 9 / 14])
def test_threshold_root_on_seed_grid(capsys, p):
    # eta/(1+eta) is 0.25, 0.375 and 0.125: seeds of the 17-point grid,
    # whose gap sits inside the noise floor and so carries no sign
    code, out, _ = run_cli(capsys, "threshold", "dp", repr(p), "1e-12")
    assert code == EXIT_OK
    payload = json.loads(out)
    eta = 1.0 - 4.0 * p / 3.0
    assert payload["mu_t"] == pytest.approx(depolarizing_threshold_closed(eta), abs=1e-9)
    assert payload["bracket"][1] - payload["bracket"][0] <= 1e-12


def test_threshold_rejects_bad_tag():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["threshold", "bogus", "0.3", "1e-6"])
    assert excinfo.value.code == EXIT_USAGE


# ----------------------------------------------------------------------
# inequality
# ----------------------------------------------------------------------

def test_inequality_table(capsys):
    code, out, _ = run_cli(capsys, "inequality", "5")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "chi,i2_mu1,i2_mu0,holds"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(2.0, abs=1e-9)
    assert float(first[2]) == pytest.approx(2.0, abs=1e-9)
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(1.5, abs=1e-9)
    assert float(last[2]) == pytest.approx(0.0, abs=1e-9)
    assert all(line.endswith("true") for line in lines[1:])


def test_inequality_needs_two_points(capsys):
    code, _, err = run_cli(capsys, "inequality", "1")
    assert code == EXIT_USAGE
    assert "grid_count" in err


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def test_verify_passes_on_fresh_build(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["overall"] is True
    names = [section["name"] for section in report["sections"]]
    assert names == [
        "cptp_constructors",
        "lindblad_eigenoperators",
        "duality",
        "kraus_lindblad_equivalence",
        "uncorrelated_dephasing_generator",
        "closed_form_vs_numeric",
    ]
    for section in report["sections"]:
        assert section["max_residual"] <= section["threshold"]


def test_verify_detects_corrupted_damping_operator(capsys, monkeypatch):
    # a magnitude defect just above the completeness gate but below the
    # apply() gate, so every section still runs and only CPTP trips
    original = channels.ad_correlated_kraus2

    def corrupted(chi):
        kraus = original(chi)
        e00, e11 = (op.copy() for op in kraus.ops)
        e11[3, 0] += 3e-11
        return channels.KrausSet(dim=4, ops=(e00, e11))

    monkeypatch.setattr(channels, "ad_correlated_kraus2", corrupted)
    code, out, _ = run_cli(capsys, "verify")
    assert code == EXIT_VERIFY_FAIL
    report = json.loads(out)
    assert report["overall"] is False
    by_name = {s["name"]: s for s in report["sections"]}
    assert by_name["cptp_constructors"]["pass"] is False


def test_verify_detects_wrong_eigenvalue(capsys, monkeypatch):
    from dataclasses import replace

    original = lindblad.catalog_ad_correlated

    def broken(alpha):
        cat = original(alpha)
        entries = tuple(
            replace(e, eigenvalue=0.0) if e.label == "R33" else e for e in cat.entries
        )
        return replace(cat, entries=entries)

    monkeypatch.setattr(lindblad, "catalog_ad_correlated", broken)
    code, out, _ = run_cli(capsys, "verify")
    assert code == EXIT_VERIFY_FAIL
    report = json.loads(out)
    by_name = {s["name"]: s for s in report["sections"]}
    assert by_name["lindblad_eigenoperators"]["pass"] is False
    # residual of the broken entry is alpha * ||R33||_F = 1.0 at alpha = 1
    assert by_name["lindblad_eigenoperators"]["max_residual"] == pytest.approx(1.0, abs=1e-10)


def test_verify_never_loads_numpy_random():
    # the Kraus/Lindblad checks compare transfer matrices, not sampled states
    src = Path(memchan.__file__).resolve().parent.parent
    script = (
        "import contextlib, io, sys\n"
        "from memchan import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify'])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.split() == [str(EXIT_OK), "False"]


def test_verify_detects_wrong_damping_angle(capsys, monkeypatch):
    # every constructor stays CPTP, so only the Kraus/Lindblad gap can see it
    original = lindblad.damping_angle
    monkeypatch.setattr(lindblad, "damping_angle", lambda a, t: original(a, t) + 1e-6)
    code, out, _ = run_cli(capsys, "verify")
    assert code == EXIT_VERIFY_FAIL
    by_name = {s["name"]: s for s in json.loads(out)["sections"]}
    assert by_name["kraus_lindblad_equivalence"]["pass"] is False
    assert by_name["cptp_constructors"]["pass"] is True
