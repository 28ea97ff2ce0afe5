import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import memchan
from memchan import capacity, channels, cli, linalg, lindblad
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

import page_probe

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


def test_parse_range_spec_error_prints_values_in_full():
    # 0.78539817 and pi/4 agree to 6 significant digits, so a short format
    # would print both as 0.785398
    with pytest.raises(UsageError) as excinfo:
        parse_range_spec("0:0.78539817:3", "x", 0.0, PI / 4)
    assert "[0.0, 0.78539817] lies outside [0.0, 0.7853981633974483]" in str(excinfo.value)


def test_parse_range_spec_count_limit():
    n = cli.MAX_GRID_POINTS
    assert 21 * 21 * 5 <= n and 257 <= n  # the benchmark's sweeps and CI's inequality 257
    assert len(parse_range_spec(f"0:1:{n}", "x", 0.0, 1.0)) == n
    with pytest.raises(UsageError, match=rf"x: count must lie in \[1, {n}\], got {n + 1}"):
        parse_range_spec(f"0:1:{n + 1}", "x", 0.0, 1.0)


def _refuse_the_kernel(*args):
    raise AssertionError("an over-limit grid reached the I2 kernel")


@pytest.mark.parametrize(
    "argv",
    [
        ("inequality", "100000000"),
        ("sweep", "ad", "0:1:3000", "0:1:3000", "0:0:1"),
        ("sweep", "dephasing", "0:1:30", "0:1:1607", "0:0:1"),
        ("sweep", "dp", "0:1:1", "0:1:1", "0:0:1000000000"),
    ],
    ids=["inequality", "sweep_product", "sweep_one_past", "sweep_axis"],
)
def test_over_limit_grid_is_usage_error(capsys, monkeypatch, argv):
    # the limit is checked from the counts, so the kernel is never built:
    # running these for real would allocate gigabytes or run for minutes
    for name in ("i2_grid", "product_memory_inequality"):
        monkeypatch.setattr(capacity, name, _refuse_the_kernel)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert str(cli.MAX_GRID_POINTS) in err


def test_sweep_grid_at_the_limit_is_accepted(monkeypatch):
    n = cli.MAX_GRID_POINTS
    assert 29 * 1607 == n  # one mu count more (30 x 1607) is refused above

    class Reached(Exception):
        pass

    def reached(tag, mus, params, thetas):
        raise Reached(len(mus) * len(params) * len(thetas))

    monkeypatch.setattr(cli, "compute_sweep", reached)
    with pytest.raises(Reached, match=f"^{n}$"):
        cli.main(["sweep", "dephasing", "0:1:29", "0:1:1607", "0:0:1"])


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


def test_sweep_i2_numeric_is_never_negative(capsys):
    # fully damped and memoryless, I2 is 0 up to rounding, which once printed
    # as -1.60171325191e-16
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "ad",
        "0:0:1",
        "1.5707963267948966:1.5707963267948966:1",
        "1.1780972450961724:1.1780972450961724:1",
    )
    assert code == EXIT_OK
    assert out.splitlines()[1].split(",")[4] == "0"


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


@pytest.mark.parametrize("tag", ["ad", "dephasing", "dp"])
def test_sweep_out_file_matches_stdout(capsys, tmp_path, tag):
    args = ("sweep", tag, "0:1:4", "0:0.9:3", "0:1.5707963267948966:3")
    code, out, _ = run_cli(capsys, *args)
    assert code == EXIT_OK
    path = tmp_path / f"{tag}.csv"
    assert run_cli(capsys, *args, "--out", str(path)) == (EXIT_OK, "", "")
    assert path.read_bytes() == out.encode("utf-8")
    rows = out.splitlines()[1:]
    assert len(rows) == 4 * 3 * 3
    assert all(row.endswith(",,") for row in rows) == (tag == "dephasing")


def _reference_sweep_csv(tag, mus, params, thetas, numeric, closed):
    """The per-cell CSV that sweep_csv replaced: each row formats its axis values anew."""
    lines = [SWEEP_HEADER]
    for (i, j, k), value in np.ndenumerate(numeric):
        tail = ","
        if closed is not None:
            tail = f"{cli._fmt(closed[i, j, k])},{cli._fmt(abs(value - closed[i, j, k]))}"
        point = (mus[i], params[j], thetas[k], value)
        lines.append(",".join([tag, *map(cli._fmt, point), tail]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "tag, mus, params, thetas",
    [
        ("ad", [0.0, 1 / 3, 1.0], [0.1, PI / 7, PI / 2], [0.0, PI / 8, PI / 4]),
        ("dp", [0.0, 0.35, 2 / 3, 1.0], [1 / 7, 0.75], [0.3]),
        ("dephasing", [0.2, 0.9], [0.0, 1 / 3, 1.0], [0.0, PI / 3]),
    ],
    ids=["ad", "dp_one_theta", "dephasing"],
)
def test_sweep_csv_matches_per_cell_reference(tag, mus, params, thetas):
    numeric, closed = cli.compute_sweep(tag, mus, params, thetas)
    assert numeric.shape == (len(mus), len(params), len(thetas))
    assert (closed is None) == (tag == "dephasing")
    out = io.StringIO()
    cli.sweep_csv(tag, mus, params, thetas, numeric, closed, out)
    assert out.getvalue() == _reference_sweep_csv(tag, mus, params, thetas, numeric, closed)


@pytest.mark.parametrize("out_file", [False, True], ids=["stdout", "out"])
def test_sweep_failure_writes_nothing(capsys, tmp_path, monkeypatch, out_file):
    # the kernel fails on the third memory degree, after two slices succeeded
    original = capacity.I2Kernel.at
    calls = []

    def failing(self, mu):
        calls.append(mu)
        if len(calls) == 3:
            raise ArithmeticError("kernel failure")
        return original(self, mu)

    monkeypatch.setattr(capacity.I2Kernel, "at", failing)
    path = tmp_path / "sweep.csv"
    argv = ["sweep", "ad", "0:1:5", "0.2:0.4:2", "0:0.7:2"]
    with pytest.raises(ArithmeticError, match="kernel failure"):
        cli.main(argv + (["--out", str(path)] if out_file else []))
    assert capsys.readouterr().out == ""
    assert not path.exists()


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


@pytest.mark.parametrize(
    "argv, column, edge",
    [
        # lo + (hi - lo) * 6 / 6 rounds to 1.0000000000000002
        (("dp", "0.059:1:7", "0.5:0.5:1", "0:0:1"), 1, 1.0),
        # pi/2 typed to 13 digits lies 3.4e-14 past the edge, inside the slack
        (("ad", "0:1:2", "0:1.5707963267949:2", "0:0:1"), 2, PI / 2),
        (("ad", "0:1:2", "0.3:0.3:1", "0.1:1.5707963267949:3"), 3, PI / 2),
    ],
)
def test_sweep_grid_ends_inside_domain(capsys, argv, column, edge):
    code, out, _ = run_cli(capsys, "sweep", *argv)
    assert code == EXIT_OK
    values = [float(line.split(",")[column]) for line in out.splitlines()[1:]]
    assert max(values) == float(f"{edge:.12g}")
    assert parse_range_spec(argv[column], "x", 0.0, edge)[-1] == edge


def test_sweep_rejects_unknown_channel():
    assert cli.main(["sweep", "bogus", "0:1:2", "0:0:1", "0:0:1"]) == EXIT_USAGE


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


@pytest.mark.parametrize(
    "tag,param,reason",
    [
        # raw seed gaps run from -5e-13 to +4.9e-12, all inside the noise floor
        ("ad", "1e-6", "below_noise_floor"),
        ("ad", "1.5707953267948966", "below_noise_floor"),
        # eta = 0: the gap is 0 at mu = 0 and positive above it
        ("dp", "0.75", "edge"),
        # the gaps are exactly 0, or -2e-16 at a few seeds
        ("dp", "0", "none"),
        ("ad", "0", "none"),
        ("ad", "1.5707963267948966", "none"),
    ],
)
def test_threshold_null_says_why(capsys, tag, param, reason):
    code, out, _ = run_cli(capsys, "threshold", tag, param, "1e-12")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["mu_t"] is None
    assert payload["reason"] == reason
    assert list(payload) == ["channel", "param", "mu_t", "bracket", "iterations", "reason"]


def test_threshold_found_has_no_reason(capsys):
    code, out, _ = run_cli(capsys, "threshold", "dp", "0.5", "1e-12")
    assert code == EXIT_OK
    assert list(json.loads(out)) == ["channel", "param", "mu_t", "bracket", "iterations"]


def test_threshold_rejects_bad_param(capsys):
    code, _, err = run_cli(capsys, "threshold", "ad", "3.0", "1e-6")
    assert code == EXIT_USAGE
    assert "chi" in err


def test_threshold_range_error_prints_bounds_in_full(capsys):
    # just above pi/2 and equal to it in 6 significant digits, so a short
    # format would print a bound the value seems to lie inside
    code, out, err = run_cli(capsys, "threshold", "ad", "1.5707963267949", "1e-9")
    assert code == EXIT_USAGE
    assert out == ""
    assert "chi must lie in [0.0, 1.5707963267948966], got 1.5707963267949" in err


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
    assert cli.main(["threshold", "bogus", "0.3", "1e-6"]) == EXIT_USAGE


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


@pytest.mark.parametrize("count", [14, 27])
def test_inequality_grid_ends_at_pi_over_2(capsys, count):
    # chi_max * i / (count - 1) overshoots pi/2 by one ulp at these counts,
    # which the damping constructor refused with a traceback
    code, out, err = run_cli(capsys, "inequality", str(count))
    assert (code, err) == (EXIT_OK, "")
    rows = out.strip().split("\n")[1:]
    assert len(rows) == count
    assert rows[-1].split(",")[0] == "1.57079632679"
    assert all(row.endswith(",true") for row in rows)


def test_inequality_needs_two_points(capsys):
    code, _, err = run_cli(capsys, "inequality", "1")
    assert code == EXIT_USAGE
    assert "grid_count" in err


# ----------------------------------------------------------------------
# bad-input corpus
# ----------------------------------------------------------------------

# every positional of sweep, threshold and inequality, one at a time, gets
# each token below; the other positionals stay tiny (counts <= 2, tol 1e-3)
CORPUS_TOKENS = ("nan", "inf", "-inf", "-0.0", "1e308", "", "x")
CORPUS_COUNTS = ("0", "1", "2", str(cli.MAX_GRID_POINTS + 1))
CORPUS_MAX_POINTS = 8  # the largest grid a corpus case may run: 2 x 2 x 2


def _edge_tokens(lo, hi):
    """Just outside (by 1e-9 and by one double) and just inside each domain end."""
    values = [lo - 1e-9, math.nextafter(lo, -math.inf), math.nextafter(lo, math.inf)]
    values += [hi + 1e-9, math.nextafter(hi, math.inf), math.nextafter(hi, -math.inf)]
    return tuple(map(repr, values))


def _spec_tokens(lo, hi):
    """Range specs lo:hi:count that vary one field, a reversed range and two non-specs."""
    scalars = CORPUS_TOKENS + _edge_tokens(lo, hi)
    return (
        [f"{x}:{hi!r}:2" for x in scalars]
        + [f"{lo!r}:{x}:2" for x in scalars]
        + [f"{lo!r}:{hi!r}:{n}" for n in CORPUS_TOKENS + CORPUS_COUNTS]
        + [f"{hi!r}:{lo!r}:2", "", "x"]
    )


def _corpus():
    """(argv, id) cases: each command's base argv with one positional replaced."""
    mu, theta, chi, p = (channels.DOMAINS[name] for name in ("mu", "theta", "chi", "p"))
    slots = [
        # (base argv, index of the replaced positional, tokens)
        (["sweep", "ad", "0:1:2", "0:1:2", "0:0.5:2"], 1, CORPUS_TOKENS),
        (["sweep", "ad", "0:1:2", "0:1:2", "0:0.5:2"], 2, _spec_tokens(*mu)),
        (["sweep", "ad", "0:1:2", "0:1:2", "0:0.5:2"], 3, _spec_tokens(*chi)),
        (["sweep", "dp", "0:1:2", "0:1:2", "0:0.5:2"], 3, _spec_tokens(*p)),
        (["sweep", "dephasing", "0:1:2", "0:1:2", "0:0.5:2"], 3, _spec_tokens(*p)),
        (["sweep", "ad", "0:1:2", "0:1:2", "0:0.5:2"], 4, _spec_tokens(*theta)),
        (["threshold", "ad", "0.6", "1e-3"], 1, CORPUS_TOKENS),
        (["threshold", "ad", "0.6", "1e-3"], 2, CORPUS_TOKENS + _edge_tokens(*chi)),
        (["threshold", "dp", "0.6", "1e-3"], 2, CORPUS_TOKENS + _edge_tokens(*p)),
        (["threshold", "ad", "0.6", "1e-3"], 3, CORPUS_TOKENS + ("0", "5e-324")),
        (["inequality", "2"], 1, CORPUS_TOKENS + CORPUS_COUNTS),
    ]
    cases = {}
    for base, index, tokens in slots:
        for token in tokens:
            argv = base[:index] + [token] + base[index + 1:]
            cases[" ".join(map(repr, argv))] = argv
    return cases


CORPUS = _corpus()


def _check_answer(argv, out):
    """The stdout of an exit-0 corpus case parses, and every value is in its domain."""
    command, tag = argv[0], argv[1]
    in_domain = channels._check_range
    if command == "threshold":
        payload = json.loads(out)
        in_domain(channels.FAMILIES[tag], payload["param"])
        assert payload["mu_t"] is None or 0.0 <= payload["mu_t"] <= 1.0
        return
    header, *rows = out.splitlines()
    assert rows
    if command == "inequality":
        assert header == "chi,i2_mu1,i2_mu0,holds"
        for chi, lhs, rhs, holds in (row.split(",") for row in rows):
            in_domain("chi", float(chi))
            assert 0.0 <= float(lhs) <= 2.0 and 0.0 <= float(rhs) <= 2.0
            assert holds in ("true", "false")
        return
    assert header == SWEEP_HEADER
    for row in rows:
        row_tag, mu, param, theta, numeric, closed, delta = row.split(",")
        assert row_tag == tag
        in_domain("mu", float(mu))
        in_domain(channels.FAMILIES[tag], float(param))
        in_domain("theta", float(theta))
        assert 0.0 <= float(numeric) <= 2.0
        if tag != "dephasing":
            assert abs(float(closed) - float(numeric)) <= float(delta) + 1e-12


@pytest.mark.parametrize("argv", list(CORPUS.values()), ids=list(CORPUS))
def test_bad_input_corpus_answers_or_is_usage_error(capsys, monkeypatch, argv):
    # an over-limit count must be refused from the counts alone: a grid larger
    # than the corpus's tiny ones reaching the kernel fails the case
    i2_grid, inequality = capacity.i2_grid, capacity.product_memory_inequality

    def small_grid(family, mus, params, thetas):
        assert len(mus) * len(params) * len(thetas) <= CORPUS_MAX_POINTS
        return i2_grid(family, mus, params, thetas)

    def small_inequality(chis):
        assert len(chis) <= CORPUS_MAX_POINTS
        return inequality(chis)

    monkeypatch.setattr(capacity, "i2_grid", small_grid)
    monkeypatch.setattr(capacity, "product_memory_inequality", small_inequality)
    code = cli.main(argv)  # a SystemExit escaping cli.main fails the case
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if code == EXIT_OK:
        _check_answer(argv, out)
    else:
        assert code == EXIT_USAGE
        assert out == "" and err


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv,code,prefix",
    [
        ([], EXIT_USAGE, "memchan: error: "),
        (["--help"], EXIT_OK, None),
        (["sweep", "-h"], EXIT_OK, None),
        (["sweep", "bogus", "0:1:2", "0:1:2", "0:0:1"], EXIT_USAGE, "memchan sweep: error: "),
        (["threshold", "ad", "x", "1e-3"], EXIT_USAGE, "memchan threshold: error: "),
        (["inequality"], EXIT_USAGE, "memchan inequality: error: "),
    ],
)
def test_main_returns_every_exit_code(capsys, argv, code, prefix):
    # argparse's own errors and --help leave as a return value, not SystemExit
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    if prefix is not None:
        assert out == ""
        assert err.startswith("usage: memchan")
        assert err.splitlines()[-1].startswith(prefix)


def _channel_choices(command):
    commands = next(a for a in cli._build_parser()._actions if a.dest == "command")
    return next(a.choices for a in commands.choices[command]._actions if a.dest == "channel")


@pytest.mark.parametrize("family", sorted(channels.FAMILIES))
def test_cli_channel_is_the_library_family_id(capsys, monkeypatch, family):
    assert sorted(channels.FAMILIES) == ["ad", "dephasing", "dp"]
    assert _channel_choices("sweep") == _channel_choices("threshold") == sorted(channels.FAMILIES)
    received = []
    i2_grid, threshold_numeric = capacity.i2_grid, capacity.threshold_numeric

    def recording_grid(family, *grid):
        received.append(family)
        return i2_grid(family, *grid)

    def recording_threshold(family, *args):
        received.append(family)
        return threshold_numeric(family, *args)

    monkeypatch.setattr(capacity, "i2_grid", recording_grid)
    monkeypatch.setattr(capacity, "threshold_numeric", recording_threshold)
    code, out, _ = run_cli(capsys, "sweep", family, "0:1:2", "0:0.5:2", "0:0:1")
    assert code == EXIT_OK
    assert {row.split(",")[0] for row in out.splitlines()[1:]} == {received[-1]} == {family}
    code, out, _ = run_cli(capsys, "threshold", family, "0.5", "1e-3")
    assert code == EXIT_OK
    assert json.loads(out)["channel"] == received[-1] == family


@pytest.mark.parametrize(
    "argv,message",
    [
        (["threshold", "ad", "0.6", "-1e-3"], "tol must be positive and finite, got -0.001"),
        (["threshold", "ad", "-inf", "1e-3"], "chi must lie in [0.0, 1.5707963267948966], got -inf"),
        (
            ["sweep", "ad", "-0.5:1:2", "0:1:2", "0:0:1"],
            "mu_spec: range [-0.5, 1.0] lies outside [0.0, 1.0]",
        ),
    ],
)
def test_value_starting_with_minus_is_named(capsys, argv, message):
    # argparse alone reads these tokens as unknown options and reports a
    # missing argument; cli makes every subcommand read them as values
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"memchan {argv[0]}: error: {message}\n"


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
        return channels.KrausSet((e00, e11))

    monkeypatch.setattr(channels, "ad_correlated_kraus2", corrupted)
    code, out, _ = run_cli(capsys, "verify")
    assert code == EXIT_VERIFY_FAIL
    report = json.loads(out)
    assert report["overall"] is False
    by_name = {s["name"]: s for s in report["sections"]}
    assert by_name["cptp_constructors"]["pass"] is False


def test_verify_detects_wrong_mixing_weights(capsys, monkeypatch):
    # weights 1 - mu and mu instead of their square roots leave both branches
    # intact, so only the one interior mixture per grid point can see it
    def linear_weights(unc, cor, mu):
        ops = tuple((1.0 - mu) * op for op in unc.ops) + tuple(mu * op for op in cor.ops)
        return channels.KrausSet(ops)

    monkeypatch.setattr(channels, "memory_channel", linear_weights)
    code, out, _ = run_cli(capsys, "verify")
    assert code == EXIT_VERIFY_FAIL
    by_name = {s["name"]: s for s in json.loads(out)["sections"]}
    assert by_name["cptp_constructors"]["pass"] is False
    assert [name for name, s in by_name.items() if not s["pass"]] == ["cptp_constructors"]


def test_cptp_section_builds_one_mixture_per_grid_point(monkeypatch):
    # the branch bound covers every mu, so no mu grid of mixtures is built, and
    # the one mixture per node and family reuses the bound's branches
    built, branched = [], []
    mix, branches = channels.memory_channel, channels.memory_branches

    def counting(unc, cor, mu):
        built.append(mu)
        return mix(unc, cor, mu)

    def counting_branches(family, param):
        branched.append(family)
        return branches(family, param)

    monkeypatch.setattr(channels, "memory_channel", counting)
    monkeypatch.setattr(channels, "memory_branches", counting_branches)
    assert cli.check_cptp_constructors().passed
    assert built == [cli.MIXTURE_CHECK_MU] * (3 * 3)
    assert sorted(branched) == sorted(list(channels.FAMILIES) * 3)


CERTIFICATE_NODES = (0.0, 0.5, 1.0)


def _lagrange_basis(x, nodes=CERTIFICATE_NODES):
    """The Lagrange basis l_k(x) of nodes, for a number or an array x."""
    return [np.prod([(x - m) / (n - m) for m in nodes if m != n], axis=0) for n in nodes]


def _cptp_section_sets(x):
    """Every Kraus set that verify's CPTP section checks, at u = cos^2 chi = x
    for damping and at p = x for the Pauli families."""
    chi = math.acos(math.sqrt(x))
    sets = {"damping": channels.amplitude_damping_kraus(chi)}
    for family, name in channels.FAMILIES.items():
        unc, cor = channels.memory_branches(family, chi if name == "chi" else x)
        mixture = channels.memory_channel(unc, cor, cli.MIXTURE_CHECK_MU)
        sets.update({f"{family}-unc": unc, f"{family}-cor": cor, f"{family}-mixture": mixture})
    return sets


def _residual_matrix(kraus):
    return np.einsum("kji,kjl->il", kraus.ops.conj(), kraus.ops) - np.eye(kraus.dim)


@pytest.mark.parametrize("x", [0.25, 0.75])
def test_cptp_residuals_equal_their_three_node_interpolant(x):
    # the CPTP section's certificate is exact only given this degree: every
    # residual matrix is a polynomial of degree <= 2 in u or p, so it equals its
    # interpolant through the three nodes at any other point
    at_nodes = [_cptp_section_sets(node) for node in CERTIFICATE_NODES]
    for name, kraus in _cptp_section_sets(x).items():
        interpolant = sum(
            weight * _residual_matrix(sets[name])
            for weight, sets in zip(_lagrange_basis(x), at_nodes)
        )
        assert np.abs(_residual_matrix(kraus) - interpolant).max() <= 1e-14, name


def test_lebesgue_constant_of_the_certificate_nodes():
    x = np.linspace(0.0, 1.0, 10001)
    lebesgue = np.sum(np.abs(_lagrange_basis(x)), axis=0).max()
    assert abs(lebesgue - cli.LEBESGUE_3) <= 1e-9


EQUIVALENCE_NODES = (0.0, 1.0, 5.0)  # the times the Kraus/Lindblad certificate interpolates


def _equivalence_transfers(t):
    """Each transfer the two Kraus/Lindblad sections compare, at rate 1 and
    time t, with its variable: c = exp(-t/2) for damping, e = exp(-t) for dephasing."""
    c, e = math.exp(-t / 2), math.exp(-t)
    p, chi = lindblad.dephasing_flip_probability(1.0, t), lindblad.damping_angle(1.0, t)
    unc_spec = lindblad.dephasing_uncorrelated_spec(1.0)
    return {
        "damping-spectral": (c, lindblad.spectral_matrix(lindblad.catalog_ad_correlated(1.0), t)),
        "damping-kraus": (c, channels.ad_correlated_kraus2(chi).transfer),
        "dephasing-spectral": (
            e, lindblad.spectral_matrix(lindblad.catalog_dephasing_correlated(1.0), t)
        ),
        "dephasing-kraus": (e, channels.dephasing_correlated_kraus(p).transfer),
        "uncorrelated-exponential": (e, lindblad.exponential_matrix(unc_spec, t)),
        "uncorrelated-kraus": (e, channels.dephasing_uncorrelated_kraus(p).transfer),
    }


@pytest.mark.parametrize("t", [0.25, 3.0, 12.0])
def test_equivalence_transfers_equal_their_three_time_interpolant(t):
    # the Kraus/Lindblad certificate is exact only given this degree: every
    # transfer is a polynomial of degree <= 2 in c or e, so it equals its
    # interpolant through t = 0, 1, 5 at any other time
    assert set(EQUIVALENCE_NODES) <= set(cli.EQUIVALENCE_TIMES)
    at_nodes = [_equivalence_transfers(node) for node in EQUIVALENCE_NODES]
    for name, (x, transfer) in _equivalence_transfers(t).items():
        basis = _lagrange_basis(x, [transfers[name][0] for transfers in at_nodes])
        interpolant = sum(weight * transfers[name][1] for weight, transfers in zip(basis, at_nodes))
        assert np.abs(transfer - interpolant).max() <= 1e-14, name


@pytest.mark.parametrize("exponent, constant", [(0.5, 1.7956), (1.0, 1.5570)], ids=["c", "e"])
def test_lebesgue_constant_of_the_equivalence_times(exponent, constant):
    # c = exp(-t/2) and e = exp(-t) at t = 0, 1, 5, on all of [0, 1]: every t >= 0
    x = np.linspace(0.0, 1.0, 10001)
    nodes = [math.exp(-exponent * t) for t in EQUIVALENCE_NODES]
    lebesgue = np.sum(np.abs(_lagrange_basis(x, nodes)), axis=0).max()
    assert abs(lebesgue - constant) <= 1e-4
    assert lebesgue <= cli.EQUIVALENCE_LEBESGUE


def test_verify_makes_no_linear_solve(capsys, monkeypatch):
    # the catalogs' duals are closed forms and the diagonal dephasing generator's
    # exponential takes no solve, so LAPACK's inverse is never paged in
    solves = []
    solve_linear = linalg.solve_linear
    monkeypatch.setattr(linalg, "solve_linear", lambda *a: solves.append(1) or solve_linear(*a))
    monkeypatch.setattr(np.linalg, "inv", lambda a: pytest.fail("np.linalg.inv called"))
    code, _, _ = run_cli(capsys, "verify")
    assert code == EXIT_OK
    assert solves == []


def _flip_r01_minus_dual(lefts):
    lefts = lefts.copy()
    lefts[lindblad.LABELS.index("R01-")] *= -1.0
    return lefts


@pytest.mark.parametrize(
    "target, mutate",
    [
        (
            "EigenoperatorCatalog",
            lambda catalog: lambda r, e, lefts: catalog(r, e, _flip_r01_minus_dual(lefts)),
        ),
        ("_catalog", lambda catalog: lambda r00, l00, l33, **lam: catalog(r00, l33, l00, **lam)),
    ],
    ids=["r01_minus_sign", "l00_l33_swapped"],
)
def test_verify_fails_duality_for_a_wrong_closed_form_dual(capsys, monkeypatch, target, mutate):
    # the catalog refuses the wrong duals, so every section that builds one
    # fails to run, duality among them; the sections that build none still pass
    monkeypatch.setattr(lindblad, target, mutate(getattr(lindblad, target)))
    code, out, err = run_cli(capsys, "verify")
    assert code == EXIT_VERIFY_FAIL
    passed = {s["name"]: s["pass"] for s in json.loads(out)["sections"]}
    assert passed["duality"] is False
    assert "verification check duality failed to run: duality residual" in err
    catalog_sections = {"lindblad_eigenoperators", "duality", "kraus_lindblad_equivalence"}
    assert {name for name, ok in passed.items() if not ok} == catalog_sections


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "ad", "0:1:3", "0:1.5:3", "0:0.785398:2"),
        ("sweep", "dp", "0:1:3", "0:1:3", "0:0.785398:2"),
        ("sweep", "dephasing", "0:1:3", "0:1:3", "0:0.785398:2"),
        ("verify",),
    ],
    ids=["sweep-ad", "sweep-dp", "sweep-dephasing", "verify"],
)
def test_every_eigensolve_is_real_symmetric(capsys, monkeypatch, argv):
    # the three families' transfers and the theta-ensemble states are built
    # float64, so every stack reaches eigvalsh real: the complex solver's code
    # is never paged in (test_every_command_builds_real_arrays pins the builds)
    dtypes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: dtypes.append(a.dtype) or eigvalsh(a))
    code, _, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert dtypes and set(dtypes) == {np.dtype(np.float64)}


@pytest.mark.parametrize("argv", list(page_probe.COMMANDS.values()), ids=list(page_probe.COMMANDS))
def test_every_command_builds_real_arrays(capsys, monkeypatch, argv):
    # the three families' data are real, so every array memchan builds for a
    # command is float64 and no command runs one of numpy's complex loops
    dtypes = {}

    def record(cls, method, *names):
        original = getattr(cls, method)

        def wrapped(self, *args, **kwargs):
            original(self, *args, **kwargs)
            for name in names:
                dtypes.setdefault(f"{cls.__name__}.{name}", set()).add(getattr(self, name).dtype)
        monkeypatch.setattr(cls, method, wrapped)

    record(channels.KrausSet, "__init__", "ops")
    record(channels.DensityMatrix, "__init__", "mat")
    record(lindblad.LindbladSpec, "__init__", "jumps")
    record(lindblad.EigenoperatorCatalog, "__init__", "rights", "eigenvalues", "lefts")
    record(capacity.I2Kernel, "__init__", "_unc", "_cor", "_stack")
    code, _, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert "KrausSet.ops" in dtypes and "I2Kernel._stack" in dtypes
    assert {name: kinds for name, kinds in dtypes.items() if kinds != {np.dtype(np.float64)}} == {}


def test_verify_stdout_is_byte_identical_run_to_run(capsys):
    first = run_cli(capsys, "verify")
    second = run_cli(capsys, "verify")
    assert first[0] == second[0] == EXIT_OK
    assert first[1] == second[1]


def test_verify_detects_wrong_eigenvalue(capsys, monkeypatch):
    original = lindblad.catalog_ad_correlated

    def broken(alpha):
        cat = original(alpha)
        eigenvalues = np.where(np.array(lindblad.LABELS) == "R33", 0.0, cat.eigenvalues)
        return lindblad.EigenoperatorCatalog(cat.rights, eigenvalues, cat.lefts)

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


OPENBLAS_PAGE_BUDGET_KB = 64


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="needs /proc/self/smaps")
@pytest.mark.parametrize("argv", list(page_probe.COMMANDS.values()), ids=list(page_probe.COMMANDS))
def test_every_command_pages_in_no_openblas_code(argv):
    # past the calibration eigvalsh, a command may only use numpy's own loops and
    # BLAS's 1-D norms: a BLAS-3 product (@, dot, einsum with optimize=True) or a
    # LAPACK routine other than eigvalsh pages in a few hundred KB of OpenBLAS code,
    # which rss_peak_mb counts.  One fresh process per command, as nothing unloads.
    src = Path(memchan.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, page_probe.__file__, *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    report = json.loads(proc.stdout)
    if report["kb"]["openblas"] is None:
        pytest.skip("numpy maps no OpenBLAS library here")
    code, (before, after) = report["code"], report["kb"]["openblas"]
    assert code == EXIT_OK
    assert after - before < OPENBLAS_PAGE_BUDGET_KB, f"{after - before} KB of OpenBLAS paged in"


def _numpy_call(frame, event, arg):
    """The numpy routine a profiler event calls, when it is a boolean reduction
    (logical_and/or.reduce, behind .all(), .any() and np.all/np.any), np.kron or
    np.array_equal; else None."""
    owner = getattr(arg, "__self__", None)
    if event == "c_call" and arg.__name__ == "reduce" and (
        owner is np.logical_and or owner is np.logical_or
    ):
        return f"np.{owner.__name__}.reduce"
    name = frame.f_code.co_name
    if event == "call" and name in ("kron", "array_equal"):
        return f"np.{name}" if frame.f_globals.get("__name__", "").startswith("numpy") else None
    return None


def _memchan_caller(frame) -> str:
    """'function:line' of the innermost memchan frame at or above frame."""
    while not frame.f_globals.get("__name__", "").startswith("memchan"):
        frame = frame.f_back
    return f"{frame.f_code.co_name}:{frame.f_lineno}"


@pytest.mark.parametrize("argv", list(page_probe.COMMANDS.values()), ids=list(page_probe.COMMANDS))
def test_no_command_runs_a_boolean_reduction(capsys, argv):
    # every gate reduces its array to one float by a NaN-propagating max or min
    # (linalg.worst, linalg.finite), and every tensor product is an einsum, so no
    # command pages in the code of numpy's boolean reductions or of np.kron
    seen = []

    def profile(frame, event, arg):
        if (call := _numpy_call(frame, event, arg)) is not None:
            seen.append((call, _memchan_caller(frame)))

    sys.setprofile(profile)
    try:
        code = cli.main(list(argv))
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert code == EXIT_OK
    assert seen == []


def test_verify_detects_wrong_damping_angle(capsys, monkeypatch):
    # every constructor stays CPTP, so only the Kraus/Lindblad gap can see it
    original = lindblad.damping_angle
    monkeypatch.setattr(lindblad, "damping_angle", lambda a, t: original(a, t) + 1e-6)
    code, out, _ = run_cli(capsys, "verify")
    assert code == EXIT_VERIFY_FAIL
    by_name = {s["name"]: s for s in json.loads(out)["sections"]}
    assert by_name["kraus_lindblad_equivalence"]["pass"] is False
    assert by_name["cptp_constructors"]["pass"] is True


def test_check_section_computes_its_verdict():
    assert cli.CheckSection("s", 1e-10, 1e-10).passed is True
    assert cli.CheckSection("s", 2e-10, 1e-10).passed is False
    assert cli.CheckSection("s", math.nan, 1e-10).passed is False


@pytest.mark.parametrize("residual", [2e-10, math.nan], ids=["above_threshold", "nan"])
def test_verify_reports_a_failing_section(capsys, monkeypatch, residual):
    sections = (
        lambda: cli.CheckSection("good", 0.0, 1e-10),
        lambda: cli.CheckSection("bad", residual, 1e-10),
    )
    monkeypatch.setattr(cli, "VERIFY_CHECKS", sections)
    code, out, _ = run_cli(capsys, "verify")
    assert code == EXIT_VERIFY_FAIL
    report = json.loads(out)
    assert [s["pass"] for s in report["sections"]] == [True, False]
    assert report["overall"] is False


def _nan_after_first_call(original):
    # a NaN from every call but the first, so that a max() which keeps an
    # earlier value against a later NaN would report a pass
    calls = []

    def patched(*args):
        calls.append(args)
        return original(*args) if len(calls) == 1 else math.nan

    return patched


@pytest.mark.parametrize(
    "check, module, name, with_nan",
    [
        (cli.check_cptp_constructors, channels, "check_cptp", _nan_after_first_call),
        (
            cli.check_eigenoperators,
            lindblad,
            "verify_eigen",
            lambda original: lambda spec, cat: original(spec, cat) + [math.nan],
        ),
        (cli.check_kraus_lindblad, lindblad, "kraus_equivalence", _nan_after_first_call),
        (cli.check_uncorrelated_dephasing, lindblad, "exponential_matrix", _nan_after_first_call),
        (
            cli.check_closed_forms,
            capacity,
            "i2_ad_closed",
            lambda original: lambda *point: (math.nan, None),
        ),
    ],
    ids=["cptp", "eigenoperators", "kraus_lindblad", "uncorrelated_dephasing", "closed_forms"],
)
def test_verify_sections_keep_a_nan_residual(monkeypatch, check, module, name, with_nan):
    monkeypatch.setattr(module, name, with_nan(getattr(module, name)))
    section = check()
    assert math.isnan(section.max_residual)
    assert section.passed is False


def test_nan_kraus_operator_fails_verify(capsys, monkeypatch):
    original = channels.ad_correlated_kraus2

    def with_nan(chi):
        e00, e11 = (op.copy() for op in original(chi).ops)
        e11[3, 0] = math.nan
        return channels.KrausSet((e00, e11))

    monkeypatch.setattr(channels, "ad_correlated_kraus2", with_nan)
    for check in (cli.check_cptp_constructors, cli.check_kraus_lindblad):
        with pytest.raises(ValueError, match="non-finite"):
            check()
    with pytest.raises(ValueError, match="non-finite"):
        channels.memory_branch_bound(channels.AMPLITUDE_DAMPING, 0.5)
    code, out, err = run_cli(capsys, "verify")
    assert code == EXIT_VERIFY_FAIL
    # every check runs: the three that raise are failed entries with NaN
    # residuals, named on stderr, and the other three pass
    report = json.loads(out)
    assert [(s["name"], s["pass"]) for s in report["sections"]] == [
        ("cptp_constructors", False),
        ("lindblad_eigenoperators", True),
        ("duality", True),
        ("kraus_lindblad_equivalence", False),
        ("uncorrelated_dephasing_generator", True),
        ("closed_form_vs_numeric", False),
    ]
    for section in report["sections"]:
        if not section["pass"]:
            assert math.isnan(section["max_residual"]) and math.isnan(section["threshold"])
            assert f"{section['name']} failed to run" in err
    assert report["overall"] is False
