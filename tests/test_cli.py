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
from memchan import capacity, channels, cli, lindblad
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
        ("sweep", "dephasing", "0:1:28", "0:1:863", "0:0:1"),
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
    assert 27 * 863 == n  # one mu count more (28 x 863) is refused above

    class Reached(Exception):
        pass

    def reached(tag, mus, params, thetas):
        raise Reached(len(mus) * len(params) * len(thetas))

    monkeypatch.setattr(cli, "compute_sweep", reached)
    with pytest.raises(Reached, match=f"^{n}$"):
        cli.main(["sweep", "dephasing", "0:1:27", "0:1:863", "0:0:1"])


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
        in_domain(channels.FAMILIES[cli.CHANNEL_TAGS[tag]], payload["param"])
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
        in_domain(channels.FAMILIES[cli.CHANNEL_TAGS[tag]], float(param))
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
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse refuses a token it cannot convert
        code = exc.code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if code == EXIT_OK:
        _check_answer(argv, out)
    else:
        assert code == EXIT_USAGE
        assert out == "" and err


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
    # the branch bound covers every mu, so no mu grid of mixtures is built
    built = []
    original = channels.build_memory_channel

    def counting(params):
        built.append(params.mu)
        return original(params)

    monkeypatch.setattr(channels, "build_memory_channel", counting)
    assert cli.check_cptp_constructors().passed
    assert built == [cli.MIXTURE_CHECK_MU] * (21 * 3)


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
    # the three families' transfers and the theta-ensemble states are exactly
    # real, so no complex stack reaches eigvalsh: the complex solver's code
    # is never paged in
    dtypes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: dtypes.append(a.dtype) or eigvalsh(a))
    code, _, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert dtypes and set(dtypes) == {np.dtype(np.float64)}


def test_verify_stdout_is_byte_identical_run_to_run(capsys):
    first = run_cli(capsys, "verify")
    second = run_cli(capsys, "verify")
    assert first[0] == second[0] == EXIT_OK
    assert first[1] == second[1]


def test_verify_detects_wrong_eigenvalue(capsys, monkeypatch):
    from dataclasses import replace

    original = lindblad.catalog_ad_correlated

    def broken(alpha):
        cat = original(alpha)
        eigenvalues = np.where(np.array(lindblad.LABELS) == "R33", 0.0, cat.eigenvalues)
        return replace(cat, eigenvalues=eigenvalues)

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
    assert out == ""
    assert "check_cptp_constructors failed to run" in err
