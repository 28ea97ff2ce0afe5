"""Command-line front end: verification report, I2 sweeps, thresholds, inequality.

Commands
--------
verify
    Run the full cross-validation suite (CPTP completeness, eigenoperator
    residuals, duality, Kraus/Lindblad agreement, closed-form vs numeric I2)
    and print one JSON report; exit 0 only if every section passes.
sweep CHANNEL MU_SPEC PARAM_SPEC THETA_SPEC [--out PATH]
    CSV of numeric (and, where available, closed-form) I2 over a grid.
    Range specs are lo:hi:count; count = 1 selects the single point lo.
threshold CHANNEL PARAM TOL
    JSON with the bisected memory threshold mu_t; when it is null, a
    "reason" key says why: edge, below_noise_floor or none.
inequality GRID_COUNT
    CSV comparing full-memory and no-memory I2 for product inputs over chi.

CHANNEL is a family id of channels: ad (amplitude damping, param = chi),
dephasing and dp (depolarizing), param = p.  Angles are radians.  main returns
every exit code: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from typing import NamedTuple

import numpy as np

from . import capacity, channels, linalg, lindblad

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

EQUIVALENCE_TIMES = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0)
EQUIVALENCE_LEBESGUE = 1.8  # >= 1.7956 and 1.5570, c's and e's on [0, 1] at t = 0, 1, 5
MIXTURE_CHECK_MU = 0.35  # interior memory degree of verify's one mixture per node
LEBESGUE_3 = 1.25  # Lebesgue constant of the nodes 0, 1/2, 1 on [0, 1]
SWEEP_HEADER = "channel,mu,param,theta,i2_numeric,i2_closed,delta"
VALUE_TOKEN = re.compile("^-[^-]")
# Most grid points per command (a sweep's mu x param x theta, grid_count): 46603
MAX_GRID_POINTS = 2**28 // capacity.I2_BYTES_PER_POINT


class UsageError(ValueError):
    """Bad command-line input (maps to exit code 2)."""


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _param_domain(family: str) -> tuple:
    return channels.DOMAINS[channels.FAMILIES[family]]


def parse_range_spec(text: str, name: str, lo_bound: float, hi_bound: float) -> list:
    """Parse lo:hi:count into a list of equally spaced floats."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"{name}: expected lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"{name}: could not parse {text!r} as lo:hi:count")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"{name}: lo and hi must be finite, got {text!r}")
    if not 1 <= count <= MAX_GRID_POINTS:
        raise UsageError(f"{name}: count must lie in [1, {MAX_GRID_POINTS}], got {count}")
    if lo > hi:
        raise UsageError(f"{name}: lo {lo!r} exceeds hi {hi!r}")
    if lo < lo_bound - 1e-12 or hi > hi_bound + 1e-12:
        raise UsageError(
            f"{name}: range [{lo!r}, {hi!r}] lies outside [{lo_bound!r}, {hi_bound!r}]"
        )
    # clamped into the domain, since the slack above may step past it
    lo, hi = (min(max(x, lo_bound), hi_bound) for x in (lo, hi))
    return channels.grid(lo, hi, count)


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

def compute_sweep(family: str, mus: list, params: list, thetas: list) -> tuple:
    """(numeric, closed): I2[mu, param, theta] on a grid, numeric and in closed
    form where the family has one (closed is None for dephasing)."""
    numeric = capacity.i2_grid(family, mus, params, thetas)
    # looked up at call time, so a wrapped or patched closed form is the one used
    form = {channels.AMPLITUDE_DAMPING: capacity.i2_ad_closed,
            channels.DEPOLARIZING: capacity.i2_depolarizing_closed}.get(family)
    closed = None if form is None else np.reshape(
        [form(param, mu, theta)[0] for mu in mus for param in params for theta in thetas],
        numeric.shape,
    )
    return numeric, closed


def sweep_csv(family: str, mus: list, params: list, thetas: list, numeric, closed, out) -> None:
    """Write a sweep as CSV to a text handle, one row at a time; delta is
    |i2_numeric - i2_closed|, and both closed-form columns are empty without one.
    Each axis value is formatted once."""
    mus, params, thetas = ([_fmt(x) for x in axis] for axis in (mus, params, thetas))
    out.write(SWEEP_HEADER + "\n")
    for (i, j, k), value in np.ndenumerate(numeric):
        tail = ","
        if closed is not None:
            tail = f"{_fmt(closed[i, j, k])},{_fmt(abs(value - closed[i, j, k]))}"
        out.write(f"{family},{mus[i]},{params[j]},{thetas[k]},{_fmt(value)},{tail}\n")


def cmd_sweep(args) -> int:
    lo, hi = _param_domain(args.channel)
    mus = parse_range_spec(args.mu_spec, "mu_spec", *channels.DOMAINS["mu"])
    params = parse_range_spec(args.param_spec, "param_spec", lo, hi)
    thetas = parse_range_spec(args.theta_spec, "theta_spec", *channels.DOMAINS["theta"])
    if (points := len(mus) * len(params) * len(thetas)) > MAX_GRID_POINTS:
        raise UsageError(f"grid of {points} points exceeds the limit of {MAX_GRID_POINTS}")
    # every value is computed before any output opens, so a failure writes nothing
    grid = (args.channel, mus, params, thetas)
    numeric, closed = compute_sweep(*grid)
    if args.out is None:
        sweep_csv(*grid, numeric, closed, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            sweep_csv(*grid, numeric, closed, fh)
    return EXIT_OK


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

class CheckSection(NamedTuple):
    """One verify section: its worst residual and the threshold it must meet."""

    name: str
    max_residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.threshold  # False for a NaN residual


def _section(name: str, threshold: float):
    """Turn a function returning a worst residual into the verify check that returns
    CheckSection(name, residual, threshold); cmd_verify names a raising one by `.section`."""
    def decorate(worst):
        @functools.wraps(worst)
        def check() -> CheckSection:
            return CheckSection(name, worst(), threshold)
        check.section = name
        return check
    return decorate


@_section("cptp_constructors", 1e-12)
def check_cptp_constructors():
    """Completeness, a Kraus form's whole CPTP check, at every parameter from
    three nodes: each residual sum_k K*K - I has degree <= 2 in u = cos^2 chi
    (damping) or p (Pauli families), so LEBESGUE_3 times its worst norm at
    u, p = 0, 1/2, 1 bounds it on [0, 1].  Per node: the damping set, each
    family's branch bound (all mu in [0, 1]) and one mixture of its branches
    at MIXTURE_CHECK_MU, which a wrong mixing rule fails.
    """
    residuals = [
        channels.check_cptp(channels.amplitude_damping_kraus(chi))
        for chi in channels.grid(*channels.DOMAINS["chi"], 3)
    ]
    for family, name in channels.FAMILIES.items():
        for param in channels.grid(*channels.DOMAINS[name], 3):
            bound, branches = channels.memory_branch_bound(family, param)
            mixture = channels.memory_channel(*branches, MIXTURE_CHECK_MU)
            residuals += [bound, channels.check_cptp(mixture)]
    return LEBESGUE_3 * linalg.worst(residuals)


def _correlated_pairs() -> tuple:
    """Correlated dephasing's and damping's (spec, catalog) at rate 1.0, built at call
    time; one rate covers all, as rights and lefts do not depend on the rate."""
    return (
        (lindblad.dephasing_correlated_spec(1.0), lindblad.catalog_dephasing_correlated(1.0)),
        (lindblad.ad_correlated_spec(1.0), lindblad.catalog_ad_correlated(1.0)),
    )


@_section("lindblad_eigenoperators", 1e-12)
def check_eigenoperators():
    """||L(R_i) - lambda_i R_i|| for both catalogs at rate 1.0, which covers every
    rate: each residual is the rate times its value at rate 1 (verify_eigen)."""
    return linalg.worst([r for pair in _correlated_pairs() for r in lindblad.verify_eigen(*pair)])


@_section("duality", 1e-10)
def check_duality():
    """Max |tr(L_i R_j) - delta_ij| of both catalogs' left duals at rate 1.0, which
    covers every rate: neither rights nor lefts depend on it, so neither does this."""
    return linalg.worst([lindblad.duality_residual(cat) for _, cat in _correlated_pairs()])


@_section("kraus_lindblad_equivalence", 1e-10)
def check_kraus_lindblad():
    """Exact transfer-matrix gap between spectral evolution and the correlated Kraus
    channels, for every input state, t >= 0 and rate: each transfer has degree <= 2 in
    c = exp(-alpha t / 2) or e = exp(-Gamma t), and only rate x time enters, so
    EQUIVALENCE_LEBESGUE times the worst gap at EQUIVALENCE_TIMES bounds it."""
    pairs = _correlated_pairs()
    residuals = []
    for t in EQUIVALENCE_TIMES:
        p, chi = lindblad.dephasing_flip_probability(1.0, t), lindblad.damping_angle(1.0, t)
        krauses = (channels.dephasing_correlated_kraus(p), channels.ad_correlated_kraus2(chi))
        residuals += [
            lindblad.kraus_equivalence(lindblad.spectral_matrix(cat, t), kraus)
            for (_, cat), kraus in zip(pairs, krauses)
        ]
    return EQUIVALENCE_LEBESGUE * linalg.worst(residuals)


@_section("uncorrelated_dephasing_generator", 1e-10)
def check_uncorrelated_dephasing():
    """Exact transfer-matrix gap between the exponentiated two-jump generator
    (lindblad.exponential_matrix) and the uncorrelated dephasing Kraus set, certified
    like check_kraus_lindblad: both have degree <= 2 in e, and only rate x time enters."""
    spec = lindblad.dephasing_uncorrelated_spec(1.0)
    residuals = [
        lindblad.kraus_equivalence(
            lindblad.exponential_matrix(spec, t),
            channels.dephasing_uncorrelated_kraus(lindblad.dephasing_flip_probability(1.0, t)),
        )
        for t in EQUIVALENCE_TIMES
    ]
    return EQUIVALENCE_LEBESGUE * linalg.worst(residuals)


@_section("closed_form_vs_numeric", 1e-9)
def check_closed_forms():
    """Closed-form I2 vs the numeric pipeline on 11 x 11 x 5 grids."""
    mus = channels.grid(*channels.DOMAINS["mu"], 11)
    thetas = channels.grid(*channels.DOMAINS["theta"], 5)
    residuals = []
    for family in (channels.AMPLITUDE_DAMPING, channels.DEPOLARIZING):
        params = channels.grid(*_param_domain(family), 11)
        numeric, closed = compute_sweep(family, mus, params, thetas)
        residuals.append(np.abs(numeric - closed).max())
    return linalg.worst(residuals)


VERIFY_CHECKS = (
    check_cptp_constructors,
    check_eigenoperators,
    check_duality,
    check_kraus_lindblad,
    check_uncorrelated_dephasing,
    check_closed_forms,
)


def cmd_verify(args) -> int:
    sections = []
    for fn in VERIFY_CHECKS:
        try:
            sections.append(fn())
        except Exception as exc:  # a failed entry, named on stderr; the others still run
            print(f"verification check {fn.section} failed to run: {exc}", file=sys.stderr)
            sections.append(CheckSection(fn.section, math.nan, math.nan))
    overall = all(section.passed for section in sections)
    report = {
        "sections": [{**section._asdict(), "pass": section.passed} for section in sections],
        "overall": overall,
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK if overall else EXIT_VERIFY_FAIL


# ----------------------------------------------------------------------
# threshold / inequality
# ----------------------------------------------------------------------

def cmd_threshold(args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise UsageError(f"tol must be positive and finite, got {args.tol!r}")
    try:
        channels._check_range(channels.FAMILIES[args.channel], args.param)
    except ValueError as exc:
        raise UsageError(str(exc))
    result = capacity.threshold_numeric(args.channel, args.param, args.tol)
    payload = {"channel": args.channel, "param": args.param, **result._asdict()}
    if result.mu_t is not None:
        del payload["reason"]
    print(json.dumps(payload))
    return EXIT_OK


def cmd_inequality(args) -> int:
    if not 2 <= args.grid_count <= MAX_GRID_POINTS:
        raise UsageError(f"grid_count must lie in [2, {MAX_GRID_POINTS}], got {args.grid_count}")
    chis = channels.grid(*channels.DOMAINS["chi"], args.grid_count)
    rows = capacity.product_memory_inequality(chis)
    lines = ["chi,i2_mu1,i2_mu0,holds"]
    for chi, lhs, rhs, holds in rows:
        lines.append(f"{_fmt(chi)},{_fmt(lhs)},{_fmt(rhs)},{'true' if holds else 'false'}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memchan",
        description="Correlated two-use qubit channels: verification and capacity analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the cross-validation suite")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="CSV sweep of I2 over a parameter grid")
    p_sweep.add_argument("channel", choices=sorted(channels.FAMILIES))
    p_sweep.add_argument("mu_spec", help="memory degree range lo:hi:count")
    p_sweep.add_argument("param_spec", help="chi (ad) or p range lo:hi:count")
    p_sweep.add_argument("theta_spec", help="input angle range lo:hi:count")
    p_sweep.add_argument("--out", default=None, help="output path (default: stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_threshold = sub.add_parser("threshold", help="bisect the memory threshold mu_t")
    p_threshold.add_argument("channel", choices=sorted(channels.FAMILIES))
    p_threshold.add_argument("param", type=float, help="chi (ad) or p")
    p_threshold.add_argument("tol", type=float, help="bisection bracket width")
    p_threshold.set_defaults(func=cmd_threshold)

    p_inequality = sub.add_parser(
        "inequality", help="full-memory vs no-memory I2 for product inputs"
    )
    p_inequality.add_argument("grid_count", type=int, help="number of chi grid points")
    p_inequality.set_defaults(func=cmd_inequality)
    # a token that starts with one "-" and is no option is a value (-1e-3, -inf) for
    # memchan's checks to name; set after -h is added, so that -h stays an option
    for command in sub.choices.values():
        command._negative_number_matcher = VALUE_TOKEN
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed --help (0) or its usage error (2)
        return exc.code
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"{parser.prog} {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
