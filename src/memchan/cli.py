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

Channel tags: ad (amplitude damping, param = chi), dephasing (param = p),
dp (depolarizing, param = p).  Angles are radians.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import capacity, channels, lindblad

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

CHANNEL_TAGS = {
    "ad": channels.AMPLITUDE_DAMPING,
    "dephasing": channels.DEPHASING,
    "dp": channels.DEPOLARIZING,
}

EQUIVALENCE_TIMES = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0)
MIXTURE_CHECK_MU = 0.35  # interior memory degree of verify's one mixture per point
SWEEP_HEADER = "channel,mu,param,theta,i2_numeric,i2_closed,delta"
# Most grid points per command (a sweep's mu x param x theta, grid_count): per point
# the I2 kernel keeps at most 2x16x16 branch transfer, 2x4x16 branch output and 5x16
# slice buffer entries.  The outputs and the buffer are float64 (8 bytes) for the
# three families, whose transfers are exactly real; at 16 bytes for every entry, the
# complex worst case, 256 MiB holds 23301 points.
MAX_GRID_POINTS = 2**28 // ((2 * 16 * 16 + 2 * 4 * 16 + 5 * 16) * 16)


class UsageError(ValueError):
    """Bad command-line input (maps to exit code 2)."""


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _param_domain(tag: str) -> tuple:
    return channels.DOMAINS[channels.FAMILIES[CHANNEL_TAGS[tag]]]


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

def compute_sweep(tag: str, mus: list, params: list, thetas: list) -> tuple:
    """(numeric, closed): I2[mu, param, theta] on a grid, numeric and in closed
    form where the family has one (closed is None for dephasing)."""
    numeric = capacity.i2_grid(CHANNEL_TAGS[tag], mus, params, thetas)
    # looked up at call time, so a wrapped or patched closed form is the one used
    form = {"ad": capacity.i2_ad_closed, "dp": capacity.i2_depolarizing_closed}.get(tag)
    closed = None if form is None else np.reshape(
        [form(param, mu, theta)[0] for mu in mus for param in params for theta in thetas],
        numeric.shape,
    )
    return numeric, closed


def sweep_csv(tag: str, mus: list, params: list, thetas: list, numeric, closed, out) -> None:
    """Write a sweep as CSV to a text handle, one row at a time; delta is
    |i2_numeric - i2_closed|, and both closed-form columns are empty without one.
    Each axis value is formatted once."""
    mus, params, thetas = ([_fmt(x) for x in axis] for axis in (mus, params, thetas))
    out.write(SWEEP_HEADER + "\n")
    for (i, j, k), value in np.ndenumerate(numeric):
        tail = ","
        if closed is not None:
            tail = f"{_fmt(closed[i, j, k])},{_fmt(abs(value - closed[i, j, k]))}"
        out.write(f"{tag},{mus[i]},{params[j]},{thetas[k]},{_fmt(value)},{tail}\n")


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

@dataclass(frozen=True)
class CheckSection:
    """One verify section: its worst residual and the threshold it must meet."""

    name: str
    max_residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.threshold  # False for a NaN residual


def _worst(residuals: list) -> float:
    """The largest residual, NaN when any is NaN; Python's max() would keep
    an earlier value against a later NaN and so hide a broken check."""
    return float(np.max(residuals))


def check_cptp_constructors() -> CheckSection:
    """Completeness residuals on a 21-point parameter grid.  A Kraus form is
    CP by construction, so completeness is the whole CPTP check.

    Per grid point: the single-qubit damping set; for each memory family the
    branch bound (channels.memory_branch_bound), which covers every memory
    degree mu in [0, 1] at once; and one mixture at MIXTURE_CHECK_MU built by
    build_memory_channel, so that a wrong mixing rule fails the section too.
    """
    grids = {name: channels.grid(*domain, 21) for name, domain in channels.DOMAINS.items()}
    residuals = []
    for i, chi in enumerate(grids["chi"]):
        residuals.append(channels.check_cptp(channels.amplitude_damping_kraus(chi)))
        for family, name in channels.FAMILIES.items():
            param = grids[name][i]
            bound, _ = channels.memory_branch_bound(family, param)
            mixture = channels.build_memory_channel(
                channels.ChannelParams.for_family(family, param, MIXTURE_CHECK_MU)
            )
            residuals += [bound, channels.check_cptp(mixture)]
    return CheckSection("cptp_constructors", _worst(residuals), 1e-12)


def check_eigenoperators() -> CheckSection:
    """||L(R_i) - lambda_i R_i|| for both catalogs at two rates."""
    residuals = []
    for rate in (1.0, 0.7):
        residuals += lindblad.verify_eigen(
            lindblad.dephasing_correlated_spec(rate),
            lindblad.catalog_dephasing_correlated(rate),
        )
        residuals += lindblad.verify_eigen(
            lindblad.ad_correlated_spec(rate),
            lindblad.catalog_ad_correlated(rate),
        )
    return CheckSection("lindblad_eigenoperators", _worst(residuals), 1e-12)


def check_duality() -> CheckSection:
    """Max |tr(L_i R_j) - delta_ij| of both catalogs' left duals, at two rates."""
    residuals = [
        lindblad.duality_residual(cat)
        for rate in (1.0, 0.7)
        for cat in (
            lindblad.catalog_dephasing_correlated(rate),
            lindblad.catalog_ad_correlated(rate),
        )
    ]
    return CheckSection("duality", _worst(residuals), 1e-10)


def check_kraus_lindblad() -> CheckSection:
    """Exact transfer-matrix gap between spectral evolution and the
    correlated Kraus channels, which bounds the gap for every input state."""
    dephasing_cat = lindblad.catalog_dephasing_correlated(1.0)
    damping_cat = lindblad.catalog_ad_correlated(1.0)
    residuals = []
    for t in EQUIVALENCE_TIMES:
        p, chi = lindblad.dephasing_flip_probability(1.0, t), lindblad.damping_angle(1.0, t)
        residuals += [
            lindblad.kraus_equivalence(
                lindblad.spectral_matrix(dephasing_cat, t), channels.dephasing_correlated_kraus(p)
            ),
            lindblad.kraus_equivalence(
                lindblad.spectral_matrix(damping_cat, t), channels.ad_correlated_kraus2(chi)
            ),
        ]
    return CheckSection("kraus_lindblad_equivalence", _worst(residuals), 1e-10)


def check_uncorrelated_dephasing() -> CheckSection:
    """Exact transfer-matrix gap between the exponentiated two-jump generator
    (lindblad.exponential_matrix) and the uncorrelated dephasing Kraus set."""
    spec = lindblad.dephasing_uncorrelated_spec(1.0)
    residuals = [
        lindblad.kraus_equivalence(
            lindblad.exponential_matrix(spec, t),
            channels.dephasing_uncorrelated_kraus(lindblad.dephasing_flip_probability(1.0, t)),
        )
        for t in EQUIVALENCE_TIMES
    ]
    return CheckSection("uncorrelated_dephasing_generator", _worst(residuals), 1e-10)


def check_closed_forms() -> CheckSection:
    """Closed-form I2 vs the numeric pipeline on 11 x 11 x 5 grids."""
    mus = channels.grid(*channels.DOMAINS["mu"], 11)
    thetas = channels.grid(*channels.DOMAINS["theta"], 5)
    residuals = []
    for tag in ("ad", "dp"):
        params = channels.grid(*_param_domain(tag), 11)
        numeric, closed = compute_sweep(tag, mus, params, thetas)
        residuals.append(np.abs(numeric - closed).max())
    return CheckSection("closed_form_vs_numeric", _worst(residuals), 1e-9)


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
        except Exception as exc:  # report the failing check by name
            print(f"verification check {fn.__name__} failed to run: {exc}", file=sys.stderr)
            return EXIT_VERIFY_FAIL
    overall = all(section.passed for section in sections)
    report = {
        "sections": [{**asdict(section), "pass": section.passed} for section in sections],
        "overall": overall,
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK if overall else EXIT_VERIFY_FAIL


# ----------------------------------------------------------------------
# threshold / inequality
# ----------------------------------------------------------------------

def cmd_threshold(args) -> int:
    family = CHANNEL_TAGS[args.channel]
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise UsageError(f"tol must be positive and finite, got {args.tol!r}")
    try:
        channels.ChannelParams.for_family(family, args.param)
    except ValueError as exc:
        raise UsageError(str(exc))
    result = capacity.threshold_numeric(family, args.param, args.tol)
    payload = {
        "channel": args.channel,
        "param": args.param,
        "mu_t": result.mu_t,
        "bracket": list(result.bracket),
        "iterations": result.iterations,
    }
    if result.mu_t is None:
        payload["reason"] = result.reason
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
    p_sweep.add_argument("channel", choices=sorted(CHANNEL_TAGS))
    p_sweep.add_argument("mu_spec", help="memory degree range lo:hi:count")
    p_sweep.add_argument("param_spec", help="chi (ad) or p range lo:hi:count")
    p_sweep.add_argument("theta_spec", help="input angle range lo:hi:count")
    p_sweep.add_argument("--out", default=None, help="output path (default: stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_threshold = sub.add_parser("threshold", help="bisect the memory threshold mu_t")
    p_threshold.add_argument("channel", choices=sorted(CHANNEL_TAGS))
    p_threshold.add_argument("param", type=float, help="chi (ad) or p")
    p_threshold.add_argument("tol", type=float, help="bisection bracket width")
    p_threshold.set_defaults(func=cmd_threshold)

    p_inequality = sub.add_parser(
        "inequality", help="full-memory vs no-memory I2 for product inputs"
    )
    p_inequality.add_argument("grid_count", type=int, help="number of chi grid points")
    p_inequality.set_defaults(func=cmd_inequality)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
