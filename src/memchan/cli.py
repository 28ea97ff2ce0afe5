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
from dataclasses import dataclass

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


class UsageError(ValueError):
    """Bad command-line input (maps to exit code 2)."""


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _param_domain(tag: str) -> tuple:
    return (0.0, math.pi / 2) if tag == "ad" else (0.0, 1.0)


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
    if count < 1:
        raise UsageError(f"{name}: count must be >= 1, got {count}")
    if lo > hi:
        raise UsageError(f"{name}: lo {lo!r} exceeds hi {hi!r}")
    if lo < lo_bound - 1e-12 or hi > hi_bound + 1e-12:
        raise UsageError(
            f"{name}: range [{lo!r}, {hi!r}] lies outside [{lo_bound!r}, {hi_bound!r}]"
        )
    # The end points are exactly lo and hi, clamped into the domain: the slack
    # above, or rounding in lo + (hi - lo) * i / (count - 1), may step past it.
    lo, hi = (min(max(x, lo_bound), hi_bound) for x in (lo, hi))
    if count == 1:
        return [lo]
    return [lo] + [lo + (hi - lo) * i / (count - 1) for i in range(1, count - 1)] + [hi]


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Sweep:
    """I2[mu, param, theta] on a grid: numeric, and closed form where the
    family has one (None for dephasing)."""

    tag: str
    mus: list
    params: list
    thetas: list
    numeric: np.ndarray
    closed: np.ndarray | None


def compute_sweep(tag: str, mus: list, params: list, thetas: list) -> Sweep:
    numeric = capacity.i2_grid(CHANNEL_TAGS[tag], mus, params, thetas)
    # looked up at call time, so a wrapped or patched closed form is the one used
    form = {"ad": capacity.i2_ad_closed, "dp": capacity.i2_depolarizing_closed}.get(tag)
    closed = None if form is None else np.reshape(
        [form(param, mu, theta)[0] for mu in mus for param in params for theta in thetas],
        numeric.shape,
    )
    return Sweep(tag, mus, params, thetas, numeric, closed)


def sweep_csv(sweep: Sweep, out) -> None:
    """Write the sweep as CSV to a text handle, one row at a time; delta is
    |i2_numeric - i2_closed|, and both closed-form columns are empty without one."""
    out.write(SWEEP_HEADER + "\n")
    for (i, j, k), numeric in np.ndenumerate(sweep.numeric):
        tail = ","
        if sweep.closed is not None:
            closed = sweep.closed[i, j, k]
            tail = f"{_fmt(closed)},{_fmt(abs(numeric - closed))}"
        point = (sweep.mus[i], sweep.params[j], sweep.thetas[k], numeric)
        out.write(",".join([sweep.tag, *map(_fmt, point), tail]) + "\n")


def cmd_sweep(args) -> int:
    lo, hi = _param_domain(args.channel)
    mus = parse_range_spec(args.mu_spec, "mu_spec", 0.0, 1.0)
    params = parse_range_spec(args.param_spec, "param_spec", lo, hi)
    thetas = parse_range_spec(args.theta_spec, "theta_spec", 0.0, math.pi / 2)
    # every value is computed before any output opens, so a failure writes nothing
    sweep = compute_sweep(args.channel, mus, params, thetas)
    if args.out is None:
        sweep_csv(sweep, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            sweep_csv(sweep, fh)
    return EXIT_OK


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CheckSection:
    name: str
    max_residual: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    sections: tuple

    @property
    def overall(self) -> bool:
        return all(section.passed for section in self.sections)

    def to_json(self) -> dict:
        return {
            "sections": [
                {
                    "name": s.name,
                    "max_residual": s.max_residual,
                    "threshold": s.threshold,
                    "pass": s.passed,
                }
                for s in self.sections
            ],
            "overall": self.overall,
        }


def _section(name: str, threshold: float, residual: float) -> CheckSection:
    residual = float(residual)
    return CheckSection(name, residual, threshold, residual <= threshold)


def check_cptp_constructors() -> CheckSection:
    """Completeness residuals on a 21-point parameter grid.  A Kraus form is
    CP by construction, so completeness is the whole CPTP check.

    Per grid point: the single-qubit damping set; for each memory family the
    branch bound (channels.memory_branch_bound), which covers every memory
    degree mu in [0, 1] at once; and one mixture at MIXTURE_CHECK_MU built by
    build_memory_channel, so that a wrong mixing rule fails the section too.
    """
    worst = 0.0
    for x in (i / 20 for i in range(21)):
        chi = x * math.pi / 2
        worst = max(worst, channels.check_cptp(channels.amplitude_damping_kraus(chi)))
        for family, param in (
            (channels.AMPLITUDE_DAMPING, chi),
            (channels.DEPHASING, x),
            (channels.DEPOLARIZING, x),
        ):
            bound, _ = channels.memory_branch_bound(family, param)
            mixture = channels.build_memory_channel(
                channels.ChannelParams.for_family(family, param, MIXTURE_CHECK_MU)
            )
            worst = max(worst, bound, channels.check_cptp(mixture))
    return _section("cptp_constructors", 1e-12, worst)


def check_eigenoperators() -> CheckSection:
    """||L(R_i) - lambda_i R_i|| for both catalogs at two rates."""
    worst = 0.0
    for rate in (1.0, 0.7):
        worst = max(
            worst,
            max(
                lindblad.verify_eigen(
                    lindblad.dephasing_correlated_spec(rate),
                    lindblad.catalog_dephasing_correlated(rate),
                )
            ),
            max(
                lindblad.verify_eigen(
                    lindblad.ad_correlated_spec(rate),
                    lindblad.catalog_ad_correlated(rate),
                )
            ),
        )
    return _section("lindblad_eigenoperators", 1e-12, worst)


def check_duality() -> CheckSection:
    """Max |tr(L_i R_j) - delta_ij| after the dual-basis solve, at two rates."""
    worst = 0.0
    for rate in (1.0, 0.7):
        for cat in (
            lindblad.catalog_dephasing_correlated(rate),
            lindblad.catalog_ad_correlated(rate),
        ):
            worst = max(worst, lindblad.duality_residual(lindblad.dual_basis(cat)))
    return _section("duality", 1e-10, worst)


def check_kraus_lindblad() -> CheckSection:
    """Exact transfer-matrix gap between spectral evolution and the
    correlated Kraus channels, which bounds the gap for every input state."""
    dephasing_cat = lindblad.dual_basis(lindblad.catalog_dephasing_correlated(1.0))
    damping_cat = lindblad.dual_basis(lindblad.catalog_ad_correlated(1.0))
    worst = 0.0
    for t in EQUIVALENCE_TIMES:
        worst = max(
            worst,
            lindblad.kraus_equivalence(
                dephasing_cat,
                t,
                channels.dephasing_correlated_kraus,
                lambda t: lindblad.dephasing_flip_probability(1.0, t),
            ),
            lindblad.kraus_equivalence(
                damping_cat,
                t,
                channels.ad_correlated_kraus2,
                lambda t: lindblad.damping_angle(1.0, t),
            ),
        )
    return _section("kraus_lindblad_equivalence", 1e-10, worst)


def check_uncorrelated_dephasing() -> CheckSection:
    """||expm(t S) - K.transfer||_F for the two-jump generator S and the
    uncorrelated dephasing Kraus set K."""
    s = lindblad.superoperator_matrix(lindblad.dephasing_uncorrelated_spec(1.0))
    worst = 0.0
    for t in EQUIVALENCE_TIMES:
        kraus = channels.dephasing_uncorrelated_kraus(
            lindblad.dephasing_flip_probability(1.0, t)
        )
        gap = np.linalg.norm(lindblad._expm(t * s) - kraus.transfer)
        worst = max(worst, float(gap))
    return _section("uncorrelated_dephasing_generator", 1e-10, worst)


def check_closed_forms() -> CheckSection:
    """Closed-form I2 vs the numeric pipeline on 11 x 11 x 5 grids."""
    mus = [i / 10 for i in range(11)]
    thetas = [math.pi / 2 * i / 4 for i in range(5)]
    worst = 0.0
    for tag, lo_hi in (("ad", (0.0, math.pi / 2)), ("dp", (0.0, 1.0))):
        params = [lo_hi[0] + (lo_hi[1] - lo_hi[0]) * i / 10 for i in range(11)]
        sweep = compute_sweep(tag, mus, params, thetas)
        worst = max(worst, float(np.abs(sweep.numeric - sweep.closed).max()))
    return _section("closed_form_vs_numeric", 1e-9, worst)


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
    report = VerificationReport(tuple(sections))
    print(json.dumps(report.to_json(), indent=2))
    return EXIT_OK if report.overall else EXIT_VERIFY_FAIL


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
    if args.grid_count < 2:
        raise UsageError(f"grid_count must be >= 2, got {args.grid_count}")
    chis = [math.pi / 2 * i / (args.grid_count - 1) for i in range(args.grid_count)]
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
