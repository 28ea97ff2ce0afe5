"""Answer checks for each command's output, run outside the timed region.

``check(argv, rc, out)`` returns None when the output is right and a
one-line reason otherwise; output that cannot be parsed is wrong.
References are memchan's closed forms, evaluated here at the exact inputs
the benchmark generated; the threshold reference is a root of the
closed-form Bell-minus-product gap that this module bisects itself.
"""

from __future__ import annotations

import json
import math

from memchan import capacity

TOL = 1e-9
# reals are printed with 12 significant digits
PRINT_REL_TOL = 1e-11
SWEEP_HEADER = "channel,mu,param,theta,i2_numeric,i2_closed,delta"
INEQUALITY_HEADER = "chi,i2_mu1,i2_mu0,holds"
CLOSED_FORMS = {"ad": capacity.i2_ad_closed, "dp": capacity.i2_depolarizing_closed}
ROOT_GRID = 128
ROOT_BISECTIONS = 60

# (name, threshold) of each `memchan verify` section, as the seed prints them
VERIFY_SECTIONS = (
    ("cptp_constructors", 1e-12),
    ("lindblad_eigenoperators", 1e-12),
    ("duality", 1e-10),
    ("kraus_lindblad_equivalence", 1e-10),
    ("uncorrelated_dephasing_generator", 1e-10),
    ("closed_form_vs_numeric", 1e-9),
)


def range_values(spec: str) -> list:
    """The points of a lo:hi:count spec, by the CLI's own formula."""
    lo, hi, count = spec.split(":")
    lo, hi, count = float(lo), float(hi), int(count)
    if count == 1:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _printed(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=PRINT_REL_TOL, abs_tol=PRINT_REL_TOL)


def check_sweep(argv: list, out: str):
    _, tag, mu_spec, param_spec, theta_spec = argv[:5]
    lines = out.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return "sweep: missing or wrong CSV header"
    grid = [
        (mu, param, theta)
        for mu in range_values(mu_spec)
        for param in range_values(param_spec)
        for theta in range_values(theta_spec)
    ]
    if len(lines) - 1 != len(grid):
        return f"sweep: {len(lines) - 1} rows, expected {len(grid)}"
    closed = CLOSED_FORMS[tag]
    for line, point in zip(lines[1:], grid):
        fields = line.split(",")
        if len(fields) != 7 or fields[0] != tag:
            return f"sweep: malformed row {line!r}"
        got = [float(x) for x in fields[1:5]]
        if not all(_printed(g, w) for g, w in zip(got[:3], point)):
            return f"sweep: row {line!r} does not match grid point {point}"
        mu, param, theta = point
        ref = closed(param, mu, theta)[0]
        if not abs(got[3] - ref) <= TOL:
            return f"sweep: i2_numeric {got[3]!r} at {point} differs from closed form {ref!r}"
    return None


def sweep_max_delta(out: str) -> float:
    """The largest |numeric - closed| the program printed in a sweep."""
    return max(float(line.rsplit(",", 1)[1]) for line in out.splitlines()[1:])


def closed_gap(tag: str, param: float, mu: float) -> float:
    closed = CLOSED_FORMS[tag]
    return closed(param, mu, math.pi / 4)[0] - closed(param, mu, 0.0)[0]


def closed_root(tag: str, param: float):
    """First sign change of the closed-form gap on [0, 1], bisected; None if none.

    Exact zeros on the scan grid carry no sign and are stepped over, so a
    root that falls on a grid point is still bracketed by its neighbours.
    """
    prev = None
    for i in range(ROOT_GRID + 1):
        mu = i / ROOT_GRID
        g = closed_gap(tag, param, mu)
        if g == 0.0:
            continue
        if prev is not None and (prev[1] < 0.0) != (g < 0.0):
            lo, g_lo, hi = prev[0], prev[1], mu
            for _ in range(ROOT_BISECTIONS):
                mid = 0.5 * (lo + hi)
                g_mid = closed_gap(tag, param, mid)
                if g_mid == 0.0:
                    return mid
                if (g_mid < 0.0) == (g_lo < 0.0):
                    lo, g_lo = mid, g_mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
        prev = (mu, g)
    return None


def check_threshold(argv: list, out: str):
    _, tag, param, _tol = argv[:4]
    payload = json.loads(out)
    mu_t = payload["mu_t"]
    if payload.get("channel") != tag or payload.get("param") != float(param):
        return "threshold: channel or param not echoed"
    root = closed_root(tag, float(param))
    if root is None:
        return None if mu_t is None else f"threshold: mu_t {mu_t!r}, closed-form gap has no root"
    if mu_t is None:
        return f"threshold: mu_t null, closed-form root {root!r}"
    if not abs(mu_t - root) <= TOL:
        return f"threshold: mu_t {mu_t!r} differs from closed-form root {root!r}"
    return None


def check_inequality(argv: list, out: str):
    count = int(argv[1])
    lines = out.splitlines()
    if not lines or lines[0] != INEQUALITY_HEADER:
        return "inequality: missing or wrong CSV header"
    if len(lines) - 1 != count:
        return f"inequality: {len(lines) - 1} rows, expected {count}"
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        if len(fields) != 4:
            return f"inequality: malformed row {line!r}"
        chi = math.pi / 2 * i / (count - 1)
        got = [float(x) for x in fields[:3]]
        if not _printed(got[0], chi):
            return f"inequality: row {line!r} does not match chi {chi!r}"
        if fields[3] != "true":
            return f"inequality: row {line!r} does not hold"
        for value, mu in ((got[1], 1.0), (got[2], 0.0)):
            ref = capacity.i2_ad_closed(chi, mu, 0.0)[0]
            if not abs(value - ref) <= TOL:
                return f"inequality: {value!r} at chi {chi!r} mu {mu} differs from closed form {ref!r}"
    return None


def check_verify(argv: list, out: str):
    report = json.loads(out)
    sections = report["sections"]
    got = [(s["name"], s["threshold"]) for s in sections]
    if tuple(got) != VERIFY_SECTIONS:
        return f"verify: sections {got} differ from {list(VERIFY_SECTIONS)}"
    if report.get("overall") is not True:
        return "verify: overall is not true"
    for s in sections:
        if s.get("pass") is not True or not s["max_residual"] <= s["threshold"]:
            return f"verify: section {s['name']} fails"
    return None


CHECKS = {
    "sweep": check_sweep,
    "threshold": check_threshold,
    "inequality": check_inequality,
    "verify": check_verify,
}


def check(argv: list, rc, out: str):
    if rc != 0:
        return f"{argv[0]}: exit code {rc!r}"
    try:
        return CHECKS[argv[0]](argv, out)
    except (ValueError, TypeError, KeyError, IndexError, AttributeError, ArithmeticError) as exc:
        return f"{argv[0]}: malformed output ({exc!r}): {out[:80]!r}"
