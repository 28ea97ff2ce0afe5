"""Input ensembles, entropies, two-use mutual information, and thresholds.

The figure of merit is I2 = S(avg) - sum_i q_i S(rho_i) in bits, for the
four-state ensemble that interpolates between product states (theta = 0)
and Bell states (theta = pi/4).  It is computed two ways: numerically from
the density-matrix pipeline (the ground truth), and from closed-form
eigenvalue expressions for the depolarizing and amplitude-damping memory
channels.  Threshold analysis locates the memory degree mu_t where the Bell
ensemble starts to outperform the product ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    AMPLITUDE_DAMPING,
    DEPHASING,
    DEPOLARIZING,
    ChannelParams,
    DensityMatrix,
    KrausSet,
    apply,
    build_memory_channel,
    pure_state,
)

TERM_CLAMP = 1e-15        # closed-form terms below this count as exact zeros
TERM_NEGATIVE_TOL = 1e-12
SUM_TOL = 1e-12
PURITY_TOL = 1e-10
INEQUALITY_SLACK = 1e-10
THRESHOLD_SEEDS = 17
THRESHOLD_NOISE_FLOOR = 1e-11  # |g| below this is numerical zero when seeding


def _check_range(name: str, value: float, lo: float, hi: float) -> None:
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must lie in [{lo:g}, {hi:g}], got {value!r}")


@dataclass(frozen=True)
class InputEnsemble:
    """Pure states with a priori probabilities."""

    probs: tuple
    states: tuple

    def __post_init__(self):
        if not self.states or len(self.probs) != len(self.states):
            raise ValueError("probs and states must be nonempty and aligned")
        probs = tuple(float(q) for q in self.probs)
        if any(q < 0.0 for q in probs):
            raise ValueError("probabilities must be nonnegative")
        total = sum(probs)
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        for state in self.states:
            purity = float(np.trace(state.mat @ state.mat).real)
            if abs(purity - 1.0) > PURITY_TOL:
                raise ValueError(f"ensemble states must be pure, got purity {purity!r}")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "states", tuple(self.states))

    @property
    def dim(self) -> int:
        return self.states[0].dim


def theta_ensemble(theta: float) -> InputEnsemble:
    """Four equally weighted orthonormal two-qubit states.

    theta = 0 gives the product basis, theta = pi/4 the four Bell states.
    """
    _check_range("theta", theta, 0.0, math.pi / 2)
    c, s = math.cos(theta), math.sin(theta)
    kets = (
        (c, 0.0, 0.0, s),
        (s, 0.0, 0.0, -c),
        (0.0, c, s, 0.0),
        (0.0, s, -c, 0.0),
    )
    states = tuple(pure_state(np.array(k, dtype=complex)) for k in kets)
    return InputEnsemble(probs=(0.25, 0.25, 0.25, 0.25), states=states)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -tr(rho log2 rho) in bits, with the 0 log 0 = 0 convention."""
    total = 0.0
    for lam in rho.eigenvalues:
        lam = min(max(float(lam), 0.0), 1.0)
        if lam > TERM_CLAMP:
            total -= lam * math.log2(lam)
    return total


def mutual_information_numeric(kraus: KrausSet, ensemble: InputEnsemble) -> float:
    """I2 = S(avg output) - sum_i q_i S(output_i)."""
    if kraus.dim != ensemble.dim:
        raise ValueError(
            f"channel dim {kraus.dim} does not match ensemble dim {ensemble.dim}"
        )
    outputs = [apply(kraus, state) for state in ensemble.states]
    avg = np.zeros((kraus.dim, kraus.dim), dtype=complex)
    for q, out in zip(ensemble.probs, outputs):
        avg += q * out.mat
    holevo = von_neumann_entropy(DensityMatrix(avg))
    for q, out in zip(ensemble.probs, outputs):
        holevo -= q * von_neumann_entropy(out)
    return holevo


@dataclass(frozen=True)
class ClosedFormTerms:
    """Named scalar term groups entering a closed-form I2 value."""

    theta: float
    terms: dict


def _xlog2_sum(values) -> float:
    """sum of x log2(x) over the values, skipping exact zeros."""
    total = 0.0
    for x in values:
        if x > TERM_CLAMP:
            total += x * math.log2(x)
    return total


def _clamped(name: str, values) -> tuple:
    out = []
    for v in values:
        if v < -TERM_NEGATIVE_TOL:
            raise ArithmeticError(f"{name} term {v!r} is negative beyond tolerance")
        out.append(0.0 if v < TERM_CLAMP else float(v))
    return tuple(out)


def _check_sum(name: str, values, want: float = 1.0) -> None:
    total = sum(values)
    if abs(total - want) > SUM_TOL:
        raise ArithmeticError(f"{name} terms sum to {total!r}, expected {want}")


def i2_depolarizing_closed(p: float, mu: float, theta: float):
    """Closed-form I2 of the depolarizing memory channel.

    Every ensemble output shares the spectrum e_1..e_4, and the ensemble
    average is maximally mixed, so I2 = 2 + sum_i e_i log2 e_i.
    Returns (i2, terms).
    """
    _check_range("p", p, 0.0, 1.0)
    _check_range("mu", mu, 0.0, 1.0)
    _check_range("theta", theta, 0.0, math.pi / 2)
    eta = 1.0 - 4.0 * p / 3.0
    e12 = 0.25 * (1.0 - eta * eta) * (1.0 - mu)
    body = (1.0 + mu) + eta * eta * (1.0 - mu)
    root = 2.0 * math.sqrt(
        eta * eta * math.cos(2.0 * theta) ** 2
        + (mu + eta * eta * (1.0 - mu)) ** 2 * math.sin(2.0 * theta) ** 2
    )
    es = _clamped("e", (e12, e12, 0.25 * (body + root), 0.25 * (body - root)))
    _check_sum("e", es)
    i2 = 2.0 + _xlog2_sum(es)
    return i2, ClosedFormTerms(theta=theta, terms={"eta": (eta,), "e": es})


def i2_ad_closed(chi: float, mu: float, theta: float):
    """Closed-form I2 of the amplitude-damping memory channel.

    t holds the spectrum of the average output; u, v the spectra of the two
    outputs from the |00>/|11> family; w the nontrivial spectrum shared by
    the two outputs from the |01>/|10> family.  Returns (i2, terms).
    """
    _check_range("chi", chi, 0.0, math.pi / 2)
    _check_range("mu", mu, 0.0, 1.0)
    _check_range("theta", theta, 0.0, math.pi / 2)
    s2 = math.sin(chi) ** 2
    c2 = math.cos(chi) ** 2
    ct = math.cos(theta) ** 2
    st = math.sin(theta) ** 2

    big_theta = 0.5 * (
        (3.0 + mu)
        + (1.0 - mu)
        * (math.cos(4.0 * chi) - 32.0 * mu * math.cos(chi) ** 2 * math.sin(chi / 2.0) ** 4)
    )

    t1 = 0.25 * (1.0 + s2) * ((1.0 + s2) - mu * s2)
    t2 = 0.25 * (1.0 - s2) * ((1.0 - s2) + mu * s2)
    t34 = 0.25 * (1.0 - (1.0 - mu) * s2 * s2)
    ts = _clamped("t", (t1, t2, t34, t34))
    _check_sum("t", ts)

    u12 = (1.0 - mu) * ct * c2 * s2
    u_root = 0.5 * math.sqrt(
        ct * ct * math.cos(2.0 * chi) ** 2 + st * st + ct * st * big_theta
    )
    us = _clamped("u", (u12, u12, 0.5 - u12 + u_root, 0.5 - u12 - u_root))
    _check_sum("u", us)

    v12 = (1.0 - mu) * st * c2 * s2
    v_root = 0.5 * math.sqrt(
        st * st * math.cos(2.0 * chi) ** 2 + ct * ct + ct * st * big_theta
    )
    vs = _clamped("v", (v12, v12, 0.5 - v12 + v_root, 0.5 - v12 - v_root))
    _check_sum("v", vs)

    ws = _clamped("w", (mu + (1.0 - mu) * c2, (1.0 - mu) * s2))
    _check_sum("w", ws)

    i2 = (
        -_xlog2_sum(ts)
        + 0.25 * _xlog2_sum(us)
        + 0.25 * _xlog2_sum(vs)
        + 0.5 * _xlog2_sum(ws)
    )
    terms = ClosedFormTerms(
        theta=theta, terms={"Theta": (big_theta,), "t": ts, "u": us, "v": vs, "w": ws}
    )
    return i2, terms


def depolarizing_threshold_closed(eta: float) -> float:
    """Memory threshold eta / (1 + eta), valid for 0 < eta < 1."""
    if not (0.0 < eta < 1.0):
        raise ValueError(f"eta must lie strictly inside (0, 1), got {eta!r}")
    return eta / (1.0 + eta)


@dataclass(frozen=True)
class ThresholdResult:
    """Bisection outcome for the Bell-vs-product crossover in mu."""

    chi_or_p: float
    mu_t: float | None
    bracket: tuple
    iterations: int


def threshold_numeric(family: str, param: float, tol: float) -> ThresholdResult:
    """Bisection on g(mu) = I2(Bell) - I2(product) over mu in [0, 1].

    Seeds 17 equally spaced points; the first sign-change bracket is refined
    until its width drops to tol.  A seed whose gap is inside the noise floor
    has no sign, so when its neighbours disagree in sign it is a root on the
    grid and they form the bracket; a midpoint with an exactly zero gap ends
    the bisection there.  Returns mu_t = None when no sign change exists on
    the seed grid.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    bell = theta_ensemble(math.pi / 4)
    product = theta_ensemble(0.0)

    def gap(mu: float) -> float:
        kraus = build_memory_channel(ChannelParams.for_family(family, param, mu))
        return mutual_information_numeric(kraus, bell) - mutual_information_numeric(
            kraus, product
        )

    seeds = [i / (THRESHOLD_SEEDS - 1) for i in range(THRESHOLD_SEEDS)]
    # values at the numerical-noise level carry no sign information
    gaps = [g if abs(g) > THRESHOLD_NOISE_FLOOR else 0.0 for g in (gap(mu) for mu in seeds)]
    bracket = None
    for i in range(1, THRESHOLD_SEEDS):
        if gaps[i - 1] * gaps[i] < 0.0:
            bracket = (i - 1, i)
        elif gaps[i] == 0.0 and i + 1 < THRESHOLD_SEEDS and gaps[i - 1] * gaps[i + 1] < 0.0:
            bracket = (i - 1, i + 1)
        if bracket is not None:
            break
    if bracket is None:
        return ThresholdResult(chi_or_p=param, mu_t=None, bracket=(0.0, 1.0), iterations=0)

    lo, hi, g_lo = seeds[bracket[0]], seeds[bracket[1]], gaps[bracket[0]]
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        g_mid = gap(mid)
        iterations += 1
        if g_mid == 0.0:
            lo = hi = mid
        elif g_lo * g_mid < 0.0:
            hi = mid
        else:
            lo, g_lo = mid, g_mid
    return ThresholdResult(
        chi_or_p=param, mu_t=0.5 * (lo + hi), bracket=(lo, hi), iterations=iterations
    )


def product_memory_inequality(chi_grid) -> list:
    """Per chi: I2 of the product ensemble with full memory vs no memory.

    Returns (chi, lhs, rhs, holds) rows with holds = lhs >= rhs - slack.
    """
    product = theta_ensemble(0.0)
    rows = []
    for chi in chi_grid:
        chi = float(chi)
        lhs = mutual_information_numeric(
            build_memory_channel(ChannelParams(which=AMPLITUDE_DAMPING, mu=1.0, chi=chi)),
            product,
        )
        rhs = mutual_information_numeric(
            build_memory_channel(ChannelParams(which=AMPLITUDE_DAMPING, mu=0.0, chi=chi)),
            product,
        )
        rows.append((chi, lhs, rhs, lhs >= rhs - INEQUALITY_SLACK))
    return rows
