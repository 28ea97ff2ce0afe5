"""Input ensembles, entropies, two-use mutual information, and thresholds.

The figure of merit is I2 = S(avg) - sum_i q_i S(rho_i) in bits, for the
four-state ensemble that interpolates between product states (theta = 0)
and Bell states (theta = pi/4).  It is computed two ways: numerically from
the density-matrix pipeline (the ground truth), and from closed-form
eigenvalue expressions for the depolarizing and amplitude-damping memory
channels.  One formula (_i2) serves every numeric I2, for one KrausSet
(mutual_information_numeric) and on a grid (I2Kernel, i2_grid).  Threshold
analysis locates the memory degree mu_t where the Bell ensemble starts to
outperform the product ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .channels import (
    AMPLITUDE_DAMPING,
    CPTP_APPLY_TOL,
    DOMAINS,
    DensityMatrix,
    KrausSet,
    _check_range,
    check_density_form,
    check_positive_spectra,
    grid,
    memory_branch_bound,
    pure_state,
)

TERM_CLAMP = 1e-15        # closed-form terms below this count as exact zeros
TERM_NEGATIVE_TOL = 1e-12
SUM_TOL = 1e-12
PURITY_TOL = 1e-10
INEQUALITY_SLACK = 1e-10
THRESHOLD_SEEDS = 17
THRESHOLD_NOISE_FLOOR = 1e-11  # |g| below this is numerical zero when seeding


@dataclass(frozen=True)
class InputEnsemble:
    """Pure states with a priori probabilities."""

    probs: tuple
    states: tuple

    def __post_init__(self):
        if not self.states or len(self.probs) != len(self.states):
            raise ValueError("probs and states must be nonempty and aligned")
        probs = tuple(float(q) for q in self.probs)
        if not all(q >= 0.0 for q in probs):  # a NaN probability fails too
            raise ValueError("probabilities must be nonnegative")
        total = sum(probs)
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        if len(dims := sorted({state.dim for state in self.states})) != 1:
            raise ValueError(f"ensemble states must share one dimension, got dimensions {dims}")
        for state in self.states:
            purity = float(np.einsum("ij,ji->", state.mat, state.mat).real)
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
    _check_range("theta", theta)
    c, s = math.cos(theta), math.sin(theta)
    kets = (
        (c, 0.0, 0.0, s),
        (s, 0.0, 0.0, -c),
        (0.0, c, s, 0.0),
        (0.0, s, -c, 0.0),
    )
    states = tuple(pure_state(k) for k in kets)
    return InputEnsemble(probs=(0.25, 0.25, 0.25, 0.25), states=states)


def _entropy_bits(spectra) -> np.ndarray:
    """-sum lam log2 lam over the last axis: each eigenvalue is clamped into
    [0, 1], and one at or below TERM_CLAMP counts as 0 (0 log 0 = 0).  A NaN
    eigenvalue raises ArithmeticError, since the clamps would read it as 0."""
    if np.isnan(spectra).any():
        raise ArithmeticError("spectrum has NaN entries")
    lam = np.clip(spectra, 0.0, 1.0)
    kept = lam > TERM_CLAMP
    return np.sum(np.where(kept, -lam * np.log2(np.where(kept, lam, 1.0)), 0.0), axis=-1)


def _holevo(s_avg, s_outputs, probs) -> np.ndarray:
    """S(avg) - sum_i q_i S(output_i), elementwise.  I2 is never negative: a
    difference in [-TERM_NEGATIVE_TOL, 0) is rounding and reads 0, and one
    below it, or a NaN, raises ArithmeticError."""
    holevo = s_avg
    for q, s in zip(probs, s_outputs):
        holevo = holevo - q * s
    if not np.all(holevo >= -TERM_NEGATIVE_TOL):
        raise ArithmeticError(f"I2 {float(np.min(holevo))!r} is negative beyond tolerance")
    return np.where(holevo > 0.0, holevo, 0.0)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -tr(rho log2 rho) in bits, with the 0 log 0 = 0 convention."""
    return float(_entropy_bits(rho.eigenvalues))


def _i2(stack: np.ndarray, probs) -> np.ndarray:
    """I2 from a (n + 1, ..., d*d) stack of vectorized matrices whose first n
    entries are outputs that passed check_density_form: writes their average,
    weighted by probs (n, ...), into the last entry, takes every spectrum by
    one hermitian_eigen call, checks positivity (check_positive_spectra) and
    returns S(avg) - sum_i q_i S(output_i) (_entropy_bits, _holevo)."""
    outputs, avg = stack[:-1], stack[-1]
    np.multiply(probs[0][..., None], outputs[0], out=avg)
    for q, output in zip(probs[1:], outputs[1:]):
        avg += q[..., None] * output
    d = math.isqrt(stack.shape[-1])
    spectra = linalg.hermitian_eigen(stack.reshape(stack.shape[:-1] + (d, d)))
    entropies = _entropy_bits(check_positive_spectra(spectra))
    return _holevo(entropies[-1], entropies[:-1], probs)


def mutual_information_numeric(kraus: KrausSet, ensemble: InputEnsemble) -> float:
    """I2 = S(avg output) - sum_i q_i S(output_i); rounding below 0 reads as 0.
    The outputs are form-checked; their average, a convex combination of
    them, needs no check of its own (see I2Kernel)."""
    if kraus.dim != ensemble.dim:
        raise ValueError(f"channel dim {kraus.dim} does not match ensemble dim {ensemble.dim}")
    kraus.require_trace_preserving()
    n, d = len(ensemble.states), kraus.dim
    outputs = [state.mat.reshape(-1) for state in ensemble.states] @ kraus.transfer.T
    stack = np.empty((n + 1, d * d), dtype=outputs.dtype)
    stack[:n] = outputs
    check_density_form(stack[:n].reshape(n, d, d))
    return float(_i2(stack, np.array(ensemble.probs)))


# Most bytes an I2Kernel keeps per grid point: 2x16x16 branch transfer, 2x4x16
# branch output and 5x16 slice buffer entries, at 16 bytes each (complex, the worst case)
I2_BYTES_PER_POINT = (2 * 16 * 16 + 2 * 4 * 16 + 5 * 16) * 16


class I2Kernel:
    """Numeric I2 of one family's memory channel on a (param, theta) grid,
    one memory degree mu at a time.

    The mixture is affine in mu, T(mu) = (1 - mu) T_unc + mu T_cor, so each
    ensemble output is (1 - mu) T_unc vec(rho) + mu T_cor vec(rho), from two
    branch outputs computed once per parameter.  The branch bound
    (memory_branch_bound) must be within CPTP_APPLY_TOL, which makes every
    mixture a channel.

    The form checks of a density matrix (check_density_form: finite,
    Hermitian, unit trace at DENSITY_TOL) run once, on the branch outputs.
    A slice output is (1 - mu) unc + mu cor, and an ensemble average is a
    q-weighted sum of outputs with q >= 0 and sum q = 1, so an output's
    anti-Hermitian part and its trace - 1 are affine in mu and an average's
    are convex combinations of the outputs'.  Their norms are therefore
    largest at a branch: the certificate covers every output and average at
    every mu in [0, 1], up to a few ulps of rounding.  A slice mixes the
    outputs and hands them to _i2, the formula mutual_information_numeric
    uses too, which checks positivity on the spectra its one eigensolve
    takes for the entropies.  Every slice writes into one buffer the kernel
    keeps, so one kernel must not run two slices at once.

    The transfer buffer takes the branches' dtype, and the outputs and the
    slice buffer take the transfers' and input states'.  The three families'
    transfers and the theta-ensemble states are float64 (see linalg), so
    every slice's eigensolve is real symmetric; a complex branch keeps the
    whole kernel complex.
    """

    def __init__(self, family: str, params, thetas):
        ensembles = [theta_ensemble(float(theta)) for theta in thetas]
        # (state, theta) weights and (theta, state, 16) vectorized input states
        self._probs = np.reshape([e.probs for e in ensembles], (len(thetas), 4)).T
        inputs = np.reshape([[s.mat for s in e.states] for e in ensembles], (len(thetas), 4, 16))
        transfers = []
        for param in params:
            bound, branches = memory_branch_bound(family, float(param))
            if not bound <= CPTP_APPLY_TOL:  # a NaN bound fails too
                raise ValueError(f"memory branches are not trace preserving: residual {bound:.3e}")
            transfers.append([b.transfer for b in branches])
        transfers = np.reshape(transfers, (len(params), 2, 16, 16))
        # outputs of the uncorrelated and correlated branches, written
        # state-major (state, param, theta, 16) and contiguous, the layout
        # every slice reads
        self._unc, self._cor = (
            np.einsum("pij,tsj->spti", transfers[:, b], inputs, order="C") for b in (0, 1)
        )
        del transfers  # so that setting up, the certificate included, peaks below a slice
        # one state at a time, so the certificate's temporaries stay small
        for branch in (self._unc, self._cor):
            for outputs in branch:
                check_density_form(outputs.reshape(-1, 4, 4))
        # (5, param, theta, 16), reused by every slice: the four outputs, then
        # their ensemble average
        self._stack = np.empty((5,) + self._unc.shape[1:], dtype=self._unc.dtype)

    def at(self, mu: float) -> np.ndarray:
        """I2[param, theta] at memory degree mu."""
        _check_range("mu", mu)
        outputs = self._stack[:4]
        np.multiply(self._unc, 1.0 - mu, out=outputs)
        outputs += mu * self._cor
        return _i2(self._stack, self._probs)


def i2_grid(family: str, mus, params, thetas) -> np.ndarray:
    """I2[mu, param, theta] of a family's memory channel, one mu slice at a time."""
    kernel = I2Kernel(family, params, thetas)
    slices = [kernel.at(float(mu)) for mu in mus]
    return np.array(slices).reshape(len(mus), len(params), len(thetas))


@dataclass(frozen=True)
class ClosedFormTerms:
    """Named scalar term groups entering a closed-form I2 value."""

    terms: dict


def _group(name: str, values) -> tuple:
    """One closed-form eigenvalue group, read in one pass: returns (terms, sum
    of x log2 x).  A NaN term, or one below -TERM_NEGATIVE_TOL, raises
    ArithmeticError; a term below TERM_CLAMP reads as 0 and none at or below
    it enters the entropy sum (0 log 0 = 0); the terms must sum to 1 within
    SUM_TOL."""
    terms = []
    total = xlogx = 0.0
    for v in values:
        if not v >= -TERM_NEGATIVE_TOL:  # a NaN term fails too
            raise ArithmeticError(f"{name} term {v!r} is negative beyond tolerance")
        v = 0.0 if v < TERM_CLAMP else float(v)
        if v > TERM_CLAMP:
            xlogx += v * math.log2(v)
        terms.append(v)
        total += v
    if abs(total - 1.0) > SUM_TOL:
        raise ArithmeticError(f"{name} terms sum to {total!r}, expected 1.0")
    return tuple(terms), xlogx


def i2_depolarizing_closed(p: float, mu: float, theta: float):
    """Closed-form I2 of the depolarizing memory channel.

    Every ensemble output shares the spectrum e_1..e_4, and the ensemble
    average is maximally mixed, so I2 = 2 + sum_i e_i log2 e_i.
    Returns (i2, terms).
    """
    _check_range("p", p)
    _check_range("mu", mu)
    _check_range("theta", theta)
    eta = 1.0 - 4.0 * p / 3.0
    eta2 = eta * eta
    e12 = 0.25 * (1.0 - eta2) * (1.0 - mu)
    body = (1.0 + mu) + eta2 * (1.0 - mu)
    root = 2.0 * math.sqrt(
        eta2 * math.cos(2.0 * theta) ** 2
        + (mu + eta2 * (1.0 - mu)) ** 2 * math.sin(2.0 * theta) ** 2
    )
    es, e_xlogx = _group("e", (e12, e12, 0.25 * (body + root), 0.25 * (body - root)))
    return 2.0 + e_xlogx, ClosedFormTerms(terms={"eta": (eta,), "e": es})


def i2_ad_closed(chi: float, mu: float, theta: float):
    """Closed-form I2 of the amplitude-damping memory channel.

    t holds the spectrum of the average output; u, v the spectra of the two
    outputs from the |00>/|11> family; w the nontrivial spectrum shared by
    the two outputs from the |01>/|10> family.  Returns (i2, terms).
    """
    _check_range("chi", chi)
    _check_range("mu", mu)
    _check_range("theta", theta)
    s2 = math.sin(chi) ** 2
    c2 = math.cos(chi) ** 2
    c2x = math.cos(2.0 * chi) ** 2
    ct = math.cos(theta) ** 2
    st = math.sin(theta) ** 2

    big_theta = 0.5 * (
        (3.0 + mu)
        + (1.0 - mu) * (math.cos(4.0 * chi) - 32.0 * mu * c2 * math.sin(chi / 2.0) ** 4)
    )

    t1 = 0.25 * (1.0 + s2) * ((1.0 + s2) - mu * s2)
    t2 = 0.25 * (1.0 - s2) * ((1.0 - s2) + mu * s2)
    t34 = 0.25 * (1.0 - (1.0 - mu) * s2 * s2)
    ts, t_xlogx = _group("t", (t1, t2, t34, t34))

    u12 = (1.0 - mu) * ct * c2 * s2
    u_root = 0.5 * math.sqrt(ct * ct * c2x + st * st + ct * st * big_theta)
    us, u_xlogx = _group("u", (u12, u12, 0.5 - u12 + u_root, 0.5 - u12 - u_root))

    v12 = (1.0 - mu) * st * c2 * s2
    v_root = 0.5 * math.sqrt(st * st * c2x + ct * ct + ct * st * big_theta)
    vs, v_xlogx = _group("v", (v12, v12, 0.5 - v12 + v_root, 0.5 - v12 - v_root))

    ws, w_xlogx = _group("w", (mu + (1.0 - mu) * c2, (1.0 - mu) * s2))

    i2 = -t_xlogx + 0.25 * u_xlogx + 0.25 * v_xlogx + 0.5 * w_xlogx
    terms = ClosedFormTerms(terms={"Theta": (big_theta,), "t": ts, "u": us, "v": vs, "w": ws})
    return i2, terms


def depolarizing_threshold_closed(eta: float) -> float:
    """Memory threshold eta / (1 + eta), valid for 0 < eta < 1."""
    if not (0.0 < eta < 1.0):
        raise ValueError(f"eta must lie strictly inside (0, 1), got {eta!r}")
    return eta / (1.0 + eta)


@dataclass(frozen=True)
class ThresholdResult:
    """Bisection outcome for the Bell-vs-product crossover in mu; reason says
    why mu_t is None (see threshold_numeric) and is None when it is not."""

    mu_t: float | None
    bracket: tuple
    iterations: int
    reason: str | None = None


def threshold_numeric(family: str, param: float, tol: float) -> ThresholdResult:
    """Bisection on g(mu) = I2(Bell) - I2(product) over mu in [0, 1].

    Seeds 17 equally spaced points.  A seed is signed when its gap is beyond
    the noise floor; the bracket is the first pair of consecutive signed
    seeds of opposite sign at most two steps apart, so at most one unsigned
    seed (a root on the grid) lies between them.  The bracket is refined
    until its width drops to tol, or until its ends are adjacent doubles and
    no midpoint lies strictly between them; a midpoint with an exactly zero
    gap ends the bisection there.  Without a bracket mu_t is None, with a
    reason: "edge" when every seed but mu = 0 is signed (all of one sign),
    else "below_noise_floor" when the raw gaps change sign, else "none".
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    kernel = I2Kernel(family, [param], [math.pi / 4, 0.0])

    def gap(mu: float) -> float:
        bell, product = kernel.at(mu)[0].tolist()
        return bell - product

    seeds = grid(*DOMAINS["mu"], THRESHOLD_SEEDS)
    raw = [gap(mu) for mu in seeds]
    signed = [i for i, g in enumerate(raw) if abs(g) > THRESHOLD_NOISE_FLOOR]
    bracket = next(
        ((a, b) for a, b in zip(signed, signed[1:]) if b - a <= 2 and raw[a] * raw[b] < 0.0),
        None,
    )
    if bracket is None:
        if signed == list(range(1, THRESHOLD_SEEDS)):
            reason = "edge"
        else:
            reason = "below_noise_floor" if min(raw) < 0.0 < max(raw) else "none"
        return ThresholdResult(mu_t=None, bracket=(0.0, 1.0), iterations=0, reason=reason)

    lo, hi, g_lo = seeds[bracket[0]], seeds[bracket[1]], raw[bracket[0]]
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        g_mid = gap(mid)
        iterations += 1
        if g_mid == 0.0:
            lo = hi = mid
        elif g_lo * g_mid < 0.0:
            hi = mid
        else:
            lo = mid
    return ThresholdResult(mu_t=0.5 * (lo + hi), bracket=(lo, hi), iterations=iterations)


def product_memory_inequality(chi_grid) -> list:
    """Per chi: I2 of the product ensemble with full memory vs no memory.

    Returns (chi, lhs, rhs, holds) rows with holds = lhs >= rhs - slack.
    """
    chis = [float(chi) for chi in chi_grid]
    kernel = I2Kernel(AMPLITUDE_DAMPING, chis, [0.0])
    lhs, rhs = (kernel.at(mu)[:, 0].tolist() for mu in (1.0, 0.0))
    return [(chi, l, r, l >= r - INEQUALITY_SLACK) for chi, l, r in zip(chis, lhs, rhs)]
