"""End-to-end acceptance gates.

Each test covers one numbered criterion, runs it at its stated tolerance and
time budget, and prints a single PASS/FAIL line (visible with pytest -s).
"""

import math
import time

import numpy as np

from memchan import channels, cli
from memchan.capacity import (
    depolarizing_threshold_closed,
    i2_ad_closed,
    i2_depolarizing_closed,
    mutual_information_numeric,
    product_memory_inequality,
    theta_ensemble,
    threshold_numeric,
)
from memchan.channels import (
    AMPLITUDE_DAMPING,
    DEPOLARIZING,
    ChannelParams,
    build_memory_channel,
    check_cptp,
    random_density_matrix,
)

PI = math.pi
EQUIV_TIMES = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0)


class criterion:
    """Times a criterion, prints its PASS/FAIL line, and enforces the budget."""

    def __init__(self, number, name, budget_s):
        self.number = number
        self.name = name
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget_s else "FAIL"
        print(f"criterion {self.number} ({self.name}): {status} [{elapsed:.2f}s]")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget: {elapsed:.2f}s"
            )
        return False


def ad_channel(chi, mu):
    return build_memory_channel(ChannelParams(which=AMPLITUDE_DAMPING, mu=mu, chi=chi))


def dp_channel(p, mu):
    return build_memory_channel(ChannelParams(which=DEPOLARIZING, mu=mu, p=p))


def test_criterion_1_ad_threshold_interval():
    with criterion(1, "damping threshold at chi=pi/5 inside (0.5, 0.6)", 5.0):
        result = threshold_numeric(AMPLITUDE_DAMPING, PI / 5, 1e-6)
        assert result.mu_t is not None
        assert 0.5 < result.mu_t < 0.6
        assert result.bracket[1] - result.bracket[0] <= 1e-6


def test_criterion_2_depolarizing_threshold_consistency():
    with criterion(2, "depolarizing threshold matches eta/(1+eta)", 10.0):
        for eta in (0.25, 0.5, 0.75):
            p = 3.0 * (1.0 - eta) / 4.0
            result = threshold_numeric(DEPOLARIZING, p, 1e-6)
            assert result.mu_t is not None
            closed = depolarizing_threshold_closed(eta)
            assert abs(result.mu_t - closed) <= 1e-6, (
                f"eta={eta}: numeric {result.mu_t} vs closed {closed}"
            )


def test_criterion_3_closed_form_numeric_equivalence():
    with criterion(3, "closed form vs numeric I2 on 11x11x5 grids", 30.0):
        mus = [i / 10 for i in range(11)]
        thetas = [PI / 2 * i / 4 for i in range(5)]
        failures = []

        for chi in [PI / 2 * i / 10 for i in range(11)]:
            for mu in mus:
                kraus = ad_channel(chi, mu)
                for theta in thetas:
                    numeric = mutual_information_numeric(kraus, theta_ensemble(theta))
                    closed, terms = i2_ad_closed(chi, mu, theta)
                    if abs(numeric - closed) > 1e-9:
                        failures.append(
                            ("ad", chi, mu, theta, numeric, closed, terms.terms)
                        )

        for p in [i / 10 for i in range(11)]:
            for mu in mus:
                kraus = dp_channel(p, mu)
                for theta in thetas:
                    numeric = mutual_information_numeric(kraus, theta_ensemble(theta))
                    closed, terms = i2_depolarizing_closed(p, mu, theta)
                    if abs(numeric - closed) > 1e-9:
                        failures.append(
                            ("dp", p, mu, theta, numeric, closed, terms.terms)
                        )

        # on failure report the offending points with their term values
        assert not failures, "closed-form/numeric mismatches:\n" + "\n".join(
            f"  {family} param={param:.6g} mu={mu:.6g} theta={theta:.6g}: "
            f"numeric={numeric:.12g} closed={closed:.12g} terms={terms}"
            for family, param, mu, theta, numeric, closed, terms in failures
        )


def test_criterion_4_eigenoperator_certification():
    # memchan verify runs the same checks; both catalogs at rate 1.0, which covers every rate
    with criterion(4, "eigenoperator residuals and duality", 1.0):
        for check, tol in ((cli.check_eigenoperators, 1e-12), (cli.check_duality, 1e-10)):
            section = check()
            assert section.threshold == tol
            assert section.passed, section


def test_criterion_5_kraus_lindblad_equivalence():
    # exact transfer-matrix gaps: spectral evolution against the correlated
    # Kraus channels, and the two-jump generator against uncorrelated dephasing
    with criterion(5, "spectral evolution matches Kraus channels", 2.0):
        assert cli.EQUIVALENCE_TIMES == EQUIV_TIMES
        for check in (cli.check_kraus_lindblad, cli.check_uncorrelated_dephasing):
            section = check()
            assert section.threshold == 1e-10
            assert section.passed, section


def test_criterion_6_cptp_suite():
    with criterion(6, "CPTP completeness grids and state preservation", 5.0):
        grid = [i / 20 for i in range(21)]
        for x in grid:
            chi = x * PI / 2
            assert check_cptp(channels.amplitude_damping_kraus(chi)) <= 1e-12
            assert check_cptp(channels.ad_uncorrelated_kraus2(chi)) <= 1e-12
            assert check_cptp(channels.ad_correlated_kraus2(chi)) <= 1e-12
            assert check_cptp(channels.dephasing_uncorrelated_kraus(x)) <= 1e-12
            assert check_cptp(channels.dephasing_correlated_kraus(x)) <= 1e-12
            assert check_cptp(channels.depolarizing_uncorrelated_kraus2(x)) <= 1e-12
            assert check_cptp(channels.depolarizing_correlated_kraus2(x)) <= 1e-12
            assert check_cptp(ad_channel(chi, x)) <= 1e-12
            assert check_cptp(dp_channel(x, 1.0 - x)) <= 1e-12

        rng = np.random.default_rng(42)
        test_channels = (
            channels.amplitude_damping_kraus(1.1),
            channels.ad_uncorrelated_kraus2(0.7),
            channels.ad_correlated_kraus2(0.7),
            channels.dephasing_uncorrelated_kraus(0.4),
            channels.dephasing_correlated_kraus(0.4),
            channels.depolarizing_uncorrelated_kraus2(0.6),
            channels.depolarizing_correlated_kraus2(0.6),
            ad_channel(0.9, 0.35),
            dp_channel(0.25, 0.8),
        )
        for kraus in test_channels:
            for _ in range(50):
                rho = random_density_matrix(kraus.dim, rng)
                out = channels.apply(kraus, rho)
                assert abs(np.trace(out.mat).real - 1.0) <= 1e-12
                assert np.linalg.norm(out.mat - out.mat.conj().T) <= 1e-12
                assert out.eigenvalues[0] >= -1e-10


def test_criterion_7_perfect_memory_inequality():
    with criterion(7, "full-memory beats no-memory for product inputs", 2.0):
        grid = [PI / 2 * i / 32 for i in range(33)]
        rows = product_memory_inequality(grid)
        assert all(holds for _, _, _, holds in rows)
        assert abs(rows[0][1] - 2.0) <= 1e-10 and abs(rows[0][2] - 2.0) <= 1e-10
        assert abs(rows[-1][1] - 1.5) <= 1e-10
        assert abs(rows[-1][2]) <= 1e-10


def test_criterion_8_theta_independence_at_threshold():
    with criterion(8, "I2 is theta-independent at the threshold", 2.0):
        thetas = (0.0, PI / 8, PI / 4, 3 * PI / 8, PI / 2)
        for eta in (0.25, 0.5, 0.75):
            p = 3.0 * (1.0 - eta) / 4.0
            mu_t = depolarizing_threshold_closed(eta)
            kraus = dp_channel(p, mu_t)
            values = [
                mutual_information_numeric(kraus, theta_ensemble(theta)) for theta in thetas
            ]
            assert max(values) - min(values) <= 1e-8


def test_criterion_9_entanglement_advantage_flips_with_memory():
    with criterion(9, "Bell inputs win above threshold, lose below", 1.0):
        chi = PI / 5
        bell = theta_ensemble(PI / 4)
        product = theta_ensemble(0.0)

        high = ad_channel(chi, 0.9)
        assert mutual_information_numeric(high, bell) > mutual_information_numeric(
            high, product
        )

        low = ad_channel(chi, 0.1)
        assert mutual_information_numeric(low, bell) < mutual_information_numeric(
            low, product
        )
