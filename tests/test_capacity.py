import math

import numpy as np
import pytest

from memchan import capacity
from memchan.capacity import (
    InputEnsemble,
    depolarizing_threshold_closed,
    i2_ad_closed,
    i2_depolarizing_closed,
    mutual_information_numeric,
    product_memory_inequality,
    theta_ensemble,
    threshold_numeric,
    von_neumann_entropy,
)
from memchan.channels import (
    AMPLITUDE_DAMPING,
    DEPHASING,
    DEPOLARIZING,
    ChannelParams,
    DensityMatrix,
    KrausSet,
    build_memory_channel,
    pure_state,
)

PI = math.pi

# expected I2 values frozen from an independent eigvalsh-based pipeline
FROZEN_I2 = [
    (AMPLITUDE_DAMPING, PI / 5, 0.3, 0.0, 1.0256548954798828),
    (AMPLITUDE_DAMPING, PI / 5, 0.3, PI / 4, 0.98664433916313588),
    (AMPLITUDE_DAMPING, PI / 5, 0.9, 0.0, 1.54070299150182),
    (AMPLITUDE_DAMPING, PI / 5, 0.9, PI / 4, 1.594935140109107),
    (AMPLITUDE_DAMPING, 1.0, 0.65, 0.4, 0.89108043667176262),
    (DEPOLARIZING, 0.3, 0.5, PI / 4, 0.82456872044240059),
    (DEPOLARIZING, 0.375, 0.25, 0.0, 0.41938782837488331),
]
# threshold at chi = pi/5 frozen from tight bisection of the closed form
AD_THRESHOLD_PI5 = 0.53942486484043


def ad_channel(chi, mu):
    return build_memory_channel(ChannelParams(which=AMPLITUDE_DAMPING, mu=mu, chi=chi))


def dp_channel(p, mu):
    return build_memory_channel(ChannelParams(which=DEPOLARIZING, mu=mu, p=p))


def family_channel(family, param, mu):
    if family == AMPLITUDE_DAMPING:
        return ad_channel(param, mu)
    return build_memory_channel(ChannelParams(which=family, mu=mu, p=param))


# ----------------------------------------------------------------------
# input ensemble
# ----------------------------------------------------------------------

def test_theta_zero_gives_product_basis():
    ens = theta_ensemble(0.0)
    assert ens.probs == (0.25, 0.25, 0.25, 0.25)
    for state, index in zip(ens.states, (0, 3, 1, 2)):
        want = np.zeros((4, 4), dtype=complex)
        want[index, index] = 1.0
        assert np.allclose(state.mat, want, atol=1e-15)


def test_theta_quarter_pi_gives_bell_states():
    ens = theta_ensemble(PI / 4)
    bells = (
        np.array([1, 0, 0, 1]) / math.sqrt(2),
        np.array([1, 0, 0, -1]) / math.sqrt(2),
        np.array([0, 1, 1, 0]) / math.sqrt(2),
        np.array([0, 1, -1, 0]) / math.sqrt(2),
    )
    for state, ket in zip(ens.states, bells):
        assert np.allclose(state.mat, np.outer(ket, ket.conj()), atol=1e-15)


def test_theta_states_are_orthonormal():
    ens = theta_ensemble(0.3)
    for i, a in enumerate(ens.states):
        for j, b in enumerate(ens.states):
            overlap = float(np.trace(a.mat @ b.mat).real)
            want = 1.0 if i == j else 0.0
            assert abs(overlap - want) <= 1e-14


def test_theta_range_error():
    with pytest.raises(ValueError):
        theta_ensemble(-0.1)
    with pytest.raises(ValueError):
        theta_ensemble(2.0)


def test_input_ensemble_validation():
    state = pure_state(np.array([1, 0, 0, 0], dtype=complex))
    with pytest.raises(ValueError, match="sum"):
        InputEnsemble(probs=(0.5, 0.4), states=(state, state))
    mixed = DensityMatrix(np.eye(4) / 4)
    with pytest.raises(ValueError, match="pure"):
        InputEnsemble(probs=(1.0,), states=(mixed,))


# ----------------------------------------------------------------------
# entropy
# ----------------------------------------------------------------------

def test_entropy_maximally_mixed():
    assert abs(von_neumann_entropy(DensityMatrix(np.eye(4) / 4)) - 2.0) <= 1e-12


def test_entropy_pure_state():
    rho = pure_state(np.array([1, 0, 0, 1], dtype=complex))
    assert abs(von_neumann_entropy(rho)) <= 1e-12


def test_entropy_hand_value():
    rho = DensityMatrix(np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex))
    assert abs(von_neumann_entropy(rho) - 1.5) <= 1e-12


# ----------------------------------------------------------------------
# numeric mutual information
# ----------------------------------------------------------------------

def test_i2_identity_channel_is_two():
    identity = KrausSet(dim=4, ops=(np.eye(4, dtype=complex),))
    for theta in (0.0, 0.3, PI / 4):
        assert abs(mutual_information_numeric(identity, theta_ensemble(theta)) - 2.0) <= 1e-10


def test_i2_fully_damped_uncorrelated_collapses():
    value = mutual_information_numeric(ad_channel(PI / 2, 0.0), theta_ensemble(0.0))
    assert abs(value) <= 1e-12


def test_i2_fully_damped_correlated_is_three_halves():
    value = mutual_information_numeric(ad_channel(PI / 2, 1.0), theta_ensemble(0.0))
    assert abs(value - 1.5) <= 1e-12


def test_i2_dimension_mismatch():
    single = KrausSet(dim=2, ops=(np.eye(2, dtype=complex),))
    with pytest.raises(ValueError, match="dim"):
        mutual_information_numeric(single, theta_ensemble(0.0))


@pytest.mark.parametrize("excess", [1e-13, 1e-9])
def test_i2_negative_difference(monkeypatch, excess):
    # the average output's entropy is taken first; each of the four outputs
    # then reads `excess` more, so the difference is about -excess
    entropies = iter([1.0] + [1.0 + excess] * 4)
    monkeypatch.setattr(capacity, "von_neumann_entropy", lambda rho: next(entropies))
    identity = KrausSet(dim=4, ops=(np.eye(4, dtype=complex),))
    if excess < capacity.TERM_NEGATIVE_TOL:
        assert mutual_information_numeric(identity, theta_ensemble(0.0)) == 0.0
    else:
        with pytest.raises(ArithmeticError, match="negative"):
            mutual_information_numeric(identity, theta_ensemble(0.0))


@pytest.mark.parametrize("family,param,mu,theta,expected", FROZEN_I2)
def test_i2_numeric_frozen_anchors(family, param, mu, theta, expected):
    value = mutual_information_numeric(family_channel(family, param, mu), theta_ensemble(theta))
    assert abs(value - expected) <= 1e-10


def test_i2_bounds_across_families():
    for family, param in ((AMPLITUDE_DAMPING, 0.9), (DEPHASING, 0.4), (DEPOLARIZING, 0.7)):
        for mu in (0.0, 0.5, 1.0):
            for theta in (0.0, PI / 8, PI / 4):
                value = mutual_information_numeric(
                    family_channel(family, param, mu), theta_ensemble(theta)
                )
                assert -1e-10 <= value <= 2.0 + 1e-10


# ----------------------------------------------------------------------
# closed forms
# ----------------------------------------------------------------------

def test_depolarizing_closed_noiseless():
    value, terms = i2_depolarizing_closed(0.0, 0.3, 0.7)
    assert abs(value - 2.0) <= 1e-12
    assert terms.terms["eta"] == (1.0,)
    assert terms.terms["e"][0] == 0.0


def test_depolarizing_closed_matches_numeric_anchor():
    value, _ = i2_depolarizing_closed(0.3, 0.5, PI / 4)
    assert abs(value - 0.82456872044240059) <= 1e-9


def test_depolarizing_closed_theta_independent_at_threshold():
    p = 0.375  # eta = 1/2
    mu_t = depolarizing_threshold_closed(0.5)
    values = [i2_depolarizing_closed(p, mu_t, theta)[0] for theta in (0.0, PI / 8, PI / 4)]
    assert max(values) - min(values) <= 1e-10


def test_depolarizing_closed_term_sum():
    for p in (0.1, 0.5, 0.9):
        for mu in (0.0, 0.4, 1.0):
            _, terms = i2_depolarizing_closed(p, mu, 0.2)
            assert abs(sum(terms.terms["e"]) - 1.0) <= 1e-12


def test_ad_closed_identity_channel():
    for mu in (0.0, 0.5, 1.0):
        for theta in (0.0, PI / 4):
            assert abs(i2_ad_closed(0.0, mu, theta)[0] - 2.0) <= 1e-12


def test_ad_closed_transcription_gate():
    # must reproduce the hand-derived numeric value at the fully damped point
    assert abs(i2_ad_closed(PI / 2, 1.0, 0.0)[0] - 1.5) <= 1e-12


def test_ad_closed_term_invariants():
    for chi in np.linspace(0.0, PI / 2, 7):
        for mu in np.linspace(0.0, 1.0, 5):
            for theta in (0.0, 0.4, PI / 4):
                _, terms = i2_ad_closed(float(chi), float(mu), theta)
                groups = terms.terms
                assert abs(sum(groups["t"]) - 1.0) <= 1e-12
                assert abs(sum(groups["u"]) - 1.0) <= 1e-12
                assert abs(sum(groups["v"]) - 1.0) <= 1e-12
                assert abs(sum(groups["w"]) - 1.0) <= 1e-12
                for group in ("t", "u", "v", "w"):
                    assert all(x >= 0.0 for x in groups[group])


@pytest.mark.parametrize("family,param,mu,theta,expected", FROZEN_I2)
def test_closed_forms_match_frozen_anchors(family, param, mu, theta, expected):
    if family == AMPLITUDE_DAMPING:
        value, _ = i2_ad_closed(param, mu, theta)
    else:
        value, _ = i2_depolarizing_closed(param, mu, theta)
    assert abs(value - expected) <= 1e-9


def test_closed_vs_numeric_on_coarse_grid():
    for chi in (0.0, PI / 5, PI / 2):
        for mu in (0.0, 0.5, 1.0):
            for theta in (0.0, PI / 8, PI / 4):
                numeric = mutual_information_numeric(ad_channel(chi, mu), theta_ensemble(theta))
                closed, _ = i2_ad_closed(chi, mu, theta)
                assert abs(numeric - closed) <= 1e-9
    for p in (0.0, 0.3, 1.0):
        for mu in (0.0, 0.5, 1.0):
            numeric = mutual_information_numeric(dp_channel(p, mu), theta_ensemble(PI / 4))
            closed, _ = i2_depolarizing_closed(p, mu, PI / 4)
            assert abs(numeric - closed) <= 1e-9


def test_theta_reflection_symmetry():
    for theta in (0.1, 0.5, PI / 4):
        mirrored = PI / 2 - theta
        numeric_a = mutual_information_numeric(ad_channel(0.8, 0.3), theta_ensemble(theta))
        numeric_b = mutual_information_numeric(ad_channel(0.8, 0.3), theta_ensemble(mirrored))
        assert abs(numeric_a - numeric_b) <= 1e-10
        closed_a, _ = i2_ad_closed(0.8, 0.3, theta)
        closed_b, _ = i2_ad_closed(0.8, 0.3, mirrored)
        assert abs(closed_a - closed_b) <= 1e-10
        dp_a, _ = i2_depolarizing_closed(0.4, 0.6, theta)
        dp_b, _ = i2_depolarizing_closed(0.4, 0.6, mirrored)
        assert abs(dp_a - dp_b) <= 1e-10


def test_uncorrelated_damping_monotone_for_products():
    values = [
        mutual_information_numeric(ad_channel(chi, 0.0), theta_ensemble(0.0))
        for chi in np.linspace(0.0, PI / 2, 33)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


# ----------------------------------------------------------------------
# thresholds
# ----------------------------------------------------------------------

def test_threshold_closed_examples():
    assert abs(depolarizing_threshold_closed(0.5) - 1.0 / 3.0) <= 1e-15
    assert abs(depolarizing_threshold_closed(0.9) - 0.9 / 1.9) <= 1e-15
    assert depolarizing_threshold_closed(1e-9) < 1e-8
    for eta in (0.0, 1.0, -0.2, 1.4):
        with pytest.raises(ValueError):
            depolarizing_threshold_closed(eta)


def test_threshold_numeric_depolarizing_matches_closed():
    result = threshold_numeric(DEPOLARIZING, 0.375, 1e-6)  # eta = 1/2
    assert result.mu_t is not None
    assert abs(result.mu_t - 1.0 / 3.0) <= 1e-6
    assert result.iterations > 0


def test_threshold_numeric_ad_interval_and_anchor():
    result = threshold_numeric(AMPLITUDE_DAMPING, PI / 5, 1e-6)
    assert result.mu_t is not None
    assert 0.5 < result.mu_t < 0.6
    assert abs(result.mu_t - AD_THRESHOLD_PI5) <= 1e-6


def test_threshold_numeric_identity_channel_returns_none():
    result = threshold_numeric(AMPLITUDE_DAMPING, 0.0, 1e-6)
    assert result.mu_t is None
    assert result.bracket == (0.0, 1.0)
    assert result.iterations == 0


def test_threshold_numeric_rejects_bad_inputs():
    with pytest.raises(ValueError):
        threshold_numeric("bogus", 0.3, 1e-6)
    with pytest.raises(ValueError):
        threshold_numeric(AMPLITUDE_DAMPING, 0.3, 0.0)


def test_threshold_bracket_has_sign_change():
    result = threshold_numeric(AMPLITUDE_DAMPING, PI / 5, 1e-6)
    tol = 1e-6

    def gap(mu):
        kraus = ad_channel(PI / 5, mu)
        return mutual_information_numeric(kraus, theta_ensemble(PI / 4)) - (
            mutual_information_numeric(kraus, theta_ensemble(0.0))
        )

    assert gap(result.mu_t - tol) * gap(result.mu_t + tol) < 0.0


# ----------------------------------------------------------------------
# perfect-memory inequality
# ----------------------------------------------------------------------

def test_inequality_endpoints():
    rows = product_memory_inequality([0.0, PI / 2])
    chi0 = rows[0]
    assert abs(chi0[1] - 2.0) <= 1e-10 and abs(chi0[2] - 2.0) <= 1e-10 and chi0[3]
    chi_max = rows[1]
    assert abs(chi_max[1] - 1.5) <= 1e-10 and abs(chi_max[2]) <= 1e-10 and chi_max[3]


def test_inequality_holds_on_grid():
    grid = np.linspace(0.0, PI / 2, 33)
    rows = product_memory_inequality(grid)
    assert len(rows) == 33
    assert all(holds for _, _, _, holds in rows)
