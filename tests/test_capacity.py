import math
import re
import types

import numpy as np
import pytest

from memchan import capacity, channels
from memchan.capacity import (
    I2Kernel,
    InputEnsemble,
    depolarizing_threshold_closed,
    i2_ad_closed,
    i2_depolarizing_closed,
    i2_grid,
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
    amplitude_damping_kraus,
    apply,
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
    qubit = pure_state(np.array([1, 0], dtype=complex))
    with pytest.raises(ValueError, match=re.escape("one dimension, got dimensions [2, 4]")):
        InputEnsemble(probs=(0.5, 0.5), states=(qubit, state))


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


def test_entropy_refuses_a_nan_eigenvalue():
    # the clamps into [0, 1] would otherwise read NaN as a zero eigenvalue
    with pytest.raises(ArithmeticError, match="NaN"):
        capacity._entropy_bits(np.array([math.nan, 1.0]))


@pytest.mark.parametrize(
    "s_avg, s_outputs",
    [(math.nan, [0.0] * 4), (np.array([1.0, math.nan]), [np.zeros(2)] * 4)],
    ids=["scalar", "one_of_a_slice"],
)
def test_holevo_refuses_nan(s_avg, s_outputs):
    # a NaN difference is not rounding below 0, so it must not read 0
    with pytest.raises(ArithmeticError, match="negative beyond tolerance"):
        capacity._holevo(s_avg, s_outputs, (0.25,) * 4)


# ----------------------------------------------------------------------
# numeric mutual information
# ----------------------------------------------------------------------

def test_i2_identity_channel_is_two():
    identity = KrausSet((np.eye(4, dtype=complex),))
    for theta in (0.0, 0.3, PI / 4):
        assert abs(mutual_information_numeric(identity, theta_ensemble(theta)) - 2.0) <= 1e-10


def test_i2_fully_damped_uncorrelated_collapses():
    value = mutual_information_numeric(ad_channel(PI / 2, 0.0), theta_ensemble(0.0))
    assert abs(value) <= 1e-12


def test_i2_fully_damped_correlated_is_three_halves():
    value = mutual_information_numeric(ad_channel(PI / 2, 1.0), theta_ensemble(0.0))
    assert abs(value - 1.5) <= 1e-12


def test_i2_dimension_mismatch():
    single = KrausSet((np.eye(2, dtype=complex),))
    with pytest.raises(ValueError, match="dim"):
        mutual_information_numeric(single, theta_ensemble(0.0))


def _reference_i2(kraus, ensemble):
    """I2 by the per-state formula the scalar path replaced: apply the channel
    to each state, build the average as a DensityMatrix, and take each entropy
    with von_neumann_entropy."""
    outputs = [apply(kraus, state) for state in ensemble.states]
    avg = sum(q * out.mat for q, out in zip(ensemble.probs, outputs))
    s_avg = von_neumann_entropy(DensityMatrix(avg))
    s_outputs = [von_neumann_entropy(out) for out in outputs]
    return float(capacity._holevo(s_avg, s_outputs, ensemble.probs))


@pytest.mark.parametrize(
    "family,scale_param",
    [(AMPLITUDE_DAMPING, PI / 2), (DEPHASING, 1.0), (DEPOLARIZING, 1.0)],
    ids=["ad", "dephasing", "dp"],
)
def test_i2_matches_per_state_reference(family, scale_param):
    # the 11x11x5 grids of acceptance criterion 3
    ensembles = [theta_ensemble(PI / 2 * i / 4) for i in range(5)]
    for param in (scale_param * i / 10 for i in range(11)):
        for mu in (i / 10 for i in range(11)):
            kraus = family_channel(family, param, mu)
            for ensemble in ensembles:
                ref = _reference_i2(kraus, ensemble)
                value = mutual_information_numeric(kraus, ensemble)
                assert abs(value - ref) <= 1e-14, (param, mu, ref - value)


def test_i2_single_qubit_matches_per_state_reference():
    kraus = amplitude_damping_kraus(0.7)
    ensemble = InputEnsemble(
        probs=(0.3, 0.7),
        states=(pure_state(np.array([1, 0])), pure_state(np.array([1, 1j]))),
    )
    value = mutual_information_numeric(kraus, ensemble)
    assert value > 0.1
    assert abs(value - _reference_i2(kraus, ensemble)) <= 1e-14


def test_i2_takes_every_spectrum_in_one_eigensolve(monkeypatch):
    kraus, ensemble = ad_channel(0.7, 0.4), theta_ensemble(PI / 8)
    stacks = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: stacks.append(a.copy()) or eigvalsh(a))
    mutual_information_numeric(kraus, ensemble)
    (stack,) = stacks
    assert stack.shape == (5, 4, 4)


@pytest.mark.parametrize("excess", [1e-13, 1e-9])
def test_i2_negative_difference(monkeypatch, excess):
    # each of the four outputs reads `excess` more entropy than the ensemble
    # average, the last of the five spectra the scalar path takes, so the
    # difference is about -excess
    def entropies(spectra):
        return np.where(np.arange(5) < 4, 1.0 + excess, 1.0)

    monkeypatch.setattr(capacity, "_entropy_bits", entropies)
    identity = KrausSet((np.eye(4, dtype=complex),))
    if excess < capacity.TERM_NEGATIVE_TOL:
        assert mutual_information_numeric(identity, theta_ensemble(0.0)) == 0.0
    else:
        with pytest.raises(ArithmeticError, match="negative"):
            mutual_information_numeric(identity, theta_ensemble(0.0))


# ----------------------------------------------------------------------
# batched I2 kernel
# ----------------------------------------------------------------------

EDGE_MUS = [0.0, 0.35, 1.0]
EDGE_THETAS = [0.0, PI / 8, PI / 4, 3 * PI / 8, PI / 2]


@pytest.mark.parametrize(
    "family,params",
    [
        (AMPLITUDE_DAMPING, [0.0, 0.7, PI / 2]),
        (DEPHASING, [0.0, 0.4, 1.0]),
        (DEPOLARIZING, [0.0, 0.4, 0.75, 1.0]),
    ],
    ids=["ad", "dephasing", "dp"],
)
def test_i2_grid_matches_scalar_reference(family, params):
    grid = i2_grid(family, EDGE_MUS, params, EDGE_THETAS)
    assert grid.shape == (len(EDGE_MUS), len(params), len(EDGE_THETAS))
    for i, mu in enumerate(EDGE_MUS):
        for j, param in enumerate(params):
            kraus = family_channel(family, param, mu)
            for k, theta in enumerate(EDGE_THETAS):
                ref = mutual_information_numeric(kraus, theta_ensemble(theta))
                assert abs(grid[i, j, k] - ref) <= 1e-12, (family, mu, param, theta)


@pytest.mark.parametrize("mu", [-0.1, 1.0 + 1e-9, math.nan, math.inf])
def test_i2_kernel_rejects_mu_outside_unit_interval(mu):
    kernel = I2Kernel(AMPLITUDE_DAMPING, [0.5], [0.0])
    with pytest.raises(ValueError, match="mu"):
        kernel.at(mu)
    with pytest.raises(ValueError, match="mu"):
        i2_grid(DEPOLARIZING, [0.5, mu], [0.3], [0.0])


def test_i2_kernel_rejects_branch_that_is_not_trace_preserving(monkeypatch):
    original = channels.ad_correlated_kraus2

    def leaky(chi):
        e00, e11 = (op.copy() for op in original(chi).ops)
        e11[3, 0] *= 1.001
        return KrausSet((e00, e11))

    monkeypatch.setattr(channels, "ad_correlated_kraus2", leaky)
    residual = leaky(0.9).completeness_residual
    assert residual > channels.CPTP_APPLY_TOL
    with pytest.raises(ValueError, match=f"not trace preserving: residual {residual:.3e}"):
        I2Kernel(AMPLITUDE_DAMPING, [0.9], [0.0])


@pytest.mark.parametrize("bound", [math.nan, math.inf], ids=["nan", "inf"])
def test_i2_kernel_refuses_a_nan_branch_bound(monkeypatch, bound):
    original = capacity.memory_branch_bound
    monkeypatch.setattr(
        capacity,
        "memory_branch_bound",
        lambda family, param: (bound, original(family, param)[1]),
    )
    with pytest.raises(ValueError, match=f"not trace preserving: residual {bound}"):
        I2Kernel(AMPLITUDE_DAMPING, [0.9], [0.0])


def test_i2_kernel_rejects_outputs_that_are_not_states(monkeypatch):
    # the partial transpose on the second qubit preserves the trace but maps
    # a Bell state to a matrix with eigenvalue -1/2
    partial_transpose = np.zeros((16, 16))
    for a, b, c, d in np.ndindex(2, 2, 2, 2):
        partial_transpose[(2 * a + d) * 4 + 2 * c + b, (2 * a + b) * 4 + 2 * c + d] = 1.0
    branch = types.SimpleNamespace(completeness_residual=0.0, transfer=partial_transpose)
    monkeypatch.setattr(channels, "memory_branches", lambda family, param: (branch, branch))
    kernel = I2Kernel(DEPHASING, [0.3], [0.0, PI / 4])
    with pytest.raises(ValueError, match="positive semidefinite: min eigenvalue -5.000e-01"):
        kernel.at(0.5)


def _not_hermitian_transfer():
    # the identity, plus <0|rho|0> copied into the (0, 1) entry: |00><00| maps
    # to a matrix with ||m - m*||_F = sqrt(2)
    transfer = np.eye(16)
    transfer[1, 0] = 1.0
    return transfer


@pytest.mark.parametrize("bad_branch", [0, 1], ids=["uncorrelated", "correlated"])
@pytest.mark.parametrize(
    "message,transfer",
    [
        ("density matrix has non-finite entries", np.full((16, 16), np.nan)),
        ("matrix is not Hermitian: residual 1.414e+00", _not_hermitian_transfer()),
        ("trace must be 1, got 1.5+0j", 1.5 * np.eye(16)),
    ],
    ids=["non-finite", "not-hermitian", "trace"],
)
def test_i2_kernel_certifies_branch_outputs_once(monkeypatch, bad_branch, message, transfer):
    # a branch output that fails a form check fails the kernel on
    # construction, with density_spectra's message, before any slice
    good = types.SimpleNamespace(completeness_residual=0.0, transfer=np.eye(16))
    bad = types.SimpleNamespace(completeness_residual=0.0, transfer=transfer)
    branches = (bad, good) if bad_branch == 0 else (good, bad)
    monkeypatch.setattr(channels, "memory_branches", lambda family, param: branches)
    with pytest.raises(ValueError, match=re.escape(message)):
        channels.density_spectra((transfer @ np.diag([1.0, 0, 0, 0]).reshape(-1)).reshape(4, 4))
    with pytest.raises(ValueError, match=re.escape(message)):
        I2Kernel(DEPHASING, [0.3], [0.0])


def _form_defects(stack):
    """Largest ||m - m*||_F and |tr m - 1| over a (..., 16) stack of
    row-major vectorized 4x4 matrices."""
    m = stack.reshape(-1, 4, 4)
    herm = np.linalg.norm(m - m.conj().swapaxes(-1, -2), axis=(-2, -1))
    return float(herm.max()), float(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0).max())


@pytest.mark.parametrize(
    "family,scale_param",
    [(AMPLITUDE_DAMPING, PI / 2), (DEPHASING, 1.0), (DEPOLARIZING, 1.0)],
)
def test_i2_kernel_branch_certificate_covers_every_slice(monkeypatch, family, scale_param):
    # an output's anti-Hermitian part and trace - 1 are affine in mu, and an
    # average's are convex combinations of the outputs', so the stack each
    # slice hands to eigvalsh is no further from Hermitian and unit trace
    # than the branch outputs are, up to rounding
    thetas = [0.0, PI / 8, PI / 4, 3 * PI / 8, PI / 2]
    inputs = np.array([[s.mat.reshape(-1) for s in theta_ensemble(t).states] for t in thetas])
    stacks = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: stacks.append(a.copy()) or eigvalsh(a))
    for x in (0.0, 0.1, 0.35, 0.6, 0.85, 1.0):
        param = x * scale_param
        branch_outputs = [
            inputs @ branch.transfer.T for branch in channels.memory_branches(family, param)
        ]
        herm_bound, trace_bound = (max(d) for d in zip(*map(_form_defects, branch_outputs)))
        kernel = I2Kernel(family, [param], thetas)
        for mu in (i / 40 for i in range(41)):
            stacks.clear()
            kernel.at(mu)
            (stack,) = stacks
            herm, trace = _form_defects(stack)
            assert herm <= herm_bound + 2e-15, (param, mu)
            assert trace <= trace_bound + 2e-15, (param, mu)


def _reference_i2_grid(family, mus, params, thetas):
    """I2[mu, param, theta] by the per-slice formula the kernel replaced:
    mix the branch outputs, sum the average in Python, concatenate, and check
    and diagonalize with density_spectra."""
    ensembles = [theta_ensemble(theta) for theta in thetas]
    probs = np.reshape([e.probs for e in ensembles], (len(thetas), 4)).T
    inputs = np.reshape([[s.mat for s in e.states] for e in ensembles], (len(thetas), 4, 16))
    pairs = np.reshape(
        [[b.transfer for b in channels.memory_branches(family, p)] for p in params],
        (len(params), 2, 16, 16),
    )
    unc = np.einsum("pij,tsj->ptsi", pairs[:, 0], inputs)
    cor = np.einsum("pij,tsj->ptsi", pairs[:, 1], inputs)
    slices = []
    for mu in mus:
        outputs = (1.0 - mu) * unc + mu * cor
        avg = sum(q[:, None] * outputs[:, :, i] for i, q in enumerate(probs))
        stack = np.concatenate((outputs, avg[:, :, None]), axis=2)
        spectra = channels.density_spectra(stack.reshape(stack.shape[:3] + (4, 4)))
        entropies = capacity._entropy_bits(spectra)
        slices.append(
            capacity._holevo(entropies[..., 4], np.moveaxis(entropies[..., :4], -1, 0), probs)
        )
    return np.array(slices)


@pytest.mark.parametrize(
    "family,params",
    [
        (AMPLITUDE_DAMPING, [0.0, 0.3, 0.7, 1.2, PI / 2]),
        (DEPHASING, [0.0, 0.15, 0.4, 0.8, 1.0]),
        (DEPOLARIZING, [0.0, 0.2, 0.5, 0.75, 1.0]),
    ],
    ids=["ad", "dephasing", "dp"],
)
def test_i2_grid_is_bitwise_the_per_slice_formula(family, params):
    mus = [0.0, 0.1, 0.35, 0.5, 0.8, 1.0]
    grid = i2_grid(family, mus, params, EDGE_THETAS)
    assert np.array_equal(grid, _reference_i2_grid(family, mus, params, EDGE_THETAS))


@pytest.mark.parametrize("family", [AMPLITUDE_DAMPING, DEPHASING, DEPOLARIZING])
def test_i2_kernel_branch_outputs_are_state_major_and_contiguous(family):
    # numpy buffers a ufunc whose operands are not contiguous alike, so every
    # slice operand is a C-contiguous (state, param, theta, 16) array; the
    # families' transfers are exactly real, so every buffer is float64
    params, thetas = [0.1, 0.5, 0.9], [0.0, PI / 4]
    kernel = I2Kernel(family, params, thetas)
    for branch in (kernel._unc, kernel._cor):
        assert branch.shape == (4, len(params), len(thetas), 16)
        assert branch.flags.c_contiguous
        assert branch.dtype == np.float64
    assert kernel._stack.dtype == np.float64


def test_i2_kernel_keeps_a_complex_branch_complex(monkeypatch):
    # a branch transfer with a nonzero imaginary part keeps the kernel's
    # buffers complex, and I2 still matches the scalar path
    original = channels.memory_branches

    def rotated(family, param):
        # conjugation by a phase gate on the first use: K -> P K P*
        unc, cor = original(family, param)
        phase = np.diag([1.0, 1.0, np.exp(0.3j), np.exp(0.3j)])
        return unc, KrausSet(phase @ cor.ops @ phase.conj().T)

    monkeypatch.setattr(channels, "memory_branches", rotated)
    kernel = I2Kernel(DEPOLARIZING, [0.3], [PI / 8])
    assert kernel._unc.dtype == kernel._cor.dtype == kernel._stack.dtype == np.complex128
    kraus = channels.memory_channel(*rotated(DEPOLARIZING, 0.3), 0.5)
    value = mutual_information_numeric(kraus, theta_ensemble(PI / 8))
    assert abs(kernel.at(0.5)[0, 0] - value) <= 1e-12


@pytest.mark.parametrize("excess", [1e-13, 1e-9])
def test_i2_kernel_negative_difference(monkeypatch, excess):
    # as in test_i2_negative_difference: each of the four outputs reads
    # `excess` more entropy than the ensemble average, the last of the five
    # (state, param, theta) spectra stacks the kernel takes per slice
    def entropies(spectra):
        first_four = np.arange(5)[:, None, None] < 4
        return np.where(first_four, 1.0 + excess, 1.0) * np.ones(spectra.shape[:-1])

    monkeypatch.setattr(capacity, "_entropy_bits", entropies)
    kernel = I2Kernel(DEPHASING, [0.2, 0.6], [0.0, PI / 4])
    if excess < capacity.TERM_NEGATIVE_TOL:
        assert np.all(kernel.at(0.5) == 0.0)
    else:
        with pytest.raises(ArithmeticError, match="negative"):
            kernel.at(0.5)


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


def _output_spectra(kraus, theta):
    """Ascending spectra of the four ensemble outputs, then of their average."""
    ensemble = theta_ensemble(theta)
    outputs = [apply(kraus, state) for state in ensemble.states]
    avg = DensityMatrix(sum(q * out.mat for q, out in zip(ensemble.probs, outputs)))
    return [out.eigenvalues for out in outputs] + [avg.eigenvalues]


def test_closed_form_groups_are_the_output_spectra():
    # I2 alone could hide compensating errors between term groups, so each
    # sorted group must equal the spectrum it stands for, on verify's
    # 11 x 11 x 5 grids: t the average output, u and v outputs 0 and 1, w
    # (padded with two zeros) outputs 2 and 3, and e every dp output
    mus = [i / 10 for i in range(11)]
    thetas = [PI / 2 * i / 4 for i in range(5)]
    gaps, points = [], []
    for mu in mus:
        for x in (i / 10 for i in range(11)):
            chi = PI / 2 * x
            ad, dp = ad_channel(chi, mu), dp_channel(x, mu)
            for theta in thetas:
                g = i2_ad_closed(chi, mu, theta)[1].terms
                out0, out1, out2, out3, avg = _output_spectra(ad, theta)
                w = g["w"] + (0.0, 0.0)
                pairs = [(g["t"], avg), (g["u"], out0), (g["v"], out1), (w, out2), (w, out3)]
                e = i2_depolarizing_closed(x, mu, theta)[1].terms["e"]
                pairs += [(e, out) for out in _output_spectra(dp, theta)[:4]]
                gaps += [np.max(np.abs(np.sort(group) - spectrum)) for group, spectrum in pairs]
                points += [(x, mu, theta)] * len(pairs)
    worst = int(np.argmax(gaps))  # the first NaN, if there is one
    assert gaps[worst] <= 1e-12, (gaps[worst], points[worst])


@pytest.mark.parametrize(
    "name, values, want",
    [
        ("t", (1.0, -2e-12), r"t term -2e-12 is negative beyond tolerance"),
        ("t", (math.nan, 1.0), r"t term nan is negative beyond tolerance"),
        ("t", (math.inf, 1.0), r"t terms sum to inf, expected 1\.0"),
        ("t", (-math.inf, 1.0), r"t term -inf is negative beyond tolerance"),
        ("u", (0.5, 0.25, 0.25, 1e-6), r"u terms sum to 1\.000001, expected 1\.0"),
        (
            "w",
            (1.0, -capacity.TERM_NEGATIVE_TOL, capacity.TERM_CLAMP / 2),
            ((1.0, 0.0, 0.0), 0.0),
        ),
        ("e", (0.5, 0.25, 0.25), ((0.5, 0.25, 0.25), -1.5)),
    ],
    ids=["negative", "nan", "inf", "neg_inf", "sum_off", "reads_zero", "entropy_term"],
)
def test_closed_form_group_rule(name, values, want):
    # a string is the error the group must raise, a tuple its (terms, sum of
    # x log2 x); a NaN term fails every ordered comparison, so only a gate
    # written as `not v >= -tol` stops it
    if isinstance(want, str):
        with pytest.raises(ArithmeticError, match=want):
            capacity._group(name, values)
    else:
        assert capacity._group(name, values) == want


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


def test_threshold_stops_on_adjacent_doubles(monkeypatch):
    # a gap of +-1 around 1/3 is never exactly 0, so once the bracket ends
    # are adjacent doubles only the midpoint test can end the bisection
    evaluations = []

    class SignKernel:
        def __init__(self, family, params, thetas):
            assert list(thetas) == [PI / 4, 0.0]

        def at(self, mu):
            evaluations.append(mu)
            if len(evaluations) > 2000:
                raise RuntimeError("bisection does not terminate")
            return np.array([[1.0 if mu > 1.0 / 3.0 else -1.0, 0.0]])

    monkeypatch.setattr(capacity, "I2Kernel", SignKernel)
    result = threshold_numeric(DEPOLARIZING, 0.3, 1e-300)
    lo, hi = result.bracket
    assert lo <= 1.0 / 3.0 < hi
    assert hi == np.nextafter(lo, 1.0)
    assert result.iterations == len(evaluations) - 17


@pytest.mark.parametrize(
    "raw,reason",
    [
        ([0.0] + [1e-3] * 16, "edge"),
        ([1e-13] + [-1e-3] * 16, "edge"),
        ([-5e-13] + [4e-12] * 16, "below_noise_floor"),
        ([0.0, -2e-16] + [0.0] * 15, "none"),
        ([0.0, 1e-3, 0.0] + [1e-3] * 14, "none"),
    ],
    ids=["zero_then_positive", "noise_then_negative", "inside_floor", "rounding", "inner_zero"],
)
def test_threshold_null_reason(monkeypatch, raw, reason):
    gaps = iter(raw)

    class SeedKernel:
        def __init__(self, family, params, thetas):
            pass

        def at(self, mu):
            return np.array([[next(gaps), 0.0]])

    monkeypatch.setattr(capacity, "I2Kernel", SeedKernel)
    result = threshold_numeric(DEPOLARIZING, 0.3, 1e-6)
    assert (result.mu_t, result.bracket, result.iterations) == (None, (0.0, 1.0), 0)
    assert result.reason == reason


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
