import math

import numpy as np
import pytest

from memchan import channels
from memchan.channels import (
    AMPLITUDE_DAMPING,
    DEPHASING,
    DEPOLARIZING,
    ChannelParams,
    DensityMatrix,
    KrausSet,
    ad_correlated_kraus2,
    ad_uncorrelated_kraus2,
    amplitude_damping_kraus,
    apply,
    build_memory_channel,
    check_cptp,
    dephasing_correlated_kraus,
    dephasing_uncorrelated_kraus,
    depolarizing_correlated_kraus2,
    depolarizing_uncorrelated_kraus2,
    memory_channel,
    pure_state,
    random_density_matrix,
    transfer_matrix,
)
from memchan.linalg import SIGMA_X, SIGMA_Z

GRID_21 = [i / 20 for i in range(21)]


def basis_state(index, dim=4):
    ket = np.zeros(dim, dtype=complex)
    ket[index] = 1.0
    return pure_state(ket)


# ----------------------------------------------------------------------
# DensityMatrix / KrausSet validation
# ----------------------------------------------------------------------

def test_density_matrix_accepts_valid_state():
    rho = DensityMatrix(np.eye(4) / 4)
    assert rho.dim == 4
    assert np.allclose(rho.eigenvalues, 0.25)


def test_density_matrix_rejects_non_hermitian():
    m = np.eye(2, dtype=complex)
    m[0, 1] = 0.5
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(m)


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2, dtype=complex))


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(ValueError, match="positive"):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))


def test_density_matrix_rejects_odd_dimensions():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(3) / 3)


def test_kraus_set_validation():
    with pytest.raises(ValueError):
        KrausSet(dim=4, ops=())
    with pytest.raises(ValueError):
        KrausSet(dim=4, ops=(np.eye(2),))
    with pytest.raises(ValueError):
        KrausSet(dim=3, ops=(np.eye(3),))


def test_channel_params_validation():
    params = ChannelParams(which=DEPOLARIZING, mu=0.5, p=0.375)
    assert abs(params.eta - 0.5) < 1e-15
    with pytest.raises(ValueError):
        ChannelParams(which="bogus")
    with pytest.raises(ValueError):
        ChannelParams(which=DEPHASING, mu=1.5)
    with pytest.raises(ValueError):
        ChannelParams(which=AMPLITUDE_DAMPING, chi=2.0)
    with pytest.raises(ValueError):
        ChannelParams(which=DEPOLARIZING, p=-0.1)


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------

def test_amplitude_damping_endpoints():
    ops = amplitude_damping_kraus(0.0).ops
    assert np.allclose(ops[0], np.eye(2))
    assert np.allclose(ops[1], 0.0)

    ops = amplitude_damping_kraus(math.pi / 2).ops
    assert np.allclose(ops[0], np.diag([0.0, 1.0]))
    assert np.allclose(ops[1], np.array([[0, 0], [1, 0]]))


def test_amplitude_damping_third_pi():
    ops = amplitude_damping_kraus(math.pi / 3).ops
    assert np.allclose(ops[0], np.diag([0.5, 1.0]))
    assert abs(ops[1][1, 0] - math.sqrt(3) / 2) < 1e-15


def test_amplitude_damping_rejects_out_of_range():
    with pytest.raises(ValueError):
        amplitude_damping_kraus(-0.1)
    with pytest.raises(ValueError):
        amplitude_damping_kraus(math.pi)


def test_dephasing_p_zero_reduces_to_identity():
    for kraus in (dephasing_uncorrelated_kraus(0.0), dephasing_correlated_kraus(0.0)):
        assert np.allclose(kraus.ops[0], np.eye(4))
        for op in kraus.ops[1:]:
            assert np.allclose(op, 0.0)


def test_dephasing_uncorrelated_half_coefficients():
    ops = dephasing_uncorrelated_kraus(0.5).ops
    mags = [float(np.max(np.abs(op))) for op in ops]
    assert np.allclose(mags, [0.5, 0.5, 0.5, 0.5])


def test_dephasing_correlated_p_one():
    ops = dephasing_correlated_kraus(1.0).ops
    assert np.allclose(ops[0], 0.0)
    assert np.allclose(ops[1], np.kron(SIGMA_Z, SIGMA_Z))


def test_ad_uncorrelated_endpoints():
    ops = ad_uncorrelated_kraus2(0.0).ops
    assert np.allclose(ops[0], np.eye(4))
    for op in ops[1:]:
        assert np.allclose(op, 0.0)

    # fully damped: E0 x E0 = |11><11| projector pattern, E1 x E1 = |11><00|
    ops = ad_uncorrelated_kraus2(math.pi / 2).ops
    assert np.allclose(ops[0], np.diag([0, 0, 0, 1.0]))
    expected = np.zeros((4, 4))
    expected[3, 0] = 1.0
    assert np.allclose(ops[3], expected)


def test_ad_uncorrelated_cptp_at_fifth_pi():
    assert check_cptp(ad_uncorrelated_kraus2(math.pi / 5)) <= 1e-12


def test_ad_correlated_endpoints():
    ops = ad_correlated_kraus2(0.0).ops
    assert np.allclose(ops[0], np.eye(4))
    assert np.allclose(ops[1], 0.0)


def test_ad_correlated_leaves_01_untouched():
    rho = basis_state(1)
    for chi in (0.3, math.pi / 5, math.pi / 2):
        out = apply(ad_correlated_kraus2(chi), rho)
        assert np.allclose(out.mat, rho.mat, atol=1e-14)


def test_ad_correlated_fully_damps_00_to_11():
    out = apply(ad_correlated_kraus2(math.pi / 2), basis_state(0))
    assert np.allclose(out.mat, basis_state(3).mat, atol=1e-14)


def test_depolarizing_p_zero():
    unc = depolarizing_uncorrelated_kraus2(0.0)
    assert len(unc.ops) == 16
    assert np.allclose(unc.ops[0], np.eye(4))
    for op in unc.ops[1:]:
        assert np.allclose(op, 0.0)
    cor = depolarizing_correlated_kraus2(0.0)
    assert len(cor.ops) == 4
    assert np.allclose(cor.ops[0], np.eye(4))


def test_depolarizing_cptp_at_p03():
    assert check_cptp(depolarizing_uncorrelated_kraus2(0.3)) <= 1e-12
    assert check_cptp(depolarizing_correlated_kraus2(0.3)) <= 1e-12


def test_depolarizing_correlated_xx_coefficient():
    # p = 3/4 makes p_1 = 1/4, so the XX operator carries 1/2
    ops = depolarizing_correlated_kraus2(0.75).ops
    assert np.allclose(ops[1], 0.5 * np.kron(SIGMA_X, SIGMA_X))


# ----------------------------------------------------------------------
# memory channel
# ----------------------------------------------------------------------

def test_memory_channel_endpoints():
    unc = ad_uncorrelated_kraus2(0.4)
    cor = ad_correlated_kraus2(0.4)
    at_zero = memory_channel(unc, cor, 0.0)
    for got, want in zip(at_zero.ops[:4], unc.ops):
        assert np.allclose(got, want)
    for got in at_zero.ops[4:]:
        assert np.allclose(got, 0.0)

    at_one = memory_channel(unc, cor, 1.0)
    for got in at_one.ops[:4]:
        assert np.allclose(got, 0.0)
    for got, want in zip(at_one.ops[4:], cor.ops):
        assert np.allclose(got, want)


def test_memory_channel_cptp_at_example_point():
    kraus = memory_channel(
        ad_uncorrelated_kraus2(math.pi / 5), ad_correlated_kraus2(math.pi / 5), 0.4
    )
    assert check_cptp(kraus) <= 1e-12


def test_memory_channel_rejects_bad_inputs():
    with pytest.raises(ValueError, match="dimension"):
        memory_channel(amplitude_damping_kraus(0.1), ad_correlated_kraus2(0.1), 0.5)
    with pytest.raises(ValueError):
        memory_channel(ad_uncorrelated_kraus2(0.1), ad_correlated_kraus2(0.1), 1.5)


def test_memory_channel_is_convex_mixture():
    rng = np.random.default_rng(7)
    unc = ad_uncorrelated_kraus2(0.9)
    cor = ad_correlated_kraus2(0.9)
    for mu in (0.0, 0.25, 0.5, 0.75, 1.0):
        mixed = memory_channel(unc, cor, mu)
        for _ in range(5):
            rho = random_density_matrix(4, rng)
            direct = apply(mixed, rho).mat
            convex = (1 - mu) * apply(unc, rho).mat + mu * apply(cor, rho).mat
            assert np.linalg.norm(direct - convex) <= 1e-12


def test_memory_channel_mu_zero_factorizes_on_products():
    rng = np.random.default_rng(8)
    chi = 0.7
    two_use = build_memory_channel(ChannelParams(which=AMPLITUDE_DAMPING, mu=0.0, chi=chi))
    single = amplitude_damping_kraus(chi)
    for _ in range(5):
        rho_a = random_density_matrix(2, rng)
        rho_b = random_density_matrix(2, rng)
        product = DensityMatrix(np.kron(rho_a.mat, rho_b.mat))
        lhs = apply(two_use, product).mat
        rhs = np.kron(apply(single, rho_a).mat, apply(single, rho_b).mat)
        assert np.linalg.norm(lhs - rhs) <= 1e-12


def test_correlated_damping_invariant_subspace():
    # anything supported on span{|01>, |10>, |11>} passes through untouched
    rng = np.random.default_rng(9)
    for chi in (0.2, math.pi / 4, math.pi / 2):
        kraus = ad_correlated_kraus2(chi)
        for _ in range(5):
            ket = np.zeros(4, dtype=complex)
            ket[1:] = rng.normal(size=3) + 1j * rng.normal(size=3)
            rho = pure_state(ket)
            out = apply(kraus, rho)
            assert np.linalg.norm(out.mat - rho.mat) <= 1e-13


# ----------------------------------------------------------------------
# apply / check_cptp
# ----------------------------------------------------------------------

def test_apply_identity_channel():
    rng = np.random.default_rng(10)
    rho = random_density_matrix(4, rng)
    out = apply(KrausSet(dim=4, ops=(np.eye(4, dtype=complex),)), rho)
    assert np.allclose(out.mat, rho.mat)


def test_apply_correlated_dephasing_stabilizes_bell_state():
    phi_plus = pure_state(np.array([1, 0, 0, 1], dtype=complex))
    out = apply(dephasing_correlated_kraus(0.5), phi_plus)
    assert np.linalg.norm(out.mat - phi_plus.mat) <= 1e-14


def test_apply_preserves_state_invariants():
    rng = np.random.default_rng(13)
    cases = [
        amplitude_damping_kraus(1.1),
        ad_uncorrelated_kraus2(0.8),
        ad_correlated_kraus2(0.8),
        dephasing_uncorrelated_kraus(0.35),
        depolarizing_uncorrelated_kraus2(0.6),
        memory_channel(
            depolarizing_uncorrelated_kraus2(0.6), depolarizing_correlated_kraus2(0.6), 0.3
        ),
    ]
    for kraus in cases:
        for _ in range(10):
            rho = random_density_matrix(kraus.dim, rng)
            out = apply(kraus, rho)  # construction re-checks Hermiticity/positivity
            assert abs(np.trace(out.mat).real - 1.0) <= 1e-12
            assert out.eigenvalues[0] >= -1e-10


def test_apply_rejects_dimension_mismatch():
    rng = np.random.default_rng(14)
    with pytest.raises(ValueError, match="dim"):
        apply(amplitude_damping_kraus(0.3), random_density_matrix(4, rng))


def test_apply_rejects_incomplete_kraus_set():
    rng = np.random.default_rng(15)
    e0 = amplitude_damping_kraus(math.pi / 4).ops[0]
    broken = KrausSet(dim=2, ops=(e0,))
    with pytest.raises(ValueError, match="trace preserving"):
        apply(broken, random_density_matrix(2, rng))


def test_check_cptp_examples():
    assert check_cptp(KrausSet(dim=4, ops=(np.eye(4, dtype=complex),))) == 0.0
    for chi in (0.0, 0.4, 1.2, math.pi / 2):
        assert check_cptp(amplitude_damping_kraus(chi)) <= 1e-15
    # deliberately incomplete set: only the no-decay operator
    e0 = amplitude_damping_kraus(math.pi / 4).ops[0]
    assert check_cptp(KrausSet(dim=2, ops=(e0,))) > 0.4


def test_transfer_matrix_acts_like_apply():
    # the uncorrelated depolarizing set has complex operators (I x Y), so a
    # missing conjugate in kron(K, conj(K)) shows here
    rng = np.random.default_rng(16)
    for kraus in (
        amplitude_damping_kraus(1.1),
        ad_correlated_kraus2(0.8),
        depolarizing_uncorrelated_kraus2(0.6),
    ):
        t = transfer_matrix(kraus)
        assert t.shape == (kraus.dim**2, kraus.dim**2)
        for _ in range(5):
            rho = random_density_matrix(kraus.dim, rng)
            direct = apply(kraus, rho).mat.reshape(-1)
            assert np.linalg.norm(t @ rho.mat.reshape(-1) - direct) <= 1e-12


@pytest.mark.parametrize(
    "builder,scale_param",
    [
        (amplitude_damping_kraus, math.pi / 2),
        (ad_uncorrelated_kraus2, math.pi / 2),
        (ad_correlated_kraus2, math.pi / 2),
        (dephasing_uncorrelated_kraus, 1.0),
        (dephasing_correlated_kraus, 1.0),
        (depolarizing_uncorrelated_kraus2, 1.0),
        (depolarizing_correlated_kraus2, 1.0),
    ],
)
def test_constructor_cptp_grids(builder, scale_param):
    for x in GRID_21:
        assert check_cptp(builder(x * scale_param)) <= 1e-12


def test_memory_channel_cptp_grids():
    for family, scale_param in (
        (AMPLITUDE_DAMPING, math.pi / 2),
        (DEPHASING, 1.0),
        (DEPOLARIZING, 1.0),
    ):
        for mu in GRID_21:
            for x in (0.0, 0.25, 0.5, 0.75, 1.0):
                if family == AMPLITUDE_DAMPING:
                    params = ChannelParams(which=family, mu=mu, chi=x * scale_param)
                else:
                    params = ChannelParams(which=family, mu=mu, p=x)
                assert check_cptp(build_memory_channel(params)) <= 1e-12
