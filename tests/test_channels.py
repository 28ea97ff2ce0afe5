import functools
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
)
from memchan.linalg import PAULIS, SIGMA_X, SIGMA_Z

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


@pytest.mark.parametrize(
    "bad,cells",
    [(np.nan, ((0, 1), (1, 0))), (np.inf, ((0, 1), (1, 0))), (np.inf, ((0, 1),))],
    ids=["nan", "inf", "inf_one_sided"],
)
def test_density_matrix_rejects_non_finite(bad, cells):
    m = np.eye(2, dtype=complex) / 2
    for cell in cells:
        m[cell] = bad
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(m)


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2, dtype=complex))


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(ValueError, match="positive"):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))


def test_density_spectra_checks_every_matrix_of_a_stack():
    good = np.array([np.eye(4) / 4, np.diag([1.0, 0, 0, 0])], dtype=complex)
    assert np.allclose(channels.density_spectra(good), [[0.25] * 4, [0, 0, 0, 1]])
    not_hermitian = np.diag([1.0, 0, 0, 0]).astype(complex)
    not_hermitian[0, 1] = 1e-6
    for message, second in (
        ("non-finite", np.diag([np.nan, 1.0, 0, 0])),
        ("not Hermitian: residual 1.414e-06", not_hermitian),  # sqrt(2) * 1e-6
        ("trace must be 1, got 1.001", np.diag([1.0, 0, 0, 1e-3])),
        ("min eigenvalue -2.000e-01", np.diag([1.2, -0.2, 0, 0])),
    ):
        bad = good.copy()
        bad[1] = second
        with pytest.raises(ValueError, match=message):
            channels.density_spectra(bad)


@pytest.mark.parametrize("lowest", [math.nan, -math.inf], ids=["nan", "neg_inf"])
def test_positive_spectra_refuses_a_nan_eigenvalue(lowest):
    with pytest.raises(ValueError, match=f"positive semidefinite: min eigenvalue {lowest}"):
        channels.check_positive_spectra(np.array([lowest, 1.0]))


def test_density_matrix_rejects_odd_dimensions():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(3) / 3)


def test_kraus_set_validation():
    assert KrausSet((np.eye(2),)).dim == 2
    assert KrausSet((np.eye(4), np.zeros((4, 4)))).dim == 4
    for ops in ((), (np.eye(4), np.eye(2)), (np.eye(3),)):
        with pytest.raises(ValueError, match="all 2x2 or all 4x4"):
            KrausSet(ops)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_kraus_set_rejects_non_finite_operators(bad):
    op = np.eye(4, dtype=complex)
    op[3, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        KrausSet((np.eye(4), op))


@pytest.mark.parametrize(
    "entry, residual", [(1e200 + 1e200j, math.nan), (1e200, math.inf)], ids=["nan", "inf"]
)
def test_require_trace_preserving_refuses_a_nan_residual(entry, residual):
    # finite operators whose K*K overflows: inf - inf makes the residual NaN,
    # and a real entry, with no imaginary part to cancel, makes it inf
    kraus = KrausSet((np.full((2, 2), entry),))
    assert np.array_equal(kraus.completeness_residual, residual, equal_nan=True)
    with pytest.raises(ValueError, match=f"not trace preserving: residual {residual}"):
        kraus.require_trace_preserving()


def test_channel_params_validation():
    ChannelParams(which=DEPOLARIZING, mu=0.5, p=0.375)
    with pytest.raises(ValueError):
        ChannelParams(which="bogus")
    with pytest.raises(ValueError):
        ChannelParams(which=DEPHASING, mu=1.5)
    with pytest.raises(ValueError):
        ChannelParams(which=AMPLITUDE_DAMPING, chi=2.0)
    with pytest.raises(ValueError):
        ChannelParams(which=DEPOLARIZING, p=-0.1)
    # a value in the field the family does not use would be ignored, so it is refused
    with pytest.raises(ValueError, match="family 'dephasing' takes no chi, got 0.3"):
        ChannelParams(which=DEPHASING, mu=0.5, chi=0.3)
    with pytest.raises(ValueError, match="family 'ad' takes no p, got 0.25"):
        ChannelParams(which=AMPLITUDE_DAMPING, chi=0.3, p=0.25)
    # for_family sets exactly the field channels.FAMILIES names, the other stays 0.0
    for family, name in channels.FAMILIES.items():
        params = ChannelParams.for_family(family, 0.625, 0.25)
        assert (params.which, params.mu) == (family, 0.25)
        assert {"chi": params.chi, "p": params.p} == {"chi": 0.0, "p": 0.0, name: 0.625}
    assert channels.FAMILIES == {AMPLITUDE_DAMPING: "chi", DEPHASING: "p", DEPOLARIZING: "p"}
    with pytest.raises(ValueError, match="unknown channel family 'bogus'"):
        ChannelParams.for_family("bogus", 0.5)


# ----------------------------------------------------------------------
# grid
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(channels.DOMAINS))
def test_grid_ends_exactly_on_its_domain(name):
    # hi * i / (count - 1) lands one ulp above pi/2 at i = count - 1 for counts
    # 14, 27, 48 and 53 among others; the grid's ends never round
    lo, hi = channels.DOMAINS[name]
    for count in range(1, 401):
        points = channels.grid(lo, hi, count)
        assert len(points) == count
        assert (points[0], points[-1]) == (lo, lo if count == 1 else hi)
        assert all(lo <= x <= hi for x in points)
        assert points == sorted(points)


def test_grid_interior_points():
    assert channels.grid(0.0, 1.0, 5) == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert channels.grid(0.25, 0.75, 3) == [0.25, 0.5, 0.75]
    assert channels.grid(0.3, 0.9, 1) == [0.3]
    with pytest.raises(ValueError, match="grid count must be at least 1, got 0"):
        channels.grid(0.0, 1.0, 0)


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
    with pytest.raises(ValueError, match="all 2x2 or all 4x4"):
        memory_channel(amplitude_damping_kraus(0.1), ad_correlated_kraus2(0.1), 0.5)
    with pytest.raises(ValueError):
        memory_channel(ad_uncorrelated_kraus2(0.1), ad_correlated_kraus2(0.1), 1.5)


# Each set written out operator by operator, as tuples of np.kron products
# with math.sqrt(q_i * q_j) weights; the stacks the builders make as one array
# expression must equal these entry for entry.  The Pauli sets take sigma_y as
# XZ = -i sigma_y, real like every other operator, and
# test_pauli_kraus_operators_are_the_pauli_products_up_to_a_phase pins that phase.
KRAUS_PAULIS = (PAULIS[0], PAULIS[1], PAULIS[1] @ PAULIS[3], PAULIS[3])


def _damping_ops(chi):
    return (
        np.array([[math.cos(chi), 0.0], [0.0, 1.0]], dtype=complex),
        np.array([[0.0, 0.0], [math.sin(chi), 0.0]], dtype=complex),
    )


def _ad_uncorrelated_ops(chi):
    single = _damping_ops(chi)
    return tuple(np.kron(a, b) for a in single for b in single)


def _ad_correlated_ops(chi):
    e00 = np.diag([math.cos(chi), 1.0, 1.0, 1.0]).astype(complex)
    e11 = np.zeros((4, 4), dtype=complex)
    e11[3, 0] = math.sin(chi)
    return e00, e11


def _pauli_weight_pairs(p, errors):
    return ((0, 1.0 - p),) + tuple((k, p / len(errors)) for k in errors)


def _pauli_uncorrelated_ops(p, errors, paulis=KRAUS_PAULIS):
    weights = _pauli_weight_pairs(p, errors)
    return tuple(
        math.sqrt(qi * qj) * np.kron(paulis[i], paulis[j])
        for i, qi in weights
        for j, qj in weights
    )


def _pauli_correlated_ops(p, errors, paulis=KRAUS_PAULIS):
    weights = _pauli_weight_pairs(p, errors)
    return tuple(math.sqrt(q) * np.kron(paulis[k], paulis[k]) for k, q in weights)


_BRANCH_OPS = {
    AMPLITUDE_DAMPING: (_ad_uncorrelated_ops, _ad_correlated_ops),
    DEPHASING: (
        lambda p: _pauli_uncorrelated_ops(p, (3,)),
        lambda p: _pauli_correlated_ops(p, (3,)),
    ),
    DEPOLARIZING: (
        lambda p: _pauli_uncorrelated_ops(p, (1, 2, 3)),
        lambda p: _pauli_correlated_ops(p, (1, 2, 3)),
    ),
}


def _memory_ops(family, mu, param):
    unc_ops, cor_ops = _BRANCH_OPS[family]
    wu, wc = math.sqrt(1.0 - mu), math.sqrt(mu)
    return tuple(wu * op for op in unc_ops(param)) + tuple(wc * op for op in cor_ops(param))


def _memory_build(family, mu, param):
    return build_memory_channel(ChannelParams.for_family(family, param, mu))


_STACK_CASES = {
    "amplitude_damping": (amplitude_damping_kraus, _damping_ops, math.pi / 2),
    "ad_uncorrelated": (ad_uncorrelated_kraus2, _ad_uncorrelated_ops, math.pi / 2),
    "ad_correlated": (ad_correlated_kraus2, _ad_correlated_ops, math.pi / 2),
    "dephasing_uncorrelated": (dephasing_uncorrelated_kraus, _BRANCH_OPS[DEPHASING][0], 1.0),
    "dephasing_correlated": (dephasing_correlated_kraus, _BRANCH_OPS[DEPHASING][1], 1.0),
    "depolarizing_uncorrelated": (
        depolarizing_uncorrelated_kraus2,
        _BRANCH_OPS[DEPOLARIZING][0],
        1.0,
    ),
    "depolarizing_correlated": (depolarizing_correlated_kraus2, _BRANCH_OPS[DEPOLARIZING][1], 1.0),
    **{
        f"memory-{family}-{mu}": (
            functools.partial(_memory_build, family, mu),
            functools.partial(_memory_ops, family, mu),
            scale_param,
        )
        for family, scale_param in (
            (AMPLITUDE_DAMPING, math.pi / 2),
            (DEPHASING, 1.0),
            (DEPOLARIZING, 1.0),
        )
        for mu in (0.0, 0.35, 1.0)
    },
}


@pytest.mark.parametrize(
    "build, reference, scale_param", list(_STACK_CASES.values()), ids=list(_STACK_CASES)
)
def test_operator_stacks_equal_the_per_operator_formula(build, reference, scale_param):
    # one read-only (k, d, d) array per set, equal to the operators written one
    # by one and re-stacked; transfer and residual from the same einsums
    for x in range(101):
        param = x / 100 * scale_param
        kraus, ops = build(param), reference(param)
        stack = np.array(ops)
        k, d = len(ops), ops[0].shape[0]
        assert isinstance(kraus.ops, np.ndarray) and kraus.ops.shape == (k, d, d)
        assert not kraus.ops.flags.writeable
        assert np.array_equal(kraus.ops, stack), (param, kraus.ops - stack)
        transfer = np.einsum("kij,kab->iajb", stack, stack.conj()).reshape(d * d, d * d)
        assert np.array_equal(kraus.transfer, transfer), param
        residual = np.einsum("kji,kjl->il", stack.conj(), stack) - np.eye(d)
        assert kraus.completeness_residual == float(np.linalg.norm(residual)), param


@pytest.mark.parametrize(
    "build, reference, errors",
    [
        (dephasing_uncorrelated_kraus, _pauli_uncorrelated_ops, (3,)),
        (dephasing_correlated_kraus, _pauli_correlated_ops, (3,)),
        (depolarizing_uncorrelated_kraus2, _pauli_uncorrelated_ops, (1, 2, 3)),
        (depolarizing_correlated_kraus2, _pauli_correlated_ops, (1, 2, 3)),
    ],
    ids=["dephasing_uncorrelated", "dephasing_correlated", "dp_uncorrelated", "dp_correlated"],
)
def test_pauli_kraus_operators_are_the_pauli_products_up_to_a_phase(build, reference, errors):
    # a Kraus operator is fixed only up to a phase: with sigma_y = i XZ, each
    # operator of the sigma_y formula is the built one times i per Y factor, and
    # the transfer kron(K, conj K) cancels the phase bit for bit
    idx = (0, *errors)
    if reference is _pauli_correlated_ops:
        labels = [(k, k) for k in idx]
    else:
        labels = [(i, j) for i in idx for j in idx]
    phases = np.array([1j ** ((i == 2) + (j == 2)) for i, j in labels])
    for x in range(101):
        p = x / 100
        kraus, with_y = build(p), np.array(reference(p, errors, PAULIS))
        assert kraus.ops.dtype == np.float64
        assert np.array_equal(with_y, phases[:, None, None] * kraus.ops), p
        transfer = np.einsum("kij,kab->iajb", with_y, with_y.conj()).reshape(16, 16)
        assert not transfer.imag.any(), p
        assert kraus.transfer.tobytes() == transfer.real.tobytes(), p


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
    out = apply(KrausSet((np.eye(4, dtype=complex),)), rho)
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
    broken = KrausSet((e0,))
    with pytest.raises(ValueError, match="trace preserving"):
        apply(broken, random_density_matrix(2, rng))


def test_check_cptp_examples():
    assert check_cptp(KrausSet((np.eye(4, dtype=complex),))) == 0.0
    for chi in (0.0, 0.4, 1.2, math.pi / 2):
        assert check_cptp(amplitude_damping_kraus(chi)) <= 1e-15
    # deliberately incomplete set: only the no-decay operator
    e0 = amplitude_damping_kraus(math.pi / 4).ops[0]
    assert check_cptp(KrausSet((e0,))) > 0.4


def test_kraus_transfer_acts_like_apply():
    # the sigma_y formula of the uncorrelated depolarizing set has complex
    # operators (I x Y), so a missing conjugate in kron(K, conj(K)) shows here
    rng = np.random.default_rng(16)
    for kraus in (
        amplitude_damping_kraus(1.1),
        ad_correlated_kraus2(0.8),
        depolarizing_uncorrelated_kraus2(0.6),
        KrausSet(_pauli_uncorrelated_ops(0.6, (1, 2, 3), PAULIS)),
    ):
        t = kraus.transfer
        assert t.shape == (kraus.dim**2, kraus.dim**2)
        for _ in range(5):
            rho = random_density_matrix(kraus.dim, rng)
            # apply() is a product with t, so the reference is the Kraus sum itself
            direct = sum(op @ rho.mat @ op.conj().T for op in kraus.ops).reshape(-1)
            assert np.linalg.norm(t @ rho.mat.reshape(-1) - direct) <= 1e-12
            assert np.linalg.norm(apply(kraus, rho).mat.reshape(-1) - direct) <= 1e-12


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


@pytest.mark.parametrize(
    "family,scale_param",
    [(AMPLITUDE_DAMPING, math.pi / 2), (DEPHASING, 1.0), (DEPOLARIZING, 1.0)],
)
def test_memory_branch_bound_covers_every_mixture(family, scale_param):
    # the completeness defect is affine in mu, so no mixture's residual
    # exceeds the larger branch residual by more than rounding
    for x in (0.0, 0.1, 0.35, 0.6, 0.85, 1.0):
        param = x * scale_param
        bound, (unc, cor) = channels.memory_branch_bound(family, param)
        assert bound == max(check_cptp(unc), check_cptp(cor))
        for mu in (i / 40 for i in range(41)):
            kraus = build_memory_channel(ChannelParams.for_family(family, param, mu))
            assert check_cptp(kraus) <= bound + 2e-15


@pytest.mark.parametrize("family", sorted(channels.FAMILIES))
def test_memory_branch_transfers_are_exactly_real(family):
    # every Kraus operator is real (sigma_y enters as XZ), so the operators
    # and kron(K, conj(K)) are built float64: the premise of the I2 kernel's
    # float64 buffers and real symmetric eigensolves
    for param in channels.grid(*channels.DOMAINS[channels.FAMILIES[family]], 21):
        for branch in channels.memory_branches(family, param):
            assert branch.ops.dtype == branch.transfer.dtype == np.float64, (family, param)


@pytest.mark.parametrize("nan_branch", [0, 1], ids=["uncorrelated", "correlated"])
def test_memory_branch_bound_keeps_a_nan_residual(monkeypatch, nan_branch):
    residuals = iter([math.nan, 0.0] if nan_branch == 0 else [0.0, math.nan])
    monkeypatch.setattr(channels, "check_cptp", lambda kraus: next(residuals))
    bound, _ = channels.memory_branch_bound(AMPLITUDE_DAMPING, 0.5)
    assert math.isnan(bound)
