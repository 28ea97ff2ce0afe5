import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from memchan import lindblad
from memchan.channels import (
    ad_correlated_kraus2,
    ad_uncorrelated_kraus2,
    apply,
    dephasing_correlated_kraus,
    dephasing_uncorrelated_kraus,
    pure_state,
    random_density_matrix,
)
from memchan.lindblad import (
    LOWERING,
    CatalogEntry,
    LindbladSpec,
    ad_correlated_spec,
    catalog_ad_correlated,
    catalog_dephasing_correlated,
    damping_angle,
    dephasing_correlated_spec,
    dephasing_flip_probability,
    dephasing_uncorrelated_spec,
    dual_basis,
    duality_residual,
    evolve,
    evolve_superoperator,
    kraus_equivalence,
    spectral_matrix,
    superoperator_matrix,
    verify_eigen,
)
from memchan.linalg import IDENTITY_2, SIGMA_X

EQUIV_TIMES = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0)

ALL_SPECS = (
    dephasing_correlated_spec(0.9),
    ad_correlated_spec(1.1),
    dephasing_uncorrelated_spec(0.6),
)


# ----------------------------------------------------------------------
# generator
# ----------------------------------------------------------------------

def _generate(spec, pi):
    """L(pi) as the transfer-matrix product superoperator_matrix(spec) @ vec(pi)."""
    return (superoperator_matrix(spec) @ pi.reshape(-1)).reshape(spec.dim, spec.dim)


def test_lowering_operator_convention():
    # |0> (excited) decays to |1> (ground)
    assert np.array_equal(LOWERING @ np.array([1, 0], dtype=complex), np.array([0, 1]))


def test_generator_zero_rates():
    spec = LindbladSpec(dim=4, terms=((0.0, np.kron(SIGMA_X, SIGMA_X)),))
    rng = np.random.default_rng(0)
    pi = random_density_matrix(4, rng).mat
    assert np.allclose(_generate(spec, pi), 0.0)


def test_generator_dephasing_on_sigma_x():
    # Z x Z flips the sign of X x I, so the correlated generator damps it at Gamma
    gamma = 1.7
    xi = np.kron(SIGMA_X, IDENTITY_2)
    out = _generate(dephasing_correlated_spec(gamma), xi)
    assert np.allclose(out, -gamma * xi)


def test_generator_correlated_damping_kills_ground_state():
    pi = pure_state(np.array([0, 0, 0, 1], dtype=complex)).mat
    out = _generate(ad_correlated_spec(2.0), pi)
    assert np.allclose(out, 0.0)


def test_generator_uncorrelated_dephasing_on_xx():
    gamma = 0.9
    xx = np.kron(SIGMA_X, SIGMA_X)
    out = _generate(dephasing_uncorrelated_spec(gamma), xx)
    assert np.allclose(out, -2.0 * gamma * xx, atol=1e-14)


def test_generator_output_is_traceless():
    # tr(X) = vec(I) . vec(X), so vec(I)^T S = 0 means tr L(X) = 0 for every X
    vec_identity = np.eye(4).reshape(-1)
    for spec in ALL_SPECS:
        assert np.linalg.norm(vec_identity @ superoperator_matrix(spec)) <= 1e-15


def test_lindblad_spec_validation():
    with pytest.raises(ValueError):
        LindbladSpec(dim=4, terms=())
    with pytest.raises(ValueError):
        LindbladSpec(dim=4, terms=((-1.0, np.kron(SIGMA_X, SIGMA_X)),))
    with pytest.raises(ValueError):
        LindbladSpec(dim=4, terms=((1.0, SIGMA_X),))
    with pytest.raises(ValueError, match="expected 4"):
        LindbladSpec(dim=2, terms=((1.0, SIGMA_X),))


# ----------------------------------------------------------------------
# superoperator matrix
# ----------------------------------------------------------------------

def test_superoperator_zero_rates():
    spec = LindbladSpec(dim=4, terms=((0.0, np.kron(SIGMA_X, SIGMA_X)),))
    assert np.allclose(superoperator_matrix(spec), 0.0)


def test_superoperator_correlated_dephasing_diagonal():
    # |i><j| decays at Gamma exactly when the Z x Z parities of i and j differ
    gamma = 1.4
    parity = (1, -1, -1, 1)
    s = superoperator_matrix(dephasing_correlated_spec(gamma))
    want = [0.0 if pi == pj else -gamma for pi in parity for pj in parity]
    assert np.allclose(s, np.diag(want))


def _jump_sum(spec, pi):
    """L(pi) straight from the jump-operator formula, independent of S."""
    out = np.zeros_like(pi)
    for rate, jump in spec.terms:
        jdj = jump.conj().T @ jump
        out += rate * (jump @ pi @ jump.conj().T - 0.5 * (jdj @ pi + pi @ jdj))
    return out


def test_superoperator_matches_generator_on_random_states():
    rng = np.random.default_rng(2)
    for spec in ALL_SPECS:
        s = superoperator_matrix(spec)
        for _ in range(10):
            pi = random_density_matrix(spec.dim, rng).mat
            want = _jump_sum(spec, pi)
            assert np.linalg.norm(s @ pi.reshape(-1) - want.reshape(-1)) <= 1e-12


def test_superoperator_spectrum_of_correlated_damping():
    alpha = 1.3
    s = superoperator_matrix(ad_correlated_spec(alpha))
    got = np.sort(np.linalg.eigvals(s).real)
    want = np.sort([0.0] * 9 + [-alpha / 2] * 6 + [-alpha])
    assert np.allclose(got, want, atol=1e-10)
    assert np.max(np.abs(np.linalg.eigvals(s).imag)) <= 1e-10


def test_superoperator_eigenpairs_match_catalog():
    alpha = 0.8
    s = superoperator_matrix(ad_correlated_spec(alpha))
    for entry in catalog_ad_correlated(alpha).entries:
        v = entry.right.reshape(-1)
        assert np.linalg.norm(s @ v - entry.eigenvalue * v) <= 1e-12


# ----------------------------------------------------------------------
# catalogs
# ----------------------------------------------------------------------

def test_dephasing_catalog_layout():
    cat = catalog_dephasing_correlated(1.0)
    assert len(cat.entries) == 16
    by_label = {e.label: e for e in cat.entries}
    assert np.allclose(by_label["R00"].right, np.diag([1, 0, 0, 1]) / math.sqrt(2))
    assert by_label["R00"].eigenvalue == 0.0
    assert by_label["R01+"].eigenvalue == -1.0
    assert by_label["R03+"].eigenvalue == 0.0
    assert by_label["R13-"].eigenvalue == -1.0
    assert by_label["R12+"].eigenvalue == 0.0


def test_ad_catalog_layout():
    cat = catalog_ad_correlated(1.0)
    by_label = {e.label: e for e in cat.entries}
    assert np.allclose(by_label["R00"].right, np.diag([0, 0, 0, 2]) / math.sqrt(2))
    assert by_label["R00"].eigenvalue == 0.0
    assert by_label["R33"].eigenvalue == -1.0
    for label in ("R01+", "R01-", "R02+", "R02-", "R03+", "R03-"):
        assert by_label[label].eigenvalue == -0.5
    for label in ("R11", "R12+", "R12-", "R13+", "R13-", "R22", "R23+", "R23-"):
        assert by_label[label].eigenvalue == 0.0


def test_catalog_plus_minus_pair_product_is_traceless():
    by_label = {e.label: e for e in catalog_dephasing_correlated(1.0).entries}
    prod = by_label["R01+"].right @ by_label["R01-"].right
    assert abs(np.trace(prod)) <= 1e-15


@pytest.mark.parametrize("rate", [0.5, 1.0, 2.3])
def test_eigen_residuals_dephasing(rate):
    residuals = verify_eigen(dephasing_correlated_spec(rate), catalog_dephasing_correlated(rate))
    assert max(residuals) <= 1e-12


@pytest.mark.parametrize("rate", [0.5, 1.0, 2.3])
def test_eigen_residuals_damping(rate):
    residuals = verify_eigen(ad_correlated_spec(rate), catalog_ad_correlated(rate))
    assert max(residuals) <= 1e-12


def test_eigen_residual_detects_wrong_eigenvalue():
    alpha = 1.0
    cat = catalog_ad_correlated(alpha)
    broken = []
    for entry in cat.entries:
        if entry.label == "R33":
            broken.append(CatalogEntry("R33", entry.right, 0.0))
        else:
            broken.append(entry)
    residuals = verify_eigen(ad_correlated_spec(alpha), replace(cat, entries=tuple(broken)))
    # ||L(R33) - 0|| = alpha * ||R33||_F = alpha
    assert abs(residuals[1] - alpha) <= 1e-12


# ----------------------------------------------------------------------
# duality
# ----------------------------------------------------------------------

def test_dephasing_lefts_are_adjoint_rights():
    # the plain-trace Gram matrix of these rights is diagonal with entries
    # tr(R R) = +1 for the symmetric/diagonal operators and -1 for the
    # antisymmetric ones, so the duals are the adjoints, not the rights
    cat = dual_basis(catalog_dephasing_correlated(1.0))
    for entry, left in zip(cat.entries, cat.lefts):
        assert np.linalg.norm(left - entry.right.conj().T) <= 1e-12
    minus = {e.label: e.right for e in cat.entries}["R01-"]
    assert abs(np.trace(minus @ minus) + 1.0) <= 1e-14


def test_ad_left_of_r00_is_projector_mix():
    cat = dual_basis(catalog_ad_correlated(1.0))
    want = np.diag([1, 0, 0, 1]) / math.sqrt(2)
    assert np.linalg.norm(cat.lefts[0] - want) <= 1e-12


def test_duality_residuals():
    for cat in (catalog_dephasing_correlated(1.0), catalog_ad_correlated(0.7)):
        assert duality_residual(dual_basis(cat)) <= 1e-10


def _all_rights_equal(cat):
    return tuple(CatalogEntry(e.label, cat.entries[0].right, e.eigenvalue) for e in cat.entries)


def _second_right_near_first(cat):
    # independent in exact arithmetic, and a plain numpy solve accepts it,
    # but not a basis to working precision
    noise = 1e-14 * np.random.default_rng(5).normal(size=(4, 4))
    first, second = cat.entries[:2]
    near = CatalogEntry(second.label, first.right + noise, second.eigenvalue)
    return (first, near) + cat.entries[2:]


@pytest.mark.parametrize(
    "degenerate",
    [_all_rights_equal, _second_right_near_first],
    ids=["all_equal", "second_near_first"],
)
def test_duality_requires_spanning_rights(degenerate):
    cat = catalog_ad_correlated(1.0)
    with pytest.raises(ValueError, match="span"):
        dual_basis(replace(cat, entries=degenerate(cat)))


def test_rescaling_rights_rescales_lefts_and_keeps_map():
    rng = np.random.default_rng(3)
    cat = dual_basis(catalog_ad_correlated(1.0))
    scaled_entries = tuple(
        CatalogEntry(e.label, 2.5 * e.right, e.eigenvalue) for e in cat.entries
    )
    scaled = dual_basis(replace(cat, entries=scaled_entries, lefts=None))
    for left, orig in zip(scaled.lefts, cat.lefts):
        assert np.linalg.norm(left - orig / 2.5) <= 1e-12
    rho = random_density_matrix(4, rng)
    for t in (0.0, 0.8, 3.0):
        assert np.linalg.norm(evolve(cat, t, rho).mat - evolve(scaled, t, rho).mat) <= 1e-12


# ----------------------------------------------------------------------
# evolve
# ----------------------------------------------------------------------

def test_evolve_requires_lefts_and_nonnegative_time():
    cat = catalog_ad_correlated(1.0)
    rng = np.random.default_rng(4)
    rho = random_density_matrix(4, rng)
    with pytest.raises(ValueError, match="left"):
        evolve(cat, 1.0, rho)
    with pytest.raises(ValueError, match="nonnegative"):
        evolve(dual_basis(cat), -1.0, rho)


def test_evolve_time_zero_is_identity():
    rng = np.random.default_rng(5)
    for cat in (catalog_dephasing_correlated(1.0), catalog_ad_correlated(1.0)):
        cat = dual_basis(cat)
        for _ in range(10):
            rho = random_density_matrix(4, rng)
            assert np.linalg.norm(evolve(cat, 0.0, rho).mat - rho.mat) <= 1e-10


def test_evolve_dephasing_protects_phi_plus_forever():
    cat = dual_basis(catalog_dephasing_correlated(1.0))
    phi_plus = pure_state(np.array([1, 0, 0, 1], dtype=complex))
    out = evolve(cat, 50.0, phi_plus)
    assert np.linalg.norm(out.mat - phi_plus.mat) <= 1e-12


def test_evolve_damping_sends_00_to_11_eventually():
    cat = dual_basis(catalog_ad_correlated(1.0))
    start = pure_state(np.array([1, 0, 0, 0], dtype=complex))
    end = pure_state(np.array([0, 0, 0, 1], dtype=complex))
    out = evolve(cat, 60.0, start)
    assert np.linalg.norm(out.mat - end.mat) <= 1e-12


def test_evolve_semigroup_property():
    rng = np.random.default_rng(6)
    for cat in (catalog_dephasing_correlated(0.8), catalog_ad_correlated(1.2)):
        cat = dual_basis(cat)
        for s, t in ((0.3, 0.9), (1.0, 2.0)):
            rho = random_density_matrix(4, rng)
            joint = evolve(cat, s + t, rho)
            stepped = evolve(cat, s, evolve(cat, t, rho))
            assert np.linalg.norm(joint.mat - stepped.mat) <= 1e-10


def test_spectral_matrix_acts_like_evolve():
    rng = np.random.default_rng(11)
    for cat in (catalog_dephasing_correlated(0.8), catalog_ad_correlated(1.2)):
        cat = dual_basis(cat)
        for t in (0.0, 0.4, 3.0):
            m = spectral_matrix(cat, t)
            rho = random_density_matrix(4, rng)
            # evolve() is a product with m, so the reference is the spectral sum
            direct = sum(
                np.trace(left @ rho.mat) * math.exp(e.eigenvalue * t) * e.right
                for e, left in zip(cat.entries, cat.lefts)
            )
            assert np.linalg.norm(m @ rho.mat.reshape(-1) - direct.reshape(-1)) <= 1e-12
            assert np.linalg.norm(evolve(cat, t, rho).mat - direct) <= 1e-12


def test_spectral_matrix_matches_exponentiated_generator():
    for spec, cat in (
        (dephasing_correlated_spec(0.8), catalog_dephasing_correlated(0.8)),
        (ad_correlated_spec(1.2), catalog_ad_correlated(1.2)),
    ):
        cat = dual_basis(cat)
        s = superoperator_matrix(spec)
        for t in EQUIV_TIMES:
            assert np.linalg.norm(spectral_matrix(cat, t) - lindblad._expm(t * s)) <= 1e-12


def test_spectral_matrix_requires_lefts_and_nonnegative_time():
    cat = catalog_dephasing_correlated(1.0)
    with pytest.raises(ValueError, match="left"):
        spectral_matrix(cat, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        spectral_matrix(dual_basis(cat), -1.0)


# ----------------------------------------------------------------------
# Kraus equivalence
# ----------------------------------------------------------------------

def test_kraus_equivalence_dephasing_ln2():
    # Gamma t = ln 2 accumulates flip probability 1/4
    gamma = 1.0
    t = math.log(2.0)
    assert abs(dephasing_flip_probability(gamma, t) - 0.25) < 1e-15
    cat = dual_basis(catalog_dephasing_correlated(gamma))
    residual = kraus_equivalence(
        cat, t, dephasing_correlated_kraus, lambda tt: dephasing_flip_probability(gamma, tt)
    )
    assert residual <= 1e-12


def test_kraus_equivalence_damping_identity_and_pi_third():
    alpha = 1.0
    cat = dual_basis(catalog_ad_correlated(alpha))
    angle = lambda tt: damping_angle(alpha, tt)

    assert damping_angle(alpha, 0.0) == 0.0
    assert kraus_equivalence(cat, 0.0, ad_correlated_kraus2, angle) <= 1e-12

    t = 2.0 * math.log(2.0)  # cos(chi) = 1/2, i.e. chi = pi/3
    assert abs(damping_angle(alpha, t) - math.pi / 3) < 1e-14
    assert kraus_equivalence(cat, t, ad_correlated_kraus2, angle) <= 1e-12


@pytest.mark.parametrize("t", EQUIV_TIMES)
def test_kraus_equivalence_time_grid(t):
    gamma = alpha = 1.0
    dephasing_cat = dual_basis(catalog_dephasing_correlated(gamma))
    damping_cat = dual_basis(catalog_ad_correlated(alpha))
    assert (
        kraus_equivalence(
            dephasing_cat,
            t,
            dephasing_correlated_kraus,
            lambda tt: dephasing_flip_probability(gamma, tt),
        )
        <= 1e-10
    )
    assert (
        kraus_equivalence(
            damping_cat, t, ad_correlated_kraus2, lambda tt: damping_angle(alpha, tt)
        )
        <= 1e-10
    )


# ----------------------------------------------------------------------
# uncorrelated dephasing generator and the exponential route
# ----------------------------------------------------------------------

def test_expm_matches_scipy():
    rng = np.random.default_rng(7)
    for spec in ALL_SPECS:
        s = superoperator_matrix(spec)
        for t in (0.1, 1.0, 5.0):
            got = lindblad._expm(t * s)
            want = scipy.linalg.expm(t * s)
            assert np.linalg.norm(got - want) <= 1e-12
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    assert np.linalg.norm(lindblad._expm(m) - scipy.linalg.expm(m)) <= 1e-10


def test_uncorrelated_dephasing_t_zero_is_identity():
    rng = np.random.default_rng(8)
    spec = dephasing_uncorrelated_spec(1.0)
    rho = random_density_matrix(4, rng)
    assert np.linalg.norm(evolve_superoperator(spec, 0.0, rho).mat - rho.mat) <= 1e-12


def test_uncorrelated_dephasing_matches_kraus_at_ln2():
    gamma = 1.0
    t = math.log(2.0)
    spec = dephasing_uncorrelated_spec(gamma)
    kraus = dephasing_uncorrelated_kraus(dephasing_flip_probability(gamma, t))
    rng = np.random.default_rng(9)
    for _ in range(20):
        rho = random_density_matrix(4, rng)
        evolved = evolve_superoperator(spec, t, rho)
        direct = apply(kraus, rho)
        assert np.linalg.norm(evolved.mat - direct.mat) <= 1e-10


@pytest.mark.parametrize("t", EQUIV_TIMES)
def test_uncorrelated_dephasing_time_grid(t):
    gamma = 1.0
    spec = dephasing_uncorrelated_spec(gamma)
    kraus = dephasing_uncorrelated_kraus(dephasing_flip_probability(gamma, t))
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(10):
        rho = random_density_matrix(4, rng)
        worst = max(
            worst,
            np.linalg.norm(evolve_superoperator(spec, t, rho).mat - apply(kraus, rho).mat),
        )
    assert worst <= 1e-10


@pytest.mark.parametrize("alpha", [1.0, 0.7])
def test_uncorrelated_damping_generator_matches_kraus(alpha):
    # independent decay of each qubit: jumps sigma (x) I and I (x) sigma
    spec = LindbladSpec(
        dim=4,
        terms=((alpha, np.kron(LOWERING, IDENTITY_2)), (alpha, np.kron(IDENTITY_2, LOWERING))),
    )
    s = superoperator_matrix(spec)
    for t in EQUIV_TIMES:
        kraus = ad_uncorrelated_kraus2(damping_angle(alpha, t))
        assert np.linalg.norm(lindblad._expm(t * s) - kraus.transfer) <= 1e-10
