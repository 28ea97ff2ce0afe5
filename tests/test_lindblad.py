import math

import numpy as np
import pytest
import scipy.linalg

from memchan import linalg, lindblad
from memchan.capacity import InputEnsemble, theta_ensemble
from memchan.channels import (
    KrausSet,
    ad_correlated_kraus2,
    ad_uncorrelated_kraus2,
    apply,
    dephasing_correlated_kraus,
    dephasing_uncorrelated_kraus,
    pure_state,
    random_density_matrix,
)
from memchan.lindblad import (
    LABELS,
    LOWERING,
    EigenoperatorCatalog,
    LindbladSpec,
    ad_correlated_spec,
    catalog_ad_correlated,
    catalog_dephasing_correlated,
    damping_angle,
    dephasing_correlated_spec,
    dephasing_flip_probability,
    dephasing_uncorrelated_spec,
    duality_residual,
    evolve,
    evolve_superoperator,
    exponential_matrix,
    kraus_equivalence,
    spectral_matrix,
    superoperator_matrix,
    verify_eigen,
)
from memchan.cli import EQUIVALENCE_TIMES
from memchan.linalg import IDENTITY_2, SIGMA_X

EQUIV_TIMES = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0)

ALL_SPECS = (
    dephasing_correlated_spec(0.9),
    ad_correlated_spec(1.1),
    dephasing_uncorrelated_spec(0.6),
)
_DEPHASING_CAT = catalog_dephasing_correlated(1.0)
_STATES = theta_ensemble(0.0).states
_RHO = pure_state([1, 0, 0, 0])


# ----------------------------------------------------------------------
# generator
# ----------------------------------------------------------------------

def _generate(spec, pi):
    """L(pi) as the transfer-matrix product superoperator_matrix(spec) @ vec(pi)."""
    return (superoperator_matrix(spec) @ pi.reshape(-1)).reshape(4, 4)


def test_lowering_operator_convention():
    # |0> (excited) decays to |1> (ground)
    assert np.array_equal(LOWERING @ np.array([1, 0], dtype=complex), np.array([0, 1]))


def test_generator_zero_rates():
    spec = LindbladSpec([0.0], [np.kron(SIGMA_X, SIGMA_X)])
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


@pytest.mark.parametrize(
    "message, call",
    [
        ("probabilities must be nonnegative", lambda: InputEnsemble((math.nan,) * 4, _STATES)),
        (
            "probabilities sum to inf, expected 1",
            lambda: InputEnsemble((math.inf, 0.0, 0.0, 0.0), _STATES),
        ),
        (
            "probabilities must be nonnegative",
            lambda: InputEnsemble((-math.inf, 1.0, 0.0, 0.0), _STATES),
        ),
        ("ket has non-finite entries", lambda: pure_state([math.nan, 0, 0, 0])),
        ("ket has non-finite entries", lambda: pure_state([math.inf, 0, 0, 0])),
        ("rates must be nonnegative", lambda: LindbladSpec([math.nan], [np.eye(4)])),
        ("rate must be nonnegative", lambda: catalog_ad_correlated(math.nan)),
        ("rate must be nonnegative", lambda: catalog_dephasing_correlated(math.nan)),
        ("time must be nonnegative", lambda: spectral_matrix(_DEPHASING_CAT, math.nan)),
        ("time must be nonnegative", lambda: evolve_superoperator(ALL_SPECS[0], math.nan, _RHO)),
        ("time must be nonnegative", lambda: exponential_matrix(ALL_SPECS[0], math.nan)),
        ("rate must be nonnegative", lambda: dephasing_flip_probability(math.nan, 1.0)),
        ("time must be nonnegative", lambda: dephasing_flip_probability(1.0, math.nan)),
        ("rate must be nonnegative", lambda: damping_angle(math.nan, 1.0)),
        ("time must be nonnegative", lambda: damping_angle(1.0, math.nan)),
        ("rates must be nonnegative and finite", lambda: LindbladSpec([math.inf], [np.eye(4)])),
        (
            "jump operator has non-finite entries",
            lambda: LindbladSpec([1.0], [np.full((4, 4), math.nan)]),
        ),
        (
            "jump operator has non-finite entries",
            lambda: LindbladSpec([1.0], [np.full((4, 4), math.inf)]),
        ),
        ("rate must be nonnegative and finite", lambda: catalog_ad_correlated(math.inf)),
        ("rate must be nonnegative and finite", lambda: catalog_dephasing_correlated(math.inf)),
        ("time must be nonnegative and finite", lambda: spectral_matrix(_DEPHASING_CAT, math.inf)),
        (
            "time must be nonnegative and finite",
            lambda: evolve_superoperator(ALL_SPECS[0], math.inf, _RHO),
        ),
        (
            "time must be nonnegative and finite",
            lambda: exponential_matrix(ALL_SPECS[0], math.inf),
        ),
        ("rate must be nonnegative and finite", lambda: dephasing_flip_probability(math.inf, 1.0)),
        ("time must be nonnegative and finite", lambda: dephasing_flip_probability(1.0, math.inf)),
        ("rate must be nonnegative and finite", lambda: damping_angle(math.inf, 1.0)),
        ("time must be nonnegative and finite", lambda: damping_angle(1.0, math.inf)),
    ],
    ids=[
        "input_ensemble",
        "input_ensemble_inf",
        "input_ensemble_neg_inf",
        "pure_state",
        "pure_state_inf",
        "lindblad_spec",
        "catalog_ad",
        "catalog_dephasing",
        "spectral_matrix",
        "evolve_superoperator",
        "exponential_matrix",
        "flip_probability_rate",
        "flip_probability_time",
        "damping_angle_rate",
        "damping_angle_time",
        "lindblad_spec_inf",
        "lindblad_spec_jump_nan",
        "lindblad_spec_jump_inf",
        "catalog_ad_inf",
        "catalog_dephasing_inf",
        "spectral_matrix_inf",
        "evolve_superoperator_inf",
        "exponential_matrix_inf",
        "flip_probability_rate_inf",
        "flip_probability_time_inf",
        "damping_angle_rate_inf",
        "damping_angle_time_inf",
    ],
)
def test_library_gates_refuse_nan(message, call):
    # every ordered comparison with NaN is False, so a gate written as x < 0
    # would let each of these through; an infinite rate or time passes such a
    # gate too, and exp(0 * inf) in a spectral map is NaN
    with pytest.raises(ValueError, match=message):
        call()


def test_lindblad_spec_validation():
    with pytest.raises(ValueError, match="a LindbladSpec needs at least one"):
        LindbladSpec([], np.zeros((0, 4, 4)))
    with pytest.raises(ValueError):
        LindbladSpec([-1.0], [np.kron(SIGMA_X, SIGMA_X)])
    with pytest.raises(ValueError, match=r"jump operator shape \(2, 2\) is not \(4, 4\)"):
        LindbladSpec([1.0], [SIGMA_X])
    with pytest.raises(ValueError, match=r"\(2,\) rates do not match \(1, 4, 4\) jumps"):
        LindbladSpec([1.0, 1.0], [np.eye(4)])


# ----------------------------------------------------------------------
# superoperator matrix
# ----------------------------------------------------------------------

def test_superoperator_zero_rates():
    spec = LindbladSpec([0.0], [np.kron(SIGMA_X, SIGMA_X)])
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
    for rate, jump in zip(spec.rates, spec.jumps):
        jdj = jump.conj().T @ jump
        out += rate * (jump @ pi @ jump.conj().T - 0.5 * (jdj @ pi + pi @ jdj))
    return out


def test_superoperator_matches_generator_on_random_states():
    rng = np.random.default_rng(2)
    for spec in ALL_SPECS:
        s = superoperator_matrix(spec)
        for _ in range(10):
            pi = random_density_matrix(4, rng).mat
            want = _jump_sum(spec, pi)
            assert np.linalg.norm(s @ pi.reshape(-1) - want.reshape(-1)) <= 1e-12


def _per_term_superoperator(spec):
    """S written out term by term with np.kron, as a loop over (rate, jump)."""
    eye = np.eye(4, dtype=complex)
    s = np.zeros((16, 16), dtype=complex)
    for rate, jump in zip(spec.rates.tolist(), spec.jumps):
        jdj = jump.conj().T @ jump
        s += rate * (
            np.kron(jump, jump.conj()) - 0.5 * np.kron(jdj, eye) - 0.5 * np.kron(eye, jdj.T)
        )
    return s


def test_superoperator_stack_equals_the_per_term_formula():
    for builder in (dephasing_correlated_spec, ad_correlated_spec, dephasing_uncorrelated_spec):
        for rate in (0.0, 1e-8, 0.1, 0.3, 0.7, 1.0, 1.7, 2.3, 5.0, 10.0):
            spec = builder(rate)
            assert np.array_equal(superoperator_matrix(spec), _per_term_superoperator(spec))
    # J*J of random jumps is not symmetric, unlike that of the builders' jumps;
    # einsum's complex products may round 1 ulp away from np.kron's
    jumps = np.random.default_rng(11).normal(size=(2, 4, 4, 2)) @ [1.0, 1j]
    spec = LindbladSpec([0.7, 1.9], jumps)
    want = _per_term_superoperator(spec)
    assert np.linalg.norm(superoperator_matrix(spec) - want) <= 1e-15 * np.linalg.norm(want)
    for stack in (spec.rates, spec.jumps):
        with pytest.raises(ValueError, match="read-only"):
            stack[0] = 0.0
    # every rate is gated, not only the first or the last one
    for bad in (-1.0, math.nan, math.inf):
        for rates in ([bad, 1.0], [1.0, bad]):
            with pytest.raises(ValueError, match="rates must be nonnegative and finite, got"):
                LindbladSpec(rates, jumps)


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
    cat = catalog_ad_correlated(alpha)
    for right, eigenvalue in zip(cat.rights, cat.eigenvalues):
        v = right.reshape(-1)
        assert np.linalg.norm(s @ v - eigenvalue * v) <= 1e-12


# ----------------------------------------------------------------------
# catalogs
# ----------------------------------------------------------------------

def test_dephasing_catalog_layout():
    cat = catalog_dephasing_correlated(1.0)
    assert cat.rights.shape == cat.lefts.shape == (16, 4, 4)
    assert cat.eigenvalues.shape == (16,)
    rights, eigenvalues = dict(zip(LABELS, cat.rights)), dict(zip(LABELS, cat.eigenvalues))
    assert np.allclose(rights["R00"], np.diag([1, 0, 0, 1]) / math.sqrt(2))
    assert eigenvalues["R00"] == 0.0
    assert eigenvalues["R01+"] == -1.0
    assert eigenvalues["R03+"] == 0.0
    assert eigenvalues["R13-"] == -1.0
    assert eigenvalues["R12+"] == 0.0


def test_ad_catalog_layout():
    cat = catalog_ad_correlated(1.0)
    rights, eigenvalues = dict(zip(LABELS, cat.rights)), dict(zip(LABELS, cat.eigenvalues))
    assert np.allclose(rights["R00"], np.diag([0, 0, 0, 2]) / math.sqrt(2))
    assert eigenvalues["R00"] == 0.0
    assert eigenvalues["R33"] == -1.0
    for label in ("R01+", "R01-", "R02+", "R02-", "R03+", "R03-"):
        assert eigenvalues[label] == -0.5
    for label in ("R11", "R12+", "R12-", "R13+", "R13-", "R22", "R23+", "R23-"):
        assert eigenvalues[label] == 0.0
    # Rii is |i><i| and Rij+- is (+-|i><j| + |j><i|) / sqrt(2)
    assert np.array_equal(rights["R22"], np.diag([0, 0, 1, 0]))
    want = np.zeros((4, 4))
    want[1, 3], want[3, 1] = -1 / math.sqrt(2), 1 / math.sqrt(2)
    assert np.array_equal(rights["R13-"], want)
    assert np.allclose(rights["R33"], np.diag([1, 0, 0, -1]) / math.sqrt(2))


def test_catalog_plus_minus_pair_product_is_traceless():
    rights = dict(zip(LABELS, catalog_dephasing_correlated(1.0).rights))
    prod = rights["R01+"] @ rights["R01-"]
    assert abs(np.trace(prod)) <= 1e-15


@pytest.mark.parametrize("rate", [0.5, 1.0, 2.3])
def test_eigen_residuals_dephasing(rate):
    residuals = verify_eigen(dephasing_correlated_spec(rate), catalog_dephasing_correlated(rate))
    assert max(residuals) <= 1e-12


@pytest.mark.parametrize("rate", [0.5, 1.0, 2.3])
def test_eigen_residuals_damping(rate):
    residuals = verify_eigen(ad_correlated_spec(rate), catalog_ad_correlated(rate))
    assert max(residuals) <= 1e-12


@pytest.mark.parametrize("alpha", [0.7, 1.0, 2.3])
def test_eigen_residual_detects_wrong_eigenvalue(alpha):
    cat = catalog_ad_correlated(alpha)
    eigenvalues = np.where(np.array(LABELS) == "R33", 0.0, cat.eigenvalues)
    wrong = EigenoperatorCatalog(cat.rights, eigenvalues, cat.lefts)
    residuals = verify_eigen(ad_correlated_spec(alpha), wrong)
    # ||L(R33) - 0|| = alpha * ||R33||_F = alpha: a residual is linear in the rate,
    # which is why verify checks the catalogs at rate 1.0 alone
    assert abs(residuals[1] - alpha) <= 1e-12


@pytest.mark.parametrize(
    "make_cat, make_spec",
    [
        (catalog_dephasing_correlated, dephasing_correlated_spec),
        (catalog_ad_correlated, ad_correlated_spec),
    ],
    ids=["dephasing", "damping"],
)
@pytest.mark.parametrize("rate", [0.7, 1.0, 2.3])
def test_catalog_stack_equals_the_per_entry_formula(make_cat, make_spec, rate):
    # each stacked form against the per-entry sum it replaced, and the closed-form
    # lefts against a per-entry solve of tr(L_i R_j) = delta_ij
    cat, spec = make_cat(rate), make_spec(rate)
    triples = list(zip(cat.rights, cat.eigenvalues.tolist(), cat.lefts))
    for t in EQUIVALENCE_TIMES:
        spectral = sum(
            math.exp(lam * t) * np.outer(right.reshape(-1), left.T.reshape(-1))
            for right, lam, left in triples
        )
        assert np.array_equal(spectral_matrix(cat, t), spectral)
    s = superoperator_matrix(spec)
    residuals = [
        float(np.linalg.norm(s @ right.reshape(-1) - lam * right.reshape(-1)))
        for right, lam, _ in triples
    ]
    assert np.array_equal(verify_eigen(spec, cat), residuals)
    gram = np.array([right.T.reshape(-1) for right in cat.rights])
    lefts = np.linalg.solve(gram, np.eye(16, dtype=complex)).T.reshape(16, 4, 4)
    assert np.abs(cat.lefts - lefts).max() <= 1e-15
    for stack in (cat.rights, cat.eigenvalues, cat.lefts):
        with pytest.raises(ValueError, match="read-only"):
            stack[0] = 0.0


@pytest.mark.parametrize(
    "make",
    [
        lambda: KrausSet((np.eye(2),)),
        lambda: dephasing_correlated_spec(1.0),
        lambda: catalog_ad_correlated(1.0),
    ],
    ids=["kraus_set", "lindblad_spec", "catalog"],
)
def test_array_records_compare_by_identity(make):
    # fields holding arrays have no single truth value, so field-wise == raised
    # ValueError and hash raised TypeError; each record is equal only to itself
    first, second = make(), make()
    assert first == first and first != second
    assert len({first, second, first}) == 2


# ----------------------------------------------------------------------
# duality
# ----------------------------------------------------------------------

def test_dephasing_lefts_are_adjoint_rights():
    # the plain-trace Gram matrix of these rights is diagonal with entries
    # tr(R R) = +1 for the symmetric/diagonal operators and -1 for the
    # antisymmetric ones, so the duals are the adjoints, not the rights
    cat = catalog_dephasing_correlated(1.0)
    for right, left in zip(cat.rights, cat.lefts):
        assert np.linalg.norm(left - right.conj().T) <= 1e-12
    minus = dict(zip(LABELS, cat.rights))["R01-"]
    assert abs(np.trace(minus @ minus) + 1.0) <= 1e-14


def test_ad_left_of_r00_is_projector_mix():
    cat = catalog_ad_correlated(1.0)
    want = np.diag([1, 0, 0, 1]) / math.sqrt(2)
    assert np.linalg.norm(cat.lefts[0] - want) <= 1e-12


def test_duality_residuals():
    for cat in (catalog_dephasing_correlated(1.0), catalog_ad_correlated(0.7)):
        assert duality_residual(cat) <= 1e-10


def test_catalog_takes_its_lefts_and_refuses_wrong_ones():
    cat = catalog_dephasing_correlated(0.7)
    taken = EigenoperatorCatalog(cat.rights, cat.eigenvalues, cat.lefts)
    assert np.array_equal(taken.lefts, cat.lefts)
    with pytest.raises(TypeError):
        EigenoperatorCatalog(cat.rights, cat.eigenvalues)  # lefts is required
    flipped = cat.lefts.copy()
    flipped[LABELS.index("R01-")] *= -1.0
    for lefts in (flipped, cat.lefts[[1, 0, *range(2, 16)]], np.full((16, 4, 4), math.nan)):
        with pytest.raises(ArithmeticError, match="duality residual"):
            EigenoperatorCatalog(cat.rights, cat.eigenvalues, lefts)


@pytest.mark.parametrize(
    "make_cat", [catalog_dephasing_correlated, catalog_ad_correlated], ids=["dephasing", "damping"]
)
def test_closed_form_lefts_are_the_solved_duals_at_every_rate(make_cat):
    # rights and lefts do not depend on the rate, so one rate's duality check
    # covers every rate
    first, *others = (make_cat(rate) for rate in (0.7, 1.0, 2.3))
    assert np.abs(first.lefts - lindblad.dual_basis(first.rights)).max() <= 1e-15
    for cat in others:
        assert np.array_equal(cat.rights, first.rights)
        assert np.array_equal(cat.lefts, first.lefts)


def test_catalog_needs_sixteen_entries():
    cat = catalog_ad_correlated(1.0)
    with pytest.raises(ValueError, match=r"16 entries in each stack, got rights \(15, 4, 4\)"):
        EigenoperatorCatalog(cat.rights[:15], cat.eigenvalues[:15], cat.lefts[:15])
    with pytest.raises(ValueError, match=r"16 entries in each stack, .* lefts \(15, 4, 4\)"):
        EigenoperatorCatalog(cat.rights, cat.eigenvalues, cat.lefts[:15])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "neg_inf"])
def test_catalog_refuses_non_finite_eigenvalues(monkeypatch, bad):
    # exp(lambda t) of such an eigenvalue makes the whole spectral matrix NaN;
    # the catalog refuses it before it checks duality
    cat = catalog_ad_correlated(1.0)
    eigenvalues = cat.eigenvalues.copy()
    eigenvalues[5] = bad
    monkeypatch.setattr(lindblad, "duality_residual", lambda cat: pytest.fail("duality checked"))
    with pytest.raises(ValueError, match="catalog eigenvalues must be finite, got"):
        EigenoperatorCatalog(cat.rights, eigenvalues, cat.lefts)


def test_catalog_rejects_duals_that_miss_duality(monkeypatch):
    monkeypatch.setattr(lindblad, "duality_residual", lambda cat: 2e-10)
    with pytest.raises(ArithmeticError, match="duality residual"):
        catalog_ad_correlated(1.0)


def _all_rights_equal(cat):
    return np.broadcast_to(cat.rights[0], cat.rights.shape)


def _second_right_near_first(cat):
    # independent in exact arithmetic, and a plain numpy solve accepts it,
    # but not a basis to working precision
    noise = 1e-14 * np.random.default_rng(5).normal(size=(4, 4))
    rights = cat.rights.copy()
    rights[1] = rights[0] + noise
    return rights


@pytest.mark.parametrize(
    "degenerate",
    [_all_rights_equal, _second_right_near_first],
    ids=["all_equal", "second_near_first"],
)
def test_duality_requires_spanning_rights(degenerate):
    cat = catalog_ad_correlated(1.0)
    with pytest.raises(ArithmeticError, match="duality residual"):
        EigenoperatorCatalog(degenerate(cat), cat.eigenvalues, cat.lefts)


def test_rescaling_rights_rescales_lefts_and_keeps_map():
    rng = np.random.default_rng(3)
    cat = catalog_ad_correlated(1.0)
    scaled = EigenoperatorCatalog(2.5 * cat.rights, cat.eigenvalues, cat.lefts / 2.5)  # still dual
    with pytest.raises(ArithmeticError, match="duality residual"):
        EigenoperatorCatalog(2.5 * cat.rights, cat.eigenvalues, cat.lefts)  # the old lefts are not
    rho = random_density_matrix(4, rng)
    for t in (0.0, 0.8, 3.0):
        assert np.linalg.norm(evolve(cat, t, rho).mat - evolve(scaled, t, rho).mat) <= 1e-12


# ----------------------------------------------------------------------
# evolve
# ----------------------------------------------------------------------

def test_evolve_requires_nonnegative_time():
    cat = catalog_ad_correlated(1.0)
    rng = np.random.default_rng(4)
    rho = random_density_matrix(4, rng)
    with pytest.raises(ValueError, match="nonnegative"):
        evolve(cat, -1.0, rho)


def test_evolve_time_zero_is_identity():
    rng = np.random.default_rng(5)
    for cat in (catalog_dephasing_correlated(1.0), catalog_ad_correlated(1.0)):
        for _ in range(10):
            rho = random_density_matrix(4, rng)
            assert np.linalg.norm(evolve(cat, 0.0, rho).mat - rho.mat) <= 1e-10


def test_evolve_dephasing_protects_phi_plus_forever():
    cat = catalog_dephasing_correlated(1.0)
    phi_plus = pure_state(np.array([1, 0, 0, 1], dtype=complex))
    out = evolve(cat, 50.0, phi_plus)
    assert np.linalg.norm(out.mat - phi_plus.mat) <= 1e-12


def test_evolve_damping_sends_00_to_11_eventually():
    cat = catalog_ad_correlated(1.0)
    start = pure_state(np.array([1, 0, 0, 0], dtype=complex))
    end = pure_state(np.array([0, 0, 0, 1], dtype=complex))
    out = evolve(cat, 60.0, start)
    assert np.linalg.norm(out.mat - end.mat) <= 1e-12


def test_evolve_semigroup_property():
    rng = np.random.default_rng(6)
    for cat in (catalog_dephasing_correlated(0.8), catalog_ad_correlated(1.2)):
        for s, t in ((0.3, 0.9), (1.0, 2.0)):
            rho = random_density_matrix(4, rng)
            joint = evolve(cat, s + t, rho)
            stepped = evolve(cat, s, evolve(cat, t, rho))
            assert np.linalg.norm(joint.mat - stepped.mat) <= 1e-10


def test_spectral_matrix_acts_like_evolve():
    rng = np.random.default_rng(11)
    for cat in (catalog_dephasing_correlated(0.8), catalog_ad_correlated(1.2)):
        for t in (0.0, 0.4, 3.0):
            m = spectral_matrix(cat, t)
            rho = random_density_matrix(4, rng)
            # evolve() is a product with m, so the reference is the spectral sum
            direct = sum(
                np.trace(left @ rho.mat) * math.exp(eigenvalue * t) * right
                for right, eigenvalue, left in zip(cat.rights, cat.eigenvalues, cat.lefts)
            )
            assert np.linalg.norm(m @ rho.mat.reshape(-1) - direct.reshape(-1)) <= 1e-12
            assert np.linalg.norm(evolve(cat, t, rho).mat - direct) <= 1e-12


def test_spectral_matrix_matches_exponentiated_generator():
    for spec, cat in (
        (dephasing_correlated_spec(0.8), catalog_dephasing_correlated(0.8)),
        (ad_correlated_spec(1.2), catalog_ad_correlated(1.2)),
    ):
        for t in EQUIV_TIMES:
            assert np.linalg.norm(spectral_matrix(cat, t) - exponential_matrix(spec, t)) <= 1e-12


def test_spectral_matrix_requires_nonnegative_time():
    cat = catalog_dephasing_correlated(1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        spectral_matrix(cat, -1.0)


# ----------------------------------------------------------------------
# Kraus equivalence
# ----------------------------------------------------------------------

def test_kraus_equivalence_dephasing_ln2():
    # Gamma t = ln 2 accumulates flip probability 1/4
    gamma = 1.0
    t = math.log(2.0)
    assert abs(dephasing_flip_probability(gamma, t) - 0.25) < 1e-15
    cat = catalog_dephasing_correlated(gamma)
    kraus = dephasing_correlated_kraus(dephasing_flip_probability(gamma, t))
    residual = kraus_equivalence(spectral_matrix(cat, t), kraus)
    assert residual <= 1e-12


def test_kraus_equivalence_damping_identity_and_pi_third():
    alpha = 1.0
    cat = catalog_ad_correlated(alpha)

    assert damping_angle(alpha, 0.0) == 0.0
    assert kraus_equivalence(spectral_matrix(cat, 0.0), ad_correlated_kraus2(0.0)) <= 1e-12

    t = 2.0 * math.log(2.0)  # cos(chi) = 1/2, i.e. chi = pi/3
    assert abs(damping_angle(alpha, t) - math.pi / 3) < 1e-14
    chi = damping_angle(alpha, t)
    assert kraus_equivalence(spectral_matrix(cat, t), ad_correlated_kraus2(chi)) <= 1e-12


@pytest.mark.parametrize("t", EQUIV_TIMES)
def test_kraus_equivalence_time_grid(t):
    gamma = alpha = 1.0
    dephasing = kraus_equivalence(
        spectral_matrix(catalog_dephasing_correlated(gamma), t),
        dephasing_correlated_kraus(dephasing_flip_probability(gamma, t)),
    )
    damping = kraus_equivalence(
        spectral_matrix(catalog_ad_correlated(alpha), t),
        ad_correlated_kraus2(damping_angle(alpha, t)),
    )
    assert dephasing <= 1e-10
    assert damping <= 1e-10


# ----------------------------------------------------------------------
# uncorrelated dephasing generator and the exponential route
# ----------------------------------------------------------------------

def _uncorrelated_damping_spec(alpha):
    """Independent decay of each qubit: jumps sigma (x) I and I (x) sigma."""
    jumps = [np.kron(LOWERING, IDENTITY_2), np.kron(IDENTITY_2, LOWERING)]
    return LindbladSpec([alpha] * 2, jumps)


def _ladder_spec(second_rate):
    """Jumps |01><00| at rate 1 and |10><01| at second_rate; at equal rates
    the generator matrix is defective (a Jordan block at eigenvalue -1)."""
    up, step = np.zeros((2, 4, 4), dtype=complex)
    up[1, 0] = step[2, 1] = 1.0
    return LindbladSpec([1.0, second_rate], [up, step])


def test_exponential_matrix_matches_scipy():
    rng = np.random.default_rng(7)
    jump = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))  # complex, non-normal
    specs = ALL_SPECS + (_uncorrelated_damping_spec(1.0), LindbladSpec([0.7], [jump]))
    for spec in specs:
        s = superoperator_matrix(spec)
        for t in (0.0, 0.1, 1.0, 5.0):
            want = scipy.linalg.expm(t * s)
            assert np.linalg.norm(exponential_matrix(spec, t) - want) <= 1e-12


def test_exponential_matrix_of_a_diagonal_generator_is_eigs_own(monkeypatch):
    # both dephasing generators are diagonal, and eig returns exactly V = I and
    # Lambda = diag(S) for them; the map skips eig and is the same to the bit
    specs = (dephasing_correlated_spec(0.9), dephasing_uncorrelated_spec(0.6))
    for spec in specs:
        s = superoperator_matrix(spec)
        lam, v = np.linalg.eig(s)
        assert np.array_equal(lam, np.diag(s)) and np.array_equal(v, np.eye(16))
    monkeypatch.setattr(np.linalg, "eig", lambda a: pytest.fail("eig called"))
    for spec in specs:
        s = superoperator_matrix(spec)
        for t in EQUIV_TIMES:
            assert np.array_equal(exponential_matrix(spec, t), np.diag(np.exp(t * np.diag(s))))


def test_exponential_matrix_of_a_diagonal_generator_solves_nothing(monkeypatch):
    monkeypatch.setattr(np.linalg, "eig", lambda a: pytest.fail("eig called"))
    monkeypatch.setattr(linalg, "solve_linear", lambda a, b: pytest.fail("solve_linear called"))
    for spec in (dephasing_correlated_spec(0.9), dephasing_uncorrelated_spec(0.6)):
        for t in EQUIV_TIMES:
            exponential_matrix(spec, t)


def test_exponential_matrix_refuses_a_defective_generator():
    # exactly defective: the eigenvectors do not span, so V is singular
    with pytest.raises(ValueError, match="singular"):
        exponential_matrix(_ladder_spec(1.0), 1.0)
    # nearly defective: V is invertible, but V Lambda V^-1 misses S by ~1e-7
    with pytest.raises(ArithmeticError, match="misses the generator"):
        exponential_matrix(_ladder_spec(1.0 + 1e-9), 1.0)
    # mildly non-normal: the decomposition holds, and the map is accurate
    spec = _ladder_spec(1.0 + 1e-3)
    for t in (0.1, 1.0, 5.0):
        want = scipy.linalg.expm(t * superoperator_matrix(spec))
        assert np.linalg.norm(exponential_matrix(spec, t) - want) <= 1e-12


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
    spec = _uncorrelated_damping_spec(alpha)
    for t in EQUIV_TIMES:
        kraus = ad_uncorrelated_kraus2(damping_angle(alpha, t))
        assert np.linalg.norm(exponential_matrix(spec, t) - kraus.transfer) <= 1e-10
