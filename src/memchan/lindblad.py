"""Two-qubit Lindblad generators in jump-operator form and their spectral
channel maps.

A generator is two read-only stacks on the two-use space (dim 4), rates
(n,) and jumps (n, 4, 4),

    L(pi) = sum_k rates[k] * (J_k pi J_k* - (J_k*J_k pi + pi J_k*J_k) / 2);

here correlated dephasing (jump Z x Z), correlated damping (sigma x sigma)
and uncorrelated dephasing (jumps I x Z and Z x I).

Channels are evaluated two ways: through a catalog of sixteen right
eigenoperators R_i (L R_i = lambda_i R_i) paired with left duals L_i
(tr(L_i R_j) = delta_ij, plain trace), which each family gives in closed form
(_catalog) and the catalog checks when it is built and holds as three
read-only stacks, rights, eigenvalues and lefts, in the order of LABELS, giving

    pi -> sum_i tr(L_i pi) exp(lambda_i t) R_i,

or by exponentiating the generator's matrix on row-major vectorized states.
The correlated dephasing map reduces to phase-flip Kraus operators with
p = (1 - exp(-Gamma t)) / 2, and the correlated damping map to the damping
Kraus pair with cos(chi) = exp(-alpha t / 2).

Every map is a row-major transfer matrix, the representation channels.apply
uses for Kraus sets (KrausSet.transfer): L(pi) is superoperator_matrix(spec)
@ vec(pi), evolve is spectral_matrix(cat, t) @ vec(pi), and
evolve_superoperator is exponential_matrix(spec, t) @ vec(pi).
kraus_equivalence(transfer, kraus) is the one Kraus/Lindblad gap,
||transfer - kraus.transfer||_F, for either Lindblad matrix; it is exact and
holds for every input state, not a random sample.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .channels import DensityMatrix, KrausSet
from .linalg import PAULI_PAIRS

DUALITY_TOL = 1e-10

# annihilation |1><0| in the {|0> excited, |1> ground} basis
LOWERING = linalg._readonly(np.array([[0.0, 0.0], [1.0, 0.0]]))


def _check_nonnegative(**values: float) -> None:
    for name, value in values.items():
        if not 0.0 <= value < math.inf:  # False for NaN and inf as well
            raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")


class LindbladSpec:
    """Jump-operator form of a two-qubit generator: term k has rate rates[k]
    and jump jumps[k] on the two-use space.  rates (n,) float and jumps
    (n, 4, 4), float unless a jump is complex, all finite, are read-only stacks."""

    __slots__ = ("rates", "jumps")

    def __init__(self, rates, jumps):
        rates = np.array(rates, dtype=float)
        jumps = linalg.float_or_complex(jumps)
        if rates.size == 0:
            raise ValueError("a LindbladSpec needs at least one (rate, jump) term")
        for rate in rates.reshape(-1).tolist():
            _check_nonnegative(rates=rate)
        if jumps.shape[-2:] != (4, 4):
            raise ValueError(f"jump operator shape {jumps.shape[-2:]} is not (4, 4)")
        if rates.ndim != 1 or jumps.shape != (rates.size, 4, 4):
            raise ValueError(f"{rates.shape} rates do not match {jumps.shape} jumps")
        if not linalg.finite(jumps):
            raise ValueError("jump operator has non-finite entries")
        self.rates, self.jumps = linalg._readonly(rates), linalg._readonly(jumps)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) of two square matrices as one einsum, PAULI_PAIRS's idiom:
    each entry is one product, so bitwise np.kron's, without its code."""
    n = a.shape[0] * b.shape[0]
    return np.einsum("ij,kl->ikjl", a, b).reshape(n, n)


def dephasing_correlated_spec(gamma_rate: float) -> LindbladSpec:
    """Two-qubit correlated dephasing with jump Z (x) Z."""
    return LindbladSpec([gamma_rate / 2.0], PAULI_PAIRS[[3], [3]])


def ad_correlated_spec(alpha_rate: float) -> LindbladSpec:
    """Two-qubit correlated decay with jump sigma (x) sigma (|00> -> |11>)."""
    return LindbladSpec([alpha_rate], [_kron(LOWERING, LOWERING)])


def dephasing_uncorrelated_spec(gamma_rate: float) -> LindbladSpec:
    """Independent dephasing of each qubit: jumps I (x) Z and Z (x) I at Gamma/2."""
    return LindbladSpec([gamma_rate / 2.0] * 2, PAULI_PAIRS[[0, 3], [3, 0]])


def superoperator_matrix(spec: LindbladSpec) -> np.ndarray:
    """Matrix S with S @ vec(pi) = vec(L(pi)) under row-major vectorization.

    vec(X) = X.reshape(-1) stacks rows, so vec(A X B) = kron(A, B.T) @ vec(X)
    (a plain transpose, not the conjugate); KrausSet.transfer and
    spectral_matrix use the same convention.  S = gain - (kron(loss, I) +
    kron(I, loss.T)) / 2, where gain = sum_k rates[k] kron(J, conj J) is the
    jumps' transfer matrix, contracted as in KrausSet.transfer, and loss =
    sum_k rates[k] J*J as in KrausSet.completeness_residual.  L is trace
    annihilating, vec(I)^T S = 0, so tr L(X) = 0 for every X.
    """
    rates, jumps, eye = spec.rates, spec.jumps, np.eye(4)
    gain = np.einsum("k,kij,kab->iajb", rates, jumps, jumps.conj()).reshape(16, 16)
    loss = np.einsum("k,kji,kjl->il", rates, jumps.conj(), jumps)
    return gain - 0.5 * (_kron(loss, eye) + _kron(eye, loss.T))


# The catalog's layout: R00 (set per family) and R33 are diagonal, Rii is
# |i><i| and Rij+- is (+-|i><j| + |j><i|) / sqrt(2).  R00, R11, R12+- and R22
# are stationary in both families.
LABELS = (
    "R00", "R33", "R01+", "R01-", "R02+", "R02-", "R03+", "R03-",
    "R11", "R12+", "R12-", "R13+", "R13-", "R22", "R23+", "R23-",
)


class EigenoperatorCatalog:
    """Sixteen right eigenoperators of a two-qubit generator, rights (16, 4, 4)
    in LABELS order, with their eigenvalues (16,) and their left duals lefts
    (16, 4, 4), all three read-only.  The catalog solves nothing: it checks
    the lefts it is given, so replacing rights means replacing lefts too.
    Raises ValueError on a NaN or inf eigenvalue, before the duality check,
    and ArithmeticError when the lefts miss duality by more than DUALITY_TOL."""

    __slots__ = ("rights", "eigenvalues", "lefts")

    def __init__(self, rights, eigenvalues, lefts):
        rights = linalg.float_or_complex(rights)
        eigenvalues = np.array(eigenvalues, dtype=float)
        lefts = linalg.float_or_complex(lefts)
        if rights.shape != (16, 4, 4) or eigenvalues.shape != (16,) or lefts.shape != rights.shape:
            shapes = f"rights {rights.shape}, eigenvalues {eigenvalues.shape}, lefts {lefts.shape}"
            raise ValueError(f"catalog needs 16 entries in each stack, got {shapes}")
        if not linalg.finite(eigenvalues):  # exp(lambda t) would be NaN or inf
            raise ValueError(f"catalog eigenvalues must be finite, got {eigenvalues.tolist()}")
        self.rights, self.lefts = linalg._readonly(rights), linalg._readonly(lefts)
        self.eigenvalues = linalg._readonly(eigenvalues)
        worst = duality_residual(self)
        if not worst <= DUALITY_TOL:  # a NaN left fails too
            raise ArithmeticError(f"duality residual {worst:.3e} exceeds {DUALITY_TOL:g}")


_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _catalog(r00, l00, l33, lam33, lam_0x, lam03, lam13, lam23) -> EigenoperatorCatalog:
    """The catalog in LABELS layout with closed-form left duals; only R00, L00,
    L33 (diagonals, in units of 1/sqrt(2)) and the eigenvalues differ by family.

    Every right is real.  The fourteen outside the diagonal pair (R00, R33)
    are orthonormal under tr(A^T B) and orthogonal to every diagonal on |00>
    and |11>, so their duals are their transposes.  The pair's duals are the
    diagonals on |00> and |11> solving tr(L_a R_b) = delta_ab: the transposes
    again for dephasing's orthonormal pair; for damping's R00 = sqrt(2)|11><11|,
    L00 = (|00><00| + |11><11|) / sqrt(2), the trace functional, and
    L33 = sqrt(2)|00><00|.  The rate enters only the eigenvalues, linearly:
    rights and lefts are the same at every rate.
    """
    rights = np.zeros((16, 4, 4))
    rights[0] = _INV_SQRT2 * np.diag(r00)
    rights[1] = _INV_SQRT2 * np.diag([1.0, 0.0, 0.0, -1.0])
    for k, label in enumerate(LABELS[2:], start=2):
        i, j = int(label[1]), int(label[2])
        if i == j:
            rights[k, i, i] = 1.0
        else:
            rights[k, i, j] = _INV_SQRT2 if label[3] == "+" else -_INV_SQRT2
            rights[k, j, i] = _INV_SQRT2
    lefts = rights.transpose(0, 2, 1).copy()
    lefts[0], lefts[1] = _INV_SQRT2 * np.diag(l00), _INV_SQRT2 * np.diag(l33)
    return EigenoperatorCatalog(
        rights,
        [0.0, lam33] + [lam_0x] * 4 + [lam03] * 2 + [0.0] * 3 + [lam13] * 2 + [0.0] + [lam23] * 2,
        lefts,
    )


def catalog_dephasing_correlated(gamma_rate: float) -> EigenoperatorCatalog:
    """Eigenoperators of the Z(x)Z dephasing generator.

    A matrix unit |i><j| decays at rate Gamma exactly when the parities
    z_i z_j disagree, so the spectrum is {0, -Gamma} only.
    """
    _check_nonnegative(rate=gamma_rate)
    g = float(gamma_rate)
    r00, r33 = [1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, -1.0]
    return _catalog(r00, r00, r33, lam33=0.0, lam_0x=-g, lam03=0.0, lam13=-g, lam23=-g)


def catalog_ad_correlated(alpha_rate: float) -> EigenoperatorCatalog:
    """Eigenoperators of the correlated-decay generator (jump |11><00|).

    Coherences to |00> decay at alpha/2, the |00> population relaxes into
    |11> at alpha, and everything supported away from |00> is frozen.
    """
    _check_nonnegative(rate=alpha_rate)
    a = float(alpha_rate)
    r00, l00, l33 = [0.0, 0.0, 0.0, 2.0], [1.0, 0.0, 0.0, 1.0], [2.0, 0.0, 0.0, 0.0]
    return _catalog(r00, l00, l33, lam33=-a, lam_0x=-a / 2.0, lam03=-a / 2.0, lam13=0.0, lam23=0.0)


def dual_basis(rights: np.ndarray) -> np.ndarray:
    """The (16, 4, 4) left duals of a (16, 4, 4) stack of rights, solving
    tr(L_i R_j) = delta_ij: the general reference for _catalog's closed forms.

    With row-major vectorization tr(L R_j) = vec(R_j^T) . vec(L), so the
    lefts are the columns of the inverse of the matrix whose rows are the
    vectorized transposed rights.
    """
    gram = rights.transpose(0, 2, 1).reshape(16, 16)
    try:
        sol = linalg.solve_linear(gram, np.eye(16))
    except ValueError as exc:
        raise ValueError(f"right eigenoperators do not span the operator space: {exc}")
    return sol.T.reshape(16, 4, 4)


def duality_residual(cat: EigenoperatorCatalog) -> float:
    """Max |tr(L_i R_j) - delta_ij| over all pairs."""
    traces = np.einsum("iab,jba->ij", cat.lefts, cat.rights)
    return linalg.worst(np.abs(traces - np.eye(16)))


def evolve(cat: EigenoperatorCatalog, t: float, pi: DensityMatrix) -> DensityMatrix:
    """Spectral map sum_i tr(L_i pi) exp(lambda_i t) R_i = spectral_matrix @ vec(pi)."""
    out = spectral_matrix(cat, t) @ pi.mat.reshape(-1)
    return DensityMatrix(out.reshape(4, 4))


def spectral_matrix(cat: EigenoperatorCatalog, t: float) -> np.ndarray:
    """Transfer matrix of the spectral map at time t, row-major like
    superoperator_matrix: sum_i exp(lambda_i t) vec(R_i) vec(L_i^T)^T,
    since tr(L_i pi) = vec(L_i^T) . vec(pi)."""
    _check_nonnegative(time=t)
    # math.exp rounds better than numpy's vectorized exp, which is 1 ulp off
    # at some points (rate 2.3, t = 0.5), so the weights are 16 scalar calls
    w = np.array([math.exp(lam * t) for lam in cat.eigenvalues.tolist()])
    r, lt = cat.rights.reshape(16, 16), cat.lefts.transpose(0, 2, 1).reshape(16, 16)
    return (w[:, None, None] * (r[:, :, None] * lt[:, None, :])).sum(axis=0)


def exponential_matrix(spec: LindbladSpec, t: float) -> np.ndarray:
    """exp(t S) for the generator matrix S, spectral_matrix's twin: V exp(t Lambda) V^-1 from
    S V = V Lambda, exactly the exponential of S + dS with dS = V Lambda V^-1 - S.  A diagonal
    S needs no solve.  A defective S fails closed: solve_linear refuses a singular V
    (ValueError), and ||dS||_F > DUALITY_TOL ||S||_F raises ArithmeticError."""
    _check_nonnegative(time=t)
    s = superoperator_matrix(spec)
    if linalg.worst(np.abs(s - np.diag(np.diag(s)))) == 0.0:  # eig's own answer, without its
        return np.diag(np.exp(t * np.diag(s)))  # ~0.3 MB of LAPACK code
    lam, v = np.linalg.eig(s)
    v_inv = linalg.solve_linear(v, np.eye(16))
    gap = float(np.linalg.norm(v * lam @ v_inv - s))
    if not gap <= DUALITY_TOL * float(np.linalg.norm(s)):
        raise ArithmeticError(f"eigendecomposition misses the generator by {gap:.3e}")
    return v * np.exp(t * lam) @ v_inv


def verify_eigen(spec: LindbladSpec, cat: EigenoperatorCatalog) -> list:
    """Per-entry residual ||L(R_i) - lambda_i R_i||_F in LABELS order, linear in the rate (S
    and the eigenvalues are; the rights do not depend on it).  S vec(R_i) is one einsum at its
    default optimize=False, which, unlike @, never pages in OpenBLAS's gemm."""
    vecs = cat.rights.reshape(16, 16)
    s_vecs = np.einsum("ij,kj->ki", superoperator_matrix(spec), vecs)
    return np.linalg.norm(s_vecs - cat.eigenvalues[:, None] * vecs, axis=1).tolist()


def dephasing_flip_probability(gamma_rate: float, t: float) -> float:
    """Phase-flip probability accumulated by time t: (1 - exp(-Gamma t)) / 2."""
    _check_nonnegative(rate=gamma_rate, time=t)
    return 0.5 * (1.0 - math.exp(-gamma_rate * t))


def damping_angle(alpha_rate: float, t: float) -> float:
    """Damping angle chi(t) with cos(chi) = exp(-alpha t / 2)."""
    _check_nonnegative(rate=alpha_rate, time=t)
    return math.acos(math.exp(-0.5 * alpha_rate * t))


def kraus_equivalence(transfer: np.ndarray, kraus: KrausSet) -> float:
    """Exact gap ||transfer - kraus.transfer||_F between a Lindblad map's
    transfer matrix (spectral_matrix or exponential_matrix) and a Kraus set.

    The Frobenius norm of the transfer-matrix difference bounds the output
    gap ||Phi_1(rho) - Phi_2(rho)||_F for every input with ||rho||_F <= 1,
    so the check covers all states rather than a sample.
    """
    return float(np.linalg.norm(transfer - kraus.transfer))


def evolve_superoperator(spec: LindbladSpec, t: float, pi: DensityMatrix) -> DensityMatrix:
    """Exponentiated generator map exponential_matrix(spec, t) @ vec(pi)."""
    return DensityMatrix((exponential_matrix(spec, t) @ pi.mat.reshape(-1)).reshape(4, 4))
