"""Two-qubit Lindblad generators in jump-operator form and their spectral
channel maps.

A generator is a list of (rate, jump) pairs on the two-use space (dim 4),

    L(pi) = sum_k rate_k * (J pi J* - (J*J pi + pi J*J) / 2);

here correlated dephasing (jump Z x Z), correlated damping (sigma x sigma)
and uncorrelated dephasing (jumps I x Z and Z x I).

Channels are evaluated two ways: through a catalog of right eigenoperators
R_i (L R_i = lambda_i R_i) paired with left duals L_i (tr(L_i R_j) =
delta_ij, plain trace), giving

    pi -> sum_i tr(L_i pi) exp(lambda_i t) R_i,

or by exponentiating the generator's matrix on row-major vectorized states.
The correlated dephasing map reduces to phase-flip Kraus operators with
p = (1 - exp(-Gamma t)) / 2, and the correlated damping map to the damping
Kraus pair with cos(chi) = exp(-alpha t / 2).

Every map is a row-major transfer matrix, the representation channels.apply
uses for Kraus sets (KrausSet.transfer): L(pi) is
superoperator_matrix(spec) @ vec(pi), evolve is
spectral_matrix(cat, t) @ vec(pi), and evolve_superoperator is
expm(t S) @ vec(pi).  kraus_equivalence compares those matrices directly,
so the Kraus/Lindblad gap it reports is exact and holds for every input
state, not just a random sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .channels import DensityMatrix, KrausSet
from .linalg import IDENTITY_2, SIGMA_Z

DUALITY_TOL = 1e-10

# annihilation |1><0| in the {|0> excited, |1> ground} basis
LOWERING = np.array([[0, 0], [1, 0]], dtype=complex)
LOWERING.flags.writeable = False


@dataclass(frozen=True)
class LindbladSpec:
    """Jump-operator form of a two-qubit generator: (rate, jump) pairs on dim 4."""

    dim: int
    terms: tuple

    def __post_init__(self):
        if self.dim != 4:
            raise ValueError(f"unsupported dimension {self.dim}, expected 4")
        if not self.terms:
            raise ValueError("a LindbladSpec needs at least one (rate, jump) term")
        frozen = []
        for rate, jump in self.terms:
            rate = float(rate)
            if rate < 0.0:
                raise ValueError(f"rates must be nonnegative, got {rate!r}")
            m = np.array(jump, dtype=complex)
            if m.shape != (self.dim, self.dim):
                raise ValueError(
                    f"jump operator shape {m.shape} does not match dim {self.dim}"
                )
            m.flags.writeable = False
            frozen.append((rate, m))
        object.__setattr__(self, "terms", tuple(frozen))


def dephasing_correlated_spec(gamma_rate: float) -> LindbladSpec:
    """Two-qubit correlated dephasing with jump Z (x) Z."""
    return LindbladSpec(dim=4, terms=((gamma_rate / 2.0, np.kron(SIGMA_Z, SIGMA_Z)),))


def ad_correlated_spec(alpha_rate: float) -> LindbladSpec:
    """Two-qubit correlated decay with jump sigma (x) sigma (|00> -> |11>)."""
    return LindbladSpec(dim=4, terms=((alpha_rate, np.kron(LOWERING, LOWERING)),))


def dephasing_uncorrelated_spec(gamma_rate: float) -> LindbladSpec:
    """Independent dephasing of each qubit: jumps I (x) Z and Z (x) I at Gamma/2."""
    half = gamma_rate / 2.0
    return LindbladSpec(
        dim=4,
        terms=(
            (half, np.kron(IDENTITY_2, SIGMA_Z)),
            (half, np.kron(SIGMA_Z, IDENTITY_2)),
        ),
    )


def superoperator_matrix(spec: LindbladSpec) -> np.ndarray:
    """Matrix S with S @ vec(pi) = vec(L(pi)) under row-major vectorization.

    vec(X) = X.reshape(-1) stacks rows, so vec(A X B) = kron(A, B.T) @ vec(X)
    (a plain transpose, not the conjugate); KrausSet.transfer and
    spectral_matrix use the same convention.  L is trace annihilating,
    vec(I)^T S = 0, so tr L(X) = 0 for every X.
    """
    n = spec.dim
    eye = np.eye(n, dtype=complex)
    s = np.zeros((n * n, n * n), dtype=complex)
    for rate, jump in spec.terms:
        jdj = jump.conj().T @ jump
        s += rate * (
            np.kron(jump, jump.conj())
            - 0.5 * np.kron(jdj, eye)
            - 0.5 * np.kron(eye, jdj.T)
        )
    return s


@dataclass(frozen=True)
class CatalogEntry:
    label: str
    right: np.ndarray
    eigenvalue: float


@dataclass(frozen=True)
class EigenoperatorCatalog:
    """Right eigenoperators with eigenvalues, plus left duals once computed."""

    dim: int
    entries: tuple
    lefts: tuple | None = None

    def __post_init__(self):
        if len(self.entries) != self.dim * self.dim:
            raise ValueError(
                f"catalog needs {self.dim * self.dim} entries, got {len(self.entries)}"
            )
        if self.lefts is not None and len(self.lefts) != len(self.entries):
            raise ValueError("lefts must align one-to-one with entries")


_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _unit(i: int, j: int) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[i, j] = 1.0
    return m


def _pair(i: int, j: int, sign: int) -> np.ndarray:
    """(sign |i><j| + |j><i|) / sqrt(2) for i < j."""
    return _INV_SQRT2 * (sign * _unit(i, j) + _unit(j, i))


def _catalog_entries(r00, lam00, lam33, lam_0x, lam_rest):
    """The shared 16-operator layout; only R00 and the eigenvalues differ by family."""
    r33 = _INV_SQRT2 * np.diag([1.0, 0.0, 0.0, -1.0]).astype(complex)
    return (
        CatalogEntry("R00", r00, lam00),
        CatalogEntry("R33", r33, lam33),
        CatalogEntry("R01+", _pair(0, 1, +1), lam_0x),
        CatalogEntry("R01-", _pair(0, 1, -1), lam_0x),
        CatalogEntry("R02+", _pair(0, 2, +1), lam_0x),
        CatalogEntry("R02-", _pair(0, 2, -1), lam_0x),
        CatalogEntry("R03+", _pair(0, 3, +1), lam_rest["R03"]),
        CatalogEntry("R03-", _pair(0, 3, -1), lam_rest["R03"]),
        CatalogEntry("R11", _unit(1, 1), lam_rest["R11"]),
        CatalogEntry("R12+", _pair(1, 2, +1), lam_rest["R12"]),
        CatalogEntry("R12-", _pair(1, 2, -1), lam_rest["R12"]),
        CatalogEntry("R13+", _pair(1, 3, +1), lam_rest["R13"]),
        CatalogEntry("R13-", _pair(1, 3, -1), lam_rest["R13"]),
        CatalogEntry("R22", _unit(2, 2), lam_rest["R22"]),
        CatalogEntry("R23+", _pair(2, 3, +1), lam_rest["R23"]),
        CatalogEntry("R23-", _pair(2, 3, -1), lam_rest["R23"]),
    )


def catalog_dephasing_correlated(gamma_rate: float) -> EigenoperatorCatalog:
    """Eigenoperators of the Z(x)Z dephasing generator.

    A matrix unit |i><j| decays at rate Gamma exactly when the parities
    z_i z_j disagree, so the spectrum is {0, -Gamma} only.
    """
    if gamma_rate < 0.0:
        raise ValueError(f"rate must be nonnegative, got {gamma_rate!r}")
    g = float(gamma_rate)
    r00 = _INV_SQRT2 * np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
    entries = _catalog_entries(
        r00,
        lam00=0.0,
        lam33=0.0,
        lam_0x=-g,
        lam_rest={"R03": 0.0, "R11": 0.0, "R12": 0.0, "R13": -g, "R22": 0.0, "R23": -g},
    )
    return EigenoperatorCatalog(dim=4, entries=entries)


def catalog_ad_correlated(alpha_rate: float) -> EigenoperatorCatalog:
    """Eigenoperators of the correlated-decay generator (jump |11><00|).

    Coherences to |00> decay at alpha/2, the |00> population relaxes into
    |11> at alpha, and everything supported away from |00> is frozen.
    """
    if alpha_rate < 0.0:
        raise ValueError(f"rate must be nonnegative, got {alpha_rate!r}")
    a = float(alpha_rate)
    r00 = _INV_SQRT2 * np.diag([0.0, 0.0, 0.0, 2.0]).astype(complex)
    entries = _catalog_entries(
        r00,
        lam00=0.0,
        lam33=-a,
        lam_0x=-a / 2.0,
        lam_rest={"R03": -a / 2.0, "R11": 0.0, "R12": 0.0, "R13": 0.0, "R22": 0.0, "R23": 0.0},
    )
    return EigenoperatorCatalog(dim=4, entries=entries)


def dual_basis(cat: EigenoperatorCatalog) -> EigenoperatorCatalog:
    """Populate the left duals by solving tr(L_i R_j) = delta_ij.

    With row-major vectorization tr(L R_j) = vec(R_j^T) . vec(L), so the
    lefts are the columns of the inverse of the matrix whose rows are the
    vectorized transposed rights.
    """
    n = cat.dim
    gram = np.array([entry.right.T.reshape(-1) for entry in cat.entries])
    try:
        sol = linalg.solve_linear(gram, np.eye(n * n, dtype=complex))
    except ValueError as exc:
        raise ValueError(f"right eigenoperators do not span the operator space: {exc}")
    cat = replace(cat, lefts=tuple(sol.T.reshape(n * n, n, n)))
    worst = duality_residual(cat)
    if worst > DUALITY_TOL:
        raise ArithmeticError(f"duality residual {worst:.3e} exceeds {DUALITY_TOL:g}")
    return cat


def duality_residual(cat: EigenoperatorCatalog) -> float:
    """Max |tr(L_i R_j) - delta_ij| over all pairs (lefts must be populated)."""
    if cat.lefts is None:
        raise ValueError("catalog has no left operators; run dual_basis first")
    rights = np.array([entry.right for entry in cat.entries])
    traces = np.einsum("iab,jba->ij", np.array(cat.lefts), rights)
    return float(np.max(np.abs(traces - np.eye(len(rights)))))


def evolve(cat: EigenoperatorCatalog, t: float, pi: DensityMatrix) -> DensityMatrix:
    """Spectral map sum_i tr(L_i pi) exp(lambda_i t) R_i = spectral_matrix @ vec(pi)."""
    out = spectral_matrix(cat, t) @ pi.mat.reshape(-1)
    return DensityMatrix(out.reshape(cat.dim, cat.dim))


def spectral_matrix(cat: EigenoperatorCatalog, t: float) -> np.ndarray:
    """Transfer matrix of the spectral map at time t, row-major like
    superoperator_matrix: sum_i exp(lambda_i t) vec(R_i) vec(L_i^T)^T,
    since tr(L_i pi) = vec(L_i^T) . vec(pi)."""
    if cat.lefts is None:
        raise ValueError("catalog has no left operators; run dual_basis first")
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t!r}")
    return sum(
        math.exp(entry.eigenvalue * t) * np.outer(entry.right.reshape(-1), left.T.reshape(-1))
        for entry, left in zip(cat.entries, cat.lefts)
    )


def verify_eigen(spec: LindbladSpec, cat: EigenoperatorCatalog) -> list:
    """Per-entry residual ||L(R_i) - lambda_i R_i||_F."""
    if spec.dim != cat.dim:
        raise ValueError(f"generator dim {spec.dim} does not match catalog dim {cat.dim}")
    s = superoperator_matrix(spec)
    return [
        float(np.linalg.norm(s @ e.right.reshape(-1) - e.eigenvalue * e.right.reshape(-1)))
        for e in cat.entries
    ]


def dephasing_flip_probability(gamma_rate: float, t: float) -> float:
    """Phase-flip probability accumulated by time t: (1 - exp(-Gamma t)) / 2."""
    return 0.5 * (1.0 - math.exp(-gamma_rate * t))


def damping_angle(alpha_rate: float, t: float) -> float:
    """Damping angle chi(t) with cos(chi) = exp(-alpha t / 2)."""
    return math.acos(math.exp(-0.5 * alpha_rate * t))


def kraus_equivalence(cat: EigenoperatorCatalog, t: float, kraus_builder, param_map) -> float:
    """Exact gap ||spectral_matrix(cat, t) - K.transfer||_F between the
    spectral map at time t and the Kraus channel K = kraus_builder(param_map(t)).

    The Frobenius norm of the transfer-matrix difference bounds the output
    gap ||Phi_1(rho) - Phi_2(rho)||_F for every input with ||rho||_F <= 1,
    so the check covers all states rather than a sample.
    """
    spectral = spectral_matrix(cat, t)
    kraus: KrausSet = kraus_builder(param_map(t))
    return float(np.linalg.norm(spectral - kraus.transfer))


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a truncated Taylor series."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    norm = float(np.linalg.norm(a, np.inf))
    squarings = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0.5 else 0
    b = a / (2.0**squarings)
    term = np.eye(n, dtype=complex)
    result = np.eye(n, dtype=complex)
    for k in range(1, 40):
        term = term @ b / k
        result = result + term
        if float(np.linalg.norm(term)) <= 1e-18 * float(np.linalg.norm(result)):
            break
    for _ in range(squarings):
        result = result @ result
    return result


def evolve_superoperator(spec: LindbladSpec, t: float, pi: DensityMatrix) -> DensityMatrix:
    """Evolve pi for time t by exponentiating the vectorized generator."""
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t!r}")
    prop = _expm(t * superoperator_matrix(spec))
    return DensityMatrix((prop @ pi.mat.reshape(-1)).reshape(spec.dim, spec.dim))
