"""Kraus channels for one and two qubit states, with and without memory.

Three channel families are provided, each parameterized as follows:

* amplitude damping -- damping angle chi in [0, pi/2];
* dephasing -- phase-flip probability p in [0, 1];
* depolarizing -- error probability p in [0, 1] shared equally by the
  three Pauli errors.

Each family has an uncorrelated two-use form (independent noise on the two
uses) and a correlated form (both uses suffer the same noise); the partial
memory channel mixes them with weight mu.  Basis conventions: single-qubit
basis {|0>, |1>} with |0> the excited state, two-qubit basis ordered
|00>, |01>, |10>, |11>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .linalg import IDENTITY_2, PAULI_PAIRS, SIGMA_Z

DENSITY_TOL = 1e-10      # Hermiticity / trace / positivity gates
CPTP_APPLY_TOL = 1e-10   # completeness residual allowed when applying a channel

AMPLITUDE_DAMPING = "amplitude-damping"
DEPHASING = "dephasing"
DEPOLARIZING = "depolarizing"
FAMILIES = (AMPLITUDE_DAMPING, DEPHASING, DEPOLARIZING)


def _check_range(name: str, value: float, lo: float, hi: float) -> None:
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must lie in [{lo!r}, {hi!r}], got {value!r}")


def density_spectra(m: np.ndarray) -> np.ndarray:
    """Ascending spectra of a density matrix, or of each in a (..., d, d) stack
    (one eigvalsh call), after checking in turn that every matrix is finite,
    Hermitian, unit trace and positive semidefinite at DENSITY_TOL."""
    if not np.all(np.isfinite(m)):
        raise ValueError("density matrix has non-finite entries")
    herm = np.linalg.norm(m - m.conj().swapaxes(-1, -2), axis=(-2, -1))
    if np.any(herm > DENSITY_TOL):
        raise ValueError(f"matrix is not Hermitian: residual {float(herm.max()):.3e}")
    tr = np.trace(m, axis1=-2, axis2=-1)
    off = np.abs(tr - 1.0)
    if np.any(off > DENSITY_TOL):
        raise ValueError(f"trace must be 1, got {complex(tr.flat[np.argmax(off)]):.12g}")
    spectra = linalg.hermitian_eigen(m)
    lowest = float(spectra[..., 0].min(initial=0.0))
    if lowest < -DENSITY_TOL:
        raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {lowest:.3e}")
    return spectra


class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix of dimension 2 or 4.

    Validation happens on construction (density_spectra); the spectrum
    computed for the positivity check is kept (ascending) for entropies.
    """

    __slots__ = ("mat", "eigenvalues")

    def __init__(self, mat):
        m = np.array(mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        if m.shape[0] not in (2, 4):
            raise ValueError(f"unsupported dimension {m.shape[0]}, expected 2 or 4")
        spectrum = density_spectra(m)
        m.flags.writeable = False
        self.mat = m
        self.eigenvalues = spectrum

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def pure_state(ket) -> DensityMatrix:
    """Density matrix |k><k| of a (normalized copy of a) state vector."""
    k = np.asarray(ket, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(k))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    k = k / norm
    return DensityMatrix(np.outer(k, k.conj()))


def random_density_matrix(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random state: normalized G G* for a complex Gaussian G."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


@dataclass(frozen=True)
class KrausSet:
    """A finite list of equal-shape operators K_k defining the channel
    rho -> sum_k K rho K*.

    The map is completely positive by construction, so it is a CPTP channel
    exactly when it is trace preserving: completeness_residual,
    ||sum_k K*K - I||_F, is the whole check.  transfer is the channel's one
    representation, which apply and the Lindblad comparisons read directly.
    Both are computed once per set.  dim is 4 for the two-use channels and 2
    for the single-qubit damping set they are built from.
    """

    dim: int
    ops: tuple

    def __post_init__(self):
        if self.dim not in (2, 4):
            raise ValueError(f"unsupported dimension {self.dim}, expected 2 or 4")
        if not self.ops:
            raise ValueError("a KrausSet needs at least one operator")
        frozen = []
        for op in self.ops:
            m = np.array(op, dtype=complex)
            if m.shape != (self.dim, self.dim):
                raise ValueError(
                    f"operator shape {m.shape} does not match channel dim {self.dim}"
                )
            m.flags.writeable = False
            frozen.append(m)
        object.__setattr__(self, "ops", tuple(frozen))

    @cached_property
    def completeness_residual(self) -> float:
        ops = np.array(self.ops)
        total = np.einsum("kji,kjl->il", ops.conj(), ops)
        return float(np.linalg.norm(total - np.eye(self.dim)))

    @cached_property
    def transfer(self) -> np.ndarray:
        """Matrix T = sum_k kron(K, conj(K)) with T @ vec(rho) = vec(sum_k K rho K*)
        under row-major vectorization (dim^2 x dim^2); read-only."""
        ops = np.array(self.ops)
        t = np.einsum("kij,kab->iajb", ops, ops.conj()).reshape(self.dim**2, self.dim**2)
        t.flags.writeable = False
        return t

    def require_trace_preserving(self) -> None:
        """Raise ValueError when the completeness residual exceeds CPTP_APPLY_TOL."""
        if (residual := self.completeness_residual) > CPTP_APPLY_TOL:
            raise ValueError(f"Kraus set is not trace preserving: residual {residual:.3e}")


def check_cptp(kraus: KrausSet) -> float:
    """Frobenius residual of sum_k K*K against the identity (0 for a CPTP set)."""
    return kraus.completeness_residual


@dataclass(frozen=True)
class ChannelParams:
    """Validated parameter bundle for one channel family."""

    which: str
    mu: float = 0.0
    chi: float = 0.0
    p: float = 0.0

    def __post_init__(self):
        if self.which not in FAMILIES:
            raise ValueError(f"unknown channel family {self.which!r}")
        _check_range("mu", self.mu, 0.0, 1.0)
        _check_range("chi", self.chi, 0.0, math.pi / 2)
        _check_range("p", self.p, 0.0, 1.0)

    @classmethod
    def for_family(cls, which: str, param: float, mu: float = 0.0) -> "ChannelParams":
        """Bundle a family's scalar parameter (chi or p) with a memory degree."""
        if which == AMPLITUDE_DAMPING:
            return cls(which=which, mu=mu, chi=param)
        if which in (DEPHASING, DEPOLARIZING):
            return cls(which=which, mu=mu, p=param)
        raise ValueError(f"unknown channel family {which!r}")


def amplitude_damping_kraus(chi: float) -> KrausSet:
    """Single-qubit damping: |0> decays to |1> with amplitude sin(chi)."""
    _check_range("chi", chi, 0.0, math.pi / 2)
    e0 = np.array([[math.cos(chi), 0.0], [0.0, 1.0]], dtype=complex)
    e1 = np.array([[0.0, 0.0], [math.sin(chi), 0.0]], dtype=complex)
    return KrausSet(dim=2, ops=(e0, e1))


def ad_uncorrelated_kraus2(chi: float) -> KrausSet:
    """Two independent uses of the damping channel: all tensor pairs of E0, E1."""
    single = amplitude_damping_kraus(chi).ops
    return KrausSet(dim=4, ops=tuple(np.kron(a, b) for a in single for b in single))


def ad_correlated_kraus2(chi: float) -> KrausSet:
    """Correlated two-use damping: only |00> decays, straight to |11>.

    The no-decay operator is diag(cos chi, 1, 1, 1), which is not a tensor
    product of single-qubit operators; everything supported away from |00>
    passes through untouched.
    """
    _check_range("chi", chi, 0.0, math.pi / 2)
    e00 = np.diag([math.cos(chi), 1.0, 1.0, 1.0]).astype(complex)
    e11 = np.zeros((4, 4), dtype=complex)
    e11[3, 0] = math.sin(chi)
    return KrausSet(dim=4, ops=(e00, e11))


def dephasing_uncorrelated_kraus(p: float) -> KrausSet:
    """Independent phase flips on each use with probability p."""
    _check_range("p", p, 0.0, 1.0)
    cross = math.sqrt(p * (1.0 - p))
    return KrausSet(
        dim=4,
        ops=(
            (1.0 - p) * np.eye(4, dtype=complex),
            cross * np.kron(IDENTITY_2, SIGMA_Z),
            cross * np.kron(SIGMA_Z, IDENTITY_2),
            p * np.kron(SIGMA_Z, SIGMA_Z),
        ),
    )


def dephasing_correlated_kraus(p: float) -> KrausSet:
    """Simultaneous phase flip on both uses with probability p."""
    _check_range("p", p, 0.0, 1.0)
    return KrausSet(
        dim=4,
        ops=(
            math.sqrt(1.0 - p) * np.eye(4, dtype=complex),
            math.sqrt(p) * np.kron(SIGMA_Z, SIGMA_Z),
        ),
    )


def _pauli_probs(p: float) -> tuple:
    return (1.0 - p, p / 3.0, p / 3.0, p / 3.0)


def depolarizing_uncorrelated_kraus2(p: float) -> KrausSet:
    """Independent Pauli errors on the two uses: 16 operators sqrt(p_i p_j) s_i x s_j."""
    _check_range("p", p, 0.0, 1.0)
    probs = _pauli_probs(p)
    ops = tuple(
        math.sqrt(probs[i] * probs[j]) * PAULI_PAIRS[i][j]
        for i in range(4)
        for j in range(4)
    )
    return KrausSet(dim=4, ops=ops)


def depolarizing_correlated_kraus2(p: float) -> KrausSet:
    """The same Pauli error on both uses: 4 operators sqrt(p_k) s_k x s_k."""
    _check_range("p", p, 0.0, 1.0)
    probs = _pauli_probs(p)
    ops = tuple(math.sqrt(probs[k]) * PAULI_PAIRS[k][k] for k in range(4))
    return KrausSet(dim=4, ops=ops)


def memory_channel(unc: KrausSet, cor: KrausSet, mu: float) -> KrausSet:
    """Partial-memory mixture: uncorrelated branch weighted 1-mu, correlated mu."""
    if unc.dim != cor.dim:
        raise ValueError(f"dimension mismatch: {unc.dim} vs {cor.dim}")
    _check_range("mu", mu, 0.0, 1.0)
    wu = math.sqrt(1.0 - mu)
    wc = math.sqrt(mu)
    ops = tuple(wu * op for op in unc.ops) + tuple(wc * op for op in cor.ops)
    return KrausSet(dim=unc.dim, ops=ops)


def memory_branches(which: str, param: float) -> tuple:
    """The (uncorrelated, correlated) two-use Kraus sets of a family at its
    scalar parameter, chi for amplitude damping and p otherwise."""
    if which == AMPLITUDE_DAMPING:
        return ad_uncorrelated_kraus2(param), ad_correlated_kraus2(param)
    if which == DEPHASING:
        return dephasing_uncorrelated_kraus(param), dephasing_correlated_kraus(param)
    if which == DEPOLARIZING:
        return depolarizing_uncorrelated_kraus2(param), depolarizing_correlated_kraus2(param)
    raise ValueError(f"unknown channel family {which!r}")


def memory_branch_bound(which: str, param: float) -> tuple:
    """Completeness residual bound of a family's partial-memory channel that
    holds for every memory degree mu in [0, 1], with the branches it came from.

    The mixture's completeness defect is affine in mu,
    sum_k K*K - I = (1 - mu)(C_unc - I) + mu (C_cor - I), and a norm is
    convex, so over the whole interval it is largest at a branch:
    bound = max(||C_unc - I||_F, ||C_cor - I||_F).  A Kraus form is CP by
    construction, so completeness is the whole CPTP check, and a small bound
    certifies every mixture without building one.  Returns
    (bound, (unc, cor)) so that a caller which goes on to use the branches
    builds them once.
    """
    branches = memory_branches(which, param)
    return max(check_cptp(branch) for branch in branches), branches


def build_memory_channel(params: ChannelParams) -> KrausSet:
    """The two-use partial-memory channel selected by a parameter bundle."""
    param = params.chi if params.which == AMPLITUDE_DAMPING else params.p
    return memory_channel(*memory_branches(params.which, param), params.mu)


def apply(kraus: KrausSet, rho: DensityMatrix) -> DensityMatrix:
    """Channel action sum_k K rho K*, as kraus.transfer @ vec(rho)."""
    if kraus.dim != rho.dim:
        raise ValueError(f"channel dim {kraus.dim} does not match state dim {rho.dim}")
    kraus.require_trace_preserving()
    out = kraus.transfer @ rho.mat.reshape(-1)
    return DensityMatrix(out.reshape(kraus.dim, kraus.dim))
