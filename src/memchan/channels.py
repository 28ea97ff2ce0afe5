"""Kraus channels for one and two qubit states, with and without memory.

Three channel families are provided, each parameterized as follows:

* amplitude damping -- damping angle chi in [0, pi/2];
* dephasing -- phase-flip probability p in [0, 1];
* depolarizing -- error probability p in [0, 1] shared equally by the
  three Pauli errors.

Dephasing and depolarizing are Pauli channels and share one construction
from their (Pauli index, q) weights; dephasing's list only I and Z.  Their
sigma_y enters as XZ = -i sigma_y (linalg.PAULI_PAIRS): a phase leaves a
Kraus operator's channel unchanged, and every operator of the three families
is real.

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
from .linalg import PAULI_PAIRS

DENSITY_TOL = 1e-10      # Hermiticity / trace / positivity gates
CPTP_APPLY_TOL = 1e-10   # completeness residual allowed when applying a channel

# Family ids: what the library takes and the CLI reads and prints
AMPLITUDE_DAMPING = "ad"
DEPHASING = "dephasing"
DEPOLARIZING = "dp"

# The closed interval of each parameter, read by _check_range and the CLI:
# memory degree, damping angle, error probability and input ensemble angle
DOMAINS = dict(mu=(0.0, 1.0), chi=(0.0, math.pi / 2), p=(0.0, 1.0), theta=(0.0, math.pi / 2))
# Each family's scalar parameter, as its DOMAINS key; the one place it is chosen
FAMILIES = {AMPLITUDE_DAMPING: "chi", DEPHASING: "p", DEPOLARIZING: "p"}


def grid(lo: float, hi: float, count: int) -> list:
    """count equally spaced floats, memchan's one grid rule: exactly lo and hi
    at the ends, so no point rounds past a DOMAINS end, and lo + (hi - lo) *
    i / (count - 1) between them; a count of 1 gives [lo]."""
    if count < 1:
        raise ValueError(f"grid count must be at least 1, got {count!r}")
    if count == 1:
        return [lo]
    return [lo] + [lo + (hi - lo) * i / (count - 1) for i in range(1, count - 1)] + [hi]


def _check_range(name: str, value: float) -> None:
    lo, hi = DOMAINS[name]
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must lie in [{lo!r}, {hi!r}], got {value!r}")


def check_density_form(m: np.ndarray) -> np.ndarray:
    """The form half of the density checks: raise unless every matrix of m, one
    (d, d) matrix or a (..., d, d) stack, is finite, Hermitian and unit trace
    at DENSITY_TOL, checked in that order.  Returns m.  The one place a
    density matrix's form is checked: the eigensolve after it checks nothing."""
    if not np.all(np.isfinite(m)):
        raise ValueError("density matrix has non-finite entries")
    herm = np.linalg.norm(m - m.conj().swapaxes(-1, -2), axis=(-2, -1))
    if np.any(herm > DENSITY_TOL):
        raise ValueError(f"matrix is not Hermitian: residual {float(herm.max()):.3e}")
    tr = np.trace(m, axis1=-2, axis2=-1)
    off = np.abs(tr - 1.0)
    if np.any(off > DENSITY_TOL):
        raise ValueError(f"trace must be 1, got {complex(tr.flat[np.argmax(off)]):.12g}")
    return m


def check_positive_spectra(spectra: np.ndarray) -> np.ndarray:
    """The positivity half of the density checks: raise unless every ascending
    spectrum in spectra (last axis) is at least -DENSITY_TOL.  Returns spectra."""
    lowest = float(spectra[..., 0].min(initial=0.0))
    if not lowest >= -DENSITY_TOL:  # a NaN eigenvalue fails too
        raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {lowest:.3e}")
    return spectra


def density_spectra(m: np.ndarray) -> np.ndarray:
    """Ascending spectra of a density matrix, or of each in a (..., d, d) stack
    (one eigvalsh call), after checking that every matrix is finite, Hermitian
    and unit trace (check_density_form) and then positive semidefinite
    (check_positive_spectra), all at DENSITY_TOL."""
    return check_positive_spectra(linalg.hermitian_eigen(check_density_form(m)))


class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix of dimension 2 or 4.

    Validation happens on construction (density_spectra); the spectrum
    computed for the positivity check is kept (ascending) for entropies.
    """

    __slots__ = ("mat", "eigenvalues")

    def __init__(self, mat):
        m = linalg.float_or_complex(mat)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        if m.shape[0] not in (2, 4):
            raise ValueError(f"unsupported dimension {m.shape[0]}, expected 2 or 4")
        spectrum = density_spectra(m)
        self.mat = linalg._readonly(m)
        self.eigenvalues = spectrum

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def pure_state(ket) -> DensityMatrix:
    """Density matrix |k><k| of a (normalized copy of a) state vector."""
    k = linalg.float_or_complex(ket).reshape(-1)
    if not np.isfinite(k).all():  # k / norm would warn first
        raise ValueError("ket has non-finite entries")
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


@dataclass(frozen=True, eq=False)
class KrausSet:
    """A nonempty list of finite operators K_k, all 2x2 or all 4x4, defining
    the channel rho -> sum_k K rho K*.

    The map is completely positive by construction, so it is a CPTP channel
    exactly when it is trace preserving: completeness_residual,
    ||sum_k K*K - I||_F, is the whole check.  transfer is the channel's one
    representation, which apply and the Lindblad comparisons read directly.
    Both are computed once per set from ops, one read-only (k, dim, dim)
    array, float64 unless an operator is complex; dim is 4 for the two-use
    channels and 2 for the single-qubit damping set they are built from.
    """

    ops: np.ndarray

    def __post_init__(self):
        shapes = sorted({np.shape(op) for op in self.ops})
        if shapes not in ([(2, 2)], [(4, 4)]):
            raise ValueError(f"Kraus operators must be all 2x2 or all 4x4, got shapes {shapes}")
        stack = linalg.float_or_complex(self.ops)
        if not np.isfinite(stack).all():
            raise ValueError("Kraus operator has non-finite entries")
        object.__setattr__(self, "ops", linalg._readonly(stack))

    @property
    def dim(self) -> int:
        return self.ops.shape[-1]

    @cached_property
    def completeness_residual(self) -> float:
        total = np.einsum("kji,kjl->il", self.ops.conj(), self.ops)
        return float(np.linalg.norm(total - np.eye(self.dim)))

    @cached_property
    def transfer(self) -> np.ndarray:
        """Matrix T = sum_k kron(K, conj(K)) with T @ vec(rho) = vec(sum_k K rho K*)
        under row-major vectorization (dim^2 x dim^2); read-only."""
        t = np.einsum("kij,kab->iajb", self.ops, self.ops.conj())
        return linalg._readonly(t.reshape((self.dim**2,) * 2))

    def require_trace_preserving(self) -> None:
        """Raise ValueError when the completeness residual exceeds CPTP_APPLY_TOL."""
        if not (residual := self.completeness_residual) <= CPTP_APPLY_TOL:  # NaN fails
            raise ValueError(f"Kraus set is not trace preserving: residual {residual:.3e}")


def check_cptp(kraus: KrausSet) -> float:
    """Frobenius residual of sum_k K*K against the identity (0 for a CPTP set)."""
    return kraus.completeness_residual


@dataclass(frozen=True)
class ChannelParams:
    """Validated parameter bundle for one channel family; its unused field must stay 0.0."""

    which: str
    mu: float = 0.0
    chi: float = 0.0
    p: float = 0.0

    def __post_init__(self):
        if self.which not in FAMILIES:
            raise ValueError(f"unknown channel family {self.which!r}")
        _check_range("mu", self.mu)
        for name in ("chi", "p"):
            value = getattr(self, name)
            _check_range(name, value)
            if value != 0.0 and name != FAMILIES[self.which]:
                raise ValueError(f"family {self.which!r} takes no {name}, got {value!r}")

    @classmethod
    def for_family(cls, which: str, param: float, mu: float = 0.0) -> "ChannelParams":
        """Bundle a family's scalar parameter (FAMILIES[which]) with a memory degree."""
        if which not in FAMILIES:
            raise ValueError(f"unknown channel family {which!r}")
        return cls(which=which, mu=mu, **{FAMILIES[which]: param})


def amplitude_damping_kraus(chi: float) -> KrausSet:
    """Single-qubit damping: |0> decays to |1> with amplitude sin(chi)."""
    _check_range("chi", chi)
    e0 = np.array([[math.cos(chi), 0.0], [0.0, 1.0]])
    e1 = np.array([[0.0, 0.0], [math.sin(chi), 0.0]])
    return KrausSet((e0, e1))


def ad_uncorrelated_kraus2(chi: float) -> KrausSet:
    """Two independent uses of the damping channel: all tensor pairs of E0, E1."""
    e = amplitude_damping_kraus(chi).ops
    return KrausSet(np.einsum("aij,bkl->abikjl", e, e).reshape(4, 4, 4))


def ad_correlated_kraus2(chi: float) -> KrausSet:
    """Correlated two-use damping: only |00> decays, straight to |11>.

    The no-decay operator is diag(cos chi, 1, 1, 1), which is not a tensor
    product of single-qubit operators; everything supported away from |00>
    passes through untouched.
    """
    _check_range("chi", chi)
    e00 = np.diag([math.cos(chi), 1.0, 1.0, 1.0])
    e11 = np.zeros((4, 4))
    e11[3, 0] = math.sin(chi)
    return KrausSet((e00, e11))


def _pauli_weights(p: float, errors: tuple) -> tuple:
    """(Pauli indices, probabilities) of a single-use Pauli channel: the
    identity with 1 - p, and p shared equally by the error Paulis."""
    _check_range("p", p)
    return (0, *errors), np.array([1.0 - p] + [p / len(errors)] * len(errors))


def _pauli_uncorrelated(idx: tuple, q: np.ndarray) -> KrausSet:
    """Independent Pauli errors on the two uses: sqrt(q_i q_j) s_i x s_j."""
    ops = np.sqrt(np.outer(q, q))[..., None, None] * PAULI_PAIRS[np.ix_(idx, idx)]
    return KrausSet(ops.reshape(-1, 4, 4))


def _pauli_correlated(idx: tuple, q: np.ndarray) -> KrausSet:
    """The same Pauli error on both uses: sqrt(q_k) s_k x s_k."""
    return KrausSet(np.sqrt(q)[:, None, None] * PAULI_PAIRS[idx, idx])


def dephasing_uncorrelated_kraus(p: float) -> KrausSet:
    """Independent phase flips on each use with probability p (4 operators)."""
    return _pauli_uncorrelated(*_pauli_weights(p, (3,)))


def dephasing_correlated_kraus(p: float) -> KrausSet:
    """Simultaneous phase flip on both uses with probability p (2 operators)."""
    return _pauli_correlated(*_pauli_weights(p, (3,)))


def depolarizing_uncorrelated_kraus2(p: float) -> KrausSet:
    """Independent Pauli errors on the two uses (16 operators)."""
    return _pauli_uncorrelated(*_pauli_weights(p, (1, 2, 3)))


def depolarizing_correlated_kraus2(p: float) -> KrausSet:
    """The same Pauli error on both uses (4 operators)."""
    return _pauli_correlated(*_pauli_weights(p, (1, 2, 3)))


def memory_channel(unc: KrausSet, cor: KrausSet, mu: float) -> KrausSet:
    """Partial-memory mixture: uncorrelated branch weighted 1-mu, correlated mu."""
    _check_range("mu", mu)
    if unc.dim != cor.dim:  # np.concatenate would raise its own message
        raise ValueError(f"Kraus operators must be all 2x2 or all 4x4, got {unc.dim}, {cor.dim}")
    return KrausSet(np.concatenate((math.sqrt(1.0 - mu) * unc.ops, math.sqrt(mu) * cor.ops)))


def memory_branches(which: str, param: float) -> tuple:
    """The (uncorrelated, correlated) two-use Kraus sets of a family at its
    scalar parameter, the one FAMILIES[which] names."""
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
    certifies every mixture without building one.  Returns (bound, (unc, cor));
    both callers, I2Kernel and verify's CPTP section, reuse the branches.  A
    NaN residual at either branch makes the bound NaN.
    """
    branches = memory_branches(which, param)
    return float(np.max([check_cptp(branch) for branch in branches])), branches


def build_memory_channel(params: ChannelParams) -> KrausSet:
    """The two-use partial-memory channel selected by a parameter bundle."""
    param = getattr(params, FAMILIES[params.which])
    return memory_channel(*memory_branches(params.which, param), params.mu)


def apply(kraus: KrausSet, rho: DensityMatrix) -> DensityMatrix:
    """Channel action sum_k K rho K*, as kraus.transfer @ vec(rho)."""
    if kraus.dim != rho.dim:
        raise ValueError(f"channel dim {kraus.dim} does not match state dim {rho.dim}")
    kraus.require_trace_preserving()
    out = kraus.transfer @ rho.mat.reshape(-1)
    return DensityMatrix(out.reshape(kraus.dim, kraus.dim))
