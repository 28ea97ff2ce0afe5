"""Pauli constants, the dtype rule and two numpy solves.  ``solve_linear``, which
serves ``lindblad.exponential_matrix``'s eig path and ``lindblad.dual_basis``
(the catalogs' duals are closed forms; ``dual_basis`` is their reference),
refuses non-square or non-finite input, a matrix whose inverse overflows, and a
matrix singular to a relative tolerance, where numpy rejects only an exact zero
pivot.  ``hermitian_eigen`` checks nothing: its callers,
``channels.density_spectra`` and ``capacity._i2``, check the form.

Every array memchan builds is float64 unless its data is complex
(``float_or_complex``), and the dtype is chosen once, when the array is built.
Every Kraus operator of the three families is real: a Kraus operator is fixed
only up to a phase, so sigma_y enters the Pauli sets as XZ = -i sigma_y
(``PAULI_PAIRS``).  So the branch transfers sum_k kron(K, conj(K)) and the
theta-ensemble states are float64, their eigensolves are real symmetric ones
(LAPACK dsyevd, not zheevd) on buffers half the size, and no command runs one
of numpy's complex loops.

Every gate reduces its array to one float by a NaN-propagating max (``worst``)
or min and compares that, as ``not worst(x) <= tol``, so a NaN fails every
gate and an empty array passes; ``finite`` is the finiteness gate.  So no
command runs one of numpy's boolean reductions (``.all()``, ``.any()``), whose
code a process would page in for the gates alone."""

import math

import numpy as np

PIVOT_TOL = 1e-12       # floor on 1 / (||a||_F ||a^-1||_F), scale-free


def _readonly(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


IDENTITY_2 = _readonly(np.eye(2))
SIGMA_X = _readonly(np.array([[0.0, 1.0], [1.0, 0.0]]))
SIGMA_Y = _readonly(np.array([[0, -1j], [1j, 0]]))
SIGMA_Z = _readonly(np.array([[1.0, 0.0], [0.0, -1.0]]))
PAULIS = (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z)
# PAULI_PAIRS[i, j] = kron(P_i, P_j) for the real P = (I, X, XZ, Z), XZ = -i sigma_y, one
# (4, 4, 4, 4) array: kron(PAULIS[i], PAULIS[j]) up to a phase, which no channel sees
_KRAUS_PAULIS = (IDENTITY_2, SIGMA_X, np.array([[0.0, -1.0], [1.0, 0.0]]), SIGMA_Z)
PAULI_PAIRS = _readonly(
    np.einsum("aij,bkl->abikjl", _KRAUS_PAULIS, _KRAUS_PAULIS).reshape(4, 4, 4, 4)
)


def worst(values) -> float:
    """The largest of values, NaN when any is NaN, -inf when there are none.
    Python's max() would keep an earlier value against a later NaN."""
    return float(np.max(values, initial=-math.inf))


def finite(a) -> bool:
    """True when every entry of a is finite; an empty a is.  A complex entry
    counts by its modulus, so one beyond the float range reads as infinite."""
    return worst(np.abs(a)) < math.inf


def float_or_complex(data) -> np.ndarray:
    """A new array of data: complex128 when data is complex, else float64.
    A string entry raises ValueError, and None reads as NaN."""
    a = np.asarray(data)
    try:
        return np.array(a, dtype=complex if a.dtype.kind == "c" else float)
    except TypeError:  # an object array holding a Python complex
        return np.array(a, dtype=complex)


def hermitian_eigen(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (read-only) of a Hermitian matrix, or of each
    matrix in a (..., n, n) stack, by one eigvalsh call: a real symmetric
    solve for a float stack, a complex Hermitian one for a complex stack.
    Unchecked (eigvalsh reads one triangle): run channels.check_density_form
    first."""
    return _readonly(np.linalg.eigvalsh(a))


def solve_linear(a, b) -> np.ndarray:
    """Solve a @ x = b for a vector or stacked right-hand sides b by one
    inversion of a, which also gives its reciprocal condition number."""
    a = float_or_complex(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not finite(a):
        raise ValueError("matrix contains non-finite entries")
    try:
        with np.errstate(all="ignore"):  # an overflowing norm reads inf, as in np.linalg.cond
            inv = np.linalg.inv(a)
            if not finite(inv):  # e.g. a subnormal diagonal
                raise ValueError("matrix inverse overflows: it has non-finite entries")
            # scaled by s = max|a_ij|, so a well conditioned a of any size passes
            s = float(np.abs(a).max())
            rcond = 1.0 / float(np.linalg.norm(a / s) * np.linalg.norm(s * inv))
    except np.linalg.LinAlgError:  # an exactly zero pivot
        rcond = 0.0
    if not rcond > PIVOT_TOL:  # a NaN fails too
        msg = f"reciprocal condition number {rcond:.3e} (floor {PIVOT_TOL:g})"
        raise ValueError(f"matrix is singular to tolerance: {msg}")
    return inv @ b
