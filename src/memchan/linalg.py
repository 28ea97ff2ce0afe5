"""Pauli constants and two numpy solves.  ``solve_linear`` refuses non-square
or non-finite input, a matrix whose inverse overflows, and a matrix singular
to a relative tolerance, where numpy rejects only an exact zero pivot.
``hermitian_eigen`` checks nothing: its callers, ``channels.density_spectra``
and ``capacity._i2``, check the form.

Complex data whose imaginary part is exactly zero run in float64
(``real_if_exact``): every Kraus operator of the three families is real or
purely imaginary, so each branch transfer sum_k kron(K, conj(K)) is exactly
real, and so is every theta-ensemble state.  Their eigensolves are therefore
real symmetric ones (LAPACK dsyevd, not zheevd), on buffers half the size."""

import numpy as np

PIVOT_TOL = 1e-12       # floor on 1 / (||a||_F ||a^-1||_F), scale-free


def _readonly(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


IDENTITY_2 = _readonly(np.eye(2, dtype=complex))
SIGMA_X = _readonly(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Y = _readonly(np.array([[0, -1j], [1j, 0]], dtype=complex))
SIGMA_Z = _readonly(np.array([[1, 0], [0, -1]], dtype=complex))
PAULIS = (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z)
# PAULI_PAIRS[i, j] = kron(PAULIS[i], PAULIS[j]), one (4, 4, 4, 4) array for the two-use channels
PAULI_PAIRS = _readonly(np.einsum("aij,bkl->abikjl", PAULIS, PAULIS).reshape(4, 4, 4, 4))


def real_if_exact(a: np.ndarray) -> np.ndarray:
    """a.real when a is complex and its imaginary part is exactly zero, else a.
    Unlike np.real_if_close, an imaginary part of any nonzero size stays."""
    if np.iscomplexobj(a) and not a.imag.any():
        return a.real
    return a


def hermitian_eigen(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (read-only) of a Hermitian matrix, or of each
    matrix in a (..., n, n) stack, by one eigvalsh call: a real symmetric
    solve when the whole stack is exactly real (real_if_exact), else a
    complex Hermitian one.  Unchecked (eigvalsh reads one triangle): run
    channels.check_density_form first."""
    return _readonly(np.linalg.eigvalsh(real_if_exact(a)))


def solve_linear(a, b) -> np.ndarray:
    """Solve a @ x = b for a vector or stacked right-hand sides b by one
    inversion of a, which also gives its reciprocal condition number."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    try:
        with np.errstate(all="ignore"):  # an overflowing norm reads inf, as in np.linalg.cond
            inv = np.linalg.inv(a)
            if not np.isfinite(inv).all():  # e.g. a subnormal diagonal
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
