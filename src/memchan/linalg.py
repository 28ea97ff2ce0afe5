"""Pauli constants and two validated numpy solves.  Both refuse non-square or
non-finite input; ``hermitian_eigen`` also refuses a non-Hermitian matrix, and
``solve_linear`` one that is singular to a relative tolerance, where numpy
rejects only an exact zero pivot."""

import numpy as np

RESIDUAL_TOL = 1e-10    # Hermiticity gate relative to max(1, ||a||_F)
PIVOT_TOL = 1e-12       # floor on 1 / (||a||_F ||a^-1||_F)


def _readonly(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


IDENTITY_2 = _readonly(np.eye(2, dtype=complex))
SIGMA_X = _readonly(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Y = _readonly(np.array([[0, -1j], [1j, 0]], dtype=complex))
SIGMA_Z = _readonly(np.array([[1, 0], [0, -1]], dtype=complex))
PAULIS = (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z)


def _finite_square(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def hermitian_eigen(a, tol: float = RESIDUAL_TOL) -> np.ndarray:
    """Ascending eigenvalues (read-only) of a Hermitian matrix."""
    a = _finite_square(a)
    defect = float(np.linalg.norm(a - a.conj().T))
    if defect > tol * max(1.0, float(np.linalg.norm(a))):
        raise ValueError(f"matrix is not Hermitian: ||a - a*||_F = {defect:.3e}")
    return _readonly(np.linalg.eigvalsh(a))


def solve_linear(a, b) -> np.ndarray:
    """Solve a @ x = b for a vector or stacked right-hand sides b."""
    a = _finite_square(a)
    rcond = 1.0 / float(np.linalg.cond(a, "fro"))  # 0.0 when a is exactly singular
    if rcond <= PIVOT_TOL:
        msg = f"reciprocal condition number {rcond:.3e} (floor {PIVOT_TOL:g})"
        raise ValueError(f"matrix is singular to tolerance: {msg}")
    return np.linalg.solve(a, b)
