import numpy as np
import pytest

from memchan.linalg import SIGMA_X, hermitian_eigen, solve_linear


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# ----------------------------------------------------------------------
# hermitian_eigen
# ----------------------------------------------------------------------

def test_eigen_already_diagonal():
    w = hermitian_eigen(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(w, [1.0, 2.0, 3.0])


def test_eigen_sigma_x_spectrum():
    w = hermitian_eigen(SIGMA_X)
    assert np.allclose(w, [-1.0, 1.0])


def test_eigen_two_use_damped_average():
    # 1/4 (2|11><11| + |01><01| + |10><10|)
    rho = np.diag([0.0, 0.25, 0.25, 0.5]).astype(complex)
    w = hermitian_eigen(rho)
    assert np.allclose(w, [0.0, 0.25, 0.25, 0.5], atol=1e-14)


@pytest.mark.parametrize("n", [2, 4, 16])
def test_eigen_reconstruction_and_orthonormality(n):
    rng = np.random.default_rng(n)
    for _ in range(10):
        g = random_complex(rng, (n, n))
        h = g + g.conj().T
        w = hermitian_eigen(h)
        assert not w.flags.writeable
        # ascending order
        assert np.all(np.diff(w) >= 0)
        # the spectrum rebuilds h on numpy's eigenvectors and keeps its invariants
        v = np.linalg.eigh(h)[1]
        norm_h = np.linalg.norm(h)
        assert np.linalg.norm(v @ np.diag(w) @ v.conj().T - h) <= 1e-10 * max(1.0, norm_h)
        assert abs(w.sum() - np.trace(h).real) <= 1e-10 * max(1.0, norm_h)
        assert abs(np.sum(w**2) - norm_h**2) <= 1e-10 * max(1.0, norm_h**2)


def test_eigen_stack_matches_each_matrix():
    rng = np.random.default_rng(7)
    g = random_complex(rng, (3, 2, 4, 4))
    stack = g + g.conj().swapaxes(-1, -2)
    w = hermitian_eigen(stack)
    assert w.shape == (3, 2, 4)
    assert not w.flags.writeable
    for index in np.ndindex(3, 2):
        assert np.array_equal(w[index], hermitian_eigen(stack[index]))


def test_eigen_rejects_non_square():
    with pytest.raises(ValueError):
        hermitian_eigen(np.ones((2, 3), dtype=complex))


# ----------------------------------------------------------------------
# solve_linear
# ----------------------------------------------------------------------

def test_solve_identity():
    b = np.zeros(16, dtype=complex)
    b[3] = 1.0
    x = solve_linear(np.eye(16, dtype=complex), b)
    assert np.allclose(x, b)


def test_solve_diagonal():
    x = solve_linear(np.diag([2.0, 4.0]).astype(complex), np.array([2.0, 8.0]))
    assert np.allclose(x, [1.0, 2.0])


def test_solve_random_well_conditioned():
    rng = np.random.default_rng(3)
    for n in (4, 16):
        for _ in range(5):
            a = random_complex(rng, (n, n)) + n * np.eye(n)
            b = random_complex(rng, (n, 3))
            x = solve_linear(a, b)
            assert np.linalg.norm(a @ x - b) <= 1e-10 * max(1.0, np.linalg.norm(b))
            assert np.allclose(x, np.linalg.solve(a, b), atol=1e-9)


@pytest.mark.parametrize("scale", [1e-160, 1e160])
def test_solve_condition_estimate_is_scale_free(scale):
    # ||a||_F ||a^-1||_F is 2 for both, but each factor alone under- or
    # overflows; scaling a by max|a_ij| first keeps the estimate finite
    a = np.diag([scale, scale])
    x = solve_linear(a, np.array([scale, 2.0 * scale]))
    assert np.array_equal(x, [1.0, 2.0])


def test_solve_singular_reports_pivot():
    a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(ValueError, match="singular to tolerance"):
        solve_linear(a, np.array([1.0, 1.0]))


def test_solve_shape_mismatch():
    with pytest.raises(ValueError):
        solve_linear(np.eye(2, dtype=complex), np.ones(3))
