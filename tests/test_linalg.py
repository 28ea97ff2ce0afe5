import numpy as np
import pytest

from memchan.linalg import SIGMA_X, SIGMA_Y, hermitian_eigen, real_if_exact, solve_linear


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


@pytest.mark.parametrize("imag", [0.0, 1e-300])
def test_real_if_exact_drops_only_an_exactly_zero_imaginary_part(imag):
    a = np.array([[1.0, imag * 1j], [-imag * 1j, 2.0]])
    out = real_if_exact(a)
    assert out.dtype == (np.float64 if imag == 0.0 else np.complex128)
    assert np.array_equal(out, a)
    real = np.eye(2)
    assert real_if_exact(real) is real


def test_eigen_solves_a_real_stack_real_and_a_complex_one_whole(monkeypatch):
    # the same real matrix stacked alone, then beside sigma_y x sigma_y plus
    # the coherence 0.75i |00><11| + h.c.: one nonzero imaginary part keeps
    # the whole stack on the complex path, with its exact spectrum
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.dtype) or eigvalsh(a))
    real = np.diag([0.0, 0.25, 0.25, 0.5]).astype(complex)
    coherent = np.kron(SIGMA_Y, SIGMA_Y)
    coherent[0, 3] += 0.75j
    coherent[3, 0] -= 0.75j
    assert np.array_equal(hermitian_eigen(np.array([real])), [[0.0, 0.25, 0.25, 0.5]])
    w = hermitian_eigen(np.array([real, coherent]))
    assert calls == [np.float64, np.complex128]
    # the |00>, |11> block is [[0, -1 + 0.75i], [-1 - 0.75i, 0]], eigenvalues +-1.25
    assert np.allclose(w, [[0.0, 0.25, 0.25, 0.5], [-1.25, -1.0, 1.0, 1.25]], atol=1e-14)


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


def test_solve_overflowing_inverse_is_refused_by_name():
    # a subnormal diagonal is well conditioned, but its inverse overflows;
    # 1e-308 still has a finite inverse and solves
    with pytest.raises(ValueError, match="inverse overflows"):
        solve_linear(np.diag([1e-310, 1e-310]), np.ones(2))
    x = solve_linear(np.diag([1e-308, 1e-308]), np.ones(2))
    assert np.allclose(x, [1e308, 1e308], rtol=1e-15, atol=0.0)


def test_solve_singular_reports_pivot():
    a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(ValueError, match="singular to tolerance"):
        solve_linear(a, np.array([1.0, 1.0]))


def test_solve_shape_mismatch():
    with pytest.raises(ValueError):
        solve_linear(np.eye(2, dtype=complex), np.ones(3))
