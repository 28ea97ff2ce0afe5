import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import memchan
from memchan.channels import DensityMatrix, KrausSet, pure_state
from memchan.linalg import SIGMA_X, SIGMA_Y, float_or_complex, hermitian_eigen, solve_linear
from memchan.lindblad import EigenoperatorCatalog, LindbladSpec, catalog_ad_correlated


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


def test_eigen_solves_a_real_stack_real_and_a_complex_one_whole(monkeypatch):
    # the same float matrix stacked alone, then beside sigma_y x sigma_y plus
    # the coherence 0.75i |00><11| + h.c.: the stack's dtype picks the solver,
    # so one complex matrix keeps the whole stack on the complex path, with
    # its exact spectrum
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.dtype) or eigvalsh(a))
    real = np.diag([0.0, 0.25, 0.25, 0.5])
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
# float_or_complex, the dtype rule of every array memchan builds
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "data, dtype",
    [
        ([[1, 0], [0, 1]], np.float64),
        ([True, False], np.float64),
        (np.eye(2, dtype=np.float32), np.float64),
        (np.eye(2, dtype=complex), np.complex128),  # a zero imaginary part stays
        (np.eye(2, dtype=np.complex64), np.complex128),
        ([np.eye(2), 1j * np.eye(2)], np.complex128),
        (np.array([1.0, 1j], dtype=object), np.complex128),
        (np.array([1.0, 2], dtype=object), np.float64),
    ],
)
def test_float_or_complex_chooses_the_dtype_from_the_data(data, dtype):
    out = float_or_complex(data)
    assert out.dtype == dtype
    assert np.array_equal(out, np.asarray(data).astype(dtype))
    assert out is not data and not np.shares_memory(out, np.asarray(data))


def _with_entry(array, entry, index):
    # the nested lists a caller might pass, with one entry replaced
    a = np.array(array, dtype=object)
    a[index] = entry
    return a.tolist()


_CATALOG = catalog_ad_correlated(1.0)
# each constructor, its array arguments built around one entry, and what a
# None entry, read as NaN, trips: the catalog checks its rights by duality
# alone, which a NaN fails
_MALFORMED = {
    "DensityMatrix": (
        lambda e: DensityMatrix(_with_entry(np.eye(2) / 2, e, (0, 1))),
        ValueError, "density matrix has non-finite entries",
    ),
    "pure_state": (
        lambda e: pure_state(_with_entry([1.0, 0.0], e, 1)),
        ValueError, "ket has non-finite entries",
    ),
    "KrausSet": (
        lambda e: KrausSet(_with_entry(np.eye(2)[None], e, (0, 0, 1))),
        ValueError, "Kraus operator has non-finite entries",
    ),
    "LindbladSpec": (
        lambda e: LindbladSpec([1.0], _with_entry(np.eye(4)[None], e, (0, 0, 1))),
        ValueError, "jump operator has non-finite entries",
    ),
    "EigenoperatorCatalog.rights": (
        lambda e: EigenoperatorCatalog(
            _with_entry(_CATALOG.rights, e, (0, 0, 1)), _CATALOG.eigenvalues, _CATALOG.lefts
        ),
        ArithmeticError, "duality residual nan",
    ),
    "EigenoperatorCatalog.eigenvalues": (
        lambda e: EigenoperatorCatalog(
            _CATALOG.rights, _with_entry(_CATALOG.eigenvalues, e, 0), _CATALOG.lefts
        ),
        ValueError, "catalog eigenvalues must be finite",
    ),
}


@pytest.mark.parametrize("build, nan_error, nan_message", _MALFORMED.values(), ids=list(_MALFORMED))
def test_constructors_refuse_a_string_entry_and_read_none_as_nan(build, nan_error, nan_message):
    # np.result_type would keep a string array ("<U32") or an object array;
    # the dtype rule converts, so a malformed entry fails where it did when
    # every array was built complex
    with pytest.raises(ValueError):
        build("x")
    with pytest.raises(nan_error, match=nan_message):
        build(None)


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


# ----------------------------------------------------------------------
# BLAS start-up
# ----------------------------------------------------------------------

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
STARTUP_PROBE = (
    "import importlib, os, sys\n"
    "for name in sys.argv[1:]:\n"
    "    importlib.import_module(name)\n"
    "with open('/proc/self/status') as status:\n"
    "    threads = next(line.split()[1] for line in status if line.startswith('Threads:'))\n"
    "print(threads, os.environ.get('OPENBLAS_NUM_THREADS'))\n"
)


def _startup(extra_env: dict, *modules) -> list:
    """[thread count, OPENBLAS_NUM_THREADS or 'None'] of a fresh interpreter
    after importing `modules` in order, started without any of BLAS_THREAD_VARS
    but those in extra_env."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(extra_env, PYTHONPATH=str(Path(memchan.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, *modules], capture_output=True, text=True, env=env, check=True
    )
    return proc.stdout.split()


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or "openblas" not in str(np.show_config(mode="dicts")).lower(),
    reason="reads /proc/self/status and OpenBLAS's thread variables",
)
def test_import_loads_openblas_single_threaded_unless_told_otherwise():
    # memchan's matrices are too small for OpenBLAS to split, so importing it
    # starts no BLAS thread and leaves no variable behind for child processes
    assert _startup({}, "memchan") == ["1", "None"]
    # a count the user chose wins, and stays set
    chosen = {"OPENBLAS_NUM_THREADS": "2"}
    assert _startup(chosen, "memchan") == _startup(chosen, "numpy")
    # numpy loaded first has read the environment already: memchan sets nothing
    assert _startup({}, "numpy", "memchan") == _startup({}, "numpy")
