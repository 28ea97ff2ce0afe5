"""Correlated two-use qubit channels: Kraus and Lindblad descriptions,
cross-validation between the two, and classical-information analysis."""

import os
import sys

# Every matrix memchan hands to BLAS or LAPACK is at most 16 x 16: eigvalsh on
# stacks of 4 x 4, inv, eig and @ on 16 x 16 transfer matrices, and norms.
# OpenBLAS splits no call that small across threads, so a pool would only spin
# idle through start-up.  numpy's OpenBLAS therefore loads single-threaded,
# unless numpy is loaded already or a count is set in one of the variables
# OpenBLAS reads.  The environment is restored, so that no child process or
# later library inherits the value.
if "numpy" not in sys.modules and not any(
    name in os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .capacity import (
    ClosedFormTerms,
    I2Kernel,
    InputEnsemble,
    ThresholdResult,
    depolarizing_threshold_closed,
    i2_ad_closed,
    i2_depolarizing_closed,
    i2_grid,
    mutual_information_numeric,
    product_memory_inequality,
    theta_ensemble,
    threshold_numeric,
    von_neumann_entropy,
)
from .channels import (
    AMPLITUDE_DAMPING,
    DEPHASING,
    DEPOLARIZING,
    ChannelParams,
    DensityMatrix,
    KrausSet,
    ad_correlated_kraus2,
    ad_uncorrelated_kraus2,
    amplitude_damping_kraus,
    apply,
    build_memory_channel,
    check_cptp,
    dephasing_correlated_kraus,
    dephasing_uncorrelated_kraus,
    depolarizing_correlated_kraus2,
    depolarizing_uncorrelated_kraus2,
    memory_channel,
    pure_state,
    random_density_matrix,
)
from .lindblad import (
    EigenoperatorCatalog,
    LindbladSpec,
    ad_correlated_spec,
    catalog_ad_correlated,
    catalog_dephasing_correlated,
    damping_angle,
    dephasing_correlated_spec,
    dephasing_flip_probability,
    dephasing_uncorrelated_spec,
    dual_basis,
    evolve,
    evolve_superoperator,
    exponential_matrix,
    kraus_equivalence,
    spectral_matrix,
    superoperator_matrix,
    verify_eigen,
)
