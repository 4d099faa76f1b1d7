"""kernelspectra: limiting spectra of inner-product kernel random matrices.

The package computes the analytic limit law mu_{a, nu, gamma} of kernel
matrices K(X) = k(sqrt(n) Sigma_hat)/sqrt(n) (zero diagonal), simulates
the finite-size ensembles including the covariance-thresholding sparse
PCA experiment and the rank-two spike effect of non-odd kernels, and
machine-verifies the labeled-cycle combinatorics behind the norm
convergence argument on small instances.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ConsistencyError,
    DomainError,
    KernelSpectraError,
    QuadratureError,
    SizeCapError,
    VerificationError,
)
from .hermite import (
    GaussHermiteRule,
    KernelExpansion,
    KernelSpec,
    build_quadrature,
    hermite_eval,
    hermite_sum_kernel,
    kernel_moments,
    project_kernel,
)
from .limit_law import (
    LimitLawParams,
    SupportIntervals,
    cdf,
    density,
    free_cumulants,
    moment,
    support,
)
from .simulate import (
    DataMatrixConfig,
    EntryLaw,
    HermiteSumDecomposition,
    SpectrumSummary,
    SpikePrediction,
    build_kernel_matrix,
    decompose_hermite_sum,
    ks_distance,
    rank_two_correction,
    sample_data,
    spectrum,
)
from .sparse_pca import (
    SpikedModelConfig,
    SweepResult,
    ThresholdFunction,
    null_prediction,
    sample_spiked_data,
    sweep_tau,
    thresholded_covariance,
)
from .lgraphs import (
    MultiLabeling,
    SimpleLabeling,
    enumerate_multilabelings,
    label_simplifying_map,
    verify_lemmas,
)

__all__ = [name for name in dir() if not name.startswith("_")]
