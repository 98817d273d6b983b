"""Kernel-based stability certificates for sampled nonlinear dynamics.

The package learns a one-step transfer operator from snapshot pairs in a
weighted reproducing kernel space, then turns the fitted operator into
computable stability artifacts: a Lyapunov-type value function, a damped
attraction indicator, level-set certificates, and probabilistic error
bounds for all of them.
"""

from .certificates import (
    BoundReport,
    DoaEstimate,
    Grid,
    LyapunovEstimate,
    ZubovEstimate,
    accumulated_costs,
    bound_report,
    build_lyapunov,
    build_zubov,
    c_nu,
    concentration_epsilons,
    doa_level_threshold,
    doa_levels,
    estimate_doa,
    generalization_bound,
    lyapunov_error_bound,
    lyapunov_grid_values,
    lyapunov_values,
    regular_grid,
    zubov_error_bound,
    zubov_grid_values,
    zubov_values,
)
from .config import CertificateConfig, OutputConfig, RunConfig, SamplingConfig, load_config
from .dynsys import (
    DomainSpec,
    SnapshotDataset,
    SystemSpec,
    check_decay_ratio,
    make_dataset,
    oracle_lyapunov_batch,
    oracle_zubov_batch,
    sample_uniform,
    step,
    trajectory,
)
from .eigsolve import symmetric_eig
from .errors import (
    ContractionViolatedError,
    DegenerateDomainError,
    DivergenceError,
    IntegrationBlowupError,
    InvalidInputError,
    KoopcertError,
    SolverFailureError,
)
from .estimator import (
    EtaSpec,
    FitDiagnostics,
    KoopmanModel,
    RRRConfig,
    fit_koopman,
    forward_coeffs,
    heldout_risk,
    predict_observables,
)
from .io import (
    fmt,
    grid_text,
    read_dataset,
    read_model,
    write_dataset,
    write_doa,
    write_grid,
    write_model,
    write_report,
)
from .kernels import (
    KernelSpec,
    WeightedKernelSpec,
    WeightSpec,
    base_gram,
    gram,
    weight_values,
)

__version__ = "0.1.0"
