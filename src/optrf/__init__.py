"""Leverage-optimized random Fourier features for kernel classification.

The package splits into feature maps and the feature-set format
(``features``), an in-memory count tree over a dyadic grid (``store``),
ridge leverage scores and the optimized feature sampler (``leverage``), the
streaming SGD learner (``sgd``), synthetic task generators and experiment
sweeps (``tasks``), plus a command line front end (``cli``).

Every process that imports the package runs each OpenBLAS it uses at one
thread: importing ``optrf`` sets numpy's OpenBLAS to one thread, and
training sets scipy's the first time it runs.  Up to a few hundred distinct
unlabeled points, whole operations run as fast at one thread; a second
thread spins on a CPU of its own between calls and rounds the spectral
model's eigensolve differently, so one setting everywhere gives in-process
runs and sweep workers the same results.  An ``OPENBLAS_NUM_THREADS`` set
in the environment stands instead (sweep workers still run one thread),
and a numpy or scipy built against another BLAS keeps its own count.
"""

from .errors import (
    CertificationError,
    ConfigError,
    OutOfBoxError,
    SamplerAbort,
    StreamExhausted,
)
from .features import (
    FeatureSet,
    GaussianKernel,
    eval_kernel,
    feature_pair,
    gram,
    kernel_mc_estimate,
    load_feature_set,
    sample_tau,
)
from .leverage import (
    SamplerDiagnostics,
    SpectralModel,
    build_spectral_model,
    degree_of_freedom,
    leverage_score,
    q_max_bound,
    sample_conventional,
    sample_optimized_grid,
    sample_optimized_rejection,
    spectrum_of,
    tabulate_optimized_density,
    unnormalized_leverage,
)
from .sgd import (
    Classifier,
    TrainConfig,
    TrainTrace,
    feature_matrix,
    grad_estimate,
    load_classifier,
    predict,
    project_ball,
    regularized_empirical_loss,
    ridge_oracle,
    theorem_lambda,
    train,
    train_arrays,
)
from .store import CountTree, GridSpec, build_tree
from .tasks import (
    CellConfig,
    MetricsRecord,
    SphereDist,
    SubgaussianDist,
    SyntheticTask,
    certify_task,
    evaluate,
    f_star,
    fit_rescale,
    gen_inputs,
    labeled_arrays,
    labeled_stream,
    load_task,
    make_sphere_task,
    make_subgaussian_task,
    run_cell,
    sample_label,
    spectrum_report,
    sweep_error_vs_M,
    sweep_error_vs_N,
)

__version__ = "0.1.0"
