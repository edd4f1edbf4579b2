"""Block-coordinate plug-and-play solver for blind inverse problems.

Joint recovery of an image and the parameters of its measurement operator
by alternating per-block denoising steps with data-consistency gradient
steps.  Exact Gaussian / Gaussian-mixture MMSE denoisers make the implicit
objective of the iteration computable, so the convergence behaviour can be
verified numerically (see `theory`).
"""

from .blocks import (
    BlockLayout,
    BlockSchedule,
    BlockVector,
    complex_to_pairs,
    pairs_to_complex,
)
from .denoisers import (
    ErrorSchedule,
    GaussianPrior,
    GmmPrior,
    IdentityDenoiser,
    InexactDenoiser,
    MmseDenoiser,
    SoftThresholdDenoiser,
    TvProxDenoiser,
    UnsupportedPriorError,
    apply_denoiser,
    implicit_reg_gradient,
    implicit_reg_value,
    marginal_neg_log_density,
    mmse_denoise,
    tweedie_gradient,
)
from .forward import (
    BlindConvolutionModel,
    ConvolutionFidelity,
    LinearFidelity,
    LinearModel,
    LipschitzEstimate,
    MultiCoilFidelity,
    MultiCoilModel,
    estimate_block_lipschitz,
    synthesize,
    with_full_constant,
)
from .solver import (
    NonFiniteIterateError,
    SolveResult,
    SolverConfig,
    g_operator,
    initialize,
    resolve_gamma,
    solve,
)
from .theory import (
    ImplicitObjective,
    IterateTrace,
    TheoryConstants,
    check_descent,
    check_theorem1,
    check_theorem2,
    reference_f_star,
    rmse,
    ssim,
)

__version__ = "0.1.0"
