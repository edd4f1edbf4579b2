"""Block-coordinate plug-and-play iteration.

One iteration picks a block i_k from the schedule and replaces only that
block by D_i(x_i - gamma * grad_i g(x)); all other blocks are carried over
bitwise.  With a single block this is exactly the classic proximal-gradient
plug-and-play iteration.  A block whose denoiser is None keeps its start:
the schedule never picks it, and it contributes zero to G.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockSchedule, BlockVector
from .denoisers import apply_denoiser, error_magnitude
from .forward import LinearFidelity, LipschitzEstimate, estimate_block_lipschitz
from .theory import TraceBuilder, rmse

DEFAULT_STEP_FRACTION = 0.9  # gamma = 0.9 / l_max keeps gamma < 1/l_max strict


class NonFiniteIterateError(RuntimeError):
    """An iterate block or a recorded objective quantity became NaN/inf;
    names the block or quantity and the iteration."""


@dataclass(frozen=True)
class SolverConfig:
    """Algorithmic knobs of a solve.

    gamma=None certifies Lipschitz constants at the initialization and uses
    0.9 / l_max.
    """

    schedule: BlockSchedule
    gamma: float | None = None
    max_iters: int = 500
    stop_tol: float = 1e-5
    ball_radius: float = 10.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.stop_tol <= 0:
            raise ValueError("stop_tol must be positive")
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.ball_radius < 1.0:
            raise ValueError("ball radius factor must be >= 1 (iterate inside ball)")


@dataclass
class SolveResult:
    x: BlockVector
    trace: "IterateTrace"
    reason: str  # "tolerance" | "max-iters"
    flags: dict
    gamma: float
    lipschitz: LipschitzEstimate
    g_norm_initial: float
    g_norm_final: float


def g_operator(fidelity, denoisers, gamma, x: BlockVector, k=1, grad=None):
    """Scaled fixed-point residual (x - D(x - gamma grad g(x))) / gamma.

    The denoiser acts separably per block; a block whose denoiser is None
    contributes zero.  `grad` is grad g(x) when the caller already has it.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if grad is None:
        grad = fidelity.grad(x)
    denoised = _denoise_blocks(denoisers, gamma, x, grad, k)
    return BlockVector._wrap(x.layout, _residual(gamma, x, denoised))


def _denoise_blocks(denoisers, gamma, x: BlockVector, grad: BlockVector, k):
    """{i: D_i(x_i - gamma grad_i)} at iteration k, for each block i with a denoiser.

    Raises NonFiniteIterateError naming the first block whose denoised
    values are NaN/inf.
    """
    denoised = {}
    for i, den in enumerate(denoisers, start=1):
        if den is None:
            continue
        di = apply_denoiser(den, x.block(i) - gamma * grad.block(i), k)
        if not np.isfinite(di).all():
            raise NonFiniteIterateError(f"non-finite values in block {i} at iteration {k}")
        denoised[i] = di
    return denoised


def _residual(gamma, x: BlockVector, denoised):
    """Flat array of (x_i - denoised_i) / gamma per block; zero on blocks not denoised."""
    out = np.zeros(x.layout.total)
    for i, di in denoised.items():
        out[x.layout.block_slice(i)] = (x.block(i) - di) / gamma
    return out


def _active_schedule(config: SolverConfig, active):
    """The configured schedule over the active blocks only."""
    schedule = config.schedule
    if schedule.num_blocks != len(active):
        schedule = BlockSchedule(schedule.kind, len(active), schedule.seed)
    return schedule


def _pick_index(schedule: BlockSchedule, active, k):
    if len(active) == 1:
        return active[0]
    return active[schedule.next_index(k) - 1]


def initialize(fidelity, theta0=None):
    """Adjoint initialization: image block A(theta0)^H y, parameters theta0."""
    if fidelity.layout.num_blocks == 1 or isinstance(fidelity, LinearFidelity):
        return BlockVector(fidelity.layout, fidelity.adjoint_init())
    if theta0 is None:
        raise ValueError("blind models need an initial parameter block theta0")
    theta0 = np.asarray(theta0, dtype=np.float64).ravel()
    return BlockVector.from_blocks([fidelity.adjoint_init(theta0), theta0])


def solve(
    fidelity,
    denoisers,
    config: SolverConfig,
    x0: BlockVector,
    truth: BlockVector | None = None,
    objective=None,
    lipschitz: LipschitzEstimate | None = None,
):
    """Run the iteration from x0 until the relative-change tolerance or the
    iteration cap, recording a full per-iteration trace.

    `denoisers` has one entry per block; a block whose entry is None keeps
    its value in x0.  `objective` (see theory.ImplicitObjective) enables
    f/g/h and gradient recording; it must be built with the same gamma the
    solver uses.
    Each iteration evaluates grad g once and denoises each active block
    once; the chosen block's output is the update, and all of them give the
    logged residual.  Raises NonFiniteIterateError when any denoised block
    or any recorded objective quantity (f, g, h, ||grad f||^2) is NaN/inf.
    """
    layout = fidelity.layout
    if x0.layout.sizes != layout.sizes:
        raise ValueError("x0 layout does not match the fidelity layout")
    if len(denoisers) != layout.num_blocks:
        raise ValueError("need exactly one denoiser per block")
    active = [i for i, d in enumerate(denoisers, start=1) if d is not None]
    if not active:
        raise ValueError("no block has a denoiser")

    if lipschitz is None:
        lipschitz = estimate_block_lipschitz(fidelity, x0, config.ball_radius)
    gamma = _step_size(config, lipschitz)
    if objective is not None and abs(objective.gamma - gamma) > 1e-15 * gamma:
        raise ValueError("objective was built with a different gamma")

    num_blocks = layout.num_blocks
    schedule = _active_schedule(config, active)
    active_denoisers = [denoisers[i - 1] for i in active]
    radii = [config.ball_radius * n for n in x0.block_norms()]

    flags = {
        "left_ball": False,
        # the full power iteration counts only in the solves that record an
        # objective, whose checks read l_full; reading its flag in any other
        # solve would run it
        "power_iter_warning": not lipschitz.converged
        or (objective is not None and not lipschitz.l_full_converged),
        "gamma_exceeds_rule": lipschitz.exceeded_by(gamma),
    }

    # grad g at the current iterate: one evaluation per iteration, shared by
    # the denoising pass, the objective and the final residual
    grad, value = _fidelity_at(fidelity, x0, objective, active)
    trace = TraceBuilder(num_blocks)
    if objective is not None:
        trace.set_initial(*_objective_at(objective, x0, grad, value, 0))
    else:
        nan = float("nan")
        trace.set_initial(nan, nan, nan, nan)

    x = x0
    rmse_blocks = [float("nan")] * num_blocks
    reason = "max-iters"
    k = 0
    for k in range(1, config.max_iters + 1):
        # one denoising pass: the residual G(x) for the trace, and the
        # chosen block's update
        denoised = _denoise_blocks(denoisers, gamma, x, grad, k)
        g_norm2 = float(np.linalg.norm(_residual(gamma, x, denoised))) ** 2
        i_k = _pick_index(schedule, active, k)
        prev_norm = x.norm()
        x_new = x.inject(i_k, denoised[i_k])
        grad, value = _fidelity_at(fidelity, x_new, objective, active)
        step_norm = float(np.linalg.norm(x_new.data - x.data))

        # every block but i_k is bitwise what it was in the previous
        # iteration, so its ball check and error carry over
        changed = range(1, num_blocks + 1) if k == 1 else (i_k,)
        if not flags["left_ball"]:
            flags["left_ball"] = any(
                float(np.linalg.norm(x_new.block(i))) > radii[i - 1] for i in changed
            )

        if objective is not None:
            f_k, g_k, h_k, gradf2 = _objective_at(objective, x_new, grad, value, k)
        else:
            f_k = g_k = h_k = gradf2 = float("nan")
        if truth is not None:
            for i in changed:
                rmse_blocks[i - 1] = rmse(x_new.block(i), truth.block(i))

        trace.append(
            iters=k, block=i_k, f=f_k, g=g_k, h=h_k, g_norm2=g_norm2, step_norm=step_norm,
            eps=max(error_magnitude(d, k) for d in active_denoisers),
            grad_f_norm2=gradf2, rmse=list(rmse_blocks),
        )
        x = x_new
        rel = step_norm / prev_norm if prev_norm > 0 else step_norm
        if rel < config.stop_tol:
            reason = "tolerance"
            break

    frozen = trace.freeze()
    g_final = g_operator(fidelity, denoisers, gamma, x, k + 1, grad).norm()
    return SolveResult(
        x=x, trace=frozen, reason=reason, flags=flags, gamma=gamma, lipschitz=lipschitz,
        g_norm_initial=float(np.sqrt(frozen.g_norm2[0])), g_norm_final=g_final,
    )


def _fidelity_at(fidelity, x, objective, active):
    """(grad g(x), g(x)); the value, which only an objective records, is
    taken from the gradient's residual, else it is None.  Without an
    objective only the `active` blocks of the gradient are computed; the
    others are zero, and nothing reads them."""
    if objective is None:
        return fidelity.grad(x, active), None
    value, grad = fidelity.value_and_grad(x)
    return grad, value


def _objective_at(objective, x, grad, value, k):
    """(f, g, h, ||grad f||^2) at the iterate x of iteration k.

    Raises NonFiniteIterateError naming the first non-finite quantity.
    """
    f, g, h = objective.value(x, value)
    quantities = {"f": f, "g": g, "h": h, "||grad f||^2": objective.grad(x, grad).norm() ** 2}
    for name, q in quantities.items():
        if not np.isfinite(q):
            raise NonFiniteIterateError(f"non-finite objective {name} at iteration {k}")
    return tuple(quantities.values())


def resolve_gamma(fidelity, x0, config: SolverConfig):
    """Certify Lipschitz constants at x0 and return (gamma, estimate).

    Useful for building an ImplicitObjective with the same gamma the
    subsequent solve will use; pass the estimate back via `lipschitz=`.
    """
    lip = estimate_block_lipschitz(fidelity, x0, config.ball_radius)
    return _step_size(config, lip), lip


def _step_size(config: SolverConfig, lip: LipschitzEstimate):
    if config.gamma is not None:
        return config.gamma
    if lip.l_max <= 0:
        raise ValueError("cannot auto-select gamma: certified l_max is zero")
    return DEFAULT_STEP_FRACTION / lip.l_max

