"""Block-coordinate plug-and-play iteration.

One iteration picks a block i_k from the schedule and replaces only that
block by D_i(x_i - gamma * grad_i g(x)); all other blocks are carried over
bitwise.  With a single block this is exactly the classic proximal-gradient
plug-and-play iteration.  A block whose denoiser is None keeps its start:
the schedule never picks it, and it contributes zero to G.

By default an iteration denoises block i_k only and, without an objective,
takes only block i_k of the fidelity gradient (`grad_block`).  The full
residual G, which needs every active block denoised, is computed at the
first iteration and at the end of every solve, and at every iteration
only when a check reads it (`solve(..., full_residual=True)`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import BlockSchedule, BlockVector, _norm, _sumsq
from .denoisers import InexactDenoiser, apply_denoiser, error_magnitude
from .forward import LinearFidelity, LipschitzEstimate, estimate_block_lipschitz
# the benchmark's tracer wraps `rmse` where this module would look it up
from .theory import TraceBuilder, rmse  # noqa: F401

DEFAULT_STEP_FRACTION = 0.9  # gamma = 0.9 / l_max keeps gamma < 1/l_max strict


class NonFiniteIterateError(RuntimeError):
    """An iterate block or a recorded objective quantity became NaN/inf;
    names the block or quantity and the iteration."""


@dataclass(frozen=True)
class SolverConfig:
    """Algorithmic knobs of a solve.

    `solve` needs a gamma; with gamma=None, `resolve_gamma` gives 0.9 / l_max
    of the certificate at the initialization.
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
    left_ball: bool  # an iterate block left its ball around x0
    g_norm_final: float
    denoiser_calls: list  # per block, the g_final residual included
    gradient_evals: int  # fidelity gradients, each of one block or of all


def g_operator(fidelity, denoisers, gamma, x: BlockVector, k=1, grad=None):
    """Scaled fixed-point residual (x - D(x - gamma grad g(x))) / gamma.

    The denoiser acts separably per block; a block whose denoiser is None
    contributes zero.  `grad` is grad g(x) when the caller already has it.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if grad is None:
        grad = fidelity.grad(x)
    residual = _Residual(denoisers, gamma, x)
    residual(x.data, grad.data, k)
    return BlockVector._wrap(x.layout, residual.out)


def _denoise(denoiser, z, i, k):
    """D_i(z), block i's denoiser at iteration k.

    Raises NonFiniteIterateError naming block i when the denoised values
    are NaN/inf.  A finite sum of squares proves every entry finite; only
    a sum that is not (a NaN or inf, or squares that overflow) is checked
    entry by entry.
    """
    di = apply_denoiser(denoiser, z, k)
    if not math.isfinite(_sumsq(di)) and not np.isfinite(di).all():
        raise NonFiniteIterateError(f"non-finite values in block {i} at iteration {k}")
    return di


class _Residual:
    """The residual G(x) = (x - D(x - gamma grad g(x))) / gamma, computed
    in two buffers made once: `out` holds G, zero on blocks whose denoiser
    is None, and `denoised` holds D's output on the active blocks.

    The steps before and after the denoisers run elementwise over the span
    from the first active block to the last, so each block gets the bits
    that a pass block by block gives it.  Inside the span `denoised` holds
    x on the blocks without a denoiser, which keep x0's values in a solve,
    so G is zero there.
    """

    def __init__(self, denoisers, gamma, x0: BlockVector):
        slices = x0.layout.slices
        self.blocks = [(i, d, slices[i - 1]) for i, d in enumerate(denoisers, start=1)
                       if d is not None]
        self.span = span = (slice(self.blocks[0][2].start, self.blocks[-1][2].stop)
                            if self.blocks else slice(0, 0))
        self.gamma = gamma
        self.out = np.zeros(x0.layout.total)
        self.denoised = x0.data.copy()
        # the buffers' views over the span, made once
        self._spans = self.out[span], self.denoised[span]

    def __call__(self, x, grad, k):
        """Denoise every active block of the flat iterate `x` at iteration k,
        in block order, given the flat gradient `grad`, and write G(x)."""
        gamma, out, denoised = self.gamma, self.out, self.denoised
        out_span, denoised_span = self._spans
        x_span = x[self.span]
        # the denoisers' inputs x - gamma grad are formed in `out`, which
        # G overwrites once every block is denoised
        np.subtract(x_span, np.multiply(gamma, grad[self.span], out=out_span), out=out_span)
        for i, d, s in self.blocks:
            denoised[s] = _denoise(d, out[s], i, k)
        np.divide(np.subtract(x_span, denoised_span, out=out_span), gamma, out=out_span)


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
    full_residual: bool = False,
    start_iter: int = 1,
):
    """Run the iteration from x0 until the relative-change tolerance or the
    iteration cap, recording a per-iteration trace.

    `config.gamma` is the step size; `resolve_gamma` certifies one.
    `denoisers` has one entry per block; a block whose entry is None keeps
    its value in x0.  `objective` (see theory.ImplicitObjective) enables
    f/g/h and gradient recording; it must be built with the same gamma the
    solver uses.  The fidelity writes every gradient into an array of the
    solve (`out=` of `grad`, `grad_block` and `value_and_grad`).
    Each iteration evaluates grad g once and denoises block i_k once; that
    output is the update.  The first iteration and, with `full_residual`,
    every iteration denoise every active block, and the trace logs
    ||G(x^{k-1})||^2; other rows log NaN.  With one active block the
    update is the whole residual, so every row logs it.  Without an
    objective, when the next denoising reads one block, grad g is computed
    on that block alone.  The final residual covers every active block, so
    a solve of n iterations makes n + 1 gradient evaluations.  Raises
    NonFiniteIterateError when a denoised block or any recorded objective
    quantity (f, g, h, ||grad f||^2) is NaN/inf.

    `start_iter` is the number of the first iteration, and `config.max_iters`
    the number of the last.  An iterate depends only on the previous one
    and on k (the schedule and inexact denoisers draw by k), so a solve
    from `result.x` with `start_iter = len(result.trace) + 1` continues
    `result`'s solve: its iterates, and the f, g, h and step norms of its
    rows, are bitwise those that one longer solve from `result`'s start
    reaches after `result`'s last row.  The first row of every solve logs
    ||G|| at its start.
    """
    layout = fidelity.layout
    if x0.layout.sizes != layout.sizes:
        raise ValueError("x0 layout does not match the fidelity layout")
    if len(denoisers) != layout.num_blocks:
        raise ValueError("need exactly one denoiser per block")
    active = [i for i, d in enumerate(denoisers, start=1) if d is not None]
    if not active:
        raise ValueError("no block has a denoiser")
    if not 1 <= start_iter <= config.max_iters:
        raise ValueError(f"start_iter must be in 1..max_iters, got {start_iter}")

    gamma = config.gamma
    if gamma is None:
        raise ValueError("solve needs config.gamma; resolve_gamma certifies one")
    if objective is not None and abs(objective.gamma - gamma) > 1e-15 * gamma:
        raise ValueError("objective was built with a different gamma")

    num_blocks = layout.num_blocks
    slices = layout.slices
    schedule = _active_schedule(config, active)
    radii = [config.ball_radius * n for n in x0.block_norms()]
    full_residual = full_residual or len(active) == 1
    # eps_k is read from the inexact denoisers; exact ones log 0
    inexact = any(isinstance(denoisers[i - 1], InexactDenoiser) for i in active)

    left_ball = False
    denoiser_calls = [0] * num_blocks

    # work arrays made once, so that no iteration allocates (and pages in)
    # an array of a block's size: the iterate alternates between two arrays
    # (an update copies the current one into the other and writes block
    # i_k), every gradient is written into one, and `step` holds in turn the
    # denoiser input x_i - gamma grad_i, x_new - x and the error x_i - truth_i.
    # A vector wrapped over one is read only until the array is written again.
    total = layout.total
    iterates = (np.empty(total), np.empty(total))
    grad_out, step = np.empty(total), np.empty(total)
    if truth is not None:
        truth_norms = truth.block_norms()
        if 0.0 in truth_norms:
            raise ValueError("ground truth has zero norm")

    # grad g at the current iterate: one evaluation per iteration, shared by
    # the denoising pass, the objective and the final residual
    grad, value = _fidelity_at(fidelity, x0, objective, active, grad_out)
    gradient_evals = 1
    trace = TraceBuilder(num_blocks, config.max_iters - start_iter + 1)
    if objective is not None:
        trace.set_initial(_objective_at(objective, x0, value, 0)[0])
    else:
        trace.set_initial(float("nan"))
    columns = trace.columns

    # one BlockVector over each new iterate serves the fidelity and the objective
    x, xv = x0.data, x0
    residual = _Residual(denoisers, gamma, x0)
    rmse_blocks = [float("nan")] * num_blocks
    reason = "max-iters"
    i_k = _pick_index(schedule, active, start_iter)
    for k in range(start_iter, config.max_iters + 1):
        n = k - start_iter
        if n == len(columns["iters"]):
            columns = trace.grow()
        # the chosen block's update; at the first iteration and with the full
        # residual, every active block is denoised and gives G(x) for the trace
        first = n == 0
        block = slices[i_k - 1]
        if full_residual or first:
            residual(x, grad.data, k)
            update = residual.denoised[block]
            for i in active:
                denoiser_calls[i - 1] += 1
            columns["g_norm2"][n] = _norm(residual.out) ** 2
        else:
            z = step[block]
            np.subtract(x[block], np.multiply(gamma, grad.data[block], out=z), out=z)
            update = _denoise(denoisers[i_k - 1], z, i_k, k)
            denoiser_calls[i_k - 1] += 1
        prev_norm = _norm(x)
        x_new = iterates[n % 2]
        x_new[...] = x
        x_new[block] = update
        step_norm = _norm(np.subtract(x_new, x, out=step))
        xv = BlockVector._wrap(layout, x_new)
        rel = step_norm / prev_norm if prev_norm > 0 else step_norm
        last = rel < config.stop_tol or k == config.max_iters
        i_next = i_k if last else _pick_index(schedule, active, k + 1)
        # the last gradient feeds the final residual over every active block
        needed = active if full_residual or last else [i_next]
        grad, value = _fidelity_at(fidelity, xv, objective, needed, grad_out)
        gradient_evals += 1

        # every block but i_k is bitwise what it was in the previous
        # iteration (at the first, x0's, inside the ball since ball_radius
        # >= 1), so its ball check and error carry over
        if not left_ball:
            left_ball = _norm(x_new[block]) > radii[i_k - 1]

        columns["iters"][n] = k
        columns["block"][n] = i_k
        columns["step_norm"][n] = step_norm
        columns["eps"][n] = (max(error_magnitude(denoisers[i - 1], k) for i in active)
                             if inexact else 0.0)
        if objective is not None:
            (columns["f"][n], columns["g"][n], columns["h"][n],
             columns["grad_f_norm2"][n]) = _objective_at(objective, xv, value, k, grad)
        if truth is not None:
            # `rmse`, with the error in `step`
            for i in range(1, num_blocks + 1) if first else (i_k,):
                s = slices[i - 1]
                error = np.subtract(x_new[s], truth.block(i), out=step[s])
                rmse_blocks[i - 1] = _norm(error) / truth_norms[i - 1]
            columns["rmse"][n] = rmse_blocks
        x = x_new
        i_k = i_next
        if rel < config.stop_tol:
            reason = "tolerance"
            break

    trace.length = k - start_iter + 1
    g_final = g_operator(fidelity, denoisers, gamma, xv, k + 1, grad).norm()
    for i in active:
        denoiser_calls[i - 1] += 1
    return SolveResult(
        x=xv, trace=trace.freeze(), reason=reason, left_ball=left_ball, g_norm_final=g_final,
        denoiser_calls=denoiser_calls, gradient_evals=gradient_evals,
    )


def _fidelity_at(fidelity, x, objective, blocks, out):
    """(grad g(x), g(x)), the gradient written into `out`; the value, which
    only an objective records, is taken from the gradient's residual, else
    it is None.  Without an objective, `blocks` lists the blocks the next
    step reads; one such block is differentiated alone, with zeros
    elsewhere that nothing reads."""
    if objective is not None:
        value, grad = fidelity.value_and_grad(x, out=out)
        return grad, value
    if len(blocks) == 1:
        return fidelity.grad_block(x, blocks[0], out=out), None
    return fidelity.grad(x, out=out), None


def _objective_at(objective, x, value, k, grad=None):
    """(f, g, h) at the iterate x of iteration k, and ||grad f||^2 after
    them when `grad`, grad g(x), is given: the start records f alone.

    Raises NonFiniteIterateError naming the first non-finite quantity.
    """
    f, g, h = objective.value(x, value)
    quantities = {"f": f, "g": g, "h": h}
    if grad is not None:
        quantities["||grad f||^2"] = objective.grad(x, grad).norm() ** 2
    for name, q in quantities.items():
        if not np.isfinite(q):
            raise NonFiniteIterateError(f"non-finite objective {name} at iteration {k}")
    return tuple(quantities.values())


def resolve_gamma(fidelity, x0, config: SolverConfig):
    """Estimate the block Lipschitz constants by power iteration at the
    ball boundary around x0 (`estimate_block_lipschitz`: estimates, not
    bounds) and return (gamma, estimate).

    `solve` takes the gamma as `config.gamma`; an ImplicitObjective for
    that solve is built with the same gamma.
    """
    lip = estimate_block_lipschitz(fidelity, x0, config.ball_radius)
    return _step_size(config, lip), lip


def _step_size(config: SolverConfig, lip: LipschitzEstimate):
    if config.gamma is not None:
        return config.gamma
    if lip.l_max <= 0:
        raise ValueError("cannot auto-select gamma: certified l_max is zero")
    return DEFAULT_STEP_FRACTION / lip.l_max

