"""Small reproducible problem instances shared across the test modules.

The blind problems pair an 8x8 image with a 3x3 kernel (or two coil maps),
small enough that dense oracles (finite differences, SVD, grid search) stay
fast while every solver/theory code path is exercised.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np

from bcpnp import (
    BlindConvolutionModel,
    BlockSchedule,
    BlockVector,
    ConvolutionFidelity,
    ErrorSchedule,
    GaussianPrior,
    ImplicitObjective,
    InexactDenoiser,
    LinearFidelity,
    LinearModel,
    MmseDenoiser,
    MultiCoilFidelity,
    MultiCoilModel,
    SolverConfig,
    TheoryConstants,
    complex_to_pairs,
    initialize,
    resolve_gamma,
    synthesize,
    with_full_constant,
)
from bcpnp.blocks import BlockLayout


def blind_desk_problem(shrink=0.8, image_scale=1.0, noise_sigma=0.01, seed=100,
                       image_shape=(8, 8), kernel_shape=(3, 3)):
    """Two-block blind deconvolution with Gaussian priors on both blocks.

    `shrink` is the per-update posterior shrinkage factor tau^2/(tau^2 +
    sigma^2) of both block denoisers; smaller values contract faster.
    """
    rng = np.random.default_rng(seed)
    model = BlindConvolutionModel(image_shape, kernel_shape)
    n, m = model.layout.sizes
    v_true = image_scale * rng.random(n)
    th_true = rng.random(m)
    th_true /= th_true.sum()
    y = synthesize(model, v_true, th_true, noise_sigma=noise_sigma, seed=1)
    fid = ConvolutionFidelity(model, y)
    th0 = th_true + 0.1 * rng.standard_normal(m)
    x0 = initialize(fid, th0)

    tau2_v, tau2_t = 0.25, 0.01
    sig_v = float(np.sqrt(tau2_v * (1.0 / shrink - 1.0)))
    sig_t = float(np.sqrt(tau2_t * (1.0 / shrink - 1.0)))
    prior_v = GaussianPrior(np.zeros(n), tau2_v)
    prior_t = GaussianPrior(np.full(m, 1.0 / m), tau2_t)

    def denoisers(error_kind="zero", error_base=0.0, error_seed=0):
        return [
            InexactDenoiser(
                MmseDenoiser(prior_v, sig_v),
                ErrorSchedule(error_kind, base=error_base, seed=error_seed),
                block_index=1,
            ),
            InexactDenoiser(
                MmseDenoiser(prior_t, sig_t),
                ErrorSchedule(error_kind, base=error_base, seed=error_seed + 1000),
                block_index=2,
            ),
        ]

    config = SolverConfig(
        schedule=BlockSchedule("sequential", 2),
        ball_radius=2.0,
        max_iters=300,
        stop_tol=1e-300,
    )
    gamma, lip = resolve_gamma(fid, x0, config)
    lip = with_full_constant(fid, x0, lip, config.ball_radius)
    config = dataclasses.replace(config, gamma=gamma)
    objective = ImplicitObjective(fid, denoisers(), gamma)
    constants = TheoryConstants.from_problem(
        gamma, 2, lip.l_max, lip.l_full, objective.m_max()
    )
    return SimpleNamespace(
        model=model,
        fidelity=fid,
        truth=BlockVector.from_blocks([v_true, th_true]),
        theta0=th0,
        x0=x0,
        priors=(prior_v, prior_t),
        sigmas=(sig_v, sig_t),
        denoisers=denoisers,
        config=config,
        gamma=gamma,
        lipschitz=lip,
        objective=objective,
        constants=constants,
    )


def two_coil_problem(seed=200):
    """8x8 two-coil model with a half-sampled mask, real-pair blocks."""
    return coil_problem((8, 8), 2, seed)


def coil_problem(shape, coils, seed=200):
    """Multi-coil model with a half-sampled mask, real-pair blocks."""
    rng = np.random.default_rng(seed)
    mask = (rng.random(shape) < 0.55).astype(float)
    mask[0, 0] = 1.0
    model = MultiCoilModel(shape, coils, mask)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    maps = 0.8 + 0.4 * rng.standard_normal((coils,) + shape)
    maps = maps + 0.3j * rng.standard_normal((coils,) + shape)
    y = synthesize(model, v, maps, noise_sigma=0.02, seed=3)
    fid = MultiCoilFidelity(model, y)
    truth = BlockVector.from_blocks([complex_to_pairs(v), complex_to_pairs(maps)])
    return SimpleNamespace(model=model, fidelity=fid, truth=truth)


def fixed_operator_deconvolution(seed=300, image_shape=(8, 8), kernel_width=1.0):
    """One-block problem: deconvolution with a known kernel as a dense matrix."""
    rng = np.random.default_rng(seed)
    model = BlindConvolutionModel(image_shape, (3, 3))
    yy, xx = np.mgrid[-1:2, -1:2]
    kernel = np.exp(-(xx**2 + yy**2) / (2 * kernel_width**2))
    kernel = (kernel / kernel.sum()).ravel()
    n = image_shape[0] * image_shape[1]
    dense = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        dense[:, j] = model.forward(kernel, e)
    v_true = rng.random(n)
    y = dense @ v_true + 0.01 * rng.standard_normal(n)
    fid = LinearFidelity(LinearModel(dense), BlockLayout((n,)), y)
    return SimpleNamespace(fidelity=fid, matrix=dense, v_true=v_true, y=y)


def quadratic_problem(seed=400, rows=12, sizes=(6, 4)):
    """Fixed linear operator split into blocks; f = g + h is a strongly
    convex quadratic whose minimizer has a normal-equations closed form."""
    rng = np.random.default_rng(seed)
    layout = BlockLayout(sizes)
    A = rng.standard_normal((rows, layout.total))
    x_true = rng.standard_normal(layout.total)
    y = A @ x_true + 0.05 * rng.standard_normal(rows)
    fid = LinearFidelity(LinearModel(A), layout, y)
    priors = [
        GaussianPrior(rng.standard_normal(s) * 0.5, float(rng.uniform(0.5, 1.5)))
        for s in sizes
    ]
    sigmas = [float(rng.uniform(0.3, 0.8)) for _ in sizes]
    return SimpleNamespace(
        fidelity=fid, matrix=A, y=y, layout=layout, priors=priors, sigmas=sigmas
    )


def quadratic_minimizer(problem, gamma):
    """Normal-equations solution of min 0.5||Ax-y||^2 + sum_i h_i(x_i)."""
    A, y = problem.matrix, problem.y
    n = problem.layout.total
    reg = np.zeros((n, n))
    rhs = A.T @ y
    for i, (prior, sigma) in enumerate(zip(problem.priors, problem.sigmas)):
        sl = problem.layout.block_slice(i + 1)
        coef = sigma**2 / (gamma * prior.var)
        reg[sl, sl] = coef * np.eye(problem.layout.sizes[i])
        rhs[sl] += coef * prior.mean
    return np.linalg.solve(A.T @ A + reg, rhs)
