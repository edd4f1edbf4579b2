"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Derived expected values are produced by independent oracles inside the
tests (quadrature, finite differences, normal equations, long reference
runs); tolerances and runtime budgets are fixed here and asserted.
"""

import dataclasses
import time
from contextlib import contextmanager

import numpy as np
import pytest
import yaml

from bcpnp import (
    BlockSchedule,
    BlockVector,
    GaussianPrior,
    GmmPrior,
    MmseDenoiser,
    check_descent,
    check_theorem1,
    check_theorem2,
    cli,
    implicit_reg_gradient,
    mmse_denoise,
    reference_f_star,
    resolve_gamma,
    rmse,
    solve,
    tweedie_gradient,
)
from conftest import record_criterion
from desk_problems import (
    blind_desk_problem,
    quadratic_minimizer,
    quadratic_problem,
    two_coil_problem,
)

GMM_1D = GmmPrior([0.3, 0.7], [[-2.0], [3.0]], [0.5, 1.0])


@contextmanager
def criterion(num, description, budget_s):
    start = time.perf_counter()
    passed = False
    try:
        yield
        passed = True
    finally:
        elapsed = time.perf_counter() - start
        record_criterion(num, description, passed and elapsed < budget_s,
                         elapsed, budget_s)
    assert elapsed < budget_s, f"criterion {num} exceeded its runtime budget"


def random_prior(rng, dim):
    k = int(rng.integers(1, 4))
    if k == 1 and rng.random() < 0.5:
        return GaussianPrior(rng.standard_normal(dim), float(rng.uniform(0.2, 2.0)))
    w = rng.uniform(0.2, 1.0, k)
    return GmmPrior(
        w / w.sum(), rng.standard_normal((k, dim)) * 2.0, rng.uniform(0.2, 2.0, k)
    )


# ---------------------------------------------------------------------------
# shared expensive runs
# ---------------------------------------------------------------------------


_cache = {}


def desk_problem():
    if "desk" not in _cache:
        _cache["desk"] = blind_desk_problem()
    return _cache["desk"]


def desk_run():
    """300-iteration sequential run plus a 10x reference for f*.

    Computed inside the first criterion that needs it so the recorded
    elapsed time covers the actual solve; later criteria reuse the result.
    """
    if "desk_run" not in _cache:
        desk = desk_problem()
        res = solve(
            desk.fidelity,
            desk.denoisers(),
            desk.config,
            desk.x0,
            truth=desk.truth,
            objective=desk.objective,
            lipschitz=desk.lipschitz,
        )
        ref = solve(
            desk.fidelity,
            desk.denoisers(),
            dataclasses.replace(desk.config, max_iters=3000),
            desk.x0,
            objective=desk.objective,
            lipschitz=desk.lipschitz,
        )
        _cache["desk_run"] = (res, reference_f_star(ref.trace))
    return _cache["desk_run"]


def deblur_config_dict(out_dir):
    return {
        "problem": {
            "kind": "blind-deconvolution",
            "image_shape": [64, 64],
            "kernel_shape": [9, 9],
            "image": {"synthetic": "blobs", "seed": 3},
            "kernel": {"synthetic": "gaussian", "width": 1.5},
            "theta_init": {"synthetic": "gaussian", "width": 2.2},
            "noise_sigma": 0.01,
            "seed": 7,
            "balance_blocks": True,
        },
        "denoisers": {
            "image": {"kind": "tv-prox", "weight": 0.002, "inner_iters": 30},
            "theta": {
                "kind": "gaussian-mmse",
                "sigma": 0.01,
                "prior": {"mean": {"gaussian-kernel": 1.8}, "var": 0.0025},
            },
        },
        "solver": {
            "modes": ["pnp-oracle-theta", "bc-pnp", "pnp"],
            "gamma": "auto",
            "max_iters": 400,
            "stop_tol": 1.0e-8,
            "schedule": {"kind": "sequential", "seed": 0},
            "ball_radius": 2.0,
        },
        "output": {"directory": str(out_dir)},
    }


@pytest.fixture(scope="module")
def deblur_paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("deblur")
    config_path = base / "config.yaml"
    out_dir = base / "out"
    config_path.write_text(yaml.safe_dump(deblur_config_dict(out_dir)))
    return config_path, out_dir


def deblur_run(paths):
    if "deblur" not in _cache:
        config_path, out_dir = paths
        _cache["deblur"] = (cli.run(config_path), config_path, out_dir)
    return _cache["deblur"]


def read_metrics(out_dir):
    rows = {}
    lines = (out_dir / "metrics.csv").read_text().splitlines()
    for line in lines[1:]:
        mode, rx, sx, rt = line.split(",")
        rows[mode] = {"rmse_x": float(rx), "ssim_x": float(sx),
                      "rmse_theta": float(rt)}
    return rows


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_c01_tweedie_identity():
    with criterion(1, "Tweedie identity over random priors", 1.0):
        rng = np.random.default_rng(42)
        for _ in range(20):
            dim = int(rng.integers(1, 9))
            prior = random_prior(rng, dim)
            sigma = float(rng.uniform(0.1, 2.0))
            z = rng.standard_normal(dim) * 3.0
            lhs = mmse_denoise(prior, sigma, z)
            rhs = z - sigma**2 * tweedie_gradient(prior, sigma, z)
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * (1 + np.linalg.norm(z))


def test_c02_mmse_matches_quadrature():
    with criterion(2, "1-D mixture denoiser equals posterior-mean quadrature", 5.0):
        sigma = 0.8
        grid = np.linspace(-10, 10, 200001)
        density = np.zeros_like(grid)
        for w, m, t in zip(GMM_1D.weights, GMM_1D.means[:, 0], GMM_1D.variances):
            density += w * np.exp(-((grid - m) ** 2) / (2 * t)) / np.sqrt(2 * np.pi * t)
        for z in np.linspace(-4.5, 4.5, 10):
            lik = np.exp(-((z - grid) ** 2) / (2 * sigma**2))
            post = density * lik
            expected = np.trapezoid(grid * post, grid) / np.trapezoid(post, grid)
            got = mmse_denoise(GMM_1D, sigma, np.array([z]))[0]
            assert abs(got - expected) <= 1e-6


def test_c03_prox_identity():
    with criterion(3, "denoiser is the prox of its implicit regularizer", 1.0):
        rng = np.random.default_rng(7)
        prior = GaussianPrior(rng.standard_normal(6) * 0.5, 0.9)
        for _ in range(10):
            sigma = float(rng.uniform(0.1, 1.5))
            gamma = float(rng.uniform(0.005, 1.0))
            z = rng.standard_normal(6) * 2.0
            u = mmse_denoise(prior, sigma, z)
            grad = (u - z) + gamma * implicit_reg_gradient(prior, sigma, gamma, u)
            assert np.linalg.norm(grad) <= 1e-8


def test_c04_gradient_checks():
    with criterion(4, "block gradients and grad f match finite differences", 10.0):
        problems = []
        conv = blind_desk_problem(seed=500)
        problems.append(
            (conv.fidelity,
             [MmseDenoiser(p, s) for p, s in zip(conv.priors, conv.sigmas)])
        )
        coil = two_coil_problem()
        layout = coil.fidelity.layout
        coil_dens = [
            MmseDenoiser(GaussianPrior(np.zeros(layout.sizes[0]), 1.0), 0.4),
            MmseDenoiser(GaussianPrior(np.zeros(layout.sizes[1]), 2.0), 0.3),
        ]
        problems.append((coil.fidelity, coil_dens))

        gamma, fd_step = 0.05, 1e-6
        for fid, dens in problems:
            layout = fid.layout
            rng = np.random.default_rng(13)
            for _ in range(5):
                x = BlockVector(layout, rng.standard_normal(layout.total))

                def g_of(flat):
                    return fid.value(BlockVector(layout, flat))

                for i in (1, 2):
                    sl = layout.block_slice(i)
                    fd = np.zeros(layout.sizes[i - 1])
                    for jj, j in enumerate(range(sl.start, sl.stop)):
                        e = np.zeros(layout.total)
                        e[j] = fd_step
                        fd[jj] = (g_of(x.data + e) - g_of(x.data - e)) / (2 * fd_step)
                    # the restricted gradient is the one `solve` asks for
                    got = fid.grad(x, [i]).block(i)
                    denom = max(np.linalg.norm(fd), 1e-12)
                    assert np.linalg.norm(got - fd) / denom <= 1e-5

                from bcpnp import ImplicitObjective

                obj = ImplicitObjective(fid, dens, gamma)
                fd_full = np.zeros(layout.total)
                for j in range(layout.total):
                    e = np.zeros(layout.total)
                    e[j] = fd_step
                    fp = obj.value(BlockVector(layout, x.data + e))[0]
                    fm = obj.value(BlockVector(layout, x.data - e))[0]
                    fd_full[j] = (fp - fm) / (2 * fd_step)
                got = obj.grad(x).data
                rel = np.linalg.norm(got - fd_full) / max(np.linalg.norm(fd_full), 1e-12)
                assert rel <= 1e-5


def test_c05_descent_lemma():
    with criterion(5, "per-iteration descent with the proven margin", 30.0):
        desk = desk_problem()
        res, _ = desk_run()
        assert len(res.trace) == 300
        fs = np.concatenate([[res.trace.f_initial], res.trace.f])
        assert np.all(np.diff(fs) <= 1e-10 * (1.0 + np.abs(fs[:-1])))
        report = check_descent(res.trace, desk.constants)
        assert report.passed and report.num_checked == 300


def test_c06_theorem1_bound():
    with criterion(6, "sequential-schedule gradient bound and envelope decay", 120.0):
        desk = desk_problem()
        res, f_star = desk_run()
        report = check_theorem1(res.trace, desk.constants, f_star)
        assert report.num_epochs >= 100
        assert report.passed, f"violations at epochs {report.violations}"
        assert np.all(np.diff(report.running_min) <= 0)
        decay = report.running_min[99] / report.grad_norm2_epochs[0]
        assert decay <= 1e-6


def test_c07_theorem2_bound():
    with criterion(7, "random-schedule residual bound, floor, and plateau", 600.0):
        prob = blind_desk_problem(shrink=0.5, image_scale=2.0)
        ref = solve(
            prob.fidelity,
            prob.denoisers(),
            dataclasses.replace(prob.config, max_iters=3000),
            prob.x0,
            objective=prob.objective,
            lipschitz=prob.lipschitz,
        )
        f_star = reference_f_star(ref.trace)

        def ensemble(error_kind, base, iters, seed0):
            traces = []
            for s in range(50):
                cfg = dataclasses.replace(
                    prob.config,
                    schedule=BlockSchedule("random-iid", 2, seed=s),
                    max_iters=iters,
                )
                dens = prob.denoisers(error_kind, base, seed0 + s)
                obj = prob.objective if error_kind == "zero" else None
                traces.append(
                    solve(prob.fidelity, dens, cfg, prob.x0,
                          objective=obj, lipschitz=prob.lipschitz).trace
                )
            return traces

        exact = ensemble("zero", 0.0, 300, 0)
        rep_exact = check_theorem2(exact, prob.constants, f_star)
        assert rep_exact.passed, f"violations at t {rep_exact.violations[:5]}"

        summable = ensemble("square-summable", 0.05, 600, 7000)
        rep_sum = check_theorem2(summable, prob.constants, f_star)
        assert rep_sum.final_ratio_fractions >= 0.95

        constant = ensemble("constant", 0.05, 300, 9000)
        rep_const = check_theorem2(constant, prob.constants, f_star)
        assert rep_const.passed
        assert rep_const.plateau_mean <= rep_const.plateau_bound


def pnp_ista_reference(fidelity, denoiser, gamma, x0_data, num_iters):
    """Plain proximal-gradient plug-and-play loop on a one-block problem:
    the iterates x^k = D(x^{k-1} - gamma grad g(x^{k-1})), k = 1..num_iters.
    Independent of the block machinery of `solve`."""
    layout = fidelity.layout
    assert layout.num_blocks == 1, "reference iteration expects a one-block fidelity"
    x = np.array(x0_data, dtype=np.float64)
    iterates = []
    for k in range(1, num_iters + 1):
        z = x - gamma * fidelity.grad(BlockVector(layout, x)).data
        x = denoiser.apply(z, k)
        iterates.append(x.copy())
    return iterates


def test_c08_single_block_reduction():
    with criterion(8, "one-block iteration reproduces plain PnP bitwise", 5.0):
        from desk_problems import fixed_operator_deconvolution
        from bcpnp import SolverConfig

        prob = fixed_operator_deconvolution()
        den = MmseDenoiser(GaussianPrior(np.full(64, 0.5), 0.5), 0.2)
        gamma, num = 0.4, 100
        ref = pnp_ista_reference(prob.fidelity, den, gamma, prob.y, num)
        x0 = BlockVector(prob.fidelity.layout, prob.y)
        cfg = SolverConfig(
            schedule=BlockSchedule("sequential", 1), gamma=gamma, stop_tol=1e-300, ball_radius=1.0
        )
        _, lip = resolve_gamma(prob.fidelity, x0, cfg)
        for k in range(1, num + 1):
            res = solve(prob.fidelity, [den], dataclasses.replace(cfg, max_iters=k), x0,
                        lipschitz=lip)
            assert len(res.trace) == k
            assert np.array_equal(res.x.data, ref[k - 1]), f"iterate {k} differs"


def test_c09_quadratic_sanity():
    with criterion(9, "non-blind quadratic limit matches normal equations", 5.0):
        from bcpnp import SolverConfig, resolve_gamma

        prob = quadratic_problem()
        dens = [MmseDenoiser(p, s) for p, s in zip(prob.priors, prob.sigmas)]
        cfg = SolverConfig(
            schedule=BlockSchedule("sequential", 2),
            max_iters=6000,
            stop_tol=1e-15,
            ball_radius=1.0,
        )
        x0 = BlockVector(prob.layout, np.zeros(prob.layout.total))
        gamma, lip = resolve_gamma(prob.fidelity, x0, cfg)
        cfg = dataclasses.replace(cfg, gamma=gamma)
        res = solve(prob.fidelity, dens, cfg, x0, lipschitz=lip)
        expected = quadratic_minimizer(prob, gamma)
        assert rmse(res.x.data, expected) <= 1e-6


def test_c10_blind_deblurring_ordering(deblur_paths):
    with criterion(10, "blind deblurring mode ordering at desk scale", 180.0):
        status, _, out_dir = deblur_run(deblur_paths)
        assert status == cli.EXIT_OK
        rows = read_metrics(out_dir)
        # the frozen-theta run keeps theta0, so its rmse_theta is the init's
        rmse_theta_init = rows["pnp"]["rmse_theta"]
        assert rows["bc-pnp"]["rmse_theta"] < rmse_theta_init
        assert rows["bc-pnp"]["rmse_x"] < rows["pnp"]["rmse_x"]
        assert rows["pnp-oracle-theta"]["rmse_x"] <= rows["bc-pnp"]["rmse_x"]


def test_c11_determinism(deblur_paths, tmp_path):
    with criterion(11, "repeated runs produce byte-identical traces", 200.0):
        status, config_path, out_dir = deblur_run(deblur_paths)
        assert status == cli.EXIT_OK
        repeat = tmp_path / "repeat"
        assert cli.run(config_path, out_override=repeat) == cli.EXIT_OK
        for mode in ("pnp-oracle-theta", "bc-pnp", "pnp"):
            a = (out_dir / mode / "trace.csv").read_bytes()
            b = (repeat / mode / "trace.csv").read_bytes()
            assert a == b, f"trace bytes differ for {mode}"
        assert (out_dir / "metrics.csv").read_bytes() == (
            repeat / "metrics.csv"
        ).read_bytes()
