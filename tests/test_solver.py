"""Solver iteration: block updates, inactive blocks, stopping, determinism."""

import dataclasses
import re

import numpy as np
import pytest

from bcpnp import (
    BlockSchedule,
    BlockVector,
    GaussianPrior,
    IdentityDenoiser,
    ImplicitObjective,
    MmseDenoiser,
    NonFiniteIterateError,
    SolverConfig,
    apply_denoiser,
    g_operator,
    initialize,
    resolve_gamma,
    rmse,
    solve,
)
from bcpnp import forward
from bcpnp.denoisers import error_magnitude

from desk_problems import (
    blind_desk_problem,
    fixed_operator_deconvolution,
    quadratic_minimizer,
    quadratic_problem,
)


def make_quadratic_setup(max_iters=4000, stop_tol=1e-14):
    prob = quadratic_problem()
    denoisers = [
        MmseDenoiser(p, s) for p, s in zip(prob.priors, prob.sigmas)
    ]
    config = SolverConfig(
        schedule=BlockSchedule("sequential", 2),
        max_iters=max_iters,
        stop_tol=stop_tol,
        ball_radius=1.0,
    )
    gamma, lip = resolve_gamma(prob.fidelity, _origin(prob), config)
    config = dataclasses.replace(config, gamma=gamma)
    return prob, denoisers, config, lip


def _origin(prob):
    return BlockVector(prob.layout, np.zeros(prob.layout.total))


def _solve_iterates(fidelity, denoisers, config, x0, num, **kwargs):
    """(x^k, i_k) for k = 1..num, each the result of its own `solve` of k
    iterations from x0."""
    out = []
    for k in range(1, num + 1):
        res = solve(fidelity, denoisers, dataclasses.replace(config, max_iters=k), x0, **kwargs)
        assert len(res.trace) == k
        out.append((res.x, int(res.trace.block[-1])))
    return out


def _block_update(fidelity, denoisers, gamma, x, i, k):
    """x with block i replaced by D_i(x_i - gamma grad_i g(x)) at iteration k."""
    z = x.block(i) - gamma * fidelity.grad(x).block(i)
    return x.inject(i, apply_denoiser(denoisers[i - 1], z, k))


class TestGOperator:
    def test_identity_denoisers_reduce_to_gradient(self):
        prob = quadratic_problem()
        x = BlockVector(prob.layout, np.ones(prob.layout.total))
        gamma = 0.01
        res = g_operator(prob.fidelity, [IdentityDenoiser()] * 2, gamma, x)
        np.testing.assert_allclose(
            res.data, prob.fidelity.grad(x).data, rtol=1e-12
        )

    def test_zero_at_fixed_point(self):
        """The residual vanishes where denoising the gradient step is a no-op."""
        prob = quadratic_problem()
        denoisers = [MmseDenoiser(p, s) for p, s in zip(prob.priors, prob.sigmas)]
        config = SolverConfig(
            schedule=BlockSchedule("sequential", 2),
            max_iters=20000,
            stop_tol=1e-300,
            ball_radius=1.0,
        )
        gamma, _ = resolve_gamma(prob.fidelity, _origin(prob), config)
        config = dataclasses.replace(config, gamma=gamma)
        res = solve(prob.fidelity, denoisers, config, _origin(prob))
        g_final = g_operator(prob.fidelity, denoisers, gamma, res.x)
        assert g_final.norm() < 1e-10

    def test_compositional_recomputation(self):
        """Matches an explicit grad + denoise + scale recomputation."""
        desk = blind_desk_problem()
        dens = desk.denoisers()
        x = desk.x0
        got = g_operator(desk.fidelity, dens, desk.gamma, x, k=3)
        grad = desk.fidelity.grad(x)
        parts = []
        for i in (1, 2):
            zi = x.extract(i) - desk.gamma * grad.extract(i)
            parts.append((x.extract(i) - apply_denoiser(dens[i - 1], zi, 3)) / desk.gamma)
        np.testing.assert_allclose(
            got.data, np.concatenate(parts), rtol=1e-12
        )


class TestStep:
    """One iteration of `solve`: a single block update."""

    def test_only_selected_block_changes(self):
        desk = blind_desk_problem()
        x = desk.x0
        iterates = _solve_iterates(desk.fidelity, desk.denoisers(), desk.config, desk.x0, 4,
                                   lipschitz=desk.lipschitz)
        for k, (x_new, i_k) in enumerate(iterates, start=1):
            assert i_k == 1 + (k - 1) % 2
            other = 2 if i_k == 1 else 1
            assert np.array_equal(x_new.extract(other), x.extract(other))
            assert not np.array_equal(x_new.extract(i_k), x.extract(i_k))
            x = x_new

    def test_single_block_equals_plain_pnp_iteration(self):
        prob = fixed_operator_deconvolution()
        den = MmseDenoiser(GaussianPrior(np.full(64, 0.5), 0.5), 0.3)
        config = SolverConfig(
            schedule=BlockSchedule("sequential", 1), gamma=0.05, max_iters=1, ball_radius=1.0
        )
        x0 = BlockVector(prob.fidelity.layout, prob.y)
        res = solve(prob.fidelity, [den], config, x0)
        assert res.trace.block.tolist() == [1]
        z = x0.data - 0.05 * prob.fidelity.grad(x0).data
        np.testing.assert_array_equal(res.x.data, apply_denoiser(den, z, 1))

    def test_zero_gradient_identity_denoiser_is_noop(self):
        prob = fixed_operator_deconvolution()
        exact = np.linalg.solve(prob.matrix, prob.y)
        x = BlockVector(prob.fidelity.layout, exact)
        config = SolverConfig(
            schedule=BlockSchedule("sequential", 1), gamma=0.1, max_iters=1, ball_radius=1.0
        )
        res = solve(prob.fidelity, [IdentityDenoiser()], config, x)
        np.testing.assert_allclose(res.x.data, x.data, rtol=0, atol=1e-12)


class TestSolve:
    def test_quadratic_reaches_normal_equations_solution(self):
        """Strongly convex case: limit matches the closed-form minimizer."""
        prob, denoisers, config, _ = make_quadratic_setup()
        res = solve(prob.fidelity, denoisers, config, _origin(prob))
        expected = quadratic_minimizer(prob, config.gamma)
        rel = np.linalg.norm(res.x.data - expected) / np.linalg.norm(expected)
        assert rel <= 1e-8

    def test_bitwise_determinism(self):
        desk = blind_desk_problem()
        cfg = dataclasses.replace(
            desk.config,
            schedule=BlockSchedule("random-iid", 2, seed=5),
            max_iters=50,
        )
        a = solve(desk.fidelity, desk.denoisers("constant", 0.01, 3), cfg, desk.x0)
        b = solve(desk.fidelity, desk.denoisers("constant", 0.01, 3), cfg, desk.x0)
        assert np.array_equal(a.x.data, b.x.data)
        assert np.array_equal(a.trace.g_norm2, b.trace.g_norm2)
        assert np.array_equal(a.trace.step_norm, b.trace.step_norm)

    def test_block_isolation_along_run(self):
        desk = blind_desk_problem()
        x = desk.x0
        for x_new, i_k in _solve_iterates(desk.fidelity, desk.denoisers(), desk.config,
                                          desk.x0, 12, lipschitz=desk.lipschitz):
            for j in (1, 2):
                if j != i_k:
                    assert np.array_equal(x_new.extract(j), x.extract(j))
            x = x_new

    def test_consistent_noiseless_start_stops_immediately(self):
        """With priors centered on the truth and zero noise, the first
        update is an exact fixed point and tolerance fires at k=1."""
        desk = blind_desk_problem(noise_sigma=0.0)
        v_true, th_true = desk.truth.extract(1), desk.truth.extract(2)
        denoisers = [
            MmseDenoiser(GaussianPrior(v_true, 0.25), 0.25),
            MmseDenoiser(GaussianPrior(th_true, 0.01), 0.05),
        ]
        cfg = dataclasses.replace(desk.config, stop_tol=1e-5)
        res = solve(desk.fidelity, denoisers, cfg, desk.truth)
        assert res.reason == "tolerance"
        assert len(res.trace) == 1
        assert np.array_equal(res.x.data, desk.truth.data)

    def test_prox_displacement_bound_at_consistent_start(self):
        """From a consistent start the first step moves exactly by the
        denoiser's prox displacement at the truth (explicit evaluation)."""
        desk = blind_desk_problem(noise_sigma=0.0)
        dens = desk.denoisers()
        res = solve(
            desk.fidelity,
            dens,
            dataclasses.replace(desk.config, max_iters=1),
            desk.truth,
        )
        v_true = desk.truth.extract(1)
        displacement = np.linalg.norm(
            apply_denoiser(dens[0], v_true, 1) - v_true
        )
        np.testing.assert_allclose(res.trace.step_norm[0], displacement, rtol=1e-12)

    def test_nonfinite_abort_names_block_and_iteration(self):
        prob = fixed_operator_deconvolution()
        den = IdentityDenoiser()
        config = SolverConfig(
            schedule=BlockSchedule("sequential", 1),
            gamma=1e6,  # wildly above 1/L: bilinear residual blows up
            max_iters=500,
            ball_radius=1.0,
        )
        x0 = BlockVector(prob.fidelity.layout, prob.y * 1e150)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteIterateError, match="block 1 at iteration"):
                solve(prob.fidelity, [den], config, x0)

    def test_left_ball_flag(self):
        """A denoiser that teleports the image far outside the certified
        ball raises the diagnostic flag (not an error)."""
        desk = blind_desk_problem()
        dens = [
            MmseDenoiser(GaussianPrior(np.full(64, 10.0), 0.25), 5.0),
            MmseDenoiser(desk.priors[1], desk.sigmas[1]),
        ]
        cfg = dataclasses.replace(desk.config, max_iters=2, ball_radius=2.0)
        res = solve(desk.fidelity, dens, cfg, desk.x0)
        assert res.flags["left_ball"]

    def test_gamma_rule_flag(self):
        desk = blind_desk_problem()
        cfg = dataclasses.replace(desk.config, gamma=2.0 / desk.lipschitz.l_max)
        res = solve(
            desk.fidelity,
            desk.denoisers(),
            dataclasses.replace(cfg, max_iters=2),
            desk.x0,
            lipschitz=desk.lipschitz,
        )
        assert res.flags["gamma_exceeds_rule"]

    def test_power_iter_warning_reads_full_iteration_only_with_objective(self, monkeypatch):
        """The full power iteration's flag counts only in a solve that
        records an objective, the one path whose checks read l_full."""
        power_iteration = forward._power_iteration

        def full_never_converges(apply_op, dim, rng, square=False):
            value, ok = power_iteration(apply_op, dim, rng, square)
            return value, ok and not square

        monkeypatch.setattr(forward, "_power_iteration", full_never_converges)
        prob, denoisers, config, lip = make_quadratic_setup(max_iters=3)
        objective = ImplicitObjective(prob.fidelity, denoisers, config.gamma)

        def warned(**kwargs):
            res = solve(prob.fidelity, denoisers, config, _origin(prob), lipschitz=lip, **kwargs)
            return res.flags["power_iter_warning"]

        assert lip.converged
        assert not warned()
        assert warned(objective=objective) and not lip.l_full_converged
        assert not warned()

    def test_residual_ratio_decreases_on_theory_config(self):
        desk = blind_desk_problem()
        res = solve(
            desk.fidelity,
            desk.denoisers(),
            dataclasses.replace(desk.config, stop_tol=1e-8),
            desk.x0,
            objective=desk.objective,
            lipschitz=desk.lipschitz,
        )
        assert res.reason == "tolerance"
        assert res.g_norm_final / res.g_norm_initial < 1.0


class TestTraceRmse:
    @pytest.mark.parametrize("schedule", ["sequential", "random-iid"])
    def test_each_row_equals_every_block_recomputed(self, schedule):
        """Errors carried over for the blocks an iteration left alone are
        bitwise the errors of the iterate it produced."""
        prob = quadratic_problem(sizes=(4, 3, 3))
        denoisers = [MmseDenoiser(p, s) for p, s in zip(prob.priors, prob.sigmas)]
        config = SolverConfig(schedule=BlockSchedule(schedule, 3, seed=2), max_iters=30,
                              stop_tol=1e-300, ball_radius=1.0)
        gamma, lip = resolve_gamma(prob.fidelity, _origin(prob), config)
        config = dataclasses.replace(config, gamma=gamma)
        truth = BlockVector(prob.layout, np.random.default_rng(3).standard_normal(10))
        res = solve(prob.fidelity, denoisers, config, _origin(prob), truth=truth, lipschitz=lip)
        assert len(res.trace) == 30
        x = _origin(prob)
        for k in range(1, 31):
            x = _block_update(prob.fidelity, denoisers, gamma, x, config.schedule.next_index(k), k)
            want = [rmse(x.block(i), truth.block(i)) for i in (1, 2, 3)]
            assert res.trace.rmse[k - 1].tobytes() == np.array(want).tobytes(), k


def _mode_solve_inputs(desk, mode, dens):
    """(denoisers, x0) of each ablation mode on the two-block desk problem,
    as `cli.Problem.denoisers_for` and `x0_for` build them: the operator
    block is denoised (bc-pnp), held at theta0 (pnp-ista) or at the truth
    (pnp-oracle-theta), or moved by bare gradient steps (pnp-gd-theta)."""
    held = [dens[0], None]
    return {
        "bc-pnp": (dens, desk.x0),
        "pnp-ista": (held, desk.x0),
        "pnp-gd-theta": ([dens[0], IdentityDenoiser()], desk.x0),
        "pnp-oracle-theta": (held, initialize(desk.fidelity, desk.truth.extract(2))),
    }[mode]


class TestModes:
    """Each ablation is a denoiser list: a None entry holds its block."""

    def test_frozen_theta_modes_keep_theta(self):
        desk = blind_desk_problem()
        cfg = dataclasses.replace(desk.config, max_iters=40)
        for mode in ("pnp-ista", "pnp-oracle-theta"):
            dens, x0 = _mode_solve_inputs(desk, mode, desk.denoisers())
            res = solve(desk.fidelity, dens, cfg, x0)
            assert np.array_equal(res.x.extract(2), x0.extract(2))
            assert not np.array_equal(res.x.extract(1), x0.extract(1))
            assert res.trace.block.tolist() == [1] * 40

    def test_gd_theta_is_bare_gradient_step(self):
        desk = blind_desk_problem()
        dens, x0 = _mode_solve_inputs(desk, "pnp-gd-theta", desk.denoisers())
        cfg = dataclasses.replace(desk.config, max_iters=2)
        res = solve(desk.fidelity, dens, cfg, x0)
        # k=1 updates the image block, k=2 the parameter block by gradient
        x1 = solve(desk.fidelity, dens, dataclasses.replace(cfg, max_iters=1), x0).x
        expected_theta = x1.extract(2) - desk.gamma * desk.fidelity.grad(x1, [2]).block(2)
        np.testing.assert_array_equal(res.x.extract(2), expected_theta)

    def test_no_denoiser_at_all_is_rejected(self):
        desk = blind_desk_problem()
        with pytest.raises(ValueError, match="no block has a denoiser"):
            solve(desk.fidelity, [None, None], desk.config, desk.x0)


def _two_pass_reference(desk, dens, config, objective, x0):
    """The iteration written out from its definition, in two passes per
    iteration: the residual G(x) over the active blocks (those whose
    denoiser is not None), then the update x_i <- D_i(x_i - gamma grad_i
    g(x)) of the scheduled block.  Returns the final iterate, the trace
    rows, the initial (f, g, h, |grad f|^2) and the final residual norm,
    for comparison with the fused `solve`."""
    fid, gamma = desk.fidelity, config.gamma
    active = [i for i in (1, 2) if dens[i - 1] is not None]

    def residual_norm(x, k):
        grad, out = fid.grad(x), np.zeros(x.layout.total)
        for i in active:
            di = apply_denoiser(dens[i - 1], x.block(i) - gamma * grad.block(i), k)
            out[x.layout.block_slice(i)] = (x.block(i) - di) / gamma
        return float(np.linalg.norm(out))

    x = x0
    rows = []
    for k in range(1, config.max_iters + 1):
        g_norm2 = residual_norm(x, k) ** 2
        i_k = config.schedule.next_index(k) if len(active) == 2 else active[0]
        x_new = _block_update(fid, dens, gamma, x, i_k, k)
        f, g, h = objective.value(x_new)
        rows.append([
            k, i_k, f, g, h, g_norm2, float(np.linalg.norm(x_new.data - x.data)),
            max(error_magnitude(dens[i - 1], k) for i in active),
            objective.grad(x_new).norm() ** 2,
            *(rmse(x_new.block(i), desk.truth.block(i)) for i in (1, 2)),
        ])
        x = x_new
    initial = (*objective.value(x0), objective.grad(x0).norm() ** 2)
    return x, np.array(rows), initial, residual_norm(x, len(rows) + 1)


class _CountingFidelity:
    """Delegates to a fidelity and counts its full-gradient evaluations,
    with or without the value."""

    def __init__(self, inner):
        self.inner = inner
        self.grad_calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def grad(self, x, blocks=None):
        self.grad_calls += 1
        return self.inner.grad(x, blocks)

    def value_and_grad(self, x, blocks=None):
        self.grad_calls += 1
        return self.inner.value_and_grad(x, blocks)


class _CountingDenoiser:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def apply(self, z, k=1):
        self.calls += 1
        return self.inner.apply(z, k)


class _NanAtIteration:
    def __init__(self, inner, k):
        self.inner, self.k = inner, k

    def apply(self, z, k=1):
        out = self.inner.apply(z, k)
        return np.full_like(out, np.nan) if k == self.k else out


class TestFusedIteration:
    @pytest.mark.parametrize("schedule", ["sequential", "random-iid"])
    @pytest.mark.parametrize("mode", ["bc-pnp", "pnp-ista", "pnp-gd-theta", "pnp-oracle-theta"])
    def test_matches_two_pass_reference_bitwise(self, mode, schedule):
        desk = blind_desk_problem()
        objective = ImplicitObjective(desk.fidelity, desk.denoisers("constant", 0.01, 3),
                                      desk.gamma)
        dens, x0 = _mode_solve_inputs(desk, mode, desk.denoisers("constant", 0.01, 3))
        cfg = dataclasses.replace(
            desk.config, max_iters=40, schedule=BlockSchedule(schedule, 2, seed=4)
        )
        res = solve(desk.fidelity, dens, cfg, x0, truth=desk.truth,
                    objective=objective, lipschitz=desk.lipschitz)
        x, rows, initial, g_final = _two_pass_reference(desk, dens, cfg, objective, x0)
        tr = res.trace
        columns = [tr.iters, tr.block, tr.f, tr.g, tr.h, tr.g_norm2, tr.step_norm, tr.eps,
                   tr.grad_f_norm2, tr.rmse[:, 0], tr.rmse[:, 1]]
        assert len(tr) == len(rows) == 40
        for j, col in enumerate(columns):
            assert np.asarray(col, dtype=float).tobytes() == rows[:, j].tobytes(), j
        got_initial = (tr.f_initial, tr.g_initial, tr.h_initial, tr.grad_f_norm2_initial)
        assert got_initial == initial
        assert res.x.data.tobytes() == x.data.tobytes()
        assert res.g_norm_final == g_final

    @pytest.mark.parametrize("mode, num_active", [("bc-pnp", 2), ("pnp-ista", 1)])
    @pytest.mark.parametrize("with_objective", [False, True])
    def test_one_gradient_and_one_denoise_per_active_block(self, mode, num_active,
                                                           with_objective):
        desk = blind_desk_problem()
        fid = _CountingFidelity(desk.fidelity)
        dens, x0 = _mode_solve_inputs(desk, mode, desk.denoisers())
        dens = [None if d is None else _CountingDenoiser(d) for d in dens]
        objective = ImplicitObjective(fid, desk.denoisers(), desk.gamma) if with_objective else None
        n = 25
        cfg = dataclasses.replace(desk.config, max_iters=n)
        res = solve(fid, dens, cfg, x0, objective=objective, lipschitz=desk.lipschitz)
        assert len(res.trace) == n
        assert fid.grad_calls == n + 1
        assert sum(d.calls for d in dens if d is not None) == num_active * (n + 1)

    def test_nonfinite_in_unchosen_block_is_caught_at_once(self):
        """A NaN from block 2's denoiser at k=1, when block 1 is the one
        updated, is reported at that iteration, not when block 2 is chosen."""
        desk = blind_desk_problem()
        dens = desk.denoisers()
        dens[1] = _NanAtIteration(dens[1], 1)
        cfg = dataclasses.replace(desk.config, max_iters=5)
        with pytest.raises(NonFiniteIterateError, match="block 2 at iteration 1$"):
            solve(desk.fidelity, dens, cfg, desk.x0, lipschitz=desk.lipschitz)


class _NanObjectiveAt:
    """Delegates to an objective; one quantity is NaN at iteration k (the
    objective is evaluated once at x0, then once per iteration)."""

    def __init__(self, inner, k, quantity):
        self.inner, self.k, self.quantity = inner, k, quantity
        self.gamma = inner.gamma
        self.value_calls = self.grad_calls = 0

    def value(self, x, g=None):
        self.value_calls += 1
        f, g, h = self.inner.value(x, g)
        if self.value_calls == self.k + 1 and self.quantity in ("f", "g", "h"):
            f, g, h = (np.nan if q == self.quantity else v for q, v in zip("fgh", (f, g, h)))
        return f, g, h

    def grad(self, x, grad_g=None):
        self.grad_calls += 1
        out = self.inner.grad(x, grad_g)
        if self.grad_calls == self.k + 1 and self.quantity == "||grad f||^2":
            return BlockVector(out.layout, np.full(out.layout.total, np.nan))
        return out


class TestNonFiniteObjective:
    @pytest.mark.parametrize("quantity", ["f", "g", "h", "||grad f||^2"])
    def test_nan_at_iteration_3_is_named(self, quantity):
        desk = blind_desk_problem()
        objective = _NanObjectiveAt(desk.objective, 3, quantity)
        cfg = dataclasses.replace(desk.config, max_iters=10)
        match = f"non-finite objective {re.escape(quantity)} at iteration 3$"
        with pytest.raises(NonFiniteIterateError, match=match):
            solve(desk.fidelity, desk.denoisers(), cfg, desk.x0, objective=objective,
                  lipschitz=desk.lipschitz)

    def test_nan_at_the_start_is_iteration_0(self):
        desk = blind_desk_problem()
        objective = _NanObjectiveAt(desk.objective, 0, "f")
        with pytest.raises(NonFiniteIterateError, match="objective f at iteration 0$"):
            solve(desk.fidelity, desk.denoisers(), desk.config, desk.x0, objective=objective,
                  lipschitz=desk.lipschitz)


class TestGradientChainIdentity:
    def test_prox_optimality_along_trace(self):
        """At every accepted update, grad h at the new block equals
        (pre-denoise point - new block) / gamma."""
        from bcpnp.denoisers import implicit_reg_gradient

        desk = blind_desk_problem()
        dens = [MmseDenoiser(p, s) for p, s in zip(desk.priors, desk.sigmas)]
        x = desk.x0
        for k in range(1, 61):
            i_k = 1 + (k - 1) % 2
            z = x.extract(i_k) - desk.gamma * desk.fidelity.grad(x, [i_k]).block(i_k)
            x = x.inject(i_k, apply_denoiser(dens[i_k - 1], z, k))
            lhs = implicit_reg_gradient(
                desk.priors[i_k - 1], desk.sigmas[i_k - 1], desk.gamma, x.extract(i_k)
            )
            rhs = (z - x.extract(i_k)) / desk.gamma
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * (1 + np.linalg.norm(rhs))


class TestInitialize:
    def test_unitary_single_coil_is_inverse_dft(self):
        from bcpnp import MultiCoilFidelity, MultiCoilModel, pairs_to_complex

        rng = np.random.default_rng(1)
        model = MultiCoilModel((8, 8), 1, np.ones((8, 8)))
        v = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        maps = np.ones((1, 8, 8), dtype=complex)
        y = model.forward(maps, v)
        fid = MultiCoilFidelity(model, y)
        from bcpnp.blocks import complex_to_pairs

        x0 = initialize(fid, complex_to_pairs(maps))
        img = pairs_to_complex(x0.extract(1), (8, 8))
        np.testing.assert_allclose(img, np.fft.ifft2(y[0], norm="ortho"), atol=1e-12)

    def test_delta_kernel_initializes_to_measurement(self):
        rng = np.random.default_rng(2)
        from bcpnp import BlindConvolutionModel, ConvolutionFidelity

        model = BlindConvolutionModel((6, 6), (3, 3))
        delta = np.zeros(9)
        delta[4] = 1.0
        y = rng.standard_normal(36)
        fid = ConvolutionFidelity(model, y)
        x0 = initialize(fid, delta)
        np.testing.assert_allclose(x0.extract(1), y, atol=1e-13)

    def test_matches_naive_adjoint(self):
        """Random kernel: image block equals the dense-matrix adjoint."""
        rng = np.random.default_rng(3)
        from bcpnp import BlindConvolutionModel, ConvolutionFidelity

        model = BlindConvolutionModel((5, 5), (3, 3))
        theta = rng.standard_normal(9)
        dense = np.empty((25, 25))
        for j in range(25):
            e = np.zeros(25)
            e[j] = 1.0
            dense[:, j] = model.forward(theta, e)
        y = rng.standard_normal(25)
        x0 = initialize(ConvolutionFidelity(model, y), theta)
        np.testing.assert_allclose(x0.extract(1), dense.T @ y, atol=1e-10)

    def test_missing_theta_rejected(self):
        """Blind models need theta0; a two-block linear fidelity has no
        parameter block and starts from A^T y alone."""
        desk = blind_desk_problem()
        with pytest.raises(ValueError):
            initialize(desk.fidelity)

        from bcpnp import LinearFidelity, LinearModel
        from bcpnp.blocks import BlockLayout

        rng = np.random.default_rng(4)
        model = LinearModel(rng.standard_normal((6, 5)))
        y = rng.standard_normal(6)
        x0 = initialize(LinearFidelity(model, BlockLayout((3, 2)), y))
        np.testing.assert_allclose(x0.data, model.matrix.T @ y, rtol=1e-14)


class TestValidation:
    def test_objective_gamma_mismatch(self):
        desk = blind_desk_problem()
        from bcpnp import ImplicitObjective

        other = ImplicitObjective(desk.fidelity, desk.denoisers(), desk.gamma * 2)
        with pytest.raises(ValueError):
            solve(desk.fidelity, desk.denoisers(), desk.config, desk.x0, objective=other)

    def test_denoiser_count_mismatch(self):
        desk = blind_desk_problem()
        with pytest.raises(ValueError):
            solve(desk.fidelity, [IdentityDenoiser()], desk.config, desk.x0)

    def test_bad_mode(self):
        """The solver has no modes: SolverConfig takes no mode, and an
        ablation is a list of denoisers."""
        with pytest.raises(TypeError):
            SolverConfig(schedule=BlockSchedule("sequential", 2), mode="admm")
