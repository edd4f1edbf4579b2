"""Solver iteration: block updates, inactive blocks, stopping, determinism."""

import dataclasses
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import bcpnp
from bcpnp import (
    BlockLayout,
    BlockSchedule,
    BlockVector,
    GaussianPrior,
    IdentityDenoiser,
    ImplicitObjective,
    LinearFidelity,
    LinearModel,
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
from bcpnp import theory
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
    gamma, _ = resolve_gamma(prob.fidelity, _origin(prob), config)
    config = dataclasses.replace(config, gamma=gamma)
    return prob, denoisers, config


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

    @pytest.mark.parametrize("held", [(), (0,), (1,), (2,), (0, 2), (0, 1, 2)])
    def test_blocks_without_a_denoiser_add_zero_bitwise(self, held):
        """Over three blocks, with the blocks in `held` lacking a denoiser
        (one between two that have one included), G is bitwise the
        definition block by block, and zero on the held blocks."""
        rng = np.random.default_rng(7)
        layout = BlockLayout((3, 4, 2))
        fid = LinearFidelity(LinearModel(rng.standard_normal((8, 9))), layout,
                             rng.standard_normal(8))
        dens = [None if i in held else MmseDenoiser(GaussianPrior(np.zeros(n), 0.5), 0.3)
                for i, n in enumerate(layout.sizes)]
        x = BlockVector(layout, rng.standard_normal(9))
        gamma = 0.07
        got = g_operator(fid, dens, gamma, x, k=2)
        grad = fid.grad(x)
        want = np.zeros(layout.total)
        for i, d in enumerate(dens, start=1):
            if d is not None:
                zi = x.block(i) - gamma * grad.block(i)
                want[layout.block_slice(i)] = (x.block(i) - apply_denoiser(d, zi, 2)) / gamma
        assert got.data.tobytes() == want.tobytes()

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
        iterates = _solve_iterates(desk.fidelity, desk.denoisers(), desk.config, desk.x0, 4)
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
        prob, denoisers, config = make_quadratic_setup()
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
        # bytes, so that the NaN rows of a lean solve compare equal
        assert a.trace.g_norm2.tobytes() == b.trace.g_norm2.tobytes()
        assert np.array_equal(a.trace.step_norm, b.trace.step_norm)

    def test_random_iid_picks_follow_the_definition_across_chunks(self):
        """600 iterations, several chunks of draws; inexact denoisers keep
        the iterate moving, so the tolerance never stops the run."""
        desk = blind_desk_problem()
        cfg = dataclasses.replace(desk.config, schedule=BlockSchedule("random-iid", 2, seed=11),
                                  max_iters=600, stop_tol=1e-300)
        res = solve(desk.fidelity, desk.denoisers("constant", 0.01, 3), cfg, desk.x0)
        want = [
            int(np.random.default_rng(np.random.SeedSequence(11, spawn_key=(1, k))).integers(2)) + 1
            for k in range(1, 601)
        ]
        assert res.trace.block.tolist() == want

    def test_block_isolation_along_run(self):
        desk = blind_desk_problem()
        x = desk.x0
        for x_new, i_k in _solve_iterates(desk.fidelity, desk.denoisers(), desk.config,
                                          desk.x0, 12):
            for j in (1, 2):
                if j != i_k:
                    assert np.array_equal(x_new.extract(j), x.extract(j))
            x = x_new

    def test_consistent_noiseless_start_stops_immediately(self):
        """With priors centered on the truth and zero noise, every update
        is an exact fixed point, and tolerance fires once both blocks have
        moved: at k=2, the end of the first epoch."""
        desk = blind_desk_problem(noise_sigma=0.0)
        v_true, th_true = desk.truth.extract(1), desk.truth.extract(2)
        denoisers = [
            MmseDenoiser(GaussianPrior(v_true, 0.25), 0.25),
            MmseDenoiser(GaussianPrior(th_true, 0.01), 0.05),
        ]
        cfg = dataclasses.replace(desk.config, stop_tol=1e-5)
        res = solve(desk.fidelity, denoisers, cfg, desk.truth)
        assert res.reason == "tolerance"
        assert len(res.trace) == 2
        assert res.trace.block.tolist() == [1, 2]
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

    def test_nonfinite_residual_entry_aborts(self):
        """A residual G with an infinite entry ends the solve, naming the
        iteration, in a trace row and in the final residual; one whose
        entries are finite but whose squares overflow is only recorded."""

        class ShiftsAfterFirst:  # the identity at k = 1, then z + 1
            def apply(self, z, k=1):
                return z + (k > 1)

        layout = BlockLayout((4,))
        fid = LinearFidelity(LinearModel(np.eye(4)), layout, np.ones(4))
        config = SolverConfig(BlockSchedule("sequential", 1), gamma=0.5, max_iters=1)
        tiny = dataclasses.replace(config, gamma=1e-320)
        shrink = MmseDenoiser(GaussianPrior(np.zeros(4), 1.0), 1.0)
        with np.errstate(over="ignore"):
            res = solve(fid, [IdentityDenoiser()], config, BlockVector(layout, np.full(4, 1e155)))
            assert res.trace.g_norm2[0] == res.g_norm_final == np.inf
            with pytest.raises(NonFiniteIterateError, match="residual G at iteration 1$"):
                solve(fid, [shrink], tiny, BlockVector(layout, np.ones(4)))
            # grad g is zero at x0, so the row's G is too, and x1 = x0
            with pytest.raises(NonFiniteIterateError, match="residual G at iteration 2$"):
                solve(fid, [ShiftsAfterFirst()], tiny, BlockVector(layout, np.ones(4)))

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
        assert res.left_ball is True

    def test_needs_a_step_size(self):
        """solve takes gamma from its config and certifies nothing itself."""
        desk = blind_desk_problem()
        cfg = dataclasses.replace(desk.config, gamma=None)
        with pytest.raises(ValueError, match="resolve_gamma"):
            solve(desk.fidelity, desk.denoisers(), cfg, desk.x0)

    def test_residual_ratio_decreases_on_theory_config(self):
        desk = blind_desk_problem()
        res = solve(
            desk.fidelity,
            desk.denoisers(),
            dataclasses.replace(desk.config, stop_tol=1e-8),
            desk.x0,
            objective=desk.objective,
        )
        assert res.reason == "tolerance"
        assert res.g_norm_final / np.sqrt(res.trace.g_norm2[0]) < 1.0


class _Constant:
    """A denoiser that returns the same block whatever its input."""

    def __init__(self, value):
        self.value = value

    def apply(self, z, k=1):
        return self.value.copy()


class TestStoppingRule:
    """A solve stops on tolerance once every active block has moved and
    each one's latest step, relative to its norm after that step, is below
    stop_tol; a block that settles first does not stop it."""

    @pytest.mark.parametrize("schedule, stop_tol, stop_at", [
        ("sequential", 0.05, 49),
        ("random-iid", 0.05, 43),
        ("sequential", 1e-3, None),  # block 1 never gets below: the cap
        ("random-iid", 1e-3, None),
    ])
    def test_a_settled_block_does_not_stop_the_solve(self, schedule, stop_tol, stop_at):
        """Block 2 jumps to a constant at its first move and stays there,
        so its later steps are exactly 0, while block 1's steps relative
        to its norm fall from 0.25 to below 0.05 only after 40 iterations.
        A rule that read block 2's zero step alone would stop at its second
        move."""
        desk = blind_desk_problem()
        dens = [desk.denoisers()[0], _Constant(desk.truth.block(2))]
        cfg = dataclasses.replace(desk.config, max_iters=60, stop_tol=stop_tol,
                                  schedule=BlockSchedule(schedule, 2, seed=3))
        res = solve(desk.fidelity, dens, cfg, desk.x0)
        iterates = _solve_iterates(desk.fidelity, dens,
                                   dataclasses.replace(cfg, stop_tol=1e-300), desk.x0, 60)
        latest = {}  # each block's latest step relative to its new norm
        prev = desk.x0
        for k, (x, i) in enumerate(iterates, start=1):
            step = np.linalg.norm(x.data - prev.data)
            if i == 2:
                assert (step == 0.0) == (2 in latest)  # block 2 moves once
            latest[i] = step / np.linalg.norm(x.block(i))
            prev = x
            if k == stop_at:
                assert len(latest) == 2 and max(latest.values()) < stop_tol
                break
            # the solve runs on while block 1 has not moved or moves by
            # more than stop_tol relative to its norm
            assert latest.get(1, np.inf) >= stop_tol
        assert res.reason == ("max-iters" if stop_at is None else "tolerance")
        assert res.trace.iters[-1] == (stop_at or 60)
        assert res.x.data.tobytes() == prev.data.tobytes()


class TestTraceRmse:
    @pytest.mark.parametrize("schedule", ["sequential", "random-iid"])
    def test_each_row_equals_every_block_recomputed(self, schedule):
        """Errors carried over for the blocks an iteration left alone are
        bitwise the errors of the iterate it produced."""
        prob = quadratic_problem(sizes=(4, 3, 3))
        denoisers = [MmseDenoiser(p, s) for p, s in zip(prob.priors, prob.sigmas)]
        config = SolverConfig(schedule=BlockSchedule(schedule, 3, seed=2), max_iters=30,
                              stop_tol=1e-300, ball_radius=1.0)
        gamma, _ = resolve_gamma(prob.fidelity, _origin(prob), config)
        config = dataclasses.replace(config, gamma=gamma)
        truth = BlockVector(prob.layout, np.random.default_rng(3).standard_normal(10))
        res = solve(prob.fidelity, denoisers, config, _origin(prob), truth=truth)
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
        expected_theta = x1.extract(2) - desk.gamma * desk.fidelity.grad_block(x1, 2).block(2)
        np.testing.assert_array_equal(res.x.extract(2), expected_theta)

    def test_no_denoiser_at_all_is_rejected(self):
        desk = blind_desk_problem()
        with pytest.raises(ValueError, match="no block has a denoiser"):
            solve(desk.fidelity, [None, None], desk.config, desk.x0)


def _two_pass_reference(desk, dens, config, x0, objective=None, truth=None, start_iter=1):
    """The iteration written out from its definition, in two passes per
    iteration: the residual G(x) over the active blocks (those whose
    denoiser is not None), then the update x_i <- D_i(x_i - gamma grad_i
    g(x)) of the scheduled block, from iteration `start_iter` on, until
    every active block's latest step relative to its new norm is below
    `stop_tol`.  Rows hold NaN where there is no objective or truth, and
    ||grad f||^2 on odd k, which end no epoch of the two blocks.  Returns the final
    iterate, the trace rows, f(x0), the final residual norm and what a
    full-residual `solve` reports beside them, for comparison with the
    fused `solve`."""
    fid, gamma = desk.fidelity, config.gamma
    active = [i for i in (1, 2) if dens[i - 1] is not None]
    radii = [config.ball_radius * np.linalg.norm(x0.block(i)) for i in (1, 2)]
    nan = float("nan")

    def residual_norm(x, k):
        grad, out = fid.grad(x), np.zeros(x.layout.total)
        for i in active:
            di = apply_denoiser(dens[i - 1], x.block(i) - gamma * grad.block(i), k)
            out[x.layout.block_slice(i)] = (x.block(i) - di) / gamma
        return float(np.linalg.norm(out))

    x = x0
    rows = []
    left_ball = False
    reason = "max-iters"
    # each active block's latest step relative to its norm; inf until it moves
    rel_steps = dict.fromkeys(active, np.inf)
    for k in range(start_iter, config.max_iters + 1):
        g_norm2 = residual_norm(x, k) ** 2
        i_k = config.schedule.next_index(k) if len(active) == 2 else active[0]
        x_new = _block_update(fid, dens, gamma, x, i_k, k)
        step_norm = float(np.linalg.norm(x_new.data - x.data))
        f, g, h = (nan,) * 3 if objective is None else objective.value(x_new)
        rows.append([
            k, i_k, f, g, h, g_norm2, step_norm,
            max(error_magnitude(dens[i - 1], k) for i in active),
            nan if objective is None or k % 2 else objective.grad(x_new).norm() ** 2,
            *(nan if truth is None else rmse(x_new.block(i), truth.block(i)) for i in (1, 2)),
        ])
        left_ball = left_ball or any(
            np.linalg.norm(x_new.block(i)) > radii[i - 1] for i in (1, 2))
        block_norm = float(np.linalg.norm(x_new.block(i_k)))
        rel_steps[i_k] = step_norm / block_norm if block_norm > 0 else step_norm
        x = x_new
        if all(rel_steps[i] < config.stop_tol for i in active):
            reason = "tolerance"
            break
    return SimpleNamespace(
        x=x, rows=np.array(rows), f_initial=nan if objective is None else objective.value(x0)[0],
        g_final=residual_norm(x, k + 1), reason=reason, left_ball=left_ball,
        denoiser_calls=[0 if d is None else len(rows) + 1 for d in dens],
        gradient_evals=len(rows) + 1,
    )


def _trace_columns(trace):
    """The trace's per-iteration fields in the reference's row order."""
    return [trace.iters, trace.block, trace.f, trace.g, trace.h, trace.g_norm2,
            trace.step_norm, trace.eps, trace.grad_f_norm2, trace.rmse[:, 0], trace.rmse[:, 1]]


def _assert_matches_reference(res, ref, full_residual=True):
    """Every trace column and every SolveResult field of `res` is bitwise
    the reference's; a lean solve's Gnorm2 rows 2 and on are NaN, and its
    denoiser counts are not compared."""
    want = ref.rows.copy()
    if not full_residual:
        want[1:, 5] = np.nan
    assert len(res.trace) == len(ref.rows)
    for j, col in enumerate(_trace_columns(res.trace)):
        assert np.asarray(col, dtype=float).tobytes() == want[:, j].tobytes(), j
    assert np.float64(res.trace.f_initial).tobytes() == np.float64(ref.f_initial).tobytes()
    assert res.x.data.tobytes() == ref.x.data.tobytes()
    assert np.float64(res.g_norm_final).tobytes() == np.float64(ref.g_final).tobytes()
    assert res.gradient_evals == ref.gradient_evals
    assert res.left_ball == ref.left_ball
    assert res.reason == ref.reason
    if full_residual:
        assert res.denoiser_calls == ref.denoiser_calls


class _CountingFidelity:
    """Delegates to a fidelity and records the block each gradient
    evaluation computes, None for all of them (with or without the value)."""

    def __init__(self, inner):
        self.inner = inner
        self.grad_blocks = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    @property
    def grad_calls(self):
        return len(self.grad_blocks)

    def grad(self, x, out=None):
        self.grad_blocks.append(None)
        return self.inner.grad(x, out=out)

    def grad_block(self, x, i, out=None):
        self.grad_blocks.append(i)
        return self.inner.grad_block(x, i, out=out)

    def value_and_grad(self, x, out=None):
        self.grad_blocks.append(None)
        return self.inner.value_and_grad(x, out=out)


class _CountingDenoiser:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def apply(self, z, k=1):
        self.calls += 1
        return self.inner.apply(z, k)


class _NanFromIteration:
    def __init__(self, inner, k):
        self.inner, self.k = inner, k

    def apply(self, z, k=1):
        out = self.inner.apply(z, k)
        return np.full_like(out, np.nan) if k >= self.k else out


class TestFusedIteration:
    @pytest.mark.parametrize("schedule", ["sequential", "random-iid"])
    @pytest.mark.parametrize("mode", ["bc-pnp", "pnp-ista", "pnp-gd-theta", "pnp-oracle-theta"])
    def test_matches_two_pass_reference_bitwise(self, mode, schedule, shapes=((8, 8), (3, 3))):
        """With the full residual every column is the reference's.  A lean
        solve differs only in Gnorm2 rows 2 and on, which are NaN when two
        blocks are active."""
        desk = blind_desk_problem(image_shape=shapes[0], kernel_shape=shapes[1])
        objective = ImplicitObjective(desk.fidelity, desk.denoisers("constant", 0.01, 3),
                                      desk.gamma)
        dens, x0 = _mode_solve_inputs(desk, mode, desk.denoisers("constant", 0.01, 3))
        cfg = dataclasses.replace(
            desk.config, max_iters=40, schedule=BlockSchedule(schedule, 2, seed=4)
        )
        ref = _two_pass_reference(desk, dens, cfg, x0, objective, desk.truth)
        num_active = sum(d is not None for d in dens)
        for full_residual in (True, False):
            res = solve(desk.fidelity, dens, cfg, x0, truth=desk.truth, objective=objective,
                        full_residual=full_residual)
            assert len(res.trace) == 40
            _assert_matches_reference(res, ref, full_residual or num_active == 1)

    @pytest.mark.parametrize("schedule", ["sequential", "random-iid"])
    @pytest.mark.parametrize("mode", ["bc-pnp", "pnp-ista", "pnp-gd-theta", "pnp-oracle-theta"])
    def test_matches_two_pass_reference_bitwise_at_15x7(self, mode, schedule):
        """The same at a 15x7 image and a 5x5 kernel, where the norm of a
        block slice can differ in its last bit from the norm of the whole
        vector that is zero off the block: the step norm is the latter."""
        self.test_matches_two_pass_reference_bitwise(mode, schedule, ((15, 7), (5, 5)))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("inexact", [False, True])
    def test_theorem2_seed_solve_matches_two_pass_reference_bitwise(self, seed, inexact):
        """An ensemble seed's solve: random-iid, the full residual, no
        objective and no truth, with exact denoisers (as the shipped
        configs build them) or inexact ones."""
        desk = blind_desk_problem()
        dens = desk.denoisers("constant", 0.01, 3)
        if not inexact:
            dens = [d.base for d in dens]
        cfg = dataclasses.replace(
            desk.config, max_iters=60, schedule=BlockSchedule("random-iid", 2, seed=seed)
        )
        ref = _two_pass_reference(desk, dens, cfg, desk.x0)
        res = solve(desk.fidelity, dens, cfg, desk.x0, full_residual=True)
        assert len(res.trace) == 60
        _assert_matches_reference(res, ref)

    @pytest.mark.parametrize("with_objective", [False, True])
    @pytest.mark.parametrize("schedule", ["sequential", "random-iid"])
    def test_continued_solve_matches_two_pass_reference_bitwise(self, schedule,
                                                                with_objective):
        """A solve that starts at iteration 31 from a 30-iteration solve's
        end is the reference from there."""
        desk = blind_desk_problem()
        dens = desk.denoisers("square-summable", 0.02, 5)
        objective = ImplicitObjective(desk.fidelity, dens, desk.gamma) if with_objective else None
        cfg = dataclasses.replace(
            desk.config, max_iters=30, schedule=BlockSchedule(schedule, 2, seed=6)
        )
        start = solve(desk.fidelity, dens, cfg, desk.x0, objective=objective,
                      full_residual=True).x
        more = dataclasses.replace(cfg, max_iters=70)
        ref = _two_pass_reference(desk, dens, more, start, objective, start_iter=31)
        res = solve(desk.fidelity, dens, more, start, objective=objective, full_residual=True,
                    start_iter=31)
        assert res.trace.iters[0] == 31 and len(res.trace) == 40
        _assert_matches_reference(res, ref)

    @pytest.mark.parametrize("stop_tol, ball_radius, reason, left_ball", [
        (1e-3, 1.0, "tolerance", True),
        (1e-300, 2.0, "max-iters", False),
    ])
    def test_stop_and_ball_match_two_pass_reference(self, stop_tol, ball_radius, reason,
                                                    left_ball):
        """The stopping rule, the reason and the ball flag, on a seed solve
        that stops on tolerance (at k = 84) and leaves its ball, and on one
        that runs to the cap inside it."""
        desk = blind_desk_problem()
        dens = [d.base for d in desk.denoisers()]
        cfg = dataclasses.replace(desk.config, max_iters=120, stop_tol=stop_tol,
                                  ball_radius=ball_radius,
                                  schedule=BlockSchedule("random-iid", 2, seed=2))
        ref = _two_pass_reference(desk, dens, cfg, desk.x0)
        res = solve(desk.fidelity, dens, cfg, desk.x0, full_residual=True)
        _assert_matches_reference(res, ref)
        assert (res.reason, res.left_ball) == (reason, left_ball)

    @pytest.mark.parametrize("mode, num_active", [("bc-pnp", 2), ("pnp-ista", 1)])
    @pytest.mark.parametrize("with_objective", [False, True])
    def test_one_gradient_and_one_denoise_per_active_block(self, mode, num_active,
                                                           with_objective):
        """n + 1 gradients either way.  A lean solve denoises every active
        block at k = 1 and for the final residual, and block i_k alone in
        between; the full residual denoises every active block each time.
        Without an objective, a lean gradient after x0 is `grad_block` of
        the next chosen block, and so is every gradient of one active block."""
        desk = blind_desk_problem()
        n = 25
        cfg = dataclasses.replace(desk.config, max_iters=n)
        for full_residual in (False, True):
            fid = _CountingFidelity(desk.fidelity)
            dens, x0 = _mode_solve_inputs(desk, mode, desk.denoisers())
            dens = [None if d is None else _CountingDenoiser(d) for d in dens]
            objective = (ImplicitObjective(fid, desk.denoisers(), desk.gamma)
                         if with_objective else None)
            res = solve(fid, dens, cfg, x0, objective=objective,
                        full_residual=full_residual)
            assert len(res.trace) == n
            assert fid.grad_calls == res.gradient_evals == n + 1
            calls = [0 if d is None else d.calls for d in dens]
            assert res.denoiser_calls == calls
            lean = not full_residual and num_active > 1
            want = 2 * num_active + n - 1 if lean else num_active * (n + 1)
            assert sum(calls) == want
            if with_objective:
                assert fid.grad_blocks == [None] * (n + 1)
            elif lean:
                picks = [int(i) for i in res.trace.block[1:]]
                assert fid.grad_blocks == [None] + picks + [None]
            else:
                active = [i for i in (1, 2) if dens[i - 1] is not None]
                want = None if len(active) == 2 else active[0]
                assert fid.grad_blocks == [want] * (n + 1)

    def test_nonfinite_in_unchosen_block_is_caught_at_once(self):
        """A NaN from block 2's denoiser at k=1, when block 1 is the one
        updated, is reported at that iteration, not when block 2 is chosen."""
        desk = blind_desk_problem()
        dens = desk.denoisers()
        dens[1] = _NanFromIteration(dens[1], 1)
        cfg = dataclasses.replace(desk.config, max_iters=5)
        with pytest.raises(NonFiniteIterateError, match="block 2 at iteration 1$"):
            solve(desk.fidelity, dens, cfg, desk.x0)

    @pytest.mark.parametrize("max_iters, full_residual, caught_at", [
        (5, True, 3),  # block 2 is denoised at every iteration
        (5, False, 4),  # block 2 is next chosen at k = 4
        (3, False, 4),  # the final residual, at k = n + 1
    ])
    def test_nonfinite_in_unchosen_block_is_caught_when_denoised(self, max_iters,
                                                                 full_residual, caught_at):
        """Block 2's denoiser returns NaN from k = 3 on, where the
        sequential schedule picks block 1."""
        desk = blind_desk_problem()
        dens = desk.denoisers()
        dens[1] = _NanFromIteration(dens[1], 3)
        cfg = dataclasses.replace(desk.config, max_iters=max_iters)
        with pytest.raises(NonFiniteIterateError, match=f"block 2 at iteration {caught_at}$"):
            solve(desk.fidelity, dens, cfg, desk.x0,
                  full_residual=full_residual)


_TRACE_FIELDS = ("iters", "block", "f", "g", "h", "g_norm2", "step_norm", "eps", "rmse",
                 "grad_f_norm2", "f_initial")


def _trace_bytes(trace):
    return [np.asarray(getattr(trace, name)).tobytes() for name in _TRACE_FIELDS]


class TestTraceColumns:
    """A solve fills the trace's columns in place; what it hands back is
    its own, whatever the columns' first size."""

    def test_frozen_trace_is_unchanged_by_the_next_solve(self):
        desk = blind_desk_problem()
        dens = desk.denoisers("constant", 0.01, 3)
        objective = ImplicitObjective(desk.fidelity, dens, desk.gamma)
        cfg = dataclasses.replace(desk.config, max_iters=30,
                                  schedule=BlockSchedule("random-iid", 2, seed=1))
        first = solve(desk.fidelity, dens, cfg, desk.x0, truth=desk.truth, objective=objective,
                      full_residual=True)
        before, x = _trace_bytes(first.trace), first.x.data.tobytes()
        for seed in (2, 3):
            solve(desk.fidelity, dens,
                  dataclasses.replace(cfg, schedule=BlockSchedule("random-iid", 2, seed=seed)),
                  desk.x0, truth=desk.truth, objective=objective, full_residual=seed == 2)
        assert _trace_bytes(first.trace) == before
        assert first.x.data.tobytes() == x

    @pytest.mark.parametrize("with_objective", [False, True])
    def test_columns_that_grow_give_the_same_trace(self, monkeypatch, with_objective):
        """Columns that start at 4 rows and double as the solve runs hold
        the rows that columns made at full size do."""
        desk = blind_desk_problem()
        dens = desk.denoisers("square-summable", 0.02, 5)
        objective = ImplicitObjective(desk.fidelity, dens, desk.gamma) if with_objective else None
        cfg = dataclasses.replace(desk.config, max_iters=37)

        def run():
            return solve(desk.fidelity, dens, cfg, desk.x0, truth=desk.truth,
                         objective=objective).trace

        whole = run()
        monkeypatch.setattr(theory, "_TRACE_ROWS", 4)
        grown = run()
        assert len(grown) == 37
        assert _trace_bytes(grown) == _trace_bytes(whole)

    def test_builder_rows_and_growth(self):
        """`append` writes the fields it is given, grows the columns when
        they are full, and leaves the other floats NaN; `freeze` cuts the
        columns to the rows written, in arrays of their own."""
        builder = theory.TraceBuilder(2, rows=1)
        for k in range(1, 6):
            builder.append(iters=k, block=1 + k % 2, step_norm=0.5 * k, eps=0.0,
                           rmse=[k, -k])
        trace = builder.freeze()
        assert len(trace) == 5 and trace.iters.tolist() == [1, 2, 3, 4, 5]
        assert trace.block.tolist() == [2, 1, 2, 1, 2]
        assert trace.rmse.shape == (5, 2) and trace.rmse[:, 1].tolist() == [-1, -2, -3, -4, -5]
        assert np.isnan(trace.f).all() and np.isnan(trace.g_norm2).all()
        assert np.isnan(trace.f_initial)
        assert all(not np.shares_memory(getattr(trace, name), column)
                   for name, column in builder.columns.items())
        empty = theory.TraceBuilder(3).freeze()
        assert len(empty) == 0 and empty.rmse.shape == (0, 3)


class _OneEntryFrom:
    """Delegates to a denoiser; from iteration k on, the output's entry
    `index` (or, with index None, every entry) is `value`."""

    def __init__(self, inner, k, value, index=None):
        self.inner, self.k, self.value, self.index = inner, k, value, index

    def apply(self, z, k=1):
        out = self.inner.apply(z, k)
        if k >= self.k:
            out[slice(None) if self.index is None else self.index] = self.value
        return out


class TestFiniteCheck:
    """The denoised-block check tests a sum of squares first; a sum that is
    not finite is checked entry by entry, so the same blocks raise at the
    same iterations, and only them."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [0, -1, 17])
    def test_one_non_finite_entry_is_named(self, value, index):
        desk = blind_desk_problem()
        dens = desk.denoisers()
        dens[1] = _OneEntryFrom(dens[1], 2, value, index % desk.fidelity.layout.sizes[1])
        cfg = dataclasses.replace(desk.config, max_iters=5)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(NonFiniteIterateError,
                               match="^non-finite values in block 2 at iteration 2$"):
                solve(desk.fidelity, dens, cfg, desk.x0,
                      full_residual=True)

    def test_squares_that_overflow_do_not_raise(self):
        """Entries of 1e200 are finite, though their squares are not."""
        desk = blind_desk_problem()
        dens = desk.denoisers()
        dens[1] = _OneEntryFrom(dens[1], 1, 1e200)
        with np.errstate(over="ignore"):
            r = g_operator(desk.fidelity, dens, desk.gamma, desk.x0)
        assert np.isfinite(r.block(2)).all()
        assert np.array_equal(r.block(2), (desk.x0.block(2) - 1e200) / desk.gamma)


class _NanObjectiveAt:
    """Delegates to an objective; one quantity is NaN at iteration k (the
    objective's value is evaluated once at x0, then once per iteration, and
    its gradient after the value on the rows that end an epoch)."""

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
        if self.value_calls == self.k + 1 and self.quantity == "||grad f||^2":
            return BlockVector(out.layout, np.full(out.layout.total, np.nan))
        return out


class TestNonFiniteObjective:
    @pytest.mark.parametrize("quantity", ["f", "g", "h"])
    def test_nan_at_iteration_3_is_named(self, quantity):
        desk = blind_desk_problem()
        objective = _NanObjectiveAt(desk.objective, 3, quantity)
        cfg = dataclasses.replace(desk.config, max_iters=10)
        match = f"non-finite objective {re.escape(quantity)} at iteration 3$"
        with pytest.raises(NonFiniteIterateError, match=match):
            solve(desk.fidelity, desk.denoisers(), cfg, desk.x0, objective=objective)

    def test_nan_gradient_at_iteration_4_is_named(self):
        """||grad f||^2 is taken on the rows that end an epoch: with two
        blocks, at k = 2, 4, ...; a NaN at k = 4 is named there."""
        desk = blind_desk_problem()
        objective = _NanObjectiveAt(desk.objective, 4, "||grad f||^2")
        cfg = dataclasses.replace(desk.config, max_iters=10)
        with pytest.raises(NonFiniteIterateError,
                           match=r"non-finite objective \|\|grad f\|\|\^2 at iteration 4$"):
            solve(desk.fidelity, desk.denoisers(), cfg, desk.x0, objective=objective)
        assert objective.grad_calls == 2

    def test_nan_at_the_start_is_iteration_0(self):
        desk = blind_desk_problem()
        objective = _NanObjectiveAt(desk.objective, 0, "f")
        with pytest.raises(NonFiniteIterateError, match="objective f at iteration 0$"):
            solve(desk.fidelity, desk.denoisers(), desk.config, desk.x0, objective=objective)

    def test_the_start_records_f_without_a_gradient(self):
        """f(x0) is the start's only use of the objective: n iterations over
        b blocks take n + 1 values and n / b gradients, one per epoch."""
        desk = blind_desk_problem()
        counting = _NanObjectiveAt(desk.objective, -1, None)
        res = solve(desk.fidelity, desk.denoisers(),
                    dataclasses.replace(desk.config, max_iters=10), desk.x0, objective=counting)
        assert (counting.value_calls, counting.grad_calls) == (11, 10 // 2)
        epoch_ends = res.trace.iters % 2 == 0
        assert np.isfinite(res.trace.grad_f_norm2[epoch_ends]).all()
        assert np.isnan(res.trace.grad_f_norm2[~epoch_ends]).all()


class TestContinuation:
    """A solve from `result.x` with `start_iter = len(result.trace) + 1`
    continues `result`'s solve."""

    @pytest.mark.parametrize("kind", ["sequential", "epoch-shuffle", "random-iid"])
    @pytest.mark.parametrize("with_objective", [True, False], ids=["objective", "lean"])
    def test_continuation_is_the_longer_solve(self, kind, with_objective):
        desk = blind_desk_problem()
        dens = desk.denoisers("constant", 0.01, 7)
        objective = ImplicitObjective(desk.fidelity, dens, desk.gamma) if with_objective else None
        cfg = dataclasses.replace(desk.config, schedule=BlockSchedule(kind, 2, seed=5))
        short = solve(desk.fidelity, dens, dataclasses.replace(cfg, max_iters=15), desk.x0,
                      objective=objective)
        cfg = dataclasses.replace(cfg, max_iters=40)
        more = solve(desk.fidelity, dens, cfg, short.x, objective=objective, start_iter=16)
        whole = solve(desk.fidelity, dens, cfg, desk.x0, objective=objective)
        assert more.x.data.tobytes() == whole.x.data.tobytes()
        assert more.trace.iters.tolist() == list(range(16, 41))
        for name in ("block", "f", "g", "h", "step_norm", "eps", "grad_f_norm2"):
            assert getattr(more.trace, name).tobytes() == getattr(whole.trace, name)[15:].tobytes()
        assert more.g_norm_final == whole.g_norm_final
        # its first row logs ||G|| at its start, which a lean whole solve skips
        assert np.isfinite(more.trace.g_norm2[0])

    @pytest.mark.parametrize("start_iter", [0, 41])
    def test_start_outside_the_cap_is_refused(self, start_iter):
        desk = blind_desk_problem()
        cfg = dataclasses.replace(desk.config, max_iters=40)
        with pytest.raises(ValueError, match="start_iter"):
            solve(desk.fidelity, desk.denoisers(), cfg, desk.x0, start_iter=start_iter)


class TestWorkArrays:
    """`solve` computes in arrays it makes once per solve: one iterate,
    updated in place, a gradient and a step."""

    def test_result_is_not_written_by_later_solves(self):
        desk = blind_desk_problem()
        dens = desk.denoisers()
        cfg = dataclasses.replace(desk.config, max_iters=15)
        short = solve(desk.fidelity, dens, cfg, desk.x0, truth=desk.truth)
        before = short.x.data.tobytes()
        longer = dataclasses.replace(cfg, max_iters=40)
        solve(desk.fidelity, dens, longer, short.x, truth=desk.truth, start_iter=16)
        solve(desk.fidelity, dens, cfg, desk.x0, truth=desk.truth)
        assert short.x.data.tobytes() == before

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="ru_minflt counts minor page faults on Linux")
    def test_warm_iteration_faults_no_pages_in(self):
        """A warm 64x64, 4-coil bc-pnp solve takes fewer than 8 minor page
        faults per iteration, its own work arrays included.  An iteration
        that allocates and frees block-sized temporaries takes over 50, as
        glibc hands their pages back to the kernel in between.  It runs in
        a fresh interpreter, whose heap no other test has grown."""
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([str(Path(bcpnp.__file__).parents[1]),
                                               str(Path(__file__).parent)]))
        run = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        iterations, faults = map(int, run.stdout.split())
        assert iterations == 100
        assert faults / iterations < 8

    def test_warm_solve_peak_is_under_eight_and_a_half_iterates(self):
        """The traced peak of a warm 64x64, 4-coil bc-pnp solve stays below
        8.5 arrays of the layout's size (320 KiB each): 8.05 with one
        iterate updated in place, 9.05 with two used in turn."""
        scope = {}
        exec(_WARM_COIL_SOLVE, scope)
        fid, x0, truth = scope["fid"], scope["x0"], scope["prob"].truth
        tracemalloc.start()
        try:
            result = solve(fid, scope["dens"], scope["cfg"], x0, truth=truth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.trace) == 100
        assert peak / (8 * fid.layout.total) < 8.5


# a 64x64, 4-coil bc-pnp solve of 100 iterations, run once to warm up
_WARM_COIL_SOLVE = """
import dataclasses
import numpy as np
from bcpnp import (BlockSchedule, GaussianPrior, MmseDenoiser, SolverConfig, initialize,
                   resolve_gamma, solve)
from desk_problems import coil_problem

prob = coil_problem((64, 64), 4, seed=210)
fid = prob.fidelity
x0 = initialize(fid, 1.1 * prob.truth.block(2))
n1, n2 = fid.layout.sizes
dens = [MmseDenoiser(GaussianPrior(np.zeros(n1), 1.0), 0.1),
        MmseDenoiser(GaussianPrior(np.zeros(n2), 25.0), 0.02)]
cfg = SolverConfig(BlockSchedule("epoch-shuffle", 2, seed=1), max_iters=100, stop_tol=1e-12,
                   ball_radius=3.0)
cfg = dataclasses.replace(cfg, gamma=resolve_gamma(fid, x0, cfg)[0])
solve(fid, dens, cfg, x0, truth=prob.truth)
"""

_FAULTS_SCRIPT = _WARM_COIL_SOLVE + """
import resource
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
result = solve(fid, dens, cfg, x0, truth=prob.truth)
print(len(result.trace), resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


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
            z = x.extract(i_k) - desk.gamma * desk.fidelity.grad_block(x, i_k).block(i_k)
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
