"""Objective evaluation, bound constants, checkers, and quality metrics."""

import dataclasses

import numpy as np
import pytest

from bcpnp import (
    BlockSchedule,
    BlockVector,
    GaussianPrior,
    GmmPrior,
    ImplicitObjective,
    IterateTrace,
    MmseDenoiser,
    TheoryConstants,
    UnsupportedPriorError,
    check_descent,
    check_theorem1,
    check_theorem2,
    estimate_block_lipschitz,
    reference_f_star,
    rmse,
    solve,
    ssim,
)
from bcpnp.theory import DESCENT_SLACK, TraceBuilder

from desk_problems import (
    blind_desk_problem,
    quadratic_minimizer,
    quadratic_problem,
)


class TestTheoryConstants:
    def test_hand_computation_setting_one(self):
        """gamma=0.1, b=2, l_max=5, l=6, m_max=3 worked out by hand."""
        c = TheoryConstants.from_problem(0.1, 2, 5.0, 6.0, 3.0)
        assert c.alpha == pytest.approx(2.0)
        assert c.lam == pytest.approx(2.0 * 5 + 3)  # 13
        assert c.a1 == pytest.approx(2.0 * 5 + 2 * 6)  # 22
        assert c.a2 == pytest.approx(22 + 6 + 3)  # 31
        assert c.b1 == pytest.approx(4 * 22**2 / (1.0 * 5))  # 387.2
        assert c.b2 == pytest.approx(2 * 2 * 31**2 + 13 * 22**2)  # 10136
        assert c.c1 == pytest.approx(387.2)
        assert c.c2 == pytest.approx(2 * 10136)
        assert c.theta_rand == pytest.approx(1.0 / (2 * 4 * 2 * 5))  # 1/80
        assert c.d1 == pytest.approx(80.0)
        assert c.d2 == pytest.approx(13 * 80 / 2)  # 520

    def test_hand_computation_setting_two(self):
        """gamma=0.05, b=3, l_max=4, l=10, m_max=0.5."""
        c = TheoryConstants.from_problem(0.05, 3, 4.0, 10.0, 0.5)
        assert c.alpha == pytest.approx(5.0)
        assert c.lam == pytest.approx(20.5)
        assert c.a1 == pytest.approx(20 + 30)  # 50
        assert c.a2 == pytest.approx(50 + 10.5)  # 60.5
        assert c.b1 == pytest.approx(4 * 2500 / (4 * 4))  # 625
        assert c.b2 == pytest.approx(6 * 60.5**2 + 20.5 * 2500)
        assert c.c2 == pytest.approx(3 * c.b2)
        assert c.theta_rand == pytest.approx(4 / (2 * 25 * 3 * 4))
        assert c.d1 == pytest.approx(1 / c.theta_rand)
        assert c.d2 == pytest.approx(c.lam / (2 * c.theta_rand))

    def test_positivity_whenever_step_rule_holds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            l_max = float(rng.uniform(0.5, 50))
            gamma = float(rng.uniform(0.05, 0.99)) / l_max
            c = TheoryConstants.from_problem(
                gamma, int(rng.integers(1, 5)), l_max,
                l_max * float(rng.uniform(1.0, 3.0)), float(rng.uniform(0, 10)),
            )
            for name in ("lam", "a1", "a2", "b1", "b2", "c1", "c2",
                         "theta_rand", "d1", "d2"):
                assert getattr(c, name) > 0
            assert c.alpha > 1

    def test_step_rule_violation_rejected(self):
        with pytest.raises(ValueError):
            TheoryConstants.from_problem(0.5, 2, 4.0, 5.0, 1.0)

    def test_certificate_without_full_constant_rejected(self):
        """A block-only certificate has l_full None; the bounds need it."""
        desk = blind_desk_problem()
        lip = estimate_block_lipschitz(desk.fidelity, desk.x0, desk.config.ball_radius)
        assert lip.l_full is None
        with pytest.raises(ValueError, match="l_full"):
            TheoryConstants.from_problem(desk.gamma, 2, lip.l_max, lip.l_full, 1.0)


class TestImplicitObjectiveEvaluation:
    def test_vanishing_regularization_limit(self):
        """As the denoiser strength goes to zero, f collapses onto g."""
        prob = quadratic_problem()
        x = BlockVector(prob.layout, np.ones(prob.layout.total))
        dens = [MmseDenoiser(p, 1e-4) for p in prob.priors]
        obj = ImplicitObjective(prob.fidelity, dens, 0.1)
        f, g, h = obj.value(x)
        assert abs(h) < 1e-4
        assert abs(f - g) < 1e-4
        grad_h = obj.grad(x).data - prob.fidelity.grad(x).data
        assert np.linalg.norm(grad_h) < 1e-4

    def test_gradient_matches_finite_differences(self):
        prob = quadratic_problem()
        dens = [MmseDenoiser(p, s) for p, s in zip(prob.priors, prob.sigmas)]
        obj = ImplicitObjective(prob.fidelity, dens, 0.07)
        rng = np.random.default_rng(5)
        for _ in range(3):
            x = BlockVector(prob.layout, rng.standard_normal(prob.layout.total))
            grad = obj.grad(x).data
            fd = np.zeros_like(grad)
            for j in range(fd.size):
                e = np.zeros_like(fd)
                e[j] = 1e-6
                fp = obj.value(BlockVector(prob.layout, x.data + e))[0]
                fm = obj.value(BlockVector(prob.layout, x.data - e))[0]
                fd[j] = (fp - fm) / 2e-6
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)

    def test_zero_gradient_at_joint_prior_mean_with_zero_residual(self):
        """When the prior means reproduce the data exactly, both the
        fidelity and regularizer gradients vanish there."""
        from bcpnp import (
            BlindConvolutionModel,
            ConvolutionFidelity,
            synthesize,
        )

        rng = np.random.default_rng(6)
        model = BlindConvolutionModel((6, 6), (3, 3))
        mu_v = rng.random(36)
        mu_t = rng.random(9)
        y = synthesize(model, mu_v, mu_t, 0.0, seed=0)
        fid = ConvolutionFidelity(model, y)
        dens = [
            MmseDenoiser(GaussianPrior(mu_v, 0.5), 0.3),
            MmseDenoiser(GaussianPrior(mu_t, 0.1), 0.1),
        ]
        x = BlockVector.from_blocks([mu_v, mu_t])
        grad = ImplicitObjective(fid, dens, 0.05).grad(x)
        assert grad.norm() < 1e-12

    def test_gradient_norm_small_at_quadratic_minimizer(self):
        prob = quadratic_problem()
        gamma = 0.05
        dens = [MmseDenoiser(p, s) for p, s in zip(prob.priors, prob.sigmas)]
        xstar = quadratic_minimizer(prob, gamma)
        grad = ImplicitObjective(prob.fidelity, dens, gamma).grad(BlockVector(prob.layout, xstar))
        assert grad.norm() <= 1e-6

    def test_objective_above_grid_minimum(self):
        """Brute-force grid search lower-bounds f on a 2-D toy problem."""
        from bcpnp import LinearFidelity, LinearModel
        from bcpnp.blocks import BlockLayout

        A = np.array([[1.0, 0.4], [-0.3, 0.9]])
        layout = BlockLayout((1, 1))
        fid = LinearFidelity(LinearModel(A), layout, np.array([0.7, -0.2]))
        dens = [
            MmseDenoiser(GaussianPrior(np.array([0.2]), 1.0), 0.5),
            MmseDenoiser(GaussianPrior(np.array([-0.1]), 0.8), 0.4),
        ]
        obj = ImplicitObjective(fid, dens, 0.1)
        grid = np.linspace(-3, 3, 121)
        fmin = min(
            obj.value(BlockVector(layout, np.array([a, b])))[0]
            for a in grid
            for b in grid
        )
        x0 = BlockVector(layout, np.array([2.0, 2.0]))
        assert obj.value(x0)[0] >= fmin

    def test_mixture_denoiser_unsupported(self):
        prob = quadratic_problem()
        gmm = GmmPrior([1.0], [np.zeros(prob.layout.sizes[0])], [1.0])
        dens = [MmseDenoiser(gmm, 0.5), MmseDenoiser(prob.priors[1], 0.4)]
        with pytest.raises(UnsupportedPriorError):
            ImplicitObjective(prob.fidelity, dens, 0.1)


class TestDescentCheck:
    def test_desk_problem_descends(self):
        desk = blind_desk_problem()
        res = solve(
            desk.fidelity,
            desk.denoisers(),
            desk.config,
            desk.x0,
            objective=desk.objective,
        )
        report = check_descent(res.trace, desk.constants)
        assert report.passed
        assert report.num_checked == len(res.trace)
        # plain monotone decrease, exact denoisers
        fs = np.concatenate([[res.trace.f_initial], res.trace.f])
        assert np.all(np.diff(fs) <= 1e-10 * (1 + np.abs(fs[:-1])))

    def test_descent_violation_detected(self):
        n = 3
        trace = IterateTrace(
            iters=np.arange(1, n + 1),
            block=np.ones(n, dtype=int),
            f=np.array([1.0, 0.9, 2.0]),  # jump up at k=3
            g=np.zeros(n),
            h=np.zeros(n),
            g_norm2=np.zeros(n),
            step_norm=np.zeros(n),
            eps=np.zeros(n),
            rmse=np.full((n, 1), np.nan),
            grad_f_norm2=np.zeros(n),
            f_initial=1.1,
        )
        constants = TheoryConstants.from_problem(0.1, 1, 5.0, 5.0, 1.0)
        report = check_descent(trace, constants)
        assert not report.passed
        assert report.violations == [3]

    @pytest.mark.parametrize("error_kind", ["zero", "square-summable"])
    def test_matches_per_step_loop_bitwise(self, error_kind):
        """The array form does the per-step arithmetic of a loop over the
        trace rows, on a trace with raised f at every seventh row."""
        desk = blind_desk_problem()
        res = solve(
            desk.fidelity,
            desk.denoisers(error_kind, error_base=0.05),
            dataclasses.replace(desk.config, max_iters=60),
            desk.x0,
            objective=desk.objective,
        )
        f = res.trace.f.copy()
        f[::7] += 1e-3
        trace, c = dataclasses.replace(res.trace, f=f), desk.constants

        f_prev, worst, violations = trace.f_initial, -np.inf, []
        coeff = (c.alpha - 1.0) * c.l_max / 2.0
        for j in range(len(trace)):
            allowed = f_prev - coeff * trace.step_norm[j] ** 2 + 0.5 * c.lam * trace.eps[j] ** 2
            excess = trace.f[j] - allowed
            worst = max(worst, excess)
            if excess > DESCENT_SLACK * (1.0 + abs(f_prev)):
                violations.append(int(trace.iters[j]))
            f_prev = trace.f[j]

        report = check_descent(trace, c)
        assert report.worst_slack == worst
        assert report.violations == violations
        assert violations

    def test_nan_inputs_raise(self):
        """A check must not pass on values the solve did not record: an
        all-NaN f would compare false against every bound."""
        desk = blind_desk_problem()
        lean = solve(desk.fidelity, desk.denoisers(), dataclasses.replace(desk.config, max_iters=5),
                     desk.x0).trace
        with pytest.raises(ValueError, match="lacks objective values; solve with an objective"):
            check_descent(dataclasses.replace(lean, f_initial=1.0), desk.constants)
        recorded = _defect_trace(desk)
        with pytest.raises(ValueError, match="lacks objective values"):
            check_descent(dataclasses.replace(recorded, f_initial=np.nan), desk.constants)
        eps = recorded.eps.copy()
        eps[3] = np.nan
        with pytest.raises(ValueError, match="NaN step norms or errors"):
            check_descent(dataclasses.replace(recorded, eps=eps), desk.constants)

    def test_empty_trace_passes_with_nothing_checked(self):
        trace = dataclasses.replace(TraceBuilder(2).freeze(), f_initial=1.0)
        report = check_descent(trace, TheoryConstants.from_problem(0.1, 2, 5.0, 5.0, 1.0))
        assert report.passed
        assert report.num_checked == 0
        assert report.worst_slack == -np.inf
        assert report.violations == []


class TestTheorem1:
    def test_single_epoch_trace(self):
        """One complete epoch: the chain reduces to one evaluation."""
        desk = blind_desk_problem()
        res = solve(
            desk.fidelity,
            desk.denoisers(),
            dataclasses.replace(desk.config, max_iters=2),
            desk.x0,
            objective=desk.objective,
        )
        report = check_theorem1(res.trace, desk.constants, f_star=0.0)
        assert report.num_epochs == 1
        assert report.passed
        assert report.running_mean[0] == report.grad_norm2_epochs[0]

    def test_missing_f_star_gradients(self):
        desk = blind_desk_problem()
        res = solve(desk.fidelity, desk.denoisers(), dataclasses.replace(desk.config, max_iters=4), desk.x0)
        with pytest.raises(ValueError):
            check_theorem1(res.trace, desk.constants, f_star=0.0)

    def test_incomplete_epoch_rejected(self):
        desk = blind_desk_problem()
        res = solve(
            desk.fidelity,
            desk.denoisers(),
            dataclasses.replace(desk.config, max_iters=1),
            desk.x0,
            objective=desk.objective,
        )
        with pytest.raises(ValueError):
            check_theorem1(res.trace, desk.constants, f_star=0.0)

    def test_bounds_average_eps_over_complete_epochs(self):
        """Two blocks, three complete epochs and one extra row: the bound at
        epoch t averages eps^2 over the first 2t iterations."""
        n = 7
        eps = np.array([0.5, 0.25, 0.125, 0.0625, 0.3, 0.7, 0.9])
        trace = IterateTrace(
            iters=np.arange(1, n + 1),
            block=np.array([1, 2, 1, 2, 1, 2, 1]),
            f=np.zeros(n),
            g=np.zeros(n),
            h=np.zeros(n),
            g_norm2=np.zeros(n),
            step_norm=np.zeros(n),
            eps=eps,
            rmse=np.full((n, 2), np.nan),
            grad_f_norm2=np.array([9.0, 4.0, 8.0, 6.0, 7.0, 1.0, 5.0]),
            f_initial=2.0,
        )
        constants = TheoryConstants.from_problem(0.1, 2, 5.0, 5.0, 1.0)
        report = check_theorem1(trace, constants, f_star=0.5)
        want = [
            constants.c1 / t * 1.5 + constants.c2 * np.mean(eps[: 2 * t] ** 2)
            for t in (1, 2, 3)
        ]
        np.testing.assert_allclose(report.bounds, want, rtol=1e-12, atol=0)
        assert report.num_epochs == 3
        np.testing.assert_array_equal(report.grad_norm2_epochs, [4.0, 6.0, 1.0])
        np.testing.assert_allclose(report.running_mean, [4.0, 5.0, 11.0 / 3.0], rtol=1e-15)
        np.testing.assert_array_equal(report.running_min, [4.0, 4.0, 1.0])
        assert report.passed


class TestTheorem2:
    def test_small_ensemble_rejected(self):
        desk = blind_desk_problem()
        res = solve(
            desk.fidelity,
            desk.denoisers(),
            dataclasses.replace(desk.config, max_iters=3),
            desk.x0,
            objective=desk.objective,
        )
        with pytest.raises(ValueError):
            check_theorem2([res.trace] * 5, desk.constants, 0.0)

    def test_nan_inputs_raise(self):
        """A lean two-block solve logs NaN residual norms after row 1; the
        check names the cause instead of passing on them."""
        desk = blind_desk_problem()

        def ensemble(full_residual, **changes):
            return [
                dataclasses.replace(_defect_trace(
                    desk, schedule=BlockSchedule("random-iid", 2, seed=s),
                    full_residual=full_residual), **changes)
                for s in range(10)
            ]

        with pytest.raises(ValueError, match="residual norms; solve with full_residual=True"):
            check_theorem2(ensemble(False), desk.constants, 0.0)
        with pytest.raises(ValueError, match=r"lacks f\(x0\)"):
            check_theorem2(ensemble(True, f_initial=np.nan), desk.constants, 0.0)
        with pytest.raises(ValueError, match="NaN errors"):
            check_theorem2(ensemble(True, eps=np.full(DEFECT_ITERS, np.nan)), desk.constants, 0.0)
        assert check_theorem2(ensemble(True), desk.constants, -1e9).passed

    def test_degenerate_single_block_schedule(self):
        """With one block the i.i.d. schedule is deterministic; the bound
        still holds along the resulting trace."""
        from desk_problems import fixed_operator_deconvolution
        from bcpnp import SolverConfig

        prob = fixed_operator_deconvolution()
        prior = GaussianPrior(np.full(64, 0.5), 0.25)
        dens = [MmseDenoiser(prior, 0.25)]
        config = SolverConfig(
            schedule=BlockSchedule("random-iid", 1, seed=3),
            gamma=None,
            max_iters=100,
            stop_tol=1e-300,
            ball_radius=1.0,
        )
        from bcpnp import resolve_gamma, with_full_constant

        x0 = BlockVector(prob.fidelity.layout, prob.y)
        gamma, lip = resolve_gamma(prob.fidelity, x0, config)
        lip = with_full_constant(prob.fidelity, x0, lip, config.ball_radius)
        config = dataclasses.replace(config, gamma=gamma)
        obj = ImplicitObjective(prob.fidelity, dens, gamma)
        constants = TheoryConstants.from_problem(gamma, 1, lip.l_max, lip.l_full, obj.m_max())
        traces = [
            solve(prob.fidelity, dens, config, x0, objective=obj, full_residual=True).trace
            for _ in range(10)
        ]
        fstar = reference_f_star(traces[0])
        report = check_theorem2(traces, constants, fstar)
        assert report.passed


DEFECT_ITERS = 100  # length of each trace the seeded-defect checks read


@pytest.fixture(scope="module")
def defect_desk():
    """The blind desk problem with f* from a 300-iteration reference run."""
    desk = blind_desk_problem()
    ref = solve(desk.fidelity, desk.denoisers(), desk.config, desk.x0, objective=desk.objective)
    desk.f_star = reference_f_star(ref.trace)
    return desk


def _defect_trace(desk, objective=None, schedule=None, full_residual=False):
    config = dataclasses.replace(desk.config, max_iters=DEFECT_ITERS,
                                 schedule=schedule or desk.config.schedule)
    return solve(desk.fidelity, desk.denoisers(), config, desk.x0,
                 objective=objective or desk.objective,
                 full_residual=full_residual).trace


@pytest.mark.parametrize("defect", [False, True], ids=["exact", "seeded-defect"])
class TestSeededDefects:
    """Each check fails on a seeded defect in the inputs `solve` gives it,
    and passes on the same inputs without the defect."""

    def test_descent_mismatched_sigma(self, defect_desk, defect):
        """The objective is built with the image block's sigma times 0.1;
        the solver's denoisers are unchanged."""
        desk = defect_desk
        (prior_v, prior_t), (sig_v, sig_t) = desk.priors, desk.sigmas
        scale = 0.1 if defect else 1.0
        dens = [MmseDenoiser(prior_v, scale * sig_v), MmseDenoiser(prior_t, sig_t)]
        objective = ImplicitObjective(desk.fidelity, dens, desk.gamma)
        report = check_descent(_defect_trace(desk, objective), desk.constants)
        assert report.passed == (not defect)
        assert report.num_checked == DEFECT_ITERS
        assert bool(report.violations) == defect

    def test_theorem1_raised_f_star(self, defect_desk, defect):
        """f* raised to f(x0) makes the gap, and with exact denoisers the
        bound, zero."""
        trace = _defect_trace(defect_desk)
        f_star = trace.f_initial if defect else defect_desk.f_star
        report = check_theorem1(trace, defect_desk.constants, f_star)
        assert report.passed == (not defect)
        assert np.all(report.bounds == 0) == defect
        assert report.num_epochs == DEFECT_ITERS // 2

    def test_theorem2_raised_f_star(self, defect_desk, defect):
        traces = [
            _defect_trace(defect_desk, schedule=BlockSchedule("random-iid", 2, seed=s),
                          full_residual=True)
            for s in range(10)
        ]
        f_star = traces[0].f_initial if defect else defect_desk.f_star
        report = check_theorem2(traces, defect_desk.constants, f_star)
        assert report.passed == (not defect)
        # the seed-averaged f(x0) rounds, so the bound is near zero, not zero
        assert np.all(report.bounds < report.avg_running_mean) == defect
        assert report.num_iters == DEFECT_ITERS


class TestReferenceFStar:
    def test_below_running_minimum(self):
        desk = blind_desk_problem()
        res = solve(
            desk.fidelity,
            desk.denoisers(),
            dataclasses.replace(desk.config, max_iters=50),
            desk.x0,
            objective=desk.objective,
        )
        fstar = reference_f_star(res.trace)
        assert fstar < np.min(res.trace.f)


class TestMetrics:
    def test_rmse_identities(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal(30)
        assert rmse(z, z) == 0.0
        assert rmse(2 * z, z) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            rmse(z, np.zeros(30))

    def test_ssim_identity(self):
        rng = np.random.default_rng(10)
        img = rng.random((32, 32))
        assert ssim(img, img) == pytest.approx(1.0)

    def test_ssim_matches_direct_window_sums(self):
        """64x64 ramp vs noisy copy: explicit per-window loops agree."""
        rng = np.random.default_rng(11)
        truth = np.tile(np.linspace(0, 1, 64), (64, 1))
        noisy = truth + 0.1 * rng.standard_normal((64, 64))

        size, sigma = 11, 1.5
        coords = np.arange(size) - (size - 1) / 2.0
        g = np.exp(-(coords**2) / (2 * sigma**2))
        kern = np.outer(g, g)
        kern /= kern.sum()
        c1, c2 = 0.01**2, 0.03**2
        vals = []
        for i in range(64 - size + 1):
            for j in range(64 - size + 1):
                a = noisy[i : i + size, j : j + size]
                b = truth[i : i + size, j : j + size]
                mu_a = np.sum(kern * a)
                mu_b = np.sum(kern * b)
                va = np.sum(kern * a * a) - mu_a**2
                vb = np.sum(kern * b * b) - mu_b**2
                cov = np.sum(kern * a * b) - mu_a * mu_b
                vals.append(
                    (2 * mu_a * mu_b + c1)
                    * (2 * cov + c2)
                    / ((mu_a**2 + mu_b**2 + c1) * (va + vb + c2))
                )
        expected = np.mean(vals)
        assert abs(ssim(noisy, truth) - expected) < 1e-6

    def test_ssim_shape_validation(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((8, 8)), np.zeros((8, 8)))  # smaller than window
        with pytest.raises(ValueError):
            ssim(np.zeros((16, 16)), np.zeros((16, 17)))


def hand_trace(num_blocks):
    """Two iterations of hand-picked values, -0.0, NaN and 5e-324 among
    them; blocks 1-3 have relative errors (0.5, nan), (0.25, 1e-17) and
    (9.0, 9.5)."""
    rmse_blocks = np.array([[0.5, 0.25, 9.0], [np.nan, 1e-17, 9.5]])
    return IterateTrace(
        iters=np.array([1, 2]),
        block=np.array([1, num_blocks]),
        f=np.array([0.1, -0.0]),
        g=np.array([np.nan, 1e300]),
        h=np.array([5e-324, -2.5]),
        g_norm2=np.array([3.0, 0.0]),
        step_norm=np.array([1.5e-8, np.nan]),
        eps=np.array([0.0, 0.125]),
        rmse=rmse_blocks[:, :num_blocks],
        grad_f_norm2=np.array([7.0, 8.0]),
    )


class TestTraceSerialization:
    @pytest.mark.parametrize(
        "num_blocks, rows",
        [
            (1, ["1,1,0.1,nan,5e-324,3.0,1.5e-08,0.0,0.5,nan",
                 "2,1,-0.0,1e+300,-2.5,0.0,nan,0.125,nan,nan"]),
            (2, ["1,1,0.1,nan,5e-324,3.0,1.5e-08,0.0,0.5,0.25",
                 "2,2,-0.0,1e+300,-2.5,0.0,nan,0.125,nan,1e-17"]),
            # blocks 3 and on follow the two fixed columns, as rmse_3, ...
            (3, ["1,1,0.1,nan,5e-324,3.0,1.5e-08,0.0,0.5,0.25,9.0",
                 "2,3,-0.0,1e+300,-2.5,0.0,nan,0.125,nan,1e-17,9.5"]),
        ],
    )
    def test_csv_golden_bytes(self, tmp_path, num_blocks, rows):
        path = tmp_path / "trace.csv"
        hand_trace(num_blocks).to_csv(path)
        header = "iter,block,f,g,h,Gnorm2,step_norm,eps,rmse_v,rmse_theta"
        header += "".join(f",rmse_{i}" for i in range(3, num_blocks + 1))
        assert path.read_bytes() == "".join(r + "\n" for r in [header] + rows).encode()

    def test_csv_round_trip_three_blocks(self, tmp_path):
        trace = hand_trace(3)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        back = IterateTrace.from_csv(path)
        assert back.rmse.shape == (2, 3)
        assert back.rmse.tobytes() == trace.rmse.tobytes()

    def test_csv_round_trip_one_block_bits(self, tmp_path):
        trace = hand_trace(1)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        back = IterateTrace.from_csv(path)
        for name in ("iters", "block", "f", "g", "h", "g_norm2", "step_norm", "eps"):
            assert getattr(back, name).tobytes() == getattr(trace, name).tobytes(), name
        assert back.rmse.shape == (2, 2)
        assert back.rmse[:, 0].tobytes() == trace.rmse[:, 0].tobytes()
        assert np.isnan(back.rmse[:, 1]).all() and np.isnan(back.grad_f_norm2).all()

    def test_csv_round_trip_exact(self, tmp_path):
        desk = blind_desk_problem()
        res = solve(
            desk.fidelity,
            desk.denoisers("square-summable", 0.01, 5),
            dataclasses.replace(desk.config, max_iters=20),
            desk.x0,
            truth=desk.truth,
            objective=desk.objective,
        )
        path = tmp_path / "trace.csv"
        res.trace.to_csv(path)
        back = IterateTrace.from_csv(path)
        np.testing.assert_array_equal(back.iters, res.trace.iters)
        np.testing.assert_array_equal(back.f, res.trace.f)
        np.testing.assert_array_equal(back.g_norm2, res.trace.g_norm2)
        np.testing.assert_array_equal(back.eps, res.trace.eps)
        np.testing.assert_array_equal(back.rmse, res.trace.rmse)

    def test_identical_runs_identical_bytes(self, tmp_path):
        desk = blind_desk_problem()
        paths = []
        for tag in ("a", "b"):
            res = solve(
                desk.fidelity,
                desk.denoisers("constant", 0.02, 9),
                dataclasses.replace(
                    desk.config,
                    schedule=BlockSchedule("epoch-shuffle", 2, seed=4),
                    max_iters=30,
                ),
                desk.x0,
                truth=desk.truth,
            )
            p = tmp_path / f"{tag}.csv"
            res.trace.to_csv(p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]
