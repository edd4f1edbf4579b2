"""Exact MMSE denoisers, their implicit regularizer, and plumbing denoisers.

Derived expectations come from independent oracles computed in-place:
1-D quadrature for the posterior mean, central finite differences for
scores and regularizer gradients, dense finite-difference Jacobians.
"""

import numpy as np
import pytest

from bcpnp.denoisers import (
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
    implicit_reg_lipschitz,
    implicit_reg_value,
    marginal_neg_log_density,
    mmse_denoise,
    responsibilities,
    tweedie_gradient,
)

GMM_1D = GmmPrior([0.3, 0.7], [[-2.0], [3.0]], [0.5, 1.0])


def quadrature_posterior_mean(prior, sigma, z, lo=-10.0, hi=10.0, npts=200001):
    """Trapezoid quadrature of the 1-D posterior-mean integral."""
    x = np.linspace(lo, hi, npts)
    density = np.zeros_like(x)
    for w, m, t in zip(prior.weights, prior.means[:, 0], prior.variances):
        density += w * np.exp(-((x - m) ** 2) / (2 * t)) / np.sqrt(2 * np.pi * t)
    lik = np.exp(-((z - x) ** 2) / (2 * sigma**2))
    post = density * lik
    return np.trapezoid(x * post, x) / np.trapezoid(post, x)


def fd_gradient(func, x, step=1e-5):
    grad = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        grad[j] = (func(x + e) - func(x - e)) / (2 * step)
    return grad


def random_prior(rng, dim):
    """Gaussian or 1-3 component mixture prior of the given dimension."""
    k = rng.integers(1, 4)
    if k == 1 and rng.random() < 0.5:
        return GaussianPrior(rng.standard_normal(dim), float(rng.uniform(0.2, 2.0)))
    w = rng.uniform(0.2, 1.0, k)
    return GmmPrior(
        w / w.sum(),
        rng.standard_normal((k, dim)) * 2.0,
        rng.uniform(0.2, 2.0, k),
    )


class TestMmseDenoise:
    def test_gaussian_conjugate_halving(self):
        """Standard-normal prior at noise one shrinks any input by half."""
        prior = GaussianPrior(np.zeros(4), 1.0)
        z = np.array([3.0, -1.0, 0.25, 10.0])
        np.testing.assert_allclose(mmse_denoise(prior, 1.0, z), z / 2, rtol=1e-15)

    def test_gmm_symmetry_at_zero(self):
        prior = GmmPrior([0.5, 0.5], [[1.5, -0.3], [-1.5, 0.3]], [0.7, 0.7])
        out = mmse_denoise(prior, 0.9, np.zeros(2))
        np.testing.assert_allclose(out, np.zeros(2), atol=1e-14)

    def test_gmm_matches_quadrature(self):
        """Closed form equals the quadrature oracle at scattered points."""
        for z in (-4.0, -1.0, 0.0, 1.0, 2.5, 4.0):
            expected = quadrature_posterior_mean(GMM_1D, 0.8, z)
            got = mmse_denoise(GMM_1D, 0.8, np.array([z]))[0]
            assert abs(got - expected) < 1e-6

    def test_gaussian_shrinks_toward_mean(self):
        rng = np.random.default_rng(11)
        prior = GaussianPrior(rng.standard_normal(5), 0.8)
        for _ in range(20):
            z = prior.mean + rng.standard_normal(5) * 3
            d = mmse_denoise(prior, float(rng.uniform(0.1, 2.0)), z)
            assert np.linalg.norm(d - prior.mean) <= np.linalg.norm(z - prior.mean)

    def test_responsibilities_probability_vector(self):
        rng = np.random.default_rng(12)
        prior = GmmPrior([0.2, 0.5, 0.3], rng.standard_normal((3, 2)) * 5, [0.1, 0.4, 0.2])
        for z in [np.zeros(2), np.array([1e3, -1e3]), rng.standard_normal(2)]:
            w = responsibilities(prior, 0.05, z)
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) < 1e-12

    def test_bad_inputs(self):
        prior = GaussianPrior(np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            mmse_denoise(prior, 0.0, np.zeros(2))
        with pytest.raises(ValueError):
            mmse_denoise(prior, 1.0, np.zeros(3))


class TestTweedieGradient:
    def test_gaussian_closed_form(self):
        prior = GaussianPrior(np.zeros(3), 1.0)
        z = np.array([1.0, -0.5, 2.0])
        np.testing.assert_allclose(tweedie_gradient(prior, 1.0, z), z / 2, rtol=1e-15)
        np.testing.assert_allclose(
            z - 1.0 * tweedie_gradient(prior, 1.0, z),
            mmse_denoise(prior, 1.0, z),
            rtol=1e-15,
        )

    def test_gmm_matches_finite_differences(self):
        z = np.array([1.0])
        fd = fd_gradient(lambda u: marginal_neg_log_density(GMM_1D, 0.8, u), z)
        got = tweedie_gradient(GMM_1D, 0.8, z)
        np.testing.assert_allclose(got, fd, rtol=1e-6)

    def test_gradient_vanishes_at_marginal_mode(self):
        """The noisy marginal's mode is a stationary point of its neg-log."""
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(
            lambda u: marginal_neg_log_density(GMM_1D, 0.8, np.array([u])),
            bounds=(-8, 8),
            method="bounded",
            options={"xatol": 1e-12},
        )
        grad = tweedie_gradient(GMM_1D, 0.8, np.array([res.x]))
        assert abs(grad[0]) < 1e-6

    def test_identity_with_posterior_mean(self):
        """D(z) = z - sigma^2 * score holds across random priors and dims."""
        rng = np.random.default_rng(20)
        for _ in range(20):
            dim = int(rng.integers(1, 9))
            prior = random_prior(rng, dim)
            sigma = float(rng.uniform(0.1, 2.0))
            z = rng.standard_normal(dim) * 3
            lhs = mmse_denoise(prior, sigma, z)
            rhs = z - sigma**2 * tweedie_gradient(prior, sigma, z)
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * (1 + np.linalg.norm(z))


class TestPriorClosedForms:
    def test_one_component_mixture_is_the_gaussian(self):
        """A one-component mixture has the Gaussian prior's posterior mean,
        -log p and score."""
        rng = np.random.default_rng(12)
        for _ in range(20):
            dim = int(rng.integers(1, 9))
            mean, var = rng.standard_normal(dim), float(rng.uniform(0.2, 2.0))
            gaussian, mixture = GaussianPrior(mean, var), GmmPrior([1.0], [mean], [var])
            sigma = float(rng.uniform(0.1, 2.0))
            z = rng.standard_normal(dim) * 3
            for closed_form in (mmse_denoise, marginal_neg_log_density, tweedie_gradient):
                np.testing.assert_allclose(
                    closed_form(mixture, sigma, z), closed_form(gaussian, sigma, z),
                    rtol=1e-12, atol=1e-12,
                )

    def test_scaled_prior_is_the_prior_of_scaled_x(self):
        """Scaling x, the noise and z by s scales the posterior mean by s."""
        rng = np.random.default_rng(13)
        for prior in (GaussianPrior(rng.standard_normal(3), 0.6), random_prior(rng, 3), GMM_1D):
            z, sigma, s = rng.standard_normal(prior.dim), 0.7, 2.5
            np.testing.assert_allclose(
                mmse_denoise(prior.scaled(s), s * sigma, s * z),
                s * mmse_denoise(prior, sigma, z),
                rtol=1e-12,
            )
            assert type(prior.scaled(s)) is type(prior)


class TestImplicitRegularizer:
    PRIOR = GaussianPrior(np.array([0.5, -0.25, 1.0]), 0.7)

    @pytest.mark.parametrize("sigma, gamma", [(0.5, -1.0), (0.5, 0.0), (-0.5, 1.0), (0.0, 1.0)])
    @pytest.mark.parametrize("name", ["value", "gradient", "lipschitz"])
    def test_nonpositive_sigma_or_gamma_rejected(self, name, sigma, gamma):
        """All three functions share the sigma > 0 and gamma > 0 checks."""
        prior, x = GaussianPrior(np.zeros(1), 1.0), np.array([0.3])
        call = {
            "value": lambda: implicit_reg_value(prior, sigma, gamma, x),
            "gradient": lambda: implicit_reg_gradient(prior, sigma, gamma, x),
            "lipschitz": lambda: implicit_reg_lipschitz(prior, sigma, gamma),
        }[name]
        with pytest.raises(ValueError, match="must be positive"):
            call()

    def test_lipschitz_closed_form(self):
        np.testing.assert_allclose(
            implicit_reg_lipschitz(self.PRIOR, 0.3, 0.1), 0.09 / (0.1 * 0.7), rtol=1e-15
        )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        sigma, gamma = 0.4, 0.05
        for _ in range(5):
            x = rng.standard_normal(3)
            fd = fd_gradient(
                lambda u: implicit_reg_value(self.PRIOR, sigma, gamma, u), x
            )
            got = implicit_reg_gradient(self.PRIOR, sigma, gamma, x)
            np.testing.assert_allclose(got, fd, rtol=1e-6)

    def test_value_at_prior_mean(self):
        """The affine inverse fixes the mean, killing the quadratic term."""
        sigma, gamma = 0.3, 0.1
        val = implicit_reg_value(self.PRIOR, sigma, gamma, self.PRIOR.mean)
        expected = (sigma**2 / gamma) * marginal_neg_log_density(
            self.PRIOR, sigma, self.PRIOR.mean
        )
        np.testing.assert_allclose(val, expected, rtol=1e-12)

    def test_gradient_closed_form(self):
        prior = GaussianPrior(np.zeros(2), 1.0)
        got = implicit_reg_gradient(prior, 1.0, 0.5, np.array([2.0, 0.0]))
        np.testing.assert_allclose(got, [4.0, 0.0], rtol=1e-14)
        np.testing.assert_allclose(
            implicit_reg_gradient(self.PRIOR, 0.3, 0.1, self.PRIOR.mean),
            np.zeros(3),
            atol=1e-15,
        )

    def test_denoiser_is_prox(self):
        """Gradient of 0.5||u-z||^2 + gamma*h at u = D(z) vanishes."""
        rng = np.random.default_rng(32)
        for _ in range(10):
            sigma = float(rng.uniform(0.1, 1.5))
            gamma = float(rng.uniform(0.01, 1.0))
            z = rng.standard_normal(3) * 2
            u = mmse_denoise(self.PRIOR, sigma, z)
            grad = (u - z) + gamma * implicit_reg_gradient(
                self.PRIOR, sigma, gamma, u
            )
            assert np.linalg.norm(grad) <= 1e-8

    def test_mixture_unsupported(self):
        with pytest.raises(UnsupportedPriorError):
            implicit_reg_value(GMM_1D, 0.5, 0.1, np.array([0.0]))
        with pytest.raises(UnsupportedPriorError):
            implicit_reg_gradient(GMM_1D, 0.5, 0.1, np.array([0.0]))
        with pytest.raises(UnsupportedPriorError):
            implicit_reg_lipschitz(GMM_1D, 0.5, 0.1)

    def test_mixture_gradient_via_prox_identity(self):
        """For mixtures, grad h at D(z) is reachable as (z - D(z))/gamma:
        finite differences along the denoiser's image confirm the chain."""
        sigma, gamma = 0.6, 0.2
        z = np.array([0.8])
        d = mmse_denoise(GMM_1D, sigma, z)
        chain = (z - d) / gamma
        # independently: grad h_sigma at z maps through Tweedie scaling
        expected = sigma**2 / gamma * tweedie_gradient(GMM_1D, sigma, z)
        np.testing.assert_allclose(chain, expected, rtol=1e-12)


def jacobian_spectrum_check(prior, sigma, z, step=1e-6, max_dim=64):
    """Smallest eigenvalue of the symmetrized denoiser Jacobian at z.

    The Jacobian of the posterior-mean map is positive definite for any
    non-degenerate prior; this computes it densely by central differences,
    so the dimension is capped.
    """
    z = np.asarray(z, dtype=np.float64)
    n = z.size
    if n > max_dim:
        raise ValueError(f"dense Jacobian check limited to {max_dim} dims")
    jac = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        jac[:, j] = (
            mmse_denoise(prior, sigma, z + e) - mmse_denoise(prior, sigma, z - e)
        ) / (2 * step)
    sym = 0.5 * (jac + jac.T)
    return float(np.linalg.eigvalsh(sym)[0])


class TestJacobianSpectrum:
    def test_gaussian_affine_value(self):
        prior = GaussianPrior(np.zeros(3), 1.0)
        lam = jacobian_spectrum_check(prior, 1.0, np.array([0.3, -0.2, 0.9]))
        np.testing.assert_allclose(lam, 0.5, rtol=1e-9)

    def test_gmm_positive_definite(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            z = rng.standard_normal(1) * 4
            assert jacobian_spectrum_check(GMM_1D, 0.8, z) > 0

    def test_small_noise_limit(self):
        prior = GaussianPrior(np.zeros(2), 1.0)
        lam = jacobian_spectrum_check(prior, 1e-3, np.array([0.1, 0.2]))
        assert abs(lam - 1.0) < 1e-5

    def test_dimension_cap(self):
        prior = GaussianPrior(np.zeros(65), 1.0)
        with pytest.raises(ValueError):
            jacobian_spectrum_check(prior, 1.0, np.zeros(65))


class TestPlumbingDenoisers:
    def test_identity(self):
        z = np.array([1.0, -2.0])
        np.testing.assert_array_equal(apply_denoiser(IdentityDenoiser(), z), z)

    def test_soft_threshold(self):
        out = apply_denoiser(SoftThresholdDenoiser(1.0), np.array([2.0, -0.5, -3.0]))
        np.testing.assert_array_equal(out, [1.0, 0.0, -2.0])

    def test_tv_prox_constant_image_fixed(self):
        z = np.full((6, 6), 0.37)
        out = apply_denoiser(TvProxDenoiser(0.1, (6, 6)), z.ravel())
        np.testing.assert_allclose(out, z.ravel(), atol=1e-14)

    def test_tv_prox_near_local_optimality(self):
        """Output objective beats the input and nearby perturbations."""

        def tv(u):
            gx = np.diff(u, axis=0)
            gy = np.diff(u, axis=1)
            mag = np.sqrt(
                np.pad(gx, ((0, 1), (0, 0))) ** 2 + np.pad(gy, ((0, 0), (0, 1))) ** 2
            )
            return mag.sum()

        rng = np.random.default_rng(50)
        z = rng.random((8, 8))
        lam = 0.2
        den = TvProxDenoiser(lam, (8, 8), inner_iters=400)
        u = apply_denoiser(den, z.ravel()).reshape(8, 8)

        def objective(w):
            return 0.5 * np.sum((w - z) ** 2) + lam * tv(w)

        assert objective(u) < objective(z)
        for _ in range(10):
            w = u + 1e-3 * rng.standard_normal((8, 8))
            assert objective(u) <= objective(w) + 1e-10


def _tv_prox_allocating(den, z):
    """The TV prox as first written, allocating fresh arrays each inner step;
    the reference for the buffered `TvProxDenoiser.apply`."""

    def grad(u):
        gx = np.zeros_like(u)
        gy = np.zeros_like(u)
        gx[:-1, :] = u[1:, :] - u[:-1, :]
        gy[:, :-1] = u[:, 1:] - u[:, :-1]
        return gx, gy

    def div(px, py):
        dx = np.zeros_like(px)
        dx[0, :] = px[0, :]
        dx[1:-1, :] = px[1:-1, :] - px[:-2, :]
        dx[-1, :] = -px[-2, :]
        dy = np.zeros_like(py)
        dy[:, 0] = py[:, 0]
        dy[:, 1:-1] = py[:, 1:-1] - py[:, :-2]
        dy[:, -1] = -py[:, -2]
        return dx + dy

    z = np.asarray(z, dtype=np.float64).reshape(den.shape)
    lam = den.weight
    px = np.zeros(den.shape)
    py = np.zeros(den.shape)
    for _ in range(den.inner_iters):
        gx, gy = grad(div(px, py) - z / lam)
        denom = 1.0 + TvProxDenoiser.TAU * np.sqrt(gx**2 + gy**2)
        px = (px + TvProxDenoiser.TAU * gx) / denom
        py = (py + TvProxDenoiser.TAU * gy) / denom
    return (z - lam * div(px, py)).ravel()


def _signed_zero_inputs(rng, size):
    """Images in which signed zeros reach the dual borders: all -0.0, all
    +0.0, and random ones with some entries set to +0.0 or -0.0."""
    yield np.full(size, -0.0)
    yield np.zeros(size)
    for fill in (0.0, -0.0):
        z = rng.standard_normal(size)
        z[rng.random(size) < 0.4] = fill
        yield z
    yield rng.choice([0.0, -0.0, 1.0], size=size)


@pytest.mark.parametrize(
    "shape", [(8, 8), (16, 16), (64, 64), (5, 9), (9, 2), (2, 9), (2, 2), (3, 2)]
)
@pytest.mark.parametrize("inner_iters", [0, 1, 30])
def test_tv_prox_buffers_bitwise_equal_allocating_version(shape, inner_iters):
    """Every scale, from subnormal to near overflow, where a reordered or
    folded product (tau * g / denom) rounds differently."""
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    size = shape[0] * shape[1]
    scales = (1e-315, 1e-310, 1e-3, 1.0, 1e3, 1e154, 1e300)
    for weight in (0.01, 0.3, 5.0):
        den = TvProxDenoiser(weight, shape, inner_iters=inner_iters)
        inputs = [scale * rng.standard_normal(size) for scale in scales]
        for z in inputs + list(_signed_zero_inputs(rng, size)):
            with np.errstate(over="ignore", invalid="ignore"):
                assert den.apply(z).tobytes() == _tv_prox_allocating(den, z).tobytes()


def test_tv_prox_outputs_share_no_memory():
    """Each output is fresh: no two share memory, none shares the work
    buffers, and a later call leaves an earlier output as it was."""
    den = TvProxDenoiser(0.3, (16, 12), inner_iters=5)
    rng = np.random.default_rng(42)
    outs = [den.apply(rng.standard_normal(16 * 12)) for _ in range(3)]
    kept = [out.tobytes() for out in outs]
    den.apply(rng.standard_normal(16 * 12))
    work = den._work[:5]
    assert len(work) == 5
    for i, out in enumerate(outs):
        assert out.tobytes() == kept[i]
        assert not any(np.shares_memory(out, other) for other in outs[i + 1:])
        assert not any(np.shares_memory(out, w) for w in work)


def test_tv_prox_work_arrays_start_on_pages():
    den = TvProxDenoiser(0.3, (5, 9), inner_iters=2)
    den.apply(np.ones(45))
    work = den._work[:5]
    assert [w.ctypes.data % 4096 for w in work] == [0] * 5
    for i, w in enumerate(work):
        assert not any(np.shares_memory(w, other) for other in work[i + 1:])


def test_tv_prox_interleaved_instances_match_oracle():
    """Two instances of different shapes, called in turn, each keep their
    own buffers."""
    rng = np.random.default_rng(43)
    dens = [TvProxDenoiser(0.2, (8, 8), inner_iters=10),
            TvProxDenoiser(0.5, (6, 11), inner_iters=7)]
    for _ in range(3):
        for den in dens:
            z = rng.standard_normal(den.shape[0] * den.shape[1])
            assert den.apply(z).tobytes() == _tv_prox_allocating(den, z).tobytes()


@pytest.mark.parametrize("inner_iters", [-3, 2.7, -0.5, float("nan"), "30"])
def test_tv_prox_rejects_inner_iters_that_are_not_counts(inner_iters):
    with pytest.raises(ValueError, match="inner_iters must be an integer >= 0"):
        TvProxDenoiser(0.3, (4, 4), inner_iters=inner_iters)


@pytest.mark.parametrize("inner_iters", [0, 3, 3.0, np.int64(3)])
def test_tv_prox_takes_integral_inner_iters(inner_iters):
    assert TvProxDenoiser(0.3, (4, 4), inner_iters=inner_iters).inner_iters == int(inner_iters)


def test_tv_prox_leaves_input_and_repeats_itself():
    den = TvProxDenoiser(0.3, (7, 5))
    z = np.random.default_rng(40).standard_normal(35)
    z[::4] = -0.0
    before = z.tobytes()
    first = den.apply(z)
    assert z.tobytes() == before
    assert den.apply(z).tobytes() == first.tobytes()


@pytest.mark.parametrize("shape", [(1, 8), (8, 1), (1, 1)])
def test_tv_prox_rejects_a_side_shorter_than_two(shape):
    with pytest.raises(ValueError, match="at least 2 pixels"):
        TvProxDenoiser(0.3, shape)


class TestInexactWrapper:
    BASE = MmseDenoiser(GaussianPrior(np.zeros(4), 1.0), 0.5)

    def test_error_norm_exact(self):
        sched = ErrorSchedule("constant", base=0.1, seed=3)
        wrapped = InexactDenoiser(self.BASE, sched)
        z = np.array([1.0, 2.0, -1.0, 0.5])
        err = apply_denoiser(wrapped, z, k=7) - apply_denoiser(self.BASE, z, k=7)
        assert abs(np.linalg.norm(err) - 0.1) < 1e-12

    def test_zero_schedule_bitwise(self):
        wrapped = InexactDenoiser(self.BASE, ErrorSchedule("zero"))
        z = np.array([0.3, -0.7, 1.1, 9.0])
        assert np.array_equal(
            apply_denoiser(wrapped, z, 5), apply_denoiser(self.BASE, z, 5)
        )

    def test_reproducible_out_of_order(self):
        sched = ErrorSchedule("square-summable", base=0.5, seed=13)
        wrapped = InexactDenoiser(self.BASE, sched, block_index=2)
        z = np.arange(4.0)
        a = [apply_denoiser(wrapped, z, k) for k in (3, 1, 2)]
        b = [apply_denoiser(wrapped, z, k) for k in (3, 1, 2)]
        for u, v in zip(a, b):
            assert np.array_equal(u, v)
        # different k gives a different perturbation
        assert not np.array_equal(a[0], a[1])

    def test_block_index_decouples_streams(self):
        sched = ErrorSchedule("constant", base=0.2, seed=1)
        w1 = InexactDenoiser(self.BASE, sched, block_index=1)
        w2 = InexactDenoiser(self.BASE, sched, block_index=2)
        z = np.ones(4)
        assert not np.array_equal(apply_denoiser(w1, z, 1), apply_denoiser(w2, z, 1))


class TestErrorSchedule:
    def test_kinds(self):
        assert ErrorSchedule("zero").eps(10) == 0.0
        assert ErrorSchedule("constant", base=0.3).eps(5) == 0.3
        assert ErrorSchedule("square-summable", base=1.0).eps(4) == 0.25
        sched = ErrorSchedule("custom", values=(0.5, 0.2))
        assert [sched.eps(k) for k in (1, 2, 3)] == [0.5, 0.2, 0.0]

    def test_square_summable_is_square_summable(self):
        sched = ErrorSchedule("square-summable", base=2.0)
        total = sum(sched.eps(k) ** 2 for k in range(1, 10001))
        assert total < 2.0**2 * np.pi**2 / 6 + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            ErrorSchedule("linear")
        with pytest.raises(ValueError):
            ErrorSchedule("constant", base=-0.1)
        with pytest.raises(ValueError):
            ErrorSchedule("zero").eps(0)
