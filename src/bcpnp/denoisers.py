"""Per-block denoisers with analytically exact MMSE cases.

For a Gaussian or isotropic Gaussian-mixture prior p(x) and additive white
Gaussian noise z = x + n, n ~ N(0, sigma^2 I), the posterior mean E[x | z]
has a closed form, and so do the score of the noisy marginal and the
implicit regularizer whose proximal operator the posterior mean is.  That
makes the objective a plug-and-play iteration implicitly minimizes
computable, which is what the theory diagnostics in `theory.py` rely on.

Also provided: plumbing denoisers for image experiments (identity, soft
threshold, total-variation prox) and a wrapper that perturbs any base
denoiser by an exactly controlled per-iteration error.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .blocks import _norm

LOG_2PI = float(np.log(2.0 * np.pi))
_FLOAT64 = np.dtype(np.float64)


class UnsupportedPriorError(TypeError):
    """Raised when an operation needs a closed form the prior lacks."""


# ---------------------------------------------------------------------------
# priors: each owns its closed forms, which take a checked noise level
# sigma > 0 (and step size gamma > 0) and a flat float64 z of its dimension;
# the module functions below check them
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianPrior:
    """Isotropic Gaussian prior N(mean, var * I); var is the scalar tau^2."""

    mean: np.ndarray
    var: float

    def __post_init__(self):
        mean = np.array(self.mean, dtype=np.float64, copy=True).ravel()
        mean.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "var", float(self.var))
        if self.var <= 0:
            raise ValueError("prior variance must be positive")

    @property
    def dim(self):
        return self.mean.size

    def posterior_mean(self, sigma, z):
        """mean + tau^2/(tau^2 + sigma^2) * (z - mean)."""
        shrink = self.var / (self.var + sigma**2)
        return self.mean + shrink * (z - self.mean)

    def neg_log_marginal(self, sigma, z):
        s2 = self.var + sigma**2
        d2 = float(np.sum((z - self.mean) ** 2))
        return 0.5 * z.size * (LOG_2PI + np.log(s2)) + 0.5 * d2 / s2

    def neg_log_marginal_grad(self, sigma, z):
        return (z - self.mean) / (self.var + sigma**2)

    def scaled(self, s):
        """The prior of s * x for x ~ self."""
        return GaussianPrior(self.mean * s, self.var * s**2)

    def posterior_mean_inverse(self, sigma, x):
        """The affine inverse of the posterior-mean map."""
        return self.mean + ((self.var + sigma**2) / self.var) * (x - self.mean)

    def implicit_reg_lipschitz(self, sigma, gamma):
        """Exact Lipschitz constant of the implicit regularizer's gradient."""
        return sigma**2 / (gamma * self.var)


@dataclass(frozen=True)
class GmmPrior:
    """Gaussian mixture with isotropic per-component covariances.

    weights: (K,) positive, summing to one.
    means: (K, n).
    variances: (K,) positive scalars tau_k^2.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64, copy=True).ravel()
        mu = np.atleast_2d(np.array(self.means, dtype=np.float64, copy=True))
        tau2 = np.array(self.variances, dtype=np.float64, copy=True).ravel()
        if w.size != mu.shape[0] or w.size != tau2.size:
            raise ValueError("weights, means, variances disagree on K")
        if np.any(w <= 0):
            raise ValueError("mixture weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to one")
        if np.any(tau2 <= 0):
            raise ValueError("component variances must be positive")
        for a in (w, mu, tau2):
            a.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", tau2)

    @property
    def dim(self):
        return self.means.shape[1]

    def _log_weights(self, sigma, z):
        """Unnormalized log posterior component weights under the noisy marginal."""
        s2 = self.variances + sigma**2
        d2 = np.sum((z[None, :] - self.means) ** 2, axis=1)
        logp = np.log(self.weights) - 0.5 * z.size * (LOG_2PI + np.log(s2))
        return logp - 0.5 * d2 / s2

    def responsibilities(self, sigma, z):
        logp = self._log_weights(sigma, z)
        return np.exp(logp - _logsumexp(logp))

    def posterior_mean(self, sigma, z):
        """Responsibility-weighted combination of the per-component posterior means."""
        w = self.responsibilities(sigma, z)
        s2 = self.variances + sigma**2
        shrink = self.variances / s2
        comp = self.means + shrink[:, None] * (z[None, :] - self.means)
        return w @ comp

    def neg_log_marginal(self, sigma, z):
        return float(-_logsumexp(self._log_weights(sigma, z)))

    def neg_log_marginal_grad(self, sigma, z):
        w = self.responsibilities(sigma, z)
        s2 = self.variances + sigma**2
        return w @ ((z[None, :] - self.means) / s2[:, None])

    def scaled(self, s):
        """The prior of s * x for x ~ self."""
        return GmmPrior(self.weights, self.means * s, self.variances * s**2)

    def posterior_mean_inverse(self, sigma, x):
        raise UnsupportedPriorError("a mixture's posterior-mean map has no closed-form inverse")

    def implicit_reg_lipschitz(self, sigma, gamma):
        raise UnsupportedPriorError("a mixture's implicit regularizer has no closed form")


def _check_sigma(sigma):
    sigma = float(sigma)
    if sigma <= 0:
        raise ValueError("noise level sigma must be positive")
    return sigma


def _check_step(sigma, gamma):
    sigma, gamma = _check_sigma(sigma), float(gamma)
    if gamma <= 0:
        raise ValueError("step size gamma must be positive")
    return sigma, gamma


def _flat(z):
    """z as a flat float64 array; a 1-D float64 ndarray, which is what a
    solve passes, is taken as it is."""
    if type(z) is np.ndarray and z.dtype is _FLOAT64 and z.ndim == 1:
        return z
    return np.asarray(z, dtype=np.float64).ravel()


def _check_dim(prior, z):
    z = _flat(z)
    if z.size != prior.dim:
        raise ValueError(f"expected dimension {prior.dim}, got {z.size}")
    return z


def _logsumexp(a):
    m = np.max(a)
    return m + np.log(np.sum(np.exp(a - m)))


def responsibilities(prior: GmmPrior, sigma, z):
    """Posterior probability of each mixture component given noisy z."""
    return prior.responsibilities(_check_sigma(sigma), _check_dim(prior, z))


# ---------------------------------------------------------------------------
# exact MMSE denoising and the noisy-marginal score
# ---------------------------------------------------------------------------


def mmse_denoise(prior, sigma, z):
    """Posterior mean E[x | z] for z = x + N(0, sigma^2 I), x ~ prior."""
    return prior.posterior_mean(_check_sigma(sigma), _check_dim(prior, z))


def marginal_neg_log_density(prior, sigma, z):
    """-log p(z) where p(z) is the prior convolved with the noise Gaussian."""
    return prior.neg_log_marginal(_check_sigma(sigma), _check_dim(prior, z))


def tweedie_gradient(prior, sigma, z):
    """Gradient of -log p(z), i.e. the negated score of the noisy marginal.

    Satisfies mmse_denoise(prior, sigma, z) == z - sigma^2 * this(z).
    """
    return prior.neg_log_marginal_grad(_check_sigma(sigma), _check_dim(prior, z))


# ---------------------------------------------------------------------------
# implicit regularizer of the exact MMSE denoiser
# ---------------------------------------------------------------------------


def implicit_reg_value(prior, sigma, gamma, x):
    """Value of the regularizer whose gamma-prox is the exact MMSE denoiser.

    The defining composition with the inverse posterior-mean map is
    explicit where the prior inverts that map (`posterior_mean_inverse`);
    a mixture raises UnsupportedPriorError.  For mixtures the gradient
    identity grad_h(D(z)) = (z - D(z)) / gamma is the usable route.
    """
    sigma, gamma = _check_step(sigma, gamma)
    x = _check_dim(prior, x)
    inv = prior.posterior_mean_inverse(sigma, x)
    quad = -0.5 / gamma * float(np.sum((x - inv) ** 2))
    return quad + (sigma**2 / gamma) * prior.neg_log_marginal(sigma, inv)


def implicit_reg_gradient(prior, sigma, gamma, x):
    """Gradient of implicit_reg_value; equals sigma^2/(gamma tau^2) (x - mean)."""
    sigma, gamma = _check_step(sigma, gamma)
    x = _check_dim(prior, x)
    return (prior.posterior_mean_inverse(sigma, x) - x) / gamma


def implicit_reg_lipschitz(prior, sigma, gamma):
    """Exact Lipschitz constant of the regularizer gradient."""
    sigma, gamma = _check_step(sigma, gamma)
    return prior.implicit_reg_lipschitz(sigma, gamma)


# ---------------------------------------------------------------------------
# error schedules for inexact denoising
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorSchedule:
    """Per-iteration denoiser error magnitudes eps_k, k >= 1.

    kind "zero": eps_k = 0.  "constant": eps_k = base.  "square-summable":
    eps_k = base / k.  "custom": eps_k from `values`, zero once exhausted.
    """

    kind: str = "zero"
    base: float = 0.0
    values: tuple = ()
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "square-summable", "custom"):
            raise ValueError(f"unknown error schedule kind {self.kind!r}")
        if self.base < 0 or any(v < 0 for v in self.values):
            raise ValueError("error magnitudes must be nonnegative")

    def eps(self, k):
        if k < 1:
            raise ValueError("iteration counter starts at 1")
        if self.kind == "zero":
            return 0.0
        if self.kind == "constant":
            return float(self.base)
        if self.kind == "square-summable":
            return float(self.base) / k
        return float(self.values[k - 1]) if k <= len(self.values) else 0.0


# ---------------------------------------------------------------------------
# denoiser objects applied per block inside the solver
# ---------------------------------------------------------------------------


class MmseDenoiser:
    """Exact posterior-mean denoiser for a Gaussian or mixture prior."""

    def __init__(self, prior, sigma):
        self.prior = prior
        self.sigma = _check_sigma(sigma)

    def apply(self, z, k=1):
        return self.prior.posterior_mean(self.sigma, _check_dim(self.prior, z))


class IdentityDenoiser:
    def apply(self, z, k=1):
        return np.asarray(z, dtype=np.float64).copy()


class SoftThresholdDenoiser:
    """Componentwise shrinkage sign(z) * max(|z| - threshold, 0)."""

    def __init__(self, threshold):
        if threshold < 0:
            raise ValueError("threshold must be nonnegative")
        self.threshold = float(threshold)

    def apply(self, z, k=1):
        z = np.asarray(z, dtype=np.float64)
        return np.sign(z) * np.maximum(np.abs(z) - self.threshold, 0.0)


class TvProxDenoiser:
    """Isotropic total-variation prox on a 2-D image block.

    Solves min_u 0.5 ||u - z||^2 + weight * TV(u) by a fixed number of dual
    projection iterations (Chambolle-style), which is plumbing for image
    experiments rather than an MMSE denoiser; it is excluded from the
    theory diagnostics.

    Each instance owns its work buffers, made at the first call and reused
    by every later one, so it is not for sharing between threads.  The
    array that `apply` returns is fresh.
    """

    TAU = 0.25  # dual step size
    _PAGE = 4096  # each work array starts on its own page boundary

    def __init__(self, weight, shape, inner_iters=30):
        if weight <= 0:
            raise ValueError("TV weight must be positive")
        if len(shape) != 2:
            raise ValueError("TV prox needs a 2-D image shape")
        if min(shape) < 2:
            raise ValueError("TV prox needs an image at least 2 pixels on each side")
        if not (isinstance(inner_iters, Real) and inner_iters >= 0
                and float(inner_iters).is_integer()):
            raise ValueError(f"inner_iters must be an integer >= 0, got {inner_iters!r}")
        self.weight = float(weight)
        self.shape = (int(shape[0]), int(shape[1]))
        self.inner_iters = int(inner_iters)
        self._work = None

    @staticmethod
    def _divergence(p, out, dy):
        """A function that writes the divergence of the stacked dual variable
        p = (px, py) into `out` and returns it; `dy` is scratch space.

        px's last row and py's last column hold -0.0, so the plain backward
        difference there is -0.0 - p, which is -p bit for bit.  The column
        differences run over the flattened image; the entries that cross a
        row boundary are then reset to py's first column.
        """
        px, py = p
        pyf, dyf = py.reshape(-1), dy.reshape(-1)
        rows, cols = (px[1:], px[:-1], out[1:]), (pyf[1:], pyf[:-1], dyf[1:])
        first_row, first_col = (out[0], px[0]), (dy[:, 0], py[:, 0])

        def divergence():
            np.copyto(*first_row)
            np.subtract(*rows)
            np.subtract(*cols)
            np.copyto(*first_col)
            return np.add(out, dy, out)

        return divergence

    def _workspace(self):
        """(z_lam, p, g, s, u, div): the work arrays, carved from one buffer
        so that each starts on a page boundary, and the divergence over them.

        With arrays at page offsets a few bytes apart, a load whose address
        matches a just-stored one in its low 12 bits waits for that store
        (4K aliasing): one np.add of 4096 doubles then takes up to twice as
        long as with aligned arrays.
        """
        if self._work is None:
            (h, w), page = self.shape, self._PAGE
            counts = (1, 2, 2, 2, 1)  # images in z_lam, p, g, s and u
            spans = [-(-8 * n * h * w // page) * page for n in counts]
            buf = np.empty(sum(spans) + page, dtype=np.uint8)
            start = -buf.ctypes.data % page
            arrays = []
            for n, span in zip(counts, spans):
                a = buf[start:start + 8 * n * h * w].view(np.float64).reshape(n, h, w)
                arrays.append(a if n == 2 else a[0])
                start += span
            z_lam, p, g, s, u = arrays
            self._work = (z_lam, p, g, s, u, self._divergence(p, u, s[0]))
        return self._work

    def apply(self, z, k=1):
        z = np.asarray(z, dtype=np.float64).reshape(self.shape)
        lam, tau = self.weight, self.TAU
        # stacked dual variables p = (px, py), forward differences g = (gx, gy)
        # and scratch s, updated in place.  The borders that no difference
        # reaches (the last row of px and gx, the last column of py and gy)
        # hold -0.0, and the update keeps them so: (-0.0 + tau * -0.0) /
        # denom is -0.0.
        z_lam, p, g, s, u, div = self._workspace()
        np.divide(z, lam, z_lam)
        p.fill(0.0)
        p[0, -1], p[1, :, -1] = -0.0, -0.0
        np.copyto(g, p)
        denom, denom_y = s
        # every view the loop reads or writes is made here, once, and the
        # ufuncs take their outputs positionally: at 64x64, making the views
        # and passing out= in each iteration cost about an eighth of it
        uf, (px, py) = u.reshape(-1), p
        grad_x = (u[1:], u[:-1], g[0, :-1])
        grad_y, border_y = (uf[1:], uf[:-1], g[1].reshape(-1)[:-1]), g[1, :, -1]
        for _ in range(self.inner_iters):
            np.subtract(div(), z_lam, u)
            np.subtract(*grad_x)
            # column differences over the flattened image, then the entries
            # that cross a row boundary back to the border's -0.0
            np.subtract(*grad_y)
            border_y.fill(-0.0)
            # denom = 1 + tau * sqrt(gx^2 + gy^2), in the first half of s
            np.square(g, s)
            np.add(denom, denom_y, denom)
            np.add(1.0, np.multiply(tau, np.sqrt(denom, denom), denom), denom)
            # p = (p + tau * g) / denom, a half at a time: dividing the stack
            # by a broadcast denom is slower; g is recomputed before it is read
            np.add(p, np.multiply(tau, g, g), p)
            np.divide(px, denom, px)
            np.divide(py, denom, py)
        return (z - lam * div()).ravel()


class InexactDenoiser:
    """Base denoiser plus an exactly eps_k-sized isotropic perturbation.

    The perturbation direction is a uniformly random unit vector drawn from
    a generator derived from (schedule seed, block index, k), so repeated
    or out-of-order evaluation at the same iteration reproduces the same
    output.  With eps_k = 0 the base output is returned unchanged.
    """

    def __init__(self, base, schedule: ErrorSchedule, block_index=1):
        self.base = base
        self.schedule = schedule
        self.block_index = int(block_index)

    def apply(self, z, k=1):
        out = self.base.apply(z, k)
        eps = self.schedule.eps(k)
        if eps == 0.0:
            return out
        rng = np.random.default_rng(
            np.random.SeedSequence(self.schedule.seed, spawn_key=(self.block_index, k))
        )
        u = rng.standard_normal(out.size)
        u /= _norm(u)
        return out + eps * u


def apply_denoiser(spec, z, k=1):
    """Apply a denoiser object to a coordinate vector at iteration k."""
    return spec.apply(_flat(z), k)


def error_magnitude(spec, k):
    """Scheduled error eps_k of an inexact denoiser; 0 for exact ones."""
    if isinstance(spec, InexactDenoiser):
        return spec.schedule.eps(k)
    return 0.0
