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

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))


class UnsupportedPriorError(TypeError):
    """Raised when an operation needs a closed form the prior lacks."""


# ---------------------------------------------------------------------------
# priors
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

    @property
    def num_components(self):
        return self.weights.size


def _check_sigma(sigma):
    sigma = float(sigma)
    if sigma <= 0:
        raise ValueError("noise level sigma must be positive")
    return sigma


def _check_dim(prior, z):
    z = np.asarray(z, dtype=np.float64).ravel()
    if z.size != prior.dim:
        raise ValueError(f"expected dimension {prior.dim}, got {z.size}")
    return z


def _log_responsibilities(prior: GmmPrior, sigma, z):
    """Log posterior component weights under the noisy marginal, stabilized."""
    s2 = prior.variances + sigma**2
    d2 = np.sum((z[None, :] - prior.means) ** 2, axis=1)
    logp = np.log(prior.weights) - 0.5 * z.size * (LOG_2PI + np.log(s2))
    logp = logp - 0.5 * d2 / s2
    return logp - _logsumexp(logp)


def _logsumexp(a):
    m = np.max(a)
    return m + np.log(np.sum(np.exp(a - m)))


def responsibilities(prior: GmmPrior, sigma, z):
    """Posterior probability of each mixture component given noisy z."""
    sigma = _check_sigma(sigma)
    z = _check_dim(prior, z)
    return np.exp(_log_responsibilities(prior, sigma, z))


# ---------------------------------------------------------------------------
# exact MMSE denoising and the noisy-marginal score
# ---------------------------------------------------------------------------


def mmse_denoise(prior, sigma, z):
    """Posterior mean E[x | z] for z = x + N(0, sigma^2 I), x ~ prior.

    Gaussian prior: mean + tau^2/(tau^2 + sigma^2) * (z - mean).
    Mixture prior: responsibility-weighted combination of the per-component
    posterior means, with responsibilities computed in the log domain.
    """
    sigma = _check_sigma(sigma)
    z = _check_dim(prior, z)
    if isinstance(prior, GaussianPrior):
        shrink = prior.var / (prior.var + sigma**2)
        return prior.mean + shrink * (z - prior.mean)
    if isinstance(prior, GmmPrior):
        w = np.exp(_log_responsibilities(prior, sigma, z))
        s2 = prior.variances + sigma**2
        shrink = prior.variances / s2
        comp = prior.means + shrink[:, None] * (z[None, :] - prior.means)
        return w @ comp
    raise UnsupportedPriorError(f"no MMSE closed form for {type(prior).__name__}")


def marginal_neg_log_density(prior, sigma, z):
    """-log p(z) where p(z) is the prior convolved with the noise Gaussian."""
    sigma = _check_sigma(sigma)
    z = _check_dim(prior, z)
    if isinstance(prior, GaussianPrior):
        s2 = prior.var + sigma**2
        d2 = float(np.sum((z - prior.mean) ** 2))
        return 0.5 * z.size * (LOG_2PI + np.log(s2)) + 0.5 * d2 / s2
    if isinstance(prior, GmmPrior):
        s2 = prior.variances + sigma**2
        d2 = np.sum((z[None, :] - prior.means) ** 2, axis=1)
        logp = np.log(prior.weights) - 0.5 * z.size * (LOG_2PI + np.log(s2))
        logp = logp - 0.5 * d2 / s2
        return float(-_logsumexp(logp))
    raise UnsupportedPriorError(f"no noisy marginal for {type(prior).__name__}")


def tweedie_gradient(prior, sigma, z):
    """Gradient of -log p(z), i.e. the negated score of the noisy marginal.

    Satisfies mmse_denoise(prior, sigma, z) == z - sigma^2 * this(z).
    """
    sigma = _check_sigma(sigma)
    z = _check_dim(prior, z)
    if isinstance(prior, GaussianPrior):
        return (z - prior.mean) / (prior.var + sigma**2)
    if isinstance(prior, GmmPrior):
        w = np.exp(_log_responsibilities(prior, sigma, z))
        s2 = prior.variances + sigma**2
        return w @ ((z[None, :] - prior.means) / s2[:, None])
    raise UnsupportedPriorError(f"no score closed form for {type(prior).__name__}")


# ---------------------------------------------------------------------------
# implicit regularizer of the exact MMSE denoiser (Gaussian prior only)
# ---------------------------------------------------------------------------


def _denoiser_inverse(prior: GaussianPrior, sigma, x):
    # affine inverse of the Gaussian posterior-mean map
    return prior.mean + ((prior.var + sigma**2) / prior.var) * (x - prior.mean)


def implicit_reg_value(prior, sigma, gamma, x):
    """Value of the regularizer whose gamma-prox is the exact MMSE denoiser.

    Only the single-Gaussian prior is supported: its posterior-mean map is
    affine and invertible, so the defining composition with the inverse map
    is explicit.  Mixture priors have no closed-form inverse; for them the
    gradient identity grad_h(D(z)) = (z - D(z)) / gamma is the usable route.
    """
    sigma = _check_sigma(sigma)
    gamma = float(gamma)
    if gamma <= 0:
        raise ValueError("step size gamma must be positive")
    if not isinstance(prior, GaussianPrior):
        raise UnsupportedPriorError(
            "implicit regularizer value needs the invertible Gaussian case"
        )
    x = _check_dim(prior, x)
    inv = _denoiser_inverse(prior, sigma, x)
    quad = -0.5 / gamma * float(np.sum((x - inv) ** 2))
    return quad + (sigma**2 / gamma) * marginal_neg_log_density(prior, sigma, inv)


def implicit_reg_gradient(prior, sigma, gamma, x):
    """Gradient of implicit_reg_value; equals sigma^2/(gamma tau^2) (x - mean)."""
    sigma = _check_sigma(sigma)
    gamma = float(gamma)
    if gamma <= 0:
        raise ValueError("step size gamma must be positive")
    if not isinstance(prior, GaussianPrior):
        raise UnsupportedPriorError(
            "implicit regularizer gradient needs the invertible Gaussian case"
        )
    x = _check_dim(prior, x)
    return (_denoiser_inverse(prior, sigma, x) - x) / gamma


def implicit_reg_lipschitz(prior, sigma, gamma):
    """Exact Lipschitz constant of the Gaussian-prior regularizer gradient."""
    if not isinstance(prior, GaussianPrior):
        raise UnsupportedPriorError("exact constant only for Gaussian priors")
    return float(sigma) ** 2 / (float(gamma) * prior.var)


def jacobian_spectrum_check(prior, sigma, z, step=1e-6, max_dim=64):
    """Smallest eigenvalue of the symmetrized denoiser Jacobian at z.

    The Jacobian of the posterior-mean map is positive definite for any
    non-degenerate prior; this computes it densely by central differences,
    so the dimension is capped.
    """
    sigma = _check_sigma(sigma)
    z = _check_dim(prior, z)
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
        return mmse_denoise(self.prior, self.sigma, z)


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
    """

    TAU = 0.25  # dual step size

    def __init__(self, weight, shape, inner_iters=30):
        if weight <= 0:
            raise ValueError("TV weight must be positive")
        if len(shape) != 2:
            raise ValueError("TV prox needs a 2-D image shape")
        if min(shape) < 2:
            raise ValueError("TV prox needs an image at least 2 pixels on each side")
        self.weight = float(weight)
        self.shape = (int(shape[0]), int(shape[1]))
        self.inner_iters = int(inner_iters)

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

    def apply(self, z, k=1):
        z = np.asarray(z, dtype=np.float64).reshape(self.shape)
        lam, tau = self.weight, self.TAU
        z_lam = z / lam
        # stacked dual variables p = (px, py), forward differences g = (gx, gy)
        # and scratch s, allocated once per call and updated in place.  The
        # borders that no difference reaches (the last row of px and gx, the
        # last column of py and gy) hold -0.0, and the update keeps them so:
        # (-0.0 + tau * -0.0) / denom is -0.0.
        p = np.zeros((2,) + self.shape)
        p[0, -1], p[1, :, -1] = -0.0, -0.0
        g, s, u = p.copy(), np.empty_like(p), np.empty(self.shape)
        denom, denom_y = s
        div = self._divergence(p, u, denom)
        # every view the loop reads or writes is made here, once, and the
        # ufuncs take their outputs positionally: at 64x64, making the views
        # and passing out= in each iteration cost about an eighth of it
        uf = u.reshape(-1)
        grad_x = (u[1:], u[:-1], g[0, :-1])
        grad_y, border_y = (uf[1:], uf[:-1], g[1].reshape(-1)[:-1]), g[1, :, -1]
        for _ in range(self.inner_iters):
            np.subtract(div(), z_lam, u)
            np.subtract(*grad_x)
            # column differences over the flattened image, then the entries
            # that cross a row boundary back to the border's -0.0
            np.subtract(*grad_y)
            border_y.fill(-0.0)
            # denom = 1 + tau * sqrt(gx^2 + gy^2), in both halves of s
            np.square(g, s)
            np.add(denom, denom_y, denom)
            np.add(1.0, np.multiply(tau, np.sqrt(denom, denom), denom), denom)
            np.copyto(denom_y, denom)
            # p = (p + tau * g) / denom; g is recomputed before it is read again
            np.divide(np.add(p, np.multiply(tau, g, g), p), s, p)
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
        u /= np.linalg.norm(u)
        return out + eps * u


def apply_denoiser(spec, z, k=1):
    """Apply a denoiser object to a coordinate vector at iteration k."""
    return spec.apply(np.asarray(z, dtype=np.float64).ravel(), k)


def error_magnitude(spec, k):
    """Scheduled error eps_k of an inexact denoiser; 0 for exact ones."""
    if isinstance(spec, InexactDenoiser):
        return spec.schedule.eps(k)
    return 0.0
