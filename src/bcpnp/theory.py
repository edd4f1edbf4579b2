"""Convergence diagnostics: implicit objective, bound constants, checkers.

With exact Gaussian-prior MMSE denoisers the iteration's implicit
objective f = g + h is computable in closed form, so the descent
inequality, the sequential-schedule gradient bound, and the random-schedule
residual bound can be verified numerically along recorded traces, with the
bound constants assembled from the power-iteration estimates of the
smoothness constants (`forward.estimate_block_lipschitz`).
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .blocks import BlockVector, _norm
from .denoisers import (
    InexactDenoiser,
    MmseDenoiser,
    UnsupportedPriorError,
    implicit_reg_gradient,
    implicit_reg_lipschitz,
    implicit_reg_value,
)

# trace.csv, column by column: (csv column, IterateTrace field).  The
# `rmse` columns take the per-block relative errors in block order, NaN
# past the trace's last block; blocks 3 and on follow as `rmse_3`, ...
TRACE_COLUMNS = (
    ("iter", "iters"),
    ("block", "block"),
    ("f", "f"),
    ("g", "g"),
    ("h", "h"),
    ("Gnorm2", "g_norm2"),
    ("step_norm", "step_norm"),
    ("eps", "eps"),
    ("rmse_v", "rmse"),
    ("rmse_theta", "rmse"),
)
TRACE_CSV_HEADER = ",".join(column for column, _ in TRACE_COLUMNS)
_INT_FIELDS = ("iters", "block")
# rows a trace's columns hold at first; they double as a solve needs
_TRACE_ROWS = 4096


def _dtype(name):
    return int if name in _INT_FIELDS else float


# ---------------------------------------------------------------------------
# per-iteration trace
# ---------------------------------------------------------------------------


@dataclass
class IterateTrace:
    """Per-iteration record of a solve.

    Row k holds quantities of iteration k >= 1: the objective at the new
    iterate x^k, the squared residual-operator norm at the previous iterate
    x^{k-1}, the step length, the scheduled denoiser error, and per-block
    relative errors against the ground truth when one is known.  Fields are
    NaN when not computed: no objective, no ground truth, or, for g_norm2
    in rows 2 and on, a solve with several active blocks and without
    `full_residual`, which denoises only the chosen block.
    """

    iters: np.ndarray
    block: np.ndarray
    f: np.ndarray
    g: np.ndarray
    h: np.ndarray
    g_norm2: np.ndarray
    step_norm: np.ndarray
    eps: np.ndarray
    rmse: np.ndarray  # shape (n, num_blocks)
    grad_f_norm2: np.ndarray
    f_initial: float = float("nan")  # f(x0), which the descent and bound checks read

    def __len__(self):
        return self.iters.size

    def to_csv(self, path):
        blocks = iter(self.rmse.T)  # the rmse columns take blocks 1, 2, ...
        nan = np.full(len(self), np.nan)
        columns = [
            (next(blocks, nan) if name == "rmse" else getattr(self, name))
            .astype(_dtype(name))
            .tolist()
            for _, name in TRACE_COLUMNS
        ]
        header = [TRACE_CSV_HEADER]
        for i, column in enumerate(blocks, start=3):  # blocks 3 and on
            header.append(f"rmse_{i}")
            columns.append(column.tolist())
        # repr of a Python float is its shortest round-trip form
        lines = [",".join(header)] + [",".join(map(repr, row)) for row in zip(*columns)]
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path):
        """Read trace.csv by column name; `grad_f_norm2`, which the file
        does not carry, comes back NaN."""
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split(",")
            raw = np.genfromtxt(fh, delimiter=",", ndmin=2)
        by_column = dict(zip(header, raw.T))
        values = {"rmse": []}
        for column, name in TRACE_COLUMNS:
            if name == "rmse":
                values["rmse"].append(by_column[column])
            else:
                values[name] = by_column[column].astype(_dtype(name))
        i = 3
        while f"rmse_{i}" in by_column:
            values["rmse"].append(by_column[f"rmse_{i}"])
            i += 1
        values["rmse"] = np.column_stack(values["rmse"])
        return cls(**values, grad_f_norm2=np.full(raw.shape[0], np.nan))


class TraceBuilder:
    """Per-field columns of a solve's trace, filled row by row; `freeze`
    cuts them to the rows filled and yields an IterateTrace.

    A solve writes row n of each column in place (`columns[name][n]`) and
    sets `length`; `append` writes the next row from keywords.  Float
    columns start NaN, so a row needs only the fields that were computed.
    The columns start at the `rows` expected, or at `_TRACE_ROWS` when
    more are, and `grow` doubles them.
    """

    def __init__(self, num_blocks, rows=_TRACE_ROWS):
        self.num_blocks = num_blocks
        self.length = 0
        self.columns = self._columns(min(rows, _TRACE_ROWS))
        self.initial = {}

    def _columns(self, rows):
        # one column per per-iteration field, i.e. per IterateTrace field
        # without a default; `rmse` holds one column per block
        return {
            f.name: np.empty(rows, dtype=int) if f.name in _INT_FIELDS
            else np.full((rows, self.num_blocks) if f.name == "rmse" else rows, np.nan)
            for f in fields(IterateTrace) if f.default is MISSING
        }

    def grow(self):
        """Double the columns, keeping their rows; returns the new columns."""
        old = self.columns
        self.columns = self._columns(2 * max(len(old["iters"]), 1))
        for name, column in old.items():
            self.columns[name][:len(column)] = column
        return self.columns

    def set_initial(self, f):
        self.initial = {"f_initial": f}

    def append(self, **row):
        """One iteration: a value for each per-iteration field given, with
        `rmse` the list of per-block relative errors.  `solve` writes its
        rows in place instead; the benchmark's span tracer wraps this name."""
        n = self.length
        if n == len(self.columns["iters"]):
            self.grow()
        for name, value in row.items():
            self.columns[name][n] = value
        self.length = n + 1

    def freeze(self):
        arrays = {name: column[:self.length].copy() for name, column in self.columns.items()}
        return IterateTrace(**arrays, **self.initial)


# ---------------------------------------------------------------------------
# implicit objective f = g + h for MMSE denoisers
# ---------------------------------------------------------------------------


def _mmse_denoiser(denoiser):
    base = denoiser.base if isinstance(denoiser, InexactDenoiser) else denoiser
    if isinstance(base, MmseDenoiser):
        return base
    raise UnsupportedPriorError("implicit objective needs an MMSE denoiser on every block")


class ImplicitObjective:
    """Evaluates f = g + sum_i h_i and its gradient along block vectors.

    Each block must carry a (possibly inexactness-wrapped) MMSE denoiser;
    the regularizer of the wrapped exact denoiser defines h.  A prior without
    it in closed form raises UnsupportedPriorError here.
    """

    def __init__(self, fidelity, denoisers, gamma):
        self.fidelity = fidelity
        self.gamma = float(gamma)
        if self.gamma <= 0:
            raise ValueError("step size gamma must be positive")
        self.block_priors = [(d.prior, d.sigma) for d in map(_mmse_denoiser, denoisers)]
        if len(self.block_priors) != fidelity.layout.num_blocks:
            raise ValueError("one denoiser per block required")
        self.block_lipschitz = [
            implicit_reg_lipschitz(prior, sigma, self.gamma) for prior, sigma in self.block_priors
        ]

    def value(self, x: BlockVector, g=None):
        """(f, g, h) at x.

        `g` is the fidelity value g(x) when the caller has it.
        """
        if g is None:
            g = self.fidelity.value(x)
        h = 0.0
        for i, (prior, sigma) in enumerate(self.block_priors, start=1):
            h += implicit_reg_value(prior, sigma, self.gamma, x.block(i))
        return g + h, g, h

    def grad(self, x: BlockVector, grad_g: BlockVector | None = None):
        """Full gradient (grad_i g + grad h_i) stacked across blocks.

        `grad_g` is the fidelity gradient at x when the caller has it.
        """
        if grad_g is None:
            grad_g = self.fidelity.grad(x)
        parts = []
        for i, (prior, sigma) in enumerate(self.block_priors, start=1):
            parts.append(
                grad_g.block(i) + implicit_reg_gradient(prior, sigma, self.gamma, x.block(i))
            )
        return BlockVector.from_blocks(parts, x.layout)

    def m_max(self):
        """Largest Lipschitz constant of the per-block regularizer gradients."""
        return max(self.block_lipschitz)


# ---------------------------------------------------------------------------
# bound constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoryConstants:
    """Constants of the convergence bounds, assembled from smoothness data.

    alpha is the inverse step-size ratio 1/(gamma l_max) and must exceed 1;
    all derived constants are then positive and finite.
    """

    alpha: float
    num_blocks: int
    l_max: float
    l_full: float
    m_max: float
    lam: float
    a1: float
    a2: float
    b1: float
    b2: float
    c1: float
    c2: float
    theta_rand: float
    d1: float
    d2: float

    @classmethod
    def from_problem(cls, gamma, num_blocks, l_max, l_full, m_max):
        gamma = float(gamma)
        if gamma <= 0 or l_max <= 0:
            raise ValueError("gamma and l_max must be positive")
        if l_full is None:
            raise ValueError("l_full is missing: add it to the certificate by with_full_constant")
        alpha = 1.0 / (gamma * l_max)
        if alpha <= 1.0:
            raise ValueError(
                f"step size gamma={gamma} must be below 1/l_max={1.0 / l_max}"
            )
        b = int(num_blocks)
        lam = alpha * l_max + m_max
        a1 = alpha * l_max + b * l_full
        a2 = a1 + l_full + m_max
        b1 = 4.0 * a1**2 / ((alpha - 1.0) * l_max)
        b2 = 2.0 * b * a2**2 + lam * a1**2
        theta_rand = (alpha - 1.0) / (2.0 * alpha**2 * b * l_max)
        return cls(
            alpha=alpha,
            num_blocks=b,
            l_max=float(l_max),
            l_full=float(l_full),
            m_max=float(m_max),
            lam=lam,
            a1=a1,
            a2=a2,
            b1=b1,
            b2=b2,
            c1=b1,
            c2=b * b2,
            theta_rand=theta_rand,
            d1=1.0 / theta_rand,
            d2=lam / (2.0 * theta_rand),
        )


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

_REL_SLACK = 1e-9  # float headroom when comparing measured values to bounds
DESCENT_SLACK = 1e-10  # per-step headroom of the descent check, relative to 1 + |f|
# smallest seed ensemble the theorem-2 check accepts
MIN_ENSEMBLE_SEEDS = 10
# a seed has converged once its final ||G|| is below this fraction of ||G(x^0)||
FLOOR_RATIO = 1e-4
F_STAR_MARGIN = 0.01  # share of the reference run's descent span taken off f*


def _mean_eps2(eps, counts):
    """mean_{k<=n} eps_k^2 for each n in `counts`, from one running sum."""
    return np.cumsum(eps**2)[counts - 1] / counts


def _require(values, message):
    """Raise ValueError(message) when any of `values` is NaN: a check must
    not pass on quantities the solve did not record."""
    if np.any(np.isnan(values)):
        raise ValueError(message)


def _violations(observed, bounds):
    """1-based positions where `observed` exceeds `bounds` beyond float headroom."""
    headroom = _REL_SLACK * (1.0 + np.abs(bounds))
    return (np.nonzero(observed > bounds + headroom)[0] + 1).tolist()


@dataclass
class DescentReport:
    passed: bool
    worst_slack: float
    num_checked: int
    violations: list = field(default_factory=list)


def check_descent(trace: IterateTrace, constants: TheoryConstants):
    """Per-iteration decrease of f with the proven quadratic margin.

    Verifies f(x^k) <= f(x^{k-1}) - (alpha-1)(l_max/2)||step||^2
    + lam eps_k^2 / 2, within DESCENT_SLACK*(1+|f(x^{k-1})|) headroom per step.
    Raises ValueError when a value it reads is NaN.
    """
    f_prev = np.concatenate([[trace.f_initial], trace.f])[:-1]
    _require(np.concatenate([f_prev, trace.f]),
             "trace lacks objective values; solve with an objective")
    _require(np.concatenate([trace.step_norm, trace.eps]), "trace has NaN step norms or errors")
    coeff = (constants.alpha - 1.0) * constants.l_max / 2.0
    allowed = f_prev - coeff * trace.step_norm**2 + 0.5 * constants.lam * trace.eps**2
    excess = trace.f - allowed
    violations = trace.iters[excess > DESCENT_SLACK * (1.0 + np.abs(f_prev))].tolist()
    return DescentReport(
        passed=not violations,
        worst_slack=float(np.max(excess, initial=-np.inf)),
        num_checked=len(trace),
        violations=violations,
    )


@dataclass
class NotRunReport:
    """A check that a run could not make, and why."""

    reason: str
    ran: bool = False


@dataclass
class Theorem1Report:
    passed: bool
    num_epochs: int
    f_initial: float
    f_star: float
    grad_norm2_epochs: np.ndarray
    running_mean: np.ndarray
    running_min: np.ndarray
    bounds: np.ndarray
    violations: list
    note: str = "only complete epochs are checked"


def check_theorem1(trace: IterateTrace, constants: TheoryConstants, f_star):
    """Sequential-schedule gradient bound along one trace.

    For every number of complete epochs t, checks
    mean_{i<=t} ||grad f(x^{ib})||^2 <= (c1/t)(f(x^0)-f*)
    + c2 * mean_{k<=tb}(eps_k^2), using the gradient norms recorded at the
    epoch-boundary iterates, and reports their running minimum beside it.
    """
    b = constants.num_blocks
    num_epochs = len(trace) // b
    if num_epochs < 1:
        raise ValueError("trace holds no complete epoch")
    epochs = np.arange(1, num_epochs + 1)
    gn2 = trace.grad_f_norm2[epochs * b - 1]
    _require(gn2, "trace lacks gradient norms; solve with an objective")
    running_mean = np.cumsum(gn2) / epochs
    gap = trace.f_initial - f_star
    bounds = constants.c1 / epochs * gap + constants.c2 * _mean_eps2(trace.eps, epochs * b)
    violations = _violations(running_mean, bounds)
    return Theorem1Report(
        passed=not violations,
        num_epochs=num_epochs,
        f_initial=trace.f_initial,
        f_star=float(f_star),
        grad_norm2_epochs=gn2,
        running_mean=running_mean,
        running_min=np.minimum.accumulate(gn2),
        bounds=bounds,
        violations=violations,
    )


@dataclass
class Theorem2Report:
    passed: bool
    num_seeds: int
    num_iters: int
    f_star: float
    avg_running_mean: np.ndarray
    bounds: np.ndarray
    violations: list
    final_ratio_fractions: float
    plateau_mean: float
    plateau_bound: float


def check_theorem2(traces, constants: TheoryConstants, f_star):
    """Random-schedule residual bound over an ensemble of seeded traces.

    Checks the seed-averaged (1/t) sum_k ||G(x^{k-1})||^2 against
    (d1/t)(f(x^0) - f*) + d2 * mean_{k<=t}(eps_k^2) at every t (traces are
    truncated to the shortest length).  As the almost-sure-convergence
    surrogate, the report records the fraction of seeds whose final ||G||
    falls below FLOOR_RATIO * ||G(x^0)||.  The plateau statistic is the
    seed-and-tail average of ||G||^2 over the last quarter of iterations,
    to compare against d2 * eps^2 for constant inexactness.  Raises
    ValueError when a value it reads is NaN: a lean solve logs NaN residual
    norms after its first row.
    """
    if len(traces) < MIN_ENSEMBLE_SEEDS:
        raise ValueError(f"ensemble too small: {len(traces)} < {MIN_ENSEMBLE_SEEDS} seeds")
    t_len = min(len(tr) for tr in traces)
    if t_len < 1:
        raise ValueError("empty trace in ensemble")
    g2 = np.stack([tr.g_norm2[:t_len] for tr in traces])
    _require(g2, "trace lacks residual norms; solve with full_residual=True")
    eps = traces[0].eps[:t_len]
    _require(eps, "trace has NaN errors")
    _require([tr.f_initial for tr in traces], "trace lacks f(x0); solve with an objective")
    tvals = np.arange(1, t_len + 1)
    avg_running_mean = np.mean(np.cumsum(g2, axis=1) / tvals[None, :], axis=0)
    gap = float(np.mean([tr.f_initial for tr in traces])) - f_star
    bounds = constants.d1 / tvals * gap + constants.d2 * _mean_eps2(eps, tvals)
    violations = _violations(avg_running_mean, bounds)

    finals = np.sqrt(g2[:, -1])
    starts = np.sqrt(g2[:, 0])
    frac = float(np.mean(finals <= FLOOR_RATIO * starts))

    tail = max(1, t_len // 4)
    plateau_mean = float(np.mean(g2[:, -tail:]))
    eps_max2 = float(np.max(eps**2))
    return Theorem2Report(
        passed=not violations,
        num_seeds=len(traces),
        num_iters=t_len,
        f_star=float(f_star),
        avg_running_mean=avg_running_mean,
        bounds=bounds,
        violations=violations,
        final_ratio_fractions=frac,
        plateau_mean=plateau_mean,
        plateau_bound=constants.d2 * eps_max2,
    )


def reference_f_star(trace: IterateTrace, *continued: IterateTrace):
    """Lower estimate of inf f from a long reference run.

    The run is `trace` and, when given, the solves that continue it in
    order (`solve(..., start_iter=...)`), whose f rows extend `trace`'s.
    The running minimum of f along the run upper-bounds the true infimum,
    so F_STAR_MARGIN times the observed descent span is subtracted;
    underestimating f* only loosens the checked bounds, never falsely
    fails them.
    """
    f = np.concatenate([trace.f] + [tr.f for tr in continued])
    fmin = float(min(trace.f_initial, np.min(f)))
    span = trace.f_initial - fmin
    return fmin - F_STAR_MARGIN * span - 1e-12 * (1.0 + abs(fmin))


# ---------------------------------------------------------------------------
# quality metrics
# ---------------------------------------------------------------------------


def rmse(estimate, truth):
    """Relative error ||estimate - truth|| / ||truth||."""
    estimate = np.asarray(estimate, dtype=np.float64).ravel()
    truth = np.asarray(truth, dtype=np.float64).ravel()
    denom = _norm(truth)
    if denom == 0:
        raise ValueError("ground truth has zero norm")
    return _norm(estimate - truth) / denom


def _gaussian_window(size, sigma):
    half = (size - 1) / 2.0
    coords = np.arange(size) - half
    g = np.exp(-(coords**2) / (2.0 * sigma**2))
    w = np.outer(g, g)
    return w / w.sum()


def _window_means(img, kernel):
    from numpy.lib.stride_tricks import sliding_window_view

    wins = sliding_window_view(img, kernel.shape)
    return np.einsum("ijkl,kl->ij", wins, kernel)


def ssim(estimate, truth, data_range=1.0, window_size=11, window_sigma=1.5):
    """Mean structural similarity over a sliding Gaussian window.

    Standard stabilization constants (0.01 and 0.03 of the declared dynamic
    range, squared) and an 11x11 Gaussian window; the mean is taken over
    fully interior windows.
    """
    a = np.asarray(estimate, dtype=np.float64)
    b = np.asarray(truth, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError("ssim expects two equal-shape 2-D images")
    if min(a.shape) < window_size:
        raise ValueError("image smaller than the ssim window")
    kern = _gaussian_window(window_size, window_sigma)
    mu_a = _window_means(a, kern)
    mu_b = _window_means(b, kern)
    var_a = _window_means(a * a, kern) - mu_a**2
    var_b = _window_means(b * b, kern) - mu_b**2
    cov = _window_means(a * b, kern) - mu_a * mu_b
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))

