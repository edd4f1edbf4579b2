"""Config-driven experiment runner.

One YAML file declares a problem (synthetic or file-based ground truth),
per-block denoisers, the solver modes to compare, optional convergence
checks, and an output directory.  `load_config` parses it once, with every
file it names, into a typed `Config`; both commands consume that parse.
`run` writes per-mode iterate traces (CSV), reconstructed images (PGM +
full-precision CSV), a metrics table (relative RMSE of image and operator
parameters, SSIM), and a JSON report.  `validate` reports config problems
without executing the solver.

Exit codes: 0 success, 1 config error, 2 runtime failure, 3 a strict
convergence check failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import fileio
from .blocks import BlockLayout, BlockSchedule, BlockVector, complex_to_pairs, pairs_to_complex
from .denoisers import (
    ErrorSchedule, GaussianPrior, GmmPrior, IdentityDenoiser, InexactDenoiser,
    MmseDenoiser, SoftThresholdDenoiser, TvProxDenoiser,
)
from .forward import (
    BlindConvolutionModel, ConvolutionFidelity, LinearFidelity, LinearModel,
    MultiCoilFidelity, MultiCoilModel, synthesize, with_full_constant,
)
from .solver import NonFiniteIterateError, SolverConfig, resolve_gamma, solve
from .theory import (
    MIN_ENSEMBLE_SEEDS, ImplicitObjective, TheoryConstants, check_descent, check_theorem1,
    check_theorem2, reference_f_star, rmse, ssim,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_CHECK_FAILED = 3

BLIND = "blind-deconvolution"
MULTI_COIL = "multi-coil"
LINEAR = "generic-linear"
MODES = ("bc-pnp", "pnp-ista", "pnp-gd-theta", "pnp-oracle-theta")
BC_PNP, PNP_ISTA, PNP_GD_THETA, PNP_ORACLE_THETA = MODES
_MODE_ALIASES = {"pnp": PNP_ISTA}
DENOISER_KINDS = ("identity", "soft-threshold", "tv-prox", "gaussian-mmse", "gmm-mmse", "inexact")
# metrics.csv columns; a mode's row is also its report.json "metrics" entry
METRICS_COLUMNS = ("mode", "rmse_x", "ssim_x", "rmse_theta")


class ConfigError(ValueError):
    """Unusable experiment configuration; message names the field."""


# ---------------------------------------------------------------------------
# synthetic sources
# ---------------------------------------------------------------------------


def synthetic_image(shape, seed=0):
    """Seeded test image in [0, 1]: a ramp with random smooth bumps."""
    H, W = shape
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:H, 0:W] / max(H, W)
    img = 0.15 + 0.2 * xx + 0.1 * yy
    for _ in range(6):
        cy, cx = rng.uniform(0.1, 0.9, 2)
        spread = rng.uniform(0.04, 0.18)
        amp = rng.uniform(0.25, 0.7)
        img = img + amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * spread**2))
    img -= img.min()
    if img.max() == 0:
        raise ValueError(f"a synthetic image needs at least two pixels, got shape {tuple(shape)}")
    img /= img.max()
    return img


def gaussian_kernel(shape, width):
    """Centered normalized Gaussian blur kernel of standard deviation `width`."""
    if not width > 0:
        raise ValueError(f"width must be positive, got {width!r}")
    two_var = 2 * float(width) ** 2
    if two_var == 0:
        raise ValueError(f"width {width!r} is too small: its square underflows to 0")
    h, w = shape
    yy, xx = np.mgrid[-(h // 2) : h // 2 + 1, -(w // 2) : w // 2 + 1]
    k = np.exp(-(xx**2 + yy**2) / two_var)
    return k / k.sum()


def uniform_kernel(shape):
    h, w = shape
    return np.full((h, w), 1.0 / (h * w))


def delta_kernel(shape):
    k = np.zeros(shape)
    k[shape[0] // 2, shape[1] // 2] = 1.0
    return k


def cartesian_rows_mask(shape, accel=2, center_rows=4):
    """1-D row undersampling: every accel-th row plus a fully sampled band."""
    H, W = shape
    mask = np.zeros((H, W))
    mask[::accel, :] = 1.0
    lo = max(0, H // 2 - center_rows // 2)
    mask[lo : lo + center_rows, :] = 1.0
    return mask


def smooth_coil_maps(shape, num_coils, seed=0):
    """Low-frequency complex sensitivity profiles, roughly unit magnitude."""
    rng = np.random.default_rng(seed)
    H, W = shape
    maps = np.empty((num_coils, H, W), dtype=np.complex128)
    yy, xx = np.mgrid[0:H, 0:W] / max(H, W)
    for i in range(num_coils):
        cy, cx = rng.uniform(-0.2, 1.2, 2)
        mag = 0.6 + 0.8 * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / 0.8)
        phase = rng.uniform(-np.pi, np.pi) + 2.0 * (rng.uniform(-1, 1) * xx + rng.uniform(-1, 1) * yy)
        maps[i] = mag * np.exp(1j * phase)
    return maps


# ---------------------------------------------------------------------------
# typed config
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemConfig:
    """The problem section; arrays are ground truth in natural units.

    Seeded draws (noise, coil maps, random matrix, perturbation) wait for
    `build_problem`, which may override the seed.
    """

    kind: str
    seed: int
    noise_sigma: float
    layout: BlockLayout
    model: object = None  # BlindConvolutionModel | MultiCoilModel
    image: np.ndarray | None = None
    kernel: np.ndarray | None = None
    theta_init: np.ndarray | None = None  # explicit initial kernel
    perturb: float | None = None  # relative perturbation of the true theta
    perturb_seed: int | None = None  # None: problem seed + 1
    balance_blocks: bool = True
    rows: int = 0  # generic-linear
    matrix: np.ndarray | None = None  # generic-linear; None: drawn at seed + 3


@dataclass(frozen=True)
class TheoryChecks:
    enabled: bool = False
    reference_multiplier: int = 10
    ensemble_seeds: int = 0
    strict: bool = False


@dataclass(frozen=True)
class Config:
    """A parsed experiment config; see `load_config`."""

    problem: ProblemConfig
    denoisers: tuple  # one per block, natural units; see `build_denoiser`
    solver: SolverConfig
    modes: tuple  # (label as written, canonical mode) per solver mode
    theory: TheoryChecks
    out_dir: str


@contextmanager
def _at(field):
    """Report a rule that an object or function enforces as an error of `field`."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError, OSError) as exc:
        raise ConfigError(f"{field}: {exc}") from None


def _with_fields(obj, node, **values):
    """Replace dataclass fields one at a time, so a rejected value names its key."""
    for key, value in values.items():
        with _at(node.at(key)):
            obj = dataclasses.replace(obj, **{key: value})
    return obj


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


_REQUIRED = object()


class _Node:
    """A mapping of the YAML tree and its dotted path; reads typed fields.

    An absent or null field takes its default; one without a default is
    missing.  Each node records the keys it was asked about, and the nodes
    of one tree share the list `tree`, so that `reject_unread` can name a
    key that nothing read.
    """

    def __init__(self, data, path, tree=None):
        if not isinstance(data, (dict, type(None))):
            raise ConfigError(f"{path}: must be a mapping, got {data!r}")
        self.data, self.path = data or {}, path
        self.read = set()
        self.tree = [] if tree is None else tree
        self.tree.append(self)

    def at(self, key):
        return f"{self.path}.{key}" if self.path else key

    def has(self, key):
        self.read.add(key)
        return self.data.get(key) is not None

    def node(self, key, required=False):
        self.read.add(key)
        return _Node(self.get(key) if required else self.data.get(key), self.at(key), self.tree)

    def get(self, key, default=_REQUIRED, want="", ok=None):
        """The field's value; `ok` vets a given value, which `want` describes."""
        self.read.add(key)
        value = self.data.get(key)
        if value is None:
            if default is _REQUIRED:
                raise ConfigError(f"{self.at(key)}: missing")
            return default
        if ok is not None and not ok(value):
            raise ConfigError(f"{self.at(key)}: must be {want}, got {value!r}")
        return value

    def number(self, key, default=_REQUIRED):
        value = self.get(key, default)
        try:  # float() also takes 1e-5, which YAML 1.1 leaves a string
            number = math.nan if isinstance(value, bool) else float(value)
        except (TypeError, ValueError, OverflowError):
            number = math.nan
        if not math.isfinite(number):
            raise ConfigError(f"{self.at(key)}: must be a finite number, got {value!r}")
        return number

    def numbers(self, key, default=_REQUIRED):
        values = self.get(key, default, "a list", lambda v: isinstance(v, list))
        items = _Node(dict(enumerate(values)), self.at(key))
        return tuple(items.number(i) for i in range(len(values)))

    def integer(self, key, default=_REQUIRED):
        return self.get(key, default, "an integer >= 0", lambda v: _is_int(v) and v >= 0)

    def integers(self, key, default, length=None):
        def ok(v):
            sized = isinstance(v, list) and (len(v) == length if length else len(v) > 0)
            return sized and all(_is_int(n) and n > 0 for n in v)

        want = f"a list of {length or 'one or more'} positive integers"
        return tuple(self.get(key, default, want, ok))

    def flag(self, key, default):
        return self.get(key, default, "true or false", lambda v: isinstance(v, bool))

    def string(self, key, default=_REQUIRED, options=None):
        want = "a string" if options is None else "one of " + ", ".join(options)
        ok = (lambda v: isinstance(v, str)) if options is None else (lambda v: v in options)
        return self.get(key, default, want, ok)

    def reject_unread(self):
        """Raise ConfigError naming the first key of the tree that nothing read."""
        for node in self.tree:
            for key in node.data:
                if key not in node.read:
                    raise ConfigError(f"{node.at(key)}: unknown key")


def load_config(path):
    """Parse an experiment YAML file, and every file it names, into a Config.

    Range rules stay with the objects and functions that enforce them; the
    parser builds those objects, so the first unusable field raises
    ConfigError("<dotted.field>: <reason>").  A key that no rule read, a
    misspelt or misplaced one, is then an unknown key.
    """
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except (yaml.YAMLError, ValueError) as exc:
        raise ConfigError(f"config parse error: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    root = _Node(data, "")
    problem = _parse_problem(root.node("problem", required=True))
    denoisers, kinds = _parse_denoisers(root.node("denoisers", required=True), problem)
    solver, modes = _parse_solver(root.node("solver"), problem)
    theory = _parse_theory(root.node("theory_checks"), solver)
    if theory.enabled and (BC_PNP not in dict(modes).values()):
        raise ConfigError("theory_checks.enabled: the convergence checks run on the bc-pnp "
                          "mode, which solver.modes does not list")
    unsupported = [(field, kind) for field, kind in kinds if kind != "gaussian-mmse"]
    if theory.enabled and unsupported:
        raise ConfigError("theory_checks.enabled: the implicit objective needs a gaussian-mmse "
                          "denoiser on every block, and {} is {}".format(*unsupported[0]))
    out_dir = root.node("output").string("directory", "out")
    root.reject_unread()
    return Config(problem, denoisers, solver, modes, theory, out_dir)


def _read_array(node, shape=None):
    """The matrix in the file at `<node>.path` (PGM or CSV), of `shape` if given."""
    path = node.string("path")
    with _at(node.at("path")):
        arr = fileio.read_pgm(path) if path.endswith(".pgm") else fileio.load_matrix_csv(path)
    if shape is not None and arr.shape != shape:
        raise ConfigError(f"{node.at('path')}: file shape {arr.shape} != {shape}")
    return arr


def _parse_problem(node):
    kind = node.string("kind", options=(BLIND, MULTI_COIL, LINEAR))
    common = dict(kind=kind, seed=node.integer("seed", 0),
                  noise_sigma=node.number("noise_sigma", 0.0))
    if common["noise_sigma"] < 0:
        raise ConfigError(f"{node.at('noise_sigma')}: noise level must be nonnegative")

    if kind == LINEAR:
        layout = BlockLayout(node.integers("block_sizes", (4, 4)))
        matrix = _read_array(node.node("matrix")) if node.has("matrix") else None
        if matrix is not None:
            _nonzero(node.node("matrix"), matrix, "forward matrix")
            with _at(node.at("matrix")):
                LinearFidelity(LinearModel(matrix), layout, np.zeros(matrix.shape[0]))
        rows = node.get("rows", layout.total, "a positive integer", lambda v: _is_int(v) and v > 0)
        return ProblemConfig(**common, layout=layout, rows=rows, matrix=matrix)

    shape = node.integers("image_shape", (64, 64) if kind == BLIND else (32, 32), length=2)
    image = _image_source(node.node("image"), shape)
    theta_init = node.node("theta_init")
    if kind == MULTI_COIL:
        coils = node.integer("num_coils", 2)
        with _at(node.at("num_coils")):
            MultiCoilModel(shape, coils, np.ones(shape))
        mask = node.node("mask")
        if mask.has("path"):
            with _at(mask.at("path")):
                model = MultiCoilModel(shape, coils, _read_array(mask))
        else:
            accel = mask.get("accel", 2, "an integer >= 1", lambda v: _is_int(v) and v >= 1)
            center = mask.integer("center_rows", 4)
            with _at(mask.path):
                model = MultiCoilModel(shape, coils, cartesian_rows_mask(shape, accel, center))
        return ProblemConfig(**common, layout=model.layout, model=model, image=image,
                             **_theta_init(theta_init, None))

    kshape = node.integers("kernel_shape", (9, 9), length=2)
    with _at(node.at("kernel_shape")):
        model = BlindConvolutionModel(shape, kshape)
    return ProblemConfig(**common, layout=model.layout, model=model, image=image,
                         kernel=_kernel_source(node.node("kernel"), kshape, 1.5),
                         balance_blocks=node.flag("balance_blocks", True),
                         **_theta_init(theta_init, kshape))


def _nonzero(node, arr, what):
    """`arr`, read from `<node>.path`, unless it is all zero."""
    if not np.any(arr):
        raise ConfigError(f"{node.at('path')}: the {what} is all zero")
    return arr


def _image_source(node, shape):
    if node.has("path"):
        return _nonzero(node, _read_array(node, shape), "ground-truth image")
    node.string("synthetic", "blobs", options=("blobs",))
    seed = node.integer("seed", 0)
    with _at(node.path):
        return synthetic_image(shape, seed)


def _kernel_source(node, shape, width):
    """A kernel file, or a synthetic kernel (gaussian of `width` by default)."""
    if node.has("path"):
        return _nonzero(node, _read_array(node, shape), "kernel")
    kind = node.string("synthetic", "gaussian", options=("gaussian", "uniform", "delta"))
    if kind == "uniform":
        return uniform_kernel(shape)
    if kind == "delta":
        return delta_kernel(shape)
    width = node.number("width", width)
    with _at(node.at("width")):
        return gaussian_kernel(shape, width)


def _theta_init(node, kernel_shape):
    """problem.theta_init: a kernel file, a synthetic kernel, a perturbed
    truth or, with none of these, the true kernel.  Multi-coil (no kernel
    shape) takes only a perturbation of the true maps, by default 0."""
    if kernel_shape is not None:
        if node.has("path"):
            with _at(node.at("path")):
                theta0 = _read_array(node).reshape(kernel_shape)
            return {"theta_init": _nonzero(node, theta0, "initial kernel").ravel()}
        if node.has("synthetic") or node.has("width"):
            return {"theta_init": _kernel_source(node, kernel_shape, 2.0).ravel()}
        if not node.has("perturb"):
            return {}
    perturb = node.number("perturb", 0.0)
    if perturb < 0:
        raise ConfigError(f"{node.at('perturb')}: perturbation must be nonnegative, got {perturb}")
    return {"perturb": perturb, "perturb_seed": node.integer("seed", None)}


def _parse_denoisers(node, problem):
    """image/theta denoisers, or `blocks: [...]` for generic-linear, and the
    (field, kind) of each block's denoiser under any inexact wrapper."""
    sizes = problem.layout.sizes
    if problem.kind == LINEAR:
        specs = node.get("blocks", want=f"a list of {len(sizes)} denoisers (one per block)",
                         ok=lambda v: isinstance(v, list) and len(v) == len(sizes))
        nodes = [_Node(s, f"{node.at('blocks')}[{i}]", node.tree) for i, s in enumerate(specs)]
    else:
        nodes = [node.node("image", required=True), node.node("theta", required=True)]
    shapes = [None] * len(sizes)
    if problem.kind == BLIND:
        shapes = [problem.model.image_shape, problem.model.kernel_shape]
    indices = range(1, len(sizes) + 1)
    denoisers = tuple(_parse_denoiser(*args) for args in zip(nodes, sizes, shapes, indices))
    return denoisers, tuple(map(_unwrapped_kind, nodes))


def _unwrapped_kind(node):
    """(field, kind) of the parsed denoiser at `node`, or of the one it wraps."""
    field, spec = node.path, node.data
    while spec["kind"] == "inexact":
        field, spec = f"{field}.base", spec["base"]
    return field, spec["kind"]


def _parse_denoiser(node, size, shape, block_index):
    """Block `block_index`'s denoiser in natural units; its constructor checks ranges."""
    kind = node.string("kind", options=DENOISER_KINDS)
    if kind == "identity":
        den = IdentityDenoiser()
    elif kind == "soft-threshold":
        threshold = node.number("threshold")
        with _at(node.at("threshold")):
            den = SoftThresholdDenoiser(threshold)
    elif kind == "tv-prox":
        if shape is None:
            raise ConfigError(f"{node.at('kind')}: tv-prox needs a real 2-D image block")
        if min(shape) < 2:
            raise ConfigError(
                f"{node.at('kind')}: tv-prox needs an image at least 2 pixels on each side,"
                f" got {shape[0]}x{shape[1]}"
            )
        weight, inner_iters = node.number("weight"), node.integer("inner_iters", 30)
        with _at(node.at("weight")):
            den = TvProxDenoiser(weight, shape, inner_iters=inner_iters)
    elif kind == "inexact":
        sch = node.node("schedule")
        schedule = _with_fields(
            ErrorSchedule(), sch, kind=sch.string("kind", "zero"), base=sch.number("base", 0.0),
            values=sch.numbers("values", ()), seed=sch.integer("seed", 0),
        )
        base = _parse_denoiser(node.node("base", required=True), size, shape, block_index)
        den = InexactDenoiser(base, schedule, block_index)
    else:
        prior = _parse_prior(node.node("prior"), kind, size, shape)
        sigma = node.number("sigma")
        with _at(node.at("sigma")):
            den = MmseDenoiser(prior, sigma)
    # a denoiser that cannot act on its block (a prior of another
    # dimension) fails here rather than mid-run
    with _at(node.path):
        den.apply(np.zeros(size))
    return den


def _parse_prior(node, kind, size, shape):
    if kind == "gaussian-mmse":
        mean, var = _prior_mean(node, size, shape), node.number("var")
        with _at(node.at("var")):
            return GaussianPrior(mean, var)
    with _at(node.path):
        return GmmPrior(
            np.asarray(node.numbers("weights")),
            np.asarray(node.get("means"), dtype=float),
            np.asarray(node.numbers("variances")),
        )


def _prior_mean(node, size, shape):
    if node.get("mean", "zeros") == "zeros":
        return np.zeros(size)
    mean = node.node("mean")
    if mean.has("constant"):
        return np.full(size, mean.number("constant"))
    if mean.has("path"):
        return _read_array(mean).ravel()
    if shape is not None and mean.has("gaussian-kernel"):
        width = mean.number("gaussian-kernel")
        with _at(mean.at("gaussian-kernel")):
            return gaussian_kernel(shape, width).ravel()
    if shape is not None and mean.has("uniform-kernel"):
        return uniform_kernel(shape).ravel()
    raise ConfigError(f"{mean.path}: must be zeros, {{constant: c}}, {{path: f.csv}} or, on a "
                      "real 2-D block, {gaussian-kernel: width} or {uniform-kernel: true}")


def _parse_solver(node, problem):
    """The solver section as a SolverConfig and the (label, mode) pairs."""
    sched = node.node("schedule")
    seed = sched.integer("seed", 0)
    with _at(sched.at("kind")):
        schedule = BlockSchedule(sched.string("kind", "sequential"), problem.layout.num_blocks,
                                 seed)
    gamma = node.get("gamma", "auto")
    config = _with_fields(
        SolverConfig(schedule), node,
        gamma=None if gamma == "auto" else node.number("gamma"),
        max_iters=node.get("max_iters", 500, "an integer", _is_int),
        stop_tol=node.number("stop_tol", 1e-5),
        ball_radius=node.number("ball_radius", 10.0),
    )

    labels = node.get("modes", ["bc-pnp"], "a non-empty list of mode names", lambda v: (
        isinstance(v, list) and v and all(isinstance(m, str) for m in v)))
    modes = tuple(_MODE_ALIASES.get(m, m) for m in labels)
    if len(set(modes)) != len(modes):
        raise ConfigError(f"{node.at('modes')}: duplicate modes after aliasing in {labels}")
    for i, (label, mode) in enumerate(zip(labels, modes)):
        field = f"{node.at('modes')}[{i}]"
        if mode not in MODES:
            raise ConfigError(f"{field}: unknown mode {mode!r}")
        if mode != BC_PNP and problem.kind == LINEAR:
            raise ConfigError(f"{field}: mode {label!r} holds or steps an operator block, "
                              "which a generic-linear problem does not have")
    return config, tuple(zip(labels, modes))


def _parse_theory(node, solver):
    multiplier = node.get("reference_multiplier", 10, "an integer >= 1",
                          lambda v: _is_int(v) and v >= 1)
    seeds = node.get("ensemble_seeds", 0, f"0 (off) or at least {MIN_ENSEMBLE_SEEDS}",
                     lambda v: _is_int(v) and (v == 0 or v >= MIN_ENSEMBLE_SEEDS))
    if seeds and solver.schedule.kind != "random-iid":
        raise ConfigError(f"{node.at('ensemble_seeds')}: the theorem-2 ensemble needs the "
                          f"random-iid schedule, not {solver.schedule.kind}")
    return TheoryChecks(node.flag("enabled", False), multiplier, seeds, node.flag("strict", False))


def validate(config, problem=None):
    """Diagnostics for a config path or a parsed Config, without solving.

    The parse, plus the step-rule check when convergence checks run at an
    explicit gamma: the certificate at every mode's start must bound gamma
    below 1/L_max.  That check certifies the starts on `problem`, which it
    builds at the config's seed when none is given.  An empty list means
    `run` can start.
    """
    try:
        cfg = config if isinstance(config, Config) else load_config(config)
    except ConfigError as exc:
        return [str(exc)]
    gamma = cfg.solver.gamma
    if not cfg.theory.enabled or gamma is None:
        return []
    if problem is None:
        problem = build_problem(cfg)
    diagnostics = []
    for label, mode in cfg.modes:
        _, lip = problem.certify(problem.x0_for(mode), cfg.solver)
        if lip.exceeded_by(gamma):
            diagnostics.append(f"solver.gamma: step size violates the convergence step rule at "
                               f"the start of mode {label} (gamma={gamma} >= "
                               f"1/L_max={1.0 / lip.l_max:.6g})")
    return diagnostics


# ---------------------------------------------------------------------------
# problem construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Problem:
    """Measurements, truth and initial parameter block in work units.

    Blind deconvolution works in blocks rescaled to (v / scale, scale *
    theta), see `balanced_block_scale`; the other kinds have scale 1.
    Generic-linear problems have neither an image nor a parameter block.
    `denoisers` holds one denoiser per block in those work units.
    """

    kind: str
    fidelity: object
    truth: BlockVector
    image_truth: np.ndarray | None = None  # natural units, for SSIM
    image_shape: tuple | None = None
    theta0: np.ndarray | None = None
    theta_true: np.ndarray | None = None
    scale: float = 1.0
    denoisers: tuple = ()
    # (x0 bytes, gamma, ball radius) -> (gamma, certificate); see `certify`
    _certificates: dict = dataclasses.field(default_factory=dict, compare=False, repr=False)

    @property
    def block_scales(self):
        """Factor from natural to work units, per block."""
        if self.theta0 is None:
            return (1.0,) * self.fidelity.layout.num_blocks
        return (1.0 / self.scale, self.scale)

    def denoisers_for(self, mode):
        """The block denoisers of `mode`.  bc-pnp denoises both blocks; the
        ablations hold the operator block at its start (None) or move it by
        bare gradient steps (the identity, pnp-gd-theta)."""
        if mode == BC_PNP:
            return self.denoisers
        return (self.denoisers[0], IdentityDenoiser() if mode == PNP_GD_THETA else None)

    def x0_for(self, mode):
        """Adjoint initialization; the oracle mode starts from the true theta."""
        if self.theta0 is None:
            return BlockVector(self.fidelity.layout, self.fidelity.adjoint_init())
        theta = self.theta_true if mode == PNP_ORACLE_THETA else self.theta0
        # adjoint initialization in natural units, then into work units
        v0 = self.fidelity.adjoint_init(theta / self.scale) / self.scale
        return BlockVector.from_blocks([v0, theta])

    def certify(self, x0, solver):
        """(gamma, certificate) at x0 for `solver`'s gamma and ball, via `resolve_gamma`.

        Certification is deterministic, so modes that start from the same
        x0 share one certificate, and a step-rule check and the solve it
        guards share it too.
        """
        key = (x0.data.tobytes(), solver.gamma, solver.ball_radius)
        if key not in self._certificates:
            self._certificates[key] = resolve_gamma(self.fidelity, x0, solver)
        return self._certificates[key]

    def natural_image(self, x):
        if self.kind == MULTI_COIL:
            return np.abs(pairs_to_complex(x.extract(1), self.image_shape))
        return (self.scale * x.extract(1)).reshape(self.image_shape)


def balanced_block_scale(model, fidelity, theta0):
    """Unit rescaling (v/s, s*theta) equalizing the two block curvatures.

    The bilinear symmetry A(theta) v = A(s theta)(v/s) leaves measurements
    and per-block relative errors unchanged, while the spectral peaks of
    the initialization determine a scale at which both blocks see
    comparable gradient smoothness; a single step size then drives both.
    """
    v0 = fidelity.adjoint_init(theta0).reshape(model.image_shape)
    peak_v = float(np.abs(np.fft.fft2(v0)).max())
    peak_t = float(np.abs(np.fft.fft2(model._embed(theta0))).max())
    if peak_v <= 0 or peak_t <= 0:
        return 1.0
    return float(np.sqrt(peak_v / peak_t))


def build_problem(cfg, seed_override=None):
    """Synthesize the measurements; build the truth, the initial blocks and
    the work-unit denoisers."""
    p = cfg.problem
    seed = p.seed if seed_override is None else seed_override
    build = {BLIND: _build_deconvolution, MULTI_COIL: _build_multicoil, LINEAR: _build_linear}
    problem = build[p.kind](p, seed)
    denoisers = tuple(build_denoiser(d, s) for d, s in zip(cfg.denoisers, problem.block_scales))
    return dataclasses.replace(problem, denoisers=denoisers)


def _build_deconvolution(p, seed):
    model, kernel = p.model, p.kernel.ravel()
    y = synthesize(model, p.image.ravel(), kernel, p.noise_sigma, seed=seed)
    fid = ConvolutionFidelity(model, y)
    theta0 = kernel if p.theta_init is None else p.theta_init
    if p.perturb is not None:
        rng = np.random.default_rng(seed + 1 if p.perturb_seed is None else p.perturb_seed)
        size = p.perturb * np.linalg.norm(kernel)
        noise = rng.standard_normal(kernel.size)
        theta0 = kernel + size * noise / np.linalg.norm(noise)
    scale = balanced_block_scale(model, fid, theta0) if p.balance_blocks else 1.0
    truth = BlockVector.from_blocks([p.image.ravel() / scale, scale * kernel])
    return Problem(BLIND, fid, truth, p.image, model.image_shape,
                   theta0=scale * theta0, theta_true=scale * kernel, scale=scale)


def _build_multicoil(p, seed):
    model, image = p.model, p.image.astype(np.complex128)
    maps = smooth_coil_maps(model.image_shape, model.num_coils, seed=seed + 7)
    y = synthesize(model, image, maps, p.noise_sigma, seed=seed)
    rng = np.random.default_rng(seed + 1 if p.perturb_seed is None else p.perturb_seed)
    noise_maps = rng.standard_normal(maps.shape) + 1j * rng.standard_normal(maps.shape)
    maps0 = maps + p.perturb * np.linalg.norm(maps) * noise_maps / np.linalg.norm(noise_maps)
    theta_true = complex_to_pairs(maps)
    truth = BlockVector.from_blocks([complex_to_pairs(image), theta_true])
    return Problem(MULTI_COIL, MultiCoilFidelity(model, y), truth, np.abs(image),
                   model.image_shape, complex_to_pairs(maps0), theta_true)


def _build_linear(p, seed):
    A = p.matrix
    if A is None:
        A = np.random.default_rng(seed + 3).standard_normal((p.rows, p.layout.total))
    x_true = np.random.default_rng(seed).standard_normal(p.layout.total)
    model = LinearModel(A)
    y = synthesize(model, x_true, noise_sigma=p.noise_sigma, seed=seed)
    return Problem(LINEAR, LinearFidelity(model, p.layout, y), BlockVector(p.layout, x_true))


def build_denoiser(den, unit_scale=1.0):
    """A configured (natural-unit) denoiser in the work units of its block.

    `unit_scale` converts natural-unit parameters into the work units of
    the (possibly rescaled) block; see `balanced_block_scale`.
    """
    s = unit_scale
    if isinstance(den, SoftThresholdDenoiser):
        return SoftThresholdDenoiser(den.threshold * s)
    if isinstance(den, TvProxDenoiser):
        return TvProxDenoiser(den.weight * s, den.shape, inner_iters=den.inner_iters)
    if isinstance(den, MmseDenoiser):
        return MmseDenoiser(den.prior.scaled(s), den.sigma * s)
    if isinstance(den, InexactDenoiser):
        sch = den.schedule
        schedule = ErrorSchedule(sch.kind, sch.base * s, tuple(v * s for v in sch.values), sch.seed)
        return InexactDenoiser(build_denoiser(den.base, s), schedule, den.block_index)
    return den


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def run(config_path, out_override=None, seed_override=None):
    """Execute the experiment; returns a process exit code."""
    try:
        if seed_override is not None and not (_is_int(seed_override) and seed_override >= 0):
            raise ConfigError(f"--seed-override: must be an integer >= 0, got {seed_override!r}")
        cfg = load_config(config_path)
    except ConfigError as exc:
        return _config_errors([str(exc)])

    try:
        # the step rule is checked on the problem at the seed the run uses,
        # before any output is written
        problem = build_problem(cfg, seed_override=seed_override)
        diagnostics = validate(cfg, problem)
        if diagnostics:
            return _config_errors(diagnostics)
        out_dir = Path(out_override or cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_truth(out_dir, problem)
        metrics_rows = []
        report = {"modes": {}, "checks": {}}
        checks_failed = False

        for label, mode in cfg.modes:
            mode_dir = out_dir / label
            mode_dir.mkdir(exist_ok=True)
            x0 = problem.x0_for(mode)
            gamma, lip = problem.certify(x0, cfg.solver)
            solver_cfg = dataclasses.replace(cfg.solver, gamma=gamma)

            objective = constants = None
            if cfg.theory.enabled and mode == BC_PNP:
                # only the bounds read l_full: the bc-pnp solves flag its
                # power iteration, and the certificate cached for the other
                # modes stays block-only
                lip = with_full_constant(problem.fidelity, x0, lip, solver_cfg.ball_radius)
                objective = ImplicitObjective(problem.fidelity, problem.denoisers, gamma)
                constants = TheoryConstants.from_problem(
                    gamma, problem.fidelity.layout.num_blocks, lip.l_max, lip.l_full,
                    objective.m_max(),
                )

            # theorem 2 reads the mode's residual trace as its seed 0
            result = solve(problem.fidelity, problem.denoisers_for(mode), solver_cfg, x0,
                           truth=problem.truth, objective=objective, lipschitz=lip,
                           full_residual=objective is not None
                           and _checks_theorem2(solver_cfg, cfg.theory))
            result.trace.to_csv(mode_dir / "trace.csv")
            row = _mode_metrics(label, problem, result)
            metrics_rows.append(row)
            _write_mode_outputs(mode_dir, problem, result)
            report["modes"][label] = {
                "mode": mode,
                "gamma": result.gamma,
                "l_max": result.lipschitz.l_max,
                "iterations": len(result.trace),
                "reason": result.reason,
                "flags": result.flags,
                "g_norm_initial": result.g_norm_initial,
                "g_norm_final": result.g_norm_final,
                "denoiser_calls": result.denoiser_calls,
                "gradient_evals": result.gradient_evals,
                "metrics": row,
            }

            if objective is not None:
                checks = _theory_checks(
                    problem, solver_cfg, x0, result, objective, constants, cfg.theory
                )
                report["checks"][label] = checks
                checks_failed = checks_failed or not all(
                    c.get("passed", True) for c in checks.values()
                )

        _write_metrics(out_dir / "metrics.csv", metrics_rows)
        with open(out_dir / "report.json", "w") as fh:
            json.dump(_json_value(report), fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    except (NonFiniteIterateError, OSError, ValueError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    if cfg.theory.strict and checks_failed:
        print("strict mode: a convergence check failed", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _config_errors(diagnostics):
    for d in diagnostics:
        print(f"config error: {d}", file=sys.stderr)
    return EXIT_CONFIG


def _theory_checks(problem, solver_cfg, x0, result, objective, constants, theory):
    """Descent always; the schedule decides which bound check applies.

    `objective` is the one `result` was solved with.  Each check's
    report.json entry holds its report's dataclass fields.
    """
    checks = {"descent": check_descent(result.trace, constants)}

    def rerun(objective=None, full_residual=False, **changes):
        cfg = dataclasses.replace(solver_cfg, **changes)
        return solve(problem.fidelity, problem.denoisers, cfg, x0, objective=objective,
                     lipschitz=result.lipschitz, full_residual=full_residual).trace

    max_iters = solver_cfg.max_iters * theory.reference_multiplier
    f_star = reference_f_star(rerun(objective, max_iters=max_iters))

    if solver_cfg.schedule.kind == "sequential":
        if len(result.trace) >= constants.num_blocks:
            checks["theorem1"] = check_theorem1(result.trace, constants, f_star)
    elif _checks_theorem2(solver_cfg, theory):
        # the check reads residuals, errors and f(x0) only: seed 0 is the run's
        # own solve, the other seeds run without the objective, all share f(x0)
        f_initial = objective.value(x0)[0]
        traces = [result.trace] + [
            rerun(schedule=solver_cfg.schedule.with_seed(solver_cfg.schedule.seed + s),
                  full_residual=True)
            for s in range(1, theory.ensemble_seeds)
        ]
        traces = [dataclasses.replace(tr, f_initial=f_initial) for tr in traces]
        checks["theorem2"] = check_theorem2(traces, constants, f_star)
    return {name: dataclasses.asdict(report) for name, report in checks.items()}


def _checks_theorem2(solver_cfg, theory):
    """Whether a theory run checks theorem 2, which reads every residual
    norm of its ensemble's traces."""
    return solver_cfg.schedule.kind == "random-iid" and bool(theory.ensemble_seeds)


def _mode_metrics(label, problem, result):
    row = dict.fromkeys(METRICS_COLUMNS, float("nan"))
    row["mode"] = label
    if problem.kind == LINEAR:  # no operator block: the error of all of x
        row["rmse_x"] = rmse(result.x.data, problem.truth.data)
    else:
        row["rmse_x"] = rmse(result.x.extract(1), problem.truth.extract(1))
        row["rmse_theta"] = rmse(result.x.extract(2), problem.truth.extract(2))
    if problem.image_shape is not None and min(problem.image_shape) >= 16:
        row["ssim_x"] = ssim(
            problem.natural_image(result.x), problem.image_truth, data_range=1.0
        )
    return row


def _write_truth(out_dir, problem):
    if problem.kind == LINEAR:
        fileio.save_matrix_csv(out_dir / "truth_x.csv", problem.truth.data[None, :])
        return
    fileio.save_matrix_csv(out_dir / "truth_image.csv", problem.truth.extract(1)[None, :])
    fileio.save_matrix_csv(out_dir / "truth_theta.csv", problem.truth.extract(2)[None, :])


def _write_mode_outputs(mode_dir, problem, result):
    if problem.kind == LINEAR:
        fileio.save_matrix_csv(mode_dir / "final_x.csv", result.x.data[None, :])
        return
    fileio.save_matrix_csv(mode_dir / "final_image.csv", result.x.extract(1)[None, :])
    fileio.save_matrix_csv(mode_dir / "final_theta.csv", result.x.extract(2)[None, :])
    if problem.image_shape is not None:
        fileio.write_pgm(mode_dir / "image.pgm", problem.natural_image(result.x))


def _write_metrics(path, rows):
    # the values are the label and Python floats, whose str is their repr
    lines = [METRICS_COLUMNS] + [[str(row[c]) for c in METRICS_COLUMNS] for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("".join(",".join(line) + "\n" for line in lines))


def _json_value(obj):
    """`obj` as plain JSON data: numpy values become Python ones, and every
    non-finite float becomes None, since JSON has no NaN or infinity."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {key: _json_value(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_value(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser():
    """The `bcpnp` command line's argument parser."""
    parser = argparse.ArgumentParser(
        prog="bcpnp",
        description="Block-coordinate plug-and-play experiments for blind "
        "inverse problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="YAML experiment configuration")
    p_run.add_argument("--out", help="override the output directory")
    p_run.add_argument(
        "--seed-override", type=int, help="override the problem seed"
    )

    p_val = sub.add_parser("validate", help="check a config without solving")
    p_val.add_argument("config", help="YAML experiment configuration")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return run(args.config, out_override=args.out, seed_override=args.seed_override)
    diagnostics = validate(args.config)
    for d in diagnostics:
        print(f"config error: {d}")
    if diagnostics:
        return EXIT_CONFIG
    print("config ok")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
