"""Config-driven experiment runner.

One YAML file declares a problem (synthetic or file-based ground truth),
per-block denoisers, the solver modes to compare, optional convergence
checks, and an output directory.  `load_config` parses it once, with every
file it names, into a typed `Config`; both commands consume that parse.
`run` writes per-mode iterate traces (CSV), reconstructed images (PGM +
exact `.npy` arrays), a metrics table (relative RMSE of image and operator
parameters, SSIM), and a JSON report.  `validate` runs `run`'s setup,
which builds the problem, and reports config problems without solving.

Exit codes: 0 success, 1 config error, 2 runtime failure, 3 a strict
convergence check failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import fileio
from .blocks import (
    BlockLayout, BlockSchedule, BlockVector, _norm, complex_to_pairs, pairs_to_complex,
)
from .denoisers import (
    ErrorSchedule, GaussianPrior, GmmPrior, IdentityDenoiser, InexactDenoiser,
    MmseDenoiser, SoftThresholdDenoiser, TvProxDenoiser,
)
from .forward import (
    BlindConvolutionModel, ConvolutionFidelity, LinearFidelity, LinearModel,
    LipschitzEstimate, MultiCoilFidelity, MultiCoilModel, synthesize, with_full_constant,
)
from .solver import NonFiniteIterateError, SolverConfig, resolve_gamma, solve
from .theory import (
    MIN_ENSEMBLE_SEEDS, ImplicitObjective, TheoryConstants, check_descent,
    check_theorem1, check_theorem2, reference_f_star, rmse, ssim,
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
    """The problem section's fields that other sections read, and `build`:
    the Problem at a seed, without its denoisers, from the kind's other
    fields, which it closes over.  Every seeded draw waits for `build`."""

    kind: str
    seed: int
    layout: BlockLayout
    shapes: tuple  # per block, its 2-D shape where it is a real image, else None
    build: Callable[[int], Problem]


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
    denoisers: tuple  # one builder per block, of its unit scale; see `build_denoiser`
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
    except (ValueError, TypeError, KeyError, OSError, ArithmeticError) as exc:
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
    key that nothing read.  All readers of a key share its one child node.
    """

    def __init__(self, data, path, tree=None):
        if not isinstance(data, (dict, type(None))):
            raise ConfigError(f"{path}: must be a mapping, got {data!r}")
        self.data, self.path = data or {}, path
        self.read = set()
        self.children = {}
        self.tree = [] if tree is None else tree
        self.tree.append(self)

    def at(self, key):
        return f"{self.path}.{key}" if self.path else key

    def has(self, key):
        self.read.add(key)
        return self.data.get(key) is not None

    def node(self, key, required=False):
        value = self.get(key, _REQUIRED if required else None)
        if key not in self.children:
            self.children[key] = _Node(value, self.at(key), self.tree)
        return self.children[key]

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


# libyaml's parser where PyYAML was built with it: the same data, parsed faster
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load_config(path):
    """Parse an experiment YAML file, and every file it names, into a Config.

    Range rules stay with the objects and functions that enforce them; the
    parser builds those objects, so the first unusable field raises
    ConfigError("<dotted.field>: <reason>").  A key that no rule read, a
    misspelt or misplaced one, is then an unknown key.
    """
    try:
        with open(path) as fh:
            data = yaml.load(fh, Loader=_YAML_LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except (yaml.YAMLError, ValueError) as exc:
        # a parser's message spans lines; a diagnostic is one line
        raise ConfigError("config parse error: " + " ".join(str(exc).split())) from None
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
    epoch = solver.schedule.num_blocks
    if theory.enabled and solver.schedule.kind == "sequential" and solver.max_iters < epoch:
        raise ConfigError(f"solver.max_iters: theorem 1 checks complete epochs of {epoch} "
                          f"iterations, so a sequential theory run needs at least {epoch}, "
                          f"got {solver.max_iters}")
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
    seed = node.integer("seed", 0)
    sigma = node.number("noise_sigma", 0.0)
    if sigma < 0:
        raise ConfigError(f"{node.at('noise_sigma')}: noise level must be nonnegative")
    parse = {BLIND: _blind_problem, MULTI_COIL: _multi_coil_problem, LINEAR: _linear_problem}
    return ProblemConfig(kind, seed, *parse[kind](node, sigma))


def _blind_problem(node, sigma):
    """A blind-deconvolution problem's (layout, block shapes, builder)."""
    shape = node.integers("image_shape", (64, 64), length=2)
    image = _image_source(node.node("image"), shape)
    kshape = node.integers("kernel_shape", (9, 9), length=2)
    with _at(node.at("kernel_shape")):
        model = BlindConvolutionModel(shape, kshape)
    kernel = _kernel_source(node.node("kernel"), kshape, 1.5).ravel()
    balance = node.flag("balance_blocks", True)
    init = _theta_init(node.node("theta_init"), kshape)

    def build(seed):
        fid = ConvolutionFidelity(model, synthesize(model, image.ravel(), kernel, sigma, seed=seed))
        theta0 = init(kernel, seed)
        scale = balanced_block_scale(model, fid, theta0) if balance else 1.0
        truth = BlockVector.from_blocks([image.ravel() / scale, scale * kernel])
        outputs = (
            ArrayOutput("image", 1, "rmse_x", lambda v: (scale * v).reshape(shape)),
            ArrayOutput("theta", 2, "rmse_theta", lambda t: (t / scale).reshape(kshape)),
        )
        return Problem(fid, truth, outputs, image, theta0=scale * theta0, scale=scale)

    return model.layout, (shape, kshape), build


def _multi_coil_problem(node, sigma):
    """A multi-coil problem's (layout, block shapes, builder)."""
    shape = node.integers("image_shape", (32, 32), length=2)
    image = _image_source(node.node("image"), shape).astype(np.complex128)
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
    init = _theta_init(node.node("theta_init"), None)

    def build(seed):
        maps = smooth_coil_maps(shape, coils, seed=seed + 7)
        y = synthesize(model, image, maps, sigma, seed=seed)
        truth = BlockVector.from_blocks([complex_to_pairs(image), complex_to_pairs(maps)])
        # each block's real pairs as the complex array they pack
        outputs = (
            ArrayOutput("image", 1, "rmse_x", lambda v: pairs_to_complex(v, shape)),
            ArrayOutput("theta", 2, "rmse_theta", lambda t: pairs_to_complex(t, maps.shape)),
        )
        return Problem(MultiCoilFidelity(model, y), truth, outputs, np.abs(image),
                       theta0=complex_to_pairs(init(maps, seed)))

    return model.layout, (None, None), build


def _linear_problem(node, sigma):
    """A generic-linear problem's (layout, block shapes, builder)."""
    layout = BlockLayout(node.integers("block_sizes", (4, 4)))
    if node.has("matrix"):  # a matrix file has its own rows
        matrix = _nonzero(node.node("matrix"), _read_array(node.node("matrix")), "forward matrix")
        with _at(node.at("matrix")):
            LinearFidelity(LinearModel(matrix), layout, np.zeros(matrix.shape[0]))
        matrix_at = lambda s: matrix
    else:
        rows = node.get("rows", layout.total, "a positive integer", lambda v: _is_int(v) and v > 0)
        matrix_at = lambda s: np.random.default_rng(s + 3).standard_normal((rows, layout.total))

    def build(seed):
        # the noise draws at seed, so the truth takes a stream of its own
        x_true = np.random.default_rng(seed + 2).standard_normal(layout.total)
        model = LinearModel(matrix_at(seed))
        y = synthesize(model, x_true, noise_sigma=sigma, seed=seed)
        return Problem(LinearFidelity(model, layout, y), BlockVector(layout, x_true),
                       (ArrayOutput("x", None, "rmse_x", lambda x: x),))

    return layout, (None,) * layout.num_blocks, build


def _nonzero(node, arr, what):
    """`arr`, read from `<node>.path`, unless its norm is 0: the rule that
    `solve` and `rmse` apply, which an array of subnormal entries fails too."""
    if _norm(arr) == 0:
        raise ConfigError(f"{node.at('path')}: the {what} is all zero, or so small that its "
                          "norm underflows to 0")
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
    """problem.theta_init, as a function of the true operator block and the
    seed: a kernel file, a synthetic kernel, a perturbed truth or, with none
    of these, the true kernel.  Multi-coil (no kernel shape) takes only a
    perturbation of the true maps, by default 0."""
    if kernel_shape is not None:
        if node.has("path"):
            with _at(node.at("path")):
                theta0 = _read_array(node).reshape(kernel_shape)
            theta0 = _nonzero(node, theta0, "initial kernel").ravel()
            return lambda truth, seed: theta0
        if node.has("synthetic") or node.has("width"):
            theta0 = _kernel_source(node, kernel_shape, 2.0).ravel()
            return lambda truth, seed: theta0
        if not node.has("perturb"):
            return lambda truth, seed: truth
    perturb = node.number("perturb", 0.0)
    if perturb < 0:
        raise ConfigError(f"{node.at('perturb')}: perturbation must be nonnegative, got {perturb}")
    fixed_seed = node.integer("seed", None)

    def perturbed(truth, seed):  # along a standard normal draw, complex for a complex truth
        rng = np.random.default_rng(seed + 1 if fixed_seed is None else fixed_seed)
        d = rng.standard_normal(truth.shape)
        if np.iscomplexobj(truth):
            d = d + 1j * rng.standard_normal(truth.shape)
        return truth + perturb * _norm(truth) * d / _norm(d)

    return perturbed


def _parse_denoisers(node, problem):
    """image/theta denoisers, or `blocks: [...]` for generic-linear, each as
    its builder (see `_parse_denoiser`), and the (field, kind) of each
    block's denoiser under any inexact wrapper."""
    sizes = problem.layout.sizes
    if problem.kind == LINEAR:
        specs = node.get("blocks", want=f"a list of {len(sizes)} denoisers (one per block)",
                         ok=lambda v: isinstance(v, list) and len(v) == len(sizes))
        nodes = [_Node(s, f"{node.at('blocks')}[{i}]", node.tree) for i, s in enumerate(specs)]
    else:
        nodes = [node.node("image", required=True), node.node("theta", required=True)]
    indices = range(1, len(sizes) + 1)
    return tuple(zip(*(_parse_denoiser(*args)
                       for args in zip(nodes, sizes, problem.shapes, indices))))


def _parse_denoiser(node, size, shape, block_index):
    """Block `block_index`'s denoiser as a function of its block's unit
    scale `s`, which builds it from its natural-unit parameters times `s`
    (see `balanced_block_scale`), and the (field, kind) of the denoiser
    under any inexact wrapper.  Each constructor checks its ranges, here at
    scale 1 and in `build_problem` at the block's; either is a ConfigError."""
    kind = node.string("kind", options=DENOISER_KINDS)
    field, unwrapped = node.path, (node.path, kind)
    if kind == "identity":
        make = lambda s: IdentityDenoiser()
    elif kind == "soft-threshold":
        threshold, field = node.number("threshold"), node.at("threshold")
        make = lambda s: SoftThresholdDenoiser(threshold * s)
    elif kind == "tv-prox":
        if shape is None:
            raise ConfigError(f"{node.at('kind')}: tv-prox needs a real 2-D image block")
        if min(shape) < 2:
            raise ConfigError(
                f"{node.at('kind')}: tv-prox needs an image at least 2 pixels on each side,"
                f" got {shape[0]}x{shape[1]}"
            )
        weight, inner_iters = node.number("weight"), node.integer("inner_iters", 30)
        field = node.at("weight")
        make = lambda s: TvProxDenoiser(weight * s, shape, inner_iters=inner_iters)
    elif kind == "inexact":
        sch = node.node("schedule")
        schedule = _with_fields(
            ErrorSchedule(), sch, kind=sch.string("kind", "zero"), base=sch.number("base", 0.0),
            values=sch.numbers("values", ()), seed=sch.integer("seed", 0),
        )
        base, unwrapped = _parse_denoiser(node.node("base", required=True), size, shape,
                                          block_index)

        def make(s):
            scaled = ErrorSchedule(schedule.kind, schedule.base * s,
                                   tuple(v * s for v in schedule.values), schedule.seed)
            return InexactDenoiser(base(s), scaled, block_index)
    else:
        prior = _parse_prior(node.node("prior"), kind, size, shape)
        sigma, field = node.number("sigma"), node.at("sigma")
        make = lambda s: MmseDenoiser(prior.scaled(s), sigma * s)

    def build(s):
        with _at(field):
            return make(s)

    # a denoiser that cannot act on its block (a prior of another
    # dimension) fails here rather than mid-run
    den = build(1.0)
    with _at(node.path):
        den.apply(np.zeros(size))
    return build, unwrapped


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

    The parse, the problem (`problem`, or the one at the config's seed)
    and, with convergence checks, every mode's start (`Problem.start`) on
    it, which stays there for the run: one diagnostic per mode that cannot
    start.  An empty list means `run` can start.
    """
    try:
        cfg = config if isinstance(config, Config) else load_config(config)
        if problem is None:
            problem = build_problem(cfg)
    except ConfigError as exc:
        return [str(exc)]
    if not cfg.theory.enabled:
        return []
    diagnostics = []
    for label, mode in cfg.modes:
        try:
            problem.start(label, mode, cfg)
        except ConfigError as exc:
            diagnostics.append(str(exc))
    return diagnostics


# ---------------------------------------------------------------------------
# problem construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArrayOutput:
    """An array of the iterate that a run writes, as `truth_<name>.npy` and
    `<mode>/final_<name>.npy`, and the metrics column of its relative error.

    The metrics score the work-unit values (`of`); the file holds
    `natural` of them (`array`): natural units, in the array's own shape
    and dtype.
    """

    name: str
    block: int | None  # None: all of x
    column: str
    natural: Callable[[np.ndarray], np.ndarray]

    def of(self, x: BlockVector):
        return x.data if self.block is None else x.extract(self.block)

    def array(self, x: BlockVector):
        """The array of `x` that its file holds."""
        return self.natural(self.of(x))


@dataclass(frozen=True)
class ModeStart:
    """What a mode's solve starts from: x0, the certificate at x0 and the
    solver config with its gamma.  On a theory run's bc-pnp mode, also the
    implicit objective and the bound constants, and the certificate
    carries l_full."""

    x0: BlockVector
    lip: LipschitzEstimate
    solver: SolverConfig
    objective: ImplicitObjective | None
    constants: TheoryConstants | None


@dataclass(frozen=True)
class Problem:
    """Measurements, truth and initial parameter block in work units.

    Blind deconvolution works in blocks rescaled to (v / scale, scale *
    theta), see `balanced_block_scale`; the other kinds have scale 1.
    `outputs` declares the array outputs, the image first where there is
    one.  Generic-linear problems have neither an image nor a parameter
    block, and write all of x as their one array output.  `denoisers`
    holds one denoiser per block in those work units.
    """

    fidelity: object
    truth: BlockVector
    outputs: tuple  # of ArrayOutput
    image_truth: np.ndarray | None = None  # natural units, for SSIM
    theta0: np.ndarray | None = None
    scale: float = 1.0
    denoisers: tuple = ()
    # (x0 bytes, gamma, ball radius) -> (gamma, certificate); see `certify`
    _certificates: dict = dataclasses.field(default_factory=dict, compare=False, repr=False)
    # mode -> ModeStart of the config the problem was built from; see `start`
    _starts: dict = dataclasses.field(default_factory=dict, init=False, compare=False, repr=False)

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
        theta = self.truth.block(2) if mode == PNP_ORACLE_THETA else self.theta0
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

    def start(self, label, mode, cfg):
        """The ModeStart of `mode`, written `label` in `cfg`; built once.

        With convergence checks, a gamma at or above 1/L_max of the
        certificate at x0 (the step rule) and, on bc-pnp, a bound constant
        that is not finite are ConfigErrors.
        """
        if mode in self._starts:
            return self._starts[mode]
        x0 = self.x0_for(mode)
        gamma, lip = self.certify(x0, cfg.solver)
        objective = constants = None
        if cfg.theory.enabled and lip.exceeded_by(gamma):
            raise ConfigError(f"solver.gamma: step size violates the convergence step rule at "
                              f"the start of mode {label} (gamma={gamma} >= "
                              f"1/L_max={1.0 / lip.l_max:.6g})")
        if cfg.theory.enabled and mode == BC_PNP:
            # only the bounds read l_full: the bc-pnp report flags its power
            # iteration, and the certificate cached for the other modes
            # stays block-only
            lip = with_full_constant(self.fidelity, x0, lip, cfg.solver.ball_radius)
            objective = ImplicitObjective(self.fidelity, self.denoisers, gamma)
            with _at("theory_checks.enabled"):
                constants = TheoryConstants.from_problem(
                    gamma, self.fidelity.layout.num_blocks, lip.l_max, lip.l_full,
                    objective.m_max(),
                )
        self._starts[mode] = ModeStart(x0, lip, dataclasses.replace(cfg.solver, gamma=gamma),
                                       objective, constants)
        return self._starts[mode]

    def natural_image(self, x):
        """The image of `x` in natural units; its magnitude, where it is complex."""
        image = self.outputs[0].array(x)
        return np.abs(image) if np.iscomplexobj(image) else image


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
    the work-unit denoisers.  Measurements that overflow are a config error."""
    p = cfg.problem
    problem = p.build(p.seed if seed_override is None else seed_override)
    if not np.isfinite(problem.fidelity.y).all():
        raise ConfigError("problem.noise_sigma: the synthesized measurements overflow")
    denoisers = tuple(build_denoiser(d, s) for d, s in zip(cfg.denoisers, problem.block_scales))
    return dataclasses.replace(problem, denoisers=denoisers)


def build_denoiser(make, unit_scale=1.0):
    """A configured denoiser (its builder; see `_parse_denoiser`) in its
    block's work units, `unit_scale` times natural units."""
    return make(unit_scale)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def run(config_path, out_override=None, seed_override=None):
    """Execute the experiment; returns a process exit code."""
    try:
        if seed_override is not None and not (_is_int(seed_override) and seed_override >= 0):
            raise ConfigError(f"--seed-override: must be an integer >= 0, got {seed_override!r}")
        cfg = load_config(config_path)
        # the problem, and a theory run's starts on it, are built and checked at
        # the seed the run uses, before any output is written; the loop reads them
        problem = build_problem(cfg, seed_override=seed_override)
        diagnostics = validate(cfg, problem)
        if diagnostics:
            return _config_errors(diagnostics)
        out_dir = Path(out_override or cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        _save_outputs(out_dir, "truth", problem, problem.truth)
        metrics_rows = []
        report = {"modes": {}, "checks": {}}
        checks_failed = False

        for label, mode in cfg.modes:
            mode_dir = out_dir / label
            mode_dir.mkdir(exist_ok=True)
            start = problem.start(label, mode, cfg)
            gamma, lip, objective = start.solver.gamma, start.lip, start.objective
            # theorem 2 reads the mode's residual trace as its seed 0
            result = solve(problem.fidelity, problem.denoisers_for(mode), start.solver, start.x0,
                           truth=problem.truth, objective=objective,
                           full_residual=objective is not None
                           and _checks_theorem2(start.solver, cfg.theory))
            result.trace.to_csv(mode_dir / "trace.csv")
            row = _mode_metrics(label, problem, result)
            metrics_rows.append(row)
            _save_outputs(mode_dir, "final", problem, result.x)
            if problem.image_truth is not None:
                fileio.write_pgm(mode_dir / "image.pgm", problem.natural_image(result.x))
            report["modes"][label] = {
                "mode": mode,
                "gamma": gamma,
                "l_max": lip.l_max,
                "iterations": len(result.trace),
                "reason": result.reason,
                "flags": {"left_ball": result.left_ball,
                          "power_iter_warning": not lip.converged,
                          "gamma_exceeds_rule": lip.exceeded_by(gamma)},
                "g_norm_initial": math.sqrt(result.trace.g_norm2[0]),
                "g_norm_final": result.g_norm_final,
                "denoiser_calls": result.denoiser_calls,
                "gradient_evals": result.gradient_evals,
                "metrics": row,
            }

            if objective is not None:
                checks = _theory_checks(problem, start, result, cfg.theory)
                report["checks"][label] = checks
                checks_failed = checks_failed or not all(
                    c.get("passed", True) for c in checks.values()
                )

        fileio.write_table(out_dir / "metrics.csv", METRICS_COLUMNS,
                           ([row[c] for c in METRICS_COLUMNS] for row in metrics_rows))
        with open(out_dir / "report.json", "w") as fh:
            json.dump(_json_value(report), fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    except ConfigError as exc:
        return _config_errors([str(exc)])
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


def _theory_checks(problem, start, result, theory):
    """Descent always; the schedule decides which bound check applies.

    `result` is the solve from `start`, with its objective.  Only a bound check
    reads f*, from the mode's trajectory continued to
    `reference_multiplier * max_iters` iterations in all; a mode that
    stopped on tolerance, or a multiplier of 1, needs no further solve.
    Each check's report.json entry holds its report's dataclass fields.
    """
    solver_cfg, objective, constants = start.solver, start.objective, start.constants
    checks = {"descent": check_descent(result.trace, constants)}

    def f_star():
        if result.reason == "tolerance" or theory.reference_multiplier == 1:
            return reference_f_star(result.trace)
        cfg = dataclasses.replace(solver_cfg,
                                  max_iters=solver_cfg.max_iters * theory.reference_multiplier)
        more = solve(problem.fidelity, problem.denoisers, cfg, result.x, objective=objective,
                     start_iter=len(result.trace) + 1)
        return reference_f_star(result.trace, more.trace)

    def seed_trace(s):
        schedule = solver_cfg.schedule.with_seed(solver_cfg.schedule.seed + s)
        trace = solve(problem.fidelity, problem.denoisers,
                      dataclasses.replace(solver_cfg, schedule=schedule), start.x0,
                      full_residual=True).trace
        return dataclasses.replace(trace, f_initial=result.trace.f_initial)

    if solver_cfg.schedule.kind == "sequential":
        # `load_config` keeps max_iters at one epoch or more, and a solve
        # stops on tolerance only once every block has moved
        checks["theorem1"] = check_theorem1(result.trace, constants, f_star())
    elif _checks_theorem2(solver_cfg, theory):
        reference = f_star()
        # the check reads residuals, errors and f(x0) only: seed 0 is the run's
        # own solve, the other seeds run without the objective and share the
        # f(x0) that the mode's solve recorded
        traces = [result.trace] + [seed_trace(s) for s in range(1, theory.ensemble_seeds)]
        checks["theorem2"] = check_theorem2(traces, constants, reference)
    return {name: dataclasses.asdict(report) for name, report in checks.items()}


def _checks_theorem2(solver_cfg, theory):
    """Whether a theory run checks theorem 2, which reads every residual
    norm of its ensemble's traces."""
    return solver_cfg.schedule.kind == "random-iid" and bool(theory.ensemble_seeds)


def _mode_metrics(label, problem, result):
    row = dict.fromkeys(METRICS_COLUMNS, float("nan"))
    row["mode"] = label
    for out in problem.outputs:
        row[out.column] = rmse(out.of(result.x), out.of(problem.truth))
    if problem.image_truth is not None and min(problem.image_truth.shape) >= 16:
        row["ssim_x"] = ssim(
            problem.natural_image(result.x), problem.image_truth, data_range=1.0
        )
    return row


def _save_outputs(directory, prefix, problem, x):
    """Each array output of `x` as `<prefix>_<name>.npy`."""
    for out in problem.outputs:
        fileio.save_array(directory / f"{prefix}_{out.name}.npy", out.array(x))


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
    # every non-finite value that reaches an output or a check is caught and
    # named in one message line, which numpy's warnings would only precede
    with np.errstate(all="ignore"):
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
