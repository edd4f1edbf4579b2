"""Typed config parsing: shipped configs, field-named errors, and a
property test that `validate` and `run` agree on every mutated config."""

import copy
import tempfile
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bcpnp import cli, fileio

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))
# the benchmark's pinned copies must parse too, so a new parse rule that
# rejects one fails here rather than in the benchmark
BENCHMARK_CONFIGS = sorted((ROOT / "benchmarks" / "configs").glob("*.yaml"))
THEORY = next(p for p in CONFIGS if p.stem == "theory_checks")
MULTI_COIL = next(p for p in CONFIGS if p.stem == "multi_coil")


def _write(tmp_path, cfg, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def _set(cfg, dotted, value):
    *parents, key = dotted.split(".")
    reduce(getitem, parents, cfg)[key] = value


def _drop(cfg, dotted):
    *parents, key = dotted.split(".")
    del reduce(getitem, parents, cfg)[key]


def _replace(cfg, path):
    """Make `cfg` a copy of the config at `path`."""
    cfg.clear()
    cfg.update(yaml.safe_load(path.read_text()))


def _linear(cfg, extra):
    """Make `cfg` a generic-linear problem whose second block's denoiser
    carries the keys `extra` besides its own."""
    prior = {"kind": "gaussian-mmse", "sigma": 0.3, "prior": {"mean": "zeros", "var": 1.0}}
    cfg["problem"] = {"kind": "generic-linear", "rows": 10, "block_sizes": [4, 4]}
    cfg["denoisers"] = {"blocks": [dict(prior), {**prior, **extra}]}


@pytest.mark.parametrize("path", CONFIGS + BENCHMARK_CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_parses_and_builds(path):
    """Every shipped and benchmark config validates and builds its problem
    and denoisers (without solving)."""
    assert cli.validate(path) == []
    cfg = cli.load_config(path)
    problem = cli.build_problem(cfg)
    assert len(problem.denoisers) == problem.fidelity.layout.num_blocks
    for _, mode in cfg.modes:
        assert problem.x0_for(mode).layout == problem.fidelity.layout


def test_inexact_denoisers_carry_their_block_index(tmp_path):
    """Each block's inexact denoiser draws its perturbation under its own
    block index."""
    from test_cli import write_config

    def inexact(base):
        return {"kind": "inexact", "schedule": {"kind": "constant", "base": 0.01}, "base": base}

    path = write_config(tmp_path, **{
        "denoisers.image": inexact({"kind": "tv-prox", "weight": 0.002}),
        "denoisers.theta": inexact({"kind": "identity"}),
    })
    denoisers = cli.build_problem(cli.load_config(path)).denoisers
    assert [d.block_index for d in denoisers] == [1, 2]


_SCHEDULE = {"kind": "custom", "base": 0.03, "values": [0.01, 0.02], "seed": 4}
_GAUSSIAN = {"kind": "gaussian-mmse", "sigma": 0.25,
             "prior": {"mean": {"constant": 0.3}, "var": 0.04}}
_SOFT = {"kind": "soft-threshold", "threshold": 0.05}
# each denoiser kind as a function of its block's size
DENOISER_SPECS = {
    "identity": lambda dim: {"kind": "identity"},
    "soft-threshold": lambda dim: _SOFT,
    "tv-prox": lambda dim: {"kind": "tv-prox", "weight": 0.002, "inner_iters": 5},
    "gaussian-mmse": lambda dim: _GAUSSIAN,
    "gmm-mmse": lambda dim: {"kind": "gmm-mmse", "sigma": 0.1, "prior": {
        "weights": [0.5, 0.5], "means": [[0.2] * dim, [-0.1] * dim], "variances": [0.01, 0.02]}},
    "inexact-gaussian-mmse": lambda dim: {"kind": "inexact", "schedule": _SCHEDULE,
                                          "base": _GAUSSIAN},
    "inexact-soft-threshold": lambda dim: {"kind": "inexact", "schedule": _SCHEDULE,
                                           "base": _SOFT},
}


def _assert_scaled(den, spec, factor, block_index, dim):
    """`den` carries exactly the natural-unit parameters of `spec` times `factor`."""
    kind = spec["kind"]
    if kind == "inexact":
        sch = spec["schedule"]
        assert den.block_index == block_index
        assert (den.schedule.kind, den.schedule.seed) == (sch["kind"], sch["seed"])
        assert den.schedule.base == sch["base"] * factor
        assert den.schedule.values == tuple(v * factor for v in sch["values"])
        _assert_scaled(den.base, spec["base"], factor, block_index, dim)
    elif kind == "identity":
        assert isinstance(den, cli.IdentityDenoiser)
    elif kind == "soft-threshold":
        assert den.threshold == spec["threshold"] * factor
    elif kind == "tv-prox":
        assert den.weight == spec["weight"] * factor
        assert den.inner_iters == spec["inner_iters"]
    else:
        prior = spec["prior"]
        assert den.sigma == spec["sigma"] * factor
        if kind == "gaussian-mmse":
            assert np.array_equal(den.prior.mean, np.full(dim, prior["mean"]["constant"]) * factor)
            assert den.prior.var == prior["var"] * factor**2
        else:
            assert np.array_equal(den.prior.weights, prior["weights"])
            assert np.array_equal(den.prior.means, np.array(prior["means"]) * factor)
            assert np.array_equal(den.prior.variances, np.array(prior["variances"]) * factor**2)


@pytest.mark.parametrize("block", ["image", "theta"])
@pytest.mark.parametrize("kind", DENOISER_SPECS)
def test_denoiser_parameters_scale_with_their_block(kind, block, tmp_path):
    """On a balanced blind problem each block's denoiser carries exactly its
    natural-unit parameters times its block's factor: 1 / scale on the
    image block and scale on the kernel block."""
    from test_cli import write_config

    index, dim = (0, 16 * 16) if block == "image" else (1, 3 * 3)
    spec = DENOISER_SPECS[kind](dim)
    problem = cli.build_problem(cli.load_config(
        write_config(tmp_path, **{f"denoisers.{block}": spec})))
    assert problem.scale != 1.0
    factor = 1 / problem.scale if block == "image" else problem.scale
    _assert_scaled(problem.denoisers[index], spec, factor, index + 1, dim)


PROBES = {
    "denoisers.image.sigma": lambda c: _drop(c, "denoisers.image.sigma"),
    "denoisers.image.weight": lambda c: _set(c, "denoisers.image", {"kind": "tv-prox"}),
    "denoisers.image.prior.var": lambda c: _set(c, "denoisers.image.prior.var", -1),
    "solver.schedule": lambda c: _set(c, "solver.schedule", "random-iid"),
    "solver.modes": lambda c: _set(c, "solver.modes", "bc-pnp"),
    "solver.max_iters": lambda c: _set(c, "solver.max_iters", "many"),
    "solver.stop_tol": lambda c: _set(c, "solver.stop_tol", -1),
    "solver.ball_radius": lambda c: _set(c, "solver.ball_radius", 0.5),
    "problem.noise_sigma: noise level must be nonnegative": lambda c: _set(
        c, "problem.noise_sigma", -0.01
    ),
    "problem.image": lambda c: _set(c, "problem.image", {"path": "/nonexistent.pgm"}),
    "problem.theta_init.perturb: perturbation must be nonnegative": lambda c: _set(
        c, "problem.theta_init.perturb", -0.2
    ),
    "problem.theta_init.perturb": lambda c: (
        _replace(c, MULTI_COIL),
        _set(c, "problem.theta_init.perturb", -0.15),
    ),
    "problem.mask.accel: must be an integer >= 1, got 0": lambda c: (
        _replace(c, MULTI_COIL),
        _set(c, "problem.mask.accel", 0),
    ),
    "denoisers.image.inner_iters: must be an integer >= 0, got -3": lambda c: _set(
        c, "denoisers.image", {"kind": "tv-prox", "weight": 0.1, "inner_iters": -3}
    ),
    "denoisers.image.inner_iters: must be an integer >= 0, got 2.7": lambda c: _set(
        c, "denoisers.image", {"kind": "tv-prox", "weight": 0.1, "inner_iters": 2.7}
    ),
    "theory_checks": lambda c: _set(c, "theory_checks", [1]),
    "denoisers": lambda c: _set(c, "denoisers", [1, 2]),
    "denoisers.theta": lambda c: _drop(c, "denoisers.theta"),
    "theory_checks.ensemble_seeds": lambda c: (
        _set(c, "solver.schedule.kind", "random-iid"),
        _set(c, "theory_checks.ensemble_seeds", 5),
    ),
    "theory_checks.ensemble_seeds: the theorem-2 ensemble needs the random-iid schedule": (
        lambda c: _set(c, "theory_checks.ensemble_seeds", 20)
    ),
    # theorem 1 reads complete epochs of the sequential schedule's two blocks
    "solver.max_iters: theorem 1 checks complete epochs of 2 iterations": lambda c: _set(
        c, "solver.max_iters", 1
    ),
    "theory_checks.reference_multiplier: must be an integer >= 1": lambda c: _set(
        c, "theory_checks.reference_multiplier", 0
    ),
    # degenerate synthetic sources, which would make NaN blocks at run time
    "problem.kernel.width": lambda c: _set(
        c, "problem.kernel", {"synthetic": "gaussian", "width": 0}
    ),
    "problem.kernel.width: width 1e-170 is too small": lambda c: _set(
        c, "problem.kernel.width", 1e-170
    ),
    "problem.theta_init.width": lambda c: _set(
        c, "problem.theta_init", {"synthetic": "gaussian", "width": 0}
    ),
    "denoisers.theta.prior.mean.gaussian-kernel": lambda c: _set(
        c, "denoisers.theta.prior.mean", {"gaussian-kernel": 0}
    ),
    "problem.image: a synthetic image needs at least two pixels": lambda c: (
        _set(c, "problem.image_shape", [1, 1]),
        _set(c, "problem.kernel_shape", [1, 1]),
    ),
    "denoisers.image.kind: tv-prox needs an image at least 2 pixels on each side": lambda c: (
        _set(c, "problem.image_shape", [1, 64]),
        _set(c, "problem.kernel_shape", [1, 9]),
        _set(c, "denoisers.image", {"kind": "tv-prox", "weight": 0.002}),
    ),
    # a key that nothing reads: misspelt, misplaced, or of another problem kind
    "solver.max_iter: unknown key": lambda c: _set(c, "solver.max_iter", 20),
    "theory_check: unknown key": lambda c: c.update(theory_check=c.pop("theory_checks")),
    "problem.theta_init.path: unknown key": lambda c: (
        _replace(c, MULTI_COIL),
        _set(c, "problem.theta_init", {"path": "/nonexistent.csv"}),
    ),
    "denoisers.blocks[1].weight: unknown key": lambda c: _linear(c, {"weight": 1.0}),
}


def _assert_both_commands_name(field, cfg, tmp_path, capsys):
    """Both commands exit 1 and name the offending field; nothing raises."""
    path = _write(tmp_path, cfg)
    assert cli.main(["validate", str(path)]) == cli.EXIT_CONFIG
    assert f"config error: {field}" in capsys.readouterr().out
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert f"config error: {field}" in capsys.readouterr().err


@pytest.mark.parametrize("field", PROBES)
def test_config_error_names_field(field, tmp_path, capsys):
    cfg = yaml.safe_load(THEORY.read_text())
    PROBES[field](cfg)
    _assert_both_commands_name(field, cfg, tmp_path, capsys)


def test_overflowing_denoiser_sigma_names_field(tmp_path, capsys):
    """A sigma whose square overflows while the parser tries the denoiser
    out is a config error of that denoiser, not an OverflowError."""
    cfg = yaml.safe_load((ROOT / "configs" / "blind_deblurring.yaml").read_text())
    _set(cfg, "denoisers.theta.sigma", 1.0e300)
    _assert_both_commands_name("denoisers.theta: ", cfg, tmp_path, capsys)


def test_denoiser_sigma_that_underflows_at_its_block_scale_names_field(tmp_path, capsys):
    """A sigma valid in natural units that underflows to 0 in its block's
    work units (the image block's unit scale is below 1 here) is a config
    error of that denoiser in both commands, not a traceback or a runtime
    failure."""
    cfg = yaml.safe_load((ROOT / "configs" / "blind_deblurring.yaml").read_text())
    _set(cfg, "denoisers.image", {"kind": "gaussian-mmse", "sigma": 5.0e-324,
                                  "prior": {"mean": "zeros", "var": 1.0}})
    _assert_both_commands_name("denoisers.image.sigma: ", cfg, tmp_path, capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("theory", [False, True], ids=["theory-off", "theory-on"])
@pytest.mark.parametrize("kind", ["blind", "multi-coil", "generic-linear"])
def test_overflowing_measurements_name_noise_sigma(kind, theory, tmp_path, capsys):
    """Measurements that overflow are an error of problem.noise_sigma in
    both commands, with or without theory checks; `run` writes nothing."""
    cfg = yaml.safe_load(THEORY.read_text())
    if kind == "multi-coil":
        _replace(cfg, MULTI_COIL)
    elif kind == "generic-linear":
        _linear(cfg, {})
        cfg["problem"]["rows"] = 64
    cfg["problem"]["noise_sigma"] = 1.0e308
    cfg["theory_checks"] = {"enabled": theory}
    path, out = _write(tmp_path, cfg), tmp_path / "out"
    error = "config error: problem.noise_sigma: the synthesized measurements overflow\n"
    assert cli.main(["validate", str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().out == error
    assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == error
    assert not out.exists()


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")
@pytest.mark.parametrize("path", CONFIGS + BENCHMARK_CONFIGS, ids=lambda p: p.stem)
def test_libyaml_parses_like_pyyaml(path, count_calls):
    """`load_config` reads through libyaml where PyYAML has it, and both
    parsers give every shipped config as the same data, types included."""
    loads = count_calls(yaml, "load")
    cli.load_config(path)
    assert [kwargs.get("Loader", args[-1]) for args, kwargs in loads] == [yaml.CSafeLoader]
    text = path.read_text()
    data = yaml.load(text, Loader=yaml.CSafeLoader)
    assert repr(data) == repr(yaml.load(text, Loader=yaml.SafeLoader))


def test_malformed_yaml_is_one_config_error_line(tmp_path, capsys):
    """A file that is not YAML exits 1 in both commands with one message
    line; `run` writes nothing."""
    path, out = tmp_path / "bad.yaml", tmp_path / "out"
    path.write_text("problem:\n  kind: [blind-deconvolution\n  seed: a: b\n")
    assert cli.main(["validate", str(path)]) == cli.EXIT_CONFIG
    printed = capsys.readouterr().out
    assert printed.startswith("config error: config parse error: ")
    assert printed.count("\n") == 1 and '"' + str(path) + '", line 2' in printed
    assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == printed
    assert not out.exists()


@pytest.mark.parametrize("source, shape", [("image", (8, 8)), ("kernel", (3, 3)),
                                           ("theta_init", (3, 3))])
def test_non_finite_file_entry_names_field(source, shape, tmp_path, capsys):
    """An `inf` in a matrix file is an error of the field naming the file,
    not a non-finite iterate at run time."""
    values = np.full(shape, 0.1)
    values[1, 1] = np.inf
    csv = tmp_path / f"{source}.csv"
    fileio.save_matrix_csv(csv, values)
    cfg = yaml.safe_load(THEORY.read_text())
    cfg["problem"][source] = {"path": str(csv)}
    _assert_both_commands_name(f"problem.{source}.path", cfg, tmp_path, capsys)


_ZERO_NORM = "is all zero, or so small that its norm underflows to 0"


@pytest.mark.parametrize("config, source, rule, entry, checks", [
    (THEORY, "image", f"the ground-truth image {_ZERO_NORM}", 0.0, True),
    (THEORY, "kernel", f"the kernel {_ZERO_NORM}", 0.0, True),
    (THEORY, "theta_init", f"the initial kernel {_ZERO_NORM}", 0.0, True),
    (MULTI_COIL, "mask", "mask samples no frequency", 0.0, True),
    # one subnormal entry: not all zero, but its norm underflows to 0, which
    # `solve` refuses (or, for the initial kernel, leaves l_max at 0)
    (THEORY, "image", f"the ground-truth image {_ZERO_NORM}", 1e-320, True),
    (THEORY, "theta_init", f"the initial kernel {_ZERO_NORM}", 1e-320, False),
], ids=["image", "kernel", "theta_init", "mask", "image-subnormal", "theta_init-subnormal"])
def test_all_zero_file_names_field(config, source, rule, entry, checks, tmp_path, capsys):
    """An all-zero truth, initial kernel or sampling mask, or one whose norm
    underflows, would fail at run time, after the outputs are started; the
    parse rejects it and `run` writes nothing."""
    cfg = yaml.safe_load(config.read_text())
    problem = cfg["problem"]
    kernel = source in ("kernel", "theta_init")
    values = np.zeros(problem["kernel_shape"] if kernel else problem["image_shape"])
    values[1, 1] = entry
    csv = tmp_path / f"{source}.csv"
    fileio.save_matrix_csv(csv, values)
    problem[source] = {"path": str(csv)}
    if not checks:
        cfg["theory_checks"]["enabled"] = False
    _assert_both_commands_name(f"problem.{source}.path: {rule}", cfg, tmp_path, capsys)
    assert not (tmp_path / "out").exists()


def test_all_zero_matrix_names_field(tmp_path, capsys):
    """A generic-linear forward matrix of zeros measures nothing, whatever
    the step size: the parse rejects it and `run` writes nothing."""
    cfg = yaml.safe_load(THEORY.read_text())
    _linear(cfg, {})
    csv = tmp_path / "matrix.csv"
    fileio.save_matrix_csv(csv, np.zeros((10, 8)))
    cfg["problem"]["matrix"] = {"path": str(csv)}
    rule = f"problem.matrix.path: the forward matrix {_ZERO_NORM}"
    _assert_both_commands_name(rule, cfg, tmp_path, capsys)
    assert not (tmp_path / "out").exists()


def _linear_with_matrix(tmp_path):
    """The theory config as a generic-linear problem on a 10x8 matrix file."""
    cfg = yaml.safe_load(THEORY.read_text())
    _linear(cfg, {})
    del cfg["problem"]["rows"]
    csv = tmp_path / "matrix.csv"
    fileio.save_matrix_csv(csv, np.random.default_rng(0).standard_normal((10, 8)))
    cfg["problem"]["matrix"] = {"path": str(csv)}
    return cfg


def test_matrix_file_runs(tmp_path, capsys):
    """A valid matrix file passes both commands; its rows are the problem's."""
    path = _write(tmp_path, _linear_with_matrix(tmp_path))
    assert cli.main(["validate", str(path)]) == cli.EXIT_OK
    assert "config ok" in capsys.readouterr().out
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert cli.build_problem(cli.load_config(path)).fidelity.y.size == 10


def test_rows_beside_a_matrix_file_is_unknown(tmp_path, capsys):
    """A matrix file fixes the rows, so `rows` beside it is read by nothing."""
    cfg = _linear_with_matrix(tmp_path)
    cfg["problem"]["rows"] = 4
    _assert_both_commands_name("problem.rows: unknown key", cfg, tmp_path, capsys)


@pytest.mark.parametrize("seeds, accepted", [(0, True), (1, False), (9, False), (10, True)])
def test_theorem2_ensemble_size(seeds, accepted, tmp_path):
    """A random-iid ensemble below the theorem-2 minimum would skip the check
    without notice, so the parser rejects it."""
    cfg = yaml.safe_load(THEORY.read_text())
    _set(cfg, "solver.schedule.kind", "random-iid")
    _set(cfg, "theory_checks.ensemble_seeds", seeds)
    diags = cli.validate(_write(tmp_path, cfg))
    if accepted:
        assert diags == []
    else:
        assert len(diags) == 1 and diags[0].startswith("theory_checks.ensemble_seeds:")


@pytest.mark.parametrize("kind, enabled, max_iters, accepted", [
    ("sequential", True, 1, False), ("sequential", True, 2, True),
    ("sequential", False, 1, True), ("random-iid", True, 1, True),
])
def test_sequential_theory_run_needs_one_epoch(kind, enabled, max_iters, accepted, tmp_path):
    """Theorem 1 reads complete epochs, so a sequential theory run shorter
    than one would drop it; only that combination is rejected."""
    cfg = yaml.safe_load(THEORY.read_text())
    _set(cfg, "solver.schedule.kind", kind)
    _set(cfg, "solver.max_iters", max_iters)
    _set(cfg, "theory_checks.enabled", enabled)
    diags = cli.validate(_write(tmp_path, cfg))
    if accepted:
        assert diags == []
    else:
        assert diags == ["solver.max_iters: theorem 1 checks complete epochs of 2 iterations, "
                         "so a sequential theory run needs at least 2, got 1"]


# ---------------------------------------------------------------------------
# property: validate and run agree on mutated configs, and nothing raises
# ---------------------------------------------------------------------------

MAX_ITERS = 2  # the default of 500 would make each example a full solve


def _base_configs():
    from test_cli import write_config

    with tempfile.TemporaryDirectory() as tmp:
        test_cfg = yaml.safe_load(write_config(Path(tmp)).read_text())
    linear = copy.deepcopy(test_cfg)
    prior = {"kind": "gaussian-mmse", "sigma": 0.3, "prior": {"mean": "zeros", "var": 1.0}}
    linear["problem"] = {"kind": "generic-linear", "rows": 10, "block_sizes": [4, 4]}
    linear["denoisers"] = {"blocks": [dict(prior), copy.deepcopy(prior)]}
    return [yaml.safe_load(p.read_text()) for p in CONFIGS] + [test_cfg, linear]


BASES = _base_configs()
for _cfg in BASES:
    _cfg["solver"]["max_iters"] = MAX_ITERS


def _key_paths(node, prefix=()):
    """Key or index path of every field, section and list entry."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, prefix + (key,))


def _negate(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return -value
    if isinstance(value, str):
        return "-" + value
    if isinstance(value, list):
        return [_negate(v) for v in value]
    return {k: _negate(v) for k, v in value.items()}


RETYPED = {"str": "x", "list": [1], "dict": {"a": 1}, "none": None}


@st.composite
def mutated_configs(draw):
    cfg = copy.deepcopy(draw(st.sampled_from(BASES)))
    path = draw(st.sampled_from(sorted(_key_paths(cfg), key=str)))
    how = draw(st.sampled_from(["drop", "negate", *RETYPED]))
    parent = reduce(getitem, path[:-1], cfg)
    if how == "drop":
        del parent[path[-1]]
    elif how == "negate":
        parent[path[-1]] = _negate(parent[path[-1]])
    else:
        parent[path[-1]] = copy.deepcopy(RETYPED[how])
    if cfg.get("solver") is None:
        cfg["solver"] = {}
    if isinstance(cfg["solver"], dict) and cfg["solver"].get("max_iters") is None:
        cfg["solver"]["max_iters"] = MAX_ITERS
    return cfg


@settings(
    max_examples=100,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutated_configs())
def test_validate_and_run_agree(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp), cfg)
        status_validate = cli.main(["validate", str(path)])
        status_run = cli.main(["run", str(path), "--out", str(Path(tmp) / "out")])
    assert status_validate in (cli.EXIT_OK, cli.EXIT_CONFIG)
    assert status_run in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_RUNTIME, cli.EXIT_CHECK_FAILED)
    assert (status_run == cli.EXIT_CONFIG) == (status_validate == cli.EXIT_CONFIG)
