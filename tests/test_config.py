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


@pytest.mark.parametrize("config, source, rule", [
    (THEORY, "image", "the ground-truth image is all zero"),
    (THEORY, "kernel", "the kernel is all zero"),
    (THEORY, "theta_init", "the initial kernel is all zero"),
    (MULTI_COIL, "mask", "mask samples no frequency"),
], ids=["image", "kernel", "theta_init", "mask"])
def test_all_zero_file_names_field(config, source, rule, tmp_path, capsys):
    """An all-zero truth, initial kernel or sampling mask would fail at run
    time, after the outputs are started; the parse rejects it and `run`
    writes nothing."""
    cfg = yaml.safe_load(config.read_text())
    problem = cfg["problem"]
    kernel = source in ("kernel", "theta_init")
    shape = problem["kernel_shape"] if kernel else problem["image_shape"]
    csv = tmp_path / f"{source}.csv"
    fileio.save_matrix_csv(csv, np.zeros(shape))
    problem[source] = {"path": str(csv)}
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
    rule = "problem.matrix.path: the forward matrix is all zero"
    _assert_both_commands_name(rule, cfg, tmp_path, capsys)
    assert not (tmp_path / "out").exists()


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
