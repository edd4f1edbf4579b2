"""Config-driven runner: validation diagnostics, outputs, determinism."""

import copy
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from bcpnp import cli, fileio, forward, solver
from bcpnp.theory import (
    ImplicitObjective, IterateTrace, TheoryConstants, check_theorem2, reference_f_star,
)


ROOT = Path(__file__).resolve().parents[1]

# the whole problem section, so that no blind-deconvolution key is left over
_MULTICOIL = {
    "problem": {
        "kind": "multi-coil",
        "image_shape": [16, 16],
        "num_coils": 2,
        "image": {"synthetic": "blobs", "seed": 2},
        "mask": {"accel": 2, "center_rows": 4},
        "theta_init": {"perturb": 0.1, "seed": 3},
        "noise_sigma": 0.005,
        "seed": 5,
    },
    "denoisers.image": {"kind": "gaussian-mmse", "sigma": 0.1, "prior": {"mean": "zeros", "var": 1.0}},
    "denoisers.theta": {"kind": "gaussian-mmse", "sigma": 0.1, "prior": {"mean": "zeros", "var": 4.0}},
    "solver.max_iters": 30,
    "solver.ball_radius": 3.0,
}


# an image denoiser with a closed-form implicit objective, so that the
# theory checks can run on `write_config`'s problem
_GAUSSIAN_IMAGE = {"kind": "gaussian-mmse", "sigma": 0.25, "prior": {"mean": "zeros", "var": 0.25}}


def write_config(tmp_path, name="config.yaml", **overrides):
    cfg = {
        "problem": {
            "kind": "blind-deconvolution",
            "image_shape": [16, 16],
            "kernel_shape": [3, 3],
            "image": {"synthetic": "blobs", "seed": 2},
            "kernel": {"synthetic": "gaussian", "width": 1.2},
            "theta_init": {"synthetic": "gaussian", "width": 1.8},
            "noise_sigma": 0.005,
            "seed": 5,
            "balance_blocks": True,
        },
        "denoisers": {
            "image": {"kind": "tv-prox", "weight": 0.002, "inner_iters": 20},
            "theta": {
                "kind": "gaussian-mmse",
                "sigma": 0.01,
                "prior": {"mean": {"gaussian-kernel": 1.5}, "var": 0.0025},
            },
        },
        "solver": {
            "modes": ["bc-pnp"],
            "gamma": "auto",
            "max_iters": 60,
            "stop_tol": 1.0e-7,
            "schedule": {"kind": "sequential", "seed": 0},
            "ball_radius": 2.0,
        },
        "output": {"directory": str(tmp_path / "out")},
    }
    for dotted, value in overrides.items():
        node = cfg
        parts = dotted.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        # a copy, so that a later dotted key never edits a shared override
        node[parts[-1]] = copy.deepcopy(value)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


class TestValidate:
    def test_well_formed_config_has_no_diagnostics(self, tmp_path):
        path = write_config(tmp_path)
        assert cli.validate(path) == []

    def test_kernel_larger_than_image(self, tmp_path):
        path = write_config(tmp_path, **{"problem.kernel_shape": [17, 17]})
        diags = cli.validate(path)
        assert any("exceed" in d for d in diags)

    def test_even_kernel(self, tmp_path):
        path = write_config(tmp_path, **{"problem.kernel_shape": [4, 3]})
        assert any("odd" in d for d in cli.validate(path))

    def test_unknown_mode(self, tmp_path):
        path = write_config(tmp_path, **{"solver.modes": ["bc-pnp", "admm"]})
        assert any("mode" in d for d in cli.validate(path))

    def test_unknown_denoiser_kind(self, tmp_path):
        path = write_config(tmp_path, **{"denoisers.image": {"kind": "bm3d"}})
        assert any("denoiser" in d for d in cli.validate(path))

    def test_step_rule_diagnostic(self, tmp_path):
        """An explicit gamma at 2/L_max with checks enabled is flagged."""
        probe = write_config(tmp_path, name="probe.yaml", **{"denoisers.image": _GAUSSIAN_IMAGE})
        cfg = cli.load_config(probe)
        problem = cli.build_problem(cfg)
        _, lip = problem.certify(problem.x0_for("bc-pnp"), cfg.solver)
        path = write_config(
            tmp_path,
            **{
                "denoisers.image": _GAUSSIAN_IMAGE,
                "solver.gamma": float(2.0 / lip.l_max),
                "theory_checks.enabled": True,
            },
        )
        diags = cli.validate(path)
        assert any("step" in d and "rule" in d for d in diags)

    def test_step_rule_holds_at_every_mode_start(self, tmp_path, capsys):
        """A gamma that the first mode's start allows but bc-pnp's start
        forbids is a config error of solver.gamma that names bc-pnp."""
        theory = ROOT / "configs" / "theory_checks.yaml"
        parsed = cli.load_config(theory)
        problem = cli.build_problem(parsed)
        l_oracle = problem.certify(problem.x0_for("pnp-oracle-theta"), parsed.solver)[1].l_max
        l_bc = problem.certify(problem.x0_for("bc-pnp"), parsed.solver)[1].l_max
        gamma = 0.5 * (1.0 / l_bc + 1.0 / l_oracle)
        assert 1.0 / l_bc < gamma < 1.0 / l_oracle
        cfg = yaml.safe_load(theory.read_text())
        assert cfg["theory_checks"]["strict"]
        cfg["solver"].update(modes=["pnp-oracle-theta", "bc-pnp"], gamma=gamma)
        path = tmp_path / "theory.yaml"
        path.write_text(yaml.safe_dump(cfg))

        diags = cli.validate(path)
        assert len(diags) == 1
        assert diags[0].startswith("solver.gamma:") and "bc-pnp" in diags[0]
        out = tmp_path / "out"
        assert cli.run(path, out_override=out) == cli.EXIT_CONFIG
        assert "config error: solver.gamma:" in capsys.readouterr().err
        assert not out.exists()

    def test_parse_error_reported(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("problem: [unclosed")
        diags = cli.validate(path)
        assert len(diags) == 1 and "parse" in diags[0]


class TestRun:
    def test_minimal_identity_config_converges_immediately(self, tmp_path):
        """Delta kernel, identity denoisers, zero noise: already solved."""
        path = write_config(
            tmp_path,
            **{
                "problem.kernel": {"synthetic": "delta"},
                "problem.theta_init": {"synthetic": "delta"},
                "problem.noise_sigma": 0.0,
                "problem.balance_blocks": False,
                "denoisers.image": {"kind": "identity"},
                "denoisers.theta": {"kind": "identity"},
            },
        )
        assert cli.run(path) == cli.EXIT_OK
        trace = IterateTrace.from_csv(tmp_path / "out" / "bc-pnp" / "trace.csv")
        assert len(trace) <= 2
        metrics = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
        rmse_x = float(metrics[1].split(",")[1])
        assert rmse_x <= 1e-12

    def test_identical_runs_identical_bytes(self, tmp_path):
        path = write_config(tmp_path)
        assert cli.run(path, out_override=tmp_path / "a") == cli.EXIT_OK
        assert cli.run(path, out_override=tmp_path / "b") == cli.EXIT_OK
        for rel in ("bc-pnp/trace.csv", "metrics.csv", "bc-pnp/final_image.npy"):
            assert (tmp_path / "a" / rel).read_bytes() == (
                tmp_path / "b" / rel
            ).read_bytes()

    def test_seed_override_changes_measurements(self, tmp_path):
        path = write_config(tmp_path)
        cli.run(path, out_override=tmp_path / "a")
        cli.run(path, out_override=tmp_path / "b", seed_override=99)
        a = (tmp_path / "a" / "bc-pnp" / "trace.csv").read_bytes()
        b = (tmp_path / "b" / "bc-pnp" / "trace.csv").read_bytes()
        assert a != b

    def test_negative_seed_override_is_a_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path)
        args = ["run", str(path), "--out", str(tmp_path / "out"), "--seed-override", "-1"]
        assert cli.main(args) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: --seed-override: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_config_error_exit_code(self, tmp_path):
        path = write_config(tmp_path, **{"problem.kind": "tomography"})
        assert cli.run(path) == cli.EXIT_CONFIG
        assert cli.run(tmp_path / "missing.yaml") == cli.EXIT_CONFIG

    def test_outputs_recompute_metrics(self, tmp_path):
        """Metrics table entries are recomputable from the emitted files."""
        from bcpnp import rmse

        path = write_config(tmp_path)
        cli.run(path)
        out = tmp_path / "out"
        truth = np.load(out / "truth_image.npy")
        final = np.load(out / "bc-pnp" / "final_image.npy")
        recomputed = rmse(final, truth)
        row = (out / "metrics.csv").read_text().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(recomputed, rel=1e-12)

    def test_theory_checks_in_report(self, tmp_path):
        path = write_config(
            tmp_path,
            **{
                "denoisers.image": _GAUSSIAN_IMAGE,
                "theory_checks.enabled": True,
                "theory_checks.strict": True,
                "solver.max_iters": 40,
                "solver.stop_tol": 1.0e-12,
            },
        )
        assert cli.run(path) == cli.EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        checks = report["checks"]["bc-pnp"]
        assert checks["descent"]["passed"]
        assert checks["theorem1"]["passed"]

    def test_theorem1_runs_after_an_early_tolerance_stop(self, tmp_path):
        """A sequential theory run with a loose tolerance stops only once
        both blocks have moved, so it holds a complete epoch, and a strict
        run checks theorem 1 on it and passes."""
        path = write_config(
            tmp_path,
            **{
                "denoisers.image": _GAUSSIAN_IMAGE,
                "theory_checks.enabled": True,
                "theory_checks.strict": True,
                "solver.stop_tol": 0.5,
            },
        )
        assert cli.run(path) == cli.EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["modes"]["bc-pnp"]["iterations"] >= 2
        assert report["modes"]["bc-pnp"]["reason"] == "tolerance"
        checks = report["checks"]["bc-pnp"]
        assert checks["descent"]["passed"]
        assert checks["theorem1"]["num_epochs"] >= 1
        assert checks["theorem1"]["passed"]

    def test_report_counts_a_lean_sequential_run(self, tmp_path):
        """n iterations of two blocks: every active block is denoised at
        k = 1 and for the final residual, the chosen block alone in
        between, and the fidelity gradient is taken n + 1 times."""
        n = 20
        path = write_config(tmp_path, **{"solver.max_iters": n, "solver.stop_tol": 1e-300,
                                         "solver.modes": ["bc-pnp", "pnp"]})
        assert cli.run(path) == cli.EXIT_OK
        modes = json.loads((tmp_path / "out" / "report.json").read_text())["modes"]
        # beside k = 1 and the final residual, block 1 is denoised at
        # k = 3, 5, ..., n - 1 and block 2 at k = 2, 4, ..., n
        assert modes["bc-pnp"]["iterations"] == n
        assert modes["bc-pnp"]["denoiser_calls"] == [2 + (n // 2 - 1), 2 + n // 2]
        assert sum(modes["bc-pnp"]["denoiser_calls"]) == 2 * 2 + n - 1
        assert modes["bc-pnp"]["gradient_evals"] == n + 1
        assert modes["pnp"]["denoiser_calls"] == [n + 1, 0]
        assert modes["pnp"]["gradient_evals"] == n + 1

    def test_report_g_norm_initial_reads_the_trace(self, tmp_path):
        """report.json's g_norm_initial is the root of the first Gnorm2 row,
        and its left_ball flag is the solve's."""
        path = write_config(tmp_path, **{"solver.modes": ["bc-pnp", "pnp"]})
        assert cli.run(path) == cli.EXIT_OK
        modes = json.loads((tmp_path / "out" / "report.json").read_text())["modes"]
        for label, mode in modes.items():
            trace = IterateTrace.from_csv(tmp_path / "out" / label / "trace.csv")
            assert mode["g_norm_initial"] == np.sqrt(trace.g_norm2[0])
            assert mode["flags"]["left_ball"] is False

    def test_report_is_strict_json(self, tmp_path):
        """The shipped theory config's 8x8 image is below the SSIM size, so
        its `ssim_x` is NaN; the report writes it as null, and a parser
        that accepts no NaN or infinity reads the whole report."""
        cfg = yaml.safe_load((ROOT / "configs" / "theory_checks.yaml").read_text())
        cfg["output"]["directory"] = str(tmp_path / "out")
        path = tmp_path / "theory.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert cli.run(path) == cli.EXIT_OK

        def reject(constant):
            raise ValueError(f"report.json holds {constant}")

        text = (tmp_path / "out" / "report.json").read_text()
        report = json.loads(text, parse_constant=reject)
        assert report["modes"]["bc-pnp"]["metrics"]["ssim_x"] is None
        assert report["checks"]["bc-pnp"]["theorem1"]["passed"]

    def test_report_values_nested_in_arrays_become_null(self):
        value = {"a": np.array([[1.0, np.nan], [np.inf, -np.inf]]), "b": (np.float64("nan"), 2)}
        assert cli._json_value(value) == {"a": [[1.0, None], [None, None]], "b": [None, 2]}

    def test_modes_with_one_start_share_one_certificate(self, tmp_path, count_calls):
        calls = count_calls(solver, "estimate_block_lipschitz")
        path = write_config(tmp_path, **_MULTICOIL, **{"solver.modes": ["bc-pnp", "pnp"]})
        assert cli.run(path) == cli.EXIT_OK
        assert len(calls) == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        a, b = report["modes"]["bc-pnp"], report["modes"]["pnp"]
        assert (a["gamma"], a["l_max"]) == (b["gamma"], b["l_max"])

        # the oracle mode starts from the true kernel: a second certificate
        calls.clear()
        path = write_config(tmp_path, **{"solver.modes": ["pnp-oracle-theta", "bc-pnp", "pnp"],
                                         "solver.max_iters": 5})
        assert cli.run(path) == cli.EXIT_OK
        assert len(calls) == 2

    def test_run_certifies_each_start_when_its_mode_begins(self, tmp_path, count_calls,
                                                           monkeypatch):
        """Without theory checks, setup certifies nothing: a start is
        certified when its mode begins, so one certificate precedes the
        first solve, and bc-pnp's start makes the second."""
        certificates = count_calls(solver, "estimate_block_lipschitz")
        before_solve = []
        inner = cli.solve

        def solve(*args, **kwargs):
            before_solve.append(len(certificates))
            return inner(*args, **kwargs)

        monkeypatch.setattr(cli, "solve", solve)
        path = write_config(tmp_path, **{"solver.modes": ["pnp-oracle-theta", "bc-pnp", "pnp"],
                                         "solver.max_iters": 5})
        assert cli.run(path) == cli.EXIT_OK
        assert before_solve == [1, 2, 2]
        assert len(certificates) == 2

    def test_run_builds_and_certifies_once(self, tmp_path, count_calls):
        """With theory checks at an explicit gamma, run builds the problem
        and certifies x0 once, at the seed it uses, for both the step-rule
        check and the solve."""
        builds = count_calls(cli, "build_problem")
        certificates = count_calls(solver, "estimate_block_lipschitz")
        cfg = yaml.safe_load((ROOT / "configs" / "theory_checks.yaml").read_text())
        cfg["solver"].update(gamma=0.001, modes=["bc-pnp"])
        path = tmp_path / "theory.yaml"
        path.write_text(yaml.safe_dump(cfg))

        assert cli.run(path, out_override=tmp_path / "own") == cli.EXIT_OK
        assert (len(builds), len(certificates)) == (1, 1)
        builds.clear()
        certificates.clear()
        seed = cfg["problem"]["seed"]
        assert cli.run(path, out_override=tmp_path / "same", seed_override=seed) == cli.EXIT_OK
        assert (len(builds), len(certificates)) == (1, 1)
        for name in ("metrics.csv", "report.json", "bc-pnp/trace.csv", "bc-pnp/final_image.npy"):
            assert (tmp_path / "own" / name).read_bytes() == (tmp_path / "same" / name).read_bytes()

    def test_theory_run_builds_each_start_once(self, tmp_path, count_calls):
        """`validate` builds every start of a theory run, and the run's loop
        reads them: bc-pnp's certificate gets l_full once per run, also with
        several modes; `validate` alone builds the starts once more."""
        full = count_calls(cli, "with_full_constant")
        constants = count_calls(cli.TheoryConstants, "from_problem")
        path = _edited_theory_config(tmp_path, {
            "solver.modes": ["pnp-oracle-theta", "bc-pnp", "pnp"], "solver.max_iters": 20,
            "theory_checks.reference_multiplier": 2, "theory_checks.strict": False})
        assert cli.run(path, out_override=tmp_path / "out") == cli.EXIT_OK
        assert (len(full), len(constants)) == (1, 1)
        assert cli.validate(path) == []
        assert (len(full), len(constants)) == (2, 2)

    def test_theory_off_run_makes_no_full_hessian_product(self, tmp_path, count_calls):
        """Only the theory bounds read l_full, so a run without them never
        runs the full power iteration."""
        products = count_calls(forward.MultiCoilFidelity, "hessian_vec")
        path = write_config(tmp_path, **_MULTICOIL, **{"solver.modes": ["bc-pnp", "pnp"]})
        assert cli.run(path) == cli.EXIT_OK
        assert products
        assert all(kwargs.get("block") is not None for _, kwargs in products)

    @pytest.mark.parametrize("schedule, seeds", [("sequential", 0), ("random-iid", 10)])
    def test_theory_run_makes_one_full_power_iteration(self, tmp_path, count_calls,
                                                       schedule, seeds):
        """The bc-pnp start's certificate computes l_full once, for the
        theory constants, the objective solves and the ensemble; the oracle
        start's certificate never does."""
        certificates = count_calls(solver, "estimate_block_lipschitz")
        sweeps = count_calls(forward, "_power_iteration")
        cfg = yaml.safe_load((ROOT / "configs" / "theory_checks.yaml").read_text())
        cfg["solver"].update(modes=["pnp-oracle-theta", "bc-pnp", "pnp"], max_iters=20,
                             schedule={"kind": schedule, "seed": 0})
        cfg["theory_checks"].update(ensemble_seeds=seeds, reference_multiplier=2, strict=False)
        path = tmp_path / "theory.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert cli.run(path, out_override=tmp_path / "out") == cli.EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert ("theorem2" if seeds else "theorem1") in report["checks"]["bc-pnp"]
        full = [args for args, kwargs in sweeps if kwargs.get("square")]
        assert (len(certificates), len(full)) == (2, 1)

    def test_power_iter_warning_reads_full_power_iteration(self, tmp_path, monkeypatch):
        """When only the full power iteration fails to converge, the bc-pnp
        mode, whose bounds read l_full, reports the warning; the pnp mode,
        which starts from the same certificate, does not."""
        power_iteration = forward._power_iteration

        def full_never_converges(apply_op, dim, rng, square=False):
            value, ok = power_iteration(apply_op, dim, rng, square)
            return value, ok and not square

        monkeypatch.setattr(forward, "_power_iteration", full_never_converges)
        cfg = yaml.safe_load((ROOT / "configs" / "theory_checks.yaml").read_text())
        cfg["solver"].update(modes=["bc-pnp", "pnp"], max_iters=20)
        cfg["theory_checks"].update(reference_multiplier=2, strict=False)
        path = tmp_path / "theory.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert cli.run(path, out_override=tmp_path / "out") == cli.EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        flags = {label: mode["flags"]["power_iter_warning"]
                 for label, mode in report["modes"].items()}
        assert flags == {"bc-pnp": True, "pnp": False}

    def test_gamma_exceeds_rule_flag(self, tmp_path):
        """Without theory checks an explicit gamma above the step rule runs,
        and report.json flags it from the certificate at the mode's start."""
        probe = write_config(tmp_path, name="probe.yaml")
        cfg = cli.load_config(probe)
        problem = cli.build_problem(cfg)
        _, lip = solver.resolve_gamma(problem.fidelity, problem.x0_for(cfg.modes[0][1]), cfg.solver)
        flags = {}
        for gamma in ("auto", float(2.0 / lip.l_max)):
            path = write_config(tmp_path, **{"solver.gamma": gamma, "solver.max_iters": 2})
            assert cli.run(path, out_override=tmp_path / "out") == cli.EXIT_OK
            report = json.loads((tmp_path / "out" / "report.json").read_text())
            flags[gamma] = report["modes"]["bc-pnp"]["flags"]["gamma_exceeds_rule"]
        assert list(flags.values()) == [False, True]

    def test_run_step_rule_violation_is_a_config_error(self, tmp_path, capsys):
        """run applies validate's step-rule check before writing any output."""
        probe = write_config(tmp_path, name="probe.yaml", **{"denoisers.image": _GAUSSIAN_IMAGE})
        cfg = cli.load_config(probe)
        problem = cli.build_problem(cfg)
        _, lip = solver.resolve_gamma(problem.fidelity, problem.x0_for(cfg.modes[0][1]), cfg.solver)
        path = write_config(tmp_path, **{
            "denoisers.image": _GAUSSIAN_IMAGE,
            "solver.gamma": float(2.0 / lip.l_max),
            "theory_checks.enabled": True,
        })
        out = tmp_path / "violating"
        assert cli.run(path, out_override=out) == cli.EXIT_CONFIG
        assert "step rule" in capsys.readouterr().err
        assert not out.exists()

    def test_theorem2_report_equals_ensemble_with_objective(self, tmp_path):
        """The ensemble runs without the objective; its report equals one
        computed from solves that record the objective."""
        path = write_config(tmp_path, **{
            "problem.image_shape": [8, 8], "problem.balance_blocks": False,
            "denoisers.image": _GAUSSIAN_IMAGE, "solver.max_iters": 30, "solver.stop_tol": 1e-12,
            "solver.schedule": {"kind": "random-iid", "seed": 3},
            "theory_checks": {"enabled": True, "reference_multiplier": 2, "ensemble_seeds": 10},
        })
        assert cli.run(path) == cli.EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())

        cfg = cli.load_config(path)
        problem = cli.build_problem(cfg)
        dens = problem.denoisers
        x0 = problem.x0_for("bc-pnp")
        gamma, lip = solver.resolve_gamma(problem.fidelity, x0, cfg.solver)
        lip = forward.with_full_constant(problem.fidelity, x0, lip, cfg.solver.ball_radius)
        config = dataclasses.replace(cfg.solver, gamma=gamma)
        objective = ImplicitObjective(problem.fidelity, dens, gamma)
        constants = TheoryConstants.from_problem(gamma, 2, lip.l_max, lip.l_full, objective.m_max())
        ref_cfg = dataclasses.replace(config, max_iters=60)
        ref = solver.solve(problem.fidelity, dens, ref_cfg, x0, objective=objective)
        traces = [
            solver.solve(problem.fidelity, dens,
                         dataclasses.replace(config, schedule=config.schedule.with_seed(3 + s)),
                         x0, objective=objective, full_residual=True).trace
            for s in range(10)
        ]
        want = check_theorem2(traces, constants, reference_f_star(ref.trace))
        got = report["checks"]["bc-pnp"]["theorem2"]
        assert got == json.loads(json.dumps(cli._json_value(dataclasses.asdict(want))))

    def test_theorem2_ensemble_reuses_the_mode_solve(self, tmp_path, monkeypatch):
        """A random-iid run with n ensemble seeds solves n + 1 times: the
        mode, the continuation of the mode's solve for f* and seeds 1..n-1;
        seed 0 is the mode's own solve."""
        path = write_config(tmp_path, **{
            "problem.image_shape": [8, 8], "problem.balance_blocks": False,
            "denoisers.image": _GAUSSIAN_IMAGE, "solver.max_iters": 20,
            "solver.schedule": {"kind": "random-iid", "seed": 3},
            "theory_checks": {"enabled": True, "reference_multiplier": 2, "ensemble_seeds": 10},
        })
        calls = []

        def counting_solve(*args, **kwargs):
            calls.append((kwargs.get("objective") is not None, kwargs.get("full_residual", False),
                          kwargs.get("start_iter", 1), args[2].max_iters))
            return solver.solve(*args, **kwargs)

        monkeypatch.setattr(cli, "solve", counting_solve)
        assert cli.run(path) == cli.EXIT_OK
        assert len(calls) == 11
        # the mode and the reference's continuation record the objective; the
        # seeds do not.  Theorem 2 reads the residuals of the mode and the
        # seeds only.  The continuation runs iterations 21..40.
        assert calls == [(True, True, 1, 20), (True, False, 21, 40)] + [(False, True, 1, 20)] * 9
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["modes"]["bc-pnp"]["reason"] == "max-iters"
        assert report["checks"]["bc-pnp"]["theorem2"]["num_seeds"] == 10

    @pytest.mark.parametrize("schedule, seeds, checks", [
        ("sequential", 0, ["descent", "theorem1"]),
        ("epoch-shuffle", 0, ["descent"]),
        ("random-iid", 0, ["descent"]),
    ])
    def test_reference_run_only_for_a_bound_check(self, schedule, seeds, checks, tmp_path,
                                                   monkeypatch):
        """Only theorems 1 and 2 read f*, so a run that checks descent alone
        solves the mode once and makes no reference run.  The reference
        continues the mode's solve from its iteration 21 to the cap of 40."""
        path = write_config(tmp_path, **{
            "problem.image_shape": [8, 8], "problem.balance_blocks": False,
            "denoisers.image": _GAUSSIAN_IMAGE, "solver.max_iters": 20,
            "solver.schedule": {"kind": schedule, "seed": 3},
            "theory_checks": {"enabled": True, "reference_multiplier": 2, "ensemble_seeds": seeds},
        })
        calls = []

        def counting_solve(*args, **kwargs):
            calls.append((kwargs.get("start_iter", 1), args[2].max_iters))
            return solver.solve(*args, **kwargs)

        monkeypatch.setattr(cli, "solve", counting_solve)
        assert cli.run(path) == cli.EXIT_OK
        assert calls == [(1, 20), (21, 40)][:len(checks)]
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert sorted(report["checks"]["bc-pnp"]) == checks

    @pytest.mark.parametrize("overrides, solves, reason", [
        # random-iid, theorem 2: the mode, the continuation and 9 seeds
        ({"solver.schedule": {"kind": "random-iid", "seed": 3},
          "theory_checks.ensemble_seeds": 10}, 11, "max-iters"),
        ({"solver.schedule": {"kind": "sequential", "seed": 0}}, 2, "max-iters"),
        ({"denoisers.image": {"kind": "inexact", "base": _GAUSSIAN_IMAGE,
                              "schedule": {"kind": "constant", "base": 0.01, "seed": 4}}},
         2, "max-iters"),
        # the mode stops on tolerance, and so would the reference: no solve.
        # The image block's relative steps fall from 0.249 at k = 1 to
        # 0.215 at k = 17, the kernel's stay below 0.05: the stop is at 17
        ({"solver.stop_tol": 0.22}, 1, "tolerance"),
        ({"theory_checks.reference_multiplier": 1}, 1, "max-iters"),
    ], ids=["random-iid", "sequential", "inexact-constant", "tolerance", "multiplier-1"])
    def test_f_star_equals_a_reference_from_scratch(self, overrides, solves, reason, tmp_path,
                                                    monkeypatch):
        """f* from the mode's trajectory, continued, is bitwise the f* of a
        reference_multiplier x max_iters solve from the start."""
        path = write_config(tmp_path, **{
            "problem.image_shape": [8, 8], "problem.balance_blocks": False,
            "denoisers.image": _GAUSSIAN_IMAGE, "solver.max_iters": 20,
            "solver.stop_tol": 1e-12,
            "theory_checks": {"enabled": True, "reference_multiplier": 3},
            **overrides,
        })
        calls, f_stars = [], []

        def counting_solve(*args, **kwargs):
            calls.append(kwargs.get("start_iter", 1))
            return solver.solve(*args, **kwargs)

        def recording_f_star(*traces):
            f_stars.append(reference_f_star(*traces))
            return f_stars[-1]

        monkeypatch.setattr(cli, "solve", counting_solve)
        monkeypatch.setattr(cli, "reference_f_star", recording_f_star)
        assert cli.run(path) == cli.EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["modes"]["bc-pnp"]["reason"] == reason
        assert len(calls) == solves

        cfg = cli.load_config(path)
        problem = cli.build_problem(cfg)
        x0 = problem.x0_for("bc-pnp")
        gamma, _ = solver.resolve_gamma(problem.fidelity, x0, cfg.solver)
        objective = ImplicitObjective(problem.fidelity, problem.denoisers, gamma)
        ref_cfg = dataclasses.replace(
            cfg.solver, gamma=gamma,
            max_iters=cfg.solver.max_iters * cfg.theory.reference_multiplier)
        ref = solver.solve(problem.fidelity, problem.denoisers, ref_cfg, x0, objective=objective)
        want = reference_f_star(ref.trace)
        assert [np.float64(f).tobytes() for f in f_stars] == [np.float64(want).tobytes()]

    def test_theorem2_reads_the_modes_f_x0(self, tmp_path, monkeypatch):
        """Every ensemble trace carries the f(x0) that the mode's solve
        recorded, bitwise objective.value(x0)[0]; nothing evaluates it again."""
        path = write_config(tmp_path, **{
            "problem.image_shape": [8, 8], "problem.balance_blocks": False,
            "denoisers.image": _GAUSSIAN_IMAGE, "solver.max_iters": 20,
            "solver.schedule": {"kind": "random-iid", "seed": 3},
            "theory_checks": {"enabled": True, "reference_multiplier": 2, "ensemble_seeds": 10},
        })
        ensembles = []

        def recording_check(traces, *args):
            ensembles.append(traces)
            return check_theorem2(traces, *args)

        monkeypatch.setattr(cli, "check_theorem2", recording_check)
        assert cli.run(path) == cli.EXIT_OK
        cfg = cli.load_config(path)
        problem = cli.build_problem(cfg)
        x0 = problem.x0_for("bc-pnp")
        gamma, _ = solver.resolve_gamma(problem.fidelity, x0, cfg.solver)
        want = ImplicitObjective(problem.fidelity, problem.denoisers, gamma).value(x0)[0]
        [traces] = ensembles
        assert len(traces) == 10
        assert {np.float64(tr.f_initial).tobytes() for tr in traces} == {np.float64(want).tobytes()}

    def test_trace_csv_has_every_block(self, tmp_path):
        """A 3-block generic-linear run writes rmse_3 after the two fixed
        columns, and reads it back."""
        path = write_config(tmp_path, **_linear_overrides([3, 4, 5], ["bc-pnp"]))
        assert cli.run(path) == cli.EXIT_OK
        csv = tmp_path / "out" / "bc-pnp" / "trace.csv"
        assert csv.read_text().splitlines()[0].endswith(",rmse_v,rmse_theta,rmse_3")
        trace = IterateTrace.from_csv(csv)
        assert trace.rmse.shape == (30, 3)
        assert np.isfinite(trace.rmse).all()

    def test_generic_linear_noise_is_not_the_truth(self, tmp_path):
        """The truth and the measurement noise draw from separate streams:
        the noise is not a scaled prefix of the truth."""
        overrides = _linear_overrides([4, 4], ["bc-pnp"])
        overrides["problem"].update(rows=6, noise_sigma=0.1)
        problem = cli.build_problem(cli.load_config(write_config(tmp_path, **overrides)))
        x_true, fid = problem.truth.data, problem.fidelity
        noise = fid.y - fid.model.forward(x_true)
        assert np.linalg.norm(noise) > 0
        assert not np.allclose(noise, 0.1 * x_true[:6])

    def test_multicoil_smoke(self, tmp_path):
        path = write_config(tmp_path, **_MULTICOIL)
        assert cli.run(path) == cli.EXIT_OK
        trace = IterateTrace.from_csv(tmp_path / "out" / "bc-pnp" / "trace.csv")
        assert len(trace) == 30

    @pytest.mark.xfail(strict=False, raises=AssertionError, reason="ROADMAP item 14")
    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        """A multi-coil run whose map block has 32768 entries, past the
        size at which OpenBLAS splits a dot product across threads, writes
        the same bytes with one BLAS thread and with two."""
        overrides = {**_MULTICOIL, "problem.image_shape": [64, 64], "problem.num_coils": 4,
                     "solver.modes": ["bc-pnp", "pnp"], "solver.stop_tol": 1e-12}
        path = write_config(tmp_path, **overrides)
        pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        files = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": pythonpath}
            out = tmp_path / f"threads-{threads}"
            subprocess.run([sys.executable, "-m", "bcpnp", "run", str(path), "--out", str(out)],
                           env=env, check=True, capture_output=True)
            files.append({f.relative_to(out): f.read_bytes()
                          for f in sorted(out.rglob("*")) if f.is_file()})
        assert len(files[0]) == 12 and files[0].keys() == files[1].keys()
        assert [str(name) for name in files[0] if files[0][name] != files[1][name]] == []

    def test_generic_linear_smoke(self, tmp_path):
        path = write_config(
            tmp_path,
            **{
                "problem": {
                    "kind": "generic-linear",
                    "rows": 10,
                    "block_sizes": [4, 4],
                    "noise_sigma": 0.05,
                    "seed": 2,
                },
                "denoisers": {
                    "blocks": [
                        {
                            "kind": "gaussian-mmse",
                            "sigma": 0.3,
                            "prior": {"mean": "zeros", "var": 1.0},
                        },
                        {
                            "kind": "gaussian-mmse",
                            "sigma": 0.3,
                            "prior": {"mean": "zeros", "var": 1.0},
                        },
                    ]
                },
                "solver.max_iters": 200,
                "solver.ball_radius": 1.0,
            },
        )
        assert cli.run(path) == cli.EXIT_OK

    def test_main_entry(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert cli.main(["validate", str(path)]) == cli.EXIT_OK
        assert "config ok" in capsys.readouterr().out
        bad = write_config(tmp_path, name="bad.yaml", **{"solver.modes": []})
        assert cli.main(["validate", str(bad)]) == cli.EXIT_CONFIG


def _linear_overrides(block_sizes, modes):
    """A generic-linear problem with identity denoisers on every block."""
    return {
        "problem": {"kind": "generic-linear", "rows": 12, "block_sizes": block_sizes,
                    "noise_sigma": 0.01, "seed": 2},
        "denoisers": {"blocks": [{"kind": "identity"}] * len(block_sizes)},
        "solver.modes": modes,
        "solver.max_iters": 30,
    }


def _theory_without_bc_pnp(tmp_path):
    cfg = yaml.safe_load((ROOT / "configs" / "theory_checks.yaml").read_text())
    assert cfg["theory_checks"]["strict"]
    cfg["solver"]["modes"] = ["pnp"]
    cfg["output"]["directory"] = str(tmp_path / "out")
    path = tmp_path / "theory.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


class TestModes:
    """The runner alone turns a mode into the solver's denoiser list and start."""

    def test_denoisers_for_each_mode_on_the_deblurring_config(self):
        problem = cli.build_problem(cli.load_config(ROOT / "configs" / "blind_deblurring.yaml"))
        d_v, d_theta = problem.denoisers
        assert problem.denoisers_for("bc-pnp") == (d_v, d_theta)
        assert problem.denoisers_for("pnp-ista") == (d_v, None)
        assert problem.denoisers_for("pnp-oracle-theta") == (d_v, None)
        d_v_gd, d_theta_gd = problem.denoisers_for("pnp-gd-theta")
        assert d_v_gd is d_v and type(d_theta_gd) is cli.IdentityDenoiser
        # pnp-ista and pnp-oracle-theta differ only in the start of the held block
        assert np.array_equal(problem.x0_for("pnp-ista").extract(2), problem.theta0)
        assert np.array_equal(problem.x0_for("pnp-oracle-theta").extract(2),
                              problem.truth.extract(2))

    @pytest.mark.parametrize("overrides, error", [
        ({"solver.modes": ["bc-pnp", "admm"]}, "solver.modes[1]: unknown mode 'admm'"),
        (_linear_overrides([4, 4, 4], ["bc-pnp", "pnp", "pnp-oracle-theta", "pnp-gd-theta"]),
         "solver.modes[1]: mode 'pnp' holds or steps an operator block"),
        (_linear_overrides([4, 4, 4], ["bc-pnp", "pnp-gd-theta"]),
         "solver.modes[1]: mode 'pnp-gd-theta' holds or steps an operator block"),
        (_linear_overrides([4], ["pnp"]), "solver.modes[0]: mode 'pnp' holds or steps"),
        (None, "theory_checks.enabled: the convergence checks run on the bc-pnp mode"),
    ], ids=["unknown", "linear-3-blocks", "linear-gd-theta", "linear-1-block", "theory-no-bc-pnp"])
    def test_mode_errors_exit_1_in_both_commands(self, tmp_path, capsys, overrides, error):
        if overrides is None:
            path = _theory_without_bc_pnp(tmp_path)
        else:
            path = write_config(tmp_path, **overrides)
        assert cli.main(["validate", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().out.startswith(f"config error: {error}")
        out = tmp_path / "run"
        assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {error}")
        assert not out.exists()

    def test_generic_linear_writes_the_whole_final_x(self, tmp_path):
        """Three blocks: final_x.npy mirrors truth_x.npy, rmse_x is the error
        of all of x, and there is no operator block to score."""
        path = write_config(tmp_path, **_linear_overrides([4, 4, 4], ["bc-pnp"]))
        assert cli.run(path) == cli.EXIT_OK
        out = tmp_path / "out"
        final = np.load(out / "bc-pnp" / "final_x.npy")
        truth = np.load(out / "truth_x.npy")
        assert final.shape == truth.shape == (12,)
        assert sorted(p.name for p in (out / "bc-pnp").iterdir()) == ["final_x.npy", "trace.csv"]
        header, row = (out / "metrics.csv").read_text().splitlines()
        metrics = dict(zip(header.split(","), row.split(",")))
        assert float(metrics["rmse_x"]) == cli.rmse(final, truth)
        assert metrics["rmse_theta"] == "nan"


def _image_and_theta_files(*modes):
    """The truth files of an image and an operator block and, per mode, the
    trace, both final blocks and the image preview."""
    return ["truth_image.npy", "truth_theta.npy"] + [
        f"{mode}/{name}" for mode in modes
        for name in ("trace.csv", "final_image.npy", "final_theta.npy", "image.pgm")]


class TestOutputFiles:
    """A run writes exactly the metrics table, the report, the truth of each
    array output and, per mode, the trace, the final arrays and, where the
    problem has an image, its preview."""

    @pytest.mark.parametrize("overrides, files", [
        ({"solver.modes": ["bc-pnp", "pnp"], "solver.max_iters": 5},
         _image_and_theta_files("bc-pnp", "pnp")),
        ({**_MULTICOIL, "solver.modes": ["bc-pnp", "pnp-gd-theta"], "solver.max_iters": 5},
         _image_and_theta_files("bc-pnp", "pnp-gd-theta")),
        (_linear_overrides([3, 4, 5], ["bc-pnp"]),
         ["truth_x.npy", "bc-pnp/trace.csv", "bc-pnp/final_x.npy"]),
    ], ids=["blind", "multi-coil", "generic-linear-3-blocks"])
    def test_run_writes_exactly_its_declared_files(self, tmp_path, overrides, files):
        path = write_config(tmp_path, **overrides)
        assert cli.run(path) == cli.EXIT_OK
        out = tmp_path / "out"
        written = {f.relative_to(out).as_posix() for f in out.rglob("*") if f.is_file()}
        assert written == {"metrics.csv", "report.json", *files}


def _blind_arrays(problem, x):
    return {"image": (problem.scale * x.extract(1)).reshape(16, 16),
            "theta": (x.extract(2) / problem.scale).reshape(3, 3)}


def _multicoil_arrays(problem, x):
    return {"image": x.extract(1).view(np.complex128).reshape(16, 16),
            "theta": x.extract(2).view(np.complex128).reshape(2, 16, 16)}


def _linear_arrays(problem, x):
    return {"x": x.data.copy()}


class TestArrayFiles:
    """Each array output is one `.npy` file that `np.load` reads back in its
    natural shape and dtype, holding bitwise the block of the iterate in
    natural units: a blind image times the block scale and a blind kernel
    divided by it (float64), each multi-coil block's real pairs as the
    complex array they pack (complex128), and all of a generic-linear x."""

    @pytest.mark.parametrize("overrides, expected", [
        ({}, _blind_arrays),
        (_MULTICOIL, _multicoil_arrays),
        (_linear_overrides([3, 4, 5], ["bc-pnp"]), _linear_arrays),
    ], ids=["blind", "multi-coil", "generic-linear-3-blocks"])
    def test_files_read_back_bitwise(self, tmp_path, overrides, expected):
        problem = cli.build_problem(cli.load_config(write_config(tmp_path, **overrides)))
        layout = problem.truth.layout
        data = np.random.default_rng(0).standard_normal(layout.total)
        for i in range(1, layout.num_blocks + 1):
            # a signed zero, the smallest subnormal and a value near the top
            # of the range, which text formatting or a unit factor could alter
            data[layout.block_slice(i)][:3] = (-0.0, 5e-324, 1e308)
        x = cli.BlockVector(layout, data)
        # the blind image's 1e308 times the block scale overflows to inf,
        # in the expected array as in the file
        with np.errstate(over="ignore"):
            cli._save_outputs(tmp_path, "final", problem, x)
            arrays = expected(problem, x)
        assert {f.name for f in tmp_path.glob("*.npy")} == {f"final_{n}.npy" for n in arrays}
        for name, want in arrays.items():
            got = np.load(tmp_path / f"final_{name}.npy")
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tobytes() == want.tobytes()

    def test_blind_arrays_are_in_natural_units(self, tmp_path):
        """A run whose blocks are rescaled writes its truth as the config's
        image and kernel, not as the work-unit blocks."""
        path = write_config(tmp_path)
        cfg = cli.load_config(path)
        assert cli.build_problem(cfg).scale != 1.0
        assert cli.run(path) == cli.EXIT_OK
        out = tmp_path / "out"
        image, kernel = np.load(out / "truth_image.npy"), np.load(out / "truth_theta.npy")
        # `write_config`'s synthetic image and kernel
        np.testing.assert_allclose(image, cli.synthetic_image((16, 16), 2), rtol=1e-15, atol=0)
        np.testing.assert_allclose(kernel, cli.gaussian_kernel((3, 3), 1.2), rtol=1e-15, atol=0)


def _gmm(dim):
    """A two-component mixture denoiser on a block of `dim` entries."""
    return {"kind": "gmm-mmse", "sigma": 0.1, "prior": {
        "weights": [0.5, 0.5], "means": [[0.0] * dim, [0.1] * dim], "variances": [0.01, 0.02]}}


def _inexact(base):
    return {"kind": "inexact", "base": base, "schedule": {"kind": "square-summable", "base": 0.01}}


def _theory_on_deblurring(tmp_path):
    """The shipped deblurring config (TV-prox image denoiser) with strict
    convergence checks on its bc-pnp mode."""
    cfg = yaml.safe_load((ROOT / "configs" / "blind_deblurring.yaml").read_text())
    cfg["theory_checks"] = {"enabled": True, "strict": True}
    cfg["solver"]["modes"] = ["bc-pnp"]
    cfg["output"]["directory"] = str(tmp_path / "out")
    path = tmp_path / "deblurring.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def _edited_theory_config(tmp_path, edits):
    """The shipped theory config with each dotted key of `edits` set."""
    cfg = yaml.safe_load((ROOT / "configs" / "theory_checks.yaml").read_text())
    for dotted, value in edits.items():
        *parents, key = dotted.split(".")
        node = cfg
        for part in parents:
            node = node[part]
        node[key] = value
    path = tmp_path / "theory.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def _bcpnp(*command):
    """`python -m bcpnp <command>` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "bcpnp", *command], env=env,
                          capture_output=True, text=True, timeout=300)


class TestRuntimeFailureExitCodes:
    """A config that cannot start exits 1 in both commands; one that
    `validate` accepts but whose run fails exits 2 with one "runtime
    failure" line.  `run`'s stderr holds that one message line alone, and
    `validate` writes nothing to stderr: no traceback and no numpy warning."""

    @pytest.mark.parametrize("dotted, value, constant", [
        ("solver.gamma", 1.0e-160, "b1"),
        ("denoisers.image.prior.var", 1.0e-300, "b2"),
        ("problem.noise_sigma", 1.0e300, "a1"),
        ("solver.ball_radius", 1.0e300, "alpha"),
    ], ids=["tiny-gamma", "tiny-prior-var", "huge-noise", "huge-ball"])
    def test_overflowing_theory_constants(self, tmp_path, dotted, value, constant):
        """Bound constants that overflow at bc-pnp's start are a config
        error of theory_checks.enabled, found before any output is written."""
        path = _edited_theory_config(tmp_path, {dotted: value})
        error = (f"config error: theory_checks.enabled: theory constant {constant} is not "
                 "finite: the bounds overflow at this gamma, l_max, l_full and m_max")
        out = tmp_path / "out"
        validate = _bcpnp("validate", str(path))
        assert validate.returncode == cli.EXIT_CONFIG, validate.stderr
        assert validate.stdout.splitlines()[-1] == error
        assert validate.stderr == ""
        run = _bcpnp("run", str(path), "--out", str(out))
        assert run.returncode == cli.EXIT_CONFIG, run.stderr
        assert run.stderr == error + "\n"
        assert not out.exists()

    @pytest.mark.parametrize("gamma, failure", [
        (1.0e-320, "non-finite fixed-point residual G at iteration 1"),
        (1.0e3, "non-finite values in block 2 at iteration 6"),
    ], ids=["residual", "denoised-block"])
    def test_nonfinite_run(self, tmp_path, gamma, failure):
        """Without the checks, a gamma whose residual or iterate is not
        finite is accepted by `validate` and ends the run with exit 2."""
        path = _edited_theory_config(tmp_path, {"theory_checks.enabled": False,
                                                "solver.gamma": gamma})
        validate = _bcpnp("validate", str(path))
        assert validate.returncode == cli.EXIT_OK, validate.stdout
        assert validate.stderr == ""
        run = _bcpnp("run", str(path), "--out", str(tmp_path / "out"))
        assert run.returncode == cli.EXIT_RUNTIME, run.stderr
        assert run.stderr == f"runtime failure: {failure}\n"


class TestTheoryDenoisers:
    """Convergence checks need the implicit objective in closed form, which
    only a gaussian-mmse denoiser on every block (bare or wrapped in
    inexact) has; any other denoiser is a config error, not a skipped check."""

    _ERROR = "theory_checks.enabled: the implicit objective needs a gaussian-mmse denoiser"

    @pytest.mark.parametrize("overrides, names", [
        (None, "denoisers.image is tv-prox"),
        ({"denoisers.image": _GAUSSIAN_IMAGE, "denoisers.theta": _gmm(9)},
         "denoisers.theta is gmm-mmse"),
        ({"denoisers.image": _inexact(_GAUSSIAN_IMAGE), "denoisers.theta": _inexact(_gmm(9))},
         "denoisers.theta.base is gmm-mmse"),
    ], ids=["deblurring-tv-prox", "gmm-mmse", "inexact-gmm-mmse"])
    def test_exit_1_in_both_commands(self, tmp_path, capsys, overrides, names):
        if overrides is None:
            path = _theory_on_deblurring(tmp_path)
        else:
            path = write_config(tmp_path, **overrides, **{"theory_checks.enabled": True})
        error = f"config error: {self._ERROR} on every block, and {names}\n"
        assert cli.main(["validate", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().out == error
        out = tmp_path / "run"
        assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == error
        assert not out.exists()

    def test_the_same_denoisers_parse_without_checks(self, tmp_path):
        assert cli.validate(write_config(tmp_path, **{"denoisers.theta": _gmm(9)})) == []

    def test_inexact_gaussian_mmse_is_accepted(self, tmp_path):
        path = write_config(tmp_path, **{
            "denoisers.image": _inexact(_GAUSSIAN_IMAGE), "solver.max_iters": 20,
            "theory_checks": {"enabled": True, "reference_multiplier": 2},
        })
        assert cli.validate(path) == []
        assert cli.run(path) == cli.EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert set(report["checks"]) == {"bc-pnp"}
        assert {"descent", "theorem1"} <= set(report["checks"]["bc-pnp"])


class TestSyntheticSources:
    def test_gaussian_kernel_normalized(self):
        k = cli.gaussian_kernel((9, 9), 1.5)
        assert k.sum() == pytest.approx(1.0)
        assert k[4, 4] == k.max()

    def test_blobs_image_range_and_determinism(self):
        a = cli.synthetic_image((32, 32), seed=4)
        b = cli.synthetic_image((32, 32), seed=4)
        assert np.array_equal(a, b)
        assert a.min() == 0.0 and a.max() == 1.0

    def test_rows_mask(self):
        m = cli.cartesian_rows_mask((16, 16), accel=4, center_rows=2)
        assert set(np.unique(m)) <= {0.0, 1.0}
        assert m[0].all() and m[4].all()
        assert m[7].all() and m[8].all()  # center band

    def test_file_based_kernel_and_image(self, tmp_path):
        img = cli.synthetic_image((16, 16), seed=1)
        ker = cli.gaussian_kernel((3, 3), 1.0)
        fileio.write_pgm(tmp_path / "img.pgm", img)
        fileio.save_matrix_csv(tmp_path / "ker.csv", ker)
        path = write_config(
            tmp_path,
            **{
                "problem.image": {"path": str(tmp_path / "img.pgm")},
                "problem.kernel": {"path": str(tmp_path / "ker.csv")},
            },
        )
        assert cli.validate(path) == []
        assert cli.run(path) == cli.EXIT_OK
