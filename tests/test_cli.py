"""Config-driven runner: validation diagnostics, outputs, determinism."""

import dataclasses
import json
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
        node[parts[-1]] = value
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
        probe = write_config(tmp_path, name="probe.yaml")
        cfg = cli.load_config(probe)
        problem = cli.build_problem(cfg)
        _, lip = problem.certify(problem.x0_for("bc-pnp"), cfg.solver)
        path = write_config(
            tmp_path,
            **{
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
        for rel in ("bc-pnp/trace.csv", "metrics.csv", "bc-pnp/final_image.csv"):
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
        truth = fileio.load_matrix_csv(out / "truth_image.csv").ravel()
        final = fileio.load_matrix_csv(out / "bc-pnp" / "final_image.csv").ravel()
        recomputed = rmse(final, truth)
        row = (out / "metrics.csv").read_text().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(recomputed, rel=1e-12)

    def test_theory_checks_in_report(self, tmp_path):
        path = write_config(
            tmp_path,
            **{
                "denoisers.image": {
                    "kind": "gaussian-mmse",
                    "sigma": 0.25,
                    "prior": {"mean": "zeros", "var": 0.25},
                },
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
        for name in ("metrics.csv", "report.json", "bc-pnp/trace.csv", "bc-pnp/final_image.csv"):
            assert (tmp_path / "own" / name).read_bytes() == (tmp_path / "same" / name).read_bytes()

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

    def test_run_step_rule_violation_is_a_config_error(self, tmp_path, capsys):
        """run applies validate's step-rule check before writing any output."""
        probe = write_config(tmp_path, name="probe.yaml")
        cfg = cli.load_config(probe)
        problem = cli.build_problem(cfg)
        _, lip = solver.resolve_gamma(problem.fidelity, problem.x0_for(cfg.modes[0][1]), cfg.solver)
        path = write_config(
            tmp_path, **{"solver.gamma": float(2.0 / lip.l_max), "theory_checks.enabled": True}
        )
        out = tmp_path / "violating"
        assert cli.run(path, out_override=out) == cli.EXIT_CONFIG
        assert "step rule" in capsys.readouterr().err
        assert not out.exists()

    def test_theorem2_report_equals_ensemble_with_objective(self, tmp_path):
        """The ensemble runs without the objective; its report equals one
        computed from solves that record the objective."""
        gaussian = {"kind": "gaussian-mmse", "sigma": 0.25, "prior": {"mean": "zeros", "var": 0.25}}
        path = write_config(tmp_path, **{
            "problem.image_shape": [8, 8], "problem.balance_blocks": False,
            "denoisers.image": gaussian, "solver.max_iters": 30, "solver.stop_tol": 1e-12,
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
        config = dataclasses.replace(cfg.solver, gamma=gamma)
        objective = ImplicitObjective(problem.fidelity, dens, gamma)
        constants = TheoryConstants.from_problem(gamma, 2, lip.l_max, lip.l_full, objective.m_max())
        ref_cfg = dataclasses.replace(config, max_iters=60)
        ref = solver.solve(problem.fidelity, dens, ref_cfg, x0, objective=objective, lipschitz=lip)
        traces = [
            solver.solve(problem.fidelity, dens,
                         dataclasses.replace(config, schedule=config.schedule.with_seed(3 + s)),
                         x0, objective=objective, lipschitz=lip).trace
            for s in range(10)
        ]
        want = check_theorem2(traces, constants, reference_f_star(ref.trace))
        got = report["checks"]["bc-pnp"]["theorem2"]
        assert got == json.loads(json.dumps(cli._json_value(dataclasses.asdict(want))))

    def test_theorem2_ensemble_reuses_the_mode_solve(self, tmp_path, monkeypatch):
        """A random-iid run with n ensemble seeds solves n + 1 times: the
        mode, the reference run and seeds 1..n-1; seed 0 is the mode's own
        solve."""
        gaussian = {"kind": "gaussian-mmse", "sigma": 0.25, "prior": {"mean": "zeros", "var": 0.25}}
        path = write_config(tmp_path, **{
            "problem.image_shape": [8, 8], "problem.balance_blocks": False,
            "denoisers.image": gaussian, "solver.max_iters": 20,
            "solver.schedule": {"kind": "random-iid", "seed": 3},
            "theory_checks": {"enabled": True, "reference_multiplier": 2, "ensemble_seeds": 10},
        })
        calls = []

        def counting_solve(*args, **kwargs):
            calls.append(kwargs.get("objective") is not None)
            return solver.solve(*args, **kwargs)

        monkeypatch.setattr(cli, "solve", counting_solve)
        assert cli.run(path) == cli.EXIT_OK
        assert len(calls) == 11
        # the mode and the reference run record the objective; the seeds do not
        assert calls == [True, True] + [False] * 9
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["checks"]["bc-pnp"]["theorem2"]["num_seeds"] == 10

    def test_multicoil_smoke(self, tmp_path):
        path = write_config(tmp_path, **_MULTICOIL)
        assert cli.run(path) == cli.EXIT_OK
        trace = IterateTrace.from_csv(tmp_path / "out" / "bc-pnp" / "trace.csv")
        assert len(trace) == 30

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
        assert np.array_equal(problem.x0_for("pnp-oracle-theta").extract(2), problem.theta_true)

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
        """Three blocks: final_x.csv mirrors truth_x.csv, rmse_x is the error
        of all of x, and there is no operator block to score."""
        path = write_config(tmp_path, **_linear_overrides([4, 4, 4], ["bc-pnp"]))
        assert cli.run(path) == cli.EXIT_OK
        out = tmp_path / "out"
        final = fileio.load_matrix_csv(out / "bc-pnp" / "final_x.csv")
        truth = fileio.load_matrix_csv(out / "truth_x.csv")
        assert final.shape == truth.shape == (1, 12)
        assert sorted(p.name for p in (out / "bc-pnp").iterdir()) == ["final_x.csv", "trace.csv"]
        header, row = (out / "metrics.csv").read_text().splitlines()
        metrics = dict(zip(header.split(","), row.split(",")))
        assert float(metrics["rmse_x"]) == cli.rmse(final, truth)
        assert metrics["rmse_theta"] == "nan"


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
