"""Benchmark of `bcpnp run` on three pinned workloads.

    python3 benchmarks/run.py --workload deblur-64 --seed 7 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 7 --seconds 1 --trace 1

Every sample is a fresh process (`child.py`) with BLAS/OpenMP pinned to
one thread that calls the public CLI entry `bcpnp.cli.run` on a config
under `configs/`, with `--seed` as the problem seed (see SCHEDULE_SEEDED).
Samples run one at a time.  Outputs and results go to `.bench_out/`.

`--trace 0` runs untraced samples for `--seconds` (at least two samples,
and none that would end after `--seconds` once two have run), and reports
the end-to-end metrics as medians over samples.  Their times are in
reference-speed seconds: a speed probe interleaved with the program
(`speed.py`) takes out the host's swings in speed, which reach 2x for tens
of seconds.  The wall-clock median is printed beside them.
`--trace 1` runs span-traced samples the same way and reports the
per-layer metrics, the tracing overhead and a self-time-by-layer table.
Every sample's outputs go through the correctness gate (`check_outputs`);
a failing sample counts in `failed`, and `fail_frac` is failed / attempted.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import csv
import glob
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out"
WORKLOADS = ("deblur-64", "ensemble-8", "multicoil-64")
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
MIN_SAMPLES = 2  # two samples at one seed make the byte-identity and count checks
CHILD_TIMEOUT_S = 150
# How --seed enters a workload.  It is the problem seed (the noise draw),
# except on multicoil-64: there the noise changes how many power-iteration
# sweeps certification takes (148 to 359 Hessian-vector products over
# seeds 0-11), so the work would differ from seed to seed.  There the seed
# picks the block schedule's shuffle order and the noise keeps the config's.
SCHEDULE_SEEDED = ("multicoil-64",)
# The speed probe (see speed.py) that normalises each workload's times: the
# one whose slowdown under load tracks the workload's own.
PROBE = {"deblur-64": "tv64", "ensemble-8": "fft8", "multicoil-64": "coil64"}
COUNT_UNITS = ("count", "B")  # per-layer metrics that must repeat exactly


class BenchmarkError(RuntimeError):
    """The harness itself cannot measure; no result is printed."""


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def seeded_config(workload, seed):
    """(config path, problem seed or "none") for a sample at `seed`."""
    path = HERE / "configs" / f"{workload}.yaml"
    if workload not in SCHEDULE_SEEDED:
        return path, str(seed)
    import yaml

    cfg = yaml.safe_load(path.read_text())
    cfg["solver"]["schedule"]["seed"] = seed
    seeded = SCRATCH / "samples" / f"{workload}-seed{seed}.yaml"
    seeded.write_text(yaml.safe_dump(cfg))
    return seeded, "none"


def run_child(workload, seed, mode, index):
    """One sample in a fresh process; returns the child's result dict."""
    tag = f"{workload}-{mode}-{index}"
    out_dir = SCRATCH / "samples" / tag
    result_path = SCRATCH / "samples" / f"{tag}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(out_dir, ignore_errors=True)
    result_path.unlink(missing_ok=True)
    config, problem_seed = seeded_config(workload, seed)
    cmd = [
        sys.executable, str(HERE / "child.py"), str(config), str(out_dir), problem_seed,
        str(result_path), mode, PROBE[workload],
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        code, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        code, stderr = None, f"timed out after {CHILD_TIMEOUT_S} s"
    result = json.loads(result_path.read_text()) if result_path.exists() else {}
    if code == 0:
        if not result:
            raise BenchmarkError(f"{tag}: child exited 0 without a result")
        bcpnp_file = Path(result["bcpnp_file"]).resolve()
        if ROOT / "src" not in bcpnp_file.parents:
            raise BenchmarkError(f"{tag}: imported bcpnp from {bcpnp_file}, not from src/")
        if result["setup_s"] is None:
            raise BenchmarkError(f"{tag}: the solve hook never fired")
    result.update(exit_code=code, stderr=stderr[-2000:], out_dir=out_dir, mode=mode)
    return result


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def read_metrics_csv(path):
    """{mode: {column: float}} with columns taken from the header by name."""
    with open(path, newline="") as fh:
        return {
            row["mode"]: {k: float(v) for k, v in row.items() if k != "mode"}
            for row in csv.DictReader(fh)
        }


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def check_outputs(workload, seed, out_dir, reference):
    """Reasons the sample's outputs are wrong; empty when they pass."""
    ref = reference[workload]
    rows = read_metrics_csv(out_dir / "metrics.csv")
    problems = []
    if set(rows) != set(ref["metrics"]):
        return [f"modes {sorted(rows)} != {sorted(ref['metrics'])}"]
    for mode, row in rows.items():
        ref_row = {k: float(v) for k, v in ref["metrics"][mode].items()}
        for col, value in row.items():
            # a column the reference records as NaN is not computed for this
            # problem (SSIM of an 8x8 image); every other value must be finite
            if not math.isfinite(value) and not math.isnan(ref_row.get(col, 0.0)):
                problems.append(f"{mode}.{col} is {value}")
            if seed == ref["seed"] and col in ref_row and not _same(value, ref_row[col]):
                problems.append(f"{mode}.{col} = {value!r}, reference {ref_row[col]!r}")
    if workload == "deblur-64":
        # acceptance criterion 10: joint recovery beats the frozen kernel,
        # and the oracle kernel bounds it.  The oracle bound is checked only
        # at the default seed, where the criterion is stated: the two rmse_x
        # are within a few percent of each other, and some noise draws put
        # bc-pnp below the oracle (seed 52: 0.02594 against 0.02641).
        bc, pnp, oracle = rows["bc-pnp"], rows["pnp"], rows["pnp-oracle-theta"]
        if not bc["rmse_theta"] < pnp["rmse_theta"]:
            problems.append("criterion 10: bc-pnp rmse_theta not below pnp")
        if not bc["rmse_x"] < pnp["rmse_x"]:
            problems.append("criterion 10: bc-pnp rmse_x not below pnp")
        if seed == ref["seed"] and not oracle["rmse_x"] <= bc["rmse_x"]:
            problems.append("criterion 10: pnp-oracle-theta rmse_x above bc-pnp")
    if workload == "ensemble-8":
        checks = json.loads((out_dir / "report.json").read_text())["checks"].get("bc-pnp", {})
        for name in ("descent", "theorem2"):
            if not checks.get(name, {}).get("passed"):
                problems.append(f"report.json: {name} did not pass")
    return problems


def output_bytes(out_dir):
    """The byte-compared outputs: metrics.csv and every mode's trace.csv."""
    paths = [out_dir / "metrics.csv", *sorted(out_dir.glob("*/trace.csv"))]
    return {str(p.relative_to(out_dir)): p.read_bytes() for p in paths}


def judge(sample, workload, seed, reference, first_bytes):
    """Record in the sample why it failed (empty list: passed)."""
    if sample["exit_code"] != 0:
        reasons = [f"exit code {sample['exit_code']}: {sample['stderr'].strip()[-300:]}"]
    else:
        out_dir = sample["out_dir"]
        try:
            reasons = check_outputs(workload, seed, out_dir, reference)
            outputs = output_bytes(out_dir)
        except (OSError, ValueError, KeyError) as exc:
            reasons, outputs = [f"unreadable outputs: {exc!r}"], {}
        if not first_bytes:
            first_bytes.update(outputs)
        elif outputs != first_bytes:
            reasons.append("trace.csv/metrics.csv not byte-identical to the first sample")
    sample["failures"] = reasons
    shutil.rmtree(sample["out_dir"], ignore_errors=True)
    return not reasons


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _git_commit():
    """HEAD commit; None outside a clone or without git (src_sha256 still
    identifies the sources)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def provenance(seed, sample):
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bcpnp").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = [
        {
            "level": _read(f"{d}/level"),
            "type": _read(f"{d}/type"),
            "size": _read(f"{d}/size"),
        }
        for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"))
    ]
    return {
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
        "python": sample.get("python"),
        "numpy": sample.get("numpy"),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "thread_env": THREAD_ENV,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def measure(workload, seed, seconds, trace, reference):
    """Run one workload; returns (metrics, samples, record, table)."""
    import tracing

    start = time.perf_counter()
    samples = []
    first_bytes = {}
    mode = "trace" if trace else "full"
    # start no sample that would end after `seconds`, going by the median
    # sample so far, so that a run keeps to its time
    took = []
    while len(samples) < MIN_SAMPLES or time.perf_counter() - start + median(took) <= seconds:
        begun = time.perf_counter()
        sample = run_child(workload, seed, mode, len(samples))
        took.append(time.perf_counter() - begun)
        judge(sample, workload, seed, reference, first_bytes)
        samples.append(sample)
    ok = [s for s in samples if s.get("solve_calls")]
    if not ok:
        raise BenchmarkError(f"{workload}: no sample finished")

    if not trace:
        metrics = {
            "run_s": (median([s["run_s"] for s in ok]), "s"),
            "setup_s": (median([s["setup_s"] for s in ok]), "s"),
            "iters_per_s": (median([s["iters"] / s["solve_s"] for s in ok]), "1/s"),
            "peak_rss_mb": (median([s["peak_rss_mb"] for s in ok]), "MB"),
        }
        return metrics, samples, {"wall_s": median([s["wall_s"] for s in ok])}, None

    summaries = []
    for s in ok:
        summaries.append(tracing.summarize(tracing.load(s["spans"])))
        os.unlink(s["spans"])
    metrics = {}
    for name, (value, unit) in summaries[0][0].items():
        if unit in COUNT_UNITS:
            values = {summary[0][name][0] for summary in summaries}
            if len(values) != 1:
                samples[-1]["failures"].append(f"count {name} differs across samples: {values}")
            metrics[name] = (value, unit)
        else:
            metrics[name] = (median([summary[0][name][0] for summary in summaries]), unit)
    # Tracer cost = spans recorded x the calibrated cost of one span, over the
    # traced run time less that cost.  A traced/untraced run-time ratio would
    # be swamped by the machine's drift between the two runs.
    added = [s["span_count"] * s["span_cost_s"] for s in ok]
    metrics["trace.overhead_frac"] = (
        median([a / (s["run_s"] - a) for a, s in zip(added, ok)]), "ratio"
    )
    layer_self = {k: median([s[1][k] for s in summaries]) for k in tracing.LAYERS}
    by_name = summaries[-1][2]
    table = self_time_table(layer_self, by_name, median([s["run_s"] for s in ok]))
    record = {"layer_self_s": layer_self, "by_name": by_name}
    return metrics, samples, record, table


def self_time_table(layer_self, by_name, traced_run_s):
    lines = [f"{'layer':<12}{'self_s':>10}{'share':>8}"]
    for layer, s in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<12}{s:>10.3f}{s / traced_run_s:>8.1%}")
    rest = traced_run_s - sum(layer_self.values())
    lines.append(f"{'(no span)':<12}{rest:>10.3f}{rest / traced_run_s:>8.1%}")
    lines.append(f"{'span':<46}{'calls':>9}{'self_s':>10}")
    top = sorted(by_name.items(), key=lambda kv: -kv[1][1])[:12]
    lines += [f"{name:<46}{calls:>9}{s:>10.3f}" for name, (calls, s) in top]
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bcpnp" / "cli.py").is_file():
        print(f"benchmark error: no bcpnp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        try:
            metrics, samples, record, table = measure(
                workload, args.seed, args.seconds, bool(args.trace), reference
            )
        except BenchmarkError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 2
        failed = [s for s in samples if s["failures"]]
        prov = provenance(args.seed, next((s for s in samples if s.get("numpy")), {}))
        print(f"== {workload} seed={args.seed} samples={len(samples)}")
        for name, (value, unit) in metrics.items():
            print(f"{workload} {name} {value:.6g} {unit}")
        if "wall_s" in record:
            print(f"{workload} wall_s {record['wall_s']:.6g} s (wall clock, not normalised)")
        print(f"{workload} fail_frac {len(failed) / len(samples):.6g} ratio")
        for s in failed:
            print(f"{workload} failed sample ({s['mode']}): {'; '.join(s['failures'])}")
        if table:
            print(table)
        print("provenance " + json.dumps(prov, sort_keys=True))
        record.update(
            workload=workload, trace=args.trace, metrics=metrics, provenance=prov,
            samples=[
                {k: v for k, v in s.items() if k not in ("out_dir", "stderr")} for s in samples
            ],
        )
        (SCRATCH / f"result-{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, default=str)
        )
        out["attempted"] += len(samples)
        out["failed"] += len(failed)
        prefix = "" if len(workloads) == 1 else f"{workload}/"
        out["metrics"].update(
            {prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        )
    out["correct"] = out["failed"] == 0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
