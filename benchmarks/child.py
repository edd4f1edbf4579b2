"""One benchmark sample, run in a fresh process by `run.py`.

    python3 child.py CONFIG OUT_DIR SEED RESULT_JSON {full,trace} PROBE

Calls the public CLI entry `bcpnp.cli.run` on CONFIG with SEED as the
problem seed ("none" keeps the config's) and writes its timings to
RESULT_JSON.  Besides the span tracer in `trace` mode, the only hook is a
timestamp-only wrapper around `bcpnp.cli.solve`: its first entry ends
set-up, and the summed solve spans give the iteration rate.

`full` mode also runs the speed probe PROBE (a key of `speed.PROBES`) and
reports `run_s`, `setup_s` and `solve_s` in reference-speed seconds, next
to the wall-clock `wall_s`.  The clock starts once the probe is installed,
before `import bcpnp` (numpy is already imported by then).  `trace` mode
installs the span tracer instead, writes the spans next to the result and,
after the run, measures what one span costs (`tracing.span_cost_s`); its
times are wall clock.  The exit code is that of `cli.run`.
"""

import json
import sys
import time


def main():
    config, out_dir, seed, result_path, mode, probe_kind = sys.argv[1:7]
    probe = None
    if mode == "full":
        import speed

        probe = speed.SpeedProbe(probe_kind)
        probe.install()
    t0 = time.perf_counter()
    from bcpnp import cli

    recorder = None
    if mode == "trace":
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)

    solves = []
    inner = cli.solve

    def timed_solve(*args, **kwargs):
        entry = time.perf_counter()
        result = inner(*args, **kwargs)
        solves.append((entry, time.perf_counter(), len(result.trace)))
        return result

    cli.solve = timed_solve
    code = cli.run(
        config, out_override=out_dir, seed_override=None if seed == "none" else int(seed)
    )
    t1 = time.perf_counter()

    seconds = lambda a, b: b - a  # noqa: E731
    if probe is not None:
        probe.stop()
        seconds = probe.normaliser(t0, t1)

    import resource

    import numpy

    result = {
        "exit_code": code,
        "wall_s": t1 - t0,
        "run_s": seconds(t0, t1),
        "setup_s": seconds(t0, solves[0][0]) if solves else None,
        "solve_s": sum(seconds(a, b) for a, b, _ in solves),
        "iters": sum(n for _, _, n in solves),
        "solve_calls": len(solves),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bcpnp_file": cli.__file__,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }
    if probe is not None:
        result["probes"] = len(probe.start)
        result["probe_median_s"] = float(numpy.median(numpy.subtract(probe.end, probe.start)))
    if recorder is not None:
        spans_path = result_path[: -len(".json")] + ".spans.npz"
        recorder.dump(spans_path)
        result["spans"] = spans_path
        result["span_count"] = len(recorder.name_id)
        result["span_cost_s"] = tracing.span_cost_s()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
