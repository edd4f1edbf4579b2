"""Self-test of the benchmark's span hooks and count metrics.

    python3 benchmarks/selftest.py

Runs two traced samples of every workload at its config's problem seed and
checks that
- each sample passes the correctness gate of `run.py`, so the wrappers
  leave the outputs byte-identical;
- every wrapped name fires at least once on each workload that reaches it
  (NOT_REACHED lists what a workload's config never calls), and every
  wrapped name fires on some workload;
- every count metric repeats exactly across the two traced samples.
Prints the counts and exits 1 if any check fails.
"""

import fnmatch
import json
import os
import sys

import run
import tracing

# wrapped names a workload's config never calls
NOT_REACHED = {
    "deblur-64": {
        "blocks.complex_to_pairs",
        "blocks.pairs_to_complex",
        "denoisers.implicit_reg_gradient",
        "denoisers.implicit_reg_lipschitz",
        "denoisers.implicit_reg_value",
        "forward.ConvolutionFidelity.value",
        "forward.MultiCoilFidelity.*",
        "forward.MultiCoilModel.*",
        "forward.fft.ifft2",
        "theory.ImplicitObjective.*",
        "theory.TheoryConstants.from_problem",
        "theory.check_descent",
        "theory.check_theorem2",
        "theory.reference_f_star",
        "blocks.BlockSchedule.with_seed",
    },
    "ensemble-8": {
        "blocks.complex_to_pairs",
        "blocks.pairs_to_complex",
        "denoisers.TvProxDenoiser.apply",
        "forward.MultiCoilFidelity.*",
        "forward.MultiCoilModel.*",
        "forward.fft.fft2",
        "forward.fft.ifft2",
        "theory.ssim",
    },
    "multicoil-64": {
        "denoisers.TvProxDenoiser.apply",
        "denoisers.implicit_reg_gradient",
        "denoisers.implicit_reg_lipschitz",
        "denoisers.implicit_reg_value",
        "forward.BlindConvolutionModel.*",
        "forward.ConvolutionFidelity.*",
        "forward.fft.irfft2",
        "forward.fft.rfft2",
        "theory.ImplicitObjective.*",
        "theory.TheoryConstants.from_problem",
        "theory.check_descent",
        "theory.check_theorem2",
        "theory.reference_f_star",
        "blocks.BlockSchedule.with_seed",
    },
}


def _not_reached(workload, name):
    return any(fnmatch.fnmatchcase(name, p) for p in NOT_REACHED[workload])


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    wrapped = {name for name, *_ in tracing.targets()}
    reference = json.loads((run.HERE / "reference.json").read_text())
    fired_anywhere = set()
    failures = []
    for workload in run.WORKLOADS:
        seed = reference[workload]["seed"]
        first_bytes = {}
        summaries = []
        for index in range(2):
            sample = run.run_child(workload, seed, "trace", index)
            if not run.judge(sample, workload, seed, reference, first_bytes):
                failures.append(f"{workload} traced sample {index}: {sample['failures']}")
                continue
            summaries.append(tracing.summarize(tracing.load(sample["spans"])))
            os.unlink(sample["spans"])
        if len(summaries) < 2:
            continue
        fired = {name for name, (calls, _) in summaries[0][2].items() if calls}
        fired_anywhere |= fired
        for name in sorted(wrapped - fired):
            if not _not_reached(workload, name):
                failures.append(f"{workload}: hook {name} never fired")
        for name, (a, unit) in summaries[0][0].items():
            if unit not in run.COUNT_UNITS:
                continue
            b = summaries[1][0][name][0]
            print(f"{workload} {name} {a}")
            if a != b:
                failures.append(f"{workload}: count {name} not repeated: {a} != {b}")
    for name in sorted(wrapped - fired_anywhere):
        failures.append(f"hook {name} fired on no workload")
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
