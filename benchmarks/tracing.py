"""Outside-in span tracing of the bcpnp layers for the traced benchmark run.

`install` replaces public functions and methods of each bcpnp module (and
the numpy FFT entry points the forward models call) by wrappers that record
one span per call: name, start, end, parent span and an optional value
(iterations for a solve, bytes for a file write).  Each name is patched
where its caller looks it up, so nothing under `src/` changes.  Spans stay
in memory and are written once, when the run ends; `summarize` turns them
into the per-layer metrics and the self-time table.

Span names are "<layer>.<what>"; the layer is one of the package modules
(cli, solver, forward, denoisers, blocks, theory, fileio).
"""

from __future__ import annotations

import functools
import os
import time
from array import array

LAYERS = ("cli", "solver", "forward", "denoisers", "blocks", "theory", "fileio")


def _iterations(result, args):
    return len(result.trace)


def _bytes_written(path_index):
    def value(result, args):
        return os.path.getsize(args[path_index])

    return value


def targets():
    """(span name, owner, attribute, value hook) for every wrapped name."""
    import numpy
    from bcpnp import blocks, cli, denoisers, fileio, forward, solver, theory

    out = [
        ("cli.run", cli, "run", None),
        ("cli.validate", cli, "validate", None),
        ("cli.load_config", cli, "load_config", None),
        ("cli.build_problem", cli, "build_problem", None),
        ("cli.build_denoiser", cli, "build_denoiser", None),
        ("solver.solve", cli, "solve", _iterations),
        ("solver.resolve_gamma", cli, "resolve_gamma", None),
        ("solver.g_operator", solver, "g_operator", None),
        ("forward.estimate_block_lipschitz", solver, "estimate_block_lipschitz", None),
        ("forward.synthesize", cli, "synthesize", None),
        ("denoisers.apply_denoiser", solver, "apply_denoiser", None),
        ("denoisers.error_magnitude", solver, "error_magnitude", None),
        ("denoisers.implicit_reg_value", theory, "implicit_reg_value", None),
        ("denoisers.implicit_reg_gradient", theory, "implicit_reg_gradient", None),
        ("denoisers.implicit_reg_lipschitz", theory, "implicit_reg_lipschitz", None),
        ("blocks.complex_to_pairs", forward, "complex_to_pairs", None),
        ("blocks.pairs_to_complex", forward, "pairs_to_complex", None),
        ("blocks.complex_to_pairs", cli, "complex_to_pairs", None),
        ("blocks.pairs_to_complex", cli, "pairs_to_complex", None),
        ("theory.rmse", solver, "rmse", None),
        ("theory.rmse", cli, "rmse", None),
        ("theory.ssim", cli, "ssim", None),
        ("theory.check_descent", cli, "check_descent", None),
        ("theory.check_theorem2", cli, "check_theorem2", None),
        ("theory.reference_f_star", cli, "reference_f_star", None),
        ("fileio.save_matrix_csv", fileio, "save_matrix_csv", _bytes_written(0)),
        ("fileio.write_pgm", fileio, "write_pgm", _bytes_written(0)),
        ("fileio.IterateTrace.to_csv", theory.IterateTrace, "to_csv", _bytes_written(1)),
    ]
    for name in ("rfft2", "irfft2", "fft2", "ifft2"):
        out.append((f"forward.fft.{name}", numpy.fft, name, None))
    methods = {
        "forward": {
            forward.BlindConvolutionModel: ("forward", "adjoint_v", "adjoint_theta"),
            forward.MultiCoilModel: ("forward", "adjoint_v", "adjoint_maps"),
            forward.ConvolutionFidelity: (
                "residual", "value", "grad_v", "grad_theta", "grad_block", "grad",
                "hessian_vec", "adjoint_init",
            ),
            forward.MultiCoilFidelity: (
                "residual", "grad_v", "grad_theta", "grad_block", "grad", "hessian_vec",
                "adjoint_init",
            ),
        },
        "denoisers": {
            denoisers.MmseDenoiser: ("apply",),
            denoisers.TvProxDenoiser: ("apply",),
        },
        "blocks": {
            blocks.BlockVector: (
                "__init__", "from_blocks", "extract", "inject", "norm", "block_norms",
            ),
            blocks.BlockSchedule: ("next_index", "with_seed"),
        },
        "theory": {
            theory.ImplicitObjective: ("value", "grad", "m_max"),
            theory.TheoryConstants: ("from_problem",),
            theory.TraceBuilder: ("set_initial", "append", "freeze"),
        },
    }
    for layer, classes in methods.items():
        for cls, names in classes.items():
            for name in names:
                out.append((f"{layer}.{cls.__name__}.{name}", cls, name, None))
    return out


class Recorder:
    """In-memory span store; one instance per traced process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.value = array("q")
        self._stack = [-1]

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, value=None):
        nid = self._intern(name)
        name_id, parent, start, end, values = (
            self.name_id, self.parent, self.start, self.end, self.value,
        )
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            values.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if value is not None:
                values[idx] = value(result, args)
            return result

        return traced

    def dump(self, path):
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            value=np.frombuffer(self.value, dtype=np.int64),
        )


def span_cost_s(calls=50_000, repeats=5):
    """Seconds one span-recording wrapper adds to a call, timed on a no-op.

    The best of `repeats` loops, so that a slow moment of the machine does
    not count as tracer cost.
    """

    def noop():
        return None

    wrapped = Recorder().wrap("calibration", noop)

    def loop(fn):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - start

    plain = min(loop(noop) for _ in range(repeats))
    traced = min(loop(wrapped) for _ in range(repeats))
    return max(traced - plain, 0.0) / calls


def install(recorder):
    """Patch every target with a span-recording wrapper."""
    for name, owner, attr, value in targets():
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(recorder.wrap(name, raw.__func__, value))
        else:
            wrapped = recorder.wrap(name, raw, value)
        setattr(owner, attr, wrapped)


# ---------------------------------------------------------------------------
# span analysis
# ---------------------------------------------------------------------------


def load(path):
    import numpy as np

    with np.load(path, allow_pickle=False) as z:
        return {k: z[k] for k in z.files}


def _inside(spans, mask, outer):
    """Which spans in `mask` start inside one of the (non-nested) `outer` spans."""
    import numpy as np

    starts = spans["start"][outer]
    ends = spans["end"][outer]
    s = spans["start"][mask]
    j = np.searchsorted(starts, s, side="right") - 1
    ok = j >= 0
    ok[ok] = s[ok] < ends[j[ok]]
    return ok


def summarize(spans):
    """Per-layer metrics (counts and seconds) and self time per name."""
    import numpy as np

    names = [str(n) for n in spans["names"]]
    nid = spans["name_id"]
    parent = spans["parent"]
    dur = (spans["end"] - spans["start"]) / 1e9
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    def sel(pred):
        return np.isin(nid, [i for i, n in enumerate(names) if pred(n)])

    def named(*wanted):
        return sel(lambda n: n in wanted)

    def total(mask):
        return float(dur[mask].sum())

    solve = named("solver.solve")
    certify = named("forward.estimate_block_lipschitz")
    iters = int(spans["value"][solve].sum())

    def per_iter(mask):
        return int(_inside(spans, mask, solve).sum()) / iters if iters else 0.0

    apply_ = sel(lambda n: n.startswith("denoisers.") and n.endswith(".apply"))
    outer_apply = apply_ & ~np.where(parent >= 0, apply_[parent], False)
    tv = named("denoisers.TvProxDenoiser.apply")
    fileio_ = sel(lambda n: n.startswith("fileio."))
    layer_self = {
        layer: float(self_time[sel(lambda n, p=layer + ".": n.startswith(p))].sum())
        for layer in LAYERS
    }

    metrics = {
        "forward.fft_per_iter": (per_iter(sel(lambda n: n.startswith("forward.fft."))), "count"),
        "forward.residual_per_iter": (per_iter(sel(lambda n: n.endswith(".residual"))), "count"),
        "forward.self_s": (layer_self["forward"], "s"),
        "forward.certify_s": (total(certify), "s"),
        "forward.certify_hvp": (
            int(_inside(spans, sel(lambda n: n.endswith(".hessian_vec")), certify).sum()),
            "count",
        ),
        "denoisers.calls_per_iter": (per_iter(outer_apply), "count"),
        "denoisers.tv_s": (total(tv), "s"),
        "denoisers.tv_calls": (int(tv.sum()), "count"),
        "denoisers.mmse_s": (total(named("denoisers.MmseDenoiser.apply")), "s"),
        "solver.iters": (iters, "count"),
        "solver.solve_calls": (int(solve.sum()), "count"),
        "solver.self_s": (layer_self["solver"], "s"),
        "solver.g_operator_s": (total(named("solver.g_operator")), "s"),
        "solver.us_per_iter": (total(solve) / iters * 1e6 if iters else 0.0, "us"),
        "blocks.extract_per_iter": (per_iter(named("blocks.BlockVector.extract")), "count"),
        "blocks.vectors_per_iter": (per_iter(named("blocks.BlockVector.__init__")), "count"),
        "blocks.schedule_s": (total(named("blocks.BlockSchedule.next_index")), "s"),
        "blocks.pairs_s": (
            total(named("blocks.complex_to_pairs", "blocks.pairs_to_complex")), "s"
        ),
        "theory.objective_s": (
            total(named("theory.ImplicitObjective.value", "theory.ImplicitObjective.grad")),
            "s",
        ),
        "theory.objective_per_iter": (per_iter(named("theory.ImplicitObjective.value")), "count"),
        "theory.checks_s": (
            total(sel(lambda n: n.startswith("theory.check_") or n == "theory.reference_f_star")),
            "s",
        ),
        "cli.validate_s": (total(named("cli.validate")), "s"),
        "cli.build_s": (total(named("cli.build_problem")), "s"),
        "fileio.write_s": (total(fileio_), "s"),
        "fileio.bytes": (int(spans["value"][fileio_].sum()), "B"),
    }
    by_name = {}
    for i, n in enumerate(names):
        mask = nid == i
        by_name[n] = (int(mask.sum()), float(self_time[mask].sum()))
    return metrics, layer_self, by_name
