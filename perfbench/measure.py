"""One benchmark run: warm up, time the operations, check them, report.

The untraced run gives the end-to-end metrics.  The traced run gives the
per-layer metrics: it steps two copies of the same inputs in lockstep, one
plain and one with the span wrappers of :mod:`spans` installed, so the
tracing overhead is measured on identical work.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path

import numpy as np

import spans
from workloads import TOY_SHAPES, WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent


def op_count(cls, seconds: float, trace: bool = False) -> int:
    """Operations per run: ``seconds`` of work at the workload's nominal
    rate, in whole inputs, so the same ``--seconds`` does the same work on
    every run and every machine.  A traced run does half as many, since
    it also runs each one untraced."""
    per_input = cls.ops_per_input
    inputs = max(1, round(seconds / (cls.nominal_op_s * per_input)))
    if trace:
        inputs = max(1, inputs // 2)
    return per_input * inputs


def _attempt(w, state, k: int) -> Op:
    try:
        return w.op(state, k)
    except Exception:  # a crashing operation is a failed one
        return Op(failures=("raised " + traceback.format_exc(),))


def warm_up(cls) -> None:
    """Pay the once-per-machine and once-per-process costs before timing:
    the compiled-kernel build cache, lazy imports and first calls."""
    from repro import obs
    from repro.matfree import _ckernel

    obs.disable()  # the program's own telemetry is off in every run
    _ckernel.available()
    w = cls(TOY_SHAPES[cls.name])
    _attempt(w, w.inputs(0, 1), 0)


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _mean(xs) -> float:
    return float(statistics.fmean(xs)) if xs else 0.0


def _timed(ops):
    return [op for op in ops if op.wall_s > 0]


def run(name: str, seed: int, seconds: float, trace: bool, shape=None) -> dict:
    """Run workload ``name``; return the run document (``result`` inside)."""
    cls = WORKLOADS[name]
    warm_up(cls)
    w = cls(shape) if shape is not None else cls()
    n = op_count(cls, seconds, trace)
    if trace:
        ops, metrics, digests = _traced(w, seed, n)
    else:
        ops, metrics, digests = _untraced(w, seed, n)
    failed = sum(1 for op in ops if op.failures)
    return {
        "result": {
            "correct": failed == 0,
            "attempted": len(ops),
            "failed": failed,
            "metrics": metrics,
        },
        "failures": [f for op in ops for f in op.failures],
        "ops": [vars(op) for op in ops],
        "manifest": manifest(name, seed, seconds, trace, digests),
    }


def _untraced(w, seed: int, n: int):
    state = w.inputs(seed, n)
    digests = {"input": w.input_digest(state)}
    # set-up samples are spread over the run, before each operation on its
    # input, so they see the same host as the operations
    setups, ops = [], []
    for k in range(n):
        setups += [w.setup_sample(state, k) for _ in range(w.setup_reps)]
        ops.append(_attempt(w, state, k))
    # ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digests["state"] = w.state_digest(state)
    timed = _timed(ops)
    metrics = {
        "setup_s": (_median(setups), "s"),
        "step_s": (_median([op.wall_s for op in timed]), "s"),
        "krylov_its": (_median([op.krylov_its for op in timed]), "count"),
        "newton_its": (_mean([op.newton_its for op in timed]), "count"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return ops, _with_units(metrics), digests


def _traced(w, seed: int, n: int):
    plain, traced = w.inputs(seed, n), w.inputs(seed, n)
    digests = {"input": w.input_digest(traced)}
    tracer = spans.Tracer()
    plain_ops, traced_ops = [], []
    for k in range(n):
        # alternate which copy goes first, so neither always runs warm
        for which in ("plain", "traced") if k % 2 == 0 else ("traced", "plain"):
            if which == "plain":
                plain_ops.append(_attempt(w, plain, k))
            else:
                with spans.installed(tracer), tracer.op():
                    traced_ops.append(_attempt(w, traced, k))
    digests["state"] = w.state_digest(traced)
    layers = spans.layer_metrics(tracer)
    plain_wall = sum(op.wall_s for op in _timed(plain_ops))
    traced_wall = sum(op.wall_s for op in _timed(traced_ops))
    layers["trace.overhead_frac"] = traced_wall / plain_wall - 1.0 if plain_wall else 0.0
    t = traced_ops
    layers.update({
        "mpm.points": float(t[-1].points),
        "mpm.points_lost": _mean([op.points_lost for op in t]),
        "mpm.points_injected": _mean([op.points_injected for op in t]),
        "mpm.points_dropped_ale": _mean([op.points_dropped_ale for op in t]),
        "sim.newton_its": _mean([op.newton_its for op in t]),
        "sim.newton_unconverged_steps": float(sum(op.newton_unconverged for op in t)),
    })
    metrics = {k: (v, PER_LAYER_UNITS[k]) for k, v in layers.items()}
    return plain_ops + traced_ops, _with_units(metrics), digests


def _with_units(metrics: dict) -> dict:
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}


#: every per-layer metric with its unit: ``.s`` is self time and ``.calls``
#: a call count, both per operation (NOTES.md has the definitions)
PER_LAYER_UNITS = {
    "matfree.apply.calls": "count",
    "matfree.apply.s": "s",
    "matfree.apply.ms_per_call": "ms",
    "matfree.apply.gflop": "Gflop_computed",
    "matfree.apply.gb": "GB_computed",
    "matfree.diagonal.s": "s",
    "fem.assemble.calls": "count",
    "fem.assemble.s": "s",
    "mg.setup.s": "s",
    "mg.coarse_setup.s": "s",
    "stokes.setup.s": "s",
    "mg.vcycle.calls": "count",
    "mg.smooth.s": "s",
    "mg.transfer.s": "s",
    "mg.coarse.s": "s",
    "solvers.krylov.s": "s",
    "solvers.newton.s": "s",
    "stokes.coupled.s": "s",
    "stokes.schur.s": "s",
    "stokes.fieldsplit.s": "s",
    "mpm.locate.calls": "count",
    "mpm.locate.s": "s",
    "mpm.advect.s": "s",
    "mpm.project.s": "s",
    "mpm.interp.s": "s",
    "mpm.populate.s": "s",
    "mpm.points": "count",
    "mpm.points_lost": "count",
    "mpm.points_injected": "count",
    "mpm.points_dropped_ale": "count",
    "rheology.evaluate.calls": "count",
    "rheology.evaluate.s": "s",
    "energy.step.s": "s",
    "ale.s": "s",
    "sim.newton_its": "count",
    "sim.newton_unconverged_steps": "count",
    "parallel.dispatch.calls": "count",
    "parallel.dispatch.s": "s",
    "parallel.busy.s": "s",
    "parallel.queue_wait.s": "s",
    "parallel.utilization": "ratio",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


# --------------------------------------------------------------------- #
# run manifest
# --------------------------------------------------------------------- #
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    """Cache sizes of CPU 0 as the kernel reports them, e.g. ``{"L2": "2048K"}``."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{level}{suffix}"] = size
    return out


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` (None outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(name, seed, seconds, trace, digests) -> dict:
    import scipy
    from repro.matfree import _ckernel

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "ckernel_available": _ckernel.available(),
        "ckernel_unavailable_reason": _ckernel.unavailable_reason(),
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith(("REPRO_", "OMP_", "OPENBLAS_", "MKL_"))},
        "input_digest": digests["input"],
        "state_digest": digests["state"],
        "argv": sys.argv,
    }
