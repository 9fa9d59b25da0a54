"""Shared-memory executor: serial vs parallel operator throughput.

Benchmarks the Tensor-C viscous apply (the kernel the default solve runs,
compiled when a C toolchain is present) through the
:mod:`repro.parallel.executor` engine, serial against worker-thread
dispatch, and attaches a ``parallel_speedup`` monitor so
the exported ``BENCH_parallel.json`` (schema ``repro.obs/1``) carries the
serial-vs-parallel GF/s comparison alongside the engine's own
``ParExec*`` events.

On a single-core container the parallel rows mostly measure dispatch
overhead; the CI speedup gate lives in ``check_parallel_speedup.py``.
"""

import os
import time

import numpy as np
import pytest

from repro import obs
from repro.fem import GaussQuadrature, StructuredMesh
from repro.matfree import make_operator

from conftest import print_table, fmt, once

SHAPE = (12, 12, 12)
WORKERS = max(2, min(4, os.cpu_count() or 1))


@pytest.fixture(scope="module")
def setting():
    rng = np.random.default_rng(0)
    mesh = StructuredMesh(SHAPE, order=2)
    quad = GaussQuadrature.hex(3)
    eta = np.exp(rng.normal(size=(mesh.nel, quad.npoints)))
    u = rng.standard_normal(3 * mesh.nnodes)
    serial_op = make_operator("tensor_c", mesh, eta, quad=quad, workers=1)
    par_op = make_operator("tensor_c", mesh, eta, quad=quad, workers=WORKERS)
    yield mesh, u, serial_op, par_op
    par_op.executor.shutdown()


def _time_apply(op, u, rounds=3) -> float:
    op.apply(u)  # warm caches / start threads outside the timed region
    best = np.inf
    for _ in range(rounds):
        t0 = time.perf_counter()
        op.apply(u)
        best = min(best, time.perf_counter() - t0)
    return best


def test_serial_apply(benchmark, setting):
    mesh, u, serial_op, _ = setting
    y = benchmark(serial_op.apply, u)
    assert np.isfinite(y).all()
    benchmark.extra_info.update(workers=1, backend="serial", nel=mesh.nel)


def test_parallel_apply(benchmark, setting):
    mesh, u, serial_op, op = setting
    op.apply(u)  # start the threads before timing
    y = benchmark(op.apply, u)
    # the dispatch path must stay bit-identical to the serial operator
    assert np.array_equal(y, serial_op.apply(u))
    benchmark.extra_info.update(
        workers=WORKERS, backend="thread", nel=mesh.nel,
        **op.executor.stats.as_dict(),
    )


def test_summary_table(benchmark, setting):
    """Serial-vs-parallel GF/s table, attached to the exported JSON."""
    mesh, u, serial_op, par_op = setting
    once(benchmark, lambda: None)
    flops = serial_op.counts.flops * mesh.nel
    t_serial = _time_apply(serial_op, u)
    summary = {
        "nel": mesh.nel,
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
        "compiled": serial_op.compiled,
        "flops_per_apply": flops,
        "serial_seconds": t_serial,
        "serial_gflops": flops / t_serial / 1e9,
    }
    t_par = _time_apply(par_op, u)
    summary["thread_seconds"] = t_par
    summary["thread_gflops"] = flops / t_par / 1e9
    summary["thread_speedup"] = t_serial / t_par
    rows = [["serial", 1, fmt(t_serial), fmt(flops / t_serial / 1e9)],
            ["thread", WORKERS, fmt(t_par), fmt(flops / t_par / 1e9)]]
    obs.attach_monitor("parallel_speedup", summary)
    print_table(
        f"tensor_c apply, {mesh.nel} elements",
        ["backend", "workers", "seconds", "GF/s"],
        rows,
    )
    assert summary["serial_gflops"] > 0
