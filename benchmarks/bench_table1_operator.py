"""Table I: cost of applying the Q2 viscous operator, four ways.

Regenerates, per operator kind (Assembled / Matrix-free / Tensor /
Tensor-C):

* the paper's exact per-element flop and byte counts (analytic,
  SS III-D -- asserted, not just printed);
* the Edison-model time and GF/s for the paper's setting (64^3 elements,
  8 nodes);
* the *measured* NumPy/C wall time of our kernels at bench scale, whose
  ordering must reproduce the paper's: tensor < mf on flops, and the
  assembled SpMV throughput bound by memory bandwidth.

The scaling section runs Tensor-C (its compiled kernel when a C
toolchain is present) against assembled SpMV at 16^3 (and 32^3 with ``$REPRO_BENCH_LARGE=1``) -- sizes the einsum kernels
could not reach.  It records, per kind and size, the wall time of one
apply (``table1.ms_per_apply_<kind>_<n>``), the assembled/matrix-free
time ratio (``table1.time_ratio_asmb_over_<kind>_<n>``, >1 means the
matrix-free apply is faster) and, as a diagnostic, the GF/s and GF/s
ratio gauges, all into the BENCH JSON (``table1.*``) for
``repro.obs.compare``.  Flops are those of the path each operator runs
(``op.counts``).  GF/s ratios flatter kernels that do more flops;
the paper's claim is about time, so the acceptance check is on time.
"""

import os
import time

import numpy as np
import pytest

from repro import obs
from repro.fem import GaussQuadrature, StructuredMesh
from repro.matfree import make_operator
from repro.perf import table1_model

from conftest import print_table, fmt, once

SHAPE = (8, 8, 8)
KINDS = ["asmb", "mf", "tensor", "tensor_c"]

#: large-size sweep: einsum kernels are excluded (the per-chunk temporaries
#: are exactly what caps them at 8^3); 32^3 is opt-in for timed CI legs
LARGE = [(16, ["asmb", "tensor_c"])]
if os.environ.get("REPRO_BENCH_LARGE"):
    LARGE.append((32, ["asmb", "tensor_c"]))


def _measured_gflops(op, u, nel, reps=3) -> tuple[float, float]:
    """(seconds, implementation-GF/s) of one apply, best-of-``reps``."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        op.apply(u)
        best = min(best, time.perf_counter() - t0)
    return best, op.counts.flops * nel / best / 1e9


@pytest.fixture(scope="module")
def setting():
    rng = np.random.default_rng(0)
    mesh = StructuredMesh(SHAPE, order=2)
    quad = GaussQuadrature.hex(3)
    eta = np.exp(rng.normal(size=(mesh.nel, quad.npoints)))
    u = rng.standard_normal(3 * mesh.nnodes)
    ops = {k: make_operator(k, mesh, eta, quad=quad) for k in KINDS}
    return mesh, u, ops


@pytest.mark.parametrize("kind", KINDS)
def test_operator_apply(benchmark, setting, kind):
    mesh, u, ops = setting
    op = ops[kind]
    y = benchmark(op.apply, u)
    assert np.isfinite(y).all()
    c = op.counts
    benchmark.extra_info.update(
        flops_per_element=c.flops,
        bytes_perfect=c.bytes_perfect_cache,
        bytes_pessimal=c.bytes_pessimal_cache,
        intensity_flops_per_byte=round(c.intensity_perfect, 2),
        nel=mesh.nel,
    )
    if kind == "tensor_c":
        benchmark.extra_info.update(
            compiled=op.compiled, fallback_reason=op.fallback_reason,
        )


def test_print_table1(benchmark, setting):
    """Assemble the full Table I: paper counts + model + measurement."""
    once(benchmark, lambda: None)

    mesh, u, ops = setting
    rows = []
    measured = {}
    for kind in KINDS:
        measured[kind], _ = _measured_gflops(ops[kind], u, mesh.nel)
    model = {r["operator"]: r for r in table1_model()}
    for kind in KINDS:
        c = ops[kind].counts
        m = model[kind]
        rows.append([
            kind,
            c.flops,
            c.bytes_pessimal_cache,
            c.bytes_perfect_cache,
            fmt(m["time_ms"]),
            fmt(m["gflops"]),
            fmt(measured[kind] * 1e3),
            fmt(c.flops * mesh.nel / measured[kind] / 1e9),
        ])
    print_table(
        "Table I: Q2 viscous operator application (per element)",
        ["op", "flops", "B(pessimal)", "B(perfect)",
         "model ms (64^3, 8 Edison nodes)", "model GF/s",
         "measured ms (8^3)", "measured GF/s"],
        rows,
    )
    # the paper's ordering must hold in the model
    assert model["tensor"]["time_ms"] < model["mf"]["time_ms"] < model["asmb"]["time_ms"]


def test_scaling_ratio(benchmark, setting):
    """16^3(-32^3) sweep: one serial compiled apply must take less wall
    time than the assembled SpMV at 16^3 (the paper's Table I claim)."""
    once(benchmark, lambda: None)

    mesh8, u8, ops8 = setting
    _, gf_asmb8 = _measured_gflops(ops8["asmb"], u8, mesh8.nel)
    _, gf_einsum8 = _measured_gflops(ops8["tensor"], u8, mesh8.nel)
    ratio_einsum_8 = gf_einsum8 / gf_asmb8
    obs.metrics.gauge("table1.ratio_mf_asmb_einsum_8", ratio_einsum_8)

    rows = [["8^3 (einsum tensor)", mesh8.nel, "", "", "",
             fmt(gf_einsum8), fmt(gf_asmb8), fmt(ratio_einsum_8)]]
    ratios = {}
    rng = np.random.default_rng(1)
    for n, kinds in LARGE:
        mesh = StructuredMesh((n, n, n), order=2)
        quad = GaussQuadrature.hex(3)
        eta = np.exp(rng.normal(size=(mesh.nel, quad.npoints)))
        u = rng.standard_normal(3 * mesh.nnodes)
        secs, gf = {}, {}
        for kind in kinds:
            op = make_operator(kind, mesh, eta, quad=quad)
            secs[kind], gf[kind] = _measured_gflops(op, u, mesh.nel)
            obs.metrics.gauge(f"table1.ms_per_apply_{kind}_{n}", secs[kind] * 1e3)
            del op
        for kind in kinds:
            if kind == "asmb":
                continue
            ratio = gf[kind] / gf["asmb"]
            time_ratio = secs["asmb"] / secs[kind]
            ratios[(n, kind)] = time_ratio
            obs.metrics.gauge(f"table1.ratio_mf_asmb_{kind}_{n}", ratio)
            obs.metrics.gauge(f"table1.time_ratio_asmb_over_{kind}_{n}", time_ratio)
            obs.metrics.gauge(f"table1.gflops_{kind}_{n}", gf[kind])
            rows.append([f"{n}^3 ({kind})", mesh.nel, fmt(secs[kind] * 1e3),
                         fmt(secs["asmb"] * 1e3), fmt(time_ratio),
                         fmt(gf[kind]), fmt(gf["asmb"]), fmt(ratio)])
        obs.metrics.gauge(f"table1.gflops_asmb_{n}", gf["asmb"])
    # one committed sample so the gauges land in the BENCH JSON series
    obs.metrics.commit_step(0)
    print_table(
        "Matrix-free vs assembled: time per apply, GF/s (implementation counts)",
        ["setting", "nel", "mf ms", "asmb ms", "asmb/mf time",
         "mf GF/s", "asmb GF/s", "mf/asmb GF/s"],
        rows,
    )
    benchmark.extra_info.update(
        ratio_einsum_8=ratio_einsum_8,
        **{f"time_ratio_asmb_over_{k}_{n}": r for (n, k), r in ratios.items()},
    )
    # acceptance: one serial compiled Tensor-C apply at 16^3 is faster
    # than the assembled SpMV (without a toolchain tensor_c runs its NumPy
    # path, so only gate when the kernel actually compiled)
    if ops8["tensor_c"].compiled:
        assert ratios[(16, "tensor_c")] > 1.0
