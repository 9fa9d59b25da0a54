"""Table III: computational efficiency -- elements/core/s, GF/s, GF/C/s.

The paper reports, for "MG res" (one fine-level residual evaluation, i.e.
the raw SpMV kernel) and for the complete Stokes solve, the efficiency
metrics E/C/s (elements per core per second), GF/C/s and total GF/s across
SpMV kinds, grids, and core counts.  The shapes asserted here:

* E/C/s: Tensor > MF > Assembled uniformly (both in NumPy measurement
  and in the Edison model);
* GF/s of operator application is *highest* for MF (it does 3.5x the
  flops), yet its E/C/s is lower -- the paper's reminder that GF/s is not
  time-to-solution.
"""

import time

import numpy as np
import pytest

from repro.fem import GaussQuadrature, StructuredMesh
from repro.matfree import make_operator
from repro.perf import (
    EDISON,
    OPERATOR_COUNTS,
    apply_time_per_element,
    efficiency_metrics,
)
from repro.perf.roofline import SolveCostModel
from repro.sim.sinker import SinkerConfig, sinker_stokes_problem
from repro.stokes import StokesConfig, solve_stokes

from conftest import print_table, fmt, once

SHAPE = (8, 8, 8)
KINDS = ["asmb", "mf", "tensor"]


@pytest.fixture(scope="module")
def residual_rates():
    """Measured 'MG res' rates: one operator application."""
    rng = np.random.default_rng(0)
    mesh = StructuredMesh(SHAPE, order=2)
    quad = GaussQuadrature.hex(3)
    eta = np.exp(rng.normal(size=(mesh.nel, quad.npoints)))
    u = rng.standard_normal(3 * mesh.nnodes)
    out = {}
    for kind in KINDS:
        op = make_operator(kind, mesh, eta, quad=quad)
        op.apply(u)  # warm
        reps = 5
        t0 = time.perf_counter()
        for _ in range(reps):
            op.apply(u)
        seconds = (time.perf_counter() - t0) / reps
        out[kind] = (mesh.nel, seconds)
    return out


@pytest.fixture(scope="module")
def solve_rates():
    out = {}
    for kind in KINDS:
        cfg = SinkerConfig(shape=SHAPE, n_spheres=8, radius=0.1, delta_eta=1e2)
        pb = sinker_stokes_problem(cfg)
        sol = solve_stokes(pb, StokesConfig(
            mg_levels=2, coarse_solver="sa", operator=kind, rtol=1e-5,
            maxiter=600, restart=200,
        ))
        assert sol.converged
        out[kind] = (pb.mesh.nel, sol.solve_seconds, sol.iterations)
    return out


def test_table3_mg_res(benchmark, residual_rates):
    once(benchmark, lambda: None)
    rows = []
    for kind in KINDS:
        nel, seconds = residual_rates[kind]
        flops = OPERATOR_COUNTS[kind].flops * nel
        m = efficiency_metrics(nel, 1, seconds, flops)
        # Edison model at the paper's 192 cores
        t_e = apply_time_per_element(kind, EDISON) * nel / 192
        me = efficiency_metrics(nel, 192, t_e, flops)
        rows.append([
            kind, fmt(m["elements_per_core_per_s"]), fmt(m["gflops"]),
            fmt(me["elements_per_core_per_s"]), fmt(me["gflops"]),
        ])
    print_table(
        "Table III (MG res): efficiency of one fine-level residual",
        ["SpMV", "E/C/s (numpy, 1 core)", "GF/s (numpy)",
         "E/C/s (Edison model, 192c)", "GF/s (model)"],
        rows,
    )


def test_table3_stokes_solve(benchmark, solve_rates):
    once(benchmark, lambda: None)
    rows = []
    for kind in KINDS:
        nel, seconds, its = solve_rates[kind]
        # end-to-end flop accounting: fine applies per V(2,2) iteration
        applies = SolveCostModel().fine_applies_per_iteration
        flops = applies * its * OPERATOR_COUNTS[kind].flops * nel
        m = efficiency_metrics(nel, 1, seconds, flops)
        rows.append([kind, its, fmt(seconds),
                     fmt(m["elements_per_core_per_s"]), fmt(m["gflops"])])
    print_table(
        "Table III (Stokes solve): end-to-end efficiency",
        ["SpMV", "its", "solve s", "E/C/s", "GF/s"],
        rows,
    )


def test_table3_tensor_highest_efficiency_model(benchmark):
    """In the machine model the Table III ordering is strict: Tensor > MF >
    Asmb in elements/core/s."""
    once(benchmark, lambda: None)
    ecs = {
        k: 1.0 / apply_time_per_element(k, EDISON) for k in KINDS
    }
    assert ecs["tensor"] > ecs["mf"] > ecs["asmb"]


def test_table3_mf_highest_gflops(benchmark, residual_rates):
    """MF posts the highest GF/s while not being the fastest -- fewer flops
    beat more flops/s (SS IV-B)."""
    once(benchmark, lambda: None)
    gf = {}
    ecs = {}
    for kind in ("mf", "tensor"):
        nel, seconds = residual_rates[kind]
        gf[kind] = OPERATOR_COUNTS[kind].flops * nel / seconds / 1e9
        ecs[kind] = nel / seconds
    assert gf["mf"] > gf["tensor"]
    assert ecs["tensor"] > ecs["mf"]


def test_table3_measured_tensor_faster_than_mf(benchmark, residual_rates):
    once(benchmark, lambda: None)
    assert residual_rates["tensor"][1] < residual_rates["mf"][1]
