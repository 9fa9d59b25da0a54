"""One canonical element partition: serial is the reference.

The element spans are the mesh's z-layers, whatever the engine, and every
engine adds the windowed span partials in layer order.  So an operator
apply, the matrix-free diagonal and the assembled matrix are bitwise
equal serially, on 1-3 worker threads and on 1, 2 or 4 ranks -- and a
whole time loop gives the same ``state_digest`` for any worker count.

Every reference below is a separately built serial object (``workers=1``,
no engine).  The ``env`` engine resolves ``$REPRO_WORKERS``, so running
this file with ``REPRO_WORKERS=3`` groups 4 layers unevenly over 3
threads.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fem import GaussQuadrature, StructuredMesh, assembly
from repro.matfree import NewtonTensorOperator, _ckernel, make_operator
from repro.parallel import (
    ParallelExecutor,
    VirtualRankEngine,
    make_executor,
)

QUAD = GaussQuadrature.hex(3)

#: engines compared against serial: worker threads {1, 2, 3} (the pool
#: runs one worker inline), ranks {1, 2, 4}, and $REPRO_WORKERS
ENGINES = ["threads-1", "threads-2", "threads-3", "ranks-1", "ranks-2",
           "ranks-4", "env"]


@pytest.fixture(scope="module")
def engines():
    built = {
        "threads-1": ParallelExecutor(workers=1),
        "threads-2": ParallelExecutor(workers=2),
        "threads-3": ParallelExecutor(workers=3),
        "ranks-1": VirtualRankEngine(size=1),
        "ranks-2": VirtualRankEngine(size=2),
        "ranks-4": VirtualRankEngine(size=4),
        "env": make_executor(None),
    }
    yield built
    for ex in built.values():
        if ex is not None:
            ex.shutdown()
    # drop the engines now: live comms and executors feed the telemetry
    # gauges of later tests
    built.clear()


@pytest.fixture(params=["compiled", "numpy"])
def kernel(request):
    """Run ``tensor_c`` on the C kernel (when it loads) and the NumPy path."""
    mp = pytest.MonkeyPatch()
    if request.param == "numpy":
        mp.setenv(_ckernel.ENV_DISABLE, "1")
    _ckernel._reset_for_tests()
    yield request.param
    mp.undo()
    _ckernel._reset_for_tests()


def _setup(shape, seed):
    rng = np.random.default_rng(seed)
    mesh = StructuredMesh(shape, order=2, extent=(1.0, 0.8, 1.2))
    mesh.deform(lambda c: c + 0.02 * np.sin(2 * np.pi * c[:, [1, 2, 0]]))
    eta = np.exp(rng.normal(scale=0.5, size=(mesh.nel, QUAD.npoints)))
    u = rng.standard_normal(3 * mesh.nnodes)
    return mesh, eta, u, rng


def _build(kind, mesh, eta, rng_seed, **opts):
    if kind == "newton":
        rng = np.random.default_rng(rng_seed)
        Du = rng.standard_normal((mesh.nel, QUAD.npoints, 3, 3))
        Du = 0.5 * (Du + Du.transpose(0, 1, 3, 2))
        eta_prime = -0.1 * np.abs(rng.standard_normal(eta.shape))
        return NewtonTensorOperator(mesh, eta, Du, eta_prime, quad=QUAD,
                                    **opts)
    return make_operator(kind, mesh, eta, quad=QUAD, **opts)


shapes = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 5))


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shape=shapes, seed=st.integers(0, 2**16))
@pytest.mark.parametrize("kind", ["asmb", "mf", "tensor", "newton",
                                  "tensor_c"])
def test_apply_is_bitwise_equal_for_every_engine(kind, shape, seed, engines,
                                                 kernel):
    if kernel == "numpy" and kind != "tensor_c":
        return  # only tensor_c has two backends
    mesh, eta, u, _ = _setup(shape, seed)
    serial = _build(kind, mesh, eta, seed, workers=1)
    assert serial.executor is None
    want = serial.apply(u)
    for name in ENGINES:
        op = _build(kind, mesh, eta, seed, executor=engines[name],
                    workers=1)
        assert np.array_equal(op.apply(u), want), name


@settings(max_examples=6, deadline=None)
@given(shape=shapes, seed=st.integers(0, 2**16))
def test_diagonal_and_assembly_are_bitwise_equal_for_every_engine(
        shape, seed, engines):
    mesh, eta, _, _ = _setup(shape, seed)
    d_want = assembly.viscous_diagonal(mesh, eta, QUAD)
    A_want = assembly.assemble_viscous(mesh, eta, QUAD)
    for name in ENGINES:
        ex = engines[name]
        d = assembly.viscous_diagonal(mesh, eta, QUAD, executor=ex)
        assert np.array_equal(d, d_want), name
        A = assembly.assemble_viscous(mesh, eta, QUAD, executor=ex)
        assert np.array_equal(A.indptr, A_want.indptr), name
        assert np.array_equal(A.indices, A_want.indices), name
        assert np.array_equal(A.data, A_want.data), name


def _sinker_digest(workers):
    """The distributed driver's default sinker, 2 steps, no engine."""
    import dataclasses

    from repro.parallel.distributed import (
        _default_sim_config, _default_sinker,
    )
    from repro.serve.store import state_digest
    from repro.sim.sinker import make_sinker

    cfg = _default_sim_config()
    cfg = dataclasses.replace(
        cfg, stokes=dataclasses.replace(cfg.stokes, workers=workers))
    sim = make_sinker(_default_sinker(), cfg)
    for _ in range(2):
        sim.step(0.05)
    return state_digest(sim)


def test_sinker_digest_is_worker_and_rank_count_invariant():
    from repro.parallel import run_sinker_distributed

    want = _sinker_digest(1)
    assert _sinker_digest(2) == want
    assert _sinker_digest(3) == want
    assert _sinker_digest(None) == want  # $REPRO_WORKERS
    for ranks in (1, 4):
        out = run_sinker_distributed(ranks=ranks, nsteps=2, oracle=True)
        assert out["digest"] == want, ranks
