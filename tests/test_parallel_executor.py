"""Shared-memory parallel element-kernel engine: determinism, state
versioning, failure modes, and the wiring through operators, assembly, and
multigrid.

The executor runs threads.  Tests parametrized over ``backend`` repeat
their bit-identity checks with ``"process"``: the rank engine over the
forked processes of :mod:`repro.parallel.procomm`, the package's one
process runtime.  Every serial reference is a separately built operator
(``workers=1``, no engine): the element spans are fixed by the mesh, so
serial is the reference for every worker count.
"""

import numpy as np
import pytest

from repro import obs
from repro.fem import StructuredMesh, GaussQuadrature, assembly
from repro.matfree import make_operator
from repro.parallel import (
    ExchangeStats,
    ParallelCSRMatVec,
    ParallelExecutor,
    make_executor,
    measured_exchange,
    partition_elements,
    partition_range,
    resolve_workers,
    span_window,
)
from repro.parallel.executor import reduce_windows
from repro.parallel.halo import halo_exchange_plan
from repro.parallel.decomposition import BlockDecomposition
from tests.conftest import parallel_engine

QUAD = GaussQuadrature.hex(3)
KINDS = ["asmb", "mf", "tensor", "tensor_c"]
BACKENDS = ["thread", "process"]


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def serial_operator(kind, mesh, eta):
    """A separately built serial operator: no engine in the loop."""
    op = make_operator(kind, mesh, eta, quad=QUAD, workers=1)
    assert op.executor is None
    return op


def small_setup(shape=(3, 3, 4), seed=7):
    rng = np.random.default_rng(seed)
    mesh = StructuredMesh(shape, order=2, extent=(1.0, 0.8, 1.2))
    eta = np.exp(rng.normal(scale=0.5, size=(mesh.nel, QUAD.npoints)))
    u = rng.standard_normal(3 * mesh.nnodes)
    return mesh, eta, u


class TestPartitioning:
    def test_partition_range_covers_and_is_contiguous(self):
        for n in (0, 1, 7, 100):
            for p in (1, 3, 8, 200):
                spans = partition_range(n, p)
                assert spans[0][0] == 0 and spans[-1][1] == n
                for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
                    assert e0 == s1

    def test_element_spans_depend_on_the_mesh_only(self):
        import inspect

        assert list(inspect.signature(partition_elements).parameters) == [
            "mesh"]
        mesh, eta, _ = small_setup(shape=(3, 4, 5))
        layer = 3 * 4
        spans = partition_elements(mesh)
        assert spans == [(layer * k, layer * (k + 1)) for k in range(5)]
        # every engine, whatever its worker count, runs the same spans
        for workers in (1, 2, 3, 7):
            op = make_operator("tensor", mesh, eta, quad=QUAD,
                               workers=workers)
            assert op._spans == spans
            if op.executor is not None:
                op.executor.shutdown()
        # each span's window is exactly the dofs its layer touches
        for s, e in spans:
            conn = mesh.connectivity[s:e]
            assert span_window(mesh, s, e) == (3 * conn.min(),
                                               3 * conn.max() + 3)


    def test_reduce_windows_adds_in_span_order(self, rng):
        # overlapping, repeated, disjoint and gapped windows: the reduce
        # equals adding every partial into a zeroed output in span order
        windows = [(0, 5), (3, 8), (3, 8), (10, 12), (11, 14)]
        partials = [rng.standard_normal(hi - lo) for lo, hi in windows]
        want = np.zeros(14)
        for p, (lo, hi) in zip(partials, windows):
            want[lo:hi] += p
        assert np.array_equal(reduce_windows(partials, windows), want)


class TestResolution:
    def test_resolve_workers_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3
        assert resolve_workers(2) == 2  # explicit beats environment
        with pytest.raises(ValueError):
            resolve_workers(0)

    def test_make_executor(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert make_executor(None) is None
        assert make_executor(1) is None
        ex = make_executor(2)
        assert isinstance(ex, ParallelExecutor) and ex.workers == 2
        assert make_executor(4, executor=ex) is ex
        ex.shutdown()

    def test_stokes_config_rejects_the_process_backend(self):
        from repro.stokes.solve import StokesConfig

        for ok in (None, "auto", "thread"):
            assert StokesConfig(parallel_backend=ok).parallel_backend == ok
        with pytest.raises(ValueError, match="repro.parallel.procomm"):
            StokesConfig(parallel_backend="process")
        with pytest.raises(ValueError, match="parallel_backend"):
            StokesConfig(parallel_backend="mpi")

    def test_env_workers_activate_operator(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        mesh, eta, u = small_setup()
        op = make_operator("tensor", mesh, eta, quad=QUAD)
        assert op.executor is not None and op.executor.workers == 2
        ref = serial_operator("tensor", mesh, eta)
        assert np.array_equal(op.apply(u), ref.apply(u))
        op.executor.shutdown()


class TestBitIdenticalOperators:
    """Parallel == serial with ``rtol=0``: the element partials are
    dot-reduction-free and reduced in the mesh's span order, so equality
    is exact, not approximate."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_apply_matches_serial_exactly(self, kind, backend):
        mesh, eta, u = small_setup()
        y_ser = serial_operator(kind, mesh, eta).apply(u)
        with parallel_engine(backend, 3) as ex:
            op = make_operator(kind, mesh, eta, quad=QUAD, executor=ex)
            y_par = op.apply(u)
        assert np.array_equal(y_par, y_ser)  # rtol=0: bitwise

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_assembled_matvec_matches_plain_spmv(self, backend):
        mesh, eta, u = small_setup()
        with parallel_engine(backend, 3) as ex:
            op = make_operator("asmb", mesh, eta, quad=QUAD, executor=ex)
            assert np.array_equal(op.apply(u), op.matrix @ u)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_parallel_assembly_identical(self, backend):
        mesh, eta, _ = small_setup()
        A_ser = assembly.assemble_viscous(mesh, eta, QUAD)
        with parallel_engine(backend, 3) as ex:
            A_par = assembly.assemble_viscous(mesh, eta, QUAD, executor=ex)
        assert np.array_equal(A_ser.indptr, A_par.indptr)
        assert np.array_equal(A_ser.indices, A_par.indices)
        assert np.array_equal(A_ser.data, A_par.data)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_diagonal_close_to_serial(self, backend):
        # the diagonal scatter-adds the span windows in span order on
        # every engine, so it is not just close: it is bitwise equal
        mesh, eta, _ = small_setup()
        d_ser = assembly.viscous_diagonal(mesh, eta, QUAD)
        with parallel_engine(backend, 3) as ex:
            d_par = assembly.viscous_diagonal(mesh, eta, QUAD, executor=ex)
        assert np.array_equal(d_ser, d_par)

    def test_csr_matvec_bit_identical(self, rng):
        import scipy.sparse as sp

        A = sp.random(300, 300, density=0.05, random_state=123, format="csr")
        u = rng.standard_normal(300)
        ex = ParallelExecutor(workers=4)
        mv = ParallelCSRMatVec(A, ex)
        assert np.array_equal(mv(u), A @ u)
        ex.shutdown()


def _deform(mesh):
    mesh.deform(lambda c: c + 0.02 * np.sin(2 * np.pi * c[:, [1, 2, 0]]))


@pytest.mark.parametrize("workers", [1, 2])
class TestStateVersioning:
    """Coefficient caches follow the ``(coords_version, eta_version)``
    state contract, serially and on 2 worker threads.

    Before that contract an in-place viscosity re-linearization silently
    applied a stale operator: the coefficient-caching kinds kept the old
    viscosity in their cached tensor.  Every reference below is a freshly
    built serial operator on the current state, so a stale cache fails
    the bitwise comparison."""

    @pytest.mark.parametrize("kind", ["tensor", "tensor_c", "asmb"])
    def test_mesh_deform_rebuilds_coefficients(self, kind, workers):
        mesh, eta, u = small_setup()
        op = make_operator(kind, mesh, eta, quad=QUAD, workers=workers)
        op.apply(u)  # cache coefficients on the original geometry
        if kind == "asmb":
            # the assembled matrix is geometry-frozen; just re-apply
            want = serial_operator(kind, mesh, eta).apply(u)
            assert np.array_equal(op.apply(u), want)
        else:
            _deform(mesh)
            y = op.apply(u)
            fresh = serial_operator(kind, mesh, eta)
            assert np.array_equal(y, fresh.apply(u))
        if op.executor is not None:
            op.executor.shutdown()

    @pytest.mark.parametrize("kind", ["tensor", "tensor_c"])
    def test_eta_mutation_rebuilds_coefficients(self, kind, workers):
        mesh, eta, u = small_setup()
        op = make_operator(kind, mesh, eta.copy(), quad=QUAD, workers=workers)
        op.apply(u)  # cache coefficients for the original viscosity
        op.eta_q *= 1.7  # in-place re-linearization: no new array object
        y = op.apply(u)
        # it must reflect the NEW viscosity, not the cached one (rtol=0)
        ref_op = serial_operator(kind, mesh, eta * 1.7)
        assert np.array_equal(y, ref_op.apply(u))
        if op.executor is not None:
            op.executor.shutdown()

    def test_set_viscosity_rebuilds_coefficients(self, workers):
        mesh, eta, u = small_setup()
        op = make_operator("tensor_c", mesh, eta, quad=QUAD, workers=workers)
        op.apply(u)
        op.set_viscosity(eta * 0.25)
        y = op.apply(u)
        ref_op = serial_operator("tensor_c", mesh, eta * 0.25)
        assert np.array_equal(y, ref_op.apply(u))
        if op.executor is not None:
            op.executor.shutdown()


class _RaisingKernel:
    def partial(self, u, s, e):
        raise ValueError("bad coefficient block")


class TestFailureModes:
    # threads only: a rank process reports a kernel exception as a
    # CommError (see tests/test_procomm.py)
    @pytest.mark.parametrize("backend", ["thread"])
    def test_kernel_exception_propagates_as_itself(self, backend):
        ex = ParallelExecutor(workers=2)
        with pytest.raises(ValueError, match="bad coefficient block"):
            ex.dispatch(
                _RaisingKernel(), "partial", [(0, 2), (2, 4)], np.zeros(4),
                [(0, 4), (0, 4)],
            )
        ex.shutdown()

    def test_dispatch_argument_validation(self):
        ex = ParallelExecutor(workers=2)
        with pytest.raises(ValueError, match="windows"):
            ex.dispatch(_RaisingKernel(), "partial", [(0, 1)], np.zeros(2),
                        [])
        with pytest.raises(ValueError, match="windows"):
            ex.dispatch(
                _RaisingKernel(), "partial", [(0, 1), (1, 2)], np.zeros(2),
                [(0, 1)],
            )
        ex.shutdown()


class TestStatsAndObservability:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stats_accumulate(self, backend):
        mesh, eta, u = small_setup()
        with parallel_engine(backend, 3) as ex:
            op = make_operator("tensor", mesh, eta, quad=QUAD, executor=ex)
            for _ in range(3):
                op.apply(u)
        st = ex.stats
        window_bytes = 8 * sum(hi - lo for lo, hi in op._windows)
        assert st.dispatches == 3
        # one task per worker, each holding a contiguous group of spans
        assert st.tasks == 3 * min(3, len(op._spans))
        assert st.bytes_in == 3 * u.nbytes
        assert st.bytes_out == 3 * window_bytes
        assert st.worker_busy_seconds > 0.0
        assert st.queue_wait_seconds >= 0.0
        assert st.reduce_seconds >= 0.0
        d = st.as_dict()
        assert d["dispatches"] == 3 and d["tasks"] == st.tasks

    def test_obs_events_emitted(self):
        obs.enable()
        mesh, eta, u = small_setup()
        op = make_operator("tensor", mesh, eta, quad=QUAD, workers=2)
        op.apply(u)
        names = {name for (_, name) in obs.registry.REGISTRY.events}
        assert "ParExecDispatch" in names
        assert "ParExecQueueWait" in names
        assert "ParExecWorkerBusy" in names
        assert "ParExecReduce" in names
        op.executor.shutdown()

    def test_measured_halo_exchange(self):
        mesh, eta, u = small_setup()
        op = make_operator("tensor", mesh, eta, quad=QUAD, workers=2)
        decomp = BlockDecomposition(mesh, (1, 1, 2))
        before = halo_exchange_plan(decomp, executor=op.executor)
        assert not before.measured  # no dispatch yet: analytic model
        op.apply(u)
        after = halo_exchange_plan(decomp, executor=op.executor)
        assert after.measured
        window_bytes = 8 * sum(hi - lo for lo, hi in op._windows)
        assert after.bytes_total == u.nbytes + window_bytes
        assert after.messages == 3  # one broadcast in, one reply per task
        # tuple compatibility with the historic return value
        msgs, total, per_rank = after
        assert (msgs, total) == (after.messages, after.bytes_total)
        assert measured_exchange(None) is None
        op.executor.shutdown()


class TestMultigridWiring:
    def test_gmg_parallel_stats_and_exactness(self):
        from repro.mg.coefficients import coefficient_hierarchy
        from repro.mg.gmg import GMGConfig, build_gmg
        from tests.conftest import free_slip_bc

        rng = np.random.default_rng(3)
        mesh = StructuredMesh((4, 4, 4), order=2)
        eta = np.exp(rng.normal(scale=0.5, size=(mesh.nel, QUAD.npoints)))
        meshes = mesh.hierarchy(2)[::-1]
        etas = coefficient_hierarchy(meshes, eta, QUAD)
        # workers=1 pins the serial reference even under $REPRO_WORKERS
        mg_s, _ = build_gmg(meshes, etas, free_slip_bc,
                            GMGConfig(levels=2, coarse_solver="lu", workers=1))
        mg_p, _ = build_gmg(meshes, etas, free_slip_bc,
                            GMGConfig(levels=2, coarse_solver="lu",
                                      workers=2))
        assert mg_s.parallel_stats() is None
        b = rng.standard_normal(3 * mesh.nnodes)
        b[free_slip_bc(mesh).mask] = 0.0
        x_s = mg_s(b)
        x_p = mg_p(b)
        # levels share one pool; dispatches cover smoother + residual applies
        stats = mg_p.parallel_stats()
        assert stats is not None
        assert stats["executors"] == 1 and stats["workers"] == 2
        assert stats["dispatches"] > 0
        # same cycle, same operators, same span order: bitwise equal
        assert np.array_equal(x_s, x_p)
        for lvl in mg_p.levels:
            if lvl.executor is not None:
                lvl.executor.shutdown()
                break
