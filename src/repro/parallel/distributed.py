"""Rank-decomposed dispatch engines and the distributed sinker driver.

Two engines satisfy the executor dispatch contract
(:meth:`~repro.parallel.executor.ParallelExecutor.dispatch` signature,
``.workers``, ``.stats``) and are injected into the whole solve stack via
:func:`~repro.parallel.executor.use_executor`:

:class:`ProcommEngine`
    Fans span kernels and dot partials out to the **real rank processes**
    of a :class:`~repro.parallel.procomm.ProcessComm` -- the package's one
    process runtime; input vectors and result slabs move through the
    communicator's shared-memory blocks, state reaches the ranks by fork
    inheritance, and a state whose version stamp changed since the fork
    is re-snapshotted by a cohort respawn.

:class:`VirtualRankEngine`
    The single-process **oracle**: the identical spans, kernels, dot
    partials (:func:`~repro.parallel.procomm.span_dot`), reduction order,
    and :class:`~repro.parallel.comm.CommStats` accounting, executed
    inline over a :class:`~repro.parallel.comm.VirtualComm`.

Neither engine chooses how the work is split.  Operator applies run over
the mesh-fixed element spans of
:func:`~repro.parallel.executor.partition_elements` (each rank owns a
contiguous group of them) and reduce the windowed partials in span order
(:func:`~repro.parallel.executor.reduce_windows`); dot products split
into fixed chunks of :data:`DOT_CHUNK` entries and sum the chunk partials
over the fixed binary tree (:func:`~repro.parallel.comm.tree_reduce`).
So a solve under either engine, at any rank count, is **bit-identical**
to the inline serial solve -- apart from CG's inner products, which run
``a @ b`` when no engine dot is armed (see
:func:`~repro.solvers.krylov.use_dot`).

:func:`run_sinker_distributed` is the end-to-end driver: it runs the
sinker time loop under either engine, writes a collective-consistent
checkpoint after every committed step
(:func:`~repro.sim.checkpoint.cohort_checkpoint`), and -- when a rank
dies or a collective times out -- recovers by respawning the cohort,
rebuilding the simulation, and resuming from the checkpoint.  The final
``state_digest`` equals the uninterrupted oracle's.
"""

from __future__ import annotations

import os
import time

import numpy as np

from ..obs import metrics as _metrics
from ..obs import registry as _obs
from .comm import VirtualComm, tree_reduce
from .decomposition import BlockDecomposition
from .executor import (
    ExecutorStats,
    _check_windows,
    partition_range,
    reduce_windows,
    use_executor,
)
from .procomm import CommError, ProcessComm, _register_state, span_dot

__all__ = [
    "DOT_CHUNK",
    "ProcommEngine",
    "VirtualRankEngine",
    "run_sinker_distributed",
]


#: entries per dot-product chunk: the chunking, and so the reduction
#: tree, is fixed by the vector length, never by the rank count
DOT_CHUNK = 4096


def _account_dispatch(comm, ntasks: int, nbytes_in: int,
                      nbytes_out: int) -> None:
    """Comm-stats accounting of one engine dispatch, shared by both
    engines so the oracle's ``comm.*`` gauges match the real transport's:
    one input-vector broadcast plus one reply per rank task."""
    comm.stats.messages += ntasks + 1
    comm.stats.bytes += nbytes_in + nbytes_out


def _account_dot(comm, ntasks: int, nbytes: int) -> None:
    """One distributed dot: a reply per rank task, one tree reduction."""
    comm.stats.messages += ntasks
    comm.stats.bytes += nbytes
    comm.stats.reductions += 1


class _RankEngineBase:
    """Shared surface of the rank engines (dispatch contract + dot)."""

    def __init__(self, comm):
        self.comm = comm
        self.workers = int(comm.size)
        self.stats = ExecutorStats()
        _metrics.STATS_SOURCES.add(self)

    # -- distributed dot ------------------------------------------------- #
    def dot(self, x: np.ndarray, y: np.ndarray) -> float:
        """Distributed inner product: chunk partials, fixed-tree sum.

        The vectors split into chunks of :data:`DOT_CHUNK` entries; each
        rank computes :func:`span_dot` over a contiguous group of chunks,
        and the chunk partials are combined with :func:`tree_reduce` in
        chunk order.  The chunks do not depend on the rank count, so the
        result is bitwise-equal for any rank count and any reply arrival
        order.
        """
        x = np.ascontiguousarray(x, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.float64)
        chunks = [(s, min(s + DOT_CHUNK, x.size))
                  for s in range(0, x.size, DOT_CHUNK)] or [(0, 0)]
        groups = partition_range(len(chunks), self.workers)
        with _obs.timed("CommDot", nbytes=x.nbytes + y.nbytes, cat="comm"):
            partials = self._dot_partials(x, y, chunks, groups)
            _account_dot(self.comm, len(groups), x.nbytes + y.nbytes)
            return float(tree_reduce(partials, "sum"))

    # -- dispatch contract ----------------------------------------------- #
    def dispatch(self, state, method: str, spans, u: np.ndarray,
                 windows) -> np.ndarray:
        """Fan ``getattr(state, method)(u, s, e)`` over the ranks; reduce.

        Same semantics and determinism contract as
        :meth:`ParallelExecutor.dispatch`: each rank evaluates a
        contiguous group of the given spans, and the windowed partials
        are reduced in span order, bit-identical to the inline result for
        any rank count.
        """
        _check_windows(spans, windows)
        u = np.ascontiguousarray(u, dtype=np.float64)
        sizes = [int(hi - lo) for lo, hi in windows]
        groups = partition_range(len(spans), self.workers)
        nbytes_out = 8 * int(sum(sizes))
        with _obs.timed("CommHaloExchange", nbytes=u.nbytes + nbytes_out,
                        cat="comm"):
            partials = self._span_partials(state, method, spans, groups, u,
                                           sizes)
            t0 = time.perf_counter()
            out = reduce_windows(partials, windows)
            self.stats.reduce_seconds += time.perf_counter() - t0
        self.stats.dispatches += 1
        self.stats.tasks += len(groups)
        self.stats.bytes_in += u.nbytes
        self.stats.bytes_out += nbytes_out
        _account_dispatch(self.comm, len(groups), u.nbytes, nbytes_out)
        return out

    def shutdown(self) -> None:  # symmetry with ParallelExecutor
        pass


class VirtualRankEngine(_RankEngineBase):
    """The sequential oracle engine over a :class:`VirtualComm`.

    Executes the rank groups inline -- same spans, same kernels, same
    reduction order, same accounting -- so a run under this engine is the
    bit-exactness reference for :class:`ProcommEngine`.
    """

    def __init__(self, comm: VirtualComm | None = None, size: int = 2):
        super().__init__(comm if comm is not None else VirtualComm(size))

    def _dot_partials(self, x, y, chunks, groups):
        return [span_dot(x, y, s, e) for s, e in chunks]

    def _span_partials(self, state, method, spans, groups, u, sizes):
        fn = getattr(state, method)
        partials = []
        for s, e in spans:
            t0 = time.perf_counter()
            partials.append(np.asarray(fn(u, int(s), int(e)),
                                       dtype=np.float64))
            self.stats.worker_busy_seconds += time.perf_counter() - t0
        return partials


class ProcommEngine(_RankEngineBase):
    """Dispatch engine over the real rank processes of a
    :class:`ProcessComm`.

    Data path per dispatch: the input vector is written once into the
    communicator's input shared-memory block; one ``span`` op per rank
    carries that rank's contiguous group of spans; every rank writes each
    span's partial into its own disjoint slab of the output block; the
    master reduces the slabs in span order.  State objects reach the
    ranks by fork inheritance (the ``_FORK_REGISTRY`` snapshot of
    :mod:`~repro.parallel.procomm`): a ``(token, version)`` pair the live
    cohort has not snapshotted triggers a cohort respawn.
    """

    def __init__(self, comm: ProcessComm):
        super().__init__(comm)

    def _ensure_snapshot(self, token: int, version) -> None:
        if (token, version) not in self.comm.snapshot_known:
            self.comm.respawn()
            self.stats.respawns += 1

    def _dot_partials(self, x, y, chunks, groups):
        comm = self.comm
        n = x.size
        comm.shm_in.ensure(16 * max(n, 1))
        comm.shm_in.view(n)[:] = x
        comm.shm_in.view(n, offset=n)[:] = y
        seqs = [
            (r, comm._post(r, "dot", n=n, in_shm=comm.shm_in.name,
                           chunks=[[int(s), int(e)]
                                   for s, e in chunks[g0:g1]]))
            for r, (g0, g1) in enumerate(groups)
        ]
        # JSON round-trips float64 exactly (repr), so the partials arrive
        # bit-identical to the worker-side span_dot results
        return [float(v) for r, seq in seqs
                for v in comm._wait(r, seq, "dot")["values"]]

    def _span_partials(self, state, method, spans, groups, u, sizes,
                       _retry: bool = True):
        comm = self.comm
        token = _register_state(state)
        version = getattr(state, "_parallel_state_version", 0)
        self._ensure_snapshot(token, version)
        n_in = u.size
        comm.shm_in.ensure(u.nbytes)
        comm.shm_in.view(n_in)[:] = u
        offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        comm.shm_out.ensure(8 * int(offsets[-1]))
        seqs = [
            (r, comm._post(r, "span", token=token, version=version,
                           method=method,
                           spans=[[int(s), int(e)] for s, e in spans[g0:g1]],
                           in_shm=comm.shm_in.name, n_in=int(n_in),
                           out_shm=comm.shm_out.name,
                           out_offs=[int(o) for o in offsets[g0:g1]],
                           out_sizes=[int(z) for z in sizes[g0:g1]]))
            for r, (g0, g1) in enumerate(groups)
        ]
        stale = False
        for r, seq in seqs:
            reply = comm._wait(r, seq, "span")
            if reply.get("status") == "stale":
                stale = True
            else:
                self.stats.worker_busy_seconds += float(
                    reply.get("busy", 0.0))
        if stale:
            # the state mutated without a version bump since the cohort
            # forked; one respawn re-snapshots it
            comm.snapshot_known.discard((token, version))
            if not _retry:
                raise CommError(
                    f"rank state for {type(state).__name__}.{method} is "
                    "stale even after a cohort respawn"
                )
            self._ensure_snapshot(token, version)
            return self._span_partials(state, method, spans, groups, u,
                                       sizes, _retry=False)
        return [comm.shm_out.view(int(sizes[i]), int(offsets[i]))
                for i in range(len(spans))]


# --------------------------------------------------------------------- #
# end-to-end driver
# --------------------------------------------------------------------- #
def _default_sinker():
    from ..sim.sinker import SinkerConfig

    return SinkerConfig(shape=(4, 4, 4), n_spheres=1, radius=0.2,
                        delta_eta=100.0, points_per_dim=2, seed=3)


def _default_sim_config():
    from ..sim.timeloop import SimulationConfig
    from ..stokes.solve import StokesConfig

    return SimulationConfig(
        stokes=StokesConfig(mg_levels=2, coarse_solver="lu"),
        linear_rtol=1e-5,
    )


def _exercise_migration(sim, comm, ranks: int) -> dict:
    """One point-migration round over the communicator under test.

    Points owned by rank 0's subdomain are deliberately misplaced onto
    rank 1 (a neighbor under the ``(1, 1, p)`` split), so the flooding
    protocol must ship them home; the built-in audit asserts conservation.
    """
    from ..mpm.migration import migrate_points

    decomp = BlockDecomposition(sim.mesh, (1, 1, ranks))
    pts = sim.points
    owner = np.where(pts.el >= 0,
                     decomp.element_owner[np.clip(pts.el, 0, None)], 0)
    held = owner.copy()
    misplaced = 0
    if ranks > 1:
        move = owner == 0
        misplaced = int(move.sum())
        held[move] = 1
    rank_points = [pts.subset(np.flatnonzero(held == r))
                   for r in range(ranks)]
    total_before = sum(p.n for p in rank_points)
    rank_points, deleted = migrate_points(decomp, comm, rank_points,
                                          audit=True)
    return {
        "misplaced": misplaced,
        "outflow": int(deleted),
        "points_before": int(total_before),
        "points_after": int(sum(p.n for p in rank_points)),
    }


def run_sinker_distributed(
    ranks: int = 2,
    nsteps: int = 2,
    dt: float = 0.05,
    sinker_config=None,
    sim_config=None,
    faults: list[dict] | None = None,
    checkpoint_dir: str | None = None,
    comm=None,
    config=None,
    max_recoveries: int = 4,
    oracle: bool = False,
    migrate: bool = True,
) -> dict:
    """Run the rank-decomposed sinker end to end; return the evidence.

    With ``oracle=True`` the run executes under :class:`VirtualRankEngine`
    (single process, virtual communicator); otherwise under
    :class:`ProcommEngine` over ``ranks`` real worker processes.  Both
    paths execute the identical rank partition and reduction orders, so
    the returned ``digest`` (sha256 over the full evolving state) is
    equal between them -- the bit-exactness contract CI asserts.

    ``faults`` is a list of transport-fault dicts (``{"rank": 1, "kind":
    "kill", "at": 3, "sentinel": path}``) armed on the real transport
    before the loop; a sentinel path makes a fault one-shot across the
    respawns that recovery performs.  An ``"after_step": N`` key defers
    arming until step ``N``'s cohort checkpoint exists, pinning the
    fault into step ``N + 1`` so recovery provably resumes from the
    checkpoint instead of rebuilding from scratch.  On :class:`CommError` (rank death,
    collective timeout) the driver respawns the cohort, rebuilds the
    simulation, and resumes from the last per-step cohort checkpoint;
    ``max_recoveries`` bounds the attempts.
    """
    from ..serve.store import state_digest
    from ..sim.checkpoint import cohort_checkpoint, load_checkpoint
    from ..sim.sinker import make_sinker
    from ..solvers.krylov import use_dot

    if ranks < 1:
        raise ValueError("need at least one rank")
    sinker_config = sinker_config or _default_sinker()
    sim_config = sim_config or _default_sim_config()
    owns_comm = comm is None
    if comm is None:
        comm = (VirtualComm(ranks) if oracle
                else ProcessComm(ranks, config=config))
    deferred: list[tuple[int, dict]] = []
    if faults:
        if oracle or not hasattr(comm, "inject_fault"):
            raise ValueError("transport faults need the real transport "
                             "(oracle=False)")
        for f in faults:
            f = dict(f)
            # "after_step": N defers arming until step N's cohort
            # checkpoint is on disk, so a kill with a small "at" lands
            # deterministically in step N+1 and recovery must exercise
            # the resume path (a fault armed upfront races the cohort
            # respawns of normal version churn, which reset the worker's
            # work-op counter)
            when = int(f.pop("after_step", 0) or 0)
            if when > 0:
                deferred.append((when, f))
            else:
                comm.inject_fault(f.pop("rank"), f.pop("kind"), **f)
    deferred.sort(key=lambda item: item[0])
    engine = (VirtualRankEngine(comm) if oracle else ProcommEngine(comm))
    t0 = time.perf_counter()

    own_ckdir = checkpoint_dir is None
    if own_ckdir:
        import tempfile

        checkpoint_dir = tempfile.mkdtemp(prefix="repro-distributed-")
    ck = os.path.join(checkpoint_dir, "distributed")

    def build():
        sim = make_sinker(sinker_config, sim_config)
        sim.comm = comm
        return sim

    recoveries = 0
    events: list[dict] = []
    try:
        with use_executor(engine), use_dot(engine.dot):
            sim = build()
            while sim.step_index < nsteps:
                try:
                    sim.step(dt)
                    cohort_checkpoint(ck, sim, comm)
                    while deferred and deferred[0][0] <= sim.step_index:
                        f = dict(deferred.pop(0)[1])
                        comm.inject_fault(f.pop("rank"), f.pop("kind"), **f)
                except CommError as err:
                    events.append({
                        "error": type(err).__name__,
                        "step": int(sim.step_index),
                        "rank": int(getattr(err, "rank", -1)),
                        "detail": str(err),
                    })
                    recoveries += 1
                    if recoveries > max_recoveries:
                        raise
                    comm.recover()
                    # mid-step state is garbage: rebuild and resume from
                    # the last collective-consistent checkpoint
                    sim = build()
                    if os.path.exists(ck + ".npz"):
                        load_checkpoint(ck, sim)
            migration = (_exercise_migration(sim, comm, ranks)
                         if migrate else None)
        from .halo import halo_exchange_plan

        decomp = BlockDecomposition(sim.mesh, (1, 1, ranks))
        plan = halo_exchange_plan(decomp, executor=engine)
        return {
            "digest": state_digest(sim),
            "steps": int(sim.step_index),
            "time": float(sim.time),
            "ranks": int(ranks),
            "oracle": bool(oracle),
            "recoveries": int(recoveries),
            "wall_seconds": time.perf_counter() - t0,
            "events": events,
            "comm": comm.stats.as_dict(),
            "engine": engine.stats.as_dict(),
            "halo": {
                "messages": int(plan.messages),
                "bytes_total": int(plan.bytes_total),
                "max_bytes_per_rank": int(plan.max_bytes_per_rank),
                "measured": bool(plan.measured),
            },
            "migration": migration,
            "checkpoint": ck + ".npz",
        }
    finally:
        if owns_comm and hasattr(comm, "close"):
            comm.close()
