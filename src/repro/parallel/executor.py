"""Shared-memory multi-worker execution engine for element-chunk kernels.

The paper's tensor-product kernel makes the Stokes operator embarrassingly
element-parallel: every element batch reads the input vector and writes
disjoint *element* contributions, with conflicts only at the scatter.  This
module supplies the intranode analogue of the paper's per-rank element
loop:

* elements are partitioned into contiguous slabs via the existing
  :class:`~repro.parallel.decomposition.BlockDecomposition` (a ``(1, 1, p)``
  split of the structured grid -- the element index is x-fastest, so each
  subdomain is one contiguous index range);
* slabs are fanned out to a persistent ``ThreadPoolExecutor``, one thread
  per worker; one worker runs inline with no pool at all;
* the scatter is race-free by construction: every task accumulates into its
  **own** output buffer and the master reduces the partials **in task
  order**, so the floating-point addition chain is exactly the one the
  serial path executes and results match serial bit for bit.

Memory model
------------
Threads share every array with the master, so there is no snapshot to go
stale: a kernel always reads the state object as it is at dispatch time.
The element kernels spend their time in einsum/BLAS or in the compiled
Tensor-C loop, all of which release the GIL.  Process-level parallelism --
forked ranks, shared-memory transport, fork-time state snapshots and crash
isolation -- lives in one place, :mod:`repro.parallel.procomm`.

Determinism contract
--------------------
``dispatch(state, method, spans, u)`` computes

    ``result = partial(spans[0]) + partial(spans[1]) + ...``  (left to right)

where ``partial(s, e) = getattr(state, method)(u, s, e)``.  The serial
reference :meth:`ParallelExecutor.run_serial` evaluates the identical
expression inline, hence ``np.array_equal`` between the two holds for any
worker count (the kernels themselves are dot-reduction-free; each partial
is computed by exactly one task).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..obs import metrics as _metrics
from ..obs import registry as _obs
from .decomposition import BlockDecomposition

__all__ = [
    "ExecutorStats",
    "ParallelCSRMatVec",
    "ParallelExecutor",
    "current_override",
    "make_executor",
    "partition_elements",
    "partition_range",
    "resolve_workers",
    "use_executor",
]

#: environment knob honored when the call site passes ``None``
ENV_WORKERS = "REPRO_WORKERS"

# repro.obs.timeline is a ``python -m`` CLI and must not be imported at
# package-import time (runpy double-import); resolve it on first dispatch
_TIMELINE_MOD = None


def _timeline():
    global _TIMELINE_MOD
    if _TIMELINE_MOD is None:
        from ..obs import timeline

        _TIMELINE_MOD = timeline
    return _TIMELINE_MOD


@dataclass
class ExecutorStats:
    """Accumulated engine counters (kept even while ``repro.obs`` is off)."""

    dispatches: int = 0
    tasks: int = 0
    queue_wait_seconds: float = 0.0
    worker_busy_seconds: float = 0.0
    reduce_seconds: float = 0.0
    bytes_in: int = 0      # input-vector bytes shipped to workers
    bytes_out: int = 0     # partial-result bytes shipped back
    respawns: int = 0      # rank-cohort respawns (procomm engine only)

    def as_dict(self) -> dict:
        return {
            "dispatches": int(self.dispatches),
            "tasks": int(self.tasks),
            "queue_wait_seconds": float(self.queue_wait_seconds),
            "worker_busy_seconds": float(self.worker_busy_seconds),
            "reduce_seconds": float(self.reduce_seconds),
            "bytes_in": int(self.bytes_in),
            "bytes_out": int(self.bytes_out),
            "respawns": int(self.respawns),
        }


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit argument, else ``$REPRO_WORKERS``, else 1."""
    if workers is None:
        workers = int(os.environ.get(ENV_WORKERS, "1") or "1")
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def partition_range(n: int, nparts: int) -> list[tuple[int, int]]:
    """As-even-as-possible contiguous split of ``range(n)`` (row blocks)."""
    nparts = max(1, min(int(nparts), int(n))) if n else 1
    bounds = np.linspace(0, n, nparts + 1).astype(np.int64)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(nparts)]


def partition_elements(mesh, nparts: int) -> list[tuple[int, int]]:
    """Contiguous element slabs from a ``(1, 1, p)`` block decomposition.

    The element index is x-fastest (``ex + M*(ey + N*ez)``), so splitting
    only the slowest (z) dimension makes every subdomain one contiguous
    index range ``[M*N*bz[k], M*N*bz[k+1])`` -- the executor's unit of work.
    Falls back to a plain index split when the mesh has fewer element
    layers than parts.
    """
    M, N, P = mesh.shape
    nparts = max(1, int(nparts))
    if nparts == 1:
        return [(0, mesh.nel)]
    if nparts > P:
        return partition_range(mesh.nel, nparts)
    decomp = BlockDecomposition(mesh, (1, 1, nparts))
    layer = M * N
    return [
        (int(layer * decomp.bz[k]), int(layer * decomp.bz[k + 1]))
        for k in range(nparts)
    ]


class ParallelExecutor:
    """Persistent thread pool executing ``method(u, s, e)`` span kernels.

    Parameters
    ----------
    workers:
        Worker count; ``None`` reads ``$REPRO_WORKERS`` (default 1).  One
        worker runs every dispatch inline; more run one thread each.
    """

    def __init__(self, workers: int | None = None):
        self.workers = resolve_workers(workers)
        self.stats = ExecutorStats()
        self._tl = None            # armed timeline, re-resolved per dispatch
        self._dispatch_id = 0
        self._pool = None
        # telemetry: dispatch/queue-wait counters are aggregated into
        # every repro.obs export (weak registration; no lifetime tie)
        _metrics.STATS_SOURCES.add(self)

    def shutdown(self) -> None:
        """Stop the worker threads (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    # -- dispatch ------------------------------------------------------- #
    def dispatch(
        self,
        state,
        method: str,
        spans: list[tuple[int, int]],
        u: np.ndarray,
        out_len: int | None = None,
        sizes: list[int] | None = None,
        mode: str = "sum",
    ) -> np.ndarray:
        """Fan ``getattr(state, method)(u, s, e)`` over ``spans``; reduce.

        ``mode="sum"``: every task returns ``(out_len,)``; the result is
        the task-ordered sum.  ``mode="concat"``: task ``i`` returns
        ``(sizes[i],)``; the result is the concatenation (row-partitioned
        matvec).  Either way the reduction order is deterministic and
        bit-identical to :meth:`run_serial`.
        """
        if mode not in ("sum", "concat"):
            raise ValueError(f"mode must be 'sum' or 'concat', got {mode!r}")
        if mode == "sum":
            if out_len is None:
                raise ValueError("mode='sum' requires out_len")
            sizes = [int(out_len)] * len(spans)
        elif sizes is None or len(sizes) != len(spans):
            raise ValueError("mode='concat' requires sizes, one per span")
        u = np.ascontiguousarray(u, dtype=np.float64)
        if self.workers == 1 or len(spans) == 1:
            return self.run_serial(state, method, spans, u, sizes, mode)
        self._tl = _timeline().armed()
        self._dispatch_id = self.stats.dispatches
        nbytes_out = 8 * int(sum(sizes))
        with _obs.timed("ParExecDispatch", nbytes=u.nbytes + nbytes_out):
            result = self._dispatch_threads(state, method, spans, u, mode)
        self.stats.dispatches += 1
        self.stats.tasks += len(spans)
        self.stats.bytes_in += u.nbytes
        self.stats.bytes_out += nbytes_out
        return result

    @staticmethod
    def run_serial(state, method, spans, u, sizes=None, mode="sum"):
        """The serial reference: identical task structure, run inline."""
        fn = getattr(state, method)
        partials = [fn(u, s, e) for s, e in spans]
        return ParallelExecutor._reduce(partials, mode)

    @staticmethod
    def _reduce(partials, mode):
        if mode == "concat":
            return np.concatenate(partials)
        out = partials[0].copy()
        for p in partials[1:]:
            out += p
        return out

    def _dispatch_threads(self, state, method, spans, u, mode):
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-exec",
            )
        fn = getattr(state, method)
        tl, disp = self._tl, self._dispatch_id

        def task(rank, s, e, t_submit):
            t0 = time.monotonic()
            tb = time.perf_counter()
            if tl is None:
                p = fn(u, s, e)
            else:
                # label event spans captured inside the kernel with this
                # task's rank, then record the task span itself
                with tl.worker(rank, disp):
                    p = fn(u, s, e)
            t1 = time.perf_counter()
            if tl is not None:
                tl.record_task(method, rank, disp, tb, t1)
            return p, t0 - t_submit, t1 - tb

        futures = [
            self._pool.submit(task, i, s, e, time.monotonic())
            for i, (s, e) in enumerate(spans)
        ]
        partials, waits, busies = [], [], []
        for fut in futures:
            p, w, b = fut.result()
            partials.append(p)
            waits.append(w)
            busies.append(b)
        wait, busy = float(sum(waits)), float(sum(busies))
        self.stats.queue_wait_seconds += wait
        self.stats.worker_busy_seconds += busy
        _obs.log_event_seconds("ParExecQueueWait", wait, count=len(spans))
        _obs.log_event_seconds("ParExecWorkerBusy", busy, count=len(spans))
        if tl is not None:
            # busies arrive in task-submission order == worker-rank order,
            # so the straggler index note_dispatch records is the rank
            tl.note_dispatch(busies)
        t0 = time.perf_counter()
        with _obs.timed("ParExecReduce"):
            out = self._reduce(partials, mode)
        self.stats.reduce_seconds += time.perf_counter() - t0
        return out


class ParallelCSRMatVec:
    """Row-partitioned CSR matvec through a :class:`ParallelExecutor`.

    CSR row blocks are independent and each output row is one dot product
    computed by exactly one task, so the concatenated result is bit-
    identical to ``A @ u``.  Used for the assembled (Galerkin) multigrid
    levels, where the fine-level executor is already paid for.
    """

    def __init__(self, matrix, executor: ParallelExecutor):
        self.matrix = matrix.tocsr() if not hasattr(matrix, "indptr") else matrix
        self.executor = executor
        self.spans = partition_range(self.matrix.shape[0], executor.workers)
        self._blocks = {
            (s, e): self.matrix[s:e] for s, e in self.spans
        }
        self.sizes = [e - s for s, e in self.spans]

    def _apply_rows(self, u: np.ndarray, s: int, e: int) -> np.ndarray:
        block = self._blocks.get((s, e))
        if block is None:  # an engine that re-partitions the rows
            block = self._blocks[(s, e)] = self.matrix[s:e]
        return block @ u

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.executor.dispatch(
            self, "_apply_rows", self.spans, u,
            sizes=self.sizes, mode="concat",
        )


#: engine override stack armed by :func:`use_executor` -- while non-empty,
#: every call site resolving an executor through :func:`make_executor`
#: (operators, GMG hierarchies, assembled matvecs) gets the innermost
#: override instead of building its own pool.  This is how the
#: rank-decomposed driver (:mod:`repro.parallel.distributed`) injects one
#: engine into the whole solve stack without threading it through every
#: constructor.
_EXECUTOR_OVERRIDE: list = []


class _ExecutorOverride:
    """Context manager pushing one dispatch engine onto the override stack."""

    def __init__(self, engine):
        self.engine = engine

    def __enter__(self):
        _EXECUTOR_OVERRIDE.append(self.engine)
        return self.engine

    def __exit__(self, *exc):
        _EXECUTOR_OVERRIDE.pop()
        return False


def use_executor(engine) -> _ExecutorOverride:
    """Route every :func:`make_executor` call site through ``engine``.

    ``engine`` must satisfy the dispatch contract (``dispatch(state,
    method, spans, u, ...)``, ``.workers``, ``.stats``); it may be a
    :class:`ParallelExecutor` or a rank engine from
    :mod:`repro.parallel.distributed`.  Overrides nest (innermost wins)
    and only cover call sites that do not pass an explicit ``executor``.
    """
    return _ExecutorOverride(engine)


def current_override():
    """The innermost :func:`use_executor` engine, or ``None``."""
    return _EXECUTOR_OVERRIDE[-1] if _EXECUTOR_OVERRIDE else None


def make_executor(
    workers: int | None = None,
    executor: ParallelExecutor | None = None,
) -> ParallelExecutor | None:
    """Resolve the executor for an operator call site.

    Returns ``executor`` unchanged when given; else the innermost
    :func:`use_executor` override when one is armed; otherwise builds one
    when the resolved worker count exceeds 1, and returns ``None`` (pure
    serial, no engine in the loop) when it does not.
    """
    if executor is not None:
        return executor
    if _EXECUTOR_OVERRIDE:
        return _EXECUTOR_OVERRIDE[-1]
    if resolve_workers(workers) <= 1:
        return None
    return ParallelExecutor(workers=workers)
