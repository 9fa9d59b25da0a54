"""Shared-memory multi-worker execution engine for element-chunk kernels.

The paper's tensor-product kernel makes the Stokes operator embarrassingly
element-parallel: every element batch reads the input vector and writes
disjoint *element* contributions, with conflicts only at the scatter.  This
module supplies the intranode analogue of the paper's per-rank element
loop:

* the element partition is a property of the mesh alone:
  :func:`partition_elements` returns one span per element z-layer (the
  element index is x-fastest, so a layer is one contiguous index range),
  whatever the worker or rank count;
* each span's partial covers only its own dof window
  (:func:`span_window`): the node planes its layer touches;
* spans are fanned out to a persistent ``ThreadPoolExecutor``, one task
  per worker holding a contiguous group of spans; one worker runs inline
  with no pool at all.

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
``run_spans(executor, state, method, spans, u, windows)`` computes

    ``out = 0;  out[windows[i]] += partial(spans[i])``  for i = 0, 1, ...

where ``partial(s, e) = getattr(state, method)(u, s, e)`` covers window
``i`` only.  Every engine -- inline (no executor, or one worker), the
thread pool, and both rank engines of :mod:`repro.parallel.distributed`
-- evaluates the same spans and adds the windows in span order with the
placement step of :func:`reduce_windows`.  With the spans fixed by the
mesh there is one reduction order, so serial is the reference and every
worker and rank count gives the same bits (the kernels themselves are
dot-reduction-free; each partial is computed by exactly one task).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..obs import metrics as _metrics
from ..obs import registry as _obs

__all__ = [
    "ExecutorStats",
    "ParallelCSRMatVec",
    "ParallelExecutor",
    "current_override",
    "make_executor",
    "partition_elements",
    "partition_range",
    "reduce_windows",
    "resolve_workers",
    "run_spans",
    "span_window",
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


def partition_elements(mesh) -> list[tuple[int, int]]:
    """The canonical element partition: one span per element z-layer.

    The element index is x-fastest (``ex + M*(ey + N*ez)``), so layer
    ``k`` is the contiguous index range ``[M*N*k, M*N*(k+1))``.  The
    partition depends on the mesh only -- never on the worker or rank
    count -- which is what makes every engine reduce in the same order.
    """
    M, N, P = mesh.shape
    layer = M * N
    return [(layer * k, layer * (k + 1)) for k in range(P)]


def span_window(mesh, s: int, e: int) -> tuple[int, int]:
    """The dof window ``[lo, hi)`` touched by elements ``[s, e)``.

    Element layers ``k0 .. k1-1`` touch node planes ``order*k0 ..
    order*k1`` and nodes are x-fastest, so the window is
    ``[3*nnx*nny*order*k0, 3*nnx*nny*(order*k1 + 1))``.
    """
    M, N, _ = mesh.shape
    nnx, nny, _ = mesh.nodes_per_dim
    plane = 3 * nnx * nny
    layer = M * N
    k0, k1 = s // layer, -(-e // layer)
    return plane * mesh.order * k0, plane * (mesh.order * k1 + 1)


def _check_windows(spans, windows) -> None:
    if len(windows) != len(spans):
        raise ValueError("windows must give one (lo, hi) per span")


def reduce_windows(partials, windows) -> np.ndarray:
    """Add the span partials into the output, in span order.

    Partial ``i`` lands in ``out[lo_i:hi_i]``: added where an earlier
    window already reached (adjacent element layers share a node plane),
    copied where none did -- what adding to a zeroed output gives, minus
    the zeroing pass (only the sign of a zero can differ).  Disjoint
    windows (row blocks, element-value blocks) therefore concatenate;
    entries no window reaches are zero.
    """
    out = np.empty(max((hi for _, hi in windows), default=0))
    top = 0
    for p, (lo, hi) in zip(partials, windows):
        top = _place(out, top, p, lo, hi)
    return out


def _place(out, top: int, p, lo: int, hi: int) -> int:
    """One step of :func:`reduce_windows`: ``out[:top]`` holds values on
    entry; returns the new ``top``."""
    if lo > top:
        out[top:lo] = 0.0
    mid = min(max(lo, top), hi)
    out[lo:mid] += p[:mid - lo]
    out[mid:hi] = p[mid - lo:]
    return max(top, hi)


def run_spans(executor, state, method: str, spans, u: np.ndarray,
              windows) -> np.ndarray:
    """Evaluate ``getattr(state, method)(u, s, e)`` over ``spans`` and
    reduce the partials in span order (:func:`reduce_windows`).

    Runs inline when ``executor`` is ``None``, else through
    ``executor.dispatch`` -- the same spans and the same reduction either
    way, so the result does not depend on the engine.
    """
    if executor is not None:
        return executor.dispatch(state, method, spans, u, windows)
    _check_windows(spans, windows)
    fn = getattr(state, method)
    return reduce_windows([fn(u, s, e) for s, e in spans], windows)


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
        windows: list[tuple[int, int]],
    ) -> np.ndarray:
        """Fan ``getattr(state, method)(u, s, e)`` over ``spans``; reduce.

        Partial ``i`` covers ``windows[i]``; the partials are added in
        span order exactly as :func:`reduce_windows` adds them.  Each
        worker runs one task holding a contiguous group of spans, so the
        grouping never touches the reduction order and the result is the
        inline one, bit for bit.
        """
        _check_windows(spans, windows)
        u = np.ascontiguousarray(u, dtype=np.float64)
        groups = partition_range(len(spans), self.workers)
        if len(groups) == 1:
            return run_spans(None, state, method, spans, u, windows)
        self._tl = _timeline().armed()
        self._dispatch_id = self.stats.dispatches
        nbytes_out = 8 * int(sum(hi - lo for lo, hi in windows))
        with _obs.timed("ParExecDispatch", nbytes=u.nbytes + nbytes_out):
            out = self._run_groups(state, method, spans, groups, u, windows)
        self.stats.dispatches += 1
        self.stats.tasks += len(groups)
        self.stats.bytes_in += u.nbytes
        self.stats.bytes_out += nbytes_out
        return out

    def _run_groups(self, state, method, spans, groups, u, windows):
        """Run one task per span group on the pool and add each group's
        partials into the output as soon as it arrives, in span order
        (the master reduces group ``i`` while later groups still run)."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-exec",
            )
        fn = getattr(state, method)
        tl, disp = self._tl, self._dispatch_id

        def task(rank, g0, g1, t_submit):
            t0 = time.monotonic()
            tb = time.perf_counter()
            if tl is None:
                ps = [fn(u, s, e) for s, e in spans[g0:g1]]
            else:
                # label event spans captured inside the kernel with this
                # task's rank, then record the task span itself
                with tl.worker(rank, disp):
                    ps = [fn(u, s, e) for s, e in spans[g0:g1]]
            t1 = time.perf_counter()
            if tl is not None:
                tl.record_task(method, rank, disp, tb, t1)
            return ps, t0 - t_submit, t1 - tb

        futures = [
            self._pool.submit(task, i, g0, g1, time.monotonic())
            for i, (g0, g1) in enumerate(groups)
        ]
        out = np.empty(max(hi for _, hi in windows))
        top, reduce_s, waits, busies = 0, 0.0, [], []
        for fut, (g0, g1) in zip(futures, groups):
            ps, w, b = fut.result()
            t0 = time.perf_counter()
            with _obs.timed("ParExecReduce"):
                for p, (lo, hi) in zip(ps, windows[g0:g1]):
                    top = _place(out, top, p, lo, hi)
            reduce_s += time.perf_counter() - t0
            waits.append(w)
            busies.append(b)
        wait, busy = float(sum(waits)), float(sum(busies))
        self.stats.queue_wait_seconds += wait
        self.stats.worker_busy_seconds += busy
        self.stats.reduce_seconds += reduce_s
        _obs.log_event_seconds("ParExecQueueWait", wait, count=len(groups))
        _obs.log_event_seconds("ParExecWorkerBusy", busy, count=len(groups))
        if tl is not None:
            # busies arrive in task-submission order == worker-rank order,
            # so the straggler index note_dispatch records is the rank
            tl.note_dispatch(busies)
        return out


class ParallelCSRMatVec:
    """Row-partitioned CSR matvec through a dispatch engine.

    CSR row blocks are independent and each output row is one dot product
    computed by exactly one task, so the concatenated result is bit-
    identical to ``A @ u`` for any row split.  Used for the assembled
    operator and the assembled (Galerkin) multigrid levels, where the
    fine-level executor is already paid for.
    """

    def __init__(self, matrix, executor: ParallelExecutor):
        self.matrix = matrix.tocsr() if not hasattr(matrix, "indptr") else matrix
        self.executor = executor
        self.spans = partition_range(self.matrix.shape[0], executor.workers)
        self._blocks = {(s, e): self.matrix[s:e] for s, e in self.spans}

    def _apply_rows(self, u: np.ndarray, s: int, e: int) -> np.ndarray:
        return self._blocks[(s, e)] @ u

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.executor.dispatch(
            self, "_apply_rows", self.spans, u, self.spans,
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
