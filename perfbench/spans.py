"""Per-layer tracing from outside the program.

The traced run wraps the public entry points of each ``repro`` module in
spans.  A span records its wall time and hands it to its parent; a layer's
self time is its span time minus the time of the spans nested in it.  All
the wrappers live in this file: the program itself is not changed, and the
untraced runs install nothing.

Three rules keep the numbers honest:

* Only the main thread is traced.  The shared-memory executor runs kernel
  partials on worker threads; their cost shows up in the span that
  dispatched them and in the executor counters (``parallel.*``).
* The coarse-grid solve is opaque.  The smoothed-aggregation coarse solver
  is itself a multigrid hierarchy with Chebyshev smoothers; inside it no
  nested span opens, so its smoothing is never mixed with the geometric
  hierarchy's (``mg.smooth``) the way the program's own ``MGSmooth_level*``
  events mix them.
* A wrapper that re-enters the same layer on the same object (``smooth``
  calling ``smooth_with_residual``, a V-cycle recursing to the next level)
  opens no second span, so no time is counted twice.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

ROOT = "op"


class _Frame:
    __slots__ = ("layer", "obj", "t0", "child")

    def __init__(self, layer, obj, t0):
        self.layer = layer
        self.obj = obj
        self.t0 = t0
        self.child = 0.0


class Tracer:
    """Span stack plus per-layer accumulators for one traced run."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.op_wall = 0.0
        self.ops = 0
        self._stack: list[_Frame] = []
        self._opaque = 0
        self._main = threading.get_ident()
        self._gmg = weakref.WeakSet()

    # -- spans ---------------------------------------------------------- #
    def _open(self, layer, obj):
        if self._opaque or threading.get_ident() != self._main or not self._stack:
            return None
        top = self._stack[-1]
        if top.layer == layer and top.obj is obj:
            return None
        frame = _Frame(layer, obj, time.perf_counter())
        self._stack.append(frame)
        return frame

    def _close(self, frame) -> float:
        dur = time.perf_counter() - frame.t0
        self._stack.pop()
        self.self_s[frame.layer] += dur - frame.child
        self._stack[-1].child += dur
        return dur

    @contextmanager
    def op(self):
        """Root span of one timed operation; its self time is unattributed."""
        frame = _Frame(ROOT, None, time.perf_counter())
        self._stack = [frame]
        try:
            yield
        finally:
            dur = time.perf_counter() - frame.t0
            self.self_s[ROOT] += dur - frame.child
            self.op_wall += dur
            self.ops += 1
            self._stack = []

    def span(self, layer, fn, *, opaque=False, after=None):
        """Wrap ``fn`` so each call is a span of ``layer``.

        ``after(frame, args, result)`` runs before the span closes and may
        move time out of it.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(layer, args[0] if args else None)
            if frame is None:
                return fn(*args, **kwargs)
            if opaque:
                tracer._opaque += 1
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(frame, args, result)
                return result
            finally:
                if opaque:
                    tracer._opaque -= 1
                tracer.calls[layer] += 1
                tracer._close(frame)

        return wrapper


# --------------------------------------------------------------------- #
# patching
# --------------------------------------------------------------------- #
class _Patches:
    """Replace attributes and put every one back on :meth:`undo`."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def function(self, module, name, wrapper_for):
        """Wrap ``module.name`` everywhere a ``repro`` module refers to it.

        Modules import functions by name, so patching only the defining
        module would miss the call sites.
        """
        fn = getattr(module, name)
        wrapped = wrapper_for(fn)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self.set(mod, attr, wrapped)

    def methods(self, classes, names, wrapper_for):
        """Wrap each of ``names`` on each class that defines it itself."""
        for cls in classes:
            for name in names:
                if name in cls.__dict__:
                    self.set(cls, name, wrapper_for(cls.__dict__[name]))

    def undo(self):
        for owner, name, val in reversed(self._saved):
            setattr(owner, name, val)
        self._saved.clear()


def _install(tracer: Tracer, patches: _Patches) -> None:
    import repro.ale.freesurface as ale
    import repro.energy.supg as supg
    import repro.fem.assembly as assembly
    import repro.matfree as matfree
    import repro.mg.coefficients as coefficients
    import repro.mg.cycles as cycles
    import repro.mg.gmg as gmg
    import repro.mpm.advection as advection
    import repro.mpm.location as location
    import repro.mpm.migration as migration
    import repro.mpm.projection as projection
    import repro.parallel.executor as executor
    import repro.rheology.composite as composite
    import repro.sim.fields as fields
    import repro.solvers.chebyshev as chebyshev
    import repro.solvers.krylov as krylov
    import repro.solvers.nonlinear as nonlinear
    import repro.stokes.fieldsplit as fieldsplit
    import repro.stokes.operators as operators
    import repro.stokes.solve as solve

    span = tracer.span

    def spans(layer, **kw):
        return lambda fn: span(layer, fn, **kw)

    # -- matfree: the viscous operator kernels --------------------------- #
    op_classes = [c for c in vars(matfree).values()
                  if isinstance(c, type) and issubclass(c, matfree.base.ViscousOperatorBase)]
    op_classes.append(matfree.base.ViscousOperatorBase)

    def count_apply(frame, args, result):
        # the program's own analytic cost of one whole-mesh apply, as its
        # MatMult events record it
        flops, nbytes = args[0]._lookup_event_cost()
        tracer.counters["matfree.apply.flops"] += flops
        tracer.counters["matfree.apply.bytes"] += nbytes

    patches.methods(op_classes, ["apply"], spans("matfree.apply", after=count_apply))
    patches.methods(op_classes, ["diagonal"], spans("matfree.diagonal"))

    # -- fem: matrix and vector assembly -------------------------------- #
    for name in [n for n in vars(assembly) if n.startswith(("assemble_", "rhs_"))]:
        patches.function(assembly, name, spans("fem.assemble"))

    # -- mg: hierarchy set-up and cycles -------------------------------- #
    def register_gmg(frame, args, result):
        hierarchy, stats = result
        tracer._gmg.add(hierarchy)
        # the coarse factorisation is timed by build_gmg itself
        tracer.self_s["mg.coarse_setup"] += stats.coarse_setup_seconds
        frame.child += stats.coarse_setup_seconds

    patches.function(gmg, "build_gmg", spans("mg.setup", after=register_gmg))
    patches.function(coefficients, "coefficient_hierarchy", spans("mg.setup"))

    # one span per preconditioner V-cycle: the recursion to the next level
    # re-enters mg.transfer on the same hierarchy, so only level 0 counts
    vcycle = cycles.MGHierarchy.__dict__["vcycle"]
    coarse = span("mg.coarse", vcycle, opaque=True)
    transfer = span("mg.transfer", vcycle)

    @functools.wraps(vcycle)
    def vcycle_wrapper(h, *args, **kwargs):
        if h not in tracer._gmg:
            return vcycle(h, *args, **kwargs)
        level = args[2] if len(args) > 2 else kwargs.get("level", 0)
        if level == h.nlevels - 1:
            return coarse(h, *args, **kwargs)
        return transfer(h, *args, **kwargs)

    patches.set(cycles.MGHierarchy, "vcycle", vcycle_wrapper)
    patches.methods([chebyshev.ChebyshevSmoother], ["smooth", "smooth_with_residual"],
                    spans("mg.smooth"))

    # -- solvers and the Stokes block operators ------------------------- #
    for name in ("gcr", "fgmres"):
        patches.function(krylov, name, spans("solvers.krylov"))
    for name in ("newton", "picard"):
        patches.function(nonlinear, name, spans("solvers.newton"))
    patches.methods([operators.StokesOperator], ["apply"], spans("stokes.coupled"))
    patches.methods([operators.StokesOperator], ["__init__"], spans("stokes.setup"))
    patches.function(solve, "solve_stokes", spans("stokes.setup"))
    patches.methods([fieldsplit.SchurMass], ["__call__"], spans("stokes.schur"))
    patches.methods([fieldsplit.FieldSplitPreconditioner], ["__call__"],
                    spans("stokes.fieldsplit"))

    # -- mpm, rheology, energy, ale ------------------------------------- #
    patches.function(location, "locate_points", spans("mpm.locate"))
    patches.function(advection, "advect_points", spans("mpm.advect"))
    for name in ("project_to_quadrature", "project_to_corners"):
        patches.function(projection, name, spans("mpm.project"))
    patches.function(advection, "interpolate_velocity", spans("mpm.interp"))
    patches.function(projection, "interpolate_nodal_at_points", spans("mpm.interp"))
    for name in [n for n in vars(fields) if n.endswith("_at_points")]:
        patches.function(fields, name, spans("mpm.interp"))
    patches.function(migration, "populate_empty_cells", spans("mpm.populate"))
    patches.methods([composite.CompositeRheology], ["evaluate"], spans("rheology.evaluate"))
    patches.methods([supg.EnergySolver], ["step"], spans("energy.step"))
    for name in ("update_free_surface", "remesh_vertical"):
        patches.function(ale, name, spans("ale"))

    # -- parallel: executor counters around each dispatch ---------------- #
    dispatch = executor.ParallelExecutor.__dict__["dispatch"]

    @functools.wraps(dispatch)
    def counted_dispatch(self, *args, **kwargs):
        if threading.get_ident() != tracer._main:
            return dispatch(self, *args, **kwargs)
        st = self.stats
        n0, busy0, wait0 = st.dispatches, st.worker_busy_seconds, st.queue_wait_seconds
        t0 = time.perf_counter()
        try:
            return dispatch(self, *args, **kwargs)
        finally:
            if st.dispatches > n0:
                dt = time.perf_counter() - t0
                c = tracer.counters
                c["parallel.dispatch.calls"] += st.dispatches - n0
                c["parallel.dispatch.s"] += dt
                c["parallel.busy.s"] += st.worker_busy_seconds - busy0
                c["parallel.queue_wait.s"] += st.queue_wait_seconds - wait0
                c["parallel.capacity.s"] += self.workers * dt

    patches.set(executor.ParallelExecutor, "dispatch", counted_dispatch)


@contextmanager
def installed(tracer: Tracer):
    """Wrap the program's entry points for the duration of the block."""
    patches = _Patches()
    try:
        _install(tracer, patches)
        yield tracer
    finally:
        patches.undo()


#: per-layer metrics read from span self times and call counts
_TIMED = {
    "matfree.diagonal.s": "matfree.diagonal",
    "fem.assemble.s": "fem.assemble",
    "mg.setup.s": "mg.setup",
    "mg.coarse_setup.s": "mg.coarse_setup",
    "stokes.setup.s": "stokes.setup",
    "mg.smooth.s": "mg.smooth",
    "mg.transfer.s": "mg.transfer",
    "mg.coarse.s": "mg.coarse",
    "solvers.krylov.s": "solvers.krylov",
    "solvers.newton.s": "solvers.newton",
    "stokes.coupled.s": "stokes.coupled",
    "stokes.schur.s": "stokes.schur",
    "stokes.fieldsplit.s": "stokes.fieldsplit",
    "mpm.locate.s": "mpm.locate",
    "mpm.advect.s": "mpm.advect",
    "mpm.project.s": "mpm.project",
    "mpm.interp.s": "mpm.interp",
    "mpm.populate.s": "mpm.populate",
    "rheology.evaluate.s": "rheology.evaluate",
    "energy.step.s": "energy.step",
    "ale.s": "ale",
}
_CALLS = {
    "fem.assemble.calls": "fem.assemble",
    "mg.vcycle.calls": "mg.transfer",
    "mpm.locate.calls": "mpm.locate",
    "rheology.evaluate.calls": "rheology.evaluate",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-operation layer figures (means over the traced operations)."""
    n = max(tracer.ops, 1)
    s, calls, c = tracer.self_s, tracer.calls, tracer.counters
    out = {name: s[layer] / n for name, layer in _TIMED.items()}
    out.update({name: calls[layer] / n for name, layer in _CALLS.items()})
    napply = calls["matfree.apply"]
    out["matfree.apply.calls"] = napply / n
    out["matfree.apply.s"] = s["matfree.apply"] / n
    out["matfree.apply.ms_per_call"] = 1e3 * s["matfree.apply"] / napply if napply else 0.0
    out["matfree.apply.gflop"] = c["matfree.apply.flops"] / 1e9 / n
    out["matfree.apply.gb"] = c["matfree.apply.bytes"] / 1e9 / n
    out["parallel.dispatch.calls"] = c["parallel.dispatch.calls"] / n
    out["parallel.dispatch.s"] = c["parallel.dispatch.s"] / n
    out["parallel.busy.s"] = c["parallel.busy.s"] / n
    out["parallel.queue_wait.s"] = c["parallel.queue_wait.s"] / n
    cap = c["parallel.capacity.s"]
    out["parallel.utilization"] = c["parallel.busy.s"] / cap if cap else 0.0
    wall = tracer.op_wall
    out["trace.unattributed_frac"] = s[ROOT] / wall if wall else 0.0
    return out
