"""The benchmark's two workloads and the checks on their outputs.

Each workload makes its inputs from the seed alone and runs them through
the public API with the program's default solver settings, except where
the workload says otherwise.  An operation is the unit that is timed and
checked: one ``Simulation.step()``.

A failed check or an operation that raises is counted as failed; it does
not stop the run.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace

import numpy as np

import repro.sim.rifting as rifting
import repro.sim.sinker as sinker
from repro.sim.timeloop import SimulationConfig
from repro.stokes.solve import StokesConfig

#: Newton outcomes that mean the step broke down (DIVERGED_ITS is not one:
#: the rifting runs routinely use up their Newton budget on a good step)
BREAKDOWN_REASONS = frozenset({"DIVERGED_NAN", "DIVERGED_DTOL", "DIVERGED_BREAKDOWN"})
#: the rifting temperature is bounded by its Dirichlet values 0 and 1; the
#: SUPG scheme may overshoot them by at most this much (none was seen)
T_OVERSHOOT = 0.01
#: share of the top element layer's markers that the relocation after the
#: free-surface move may drop unreported, besides markers injected in the
#: same step (every drop seen in the reference runs was of injected ones)
ALE_TOP_SHARE = 0.01


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def _finite(*arrays) -> bool:
    return all(a is None or bool(np.isfinite(a).all()) for a in arrays)


@dataclass
class Op:
    """What one operation measured and what its checks found."""

    wall_s: float = 0.0
    krylov_its: int = 0
    newton_its: int = 0
    newton_unconverged: bool = False
    points: int = 0
    points_lost: int = 0
    points_injected: int = 0
    points_dropped_ale: int = 0
    failures: tuple[str, ...] = ()


class _Trajectories:
    """Sub-seeds of a run's trajectories and the one being stepped."""

    def __init__(self, seeds):
        self.seeds = seeds
        self.sim = None
        self.index = -1


class _Steps:
    """One ``Simulation.step()`` per operation.

    A run steps ``n / ops_per_input`` trajectories, each built from its
    own sub-seed, for ``ops_per_input`` steps each.  Several short
    trajectories keep the mix of early and late steps the same for every
    seed.
    """

    #: mean wall time of one step on the reference box (see NOTES.md)
    nominal_op_s: float
    #: steps per trajectory
    ops_per_input: int
    #: set-up samples taken before each operation, on its input
    setup_reps = 4
    t_bounds: tuple[float, float] | None = None

    def inputs(self, seed: int, n: int) -> _Trajectories:
        count = -(-n // self.ops_per_input)
        subseeds = np.random.default_rng(seed).integers(0, 2**31, size=count)
        return _Trajectories([int(s) for s in subseeds])

    def setup_sample(self, state, k: int) -> float:
        """Construction of the simulation that operation ``k`` steps
        (``make_sinker``/``make_rifting``)."""
        t0 = time.perf_counter()
        self.build(state.seeds[k // self.ops_per_input])
        return time.perf_counter() - t0

    def _sim(self, state: _Trajectories, k: int):
        j = k // self.ops_per_input
        if state.index != j:
            state.sim, state.index = None, j  # free the last one first
            state.sim = self.build(state.seeds[j])
        return state.sim

    def op(self, state, k: int) -> Op:
        sim = self._sim(state, k)
        pts = sim.points
        before = pts.n
        nx, ny, nz = sim.mesh.shape
        # markers can leave through the moving free surface only from the
        # top element layer
        top = int(np.count_nonzero(pts.el >= nx * ny * (nz - 1)))
        t0 = time.perf_counter()
        stats = sim.step()
        wall = time.perf_counter() - t0
        after = sim.points.n
        op = Op(
            wall_s=wall,
            krylov_its=stats["krylov_iterations"],
            newton_its=stats["newton_iterations"],
            newton_unconverged=not stats["newton_converged"],
            points=after, points_lost=stats["points_lost"],
            points_injected=stats["points_injected"],
            points_dropped_ale=before - stats["points_lost"] + stats["points_injected"] - after,
        )
        op.failures = tuple(self.check(sim, stats, op, top))
        return op

    def check(self, sim, stats, op: Op, top: int) -> list[str]:
        fails = []
        if not _finite(sim.u, sim.p, sim.T):
            fails.append("non-finite fields")
        if stats["newton_reason"] in BREAKDOWN_REASONS:
            fails.append(f"Newton broke down: {stats['newton_reason']}")
        # before - lost + injected = after, up to the markers the step's
        # relocation on the moved mesh drops; the step does not report
        # those, so the gap may only be a loss: of markers injected in this
        # step, or of a small share of the top element layer's
        allowed = op.points_injected + int(np.ceil(ALE_TOP_SHARE * top))
        if not 0 <= op.points_dropped_ale <= allowed:
            fails.append(
                f"marker count does not balance: {op.points_dropped_ale} "
                f"unaccounted, {allowed} allowed"
            )
        if self.t_bounds is not None and sim.T is not None:
            lo, hi = self.t_bounds
            if sim.T.min() < lo - T_OVERSHOOT or sim.T.max() > hi + T_OVERSHOOT:
                fails.append(f"T left [{lo}, {hi}]: {sim.T.min():.3g}..{sim.T.max():.3g}")
        return fails

    def input_digest(self, state) -> str:
        return _digest(*[a for s in state.seeds for a in self.inputs_of(self.build(s))])

    def state_digest(self, state) -> str:
        from repro.serve.store import state_digest

        return state_digest(state.sim)


class SinkerSteps(_Steps):
    """Coupled MPM/Stokes/ALE time loop of the sinker, 2 thread workers.

    The mesh is 8 x 8 x 4 elements on the unit cube, not 8^3: its steps
    take half as long, so a run holds twice as many, and they slow down
    less when the shared host does (NOTES.md has the measurements).
    """

    name = "sinker-steps"
    nominal_op_s = 2.0
    ops_per_input = 3

    def __init__(self, shape=(8, 8, 4)):
        self.shape = tuple(shape)

    def build(self, seed: int):
        cfg = sinker.SinkerConfig(shape=self.shape, n_spheres=8, radius=0.1,
                                  delta_eta=1e2, points_per_dim=3, seed=seed)
        sim_cfg = SimulationConfig(
            stokes=StokesConfig(workers=2, parallel_backend="thread"),
            free_surface=True,
        )
        return sinker.make_sinker(cfg, sim_cfg)

    @staticmethod
    def inputs_of(sim):
        return sim.sphere_centers, sim.points.x


class RiftSteps(_Steps):
    """The default scaled rifting model, serial."""

    name = "rift-steps"
    #: a typical step takes 1.8 s; the mean includes the first steps that
    #: hit the linear-solver cap (NOTES.md)
    nominal_op_s = 2.4
    #: a rifting run's first steps take 3 to 5 Newton iterations, its later
    #: ones 2, and when the switch comes depends on the seed
    ops_per_input = 5
    t_bounds = (0.0, 1.0)

    def __init__(self, shape=None):
        self.shape = shape

    def build(self, seed: int):
        cfg = rifting.RiftingConfig(seed=seed)
        if self.shape is not None:
            cfg = replace(cfg, shape=tuple(self.shape))
        return rifting.make_rifting(cfg)

    @staticmethod
    def inputs_of(sim):
        return sim.points.x, sim.points.plastic_strain


WORKLOADS = {w.name: w for w in (SinkerSteps, RiftSteps)}
#: the same workloads at toy size, for the warm-up and the tests
TOY_SHAPES = {"sinker-steps": (4, 4, 4), "rift-steps": (4, 2, 2)}
