"""Fault-isolated ensemble scheduler: supervised jobs over subprocess workers.

The driver process never runs simulation code (subprocess isolation mode):
each attempt of each job is a ``python -m repro.serve.worker`` child in its
own session, speaking newline-delimited JSON on stdout.  A per-attempt
supervisor thread owns the pipe and implements the **watchdog**: until the
worker reports ``started`` it must beat the startup deadline (heavy imports
plus scenario build); after that, every committed time step emits a
heartbeat (piped from ``timeloop._commit_telemetry``) and silence longer
than ``step_timeout`` means the job is stuck *inside* a step -- the
supervisor kills the whole process group and the scheduler requeues the
job, which resumes from its last atomic checkpoint.

Failure policy, layered:

* **Retry with backoff** -- hangs, crashes, spawn errors, and solver
  breakdowns all consume one attempt from a per-job budget
  (``max_retries``); re-eligibility is delayed by exponential backoff with
  deterministic jitter (:func:`backoff_delay`, seeded by the config hash,
  so reruns of a battery are reproducible).  A job whose budget is
  exhausted goes ``FAILED(reason)`` -- reusing the PR-3
  :class:`~repro.resilience.reasons.ConvergedReason` names when the solver
  itself broke down.
* **Circuit breaker** -- ``quarantine_after`` consecutive failures of the
  *same configuration* (config hash, not job name) opens a breaker:
  the job goes ``QUARANTINED`` and queued twins of that configuration are
  quarantined at launch time instead of burning their own budgets.
* **Graceful degradation** -- each job requests a ``parallel.executor``
  worker count for its own pool; under pressure the scheduler *shrinks*
  the grant (floor 1, exported as ``REPRO_WORKERS``) instead of rejecting
  work.  Bit-exactness is unaffected: the executor's determinism contract
  holds for any worker count.

Jobs carrying an inline callable (``JobSpec.fn``) or schedulers built with
``isolation="inline"`` run jobs synchronously in submit order in the
driver process -- no watchdog (nothing to kill), same retry/breaker/cache
policy.  The benchmark battery rides this path so its obs events accumulate
in-process exactly as before.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import select
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

from ..obs import metrics as _metrics
from ..resilience.reasons import BreakdownError, ConvergedReason
from .jobs import (
    REASON_CRASH,
    REASON_HANG,
    REASON_QUARANTINED,
    REASON_SPAWN_FAILED,
    JobRecord,
    JobSpec,
    JobState,
)
from .store import ResultStore

__all__ = [
    "BatteryReport",
    "Scheduler",
    "ServeConfig",
    "backoff_delay",
    "run_battery",
]


def backoff_delay(config_hash: str, attempt: int, base: float = 0.05,
                  factor: float = 2.0, cap: float = 2.0) -> float:
    """Retry delay before attempt ``attempt + 1`` (deterministic jitter).

    Exponential in the number of failed attempts, capped, then stretched
    by up to +100% jitter derived from ``sha256(hash:attempt)`` -- spread
    like random jitter (decorrelating retry storms across a battery), but
    a battery rerun schedules identically.
    """
    raw = min(float(cap), float(base) * float(factor) ** max(0, attempt - 1))
    token = hashlib.sha256(
        f"{config_hash}:{attempt}".encode()
    ).digest()[:4]
    jitter = int.from_bytes(token, "big") / 2.0 ** 32
    return raw * (1.0 + jitter)


@dataclass
class ServeConfig:
    """Policy knobs of one :class:`Scheduler`."""

    #: concurrent jobs (subprocess mode); inline mode is always serial
    max_jobs: int = 2
    #: total `parallel.executor` worker budget shared by running jobs;
    #: ``None`` -> ``os.cpu_count()``
    total_workers: int | None = None
    #: ``"subprocess"`` (isolated, watchdogged) or ``"inline"`` (driver
    #: process, serial, for trusted callables / benchmark batteries)
    isolation: str = "subprocess"
    #: seconds without a heartbeat after ``started`` before the watchdog
    #: kills the worker (covers one full time step incl. rollback retries)
    step_timeout: float = 60.0
    #: graceful-shutdown grace period: on watchdog expiry the worker gets
    #: SIGTERM first and this many seconds to flush a final checkpoint of
    #: its last *committed* step (it exits with a ``terminated`` event);
    #: only then is the whole process group SIGKILLed.  0 restores the
    #: old straight-to-SIGKILL behavior.
    term_grace: float = 5.0
    #: seconds from spawn to the ``started`` event (imports + build)
    startup_timeout: float = 90.0
    #: failed attempts a job may retry (budget; 2 -> up to 3 attempts)
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    #: consecutive failures of one config hash that open its breaker
    quarantine_after: int = 3
    #: worker saves a resume checkpoint every N committed steps (0 = off)
    checkpoint_every: int = 1
    #: results-store root; ``None`` -> private temporary directory
    store_dir: str | None = None
    #: resume killed/crashed jobs from their last checkpoint
    resume: bool = True
    #: ignore existing store entries (cache reads and resume both bypassed)
    fresh: bool = False
    python: str = sys.executable

    def __post_init__(self):
        if self.isolation not in ("subprocess", "inline"):
            raise ValueError(
                f"isolation must be 'subprocess' or 'inline', "
                f"got {self.isolation!r}"
            )
        if self.max_jobs < 1:
            raise ValueError("max_jobs must be >= 1")


class BatteryReport:
    """Outcome of one :meth:`Scheduler.run`: every record, none lost."""

    def __init__(self, records: list[JobRecord], wall_seconds: float):
        self.records = list(records)
        self.wall_seconds = float(wall_seconds)

    @property
    def counts(self) -> dict:
        out = {state.value: 0 for state in JobState}
        for rec in self.records:
            out[rec.state.value] += 1
        return out

    @property
    def all_terminal(self) -> bool:
        return all(rec.terminal for rec in self.records)

    @property
    def all_done(self) -> bool:
        return all(rec.state is JobState.DONE for rec in self.records)

    def results(self) -> dict:
        """``{job name: worker result document}`` for DONE jobs."""
        return {rec.spec.name: rec.result for rec in self.records
                if rec.state is JobState.DONE and rec.result is not None}

    def values(self) -> dict:
        """``{job name: in-process return value}`` for DONE inline jobs."""
        return {rec.spec.name: rec.value for rec in self.records
                if rec.state is JobState.DONE}

    def record(self, name: str) -> JobRecord:
        for rec in self.records:
            if rec.spec.name == name:
                return rec
        raise KeyError(name)

    def summary(self) -> str:
        lines = [f"{'job':<24} {'state':<12} {'att':>3} {'cache':>5} "
                 f"{'resume':>6}  reason"]
        for rec in self.records:
            lines.append(
                f"{rec.spec.name:<24.24} {rec.state.value:<12} "
                f"{len(rec.attempts):>3} "
                f"{'hit' if rec.cache_hit else '-':>5} "
                f"{rec.resumed_from if rec.resumed_from else '-':>6}  "
                f"{rec.reason or ''}"
            )
        counts = ", ".join(f"{k}={v}" for k, v in self.counts.items() if v)
        lines.append(f"-- {len(self.records)} jobs in "
                     f"{self.wall_seconds:.1f}s: {counts}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "schema": "repro.serve.battery/1",
            "wall_seconds": self.wall_seconds,
            "counts": self.counts,
            "all_terminal": self.all_terminal,
            "jobs": [rec.as_dict() for rec in self.records],
        }


class Scheduler:
    """Supervise a battery of jobs to terminal states.

    Thread model (subprocess mode): the main thread owns all scheduler
    state (records, breaker, worker budget) and is the only mutator;
    per-attempt supervisor threads own their worker's pipe and communicate
    one settle event back over a queue.  Inline mode is single-threaded.
    """

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        if self.config.store_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-serve-")
            store_root = self._tmpdir.name
        else:
            self._tmpdir = None
            store_root = self.config.store_dir
        self.store = ResultStore(store_root)
        self.records: list[JobRecord] = []
        #: consecutive-failure count per config hash (breaker state)
        self._fails: dict[str, int] = {}
        self._quarantined_hashes: set[str] = set()
        self._events: queue.Queue = queue.Queue()
        self._threads: list[threading.Thread] = []
        self._watchdog_kills = 0
        self._cache_hits = 0
        self._retries = 0

    # -- submission ----------------------------------------------------- #
    def submit(self, spec: JobSpec) -> JobRecord:
        record = JobRecord(spec=spec, index=len(self.records))
        self.records.append(record)
        return record

    # -- shared policy -------------------------------------------------- #
    def _breaker_open(self, config_hash: str) -> bool:
        return (config_hash in self._quarantined_hashes
                or self._fails.get(config_hash, 0)
                >= self.config.quarantine_after)

    def _cache_lookup(self, record: JobRecord) -> dict | None:
        """Stored result for this record, honoring the bypass rules.

        Faulted jobs must actually *run* (the injected fault is the point
        of the job), so they bypass the read -- but their recovered result
        still lands in the store, where the determinism contract keeps it
        valid for clean twins.
        """
        if self.config.fresh or not record.spec.cache_allowed:
            return None
        if record.spec.faults:
            return None
        return self.store.get(record.config_hash)

    def _settle_done(self, record: JobRecord, result: dict | None,
                     value=None, cache_hit: bool = False) -> None:
        record.transition(JobState.DONE)
        record.reason = None   # clear any earlier attempt's failure code
        record.result = result
        record.value = value if value is not None else record.value
        record.cache_hit = cache_hit
        if cache_hit:
            self._cache_hits += 1
        self._fails[record.config_hash] = 0
        if not cache_hit and result is not None and record.spec.cache_allowed:
            self.store.put(record.config_hash, result)
            self.store.clear_checkpoint(record.config_hash)

    def _settle_failure(self, record: JobRecord, reason: str,
                        retryable: bool = True) -> None:
        """Route one failed attempt: breaker -> budget -> backoff."""
        record.reason = reason
        count = self._fails.get(record.config_hash, 0) + 1
        self._fails[record.config_hash] = count
        if count >= self.config.quarantine_after:
            self._quarantined_hashes.add(record.config_hash)
            record.transition(JobState.QUARANTINED)
            record.reason = REASON_QUARANTINED
            self._quarantine_twins(record.config_hash)
            return
        if not retryable or record.attempt_index > self.config.max_retries:
            record.transition(JobState.FAILED)
            return
        record.transition(JobState.RETRYING)
        record.not_before = time.monotonic() + backoff_delay(
            record.config_hash, record.attempt_index,
            base=self.config.backoff_base,
            factor=self.config.backoff_factor,
            cap=self.config.backoff_max,
        )
        self._retries += 1

    def _quarantine_twins(self, config_hash: str) -> None:
        """Open breaker: quarantine every non-terminal twin still queued."""
        for rec in self.records:
            if (rec.config_hash == config_hash and not rec.terminal
                    and rec.state is not JobState.RUNNING):
                rec.transition(JobState.QUARANTINED)
                rec.reason = REASON_QUARANTINED

    # -- metrics -------------------------------------------------------- #
    def _update_gauges(self) -> None:
        counts = {state: 0 for state in JobState}
        for rec in self.records:
            counts[rec.state] += 1
        for state, n in counts.items():
            _metrics.gauge(f"serve.jobs_{state.value}", n)
        _metrics.gauge("serve.workers_in_use", self._workers_in_use())
        _metrics.gauge("serve.cache_hits", self._cache_hits)
        _metrics.gauge("serve.retries", self._retries)
        _metrics.gauge("serve.watchdog_kills", self._watchdog_kills)

    # -- worker budget (graceful degradation) --------------------------- #
    def _total_workers(self) -> int:
        if self.config.total_workers is not None:
            return max(1, int(self.config.total_workers))
        return max(1, os.cpu_count() or 1)

    def _workers_in_use(self) -> int:
        return sum(rec.granted_workers or 0 for rec in self.records
                   if rec.state is JobState.RUNNING)

    def _grant_workers(self, record: JobRecord) -> int:
        """Workers granted to this launch: shrink under pressure, floor 1.

        The element spans are fixed by the mesh and every engine reduces
        them in the same order, so a job's result is bit-identical for
        any grant.  Shrinking a grant degrades throughput only -- never
        the answer, so cache hits and resumes stay bit-exact, and never
        admission (a saturated battery still runs every job, one worker
        at a time).
        """
        requested = record.spec.workers
        if requested is None:
            requested = int(os.environ.get("REPRO_WORKERS", "1") or 1)
        requested = max(1, int(requested))
        if record.spec.ranks:
            # rank processes draw on the same core budget as pool workers;
            # the grant covers the larger of the two demands
            requested = max(requested, int(record.spec.ranks))
        free = self._total_workers() - self._workers_in_use()
        return max(1, min(requested, free))

    # -- run loop ------------------------------------------------------- #
    def run(self) -> BatteryReport:
        t0 = time.monotonic()
        if self.config.isolation == "inline":
            self._run_inline()
        else:
            self._run_pool()
        self._update_gauges()
        return BatteryReport(self.records, time.monotonic() - t0)

    # ---- inline mode -------------------------------------------------- #
    def _run_inline(self) -> None:
        for record in self.records:
            if record.terminal:
                continue
            self._run_one_inline(record)
            self._update_gauges()

    def _run_one_inline(self, record: JobRecord) -> None:
        spec = record.spec
        if spec.faults and spec.fn is None:
            raise ValueError(
                f"job {spec.name!r}: injected faults need subprocess "
                "isolation (a hang or crash inline would take the driver "
                "down with it)"
            )
        if self._breaker_open(record.config_hash):
            record.transition(JobState.QUARANTINED)
            record.reason = REASON_QUARANTINED
            return
        cached = self._cache_lookup(record)
        if cached is not None:
            self._settle_done(record, cached, cache_hit=True)
            return
        while True:
            record.transition(JobState.RUNNING)
            record.attempt_index += 1
            record.granted_workers = self._grant_workers(record)
            t_attempt = time.monotonic()
            try:
                if spec.fn is not None:
                    record.value = spec.fn()
                    result = None
                    if spec.cache_allowed:
                        result = _jsonable({"job": spec.name,
                                            "value": record.value})
                    self._settle_done(record, result, value=record.value)
                else:
                    result = self._run_scenario_inline(record)
                    self._settle_done(record, result)
                return
            except BreakdownError as err:
                reason = ConvergedReason(err.reason).name
                record.exception = err
            except Exception as err:  # noqa: BLE001 -- job boundary
                reason = f"JOB_ERROR:{type(err).__name__}"
                record.exception = err
            record.attempts.append({
                "attempt": record.attempt_index,
                "outcome": "error",
                "reason": reason,
                "seconds": time.monotonic() - t_attempt,
            })
            self._settle_failure(record, reason)
            if record.terminal:
                return
            # RETRYING: inline mode has no event loop to wait in
            delay = record.not_before - time.monotonic()
            if delay > 0:
                time.sleep(delay)

    def _run_scenario_inline(self, record: JobRecord) -> dict:
        """Run a scenario job in the driver process (no isolation)."""
        from .store import state_digest
        from .worker import build_simulation

        spec = record.spec
        sim = build_simulation(spec)
        while sim.step_index < int(spec.nsteps):
            sim.step(spec.dt)
        return {
            "job": spec.name,
            "config_hash": record.config_hash,
            "scenario": spec.scenario,
            "steps": int(sim.step_index),
            "resumed_from": 0,
            "sim_time": float(sim.time),
            "digest": state_digest(sim),
        }

    # ---- subprocess mode ---------------------------------------------- #
    def _run_pool(self) -> None:
        try:
            while not all(rec.terminal for rec in self.records):
                self._launch_eligible()
                self._update_gauges()
                try:
                    record, outcome = self._events.get(timeout=0.1)
                except queue.Empty:
                    continue
                self._handle(record, outcome)
        finally:
            for thread in self._threads:
                thread.join(timeout=10.0)

    def _eligible(self) -> list[JobRecord]:
        now = time.monotonic()
        # dedupe: per config hash, only the *leader* (first non-terminal
        # twin) may launch; the others wait -- even through the leader's
        # backoff windows -- and are then served from the cache, so one
        # configuration never runs twice concurrently (two workers would
        # race on the shared checkpoint) nor back to back
        leaders: dict[str, int] = {}
        for rec in self.records:
            if not rec.terminal and rec.config_hash not in leaders:
                leaders[rec.config_hash] = rec.index
        group_running: dict[str, int] = {}
        for rec in self.records:
            if rec.state is JobState.RUNNING:
                group_running[rec.group] = group_running.get(rec.group, 0) + 1
        out = []
        for rec in self.records:
            if rec.state is JobState.QUEUED:
                pass
            elif rec.state is JobState.RETRYING and now >= rec.not_before:
                pass
            else:
                continue
            if leaders.get(rec.config_hash) != rec.index:
                continue
            out.append(rec)
        # priority first, then fair share (groups with fewer running jobs
        # win), then submission order for stability
        out.sort(key=lambda rec: (-rec.spec.priority,
                                  group_running.get(rec.group, 0),
                                  rec.index))
        return out

    def _launch_eligible(self) -> None:
        running = sum(1 for rec in self.records
                      if rec.state is JobState.RUNNING)
        for record in self._eligible():
            if running >= self.config.max_jobs:
                break
            if self._breaker_open(record.config_hash):
                record.transition(JobState.QUARANTINED)
                record.reason = REASON_QUARANTINED
                continue
            cached = self._cache_lookup(record)
            if cached is not None:
                self._settle_done(record, cached, cache_hit=True)
                continue
            self._launch(record)
            if record.state is JobState.RUNNING:
                running += 1

    def _launch(self, record: JobRecord) -> None:
        spec = record.spec
        record.transition(JobState.RUNNING)
        record.attempt_index += 1
        record.granted_workers = self._grant_workers(record)
        job_dir = self.store.job_dir(record.config_hash)
        job_path = os.path.join(job_dir, "job.json")
        with open(job_path, "w") as fh:
            json.dump({
                "spec": spec.to_wire(),
                "serve": {
                    "store_dir": self.store.root,
                    "checkpoint_every": int(self.config.checkpoint_every),
                    "resume": bool(self.config.resume
                                   and not self.config.fresh),
                },
            }, fh, indent=1, sort_keys=True)
        log_path = os.path.join(job_dir,
                                f"attempt_{record.attempt_index:02d}.log")
        env = dict(os.environ)
        env["REPRO_WORKERS"] = str(record.granted_workers)
        if spec.ranks:
            env["REPRO_PROCOMM_RANKS"] = str(
                max(1, min(int(spec.ranks), record.granted_workers)))
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        try:
            log_fh = open(log_path, "wb")
            try:
                proc = subprocess.Popen(
                    [self.config.python, "-m", "repro.serve.worker",
                     job_path],
                    stdout=subprocess.PIPE, stderr=log_fh, stdin=
                    subprocess.DEVNULL, env=env, start_new_session=True,
                )
            finally:
                log_fh.close()
        except OSError as err:
            record.attempts.append({
                "attempt": record.attempt_index,
                "outcome": "spawn_failed",
                "reason": REASON_SPAWN_FAILED,
                "message": str(err),
            })
            self._settle_failure(record, REASON_SPAWN_FAILED)
            return
        thread = threading.Thread(
            target=self._supervise, args=(record, proc),
            name=f"serve-{spec.name}-a{record.attempt_index}", daemon=True,
        )
        self._threads.append(thread)
        thread.start()

    def _supervise(self, record: JobRecord, proc: subprocess.Popen) -> None:
        """Per-attempt supervisor: pipe reader + watchdog + classifier.

        Reads the raw pipe fd with ``select`` + ``os.read`` -- a buffered
        text wrapper would hold complete lines in userspace while select
        blocks on an empty kernel buffer, turning every heartbeat into a
        spurious timeout.
        """
        cfg = self.config
        fd = proc.stdout.fileno()
        os.set_blocking(fd, False)
        buf = b""
        deadline = time.monotonic() + cfg.startup_timeout
        started = False
        beats = 0
        result = None
        error = None
        terminated = None
        killed = False
        termed = False
        t0 = time.monotonic()
        while True:
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                if not termed and cfg.term_grace > 0:
                    # graceful first: SIGTERM lets the worker flush a
                    # final checkpoint of its last committed step and
                    # report ``terminated``; the grace window bounds it
                    termed = True
                    self._term(proc)
                    deadline = time.monotonic() + cfg.term_grace
                    continue
                killed = True
                self._kill(proc)
                break
            ready, _, _ = select.select([fd], [], [], min(timeout, 0.25))
            if not ready:
                continue
            try:
                chunk = os.read(fd, 1 << 16)
            except BlockingIOError:
                continue
            except OSError:
                chunk = b""
            if not chunk:
                break  # EOF: worker exited (or was killed externally)
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                event = _parse_event(line)
                if event is None:
                    continue
                kind = event.get("event")
                if kind == "started":
                    started = True
                    record.resumed_from = int(event.get("resumed_from", 0))
                    deadline = time.monotonic() + cfg.step_timeout
                elif kind == "heartbeat":
                    beats += 1
                    deadline = time.monotonic() + cfg.step_timeout
                elif kind == "checkpoint_corrupt":
                    record.checkpoint_corrupt = True
                    error = event
                elif kind == "terminated":
                    terminated = event
                elif kind == "result":
                    result = event
                elif kind == "error":
                    error = event
        try:
            returncode = proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self._kill(proc)
            returncode = proc.wait()
        proc.stdout.close()
        seconds = time.monotonic() - t0
        if returncode == 0 and result is not None:
            # a worker that completed right at the deadline still counts
            outcome = {"outcome": "done", "result": result}
        elif killed or termed or terminated is not None:
            outcome = {"outcome": "hang", "reason": REASON_HANG,
                       "started": started,
                       "graceful": terminated is not None,
                       "flushed_step": (terminated or {}).get("step")}
        elif error is not None and error.get("event") == "error":
            outcome = {"outcome": "error",
                       "reason": str(error.get("reason", "JOB_ERROR")),
                       "message": error.get("message")}
        else:
            outcome = {"outcome": "crash", "reason": REASON_CRASH,
                       "returncode": returncode}
        outcome.update(attempt=record.attempt_index, beats=beats,
                       seconds=seconds)
        self._events.put((record, outcome))

    @staticmethod
    def _term(proc: subprocess.Popen) -> None:
        """SIGTERM the worker process only (graceful-shutdown request).

        Deliberately not the whole group: rank/pool children must stay
        alive while the worker flushes its final checkpoint; the SIGKILL
        that follows an expired grace period sweeps the session.
        """
        try:
            proc.terminate()
        except OSError:
            pass

    @staticmethod
    def _kill(proc: subprocess.Popen) -> None:
        """SIGKILL the worker's whole session (it may have its own pool)."""
        try:
            os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
        except (ProcessLookupError, PermissionError, OSError):
            try:
                proc.kill()
            except OSError:
                pass

    def _handle(self, record: JobRecord, outcome: dict) -> None:
        """Main-thread settle of one attempt (sole mutator of state)."""
        kind = outcome.pop("outcome")
        result = outcome.pop("result", None)
        record.attempts.append({"outcome": kind, **_jsonable(outcome)})
        if kind == "done":
            result.pop("event", None)
            self._settle_done(record, result)
            return
        if kind == "hang":
            self._watchdog_kills += 1
        self._settle_failure(record, outcome.get("reason", REASON_CRASH))


def _parse_event(line: bytes):
    line = line.strip()
    if not line:
        return None
    try:
        event = json.loads(line.decode("utf-8", "replace"))
    except ValueError:
        return None
    return event if isinstance(event, dict) else None


def _jsonable(doc: dict) -> dict:
    """Best-effort JSON-safe copy (drops what cannot be serialized)."""
    out = {}
    for key, value in doc.items():
        try:
            json.dumps(value)
        except (TypeError, ValueError):
            value = repr(value)
        out[key] = value
    return out


def run_battery(specs, config: ServeConfig | None = None) -> BatteryReport:
    """Run a battery of :class:`~repro.serve.jobs.JobSpec` to completion.

    Every submitted job reaches a terminal state; the report accounts for
    each exactly once.  This is the single entry point shared by the CLI
    (``python -m repro.serve``), the benchmark battery, and the tests.
    """
    scheduler = Scheduler(config)
    for spec in specs:
        if not isinstance(spec, JobSpec):
            spec = JobSpec.from_wire(dict(spec))
        scheduler.submit(spec)
    return scheduler.run()
