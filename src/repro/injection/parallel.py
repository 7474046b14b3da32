"""Parallel, resilient, resumable execution of injection campaigns.

The statistical campaigns behind the paper's figures are tens of thousands
of *independent* full-system simulations (1,000 faults x 6 components x 13
benchmarks), which makes them an embarrassingly parallel job farm - the way
DAVOS's SBFI tool and checkpoint-restore harnesses treat them.  This module
supplies the farm:

- a :class:`MachineImage`: one pickle-friendly bundle of everything a
  worker needs for a (workload, machine) pair - the assembled program, the
  machine configuration, the golden run's output/duration, and the golden
  checkpoints;
- an :class:`ImageInjector`: a worker-local machine built *once* from the
  image; every injection restores either a golden checkpoint or the
  pristine boot snapshot instead of re-assembling the kernel, re-loading
  the program and re-writing the page table;
- :func:`run_injection_plan`: fans a fault plan out over a supervised
  worker farm.

The farm treats the harness itself as fault-tolerant (FAIL*/DAVOS style):

- **worker death** (segfault, OOM-kill, ``os._exit``) is detected by the
  supervisor; the in-flight fault is re-dispatched to a fresh worker
  instead of hanging the campaign or silently dropping the experiment;
- **per-injection wall-clock timeouts** kill a stuck worker and retry;
- a fault whose attempts keep failing - the simulator raises, or its
  worker dies or stalls - is **quarantined** after ``max_retries``
  retries, never silently counted: its slot comes back ``None``, and it
  reaches the journal, the telemetry and a progress line;
- with an :class:`~repro.injection.journal.InjectionJournal`, every
  completed injection is durably appended, and a killed campaign resumes
  by replaying the journal and dispatching only the missing fault indices;
- completed-slot accounting is validated before returning - an unfilled
  effect slot raises :class:`~repro.errors.InjectionError` instead of
  leaking ``None`` into the tallies.

Determinism guarantee: the fault lists are generated up front from the
campaign seed, every injection is a pure function of (image, fault), and
results are collected into one slot table, a row per plan fault.  The
returned effects - and therefore the campaign tallies - are identical for
any worker count, any scheduling order, and any interrupt/resume split
(enforced by the equivalence and resilience test suites).

Early Masked termination: campaigns on the paper's components are
dominated by Masked outcomes, so the injector prunes provably-dead runs
instead of simulating them to program exit - with a machine-checkable
equivalence guarantee (effects are bit-identical with pruning on or off):

- **dead-cell short-circuit**: every target answers whether a bit is
  observable now (``observable``, equal to what its ``flip_bit`` would
  return): a cache bit in a valid line, a tag/frame/permission bit of a
  valid TLB entry, a bit of an architectural register that some
  instruction of the image reads.  A flip whose cluster holds no
  observable bit - only invalid cache lines, invalid TLB entries or TLB
  attribute bits, write-only rename slots, or registers no instruction
  reads - can never be observed, so it is classified Masked at flip
  time.  With early exit off such a flip still runs to program exit,
  but unwatched (no taint probe, no digest-probe stamps), so its
  lifetime is the same ``flip``/``outcome`` pair in both modes;
- **golden-state digest convergence**: the image carries blake2b digests
  of the golden run's complete mutable state at a probe grid of cycles
  (:mod:`repro.microarch.digest`); an injected run registers probe events
  after its injection cycle, and the first probe whose digest equals the
  golden digest proves every future cycle is bit-identical to the golden
  run - the run terminates immediately (via :class:`EarlyMasked`, caught
  in :meth:`ImageInjector.run_fault_ex`) and is classified Masked.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from multiprocessing.connection import wait as _wait_ready
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Sequence

from repro.errors import ConfigurationError, InjectionError
from repro.injection.classify import FaultEffect, classify_run
from repro.injection.components import Component, component_target
from repro.injection.fault import Fault, StrikeSite
from repro.microarch.digest import arch_digest, system_digest
from repro.injection.journal import (
    InjectionJournal,
    InjectionRecord,
    QuarantineRecord,
)
from repro.injection.telemetry import CampaignTelemetry
from repro.isa.assembler import Program
from repro.microarch.config import MachineConfig
from repro.microarch.snapshot import (
    DeltaRestorer,
    SystemSnapshot,
    best_snapshot,
)
from repro.microarch.profile import enable_op_counts
from repro.microarch.translate import attach_translator
from repro.microarch.system import System
from repro.microarch.trace import InstructionTrace
from repro.observability.events import (
    EV_CONVERGE,
    EV_DIVERGE,
    EV_FLIP,
    EV_OUTCOME,
    FaultLifetime,
)
from repro.observability.golden import GoldenActivity
from repro.observability.taint import install_taint

#: Cycle budget for injected runs, relative to the fault-free duration.
WATCHDOG_FACTOR = 2.5
WATCHDOG_SLACK = 50_000

#: Default bound on re-dispatches of a fault whose worker died or stalled.
DEFAULT_MAX_RETRIES = 2

#: Supervisor poll interval while waiting for results (seconds).
_POLL_SECONDS = 0.05


def watchdog_budget(golden_cycles: int) -> int:
    """Cycle budget for an injected run given the fault-free duration."""
    return int(golden_cycles * WATCHDOG_FACTOR) + WATCHDOG_SLACK


def resolve_jobs(jobs: int) -> int:
    """Map a ``jobs`` knob onto a worker count (``0`` means all cores)."""
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


@dataclass(frozen=True)
class EngineOptions:
    """The injection engine's result-neutral settings, as one value.

    None of these can change an injection's effect - the translator,
    early-exit and observability equivalence suites pin that - so none
    of them is part of a campaign's cache key.  Field names match
    the flat :class:`~repro.injection.campaign.CampaignConfig` fields
    they are read from (``CampaignConfig.engine``).
    """

    #: Run injected programs through the basic-block translator
    #: (:mod:`repro.microarch.translate`) and restore copy-on-write
    #: (:class:`~repro.microarch.snapshot.DeltaRestorer`); fault-free
    #: golden, capture and beam warm runs translate too.  ``False`` is
    #: the reference engine: the interpreter with full-sweep restores.
    translate: bool = True
    #: Master switch for the provably-sound early-Masked terminations.
    early_exit: bool = True
    #: Evenly spaced golden-state digest probes recorded for early exit
    #: and fault-lifetime divergence stamping.  More probes bound the
    #: post-convergence tail tighter but cost one state hash each.
    digest_probes: int = 24
    #: Record per-injection fault-lifetime events (:mod:`repro.observability`).
    lifetime_events: bool = True
    #: When > 0, trace every injected run and attach the last N instructions
    #: to Crash-classified results.  Traced runs run without the translator.
    trace_on_crash: int = 0
    #: Compile translator iteration counters and collect per-op dispatch
    #: counts (:mod:`repro.microarch.profile`).
    profile: bool = False

    def __post_init__(self):
        """Refuse negative counts before any machine is built (types are
        checked where untyped JSON arrives: the fabric's campaign spec)."""
        negative = [
            f"{name} must not be negative"
            for name in ("digest_probes", "trace_on_crash")
            if isinstance(getattr(self, name), int) and getattr(self, name) < 0
        ]
        if negative:
            raise ConfigurationError("; ".join(negative))


@dataclass
class MachineImage:
    """Shared machine image: one (workload, machine) pair, ready to inject.

    Building this once per campaign - instead of once per injection -
    removes the constant per-experiment costs: kernel assembly, program
    load, page-table write, and the golden/checkpoint runs.  The image is
    pickle-friendly so a worker pool can receive it whole.
    """

    name: str
    program: Program
    machine: MachineConfig
    golden_cycles: int
    golden_output: bytes
    snapshots: list[SystemSnapshot] = field(default_factory=list)
    cluster_size: int = 1
    #: Golden-state digests keyed by cycle (see :mod:`repro.microarch.digest`).
    digests: dict[int, bytes] = field(default_factory=dict)
    #: Golden *architectural* digests on the same probe grid, used by the
    #: fault-lifetime layer to stamp the first architectural divergence.
    arch_digests: dict[int, bytes] = field(default_factory=dict)
    #: How the injector runs each fault; result-neutral by construction.
    engine: EngineOptions = EngineOptions()
    #: Golden cache/TLB activity observables for learned sampling
    #: (:mod:`repro.observability.golden`); ``None`` unless the campaign
    #: was configured with ``learned_sampling``.
    activity: GoldenActivity | None = None
    #: Beam images only (:mod:`repro.beam.experiment`): the online check
    #: routine; the injector then boots in beam mode with the golden output
    #: in memory, and ``snapshots[0]`` is the warm boot at cycle 0.
    check_program: Program | None = None


#: ``InjectionResult.ended_by`` values: simulated to completion, converged
#: onto a golden digest, or struck only unobservable cells.
ENDED_FULL = "full"
ENDED_DIGEST = "digest"
ENDED_DEAD_CELL = "dead-cell"


class EarlyMasked(Exception):
    """Control flow: this run is provably Masked; stop simulating it.

    Deliberately a plain :class:`Exception` - not a
    :class:`~repro.errors.SimulationTermination` (``System.run`` would
    swallow it as a normal program exit) and not a
    :class:`~repro.errors.ReproError` (nothing went wrong).
    """

    def __init__(self, mechanism: str):
        super().__init__(mechanism)
        self.mechanism = mechanism


@dataclass(frozen=True)
class InjectionResult:
    """One injection's classification plus how the run ended.

    ``ended_by`` is one of :data:`ENDED_FULL`, :data:`ENDED_DIGEST`, or
    :data:`ENDED_DEAD_CELL`; ``cycles_saved`` counts golden cycles *not*
    simulated thanks to early termination (0 for full runs).  The effect
    itself is independent of the termination mechanism - that is the
    equivalence guarantee the early-exit test suite enforces.

    With ``lifetime_events`` armed, ``events`` carries the fault-lifetime
    event payload (``(kind, cycle, detail)`` tuples; see
    :mod:`repro.observability.events`); with ``trace_on_crash``,
    ``trace`` carries the last instructions of a Crash-classified run.
    Both default empty, so pickles and journals stay compact.

    ``site`` is the :class:`~repro.injection.fault.StrikeSite` observed at
    the flip; ``None`` only when the run ended before the injection cycle.
    """

    effect: FaultEffect
    ended_by: str = ENDED_FULL
    cycles_saved: int = 0
    events: tuple = ()
    trace: tuple = ()
    site: StrikeSite | None = None


def _finish_lifetime(lifetime: FaultLifetime | None, effect: FaultEffect) -> tuple:
    """Stamp the terminal outcome and return the event payload."""
    if lifetime is None:
        return ()
    lifetime.event(EV_OUTCOME, effect.name)
    return lifetime.to_payload()


class ImageInjector:
    """Run injections against one reusable machine built from an image.

    The :class:`~repro.microarch.system.System` is assembled exactly once.
    Every injection then *restores* state - the latest golden checkpoint at
    or before the injection cycle, or the pristine boot snapshot when none
    applies - which overwrites all mutable machine state and is therefore
    bit-identical to booting a fresh machine (the fidelity tests assert
    this).
    """

    def __init__(self, image: MachineImage):
        self.image = image
        self._boot()

    def _boot(self) -> None:
        image = self.image
        engine = image.engine
        beam = image.check_program is not None
        self.system = System(
            image.program,
            config=image.machine,
            check_program=image.check_program,
            golden_output=image.golden_output if beam else None,
            beam_mode=beam,
        )
        self.pristine = SystemSnapshot(self.system)
        self.budget = watchdog_budget(image.golden_cycles)
        self.translator = None
        if engine.translate:
            self.translator = attach_translator(
                self.system, profile=engine.profile
            )
        if engine.profile:
            enable_op_counts(self.system.core)
        # This injector owns its system exclusively and restores through
        # one engine, which is exactly the DeltaRestorer contract.  The
        # reference engine and atomic machines (which store straight into
        # memory without dirty tracking) keep the full-sweep restore and
        # uncached digests.
        if engine.translate and not image.machine.atomic:
            self._restorer = DeltaRestorer(self.system)
            self.system.memory.enable_digest_cache()
        else:
            self._restorer = None
        # The probe grid serves early termination *and* (observation-only)
        # convergence/divergence stamping for fault-lifetime events.
        self._probe_cycles = (
            sorted(image.digests)
            if (engine.early_exit or engine.lifetime_events)
            else []
        )

    def close(self) -> None:
        """Detach the translator: the core and its translator reference
        each other, so without this a dropped injector's machine lives
        until the next full garbage collection.  Whoever built the
        injector calls this once it is done with it."""
        self.system.core.translator = None
        self.translator = None

    def renew(self) -> None:
        """Close this injector's machine and boot a fresh one in its place.

        After an in-simulator exception the machine's state may be
        poisoned beyond what a restore rewrites.  Renewing in place closes
        the machine that raised, once, and every holder of the injector
        (a serial campaign, a fabric worker's campaign context, a farm
        worker) runs the rest of its work on the fresh machine.
        """
        self.close()
        self._boot()

    def run_fault_ex(
        self, fault: Fault, strike: Callable[[str | None], None] | None = None
    ) -> InjectionResult:
        """Execute one injection experiment: its effect, how the run
        ended, and where the fault struck.

        This is the one per-injection entry point: the farm, the fabric
        worker and the beam's strikes all run through it.  At the flip
        it looks up the struck line's region (valid cache lines only) and
        runs ``strike(region)`` before any bit flips; an exception it
        raises ends the run and propagates (the beam's board model
        resolves background-OS line hits that way).  It then records the
        :class:`~repro.injection.fault.StrikeSite`, live when any bit of
        the cluster is observable.  A not-live flip is never watched: it
        arms no taint probe and its digest probes stamp nothing.

        With ``early_exit`` armed, two sound pruning mechanisms can
        classify a run Masked without simulating it to completion (see
        the module docstring): the dead-cell rule - no bit of the cluster
        is observable, so nothing flips and the run ends at the flip - and
        digest convergence.  Both raise :class:`EarlyMasked`, caught
        here.  Probe events are registered only for cycles *strictly
        after* the injection cycle - up to the flip the run is the golden
        prefix by construction, so an earlier probe would trivially match
        and terminate the run before the fault even fires.
        """
        image = self.image
        engine = image.engine
        system = self.system
        snapshot = best_snapshot(image.snapshots, fault.cycle)
        if snapshot is None:
            snapshot = self.pristine
        if self._restorer is not None:
            self._restorer.restore(snapshot)
        else:
            snapshot.restore(system)
        target = component_target(system, fault.component)
        population = target.data_bits
        cluster = image.cluster_size
        early = engine.early_exit
        lifetime = FaultLifetime(system.core) if engine.lifetime_events else None
        trace_depth = engine.trace_on_crash
        tracer = InstructionTrace(trace_depth) if trace_depth else None
        uninstall: list = []
        site: StrikeSite | None = None

        def flip():
            nonlocal site
            paddr = target.line_base_paddr(fault.bit_index)
            region = (
                None if paddr is None else image.machine.layout.region_of(paddr)
            )
            if strike is not None:
                strike(region)
            bits = [
                (fault.bit_index + offset) % population
                for offset in range(cluster)
            ]
            live = any(target.observable(bit) for bit in bits)
            site = StrikeSite(system.core.mode.name.lower(), region, live)
            if lifetime is not None:
                lifetime.event(EV_FLIP, fault.component.name)
            if early and not live:
                raise EarlyMasked(ENDED_DEAD_CELL)
            for bit in bits:
                target.flip_bit(bit)
            if lifetime is not None and live:
                uninstall.append(
                    install_taint(system, fault.component, bits, lifetime)
                )

        def watched() -> bool:
            return site.live

        events = [(fault.cycle, flip)]
        for cycle in self._probe_cycles:
            if cycle > fault.cycle:
                events.append((cycle, self._make_probe(cycle, lifetime, watched)))

        try:
            result = system.run(
                max_cycles=self.budget,
                events=events,
                trace=tracer.hook if tracer is not None else None,
            )
        except EarlyMasked as masked:
            saved = max(0, image.golden_cycles - system.core.cycle)
            return InjectionResult(
                FaultEffect.MASKED,
                masked.mechanism,
                saved,
                events=_finish_lifetime(lifetime, FaultEffect.MASKED),
                site=site,
            )
        finally:
            # Taint probes must not outlive the injection: the next run on
            # this reused system would otherwise keep emitting events.
            for detach in uninstall:
                detach()
        effect = classify_run(result, image.golden_output, system)
        trace_tail: tuple = ()
        if tracer is not None and effect in (
            FaultEffect.APP_CRASH,
            FaultEffect.SYS_CRASH,
        ):
            trace_tail = tuple(
                str(record) for record in tracer.tail(trace_depth)
            )
        return InjectionResult(
            effect,
            ENDED_FULL,
            0,
            events=_finish_lifetime(lifetime, effect),
            trace=trace_tail,
            site=site,
        )

    def _make_probe(
        self,
        cycle: int,
        lifetime: FaultLifetime | None,
        watched: Callable[[], bool],
    ):
        image = self.image
        golden = image.digests[cycle]
        golden_arch = image.arch_digests.get(cycle)
        early = image.engine.early_exit
        system = self.system

        def probe():
            if not watched():
                return
            if system_digest(system) == golden:
                if lifetime is not None:
                    lifetime.event(EV_CONVERGE)
                if early:
                    raise EarlyMasked(ENDED_DIGEST)
            elif (
                lifetime is not None
                and golden_arch is not None
                and not lifetime.seen(EV_DIVERGE)
                and arch_digest(system) != golden_arch
            ):
                lifetime.event(EV_DIVERGE)

        return probe


# -- failure policy ---------------------------------------------------------


@dataclass
class _Attempt:
    """One pending slot of a plan's slot table plus its retry history."""

    slot: int
    fault: Fault
    attempts: int = 0


def _raised(exc: Exception) -> str:
    """The failure reason of an in-simulator exception, in both executors."""
    return f"raised {type(exc).__name__}: {exc}"


def _retry_or_quarantine(
    attempt: _Attempt,
    reason: str,
    *,
    pending: deque[_Attempt],
    max_retries: int,
    retry: Callable[[_Attempt, str], None],
    quarantine: Callable[[_Attempt, str], None],
) -> None:
    """The one failure policy of the serial and the farm executor.

    Counts the failed attempt; while ``attempts <= max_retries`` the
    attempt goes back to the front of ``pending`` (it runs next, before
    any fault not yet tried), otherwise its fault is quarantined.
    """
    attempt.attempts += 1
    if attempt.attempts <= max_retries:
        retry(attempt, reason)
        pending.appendleft(attempt)
    else:
        quarantine(attempt, reason)


# -- worker farm ------------------------------------------------------------


def _pool_context():
    # fork shares the (potentially large) image copy-on-write; fall back to
    # the platform default where fork does not exist.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _worker_main(image: MachineImage, task_conn, result_conn, worker_id: int):
    """Worker loop: build one injector, then serve tasks until sentinel.

    Every outcome - including a Python-level exception inside the
    simulator - is reported back as a message; only an external kill (or
    a crash of the interpreter itself) leaves the supervisor to infer
    death from the process state.

    Results travel over a *per-worker* pipe written from this (single)
    thread with no shared lock.  A shared ``multiprocessing.Queue`` would
    be poisoned by exactly the failures this farm is built to survive: a
    worker dying between flushing a result and releasing the queue's
    write-lock leaves the lock held forever and deadlocks every other
    worker.  With one pipe per worker, a death can corrupt nothing but
    its own channel - and results already in the pipe buffer survive it.

    The loop waits on *both* the task pipe and the supervisor's death
    sentinel: if the campaign process is SIGKILLed, its workers exit
    instead of blocking forever on the task pipe as orphans (which would
    also hold the campaign's inherited descriptors - journals, stdout
    pipes - open indefinitely).
    """
    parent = multiprocessing.parent_process()
    waitables = [task_conn] if parent is None else [task_conn, parent.sentinel]
    injector = ImageInjector(image)
    while True:
        ready = _wait_ready(waitables)
        if task_conn not in ready:
            return  # supervisor died without sending a sentinel
        try:
            task = task_conn.recv()
        except EOFError:
            return  # supervisor closed (or lost) its end of the pipe
        if task is None:
            return
        slot, fault = task
        start = time.perf_counter()
        try:
            result = injector.run_fault_ex(fault)
        except Exception as exc:  # noqa: BLE001 - reported, then retried
            message = (
                "error", worker_id, slot, _raised(exc),
                time.perf_counter() - start,
            )
            injector.renew()  # state may be poisoned
        else:
            message = (
                "ok", worker_id, slot, result, time.perf_counter() - start
            )
        try:
            result_conn.send(message)
        except (BrokenPipeError, OSError):
            return  # supervisor is gone; nobody is listening


class _WorkerHandle:
    """Supervisor-side view of one worker process."""

    def __init__(self, ctx, image: MachineImage, worker_id: int):
        self.worker_id = worker_id
        task_read, self.task_conn = ctx.Pipe(duplex=False)
        self.result_conn, result_write = ctx.Pipe(duplex=False)
        self.current: _Attempt | None = None
        self.started_at = 0.0
        self.process = ctx.Process(
            target=_worker_main,
            args=(image, task_read, result_write, worker_id),
            daemon=True,
        )
        self.process.start()
        # The worker holds the only surviving copies of its pipe ends, so
        # closing them here gives clean EOF semantics in both directions.
        task_read.close()
        result_write.close()

    def dispatch(self, attempt: _Attempt) -> None:
        self.current = attempt
        self.started_at = time.monotonic()
        self.task_conn.send((attempt.slot, attempt.fault))

    def kill(self) -> None:
        # Closing the pipe ends belongs to the kill path itself: every
        # timeout/death reap replaces the worker with a fresh handle (two
        # fresh pipes), so a kill that left the old descriptors open would
        # leak two fds per death - enough to hit the fd ceiling on long
        # quarantine-heavy campaigns.
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5.0)
        self.close()
        if self.process.exitcode is not None:
            # Also release the process object's sentinel fd; without it a
            # handle kept alive by the supervisor still pins one fd per
            # death.  Guarded: close() raises while the process runs
            # (join timed out), and a leaked zombie beats an exception
            # on the error path.
            self.process.close()

    def close(self) -> None:
        # Connection.close is idempotent, so kill() + an explicit close()
        # on the shutdown path double-closing is harmless.
        self.task_conn.close()
        self.result_conn.close()


class _FarmSupervisor:
    """Dispatch attempts over workers; survive death, stalls, and kills.

    One task is dispatched per worker at a time, so the supervisor always
    knows exactly which fault a dead or stuck worker was holding - the
    prerequisite for retry and quarantine attribution.  The per-dispatch
    queue round-trip is microseconds against injections that each run a
    full-system simulation, so farm throughput is unaffected (guarded by
    the campaign-throughput benchmark).
    """

    def __init__(
        self,
        image: MachineImage,
        jobs: int,
        timeout: float | None,
        pending: deque[_Attempt],
        on_result: Callable[[int, InjectionResult, float], None],
        on_failure: Callable[[_Attempt, str], None],
        telemetry: CampaignTelemetry | None,
    ):
        self.image = image
        self.jobs = jobs
        self.timeout = timeout
        self.pending = pending
        self.on_result = on_result
        self.on_failure = on_failure
        self.telemetry = telemetry
        self.ctx = _pool_context()
        self.workers: dict[int, _WorkerHandle] = {}
        self.next_worker_id = 0

    @property
    def outstanding(self) -> int:
        """Attempts neither recorded nor quarantined: queued or in flight."""
        return len(self.pending) + sum(
            handle.current is not None for handle in self.workers.values()
        )

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self) -> None:
        handle = _WorkerHandle(self.ctx, self.image, self.next_worker_id)
        self.workers[self.next_worker_id] = handle
        self.next_worker_id += 1

    def _shutdown(self) -> None:
        for handle in self.workers.values():
            try:
                handle.task_conn.send(None)
            except (OSError, ValueError):  # pragma: no cover - closed pipe
                pass
        deadline = time.monotonic() + 2.0
        for handle in self.workers.values():
            handle.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.kill()
            handle.close()
        self.workers.clear()

    # -- event handling ------------------------------------------------------

    def _handle_message(self, message) -> None:
        kind, worker_id, slot, payload, wall = message
        handle = self.workers.get(worker_id)
        attempt = handle.current if handle is not None else None
        if handle is not None:
            handle.current = None
        if attempt is None or attempt.slot != slot:  # pragma: no cover
            raise InjectionError(
                f"worker {worker_id} reported a result for a task it was "
                f"not assigned (slot {slot})"
            )
        if kind == "ok":
            self.on_result(slot, payload, wall)
        else:
            self.on_failure(attempt, payload)

    def _reap(self, worker_id: int, reason: str) -> None:
        """Remove a dead/stuck worker; fail its attempt; refill the farm."""
        handle = self.workers.pop(worker_id)
        attempt = handle.current
        handle.kill()
        handle.close()
        if attempt is None:
            # A worker died with no task in hand: nothing to attribute the
            # death to, so this is an environment problem, not a fault.
            raise InjectionError(
                f"injection worker {worker_id} died while idle "
                f"({reason}); aborting campaign"
            )
        self.on_failure(attempt, reason)
        if self.outstanding > len(self.workers):
            self._spawn()

    def _check_workers(self) -> None:
        now = time.monotonic()
        for worker_id, handle in list(self.workers.items()):
            if not handle.process.is_alive():
                # The worker may have delivered its result just before
                # dying; drain first so a completed injection is never
                # misread as a death.
                self._drain()
                if worker_id not in self.workers:
                    continue  # drained message already reaped/cleared it
                handle = self.workers[worker_id]
                if not handle.process.is_alive():
                    if handle.current is not None and self.telemetry:
                        self.telemetry.record_worker_death()
                    self._reap(
                        worker_id,
                        f"worker died (exit code {handle.process.exitcode})",
                    )
            elif (
                self.timeout is not None
                and handle.current is not None
                and now - handle.started_at > self.timeout
            ):
                if self.telemetry is not None:
                    self.telemetry.record_timeout()
                self._reap(
                    worker_id,
                    f"timed out after {self.timeout:.1f}s wall-clock",
                )

    def _receive(self, timeout: float) -> bool:
        """Recv every result ready within ``timeout``; True if any handled.

        A connection that is ready because its worker died (EOF, or a
        message truncated by a mid-send kill) is skipped here; the
        liveness check reaps the worker and re-dispatches its fault.
        """
        conns = {
            handle.result_conn: handle for handle in self.workers.values()
        }
        if not conns:
            return False
        handled = False
        for conn in _wait_ready(list(conns), timeout):
            try:
                message = conn.recv()
            except (EOFError, OSError, ValueError):
                continue  # dead worker / truncated message
            self._handle_message(message)
            handled = True
        return handled

    def _drain(self) -> None:
        """Consume every already-delivered result before inferring deaths.

        Results sitting in a pipe buffer survive their writer's death, so
        a worker that completed an injection and was then killed still
        gets its completion counted instead of a spurious retry.
        """
        while self._receive(0):
            pass

    # -- main loop -----------------------------------------------------------

    def run(self) -> None:
        for _ in range(min(self.jobs, max(1, self.outstanding))):
            self._spawn()
        try:
            while self.outstanding > 0:
                for handle in self.workers.values():
                    if handle.current is None and self.pending:
                        attempt = self.pending.popleft()
                        try:
                            handle.dispatch(attempt)
                        except (BrokenPipeError, OSError):
                            # The worker died between tasks; ``current``
                            # is already set, so the liveness check will
                            # reap it and re-dispatch this attempt.
                            pass
                if not self._receive(_POLL_SECONDS):
                    self._check_workers()
        finally:
            self._shutdown()


# -- plan execution ---------------------------------------------------------

#: One row of a plan's slot table: component, stream index, fault.
_Slot = tuple[Component, int, Fault]


def _validate_effects(
    image_name: str,
    slots: Sequence[_Slot],
    ends: Sequence[FaultEffect | QuarantineRecord | None],
) -> None:
    """Reject any slot the plan finished with neither an effect nor a
    quarantine.

    This is the backstop that keeps a ``None`` from ever reaching the
    campaign tallies as anything but an explicit quarantine.
    """
    missing = [
        f"{component.name}[{index}]"
        for (component, index, _fault), end in zip(slots, ends)
        if end is None
    ]
    if missing:
        raise InjectionError(
            f"{image_name}: injection plan finished with "
            f"{len(missing)} unfilled effect slot(s): {', '.join(missing)}"
        )


def _check_replayed(
    record: InjectionRecord | QuarantineRecord, fault: Fault
) -> None:
    """Reject a journal line whose bit or cycle is not the plan's fault."""
    if record.bit_index != fault.bit_index or record.cycle != fault.cycle:
        raise InjectionError(
            f"journal record for {record.component.name}[{record.index}] "
            f"does not match the regenerated fault (journal bit "
            f"{record.bit_index} cycle {record.cycle}, plan bit "
            f"{fault.bit_index} cycle {fault.cycle})"
        )


def _replay_journal(
    journal: InjectionJournal,
    slots: Sequence[_Slot],
    ends: list,
    telemetry: CampaignTelemetry | None,
) -> None:
    """End every slot the journal already holds.

    Each slot looks its stream index up in the journal; journaled indices
    no slot names are other windows' work and stay untouched.  Every
    replayed injection and quarantine record is cross-checked against the
    regenerated fault (bit and cycle must match) so a journal from a
    drifted seed or simulator version cannot silently corrupt the
    tallies.  An index journaled both as an injection and as a quarantine
    ends with the injection's effect; both records reach the telemetry.
    """
    components = {component for component, _index, _fault in slots}
    completed = {c: journal.completed(c) for c in components}
    held = {c: journal.quarantined(c) for c in components}
    replayed_records: list[InjectionRecord] = []
    replayed_quarantines: list[QuarantineRecord] = []
    for slot, (component, index, fault) in enumerate(slots):
        record = completed[component].get(index)
        quarantine = held[component].get(index)
        if record is not None:
            _check_replayed(record, fault)
            replayed_records.append(record)
        if quarantine is not None:
            _check_replayed(quarantine, fault)
            replayed_quarantines.append(quarantine)
        ends[slot] = record.effect if record is not None else quarantine
    if telemetry is not None:
        telemetry.replay(replayed_records, replayed_quarantines)


def run_injection_plan(
    image: MachineImage,
    plan: Mapping[Component, Sequence[Fault]],
    jobs: int = 1,
    progress: Callable[[str], None] | None = None,
    journal: InjectionJournal | None = None,
    telemetry: CampaignTelemetry | None = None,
    timeout: float | None = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    indices: Mapping[Component, Sequence[int]] | None = None,
    injector: ImageInjector | None = None,
    tracer=None,
    span_parent: str | None = None,
) -> dict[Component, list[FaultEffect | None]]:
    """Execute every fault in ``plan``; returns effects in fault order.

    ``plan`` maps each component to its (seed-deterministic) fault list.
    With ``jobs == 1`` everything runs in-process; otherwise injections fan
    out over a supervised worker farm.  Either way the result is the same:
    effects keyed by component, listed in fault order, independent of
    scheduling.  A quarantined fault's slot is ``None``.

    Every plan is a window of the fault stream: ``indices`` names the
    global stream index of every plan slot, so ``plan[c][i]`` is fault
    ``indices[c][i]`` of component ``c``'s stream, in any order, and it
    defaults to ``range(len(plan[c]))``, the stream's head.  Journal
    records are written with those indices, and replay looks each slot's
    index up in the journal; a journaled index the window does not list
    is another window's work.  The fixed campaign runs the head, the
    adaptive campaign streams its batches (permuted ones under learned
    sampling) into one shared journal, and a fabric worker runs a leased
    ``range(start, stop)`` into a
    :class:`~repro.injection.journal.RecordBuffer`.  An index outside the
    journal's ``[0, faults_per_component)`` is refused when the journal
    is read (:func:`~repro.injection.journal.read_journal`).

    ``injector`` (``jobs == 1`` only) reuses a caller-owned
    :class:`ImageInjector` instead of building a fresh one - the seam
    that lets a serial campaign and a fabric worker amortize machine
    construction across many small windows.  Every injection restores
    complete machine state before running, so reuse is result-neutral.

    With a ``journal``, injections and quarantines already recorded there
    are replayed (after validating they match the plan), only the other
    faults run, and every new completion is durably appended, which makes
    the plan resumable after a SIGKILL.

    One failure policy holds for both executors.  An attempt fails when
    the simulator raises (the serial run then renews its machine), or -
    on the farm only - when its worker dies or holds it longer than
    ``timeout`` wall-clock seconds.  A failed attempt is retried, ahead
    of every untried fault, until it has failed ``max_retries + 1``
    times; then its fault is quarantined: it reaches the journal as a
    :class:`~repro.injection.journal.QuarantineRecord`, the telemetry and
    a progress line, and its slot in the returned lists is ``None``.
    Completeness is validated before returning: a slot with neither an
    effect nor a quarantine raises :class:`InjectionError`.

    ``tracer`` (a :class:`repro.observability.tracing.Tracer`, default
    off) records one ``window`` span per component covering that
    component's slice of the plan, parented under ``span_parent`` (the
    fabric lease span id, when leased).  The hot loop never sees the
    tracer - spans are per window, not per injection - so an armed run
    stays within the <5% overhead budget pinned by
    ``benchmarks/test_observability_overhead.py``.
    """
    progress = progress or (lambda message: None)
    if indices is None:
        indices = {
            component: range(len(faults)) for component, faults in plan.items()
        }
    # The slot table, in dispatch order (component by component, then
    # fault order); ``ends[slot]`` stays None until the slot's fault has
    # an effect or a quarantine record.
    slots: list[_Slot] = [
        (component, indices[component][position], fault)
        for component, faults in plan.items()
        for position, fault in enumerate(faults)
    ]
    ends: list[FaultEffect | QuarantineRecord | None] = [None] * len(slots)
    totals = {component: len(plan[component]) for component in plan}
    if telemetry is not None:
        for component, total in totals.items():
            telemetry.register_plan(component, total)
    if journal is not None:
        _replay_journal(journal, slots, ends, telemetry)
    done = dict.fromkeys(plan, 0)
    for (component, _index, _fault), end in zip(slots, ends):
        done[component] += end is not None

    window_spans = []
    if tracer is not None:
        window_spans = [
            tracer.start_span(
                "window",
                parent_id=span_parent,
                attributes={
                    "component": component.name,
                    "base": indices[component][0] if totals[component] else 0,
                    "count": totals[component],
                },
            )
            for component in plan
        ]

    def status(component: Component) -> str:
        line = (
            f"{image.name}/{component.name}: "
            f"{done[component]}/{totals[component]}"
        )
        if telemetry is not None:
            line += f" | {telemetry.progress_line()}"
        return line

    def record(slot: int, result: InjectionResult, wall_time: float) -> None:
        component, index, fault = slots[slot]
        ends[slot] = result.effect
        outcome = InjectionRecord.from_result(
            component, index, fault, result, wall_time
        )
        if journal is not None:
            journal.record(outcome)
        if telemetry is not None:
            telemetry.record(outcome)
        done[component] += 1
        if done[component] % 10 == 0 or done[component] == totals[component]:
            progress(status(component))

    def quarantine(attempt: _Attempt, reason: str) -> None:
        component, index, fault = slots[attempt.slot]
        outcome = QuarantineRecord.from_fault(component, index, fault, reason)
        ends[attempt.slot] = outcome
        if journal is not None:
            journal.record_quarantine(outcome)
        if telemetry is not None:
            telemetry.record_quarantine(outcome)
        done[component] += 1
        progress(
            f"{image.name}/{component.name}: quarantined fault {index} "
            f"({reason})"
        )

    def retry(attempt: _Attempt, reason: str) -> None:
        component, index, _fault = slots[attempt.slot]
        if telemetry is not None:
            telemetry.record_retry()
        progress(
            f"{image.name}/{component.name}: retrying fault {index} "
            f"(attempt {attempt.attempts + 1}: {reason})"
        )

    pending = deque(
        _Attempt(slot, slots[slot][2])
        for slot, end in enumerate(ends)
        if end is None
    )
    fail = partial(
        _retry_or_quarantine,
        pending=pending,
        max_retries=max_retries,
        retry=retry,
        quarantine=quarantine,
    )
    if pending:
        jobs = min(resolve_jobs(jobs), len(pending))
        if jobs == 1:
            _run_serial(image, pending, record, fail, injector=injector)
        else:
            _FarmSupervisor(
                image, jobs, timeout, pending, record, fail, telemetry
            ).run()

    _validate_effects(image.name, slots, ends)
    if tracer is not None:
        for span, component in zip(window_spans, plan):
            tracer.end_span(span, completed=done[component])
    effects: dict[Component, list[FaultEffect | None]] = {
        component: [] for component in plan
    }
    for (component, _index, _fault), end in zip(slots, ends):
        effects[component].append(
            None if isinstance(end, QuarantineRecord) else end
        )
    return effects


def _run_serial(
    image: MachineImage,
    pending: deque[_Attempt],
    record: Callable[[int, InjectionResult, float], None],
    fail: Callable[[_Attempt, str], None],
    injector: ImageInjector | None = None,
) -> None:
    """In-process execution under the same failure policy as the farm.

    A crash here takes the campaign down with it (there is no worker to
    die in our place), but an in-simulator exception renews the machine
    and fails the attempt - retry, then quarantine - and the journal sees
    every completion, so even a serial campaign resumes after SIGKILL.

    A caller-provided ``injector`` is reused across calls (a serial
    campaign's windows, the fabric worker's lease loop); after an
    in-simulator exception it is renewed in place
    (:meth:`ImageInjector.renew`), so the fresh machine serves the
    caller's later windows too.  An injector built here is closed here;
    a caller-provided one stays the caller's to close.
    """
    owned = injector is None
    if owned:
        injector = ImageInjector(image)
    try:
        while pending:
            attempt = pending.popleft()
            start = time.perf_counter()
            try:
                result = injector.run_fault_ex(attempt.fault)
            except Exception as exc:  # noqa: BLE001 - bounded retry, then report
                injector.renew()  # state may be poisoned
                fail(attempt, _raised(exc))
            else:
                record(attempt.slot, result, time.perf_counter() - start)
    finally:
        if owned:
            injector.close()
