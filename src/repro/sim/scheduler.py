"""Core-sharing schedulers: hyper-threaded (SMT) and time-sliced.

The paper evaluates both co-residency modes (Section III):

* **Hyper-threaded** — sender and receiver run in parallel as SMT
  siblings; their memory accesses interleave at fine (cycle) granularity.
  We model SMT by letting each thread progress on its own cycle clock
  and executing operations in global-time order, with a small random
  arbitration jitter so interleavings vary run to run.

* **Time-sliced** — the OS alternates the two threads on one core with a
  scheduling quantum.  Only accesses in different slices interleave, so
  only the receiver's first iteration after a context switch observes
  the sender — the effect behind the paper's ~2 bps time-sliced rate
  (Section V-B).

Both schedulers do their per-op work in place whenever nothing could
observe the individual calls (see :meth:`_SchedulerBase._inlinable`).
The hyper-threaded loop is then an *op kernel*: it executes every
operation itself, with the fast engine's L1 hit path inlined.  The
time-sliced scheduler runs :class:`~repro.sim.thread.LoopProgram`
threads (the constant sender and the background noise, which issue
almost every op of a time-sliced run) through a *slice kernel*: a tight
loop over the program's prebuilt ops with the same hit path.  Each
produces exactly the state, times, counters and draws the general
per-op route through ``_execute`` produces; see
:meth:`HyperThreadedScheduler.run` and :meth:`TimeSlicedScheduler.run`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cache.hierarchy import CacheHierarchy
from repro.common.errors import SimulationError
from repro.common.rng import RngLike, make_rng
from repro.common.types import AccessType, MemoryAccess
from repro.obs.instruments import for_scheduler
from repro.obs.session import active as obs_active
from repro.sim.ops import Access, Compute, ReadTSC, READ_TSC_COST, SleepUntil
from repro.sim.thread import Choose, LoopProgram, SimThread


class _SchedulerBase:
    """Shared operation-execution machinery.

    Args:
        hierarchy: The memory system every thread's accesses run against.
        rng: Arbitration/slicing noise stream.
        faults: Optional fault injector (see :mod:`repro.faults`); when
            active, simulated-time progress is reported to it before
            each operation so Poisson-arriving disturbances land between
            the threads' own accesses, and every ``ReadTSC`` result is
            routed through its timestamp perturbations.
    """

    def __init__(self, hierarchy: CacheHierarchy, rng: RngLike = None, faults=None):
        self.hierarchy = hierarchy
        self.rng = make_rng(rng)
        self.faults = faults
        self._obs = for_scheduler(obs_active())

    def _fault_wake_stall(self, thread: SimThread, now: float) -> float:
        """Fire pending fault events; return the wake-up stall for ``thread``.

        Disturbance accesses land as simulated time advances, whichever
        thread is driving the clock.  The *handler cycles* those events
        consume are charged only to a thread waking from a sleep that
        covered the event: interrupts wake a halted logical CPU, so the
        sampling loop's sleeps absorb the handler time, while a sibling
        that never sleeps (the sender's tight encode loop) keeps its
        pace and only sees the cache pollution.

        Callers skip this entirely while no fault model is attached.
        """
        faults = self.faults
        faults.on_time_advance(now)
        slept_from = thread._slept_from
        if slept_from is None:
            return 0.0
        thread._slept_from = None
        stall = faults.stall_in_window(slept_from, now)
        if stall and self._obs is not None:
            self._obs.fault_stall_cycles.inc(int(stall))
        return stall

    def _fault_models(self) -> Sequence:
        """The live list of attached fault models (empty without faults)."""
        return self.faults.models if self.faults is not None else ()

    def _inlinable(self) -> bool:
        """Whether a run may do its per-op work in place.

        Eligibility is derived from what is attached, never configured:
        an in-place op skips ``_execute``, ``hierarchy.access`` (on an
        L1 hit) and the prefetcher, so none of them may be live or
        wrapped on the instance (the sanitizer and
        :class:`~repro.sim.tracing.AccessTracer` install wrappers), and
        the reference engine, the oracle, always takes the general route.
        """
        hierarchy = self.hierarchy
        return (
            hierarchy.prefetcher is None
            and hierarchy.engine in ("fast", "batch")
            and getattr(self._execute, "__func__", None)
            is _SchedulerBase._execute
            and getattr(hierarchy.access, "__func__", None)
            is CacheHierarchy.access
        )

    def _plain_l1(self):
        """The L1 if its hits can be done in place, else None.

        Only the fast engine's plain cache (no way predictor, no keyed
        index, no lock or hit-state hooks) has the inlinable hit path:
        one tag-map probe, one ``policy.touch`` when hits update the
        policy, and one reference count.
        """
        l1 = self.hierarchy.l1
        if getattr(l1, "_plain_hit_path", False) and l1.way_predictor is None:
            return l1
        return None

    def _execute(self, thread: SimThread, op, now: float) -> float:
        """Run one operation at time ``now``; return its cycle cost.

        The calling loop counts the op in ``sched.ops``.
        """
        kind = type(op)
        if kind not in _OP_KINDS:
            kind = _op_kind(op)
        # Most frequent first: the channel loops are access-dominated.
        if kind is Access:
            outcome = self.hierarchy.access(
                MemoryAccess(
                    op.address,
                    op.access_type,
                    thread.thread_id,
                    thread.address_space,
                    op.locked,
                    op.unlock,
                    op.speculative,
                ),
                count=op.count,
            )
            thread.pending_result = outcome
            return outcome.latency
        if kind is ReadTSC:
            faults = self.faults
            if faults is not None and faults._tsc_models:
                now = faults.perturb_tsc(now)
            thread.pending_result = now
            return READ_TSC_COST
        if kind is Compute:
            thread.pending_result = None
            return op.cycles
        # SleepUntil
        thread.pending_result = None
        faults = self.faults
        if faults is not None and faults.models:
            thread._slept_from = now
        return max(0.0, op.cycle - now)


#: The operation types :meth:`_SchedulerBase._execute` dispatches on.
_OP_KINDS = frozenset({Access, ReadTSC, Compute, SleepUntil})


def _op_kind(op) -> type:
    """The operation type a subclass instance dispatches as."""
    for kind in (ReadTSC, Access, Compute, SleepUntil):
        if isinstance(op, kind):
            return kind
    raise SimulationError(f"unknown operation {op!r}")


class HyperThreadedScheduler(_SchedulerBase):
    """SMT co-residency: threads interleave at access granularity.

    Threads advance on per-thread clocks; at every step the thread with
    the earliest clock issues its next operation against the shared
    hierarchy.  A uniform arbitration jitter (0..``jitter`` cycles) is
    added to each operation's completion, modeling SMT issue competition
    and making interleavings stochastic, as on real SMT cores.

    RNG draw order (part of the determinism contract): every step draws
    one ``random()`` per alive thread, in thread-list order, as that
    thread's tie-break against equal ``ready_at``; the earliest
    ``(ready_at, draw)`` issues, the first one winning an exact tie.
    Each executed operation then draws one more ``random()`` for its
    jitter.
    """

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        threads: Sequence[SimThread],
        rng: RngLike = None,
        jitter: float = 2.0,
        faults=None,
    ):
        super().__init__(hierarchy, rng, faults=faults)
        if not threads:
            raise SimulationError("need at least one thread")
        self.threads: List[SimThread] = list(threads)
        self.jitter = jitter

    def run(self, until_cycle: Optional[float] = None) -> float:
        """Run until every thread finishes or the deadline passes.

        Returns the cycle time of the last completed operation.

        When :meth:`_inlinable` holds, the loop is an *op kernel*: it
        executes ``Access``, ``Compute``, ``ReadTSC`` and ``SleepUntil``
        ops itself, exactly as ``_execute`` would.  On a plain
        fast-engine L1 (:meth:`_plain_l1`) a counted, non-flush,
        non-speculative access probes its set's tag map; a hit touches
        the policy, counts the reference, costs the L1 hit latency and
        delivers the hierarchy's shared L1-hit outcome.  Every other
        access goes through ``hierarchy.access``.  Otherwise, and for
        op subclasses, every op goes through ``_execute``.

        Under an observing session, L1 hits done in place reach the
        hierarchy's metrics as runs of hits before the next counted
        access (fault disturbances are uncounted and observe no
        latency), so the latency histogram takes its float additions in
        the general route's order.
        """
        threads = self.threads
        for thread in threads:
            if not thread.alive:
                thread.start()
        # This loop runs once per simulated operation: everything it
        # touches per step is a local.  ``_execute`` is looked up on the
        # instance so per-instance wrappers (the sanitizer) see every op.
        rand = self.rng.random
        jitter = self.jitter
        execute = self._execute
        faults = self.faults
        models = self._fault_models()
        tsc_models = faults._tsc_models if faults is not None else ()
        # Op types the loop executes in place; the rest take _execute.
        kernel_kinds = _OP_KINDS if self._inlinable() else ()
        hierarchy = self.hierarchy
        access = hierarchy.access
        l1 = self._plain_l1()
        if l1 is not None:
            sets = l1.sets
            offset_bits = l1._offset_bits
            index_mask = l1._index_mask
            tag_shift = l1._tag_shift
            update_on_hit = l1._update_on_hit
            references = l1._references
        hit_latency = hierarchy.config.l1.hit_latency
        hit_outcome = hierarchy._l1_hit
        obs = hierarchy._obs
        record_hits = None if obs is None else obs.record_l1_hits
        flush_type = AccessType.FLUSH
        issued = 0
        hits = 0
        recorded = 0
        last_time = 0.0
        while True:
            thread = None
            for candidate in threads:
                if candidate.alive:
                    ready = candidate.ready_at
                    draw = rand()
                    if thread is None or ready < now or (
                        ready == now and draw < best_draw
                    ):
                        thread, now, best_draw = candidate, ready, draw
            if thread is None:
                break
            if until_cycle is not None and now >= until_cycle:
                break
            # A skipped wake-stall step is one in which no model could
            # fire and no sleep ends: it would add 0.0.
            if models and (
                now >= faults._next_due or thread._slept_from is not None
            ):
                now += self._fault_wake_stall(thread, now)
                thread.ready_at = now
            try:
                op = thread._program.send(thread.pending_result)
            except StopIteration:
                thread.alive = False
                continue
            kind = type(op)
            if kind not in kernel_kinds:
                thread.pending_result = None
                if op is None:
                    continue
                if record_hits is not None and hits != recorded:
                    record_hits(hit_latency, hits - recorded)
                    recorded = hits
                cost = execute(thread, op, now)
            elif kind is Access:
                way = None
                if (
                    l1 is not None
                    and op.count
                    and not op.speculative
                    and op.access_type is not flush_type
                ):
                    address = op.address
                    cache_set = sets[(address >> offset_bits) & index_mask]
                    way = cache_set._tag_map.get(address >> tag_shift)
                if way is not None:
                    if update_on_hit:
                        cache_set.policy.touch(way)
                    references[thread.thread_id] += 1
                    hits += 1
                    thread.pending_result = hit_outcome
                    cost = hit_latency
                else:
                    if record_hits is not None and hits != recorded:
                        record_hits(hit_latency, hits - recorded)
                        recorded = hits
                    outcome = access(
                        MemoryAccess(
                            op.address,
                            op.access_type,
                            thread.thread_id,
                            thread.address_space,
                            op.locked,
                            op.unlock,
                            op.speculative,
                        ),
                        count=op.count,
                    )
                    thread.pending_result = outcome
                    cost = outcome.latency
            elif kind is Compute:
                thread.pending_result = None
                cost = op.cycles
            elif kind is ReadTSC:
                thread.pending_result = (
                    faults.perturb_tsc(now) if tsc_models else now
                )
                cost = READ_TSC_COST
            else:  # SleepUntil
                thread.pending_result = None
                if models:
                    thread._slept_from = now
                cost = max(0.0, op.cycle - now)
            issued += 1
            # ``jitter * rand()`` is ``uniform(0.0, jitter)`` bit for bit.
            now += cost + jitter * rand()
            thread.ready_at = now
            if now > last_time:
                last_time = now
        if record_hits is not None and hits != recorded:
            record_hits(hit_latency, hits - recorded)
        if self._obs is not None:
            self._obs.ops.inc(issued)
        return last_time


#: Slice-kernel step kinds (see :meth:`TimeSlicedScheduler._compile_loop`).
_COMPUTE, _L1_PROBE, _ACCESS, _CHOOSE = range(4)


class TimeSlicedScheduler(_SchedulerBase):
    """OS time-sharing of one core between two (or more) threads.

    Args:
        hierarchy: Shared memory system.
        threads: Threads to alternate, in round-robin order.
        quantum: Scheduling quantum in cycles (Linux CFS on a ~4 GHz
            core gives quanta on the order of 10⁶-10⁷ cycles).
        switch_cost: Direct cost of a context switch in cycles.
        quantum_jitter_frac: Each slice's length is perturbed by up to
            ±this fraction, modeling scheduler noise; the paper's traces
            show uneven slicing ("threads do not get scheduled evenly").
    """

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        threads: Sequence[SimThread],
        quantum: float = 4.0e6,
        switch_cost: float = 2_000.0,
        quantum_jitter_frac: float = 0.2,
        rng: RngLike = None,
        faults=None,
    ):
        super().__init__(hierarchy, rng, faults=faults)
        if quantum <= 0:
            raise SimulationError(f"quantum must be > 0, got {quantum}")
        self.threads: List[SimThread] = list(threads)
        self.quantum = quantum
        self.switch_cost = switch_cost
        self.quantum_jitter_frac = quantum_jitter_frac

    def _slice_length(self) -> float:
        frac = self.quantum_jitter_frac
        return self.quantum * (1.0 + self.rng.uniform(-frac, frac))

    def run(self, until_cycle: float) -> float:
        """Alternate threads in slices until the deadline.

        A finished thread simply stops taking slices; the run continues
        until ``until_cycle`` or until every thread has finished.

        A :class:`~repro.sim.thread.LoopProgram` thread spends its
        slices in the slice kernel (:meth:`_run_loop`) whenever nothing
        could observe individual ops: no fault model attached and
        :meth:`_inlinable` holds.  Every other thread, and every thread
        on the reference engine, runs the general per-op loop.
        """
        threads = self.threads
        for thread in threads:
            if not thread.alive:
                thread.start()
        # As in HyperThreadedScheduler.run: the per-op loop touches only
        # locals, and ``_execute`` is looked up on the instance so
        # per-instance wrappers (the sanitizer) see every op.
        execute = self._execute
        slice_length = self._slice_length
        obs = self._obs
        switch_cost = self.switch_cost
        models = self._fault_models()
        kernel_steps = self._kernel_steps()
        count = len(threads)
        now = 0.0
        index = 0
        issued = 0
        while now < until_cycle and any(t.alive for t in threads):
            thread = threads[index % count]
            index += 1
            if not thread.alive:
                continue
            if obs is not None:
                obs.slices.inc()
            slice_end = min(now + slice_length(), until_cycle)
            # The thread resumes where it left off, but never in the past.
            ready = thread.ready_at
            if ready < now:
                ready = thread.ready_at = now
            steps = kernel_steps.get(thread)
            if steps is not None:
                ready = self._run_loop(thread, steps, ready, slice_end)
                thread.ready_at = ready
                now = slice_end + switch_cost
                continue
            send = thread._program.send
            while ready < slice_end:
                if models:
                    ready += self._fault_wake_stall(thread, ready)
                    thread.ready_at = ready
                try:
                    op = send(thread.pending_result)
                except StopIteration:
                    thread.alive = False
                    break
                thread.pending_result = None
                if op is None:
                    break
                issued += 1
                ready += execute(thread, op, ready)
                thread.ready_at = ready
            # The core moves on at the end of the slice; a thread whose
            # last operation overran (or that is sleeping far ahead)
            # keeps its own ready_at and simply does nothing next slice.
            now = slice_end + switch_cost
        if obs is not None:
            obs.ops.inc(issued)
        return now

    # ------------------------------------------------------------------
    # The slice kernel
    # ------------------------------------------------------------------

    def _kernel_steps(self) -> Dict[SimThread, tuple]:
        """Compiled steps of every thread that runs in the kernel this run.

        The kernel skips the fault hooks as well as what
        :meth:`_inlinable` rules out, so an attached fault model keeps
        every thread on the general loop.
        """
        if self._fault_models() or not self._inlinable():
            return {}
        kernel_steps = {}
        for thread in self.threads:
            program = thread.program_factory
            if type(program) is LoopProgram:
                steps = self._compile_loop(program)
                if steps is not None:
                    kernel_steps[thread] = steps
        return kernel_steps

    def _compile_loop(self, program: LoopProgram):
        """Lower a loop program to kernel steps, or None if it can't run.

        Steps are tuples tagged by kind:

        * ``(_COMPUTE, cycles)``;
        * ``(_L1_PROBE, tag_map.get, tag, touch, op)`` — a counted
          access whose L1 hit the kernel performs inline, exactly as the
          fast engine's ``lookup`` does (``touch`` is the set policy's
          bound ``touch``, None when hits do not update it); a miss
          goes through the hierarchy;
        * ``(_ACCESS, op)`` — an access that always goes through
          ``hierarchy.access`` (another L1, a way predictor, a flush, a
          speculative load or an uncounted access);
        * ``(_CHOOSE, choice, steps)`` — one of ``steps``, drawn by the
          program's own ``choice``.
        """
        l1 = self._plain_l1()

        def lower(op):
            kind = type(op)
            if kind is Compute:
                return (_COMPUTE, op.cycles)
            if kind is not Access:
                # ReadTSC and SleepUntil results or costs depend on the
                # clock; they stay on the general loop.
                return None
            if (
                l1 is not None
                and op.count
                and op.access_type is not AccessType.FLUSH
                and not op.speculative
            ):
                address = op.address
                index = (address >> l1._offset_bits) & l1._index_mask
                cache_set = l1.sets[index]
                return (
                    _L1_PROBE,
                    cache_set._tag_map.get,
                    address >> l1._tag_shift,
                    cache_set.policy.touch if l1._update_on_hit else None,
                    op,
                )
            return (_ACCESS, op)

        steps = []
        for op in program.ops:
            if type(op) is Choose:
                options = tuple(lower(option) for option in op.options)
                step = None
                if None not in options:
                    step = (_CHOOSE, op.choice, options)
            else:
                step = lower(op)
            if step is None:
                return None
            steps.append(step)
        return tuple(steps)

    def _run_loop(
        self, thread: SimThread, steps: tuple, ready: float, slice_end: float
    ) -> float:
        """Run one slice of a loop program; return the thread's new time.

        Issues exactly the ops, in exactly the order, that the general
        loop would, and adds their costs to ``ready`` in the same order,
        so times are bit-identical.  L1 hits are done inline and only
        counted; the counts go to the L1's reference counter at the end
        of the slice (plain ints, so the order of additions cannot
        show), and to an observing session's hit metrics before the next
        miss and at the end, so its latency histogram takes its float
        additions in the general loop's order.
        """
        hierarchy = self.hierarchy
        access = hierarchy.access
        hit_latency = hierarchy.config.l1.hit_latency
        obs = hierarchy._obs
        record_hits = None if obs is None else obs.record_l1_hits
        tid = thread.thread_id
        space = thread.address_space
        program = thread.program_factory
        last = len(steps) - 1
        position = program.position
        issued = 0
        hits = 0
        recorded = 0
        while ready < slice_end:
            step = steps[position]
            position = 0 if position == last else position + 1
            issued += 1
            kind = step[0]
            if kind == _CHOOSE:
                step = step[1](step[2])
                kind = step[0]
            if kind == _COMPUTE:
                ready += step[1]
                continue
            if kind == _L1_PROBE:
                way = step[1](step[2])
                if way is not None:
                    touch = step[3]
                    if touch is not None:
                        touch(way)
                    hits += 1
                    ready += hit_latency
                    continue
            if record_hits is not None and hits != recorded:
                record_hits(hit_latency, hits - recorded)
                recorded = hits
            op = step[-1]
            ready += access(
                MemoryAccess(
                    op.address,
                    op.access_type,
                    tid,
                    space,
                    op.locked,
                    op.unlock,
                    op.speculative,
                ),
                count=op.count,
            ).latency
        program.position = position
        if hits:
            hierarchy.l1.counters.references[tid] += hits
            if record_hits is not None and hits != recorded:
                record_hits(hit_latency, hits - recorded)
        if self._obs is not None:
            self._obs.ops.inc(issued)
        return ready
