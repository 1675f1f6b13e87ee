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
operation itself, with the fast engine's L1 hit path (the AMD utag
check included) inlined and its L1 misses finished by the fast
engine's one miss routine (:func:`repro.sim.fastpath.demand_paths`);
a sender's :class:`~repro.sim.ops.HoldLoop` that reaches a cache fixed
point only moves the clock there.  The time-sliced scheduler runs :class:`~repro.sim.thread.LoopProgram`
threads (the constant sender and the background noise, which issue
almost every op of a time-sliced run) through a *slice kernel*: a tight
loop over the program's prebuilt ops with the same hit and miss paths.
Each produces exactly the state, times, counters and draws the general
per-op route through ``_execute`` produces; see
:meth:`HyperThreadedScheduler.run` and :meth:`TimeSlicedScheduler.run`.
"""

from __future__ import annotations

import math
from itertools import cycle, islice
from typing import Dict, List, Optional, Sequence

from repro.cache.hierarchy import CacheHierarchy
from repro.common.errors import SimulationError
from repro.common.rng import RngLike, make_rng
from repro.common.types import AccessType, MemoryAccess
from repro.obs.instruments import for_scheduler
from repro.obs.session import active as obs_active
from repro.replacement.tables import TabledPolicy
from repro.sim.ops import (
    Access,
    Compute,
    HoldLoop,
    ReadTSC,
    READ_TSC_COST,
    SleepUntil,
)
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
        an in-place op skips ``_execute``, ``hierarchy.access`` and the
        prefetcher, so none of them may be live or
        wrapped on the instance (the sanitizer and
        :class:`~repro.sim.tracing.AccessTracer` install wrappers), and
        the reference engine, the oracle, always takes the general route.
        """
        hierarchy = self.hierarchy
        return (
            hierarchy.prefetcher is None
            and hierarchy.engine == "fast"
            and getattr(self._execute, "__func__", None)
            is _SchedulerBase._execute
            and getattr(hierarchy.access, "__func__", None)
            is CacheHierarchy.access
        )

    def _plain_l1(self):
        """The L1 if its accesses can be finished in place, else None.

        That holds when the hierarchy has the fast engine's in-place
        miss routine (``hierarchy._l1_miss``, see
        :func:`repro.sim.fastpath.demand_paths`): every level is a plain
        fast cache, with no keyed index and no lock or hit-state hooks.
        The L1 may have a way predictor.  A hit is then one tag-map
        probe, the utag check when the L1 has a predictor, one
        ``policy.touch`` when hits update the policy and one reference
        count; a miss is one ``_l1_miss`` call.
        """
        hierarchy = self.hierarchy
        if getattr(hierarchy, "_l1_miss", None) is None:
            return None
        return hierarchy.l1

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
    jitter.  A fast-forward (see :meth:`run`) takes a step's tie-break
    draws as one ``getrandbits(64 * alive)``: the same words.
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
        ops itself, exactly as ``_execute`` would.  On an L1 that
        :meth:`_plain_l1` accepts, a counted load or store that is not
        speculative, locking or unlocking runs in place:
        - it probes its set's tag map and, with a way predictor,
          computes ``utag(space, address)`` once;
        - a hit touches the policy and counts the reference.  It then
          checks the utag exactly as ``_check_way_predictor`` does:
          adopt a missing one, retrain a mismatched one and set the
          line's ``owner_space``.  A matching or adopted utag costs the
          L1 hit latency and delivers the hierarchy's shared L1-hit
          outcome; a mismatch delivers its shared ``_utag_miss``;
        - a miss goes to ``hierarchy._l1_miss`` with the set already
          resolved, the fast engine's one miss routine.
        Every other access goes through ``hierarchy.access``.
        Otherwise, and for op subclasses, every op goes through
        ``_execute``.

        A :class:`~repro.sim.ops.HoldLoop` runs in the kernel from ops
        lowered once (see :meth:`_lower_ops`), one op per step, without
        resuming the program.  It is at a *fixed point* once, since
        anything else last acted (another thread's op or a fault step),
        each access of its cycle has been issued as an in-place L1 hit
        with a matching utag whose policy touch left the set's
        ``TabledPolicy`` state as it was; ops that touch no cache always
        leave it so.  Repeating the cycle then changes nothing but the
        clock and the counters, and the kernel *fast-forwards* it: while
        the thread's time is below every other alive thread's, the fault
        injector's next due time and ``until_cycle``, the thread wins
        every pick and no fault can act, so each op only skips the
        pick's tie-break draws (``getrandbits(64 * alive)`` consumes the
        words that many ``random()`` calls do), draws its jitter, adds
        its cost and is counted with its hit and reference.  A hold never
        fast-forwards under a TSC fault model (readings draw) or with an
        access that is not in place or touches an untabled policy.  Off
        the kernel, and for a hold the kernel cannot lower,
        :meth:`SimThread.expand_hold` issues the hold op by op through
        the per-op path.

        Under an observing session, L1 hits done in place reach the
        hierarchy's metrics as runs of hits, reported before the next
        miss, mispredict or other counted access (fault disturbances
        are uncounted and observe no latency), so the latency histogram
        takes its float additions in the general route's order.
        """
        threads = self.threads
        for thread in threads:
            if not thread.alive:
                thread.start()
        self._expand_holds()
        # This loop runs once per simulated operation: everything it
        # touches per step is a local.  ``_execute`` is looked up on the
        # instance so per-instance wrappers (the sanitizer) see every op.
        rand = self.rng.random
        skip_draws = self.rng.getrandbits
        jitter = self.jitter
        execute = self._execute
        faults = self.faults
        models = self._fault_models()
        tsc_models = faults._tsc_models if faults is not None else ()
        inlinable = self._inlinable()
        probe = _PROBE
        hold_kind = HoldLoop
        hierarchy = self.hierarchy
        access = hierarchy.access
        l1 = self._plain_l1() if inlinable else None
        if l1 is not None:
            sets = l1.sets
            offset_bits = l1._offset_bits
            index_mask = l1._index_mask
            tag_shift = l1._tag_shift
            update_on_hit = l1._update_on_hit
            references = l1._references
            predictor = l1.way_predictor
            utag_of = None if predictor is None else predictor.utag
            l1_miss = hierarchy._l1_miss
        hit_latency = hierarchy.config.l1.hit_latency
        hit_outcome = hierarchy._l1_hit
        utag_miss = hierarchy._utag_miss
        obs = hierarchy._obs
        record_hits = None if obs is None else obs.record_l1_hits
        flush_type = AccessType.FLUSH
        lowered: Dict[tuple, _Lowering] = {}
        horizon = math.inf if until_cycle is None else until_cycle
        issued = 0
        hits = 0
        recorded = 0
        last_time = 0.0
        # The thread whose op ran last; None once a fault step ran since.
        actor = None
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
                actor = None
            hold = thread._hold
            if hold is None:
                clean = False
                try:
                    op = thread._program.send(thread.pending_result)
                except StopIteration:
                    thread.alive = False
                    continue
                kind = type(op)
                if kind is Access:
                    if (
                        l1 is not None
                        and op.count
                        and not op.speculative
                        and not op.locked
                        and not op.unlock
                        and op.access_type is not flush_type
                    ):
                        address = op.address
                        cache_set = sets[(address >> offset_bits) & index_mask]
                        tag = address >> tag_shift
                        utag = (
                            None
                            if utag_of is None
                            else utag_of(thread.address_space, address)
                        )
                        kind = probe
                elif kind is hold_kind:
                    if inlinable:
                        hold = self._lower_hold(op, thread, lowered)
                    if hold is None:
                        thread.expand_hold(op)
                        op = next(thread._program)
                        kind = type(op)
                    else:
                        thread._hold = hold
                if not inlinable:
                    # Off the kernel every op takes _execute.
                    kind = None
            if hold is not None:
                position = hold.position
                (
                    kind, op, cache_set, tag, utag, need, following, clean
                ) = hold.steps[position]
                if actor is not thread:
                    hold.run = 0
                if hold.run >= need:
                    # A fixed point.  This step's pick and fault gate
                    # already ran; the thread keeps winning the pick,
                    # and no fault can act, while its time stays below
                    # ``limit``.
                    limit = horizon
                    if models and faults._next_due < limit:
                        limit = faults._next_due
                    alive = 1
                    for other in hold.others:
                        if other.alive:
                            alive += 1
                            if other.ready_at < limit:
                                limit = other.ready_at
                    # Fast-forward unless the stretch ends with this op.
                    if now + hold.fast[position][0] < limit:
                        bits = 64 * alive
                        deadline = hold.deadline
                        count = 0
                        for cost, reads in islice(
                            cycle(hold.fast), position, None
                        ):
                            count += 1
                            if reads and now >= deadline:
                                thread.pending_result = now
                                thread._hold = None
                                now += cost + jitter * rand()
                                break
                            now += cost + jitter * rand()
                            if now >= limit:
                                break
                            skip_draws(bits)
                        issued += count
                        size = len(hold.fast)
                        hold.position = (position + count) % size
                        hits_before = hold.hits_before
                        n_hits = (
                            count // size * hits_before[size]
                            + hits_before[position + count % size]
                            - hits_before[position]
                        )
                        if n_hits:
                            hits += n_hits
                            references[thread.thread_id] += n_hits
                        thread.ready_at = now
                        actor = thread
                        if now > last_time:
                            last_time = now
                        continue
                hold.position = following
            if kind is probe:
                way = cache_set._tag_map.get(tag)
                if way is None:
                    clean = False
                    if record_hits is not None and hits != recorded:
                        record_hits(hit_latency, hits - recorded)
                        recorded = hits
                    outcome = l1_miss(
                        cache_set,
                        op.address,
                        op.access_type,
                        thread.thread_id,
                        thread.address_space,
                        utag,
                        True,
                    )
                    thread.pending_result = outcome
                    cost = outcome.latency
                else:
                    if update_on_hit:
                        policy = cache_set.policy
                        if clean:
                            state = policy._state
                            policy.touch(way)
                            clean = policy._state == state
                        else:
                            policy.touch(way)
                    references[thread.thread_id] += 1
                    # _check_way_predictor: adopt a missing utag and
                    # retrain a mismatched one; only a mismatch is
                    # observed (without a predictor both are None).
                    stored = utag
                    if utag is not None:
                        line = cache_set.lines[way]
                        stored = line.utag
                        if stored != utag:
                            clean = False
                            line.utag = utag
                            line.owner_space = thread.address_space
                    if stored is None or stored == utag:
                        hits += 1
                        thread.pending_result = hit_outcome
                        cost = hit_latency
                    else:
                        if record_hits is not None:
                            if hits != recorded:
                                record_hits(hit_latency, hits - recorded)
                                recorded = hits
                            obs.record_l1_hit(utag_miss.latency, True)
                        thread.pending_result = utag_miss
                        cost = utag_miss.latency
            elif kind is Compute:
                thread.pending_result = None
                cost = op.cycles
            elif kind is ReadTSC:
                reading = faults.perturb_tsc(now) if tsc_models else now
                thread.pending_result = reading
                if hold is not None and reading >= hold.deadline:
                    thread._hold = None
                cost = READ_TSC_COST
            elif kind is Access:
                clean = False
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
            elif kind is SleepUntil:
                thread.pending_result = None
                if models:
                    thread._slept_from = now
                cost = max(0.0, op.cycle - now)
            else:
                thread.pending_result = None
                if op is None:
                    continue
                if record_hits is not None and hits != recorded:
                    record_hits(hit_latency, hits - recorded)
                    recorded = hits
                cost = execute(thread, op, now)
            if hold is not None:
                hold.run = hold.run + 1 if clean else 0
            issued += 1
            # ``jitter * rand()`` is ``uniform(0.0, jitter)`` bit for bit.
            now += cost + jitter * rand()
            thread.ready_at = now
            actor = thread
            if now > last_time:
                last_time = now
        self._expand_holds()
        if record_hits is not None and hits != recorded:
            record_hits(hit_latency, hits - recorded)
        if self._obs is not None:
            self._obs.ops.inc(issued)
        return last_time

    def _expand_holds(self) -> None:
        """Hand holds the kernel left unfinished back to their programs.

        A hold cut off by ``until_cycle`` (or by an exception) goes on
        op by op through :meth:`SimThread.expand_hold`, whichever route
        the next run takes.
        """
        for thread in self.threads:
            hold = thread._hold
            if hold is not None:
                thread._hold = None
                thread.expand_hold(hold.source, hold.position)

    def _lower_hold(self, hold: HoldLoop, thread: SimThread, lowered: dict):
        """``hold`` as kernel state for ``thread``, or None if it can't run.

        A hold's ops are lowered once per run and address space (see
        :meth:`_lower_ops`) and kept in ``lowered``.  An op subclass
        keeps the whole hold on :meth:`SimThread.expand_hold`.
        """
        key = (hold.ops, thread.address_space)
        lowering = lowered.get(key)
        if lowering is None:
            lowering = lowered[key] = self._lower_ops(
                hold.ops, thread.address_space
            )
        if lowering.steps is None:
            return None
        others = tuple(other for other in self.threads if other is not thread)
        return _Hold(hold, lowering, others)

    def _lower_ops(self, ops: tuple, space: int) -> "_Lowering":
        """Lower a hold's ops for a thread in address space ``space``.

        Each op becomes a step ``(kind, op, cache_set, tag, utag, need,
        following, trackable)``:
        - ``kind`` is ``_PROBE`` for an access the kernel does in place,
          with its set, tag and utag resolved as the kernel resolves
          them, and the op's type otherwise;
        - ``need`` is how many ops issued just before this one, with
          nothing else acting between them, must have left the cache as
          it was for the cycle to be a fixed point here: enough to cover
          every ``_PROBE`` of the cycle (0 without one);
        - ``following`` is the next op's index;
        - ``trackable`` is where each op's cleanliness check starts.
        The hold can fast-forward (it is *trackable*) only when every
        access is a ``_PROBE`` into a set whose policy is a
        ``TabledPolicy`` or is not touched on hits, and no TSC fault
        model is attached; otherwise every ``need`` is infinite.
        """
        l1 = self._plain_l1()
        faults = self.faults
        trackable = faults is None or not faults._tsc_models
        resolved = []
        fast = []
        for op in ops:
            kind = type(op)
            if kind not in (Access, Compute, ReadTSC):
                return _Lowering(None, None)
            step = (kind, op, None, None, None)
            if kind is Compute:
                cost = op.cycles
            elif kind is ReadTSC:
                cost = READ_TSC_COST
            elif (
                l1 is not None
                and op.count
                and op.access_type is not AccessType.FLUSH
                and not op.speculative
                and not op.locked
                and not op.unlock
            ):
                address = op.address
                index = (address >> l1._offset_bits) & l1._index_mask
                cache_set = l1.sets[index]
                predictor = l1.way_predictor
                utag = None
                if predictor is not None:
                    utag = predictor.utag(space, address)
                step = (_PROBE, op, cache_set, address >> l1._tag_shift, utag)
                cost = self.hierarchy.config.l1.hit_latency
                if l1._update_on_hit and not isinstance(
                    cache_set.policy, TabledPolicy
                ):
                    trackable = False
            else:
                # Through hierarchy.access: never part of a fixed point.
                cost = None
                trackable = False
            resolved.append(step)
            fast.append((cost, kind is ReadTSC))
        size = len(resolved)
        probes = [i for i, step in enumerate(resolved) if step[0] is _PROBE]
        steps = []
        for position, step in enumerate(resolved):
            need = math.inf
            if trackable:
                need = max(
                    ((position - i - 1) % size + 1 for i in probes), default=0
                )
            following = (position + 1) % size
            steps.append(step + (need, following, trackable))
        return _Lowering(tuple(steps), tuple(fast))


class _Lowering:
    """A hold's ops lowered for the op kernel (see ``_lower_ops``).

    ``steps`` is None when the kernel cannot run the hold.  ``fast``
    holds each op's ``(cost, reads_tsc)`` inside a fixed point, and
    ``hits_before[i]`` counts the L1 hits among the first ``i`` ops of
    the cycle repeated twice.
    """

    __slots__ = ("steps", "fast", "hits_before")

    def __init__(self, steps, fast):
        self.steps = steps
        self.fast = fast
        hits_before = [0]
        for step in (steps or ()) * 2:
            hits_before.append(hits_before[-1] + (step[0] is _PROBE))
        self.hits_before = tuple(hits_before)


class _Hold:
    """A :class:`~repro.sim.ops.HoldLoop` the op kernel is running.

    ``position`` is the next op's index and ``run`` the number of ops
    just issued in a row, with nothing else acting between them, that
    left the cache as it was (see :meth:`HyperThreadedScheduler.run`).
    """

    __slots__ = (
        "source",
        "others",
        "deadline",
        "steps",
        "fast",
        "hits_before",
        "position",
        "run",
    )

    def __init__(self, source: HoldLoop, lowering: _Lowering, others):
        self.source = source
        self.others = others
        self.deadline = source.deadline
        self.steps = lowering.steps
        self.fast = lowering.fast
        self.hits_before = lowering.hits_before
        self.position = 0
        self.run = 0

    def at_fixed_point(self) -> bool:
        """Whether the next op may fast-forward (the kernel inlines this)."""
        return self.run >= self.steps[self.position][5]


#: The kind of a kernel access done in place: an L1 probe.
_PROBE = object()


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
            while ready < slice_end:
                if models:
                    ready += self._fault_wake_stall(thread, ready)
                    thread.ready_at = ready
                try:
                    op = thread._program.send(thread.pending_result)
                except StopIteration:
                    thread.alive = False
                    break
                thread.pending_result = None
                if op is None:
                    break
                if type(op) is HoldLoop:
                    thread.expand_hold(op)
                    op = next(thread._program)
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
                steps = self._compile_loop(program, thread.address_space)
                if steps is not None:
                    kernel_steps[thread] = steps
        return kernel_steps

    def _compile_loop(self, program: LoopProgram, space: int):
        """Lower a loop program to kernel steps, or None if it can't run.

        ``space`` is the address space of the thread that runs it.
        Steps are tuples tagged by kind:

        * ``(_COMPUTE, cycles)``;
        * ``(_L1_PROBE, tag_map.get, tag, touch, cache_set, utag, op)``
          — a counted load or store on an L1 that :meth:`_plain_l1`
          accepts.  The kernel does its hit in place, exactly as the
          fast engine's demand path does (``touch`` is the set policy's
          bound ``touch``, None when hits do not update it; ``utag`` is
          the way predictor's ``utag(space, address)``, None without a
          predictor), and finishes a miss with ``hierarchy._l1_miss`` in
          ``cache_set``;
        * ``(_ACCESS, op)`` — an access that always goes through
          ``hierarchy.access`` (another L1, a flush, a speculative,
          locking, unlocking or uncounted access);
        * ``(_CHOOSE, draw, steps)`` — ``steps[draw()]``, where ``draw``
          reads the ``Choose`` element's own index stream.
        """
        l1 = self._plain_l1()
        if l1 is not None:
            predictor = l1.way_predictor
            utag_of = None if predictor is None else predictor.utag

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
                and not op.locked
                and not op.unlock
            ):
                address = op.address
                index = (address >> l1._offset_bits) & l1._index_mask
                cache_set = l1.sets[index]
                return (
                    _L1_PROBE,
                    cache_set._tag_map.get,
                    address >> l1._tag_shift,
                    cache_set.policy.touch if l1._update_on_hit else None,
                    cache_set,
                    None if utag_of is None else utag_of(space, address),
                    op,
                )
            return (_ACCESS, op)

        steps = []
        for op in program.ops:
            if type(op) is Choose:
                options = tuple(lower(option) for option in op.options)
                step = None
                if None not in options:
                    step = (_CHOOSE, op.draws.__next__, options)
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
        so times are bit-identical.  L1 hits (the utag check included)
        are done inline and only counted; the counts go to the L1's
        reference counter at the end of the slice (plain ints, so the
        order of additions cannot show), and to an observing session's
        hit metrics before the next miss or mispredict and at the end,
        so its latency histogram takes its float additions in the
        general loop's order.  L1 misses go to ``hierarchy._l1_miss``
        and every ``_ACCESS`` step to ``hierarchy.access``.
        """
        hierarchy = self.hierarchy
        access = hierarchy.access
        l1_miss = hierarchy._l1_miss
        hit_latency = hierarchy.config.l1.hit_latency
        utag_latency = hierarchy._utag_miss.latency
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
                step = step[2][step[1]()]
                kind = step[0]
            if kind == _COMPUTE:
                ready += step[1]
                continue
            if kind == _L1_PROBE:
                way = step[1](step[2])
                if way is None:
                    if record_hits is not None and hits != recorded:
                        record_hits(hit_latency, hits - recorded)
                        recorded = hits
                    op = step[6]
                    ready += l1_miss(
                        step[4],
                        op.address,
                        op.access_type,
                        tid,
                        space,
                        step[5],
                        True,
                    ).latency
                    continue
                touch = step[3]
                if touch is not None:
                    touch(way)
                # _check_way_predictor, as in HyperThreadedScheduler.run.
                utag = stored = step[5]
                if utag is not None:
                    line = step[4].lines[way]
                    stored = line.utag
                    if stored != utag:
                        line.utag = utag
                        line.owner_space = space
                if stored is None or stored == utag:
                    hits += 1
                    ready += hit_latency
                    continue
                hierarchy.l1.counters.references[tid] += 1
                if record_hits is not None:
                    if hits != recorded:
                        record_hits(hit_latency, hits - recorded)
                        recorded = hits
                    obs.record_l1_hit(utag_latency, True)
                ready += utag_latency
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
