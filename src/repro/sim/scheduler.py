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
A program repeats a fixed cycle of ops by yielding a
:class:`~repro.sim.ops.HoldLoop`: the hyper-threaded sender's bit hold,
the time-sliced constant sender and the background noise thread.  Both
kernels run a hold from one lowering (:meth:`_SchedulerBase._lower_ops`),
with the fast engine's L1 hit path (the AMD utag check included) inlined
and its L1 misses finished by the fast engine's one miss routine
(:func:`repro.sim.fastpath.demand_paths`):

* the hyper-threaded loop is an *op kernel* that executes every
  operation itself;
* the time-sliced scheduler runs a hold without a ``ReadTSC`` through
  a *slice kernel*, a tight loop over the lowered ops.  The constant
  sender's and the noise thread's holds issue almost every op of a
  time-sliced run.

Both touch a ``TabledPolicy`` on an L1 hit with one table lookup done
in place, and both *fast-forward* a hold that reaches a cache fixed
point: its next ops only move the clock and the counters, up to where
something else could act.  That is another thread, a fault or
``until_cycle`` in the op kernel, and the end of the slice in the slice
kernel, where only the hold's thread runs.

Each produces exactly the state, times, counters and draws the general
per-op route through ``_execute`` produces, and a hold's position is
thread state, so a hold begun on one route goes on from the same op on
the other; see :meth:`HyperThreadedScheduler.run` and
:meth:`TimeSlicedScheduler.run`.
"""

from __future__ import annotations

import math
from itertools import cycle, islice
from typing import List, Optional, Sequence

from repro.cache.hierarchy import CacheHierarchy
from repro.common.errors import SimulationError
from repro.common.rng import RngLike, make_rng
from repro.common.types import MemoryAccess
from repro.obs.instruments import for_scheduler
from repro.obs.session import active as obs_active
from repro.replacement.tables import TabledPolicy
from repro.sim.ops import (
    Access,
    Choose,
    Compute,
    HoldLoop,
    ReadTSC,
    READ_TSC_COST,
    SleepUntil,
)
from repro.sim.thread import SimThread


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
        probe, the utag check when the L1 has a predictor, a policy
        touch when hits update the policy (one table lookup done in
        place for a ``TabledPolicy``, else one ``policy.touch``) and one
        reference count; a miss is one ``_l1_miss`` call.
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
        if kind is SleepUntil:
            thread.pending_result = None
            faults = self.faults
            if faults is not None and faults.models:
                thread._slept_from = now
            return max(0.0, op.cycle - now)
        raise SimulationError(f"unknown operation {op!r}")

    def _lower_hold(self, hold: HoldLoop, space: int, lowered: dict):
        """``hold``'s ops lowered for a thread in address space ``space``.

        Lowered once per run and address space (see :meth:`_lower_ops`)
        and kept in ``lowered``; holds of one op cycle share it.
        """
        key = (hold.ops, space)
        lowering = lowered.get(key)
        if lowering is None:
            lowering = lowered[key] = self._lower_ops(hold.ops, space)
        return lowering

    def _lower_ops(self, ops: tuple, space: int) -> "_Lowering":
        """Lower a hold's ops for a thread in address space ``space``.

        This is the one lowering both kernels read.  Each op becomes a
        step ``(kind, op, cache_set, tag, utag, need, following,
        trackable)``; the slice kernel reads every field but
        ``following``:
        - an access is done in place (``kind`` is ``_PROBE``, with its
          set, tag and utag resolved) when it is ``plain`` (counted,
          not speculative, locking, unlocking or a flush) and the L1 is
          one :meth:`_plain_l1` accepts.  A ``Choose`` becomes
          ``(Choose, (next_index, options), None, None, None)``, where
          ``next_index`` reads its index stream and ``options`` are its
          options lowered alike.  Every other op keeps its type as its
          kind;
        - ``need`` is how many ops issued just before this one, with
          nothing else acting between them, must have left the cache as
          it was for the cycle to be a fixed point here: enough to cover
          every ``_PROBE`` of the cycle (0 without one);
        - ``following`` is the next op's index;
        - ``trackable`` is where the op kernel starts each op's
          cleanliness check, and whether the slice kernel looks for a
          fixed point at all.
        The hold can fast-forward (it is *trackable*) only when every
        access is a ``_PROBE`` into a set whose policy is a
        ``TabledPolicy`` or is not touched on hits, it holds no
        ``Choose`` and no TSC fault model is attached; otherwise every
        ``need`` is infinite.
        """
        l1 = self._plain_l1()

        def lower(op):
            if type(op) is Access and l1 is not None and op.plain:
                address = op.address
                index = (address >> l1._offset_bits) & l1._index_mask
                predictor = l1.way_predictor
                utag = None
                if predictor is not None:
                    utag = predictor.utag(space, address)
                return (
                    _PROBE, op, l1.sets[index], address >> l1._tag_shift, utag
                )
            return (type(op), op, None, None, None)

        faults = self.faults
        trackable = faults is None or not faults._tsc_models
        resolved = []
        fast = []
        for op in ops:
            if type(op) is Choose:
                options = tuple(map(lower, op.options))
                step = (Choose, (op.draws.__next__, options), None, None, None)
            else:
                step = lower(op)
            kind = step[0]
            if kind is Compute:
                cost = op.cycles
            elif kind is ReadTSC:
                cost = READ_TSC_COST
            elif kind is _PROBE:
                cost = self.hierarchy.config.l1.hit_latency
                if (
                    l1._update_on_hit
                    and type(step[2].policy) is not TabledPolicy
                ):
                    trackable = False
            else:
                # Through hierarchy.access, or a Choose: never part of a
                # fixed point.
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
    """A hold's ops lowered for both kernels (see ``_lower_ops``).

    ``fast`` holds each step's ``(cost, reads_tsc)`` inside a fixed
    point, and ``hits_before[i]`` counts the L1 hits among the first
    ``i`` ops of the cycle repeated twice.  ``reads_tsc`` is whether the
    hold can issue a ``ReadTSC``, whose reading depends on the clock;
    only a hold that cannot issue one runs in the slice kernel.
    """

    __slots__ = ("steps", "fast", "hits_before", "reads_tsc")

    def __init__(self, steps, fast):
        self.steps = steps
        self.fast = fast
        hits_before = [0]
        for step in steps * 2:
            hits_before.append(hits_before[-1] + (step[0] is _PROBE))
        self.hits_before = tuple(hits_before)
        self.reads_tsc = any(
            kind is ReadTSC
            or kind is Choose
            and any(option[0] is ReadTSC for option in op[1])
            for kind, op, *_ in steps
        )

    def hits_in(self, position: int, count: int) -> int:
        """The L1 hits among ``count`` ops fast-forwarded from ``position``."""
        size = len(self.steps)
        hits_before = self.hits_before
        return (
            count // size * hits_before[size]
            + hits_before[position + count % size]
            - hits_before[position]
        )


class _Hold:
    """A :class:`~repro.sim.ops.HoldLoop` the op kernel is running.

    ``run`` is the number of ops just issued in a row, with nothing else
    acting between them, that left the cache as it was (see
    :meth:`HyperThreadedScheduler.run`); the position is the thread's
    ``hold_position``.
    """

    __slots__ = ("lowering", "steps", "fast", "run")

    def __init__(self, lowering: _Lowering):
        self.lowering = lowering
        self.steps = lowering.steps
        self.fast = lowering.fast
        self.run = 0


#: The kind of a kernel access done in place: an L1 probe.
_PROBE = object()


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
    jitter.  Where the draws cannot change the pick, the loop takes them
    as one ``getrandbits(64 * alive)``, which consumes the same words:
    in a step with exactly two alive threads whose ``ready_at`` differ
    (``getrandbits(128)``; on an exact tie it draws both ``random()``
    calls), and in a fast-forward (see :meth:`run`).
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
        ops itself, exactly as ``_execute`` would.  An access that
        :meth:`_lower_ops` would lower to an in-place probe runs in place:
        - it probes its set's tag map and, with a way predictor,
          computes ``utag(space, address)`` once;
        - a hit touches the policy (a ``TabledPolicy``'s touch is one
          table lookup done in place) and counts the reference.  It then
          checks the utag exactly as ``_check_way_predictor`` does:
          adopt a missing one, retrain a mismatched one and set the
          line's ``owner_space``.  A matching or adopted utag costs the
          L1 hit latency and delivers the hierarchy's shared L1-hit
          outcome; a mismatch delivers its shared ``_utag_miss``;
        - a miss goes to ``hierarchy._l1_miss`` with the set already
          resolved, the fast engine's one miss routine.
        Every other access goes through ``hierarchy.access``.
        Otherwise every op goes through ``_execute``.

        A :class:`~repro.sim.ops.HoldLoop` runs in the kernel from its
        lowered ops (see :meth:`_lower_ops`), one op per step, without
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
        fast-forwards under a TSC fault model (readings draw), with a
        ``Choose``, or with an access that is not in place or touches an
        untabled policy.  Off the kernel, :meth:`SimThread.next_hold_op`
        issues the hold op by op through ``_execute``.  Either way the
        hold's position is the thread's ``hold_position``, so a hold cut
        off by ``until_cycle`` goes on from there in the next run,
        whichever route that run takes.

        Under an observing session, L1 hits done in place reach the
        hierarchy's metrics as runs of hits, reported before the next
        miss, mispredict or other counted access (fault disturbances
        are uncounted and observe no latency), so the latency histogram
        takes its float additions in the general route's order.
        """
        threads = self.threads
        inlinable = self._inlinable()
        lowered = {}
        #: The kernel's view of each thread's running hold.
        views = self._holds = {}
        for thread in threads:
            if not thread.alive:
                thread.start()
            elif inlinable and thread.hold is not None:
                views[thread] = self._hold_view(thread, thread.hold, lowered)
        # The alive threads in thread-list order, and them again while
        # there are exactly two (else None); a program's end updates both.
        alive = list(threads)
        pair = alive if len(alive) == 2 else None
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
        probe = _PROBE
        hold_kind = HoldLoop
        choose_kind = Choose
        tabled = TabledPolicy
        hierarchy = self.hierarchy
        access = hierarchy.access
        l1 = self._plain_l1() if inlinable else None
        if l1 is not None:
            update_on_hit = l1._update_on_hit
            references = l1._references
            sets = l1.sets
            offset_bits = l1._offset_bits
            index_mask = l1._index_mask
            tag_shift = l1._tag_shift
            predictor = l1.way_predictor
            utag_of = None if predictor is None else predictor.utag
            l1_miss = hierarchy._l1_miss
        hit_latency = hierarchy.config.l1.hit_latency
        hit_outcome = hierarchy._l1_hit
        utag_miss = hierarchy._utag_miss
        obs = hierarchy._obs
        record_hits = None if obs is None else obs.record_l1_hits
        horizon = math.inf if until_cycle is None else until_cycle
        issued = 0
        hits = 0
        recorded = 0
        last_time = 0.0
        # The thread whose op ran last; None once a fault step ran since.
        actor = None
        while True:
            if pair is not None:
                # Unequal clocks decide the pick without the two
                # tie-break draws, so one call takes their words.
                first, second = pair
                now = first.ready_at
                ready = second.ready_at
                if now != ready:
                    skip_draws(128)
                    thread = first
                    if ready < now:
                        thread, now = second, ready
                else:
                    draw = rand()
                    thread = second if rand() < draw else first
            else:
                thread = None
                for candidate in alive:
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
            hold = thread.hold
            if hold is None:
                clean = False
                try:
                    op = thread._program.send(thread.pending_result)
                except StopIteration:
                    thread.alive = False
                    alive.remove(thread)
                    pair = alive if len(alive) == 2 else None
                    continue
                kind = type(op)
                if kind is hold_kind:
                    hold = thread.hold = op
                    thread.hold_position = 0
                    if inlinable:
                        views[thread] = self._hold_view(thread, op, lowered)
                elif not inlinable:
                    # Off the kernel every op takes _execute.
                    kind = None
                elif kind is Access and l1 is not None and op.plain:
                    # As _lower_ops lowers it, inline: a call per access
                    # would cost a tenth of the loop.
                    address = op.address
                    cache_set = sets[(address >> offset_bits) & index_mask]
                    tag = address >> tag_shift
                    utag = (
                        None
                        if utag_of is None
                        else utag_of(thread.address_space, address)
                    )
                    kind = probe
            view = None
            if hold is not None:
                if not inlinable:
                    kind = None
                    op = thread.next_hold_op()
                else:
                    view = views[thread]
                    position = thread.hold_position
                    (
                        kind, op, cache_set, tag, utag, need, following, clean
                    ) = view.steps[position]
                    if actor is not thread:
                        view.run = 0
                    if view.run >= need:
                        # A fixed point.  This step's pick and fault gate
                        # already ran; the thread keeps winning the pick,
                        # and no fault can act, while its time stays
                        # below ``limit``.
                        limit = horizon
                        if models and faults._next_due < limit:
                            limit = faults._next_due
                        for other in alive:
                            if other is not thread and other.ready_at < limit:
                                limit = other.ready_at
                        # Fast-forward unless the stretch ends with this op.
                        if now + view.fast[position][0] < limit:
                            bits = 64 * len(alive)
                            deadline = hold.deadline
                            count = 0
                            for cost, reads in islice(
                                cycle(view.fast), position, None
                            ):
                                count += 1
                                if reads and now >= deadline:
                                    thread.pending_result = now
                                    thread.hold = None
                                    now += cost + jitter * rand()
                                    break
                                now += cost + jitter * rand()
                                if now >= limit:
                                    break
                                skip_draws(bits)
                            issued += count
                            thread.hold_position = (
                                (position + count) % len(view.fast)
                            )
                            n_hits = view.lowering.hits_in(position, count)
                            if n_hits:
                                hits += n_hits
                                references[thread.thread_id] += n_hits
                            thread.ready_at = now
                            actor = thread
                            if now > last_time:
                                last_time = now
                            continue
                    thread.hold_position = following
                    if kind is choose_kind:
                        next_index, options = op
                        kind, op, cache_set, tag, utag = options[next_index()]
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
                        if type(policy) is tabled:
                            # TabledPolicy.touch in place; ``way`` came
                            # from the tag map, so it is in range.
                            tables = policy._tables
                            state = policy._state
                            moved = tables._touch[state * tables.ways + way]
                            if moved is None:
                                moved = tables._replay_touch(
                                    state, way, is_fill=False
                                )
                            policy._state = moved
                            if moved != state:
                                clean = False
                        else:
                            policy.touch(way)
                            clean = False
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
                    thread.hold = None
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
                if (
                    hold is not None
                    and type(op) is ReadTSC
                    and thread.pending_result >= hold.deadline
                ):
                    thread.hold = None
            if view is not None:
                view.run = view.run + 1 if clean else 0
            issued += 1
            # ``jitter * rand()`` is ``uniform(0.0, jitter)`` bit for bit.
            now += cost + jitter * rand()
            thread.ready_at = now
            actor = thread
            if now > last_time:
                last_time = now
        if record_hits is not None and hits != recorded:
            record_hits(hit_latency, hits - recorded)
        if self._obs is not None:
            self._obs.ops.inc(issued)
        return last_time

    def _hold_view(self, thread: SimThread, hold: HoldLoop, lowered: dict):
        """The op kernel's view of ``hold``, running on ``thread``."""
        return _Hold(self._lower_hold(hold, thread.address_space, lowered))


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

        A thread running a :class:`~repro.sim.ops.HoldLoop` without a
        ``ReadTSC`` spends its slices in the slice kernel
        (:meth:`_run_loop`) whenever nothing could observe individual
        ops: no fault model attached and :meth:`_inlinable` holds.
        Every other op, and every op on the reference engine, takes the
        general per-op loop, which issues a hold's ops through
        :meth:`SimThread.next_hold_op`.
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
        # The kernel skips the fault hooks as well as what _inlinable
        # rules out.
        kernel = not models and self._inlinable()
        lowered = {}
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
            # The hold last offered to the kernel in this slice.
            offered = None
            while ready < slice_end:
                if models:
                    ready += self._fault_wake_stall(thread, ready)
                    thread.ready_at = ready
                hold = thread.hold
                if hold is None:
                    try:
                        op = thread._program.send(thread.pending_result)
                    except StopIteration:
                        thread.alive = False
                        break
                    thread.pending_result = None
                    if op is None:
                        break
                    if type(op) is HoldLoop:
                        hold = thread.hold = op
                        thread.hold_position = 0
                if hold is not None:
                    if kernel and hold is not offered:
                        offered = hold
                        lowering = self._lower_hold(
                            hold, thread.address_space, lowered
                        )
                        if not lowering.reads_tsc:
                            ready = self._run_loop(
                                thread, lowering, ready, slice_end
                            )
                            break
                    op = thread.next_hold_op()
                issued += 1
                ready += execute(thread, op, ready)
                thread.ready_at = ready
                if (
                    hold is not None
                    and type(op) is ReadTSC
                    and thread.pending_result >= hold.deadline
                ):
                    thread.hold = None
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

    def _run_loop(
        self,
        thread: SimThread,
        lowering: _Lowering,
        ready: float,
        slice_end: float,
    ) -> float:
        """Run one slice of a thread's hold; return the thread's new time.

        ``lowering`` is the hold's (see :meth:`_lower_ops`), and the
        slice starts at the thread's ``hold_position``.

        Issues exactly the ops, in exactly the order, that the general
        loop would, and adds their costs to ``ready`` in the same order,
        so times are bit-identical.  L1 hits (the utag check included)
        are done inline, a ``TabledPolicy``'s touch as one table lookup
        in place, and only counted; the counts go to the L1's reference
        counter at the end of the slice (plain ints, so the order of
        additions cannot show), and to an observing session's hit
        metrics before the next miss or mispredict and at the end, so
        its latency histogram takes its float additions in the general
        loop's order.  L1 misses go to ``hierarchy._l1_miss`` and every
        other access to ``hierarchy.access``.

        Only this thread acts in the slice, and no fault model is
        attached, so a hold whose last ``need`` ops (see
        :meth:`_lower_ops`) left the cache as it was is at a fixed point
        for the rest of the slice: each further op is a clean hit or a
        ``Compute``.  The kernel then *fast-forwards*: it adds each op's
        ``fast`` cost to ``ready`` in order while ``ready`` is below
        ``slice_end``, as the general loop would, and counts the hits
        with :meth:`_Lowering.hits_in`.  A trackable hold is issued in
        stretches of about one clean cycle's time, with the check
        between them; an untrackable one (every ``need`` infinite) runs
        its slice in one stretch and never checks.  The ops that may
        change the cache (a miss, a touch that moves the policy state, a
        utag retrain, an access through the hierarchy) record where the
        clean run starts, so a clean op does no bookkeeping.
        """
        hierarchy = self.hierarchy
        access = hierarchy.access
        l1_miss = hierarchy._l1_miss
        hit_latency = hierarchy.config.l1.hit_latency
        utag_latency = hierarchy._utag_miss.latency
        obs = hierarchy._obs
        record_hits = None if obs is None else obs.record_l1_hits
        # Without a plain L1 (a PL cache, say) no op is a probe.
        l1 = self._plain_l1()
        update_on_hit = l1 is not None and l1._update_on_hit
        probe = _PROBE
        choose = Choose
        tabled = TabledPolicy
        tid = thread.thread_id
        space = thread.address_space
        steps = lowering.steps
        size = len(steps)
        start = thread.hold_position
        issued = 0
        # ``issued`` as of the last op that may have changed the cache.
        dirty = 0
        hits = 0
        recorded = 0
        stop = slice_end
        if steps[0][7]:
            # Trackable: a clean cycle takes ``period`` cycles.  The first
            # stretch is empty, so a hold with no probe (``need`` 0)
            # fast-forwards at once.
            period = sum(cost for cost, _ in lowering.fast)
            stop = ready
        while True:
            # The hold's next op is ``issued`` ops past ``start``.
            position = (start + issued) % size
            for kind, op, cache_set, tag, utag, _, _, _ in cycle(
                steps[position:] + steps[:position]
            ):
                if ready >= stop:
                    break
                issued += 1
                if kind is choose:
                    next_index, options = op
                    kind, op, cache_set, tag, utag = options[next_index()]
                if kind is Compute:
                    ready += op.cycles
                    continue
                if kind is probe:
                    way = cache_set._tag_map.get(tag)
                    if way is None:
                        dirty = issued
                        if record_hits is not None and hits != recorded:
                            record_hits(hit_latency, hits - recorded)
                            recorded = hits
                        ready += l1_miss(
                            cache_set,
                            op.address,
                            op.access_type,
                            tid,
                            space,
                            utag,
                            True,
                        ).latency
                        continue
                    if update_on_hit:
                        policy = cache_set.policy
                        if type(policy) is tabled:
                            # As in HyperThreadedScheduler.run.
                            tables = policy._tables
                            state = policy._state
                            moved = tables._touch[state * tables.ways + way]
                            if moved is None:
                                moved = tables._replay_touch(
                                    state, way, is_fill=False
                                )
                            if moved != state:
                                policy._state = moved
                                dirty = issued
                        else:
                            policy.touch(way)
                            dirty = issued
                    # _check_way_predictor, as in HyperThreadedScheduler.run.
                    stored = utag
                    if utag is not None:
                        line = cache_set.lines[way]
                        stored = line.utag
                        if stored != utag:
                            dirty = issued
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
                dirty = issued
                if record_hits is not None and hits != recorded:
                    record_hits(hit_latency, hits - recorded)
                    recorded = hits
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
            if ready >= slice_end:
                break
            # Only a trackable hold gets here, between two stretches.
            position = (start + issued) % size
            if issued - dirty >= steps[position][5]:
                count = 0
                for cost, _ in islice(cycle(lowering.fast), position, None):
                    ready += cost
                    count += 1
                    if ready >= slice_end:
                        break
                issued += count
                hits += lowering.hits_in(position, count)
                break
            stop = min(slice_end, ready + period)
        thread.hold_position = (start + issued) % size
        thread.ready_at = ready
        if hits:
            hierarchy.l1.counters.references[tid] += hits
            if record_hits is not None and hits != recorded:
                record_hits(hit_latency, hits - recorded)
        if self._obs is not None:
            self._obs.ops.inc(issued)
        return ready
