"""Tests for the hyper-threaded and time-sliced schedulers."""

import random

import pytest

from repro.cache.config import HierarchyConfig
from repro.cache.hierarchy import CacheHierarchy
from repro.common.errors import SimulationError
from repro.faults import InterruptBurstFault, TSCFault
from repro.faults.base import FaultInjector
from repro.sim.ops import Access, Compute, ReadTSC, READ_TSC_COST, SleepUntil
from repro.sim.scheduler import HyperThreadedScheduler, TimeSlicedScheduler
from repro.sim.thread import SimThread


def make_hierarchy():
    return CacheHierarchy(HierarchyConfig(), rng=7)


def accesses_program(addresses, log):
    def program():
        for a in addresses:
            outcome = yield Access(a)
            log.append(outcome)

    return program


class TestSimThread:
    def test_lifecycle(self):
        log = []
        t = SimThread("t", accesses_program([0, 64], log))
        t.start()
        assert t.alive
        op = t.next_operation()
        assert isinstance(op, Access)

    def test_next_before_start_raises(self):
        t = SimThread("t", accesses_program([], []))
        with pytest.raises(SimulationError):
            t.next_operation()

    def test_finishes(self):
        t = SimThread("t", accesses_program([], []))
        t.start()
        assert t.next_operation() is None
        assert not t.alive

    def test_restartable(self):
        log = []
        t = SimThread("t", accesses_program([0], log))
        for _ in range(2):
            t.start()
            while t.alive:
                op = t.next_operation()
                if op is not None:
                    t.deliver(None)
        assert not t.alive


class TestHyperThreadedScheduler:
    def test_runs_single_thread_to_completion(self):
        log = []
        h = make_hierarchy()
        t = SimThread("t", accesses_program([0, 64, 0], log))
        HyperThreadedScheduler(h, [t], rng=1).run()
        assert len(log) == 3
        assert log[2].l1_hit

    def test_interleaves_two_threads(self):
        h = make_hierarchy()
        order = []

        def tagged(tag, n):
            def program():
                for i in range(n):
                    yield Compute(10.0)
                    order.append(tag)

            return program

        a = SimThread("a", tagged("a", 20))
        b = SimThread("b", tagged("b", 20))
        HyperThreadedScheduler(h, [a, b], rng=1).run()
        # Both threads' ops are interleaved, not serialized.
        first_half = order[: len(order) // 2]
        assert "a" in first_half and "b" in first_half

    def test_access_results_delivered(self):
        h = make_hierarchy()
        seen = []

        def program():
            outcome = yield Access(0)
            seen.append(outcome.latency)
            outcome = yield Access(0)
            seen.append(outcome.latency)

        t = SimThread("t", program)
        HyperThreadedScheduler(h, [t], rng=1).run()
        assert seen[0] == h.config.memory_latency
        assert seen[1] == h.config.l1.hit_latency

    def test_read_tsc_returns_time(self):
        h = make_hierarchy()
        stamps = []

        def program():
            t0 = yield ReadTSC()
            yield Compute(100.0)
            t1 = yield ReadTSC()
            stamps.extend([t0, t1])

        t = SimThread("t", program)
        HyperThreadedScheduler(h, [t], rng=1, jitter=0.0).run()
        assert stamps[1] - stamps[0] >= 100.0 + READ_TSC_COST

    def test_sleep_until_advances_clock(self):
        h = make_hierarchy()
        stamps = []

        def program():
            yield SleepUntil(5000.0)
            stamps.append((yield ReadTSC()))

        t = SimThread("t", program)
        HyperThreadedScheduler(h, [t], rng=1, jitter=0.0).run()
        assert stamps[0] >= 5000.0

    def test_until_cycle_stops_early(self):
        h = make_hierarchy()
        count = []

        def program():
            while True:
                yield Compute(100.0)
                count.append(1)

        t = SimThread("t", program)
        HyperThreadedScheduler(h, [t], rng=1).run(until_cycle=1000.0)
        assert 5 <= len(count) <= 11

    def test_empty_thread_list_rejected(self):
        with pytest.raises(SimulationError):
            HyperThreadedScheduler(make_hierarchy(), [], rng=1)

    def test_shared_cache_between_threads(self):
        h = make_hierarchy()
        results = {}

        def loader(name, address, pause):
            def program():
                yield Compute(pause)
                outcome = yield Access(address)
                results[name] = outcome

            return program

        a = SimThread("a", loader("a", 0, 0.0), thread_id=0)
        b = SimThread("b", loader("b", 0, 500.0), thread_id=1)
        HyperThreadedScheduler(h, [a, b], rng=1, jitter=0.0).run()
        # Thread b arrives after a's fill: it must hit.
        assert results["b"].l1_hit


#: Issue sequence ``(thread, op type, ready_at)`` of the scenario in
#: :class:`TestDrawOrderGolden`.  Any change to how the scheduler draws
#: its arbitration noise, breaks ready_at ties, charges wake stalls or
#: groups its float arithmetic shows up here.
_GOLDEN_ISSUES = [
    ("short", "Access", 0.0),
    ("receiver", "ReadTSC", 0.0),
    ("sender", "Access", 0.0),
    ("receiver", "SleepUntil", 10.0),
    ("receiver", "Access", 750.0),
    ("short", "Compute", 200.0),
    ("sender", "Compute", 200.0),
    ("sender", "Access", 240.0),
    ("sender", "Compute", 440.0),
    ("sender", "Access", 480.0),
    ("sender", "Compute", 680.0),
    ("sender", "Access", 720.0),
    ("sender", "Compute", 724.0),
    ("receiver", "ReadTSC", 754.0),
    ("sender", "Access", 764.0),
    ("receiver", "SleepUntil", 764.0),
    ("sender", "Compute", 768.0),
    ("sender", "Access", 808.0),
    ("sender", "Compute", 812.0),
    ("sender", "Access", 852.0),
    ("sender", "Compute", 856.0),
    ("sender", "Access", 896.0),
    ("sender", "Compute", 900.0),
    ("receiver", "Access", 904.4991655483918),
    ("receiver", "ReadTSC", 908.4991655483918),
    ("receiver", "SleepUntil", 918.4991655483918),
    ("sender", "Access", 940.0),
    ("sender", "Compute", 944.0),
    ("sender", "Access", 984.0),
    ("sender", "Compute", 988.0),
    ("sender", "Access", 1028.0),
    ("sender", "Compute", 1032.0),
    ("receiver", "Access", 1055.0638775244552),
    ("receiver", "ReadTSC", 1059.0638775244552),
    ("receiver", "SleepUntil", 1069.0638775244552),
    ("sender", "Access", 1072.0),
    ("sender", "Compute", 1076.0),
    ("sender", "Access", 1116.0),
    ("sender", "Compute", 1120.0),
    ("sender", "Access", 1160.0),
    ("sender", "Compute", 1164.0),
    ("sender", "Access", 1204.0),
    ("sender", "Compute", 1208.0),
    ("receiver", "Access", 1208.9542750250516),
    ("receiver", "ReadTSC", 1212.9542750250516),
    ("receiver", "SleepUntil", 1222.9542750250516),
    ("sender", "Access", 1248.0),
    ("sender", "Compute", 1252.0),
    ("sender", "Access", 1292.0),
    ("sender", "Compute", 1296.0),
    ("sender", "Access", 1336.0),
    ("sender", "Compute", 1340.0),
    ("receiver", "Access", 1364.1397317074247),
    ("receiver", "ReadTSC", 1368.1397317074247),
    ("receiver", "SleepUntil", 1378.1397317074247),
    ("sender", "Access", 1380.0),
    ("sender", "Compute", 1384.0),
    ("sender", "Access", 1424.0),
    ("sender", "Compute", 1428.0),
    ("sender", "Access", 1468.0),
    ("sender", "Compute", 1472.0),
]


class TestDrawOrderGolden:
    """The HT scheduler's exact issue order and RNG consumption.

    ``jitter=0.0`` makes ready_at ties common, so the per-step
    tie-break draws decide the order; one thread finishes early, the
    run is cut off by ``until_cycle``, and interrupt + TSC faults are
    attached so wake stalls and perturbed sleep deadlines take part.
    """

    def _run(self):
        def sender():
            i = 0
            while True:
                yield Access(64 * (i % 3))
                yield Compute(40.0)
                i += 1

        def receiver():
            while True:
                t = yield ReadTSC()
                yield SleepUntil(t + 150.0)
                yield Access(0)

        def short():
            yield Access(4096)
            yield Compute(40.0)

        h = make_hierarchy()
        faults = FaultInjector(h, rng_source=lambda: random.Random(99))
        faults.attach(InterruptBurstFault(rate_per_mcycle=2000.0, burst_length=2))
        faults.attach(TSCFault(jitter_cycles=3.0, drift_ppm=100.0))
        threads = [
            SimThread("sender", sender, thread_id=0),
            SimThread("receiver", receiver, thread_id=1),
            SimThread("short", short, thread_id=2),
        ]
        scheduler = HyperThreadedScheduler(
            h, threads, rng=1234, jitter=0.0, faults=faults
        )
        issues = []
        execute = scheduler._execute

        def recording_execute(thread, op, now):
            issues.append((thread.name, type(op).__name__, now))
            return execute(thread, op, now)

        scheduler._execute = recording_execute
        end = scheduler.run(until_cycle=1500.0)
        return scheduler, faults, issues, end

    def test_issue_sequence(self):
        _, _, issues, _ = self._run()
        assert issues == _GOLDEN_ISSUES

    def test_return_value_and_fault_events(self):
        _, faults, _, end = self._run()
        assert end == 1521.7208180445618
        assert list(faults.event_log) == [
            (94.78771076215958, 600.0),
            (579.3887648555828, 600.0),
            (676.1689935371228, 600.0),
        ]

    def test_rng_consumption(self):
        # Every draw is one ``random()``: one per alive thread per step,
        # plus one jitter draw per executed op.
        scheduler, _, _, _ = self._run()
        reference = random.Random(1234)
        for _ in range(195):
            reference.random()
        assert scheduler.rng.getstate() == reference.getstate()


#: Issue sequence ``(thread, op type, ready_at)`` of the time-sliced
#: scenario in :class:`TestTimeSlicedGolden`, without faults.  Recorded
#: before the time-sliced loop was rewritten; any change to slice
#: lengths, the ``ready_at`` bookkeeping or the slice-ending rules
#: (finished thread, yielded ``None``) shows up here.
_TS_GOLDEN_ISSUES = [
    ('sleeper', 'ReadTSC', 0.0),
    ('sleeper', 'SleepUntil', 10.0),
    ('finisher', 'Access', 561.5411464876875),
    ('finisher', 'Compute', 761.5411464876875),
    ('finisher', 'Access', 911.5411464876875),
    ('finisher', 'Compute', 1111.5411464876875),
    ('yielder', 'Access', 1178.247550633554),
    ('yielder', 'Compute', 1378.247550633554),
    ('yielder', 'Access', 1498.247550633554),
    ('sleeper', 'Access', 1800.0),
    ('sleeper', 'ReadTSC', 1804.0),
    ('sleeper', 'SleepUntil', 1814.0),
    ('finisher', 'Access', 2204.8263007288015),
    ('finisher', 'Compute', 2404.8263007288015),
    ('finisher', 'Access', 2554.8263007288015),
    ('finisher', 'Compute', 2558.8263007288015),
    ('finisher', 'Access', 2708.8263007288015),
    ('finisher', 'Compute', 2712.8263007288015),
    ('yielder', 'Compute', 2806.3801720687525),
    ('yielder', 'Access', 2926.3801720687525),
    ('yielder', 'Compute', 3126.3801720687525),
    ('sleeper', 'Access', 3604.0),
    ('sleeper', 'ReadTSC', 3608.0),
    ('sleeper', 'SleepUntil', 3618.0),
    ('finisher', 'Access', 4087.509623390604),
    ('finisher', 'Compute', 4091.509623390604),
    ('yielder', 'Access', 4624.434130197561),
    ('yielder', 'Compute', 4824.434130197561),
    ('yielder', 'Access', 4944.434130197561),
    ('yielder', 'Compute', 4948.434130197561),
    ('sleeper', 'Access', 5408.0),
    ('sleeper', 'ReadTSC', 5412.0),
    ('sleeper', 'SleepUntil', 5422.0),
    ('yielder', 'Access', 5688.210536269677),
    ('yielder', 'Compute', 5692.210536269677),
    ('yielder', 'Access', 6989.648623791733),
    ('yielder', 'Compute', 6993.648623791733),
    ('yielder', 'Access', 7113.648623791733),
    ('yielder', 'Compute', 7117.648623791733),
    ('yielder', 'Access', 7237.648623791733),
    ('yielder', 'Compute', 7241.648623791733),
    ('sleeper', 'Access', 7799.0465732069815),
    ('sleeper', 'ReadTSC', 7803.0465732069815),
    ('sleeper', 'SleepUntil', 7813.0465732069815),
    ('yielder', 'Access', 8425.338333118485),
    ('yielder', 'Compute', 8429.338333118485),
    ('yielder', 'Access', 8549.338333118485),
    ('yielder', 'Compute', 8553.338333118485),
    ('yielder', 'Access', 8673.338333118485),
    ('yielder', 'Compute', 8677.338333118485),
]

#: The same scenario with interrupt + TSC faults attached: the sleeper's
#: wake-ups take the wake-stall path.
_TS_GOLDEN_FAULT_ISSUES = [
    ('sleeper', 'ReadTSC', 0.0),
    ('sleeper', 'SleepUntil', 10.0),
    ('finisher', 'Access', 561.5411464876875),
    ('finisher', 'Compute', 761.5411464876875),
    ('finisher', 'Access', 911.5411464876875),
    ('finisher', 'Compute', 1111.5411464876875),
    ('yielder', 'Access', 1178.247550633554),
    ('yielder', 'Compute', 1378.247550633554),
    ('yielder', 'Access', 1498.247550633554),
    ('sleeper', 'Access', 2400.0),
    ('finisher', 'Access', 2204.8263007288015),
    ('finisher', 'Compute', 2404.8263007288015),
    ('finisher', 'Access', 2554.8263007288015),
    ('finisher', 'Compute', 2558.8263007288015),
    ('finisher', 'Access', 2708.8263007288015),
    ('finisher', 'Compute', 2712.8263007288015),
    ('yielder', 'Compute', 2806.3801720687525),
    ('yielder', 'Access', 2926.3801720687525),
    ('yielder', 'Compute', 3126.3801720687525),
    ('sleeper', 'ReadTSC', 3602.2456684865015),
    ('sleeper', 'SleepUntil', 3612.2456684865015),
    ('finisher', 'Access', 4087.509623390604),
    ('finisher', 'Compute', 4091.509623390604),
    ('yielder', 'Access', 4624.434130197561),
    ('yielder', 'Compute', 4824.434130197561),
    ('yielder', 'Access', 4944.434130197561),
    ('yielder', 'Compute', 4948.434130197561),
    ('sleeper', 'Access', 5403.029658601741),
    ('sleeper', 'ReadTSC', 5407.029658601741),
    ('sleeper', 'SleepUntil', 5417.029658601741),
    ('yielder', 'Access', 5688.210536269677),
    ('yielder', 'Compute', 5692.210536269677),
    ('yielder', 'Access', 6989.648623791733),
    ('yielder', 'Compute', 6993.648623791733),
    ('yielder', 'Access', 7113.648623791733),
    ('yielder', 'Compute', 7117.648623791733),
    ('yielder', 'Access', 7237.648623791733),
    ('yielder', 'Compute', 7241.648623791733),
    ('sleeper', 'Access', 7799.0465732069815),
    ('sleeper', 'ReadTSC', 7803.0465732069815),
    ('sleeper', 'SleepUntil', 7813.0465732069815),
    ('yielder', 'Access', 8425.338333118485),
    ('yielder', 'Compute', 8429.338333118485),
    ('yielder', 'Access', 8549.338333118485),
    ('yielder', 'Compute', 8553.338333118485),
    ('yielder', 'Access', 8673.338333118485),
    ('yielder', 'Compute', 8677.338333118485),
]


class TestTimeSlicedGolden:
    """The time-sliced scheduler's exact issue order and RNG consumption.

    Three threads share the core: a sleeper whose sleeps span several
    slices, a thread that finishes in the middle of a slice, and one
    that yields ``None`` (ending its slice early) every third round.
    """

    def _run(self, with_faults=False):
        def sleeper():
            while True:
                t = yield ReadTSC()
                yield SleepUntil(t + 1800.0)
                yield Access(0)

        def finisher():
            for i in range(6):
                yield Access(64 * (i % 3))
                yield Compute(150.0)

        def yielder():
            i = 0
            while True:
                yield Access(4096 + 64 * (i % 4))
                yield Compute(120.0)
                if i % 3 == 2:
                    yield None
                i += 1

        h = make_hierarchy()
        faults = None
        if with_faults:
            faults = FaultInjector(h, rng_source=lambda: random.Random(99))
            faults.attach(
                InterruptBurstFault(rate_per_mcycle=400.0, burst_length=2)
            )
            faults.attach(TSCFault(jitter_cycles=3.0, drift_ppm=100.0))
        threads = [
            SimThread("sleeper", sleeper, thread_id=0),
            SimThread("finisher", finisher, thread_id=1),
            SimThread("yielder", yielder, thread_id=2),
        ]
        scheduler = TimeSlicedScheduler(
            h,
            threads,
            quantum=600.0,
            switch_cost=50.0,
            quantum_jitter_frac=0.3,
            rng=4321,
            faults=faults,
        )
        issues = []
        execute = scheduler._execute

        def recording_execute(thread, op, now):
            issues.append((thread.name, type(op).__name__, now))
            return execute(thread, op, now)

        slices = []
        slice_length = scheduler._slice_length

        def counting_slice_length():
            slices.append(len(issues))
            return slice_length()

        scheduler._execute = recording_execute
        scheduler._slice_length = counting_slice_length
        end = scheduler.run(until_cycle=9000.0)
        return scheduler, faults, issues, len(slices), end

    def test_issue_sequence(self):
        _, _, issues, _, _ = self._run()
        assert issues == _TS_GOLDEN_ISSUES

    def test_fault_issue_sequence(self):
        _, faults, issues, _, _ = self._run(with_faults=True)
        assert issues == _TS_GOLDEN_FAULT_ISSUES
        assert list(faults.event_log) == [
            (473.9385538107979, 600.0),
            (2896.9438242779142, 600.0),
            (3380.844967685614, 600.0),
        ]

    @pytest.mark.parametrize("with_faults", [False, True])
    def test_slices_return_value_and_rng(self, with_faults):
        # One ``uniform`` (one ``random()``) per slice, nothing else.
        scheduler, _, _, slices, end = self._run(with_faults)
        assert slices == 15
        assert end == 9050.0
        reference = random.Random(4321)
        for _ in range(slices):
            reference.random()
        assert scheduler.rng.getstate() == reference.getstate()


class TestTimeSlicedScheduler:
    def test_alternates_threads_by_quantum(self):
        h = make_hierarchy()
        order = []

        def tagged(tag):
            def program():
                for _ in range(40):
                    yield Compute(100.0)
                    order.append(tag)

            return program

        a = SimThread("a", tagged("a"))
        b = SimThread("b", tagged("b"))
        TimeSlicedScheduler(
            h, [a, b], quantum=1000.0, switch_cost=0.0,
            quantum_jitter_frac=0.0, rng=1,
        ).run(until_cycle=20000.0)
        # Slices of ~10 ops each must alternate in blocks.
        runs = []
        for tag in order:
            if runs and runs[-1][0] == tag:
                runs[-1][1] += 1
            else:
                runs.append([tag, 1])
        assert len(runs) >= 4
        assert max(r[1] for r in runs) <= 12

    def test_quantum_validation(self):
        with pytest.raises(SimulationError):
            TimeSlicedScheduler(make_hierarchy(), [], quantum=0)

    def test_deadline_respected(self):
        h = make_hierarchy()

        def forever():
            def program():
                while True:
                    yield Compute(10.0)

            return program

        a = SimThread("a", forever())
        end = TimeSlicedScheduler(h, [a], quantum=1000.0, rng=1).run(
            until_cycle=5000.0
        )
        assert end >= 5000.0
        assert a.alive  # did not finish, just stopped being scheduled

    def test_finished_threads_release_slices(self):
        h = make_hierarchy()
        done = []

        def short():
            yield Compute(10.0)
            done.append("short")

        def long():
            for _ in range(50):
                yield Compute(100.0)
            done.append("long")

        a = SimThread("a", lambda: short())
        b = SimThread("b", lambda: long())
        TimeSlicedScheduler(h, [a, b], quantum=1000.0, rng=1).run(
            until_cycle=50000.0
        )
        assert done == ["short", "long"]

    def test_sleeping_thread_skips_slices(self):
        h = make_hierarchy()
        wake_times = []

        def sleeper():
            yield SleepUntil(10_000.0)
            wake_times.append((yield ReadTSC()))

        def worker():
            for _ in range(100):
                yield Compute(100.0)

        a = SimThread("a", lambda: sleeper())
        b = SimThread("b", lambda: worker())
        TimeSlicedScheduler(
            h, [a, b], quantum=1000.0, switch_cost=0.0, rng=1
        ).run(until_cycle=40000.0)
        assert wake_times and wake_times[0] >= 10_000.0
