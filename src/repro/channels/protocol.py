"""Algorithm 3 — the covert-channel protocol driving Algorithms 1 and 2.

The sender holds each message bit for ``Ts`` cycles, repeating its
encoding access in a loop; the receiver runs one
initialization/sleep/decode iteration every ``Tr`` cycles and records one
timed observation per iteration (paper Section V).  This module builds
those two loops as scheduler programs and runs them under either sharing
mode, returning the receiver's observation trace and the sender's ground
truth for evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.channels.addresses import lines_for_set
from repro.channels.base import LRUChannel
from repro.common.errors import ProtocolError
from repro.common.rng import make_rng
from repro.common.types import Observation
from repro.faults.interrupts import InterruptBurstFault
from repro.obs.instruments import for_protocol
from repro.obs.session import active as obs_active
from repro.sim.machine import Machine
from repro.sim.ops import (
    Access,
    Choose,
    Compute,
    HoldLoop,
    ReadTSC,
    SleepUntil,
)
from repro.sim.thread import SimThread
from repro.timing.measurement import observed_chase_latency


@dataclass
class ProtocolConfig:
    """Tunable parameters of one covert-channel run.

    Attributes:
        ts: Sender's per-bit hold time in cycles (paper's ``Ts``).
        tr: Receiver's sampling period in cycles (paper's ``Tr``).
        chain_set: Set hosting the receiver's pointer-chase chain; must
            differ from the channel's target set.
        chain_length: Pointer-chase local elements (paper uses 7).
        encode_gap: Idle cycles between the sender's encode repetitions
            inside one bit period (loop bookkeeping cost).
        sender_space: Address-space id of the sender (same as
            ``receiver_space`` to model pthreads in one process, as in
            the paper's AMD Algorithm 1 runs).
        receiver_space: Address-space id of the receiver.
        noise_events_per_mcycle: Rate of environment-noise events
            (interrupts, other processes briefly touching the cache) per
            million cycles.  Implemented by attaching an
            :class:`~repro.faults.interrupts.InterruptBurstFault` to the
            machine at protocol construction.  This is the error floor
            real hardware exhibits in Figure 4: noise arrives per unit
            *time*, so faster transmission (fewer samples per bit)
            suffers more.  For richer disturbance models, build the
            machine with ``Machine(..., faults=[...])`` instead.
    """

    ts: float = 6000.0
    tr: float = 600.0
    chain_set: int = 0
    chain_length: int = 7
    encode_gap: float = 20.0
    sender_space: int = 1
    receiver_space: int = 0
    noise_events_per_mcycle: float = 0.0

    def __post_init__(self) -> None:
        if self.ts <= 0 or self.tr <= 0:
            raise ProtocolError("ts and tr must be positive")
        if self.chain_length < 1:
            raise ProtocolError("chain_length must be >= 1")
        if self.chain_set < 0:
            raise ProtocolError(
                f"chain_set must be >= 0, got {self.chain_set}"
            )
        if self.noise_events_per_mcycle < 0:
            raise ProtocolError("noise_events_per_mcycle must be >= 0")

    def validate_for_target(self, target_set: int) -> None:
        """Check this config against the channel it will drive.

        The pointer-chase chain must live in a different set than the
        channel's target set (Section IV-D optimization); a collision
        silently corrupts the channel — every chase probe would rewrite
        the very LRU state being measured.
        """
        if self.chain_set == target_set:
            raise ProtocolError(
                f"chain_set {self.chain_set} collides with the channel's "
                "target set; the pointer-chase chain must live in a "
                "different set (Section IV-D optimization)"
            )

    @property
    def samples_per_bit(self) -> float:
        """Nominal receiver observations per transmitted bit."""
        return self.ts / self.tr


@dataclass
class ChannelRun:
    """Everything recorded during one protocol execution.

    Attributes:
        observations: The receiver's timed probes, in order.
        bit_boundaries: Sender-side timestamps at which each message bit
            began (ground truth for oracle decoding and diagnostics).
        sent_bits: The message the sender transmitted.
        threshold: The hit/miss decision threshold the receiver used.
        total_cycles: Simulated duration of the run (for rate math).
        hit_means_one: Decode polarity inherited from the channel.
    """

    observations: List[Observation] = field(default_factory=list)
    bit_boundaries: List[float] = field(default_factory=list)
    sent_bits: List[int] = field(default_factory=list)
    threshold: float = 0.0
    total_cycles: float = 0.0
    hit_means_one: bool = True

    def latencies(self) -> List[float]:
        return [o.latency for o in self.observations]


class CovertChannelProtocol:
    """Builds and runs the Algorithm 3 sender/receiver pair.

    Args:
        machine: The simulated platform (provides hierarchy and TSC).
        channel: An Algorithm 1 or Algorithm 2 channel instance.
        config: Protocol timing parameters; None builds a fresh default
            :class:`ProtocolConfig`.
    """

    def __init__(
        self,
        machine: Machine,
        channel: LRUChannel,
        config: Optional[ProtocolConfig] = None,
    ):
        if config is None:
            config = ProtocolConfig()
        config.validate_for_target(channel.layout.target_set)
        self.machine = machine
        self.channel = channel
        self.config = config
        self._session = obs_active()
        self._obs = for_protocol(self._session)
        if config.noise_events_per_mcycle > 0:
            # Section VIII environment noise, injected as a scheduler-
            # level fault model rather than inside the receiver loop so
            # noise also lands while neither endpoint is probing.
            machine.faults.attach(
                InterruptBurstFault(config.noise_events_per_mcycle)
            )
        l1 = machine.spec.hierarchy.l1
        # The chain uses a high tag base so it never collides with
        # channel lines even if geometries change.
        self.chain_addresses = lines_for_set(
            l1, config.chain_set, config.chain_length, tag_base=1 << 14
        )

    # ------------------------------------------------------------------
    # Programs
    # ------------------------------------------------------------------

    def _sender_program(self, message: Sequence[int], run: ChannelRun):
        """Sender: hold each bit for Ts, encoding in a tight loop."""
        config = self.config
        channel = self.channel
        obs = self._obs
        session = self._session

        # Each bit value's op cycle is built once; the channel's address
        # sequences are pure, so its encoding accesses are too.
        read_tsc = ReadTSC()
        silent = Compute(4.0)
        gap = Compute(config.encode_gap)
        loops = {}
        for bit in (0, 1):
            encode = tuple(Access(a) for a in channel.sender_addresses(bit))
            # Bit 0: the sender stays silent but still burns the loop's
            # bookkeeping time.
            loops[bit] = (encode or (silent,)) + (gap, read_tsc)

        def program():
            now = yield read_tsc
            for bit in message:
                run.bit_boundaries.append(now)
                run.sent_bits.append(bit)
                if obs is not None:
                    obs.bits_sent.inc()
                    session.event("channel.bit", bit=bit, cycle=now)
                # Encode, gap and read the TSC until it reads Ts past
                # ``now``; Ts > 0, so at least one cycle runs.
                now = yield HoldLoop(loops[bit], now + config.ts)

        return program

    def _constant_sender_program(self, bit: int, encode_period: float):
        """Time-sliced sender: emit one bit forever at a slow pace.

        The paper's time-sliced evaluation programs the sender "to always
        send 1 or 0"; pacing with ``encode_period`` keeps the simulated
        operation count tractable without changing what a context-switch
        boundary observes.
        """
        hold = HoldLoop(
            [Access(address) for address in self.channel.sender_addresses(bit)]
            + [Compute(encode_period)],
            math.inf,
        )

        def program():
            yield hold

        return program

    def _noise_program(
        self, working_set_lines: int, pace: float, process: int = 0
    ):
        """A benign background process, for time-sliced realism.

        The paper observes that under time-slicing "any other processes
        running during Tr could pollute the target set"; this thread
        models them with a Zipf-less random sweep over its own working
        set (which spans all cache sets, including the target set).
        Each ``process`` draws its own line stream.
        """
        l1 = self.machine.spec.hierarchy.l1
        accesses = [
            Access((1 << 27) + line * l1.line_size)
            for line in range(working_set_lines)
        ]
        # Each pick is ``rng.choice(accesses)``, which draws exactly as
        # ``randrange(len(accesses))`` does.
        hold = HoldLoop(
            [Choose(accesses, make_rng(0xBEEF + process)), Compute(pace)],
            math.inf,
        )

        def program():
            yield hold

        return program

    def _receiver_program(self, num_samples: int, run: ChannelRun):
        """Receiver: init, sleep to the Tr boundary, decode, probe.

        Environment noise is no longer simulated here: cache-state
        disturbances arrive through the machine's fault injector at
        scheduler level (see :mod:`repro.faults`), and sample-stream
        faults (drops/duplicates) are applied as each observation is
        recorded.
        """
        config = self.config
        channel = self.channel
        tsc = self.machine.tsc
        faults = self.machine.faults
        obs = self._obs
        session = self._session
        read_tsc = ReadTSC()
        chain = self.chain_addresses
        warm = [Access(address, count=False) for address in chain]
        chase = [Access(address) for address in chain]
        init = [Access(address) for address in channel.init_addresses()]
        decode = [Access(address) for address in channel.decode_addresses()]
        probe = Access(channel.probe_address)

        def program():
            # Prime the pointer-chase chain once (uncounted warm-up).
            for op in warm:
                yield op
            t_last = yield read_tsc
            for sequence in range(num_samples):
                for op in init:
                    yield op
                yield SleepUntil(t_last + config.tr)
                t_last = yield read_tsc
                for op in decode:
                    yield op
                total = 0.0
                for op in chase:
                    outcome = yield op
                    total += outcome.latency
                outcome = yield probe
                total += outcome.latency
                latency = observed_chase_latency(
                    tsc, total, config.chain_length
                )
                observation = Observation(
                    sequence=sequence, latency=latency, timestamp=int(t_last)
                )
                if faults.active:
                    delivered = faults.filter_observation(observation)
                else:
                    delivered = [observation]
                run.observations.extend(delivered)
                if obs is not None:
                    obs.observations.inc(len(delivered))
                    session.event(
                        "channel.sample",
                        sequence=sequence,
                        latency=latency,
                        delivered=len(delivered),
                        cycle=t_last,
                    )

        return program

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _threshold(self) -> float:
        """Hit/miss decision threshold for the chase measurement."""
        l1 = self.machine.spec.hierarchy.l1
        l2 = self.machine.spec.hierarchy.l2
        chain_cost = self.config.chain_length * l1.hit_latency
        hit_total = chain_cost + l1.hit_latency
        miss_total = chain_cost + l2.hit_latency
        return (hit_total + miss_total) / 2.0 + self.machine.tsc.spec.overhead_mean

    def run_hyper_threaded(
        self, message: Sequence[int], samples: Optional[int] = None
    ) -> ChannelRun:
        """Run the protocol with SMT sharing; returns the full record."""
        message = [LRUChannel.check_bit(b) for b in message]
        run = ChannelRun(
            threshold=self._threshold(),
            hit_means_one=self.channel.hit_means_one,
        )
        if samples is None:
            # Enough samples to cover the whole message plus slack.
            samples = int(len(message) * self.config.samples_per_bit * 1.3) + 8
        sender = SimThread(
            "sender",
            self._sender_program(message, run),
            thread_id=1,
            address_space=self.config.sender_space,
        )
        receiver = SimThread(
            "receiver",
            self._receiver_program(samples, run),
            thread_id=0,
            address_space=self.config.receiver_space,
        )
        scheduler = self.machine.hyper_threaded([sender, receiver])
        if self._obs is not None:
            self._obs.threshold.set(run.threshold)
            with self._session.span(
                "protocol.hyper_threaded", bits=len(message), samples=samples
            ):
                run.total_cycles = scheduler.run()
        else:
            run.total_cycles = scheduler.run()
        return run

    def run_time_sliced(
        self,
        constant_bit: int,
        samples: int,
        quantum: float,
        encode_period: float = 500.0,
        switch_cost: float = 2_000.0,
        noise_processes: int = 0,
    ) -> ChannelRun:
        """Run the time-sliced experiment of Figures 6, 8, and 15.

        The sender emits ``constant_bit`` forever; the receiver takes
        ``samples`` observations at its configured Tr.

        Args:
            noise_processes: Number of benign background processes also
                taking scheduler slices.  With 0 the channel is nearly
                noise-free; real systems behave like 1-2 (the paper's
                receiver sees only ~30% ones when the sender sends 1,
                because other processes' slices break the
                sender-then-receiver adjacency the decode relies on).
        """
        LRUChannel.check_bit(constant_bit)
        run = ChannelRun(
            threshold=self._threshold(),
            hit_means_one=self.channel.hit_means_one,
            sent_bits=[constant_bit] * samples,
        )
        sender = SimThread(
            "sender",
            self._constant_sender_program(constant_bit, encode_period),
            thread_id=1,
            address_space=self.config.sender_space,
        )
        receiver = SimThread(
            "receiver",
            self._receiver_program(samples, run),
            thread_id=0,
            address_space=self.config.receiver_space,
        )
        threads = [receiver, sender]
        for i in range(noise_processes):
            threads.append(
                SimThread(
                    f"noise{i}",
                    self._noise_program(
                        working_set_lines=256, pace=200.0, process=i
                    ),
                    thread_id=10 + i,
                    address_space=10 + i,
                )
            )
        scheduler = self.machine.time_sliced(
            threads, quantum=quantum, switch_cost=switch_cost
        )
        # Generous deadline: receiver needs ~samples * tr cycles of its
        # own run time, and it only gets 1/len(threads) of the slices.
        deadline = (
            (samples + 4) * self.config.tr * (len(threads) + 0.5)
            + 8 * quantum
        )
        if self._obs is not None:
            self._obs.threshold.set(run.threshold)
            self._obs.bits_sent.inc(samples)
            with self._session.span(
                "protocol.time_sliced",
                constant_bit=constant_bit,
                samples=samples,
                quantum=quantum,
            ):
                run.total_cycles = scheduler.run(until_cycle=deadline)
        else:
            run.total_cycles = scheduler.run(until_cycle=deadline)
        return run
