"""Second batch of extension experiments.

* ``ext_verify_table1`` — replaces Table I's Monte-Carlo plateau rows
  with *exhaustive* state-space bounds, queried from each policy's
  closed transition system (see
  :func:`repro.analysis.reachability.sequence1_worst_case`).
* ``ext_detector`` — the perf-counter detector of Section X evaluated
  against every channel and the benign baselines: the miss-based
  channels are caught, the LRU channels are not.
* ``ext_coding`` — error-corrected transmission: Hamming(7,4) +
  interleaving pushes Figure 4's raw error rates toward zero at a 7/4
  rate cost.
"""

from __future__ import annotations

from repro.analysis.reachability import sequence1_worst_case
from repro.attacks.flush_reload import FlushReloadChannel
from repro.channels.algorithm1 import SharedMemoryLRUChannel
from repro.channels.coding import CodedPipe
from repro.channels.decoder import runlength_decode, sample_bits
from repro.channels.evaluation import evaluate_hyper_threaded, random_message
from repro.channels.protocol import CovertChannelProtocol, ProtocolConfig
from repro.defenses.detector import MissRateDetector
from repro.experiments.base import ExperimentResult, register
from repro.sim.machine import Machine
from repro.sim.specs import INTEL_E5_2690


@register("ext_verify_table1")
def run_ext_verify_table1() -> ExperimentResult:
    """Exhaustive verification of Table I's Sequence-1 plateaus."""
    result = ExperimentResult(
        experiment_id="ext_verify_table1",
        title="Exhaustive bound on Sequence-1 eviction delay (all states)",
        columns=[
            "policy", "(state,placement) pairs", "worst-case iterations",
            "Table I plateau",
        ],
        paper_expectation=(
            "Table I (sampled): LRU evicts in 1 iteration always; "
            "Tree-PLRU reaches ~100% by 3; Bit-PLRU reaches 100% at 8. "
            "The exhaustive sweep turns those into exact worst-case "
            "bounds: 1, 3, and 8."
        ),
    )
    expectations = {"lru": "100% @ 1", "tree-plru": "99.2% @ 3", "bit-plru": "100% @ 8"}
    for policy in ("lru", "tree-plru", "bit-plru"):
        ways = 8 if policy != "lru" else 6  # 8! x 8 permutations are slow
        sweep = sequence1_worst_case(policy, ways=ways)
        result.rows.append(
            [
                f"{policy} ({ways}-way)",
                sweep.states_checked,
                sweep.worst_iterations,
                expectations[policy],
            ]
        )
    return result


@register("ext_detector")
def run_ext_detector(rng: int = 7) -> ExperimentResult:
    """The Section X detector vs every channel's sender."""
    result = ExperimentResult(
        experiment_id="ext_detector",
        title="Perf-counter detection of the sender (Section X)",
        columns=["sender scenario", "L1D miss", "L2 miss", "flagged"],
        paper_expectation=(
            "Detectors count misses, 'so counting misses of the sender "
            "only will not detect the attack': F+R(mem) is flagged, the "
            "LRU senders and benign baselines are not."
        ),
    )
    detector = MissRateDetector()
    spec = INTEL_E5_2690

    def judge(machine, label):
        banks = machine.hierarchy.counters()
        verdict = detector.judge(banks, thread_id=1)
        result.rows.append(
            [
                label,
                f"{verdict.l1_miss_rate:.2%}",
                f"{verdict.l2_miss_rate:.2%}",
                "YES" if verdict.flagged else "no",
            ]
        )

    # F+R(mem): the classically detectable sender.
    machine = Machine(spec, rng=rng)
    fr = FlushReloadChannel(machine.hierarchy, 3 * 64, variant="mem")
    for bit in random_message(256, rng=rng):
        fr.transfer_bit(bit)
        for i in range(8):  # ordinary surrounding work
            machine.hierarchy.load(1 << 20 | (i * 64), thread_id=1)
    judge(machine, "F+R (mem) sender")

    # LRU Algorithm 1 sender.
    machine = Machine(spec, rng=rng)
    channel = SharedMemoryLRUChannel.build(spec.hierarchy.l1, 1, d=8)
    protocol = CovertChannelProtocol(
        machine, channel, ProtocolConfig(ts=6000, tr=600)
    )
    protocol.run_hyper_threaded(random_message(48, rng=rng))
    judge(machine, "LRU Alg.1 sender")

    # Benign baseline: a gcc-like workload as "thread 1".
    from repro.workloads.spec_like import get_profile
    from repro.workloads.trace import replay

    machine = Machine(spec, rng=rng)
    replay(
        machine.hierarchy,
        get_profile("gcc").generate(24_000, rng=rng),
        thread_id=1,
        warmup=4_000,
    )
    judge(machine, "benign gcc-like process")
    return result


def _send_window_decoded(bits, config, rng):
    """Transmit ``bits`` and decode with frame synchronization.

    Hamming codes correct substitutions, not bit slips, so the coded
    pipe assumes frame sync (a real deployment embeds pilot patterns;
    the experiment uses the sender's boundary timestamps).  The
    residual channel errors are then pure flips — exactly the error
    model Hamming(7,4) is built for.
    """
    from repro.channels.decoder import window_decode

    machine = Machine(INTEL_E5_2690, rng=rng)
    channel = SharedMemoryLRUChannel.build(machine.spec.hierarchy.l1, 1, d=8)
    protocol = CovertChannelProtocol(machine, channel, config)
    run = protocol.run_hyper_threaded(list(bits))
    return window_decode(run)


@register("ext_coding")
def run_ext_coding(rng: int = 21) -> ExperimentResult:
    """Error-corrected LRU channel: raw vs Hamming(7,4)+interleaving."""
    result = ExperimentResult(
        experiment_id="ext_coding",
        title="Coded transmission over the LRU channel (frame-synced)",
        columns=[
            "noise/Mcyc", "raw flip err", "coded residual err", "rate cost",
        ],
        paper_expectation=(
            "Raw flip-error rates in Figure 4's band shrink by an order "
            "of magnitude under Hamming(7,4)+interleaving at a fixed "
            "7/4 bandwidth cost."
        ),
        notes=(
            "Frame synchronization assumed (window decoder); Hamming "
            "corrects substitutions, not slips."
        ),
    )
    payload = random_message(128, rng=rng)
    pipe = CodedPipe(depth=7)
    for noise in (50.0, 200.0, 400.0):
        # ~4 samples per bit: low enough oversampling that flips
        # survive majority voting, landing raw error in Figure 4's
        # 1-10% band — inside Hamming(7,4)'s correction budget.
        config = ProtocolConfig(
            ts=4500.0, tr=1125.0, noise_events_per_mcycle=noise
        )
        # Raw transmission of the payload itself.
        raw_received = _send_window_decoded(payload, config, rng)
        raw_errors = sum(
            1 for a, b in zip(payload, raw_received) if a != b
        ) + abs(len(payload) - len(raw_received))
        raw_rate = raw_errors / len(payload)

        # Coded transmission of the 7/4-expanded stream.
        coded_bits = pipe.encode(payload)
        coded_received = _send_window_decoded(coded_bits, config, rng)
        decoded = pipe.decode(coded_received, len(payload))
        residual = sum(
            1 for a, b in zip(payload, decoded) if a != b
        ) / len(payload)
        result.rows.append(
            [noise, round(raw_rate, 4), round(residual, 4), "7/4 = 1.75x"]
        )
    return result
