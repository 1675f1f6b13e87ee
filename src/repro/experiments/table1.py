"""Table I — probability of line 0 being evicted under (P)LRU.

The paper's own in-house-simulator experiment, reproduced exactly: for
each policy (LRU, Tree-PLRU, Bit-PLRU), access sequence (Sequence 1 =
Algorithm 1's 0..8 in order; Sequence 2 = Algorithm 2's 0..7 with random
insertions of line x), initial condition (random vs sequential), and
loop-iteration count, measure how often line 0 has been evicted.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.rng import RngLike, make_rng, spawn_rng
from repro.experiments.base import ExperimentResult, register
from repro.replacement import make_policy
from repro.replacement.base import ReplacementPolicy
from repro.replacement.tables import (
    EAGER_STATE_BUDGET,
    TABLEABLE_POLICIES,
    TabledPolicy,
    estimated_state_count,
)

WAYS = 8
#: "Line" identifiers: 0..7 are the base lines, 8 is the extra line
#: (Sequence 1) and X the random-insertion line (Sequence 2).
LINE_X = 100
LINE_8 = 8


def _line_stream(
    sequence: int, condition: str, iterations: int, rng
) -> List[int]:
    """The logical lines one trial accesses, warm-up first, in order.

    No draw depends on cache state, so the whole stream is drawn before
    the set is simulated, in the same order the draws are consumed.
    """
    lines: List[int] = []
    append = lines.append
    draw = rng.random
    if condition == "random":
        # Random access order over lines 0-7 plus occasional others.
        choices = list(range(8)) + [LINE_X]
        for _ in range(32):
            append(rng.choice(choices))
        # Ensure line 0 is resident so eviction is meaningful.
        append(0)
    else:
        # Sequential: lines 0-7 in order with 50%-probability insertions
        # of line x (the paper's Sequence-2-style warmup).  Two passes:
        # enough to establish sequential ordering without fully
        # pre-converging every policy to its limit cycle (which would
        # erase the iteration-count dependence Table I measures).
        for _ in range(2):
            for line in range(8):
                append(line)
                if draw() < 0.5:
                    append(LINE_X)
    for _ in range(iterations):
        if sequence == 1:
            lines.extend(range(9))  # 0..8 in order
            continue
        # 0..7 with 50%-probability insertions of x; the paper assumes
        # "line x will be accessed at least once", so force one
        # insertion if the coin flips all came up tails.
        inserted = False
        for line in range(8):
            append(line)
            if line < 7 and draw() < 0.5:
                append(LINE_X)
                inserted = True
        if not inserted:
            append(LINE_X)
    return lines


def _line0_evicted(lines: List[int], policy: ReplacementPolicy) -> bool:
    """Run ``lines`` through one empty 8-way set; is line 0 gone?

    The controller's hit/fill rules on a ``line -> way`` map: a hit
    touches its way, a miss fills the lowest invalid way while one is
    left (ways fill in order and are never invalidated) and otherwise
    replaces the policy's victim, and a fill updates the state through
    ``on_fill`` where the policy has one.
    """
    touch = policy.touch
    fill = getattr(policy, "on_fill", touch)
    victim = policy.victim
    way_of: Dict[int, int] = {}
    resident: List[int] = []  # the line in each filled way
    for line in lines:
        way = way_of.get(line)
        if way is not None:
            touch(way)
            continue
        if len(resident) < WAYS:
            way = len(resident)
            resident.append(line)
        else:
            way = victim()
            del way_of[resident[way]]
            resident[way] = line
        way_of[line] = way
        fill(way)
    return 0 not in way_of


def eviction_probability(
    policy: str,
    sequence: int,
    condition: str,
    iterations: int,
    trials: int = 2000,
    rng: RngLike = None,
) -> float:
    """P(line 0 evicted after ``iterations`` loop passes).

    Policies whose 8-way state space closes within the eager budget run
    on the compiled tables (:class:`TabledPolicy`); true LRU (8! states,
    grown lazily) and ``random`` (draws, no table) run the reference
    policy.
    """
    if policy == "random":
        reused = None
    elif (
        policy in TABLEABLE_POLICIES
        and estimated_state_count(policy, WAYS) <= EAGER_STATE_BUDGET
    ):
        reused = TabledPolicy(WAYS, base=policy)
    else:
        reused = make_policy(policy, WAYS)
    master = make_rng(rng)
    evicted = 0
    for _ in range(trials):
        trial_rng = spawn_rng(master, "trial")
        if reused is None:
            set_policy = make_policy(
                policy, WAYS, rng=spawn_rng(trial_rng, "policy")
            )
        else:
            # The seed draw of spawn_rng(trial_rng, "policy"): every
            # policy consumes the trial stream alike, though only
            # ``random`` needs the policy stream itself.
            trial_rng.getrandbits(64)
            reused.reset()
            set_policy = reused
        lines = _line_stream(sequence, condition, iterations, trial_rng)
        if _line0_evicted(lines, set_policy):
            evicted += 1
    return evicted / trials


#: The paper's Table I cells, for side-by-side comparison in the output.
PAPER_TABLE1: Dict[Tuple[str, int, str, int], float] = {
    ("lru", 1, "random", 1): 1.00, ("lru", 2, "random", 1): 1.00,
    ("tree-plru", 1, "random", 1): 0.504, ("tree-plru", 2, "random", 1): 0.627,
    ("bit-plru", 1, "random", 1): 0.385, ("bit-plru", 2, "random", 1): 0.555,
    ("tree-plru", 1, "random", 2): 0.828, ("tree-plru", 2, "random", 2): 0.656,
    ("bit-plru", 1, "random", 2): 0.556, ("bit-plru", 2, "random", 2): 0.697,
    ("tree-plru", 1, "random", 3): 0.992, ("tree-plru", 2, "random", 3): 0.642,
    ("bit-plru", 1, "random", 3): 0.673, ("bit-plru", 2, "random", 3): 0.801,
    ("tree-plru", 1, "random", 8): 1.00, ("tree-plru", 2, "random", 8): 0.62,
    ("bit-plru", 1, "random", 8): 1.00, ("bit-plru", 2, "random", 8): 0.99,
    ("tree-plru", 1, "sequential", 1): 0.909, ("tree-plru", 2, "sequential", 1): 0.756,
    ("bit-plru", 1, "sequential", 1): 0.604, ("bit-plru", 2, "sequential", 1): 0.610,
    ("tree-plru", 1, "sequential", 2): 1.00, ("tree-plru", 2, "sequential", 2): 0.659,
    ("bit-plru", 1, "sequential", 2): 0.630, ("bit-plru", 2, "sequential", 2): 0.641,
    ("tree-plru", 1, "sequential", 3): 1.00, ("tree-plru", 2, "sequential", 3): 0.640,
    ("bit-plru", 1, "sequential", 3): 0.673, ("bit-plru", 2, "sequential", 3): 0.703,
    ("tree-plru", 1, "sequential", 8): 1.00, ("tree-plru", 2, "sequential", 8): 0.62,
    ("bit-plru", 1, "sequential", 8): 1.00, ("bit-plru", 2, "sequential", 8): 0.99,
}


@register("table1")
def run_table1(trials: int = 2000, rng: RngLike = 1) -> ExperimentResult:
    """Regenerate Table I."""
    result = ExperimentResult(
        experiment_id="table1",
        title="Probability of line 0 being evicted with PLRU",
        columns=[
            "init", "iters", "policy", "sequence", "ours", "paper",
        ],
        paper_expectation=(
            "LRU always evicts line 0; sequential init gives higher "
            "eviction probability than random; Tree-PLRU Seq-1 reaches "
            "100% by ~3 iterations; Seq-2 plateaus near 62% (Tree) / "
            "99% (Bit)."
        ),
    )
    for condition in ("random", "sequential"):
        for iterations in (1, 2, 3, 8):
            for policy in ("lru", "tree-plru", "bit-plru"):
                for sequence in (1, 2):
                    ours = eviction_probability(
                        policy, sequence, condition, iterations,
                        trials=trials, rng=rng,
                    )
                    paper = PAPER_TABLE1.get(
                        (policy, sequence, condition, iterations),
                        1.00 if policy == "lru" else None,
                    )
                    result.rows.append(
                        [
                            condition,
                            iterations,
                            policy,
                            f"Seq {sequence}",
                            round(ours, 3),
                            paper if paper is not None else "-",
                        ]
                    )
    return result
