"""A simulated hardware/software thread.

Wraps a generator-based program with its identity (thread id, address
space) and its scheduling state (the cycle at which it can next issue).

Most programs are generator functions.  A program that ignores every
result and repeats one fixed cycle of ops forever (the time-sliced
constant sender and background noise) is a :class:`LoopProgram`
instead: the same program as data, which the time-sliced scheduler can
run without resuming a generator per op.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Sequence

from repro.common.errors import SimulationError
from repro.common.rng import RngLike, choice_stream, make_rng
from repro.sim.ops import HoldLoop, ReadTSC

#: A thread program: a generator yielding operations from
#: :mod:`repro.sim.ops` and receiving each operation's result.
Program = Generator


class Choose:
    """A loop-program element that issues one of ``options`` each time.

    Args:
        options: The prebuilt ops to choose among.
        rng: The element's own RNG (see
            :func:`~repro.common.rng.make_rng`).  It draws exactly the
            indices ``rng.choice(options)`` would, read ahead in blocks
            from :func:`~repro.common.rng.choice_stream`, so nothing
            else may draw from it.
    """

    __slots__ = ("options", "rng", "draws")

    def __init__(self, options: Sequence, rng: RngLike):
        self.options = tuple(options)
        if not self.options:
            raise SimulationError("Choose needs at least one option")
        self.rng = make_rng(rng)
        #: The stream of option indices; every scheduler path reads it.
        self.draws = choice_stream(self.rng, len(self.options))


class LoopProgram:
    """A program that repeats a fixed cycle of prebuilt ops forever.

    ``ops`` holds operations from :mod:`repro.sim.ops` and
    :class:`Choose` elements; results are never read.  ``position`` is
    the index of the next op to issue, and it is the program's only
    state besides its ``Choose`` elements' RNGs and index streams.

    The instance is its own program factory: calling it restarts at the
    first op and returns the generator form, which reads and advances
    the same ``position``.  A scheduler that walks ``ops`` directly (the
    time-sliced slice kernel) and the generator can therefore take turns
    on one thread without drifting apart.
    """

    __slots__ = ("ops", "position")

    def __init__(self, ops: Sequence):
        self.ops = tuple(ops)
        if not self.ops:
            raise SimulationError("a loop program needs at least one op")
        self.position = 0

    def __call__(self) -> Program:
        self.position = 0
        return self._steps()

    def _steps(self) -> Program:
        ops = self.ops
        last = len(ops) - 1
        while True:
            position = self.position
            op = ops[position]
            self.position = 0 if position == last else position + 1
            if type(op) is Choose:
                op = op.options[next(op.draws)]
            yield op


class SimThread:
    """One schedulable instruction stream.

    Args:
        name: Human-readable label for traces and errors.
        program_factory: Zero-argument callable returning a fresh
            program generator, or a :class:`LoopProgram`.  Factories
            (rather than generators) let a thread be restarted for
            repeated experiment trials.
        thread_id: Identity used for performance counters.
        address_space: Virtual address space id; threads of one process
            share a space (pthread senders in Section VI-B), separate
            processes do not.
    """

    def __init__(
        self,
        name: str,
        program_factory: Callable[[], Program],
        thread_id: int = 0,
        address_space: int = 0,
    ):
        self.name = name
        self.program_factory = program_factory
        self.thread_id = thread_id
        self.address_space = address_space
        self.ready_at: float = 0.0
        self.alive = False
        self.pending_result: Any = None
        self._program: Optional[Program] = None
        #: Cycle at which the thread went to sleep, while fault models
        #: are attached; the scheduler charges wake stalls from it.
        self._slept_from: Optional[float] = None
        #: The hold the hyper-threaded op kernel is running for this
        #: thread, only during a kernel run (see ``expand_hold``).
        self._hold = None

    def start(self, at_cycle: float = 0.0) -> None:
        """(Re)start the program from the beginning."""
        self._program = self.program_factory()
        self.ready_at = at_cycle
        self.alive = True
        self.pending_result = None
        self._hold = None

    def expand_hold(self, hold: HoldLoop, position: int = 0) -> None:
        """Issue ``hold`` op by op from ``hold.ops[position]`` on.

        The thread's program is replaced by a generator that yields the
        hold's ops in cycle order until a ``ReadTSC`` among them reads
        at least the deadline.  That generator then hands the reading
        to the program, puts the program back and yields the program's
        next op: the op stream of the loop the hold stands for.  A
        scheduler that does not run a hold itself issues it this way,
        through its ordinary per-op path; the next op is the program's
        next ``send(None)``.
        """
        self._program = self._holding(hold, position, self._program)
        self.pending_result = None

    def _holding(self, hold: HoldLoop, position: int, program: Program):
        ops = hold.ops
        last = len(ops) - 1
        deadline = hold.deadline
        while True:
            op = ops[position]
            position = 0 if position == last else position + 1
            result = yield op
            if isinstance(op, ReadTSC) and result >= deadline:
                break
        self._program = program
        try:
            op = program.send(result)
        except StopIteration:
            return
        yield op

    def __repr__(self) -> str:
        state = "alive" if self.alive else "stopped"
        return (
            f"SimThread({self.name!r}, tid={self.thread_id}, "
            f"as={self.address_space}, ready_at={self.ready_at:.0f}, {state})"
        )
