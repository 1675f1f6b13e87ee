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

#: A thread program: a generator yielding operations from
#: :mod:`repro.sim.ops` and receiving each operation's result.
Program = Generator


class Choose:
    """A loop-program element that issues one of ``options`` each time.

    Args:
        options: The prebuilt ops to choose among.
        choice: The drawing function, normally a bound
            ``random.Random.choice``; it is called as ``choice(seq)``
            with a sequence as long as ``options``, and its draw depends
            only on that length.
    """

    __slots__ = ("options", "choice")

    def __init__(self, options: Sequence, choice: Callable[[Sequence], Any]):
        self.options = tuple(options)
        if not self.options:
            raise SimulationError("Choose needs at least one option")
        self.choice = choice


class LoopProgram:
    """A program that repeats a fixed cycle of prebuilt ops forever.

    ``ops`` holds operations from :mod:`repro.sim.ops` and
    :class:`Choose` elements; results are never read.  ``position`` is
    the index of the next op to issue, and it is the program's only
    state besides the RNGs its ``Choose`` elements draw from.

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
                op = op.choice(op.options)
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

    def start(self, at_cycle: float = 0.0) -> None:
        """(Re)start the program from the beginning."""
        self._program = self.program_factory()
        self.ready_at = at_cycle
        self.alive = True
        self.pending_result = None

    def next_operation(self):
        """Advance the program one step, delivering the prior result.

        Returns the next operation, or None when the program finished.
        """
        if not self.alive or self._program is None:
            raise SimulationError(f"thread {self.name!r} is not running")
        try:
            op = self._program.send(self.pending_result)
        except StopIteration:
            self.alive = False
            return None
        self.pending_result = None
        return op

    def deliver(self, result: Any) -> None:
        """Stash an operation's result for the next program step."""
        self.pending_result = result

    def __repr__(self) -> str:
        state = "alive" if self.alive else "stopped"
        return (
            f"SimThread({self.name!r}, tid={self.thread_id}, "
            f"as={self.address_space}, ready_at={self.ready_at:.0f}, {state})"
        )
