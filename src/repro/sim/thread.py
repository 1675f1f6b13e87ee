"""A simulated hardware/software thread.

Wraps a generator-based program with its identity (thread id, address
space) and its scheduling state (the cycle at which it can next issue).

A program that repeats a fixed cycle of ops yields a
:class:`~repro.sim.ops.HoldLoop`; the thread then runs the hold instead
of resuming the program, from ``hold_position`` on, until the hold ends.
That position is thread state, so every scheduler route (a kernel or
the per-op route through ``_execute``) goes on where another left off.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.sim.ops import Choose, HoldLoop

#: A thread program: a generator yielding operations from
#: :mod:`repro.sim.ops` and receiving each operation's result.
Program = Generator


class SimThread:
    """One schedulable instruction stream.

    Args:
        name: Human-readable label for traces and errors.
        program_factory: Zero-argument callable returning a fresh
            program generator.  Factories (rather than generators) let a
            thread be restarted for repeated experiment trials.
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
        #: The hold the thread is running, or None, and the index of the
        #: hold's next op.
        self.hold: Optional[HoldLoop] = None
        self.hold_position = 0

    def start(self, at_cycle: float = 0.0) -> None:
        """(Re)start the program from the beginning."""
        self._program = self.program_factory()
        self.ready_at = at_cycle
        self.alive = True
        self.pending_result = None
        self.hold = None
        self.hold_position = 0

    def next_hold_op(self):
        """Take the running hold's next op, a ``Choose`` resolved.

        This is the per-op route through a hold: the caller issues the
        op, and ends the hold (``hold = None``) once a ``ReadTSC`` reads
        at least its deadline; the program then resumes with that
        reading, the thread's ``pending_result``.
        """
        ops = self.hold.ops
        position = self.hold_position
        self.hold_position = position + 1 if position + 1 < len(ops) else 0
        op = ops[position]
        if type(op) is Choose:
            op = op.options[next(op.draws)]
        return op

    def __repr__(self) -> str:
        state = "alive" if self.alive else "stopped"
        return (
            f"SimThread({self.name!r}, tid={self.thread_id}, "
            f"as={self.address_space}, ready_at={self.ready_at:.0f}, {state})"
        )
