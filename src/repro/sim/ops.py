"""Operations a simulated thread can perform.

Thread programs are Python generators that *yield* these operation
records and receive the operation's result back at the yield point — a
tiny coroutine ISA with the four primitives the paper's attack code
needs: memory accesses, busy-waiting, reading the time-stamp counter,
and sleeping until a TSC deadline (Algorithm 3's receiver loop).  A
fifth op, :class:`HoldLoop`, is a loop of the first three as data: the
sender's bit hold (Algorithm 3's ``while TSC < Tlast + Ts``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.common.types import AccessType


@dataclass(frozen=True)
class Access:
    """A memory operation; the scheduler returns its AccessOutcome.

    Attributes mirror :class:`repro.common.types.MemoryAccess` minus the
    thread identity, which the scheduler fills in from the issuing
    thread.
    """

    address: int
    access_type: AccessType = AccessType.LOAD
    locked: bool = False
    unlock: bool = False
    speculative: bool = False
    count: bool = True


@dataclass(frozen=True)
class Compute:
    """Busy work costing a fixed number of cycles; returns None."""

    cycles: float

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ValueError(f"cycles must be >= 0, got {self.cycles}")


@dataclass(frozen=True)
class ReadTSC:
    """Read the current cycle counter; returns the thread's current time.

    Costs ``READ_TSC_COST`` cycles, modeling the serializing timer read.
    """


@dataclass(frozen=True)
class SleepUntil:
    """Stall the thread until the given absolute cycle; returns None.

    This is the ``while TSC < Tlast + Tr`` spin in Algorithm 3, modeled
    as a scheduler-visible stall so other threads run during it.
    """

    cycle: float


@dataclass(frozen=True)
class HoldLoop:
    """Repeat ``ops`` until a ``ReadTSC`` among them reads ``deadline``.

    Returns that reading, the first one at or past ``deadline``.  Every
    op of the loop is one scheduler step, issued exactly as if the
    program had yielded it; the program itself resumes only with the
    final reading.  ``ops`` holds ``Access``, ``Compute`` and ``ReadTSC``
    ops and at least one ``ReadTSC``; a cycle that ends early, at the
    deciding ``ReadTSC``, leaves the ops after it unissued.

    This is Algorithm 3's sender hold, ``while TSC < Tlast + Ts``, as
    data: the hyper-threaded scheduler runs it without resuming the
    program, and skips ahead once the loop reaches a cache fixed point
    (see :meth:`repro.sim.scheduler.HyperThreadedScheduler.run`).
    """

    ops: Tuple
    deadline: float

    def __post_init__(self) -> None:
        ops = tuple(self.ops)
        object.__setattr__(self, "ops", ops)
        for op in ops:
            if not isinstance(op, (Access, Compute, ReadTSC)):
                raise ValueError(f"a hold loop cannot issue {op!r}")
        if not any(isinstance(op, ReadTSC) for op in ops):
            raise ValueError("a hold loop needs a ReadTSC to end it")


#: Cost of one ReadTSC, roughly the rdtsc+serialization cost.
READ_TSC_COST = 10.0

Operation = (Access, Compute, ReadTSC, SleepUntil, HoldLoop)
