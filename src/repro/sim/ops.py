"""Operations a simulated thread can perform.

Thread programs are Python generators that *yield* these operation
records and receive the operation's result back at the yield point — a
tiny coroutine ISA with the four primitives the paper's attack code
needs: memory accesses, busy-waiting, reading the time-stamp counter,
and sleeping until a TSC deadline (Algorithm 3's receiver loop).  A
fifth op, :class:`HoldLoop`, is a loop of the first three as data, and
the one way to say "repeat these ops": the sender's bit hold (Algorithm
3's ``while TSC < Tlast + Ts``), the time-sliced constant sender and the
background noise thread.  A hold may also repeat a :class:`Choose`,
which issues one of its options each time round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple

from repro.common.errors import SimulationError
from repro.common.rng import RngLike, choice_stream, make_rng
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
    #: Counted, and not speculative, locking, unlocking or a flush: the
    #: kernels do a plain access in place on an L1 that the scheduler's
    #: ``_plain_l1()`` accepts.
    plain: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "plain",
            self.count
            and not (self.speculative or self.locked or self.unlock)
            and self.access_type is not AccessType.FLUSH,
        )


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


class Choose:
    """A hold element that issues one of ``options`` each time round.

    Args:
        options: The prebuilt ``Access``, ``Compute`` or ``ReadTSC`` ops
            to choose among.
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
        for option in self.options:
            if type(option) not in _LOOP_OPS:
                raise SimulationError(f"Choose cannot issue {option!r}")
        self.rng = make_rng(rng)
        #: The stream of option indices; every scheduler route reads it.
        self.draws = choice_stream(self.rng, len(self.options))


@dataclass(frozen=True)
class HoldLoop:
    """Repeat ``ops`` until a ``ReadTSC`` among them reads ``deadline``.

    Returns that reading, the first one at or past ``deadline``.  Every
    op of the loop is one scheduler step, issued exactly as if the
    program had yielded it; the program itself resumes only with the
    final reading.  ``ops`` holds ``Access``, ``Compute``, ``ReadTSC``
    and :class:`Choose` elements, and a finite ``deadline`` needs a
    ``ReadTSC`` among them; a cycle that ends early, at the deciding
    ``ReadTSC``, leaves the ops after it unissued.  With
    ``deadline=math.inf`` the hold repeats for as long as the thread
    runs.

    This is Algorithm 3's sender hold, ``while TSC < Tlast + Ts``, as
    data.  Both schedulers' kernels run it without resuming the program
    (see :meth:`repro.sim.scheduler._SchedulerBase._lower_ops`); the
    thread's ``hold_position`` is its only state besides its
    ``Choose`` elements' draws, so a hold begun on one route goes on
    from the same op on another.
    """

    ops: Tuple
    deadline: float

    def __post_init__(self) -> None:
        ops = tuple(self.ops)
        object.__setattr__(self, "ops", ops)
        if not ops:
            raise ValueError("a hold loop needs at least one op")
        for op in ops:
            if type(op) not in _LOOP_OPS and type(op) is not Choose:
                raise ValueError(f"a hold loop cannot issue {op!r}")
        if self.deadline != math.inf and ReadTSC() not in ops:
            raise ValueError("a hold loop needs a ReadTSC to end it")


#: The ops a hold loop, or one of its ``Choose`` elements, may issue.
_LOOP_OPS = (Access, Compute, ReadTSC)

#: Cost of one ReadTSC, roughly the rdtsc+serialization cost.
READ_TSC_COST = 10.0
