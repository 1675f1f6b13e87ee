"""Host-time spans for the traced benchmark run, and their arithmetic.

The benchmark wraps public functions at layer boundaries from the
outside (no code under ``src/`` changes): each call records one span
with a name, start, end, the span that caused it, and an ``id`` naming
the experiment unit or service request it served.  Spans stay in memory
and are written once, when the run ends.

Parent links travel in a :class:`contextvars.ContextVar`, so they are
right within one thread and within one asyncio task; work handed to an
executor thread starts a new root (its ``parent`` is ``None``).
"""

from __future__ import annotations

import contextvars
import functools
from contextlib import contextmanager
import inspect
import itertools
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "bench_span", default=None
)
_OP_ID: contextvars.ContextVar = contextvars.ContextVar(
    "bench_op_id", default=""
)


class SpanRecorder:
    """Collects spans from wrapped functions; installs and removes wraps."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._ids = itertools.count(1)
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self) -> Tuple[int, Optional[int], object]:
        number = next(self._ids)
        parent = _CURRENT.get()
        return number, parent, _CURRENT.set(number)

    def _close(self, name, span_id, number, parent, token, start, extra):
        end = time.perf_counter()
        _CURRENT.reset(token)
        span = {
            "span": number,
            "parent": parent,
            "name": name,
            "id": span_id,
            "start": start,
            "end": end,
        }
        if extra:
            span.update(extra)
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, span_id: str):
        """Record one root-level operation; wrapped calls inside inherit its id."""
        op_token = _OP_ID.set(span_id)
        number, parent, token = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, span_id, number, parent, token, start, None)
            _OP_ID.reset(op_token)

    def wrap(
        self,
        name: str,
        fn: Callable,
        id_of: Optional[Callable] = None,
        extra_of: Optional[Callable] = None,
    ) -> Callable:
        """A span-recording wrapper around ``fn`` (sync or coroutine).

        ``id_of(args, kwargs)`` names the unit the call served (default:
        the enclosing benchmark operation); ``extra_of(args, kwargs)``
        adds fields such as bytes written.
        """
        recorder = self

        def describe(args, kwargs):
            span_id = id_of(args, kwargs) if id_of else _OP_ID.get()
            extra = extra_of(args, kwargs) if extra_of else None
            return span_id, extra

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span_id, extra = describe(args, kwargs)
                number, parent, token = recorder._open()
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    recorder._close(
                        name, span_id, number, parent, token, start, extra
                    )

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, extra = describe(args, kwargs)
            number, parent, token = recorder._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                recorder._close(
                    name, span_id, number, parent, token, start, extra
                )

        return wrapper

    def patch(self, owner: object, attr: str, name: str, **kwargs) -> None:
        """Replace ``owner.attr`` with a wrapped version until :meth:`unpatch`.

        ``owner`` is a class (for methods) or a module.  A function that
        a caller bound with ``from ... import`` is patched on the
        caller's module, which is where the call looks it up.
        """
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **kwargs))

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Arithmetic over recorded spans
# ----------------------------------------------------------------------


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Dict]) -> Dict[int, float]:
    """Per span: its duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return {
        span["span"]: (span["end"] - span["start"])
        - covered(children.get(span["span"], ()), span["start"], span["end"])
        for span in spans
    }


def layer_table(spans: Sequence[Dict]) -> List[Dict]:
    """Per span name: calls, inclusive seconds, self seconds, self share."""
    own = self_times(spans)
    rows: Dict[str, Dict] = {}
    for span in spans:
        row = rows.setdefault(
            span["name"],
            {"layer": span["name"], "calls": 0, "total_s": 0.0, "self_s": 0.0},
        )
        row["calls"] += 1
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += own[span["span"]]
    total_self = sum(row["self_s"] for row in rows.values()) or 1.0
    table = sorted(rows.values(), key=lambda row: -row["self_s"])
    for row in table:
        row["self_frac"] = row["self_s"] / total_self
    return table


def render_layer_table(table: Sequence[Dict]) -> str:
    """The per-layer table as fixed-width text."""
    lines = [f"{'layer':<32} {'calls':>8} {'total_s':>10} {'self_s':>10} {'self%':>7}"]
    for row in table:
        lines.append(
            f"{row['layer']:<32} {row['calls']:>8} {row['total_s']:>10.4f} "
            f"{row['self_s']:>10.4f} {100 * row['self_frac']:>6.1f}%"
        )
    return "\n".join(lines)


#: Builtins whose time is a thread waiting, not working.
BLOCKING_BUILTINS = (
    "'get' of '_queue", "'recv", "'poll'", "'select'", "'acquire'",
    "sleep", "'_accept'",
)


def profile_shares(stats: Dict, src_root: str, modules: Sequence[str]) -> Dict[str, float]:
    """Self-time share per ``repro`` subpackage from a pstats table.

    ``stats`` is ``pstats.Stats(...).stats``.  Builtins (C functions)
    form their own bucket, minus the calls that block a thread (queue
    gets, socket reads, polls, lock waits, sleeps): the shares are of
    busy time.  Code outside ``src/repro`` lands in ``other``, and
    top-level ``repro/*.py`` files in ``repro``.
    """
    shares = {name: 0.0 for name in modules}
    prefix = src_root.rstrip("/") + "/repro/"
    for (filename, _line, func), entry in stats.items():
        tottime = entry[2]
        if filename == "~":
            if any(wait in func for wait in BLOCKING_BUILTINS):
                continue
            bucket = "builtins"
        elif filename.startswith(prefix):
            rest = filename[len(prefix):]
            bucket = rest.split("/", 1)[0] if "/" in rest else "repro"
        else:
            bucket = "other"
        if bucket not in shares:
            bucket = "other"
        shares[bucket] += tottime
    total = sum(shares.values()) or 1.0
    return {name: value / total for name, value in shares.items()}
