"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The registry is the mutable half of the observability layer (the
immutable half is the catalogue in :mod:`repro.obs.catalog`).  Emitting
modules fetch metric handles once — typically at construction time, via
:mod:`repro.obs.instruments` — and bump them on the hot path with plain
attribute arithmetic; nothing here allocates, hashes, or formats per
event.

Every name is validated against the catalogue at fetch time, so a typo
raises :class:`~repro.common.errors.ObservabilityError` at the emission
site instead of producing a silently-empty series.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ObservabilityError
from repro.obs.catalog import LATENCY_EDGES_CYCLES, METRIC_CATALOG, MetricSpec


class Counter:
    """A monotonically increasing count (events, cycles, bits...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n=1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value; each ``set`` replaces the previous one."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = None

    def set(self, value) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket-edge distribution (edges in cycles, plus overflow).

    Buckets are half-open intervals ``(edge[i-1], edge[i]]``; a value
    above the last edge lands in the overflow bucket.  Edges are fixed
    at construction so histograms from different runs are mergeable and
    comparable bucket-by-bucket.
    """

    __slots__ = ("edges", "counts", "count", "total")

    def __init__(self, edges: Tuple[float, ...] = LATENCY_EDGES_CYCLES):
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ObservabilityError(
                f"histogram edges must be strictly increasing, got {edges}"
            )
        self.edges = tuple(edges)
        self.counts: List[int] = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value

    def observe_many(self, value, n: int) -> None:
        """Exactly ``n`` calls of :meth:`observe` with one value.

        ``total`` takes the same ``n`` float additions in the same
        order, so it matches to the last bit.
        """
        self.counts[bisect_left(self.edges, value)] += n
        self.count += n
        total = self.total
        for _ in range(n):
            total += value
        self.total = total

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Holds every live metric of one observed run.

    Handles are created lazily on first fetch and cached, so two call
    sites asking for the same (name, label) share one series.
    """

    def __init__(self, catalog: Optional[Dict[str, MetricSpec]] = None):
        self.catalog = METRIC_CATALOG if catalog is None else catalog
        self._counters: Dict[Tuple[str, Optional[str]], Counter] = {}
        self._gauges: Dict[Tuple[str, Optional[str]], Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- handle fetch ---------------------------------------------------

    def _spec(self, name: str, kind: str, label: Optional[str]) -> MetricSpec:
        spec = self.catalog.get(name)
        if spec is None:
            raise ObservabilityError(
                f"metric {name!r} is not in the catalogue; declare it in "
                "repro/obs/catalog.py before emitting it"
            )
        if spec.kind != kind:
            raise ObservabilityError(
                f"metric {name!r} is declared as a {spec.kind}, not a {kind}"
            )
        if label is not None and not spec.labelled:
            raise ObservabilityError(
                f"metric {name!r} is not declared as labelled"
            )
        return spec

    def counter(self, name: str, label: Optional[str] = None) -> Counter:
        self._spec(name, "counter", label)
        key = (name, label)
        handle = self._counters.get(key)
        if handle is None:
            handle = self._counters[key] = Counter()
        return handle

    def gauge(self, name: str, label: Optional[str] = None) -> Gauge:
        self._spec(name, "gauge", label)
        key = (name, label)
        handle = self._gauges.get(key)
        if handle is None:
            handle = self._gauges[key] = Gauge()
        return handle

    def histogram(
        self, name: str, edges: Tuple[float, ...] = LATENCY_EDGES_CYCLES
    ) -> Histogram:
        self._spec(name, "histogram", None)
        handle = self._histograms.get(name)
        if handle is None:
            handle = self._histograms[name] = Histogram(edges)
        return handle

    # -- export ---------------------------------------------------------

    def snapshot(self) -> Dict:
        """Plain-data dump of every live series (JSON-serialisable).

        Counters and gauges appear as ``name -> value`` for unlabelled
        metrics and ``name -> {label: value}`` for labelled ones;
        histograms carry their edges so a snapshot is self-describing.
        """
        counters: Dict = {}
        for (name, label), handle in sorted(
            self._counters.items(), key=lambda item: (item[0][0], item[0][1] or "")
        ):
            if label is None:
                counters[name] = handle.value
            else:
                counters.setdefault(name, {})[label] = handle.value
        gauges: Dict = {}
        for (name, label), handle in sorted(
            self._gauges.items(), key=lambda item: (item[0][0], item[0][1] or "")
        ):
            if handle.value is None:
                continue
            if label is None:
                gauges[name] = handle.value
            else:
                gauges.setdefault(name, {})[label] = handle.value
        histograms = {
            name: {
                "edges": list(handle.edges),
                "counts": list(handle.counts),
                "count": handle.count,
                "sum": handle.total,
            }
            for name, handle in sorted(self._histograms.items())
        }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
