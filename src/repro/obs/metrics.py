"""A lightweight metrics registry: counters, gauges, histograms.

The paper's machinery is measurement, so the reproduction measures
itself: components and post-run collectors feed a
:class:`MetricsRegistry`, and :meth:`MetricsRegistry.snapshot` produces
the ``repro-metrics-v1`` dict that experiment JSON embeds (``repro run
--metrics``, ``repro faults --metrics``) and traced runs append as a
``metrics.snapshot`` record.

Design constraints, in order:

- **deterministic** — snapshots depend only on the run (no wall clock,
  no sampling); histograms use fixed power-of-two buckets rather than
  reservoirs;
- **cheap** — counters are a single attribute add; nothing allocates on
  the hot path;
- **flat** — metric names are dotted strings (``exchange.rejected``),
  snapshots are plain JSON-serializable dicts.

:func:`collect_run_metrics` is the standard harvest: it walks a
finished testbed (sockets, exchanges, NICs, fault injector, optional
toggler) and fills a registry with the catalog documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from repro._fields import check_fields, require_valid
from repro.errors import ObservabilityError

METRICS_SCHEMA = "repro-metrics-v1"

_NUMBER_OR_NULL = (int, float, type(None))

#: The snapshot layout, one field table per JSON object kind, as
#: :mod:`repro._fields` reads them (``docs/OBSERVABILITY.md`` renders
#: them).
METRICS_DOCUMENT: dict[str, dict] = {
    "snapshot": {
        "doc": (
            "Top-level document: what `MetricsRegistry.snapshot()` "
            "returns, `repro run --metrics` writes and a "
            "`metrics.snapshot` record carries."
        ),
        "fields": {
            "schema": (str, f"schema version; always {METRICS_SCHEMA!r}"),
            "counters": (dict, "metric name -> count (an int, never a bool)"),
            "gauges": (
                dict,
                "metric name -> last value set (a number; null if never set)",
            ),
            "histograms": (dict, "metric name -> ``histogram`` object"),
        },
    },
    "histogram": {
        "doc": "One histogram's summary.",
        "fields": {
            "count": (int, "observations"),
            "sum": ((int, float), "sum of the observations"),
            "min": (_NUMBER_OR_NULL, "smallest observation; null before any"),
            "max": (_NUMBER_OR_NULL, "largest observation; null before any"),
            "mean": (_NUMBER_OR_NULL, "sum / count; null before any"),
            "buckets": (
                dict,
                "exponent e (a string) -> observations with "
                "ceil(log2(value)) = e; '0' holds every value <= 1",
            ),
        },
    },
}


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ObservabilityError(
                f"counters only go up; inc({amount}) is not allowed"
            )
        self.value += amount


class Gauge:
    """A point-in-time value (the last ``set`` wins)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = None

    def set(self, value) -> None:
        """Record the current value."""
        self.value = value


class Histogram:
    """A fixed-bucket distribution: count/sum/min/max + log₂ buckets.

    ``observe(v)`` files ``v`` under bucket ``ceil(log2(v))`` (bucket 0
    holds everything ≤ 1).  Power-of-two buckets keep the histogram
    deterministic, allocation-free, and wide enough to span nanoseconds
    to seconds without configuration.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self.buckets: dict[int, int] = {}

    def observe(self, value) -> None:
        """Record one observation (must be non-negative)."""
        if value < 0:
            raise ObservabilityError(
                f"histogram values must be non-negative, got {value}"
            )
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = 0 if value <= 1 else (int(value) - 1).bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self):
        """Mean observation, or None before any."""
        return self.total / self.count if self.count else None

    def to_dict(self) -> dict:
        """JSON-serializable summary (buckets keyed by str exponent)."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


class MetricsRegistry:
    """Named metrics, get-or-create by kind.

    Asking for an existing name with a different kind is an error — a
    metric's identity includes its type.
    """

    def __init__(self):
        self._metrics: dict[str, object] = {}

    def _get_or_create(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls()
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ObservabilityError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create a counter."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create a gauge."""
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """Get or create a histogram."""
        return self._get_or_create(name, Histogram)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def snapshot(self) -> dict:
        """The full registry as a ``repro-metrics-v1`` dict."""
        counters = {}
        gauges = {}
        histograms = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            else:
                histograms[name] = metric.to_dict()
        return {
            "schema": METRICS_SCHEMA,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


def validate_metrics(snapshot) -> list[str]:
    """Check a parsed ``repro-metrics-v1`` snapshot; return its problems.

    Empty list means the snapshot is valid: the field tables hold, every
    counter is an int (not a bool) and every gauge a number or null.
    """
    problems = check_fields(
        snapshot, METRICS_DOCUMENT["snapshot"]["fields"], "metrics"
    )
    if problems:
        return problems
    if snapshot["schema"] != METRICS_SCHEMA:
        problems.append(
            f"metrics: schema is {snapshot['schema']!r}, "
            f"expected {METRICS_SCHEMA!r}"
        )
    problems += _check_values(snapshot["counters"], int, "metrics.counters")
    problems += _check_values(
        snapshot["gauges"], _NUMBER_OR_NULL, "metrics.gauges"
    )
    for name, histogram in snapshot["histograms"].items():
        problems += check_fields(
            histogram, METRICS_DOCUMENT["histogram"]["fields"],
            f"metrics.histograms[{name!r}]",
        )
    return problems


def _check_values(mapping: dict, types, where: str) -> list[str]:
    """Problems with a name -> value map whose values must all be ``types``."""
    return check_fields(mapping, dict.fromkeys(mapping, (types, "")), where)


def require_valid_metrics(snapshot) -> None:
    """Raise :class:`ObservabilityError` unless the snapshot validates."""
    require_valid(
        validate_metrics(snapshot), METRICS_SCHEMA, ObservabilityError
    )


def collect_run_metrics(bed, result=None, toggler=None) -> MetricsRegistry:
    """Harvest the standard metrics catalog from a finished testbed.

    ``bed`` is a :class:`~repro.loadgen.lancet.Testbed`; ``result`` (a
    :class:`~repro.loadgen.lancet.RunResult`) adds the rate/latency
    gauges; ``toggler`` (a :class:`~repro.core.toggler.NagleToggler`)
    adds controller counters and the toggle dwell-time histogram.  The
    catalog is documented field-by-field in ``docs/OBSERVABILITY.md``.
    """
    registry = MetricsRegistry()

    for side in ("client", "server"):
        sock = getattr(bed, f"{side}_sock")
        registry.counter(f"tcp.{side}.retransmits").inc(sock.retransmits)
        registry.counter(f"tcp.{side}.sack_retransmits").inc(
            getattr(sock, "sack_retransmits", 0)
        )
        exchange = getattr(bed, f"{side}_exchange")
        prefix = f"exchange.{side}"
        registry.counter(f"{prefix}.states_sent").inc(exchange.states_sent)
        registry.counter(f"{prefix}.states_received").inc(
            exchange.states_received
        )
        registry.counter(f"{prefix}.states_rejected").inc(
            exchange.states_rejected
        )
        registry.counter(f"{prefix}.rebaselines").inc(exchange.rebaselines)
        registry.counter(f"{prefix}.option_bytes_sent").inc(
            exchange.option_bytes_sent
        )
        registry.counter(f"{prefix}.carrier_acks_sent").inc(
            exchange.carrier_acks_sent
        )

    registry.counter("nic.client.tx_wire_packets").inc(
        bed.client_host.nic.tx_wire_packets
    )
    registry.counter("nic.server.rx_deliveries").inc(
        bed.server_host.nic.rx_deliveries
    )

    if bed.faults is not None:
        summary = bed.faults.summary()
        for direction, hooks in summary["link"].items():
            for key, value in hooks.items():
                registry.counter(f"faults.link.{direction}.{key}").inc(value)
        for direction, hooks in summary["nic"].items():
            for key, value in hooks.items():
                registry.counter(f"faults.nic.{direction}.{key}").inc(value)
        for name, hooks in summary["exchange"].items():
            for key, value in hooks.items():
                registry.counter(f"faults.exchange.{name}.{key}").inc(value)
        registry.counter("faults.stall_windows").inc(summary["stall_windows"])

    if toggler is not None:
        registry.counter("toggler.toggles").inc(toggler.toggles)
        registry.counter("toggler.loss_episodes").inc(toggler.loss_episodes)
        registry.counter("toggler.frozen_ticks").inc(toggler.frozen_ticks)
        registry.counter("toggler.freeze_holds").inc(toggler.freeze_holds)
        registry.gauge("toggler.final_mode").set(int(toggler.mode))
        dwell = registry.histogram("toggler.dwell_ticks")
        last_change = 0
        previous = None
        for index, record in enumerate(toggler.history):
            if previous is not None and record.mode != previous:
                dwell.observe(index - last_change)
                last_change = index
            previous = record.mode

    if result is not None:
        registry.gauge("run.offered_rate").set(result.offered_rate)
        registry.gauge("run.achieved_rate").set(result.achieved_rate)
        registry.gauge("run.latency_mean_ns").set(result.latency.mean_ns)
        registry.gauge("run.latency_p99_ns").set(result.latency.p99_ns)
        registry.gauge("run.client_cpu").set(result.client_cpu)
        registry.gauge("run.server_cpu").set(result.server_cpu)

    return registry
