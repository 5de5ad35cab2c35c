"""Span tracing from outside ``src/``: wrap the layers' public functions.

The benchmark may not edit the program, so spans are recorded by replacing
public functions with timing wrappers *at class level* (so every bound
method the program captures later — the JobManager's job callbacks, the
PA's counter producers — is already the wrapper) and putting the originals
back afterwards.  :data:`SPAN_MAP` is the whole layer -> function map.

A span is (name, parent, step, duration); self time is duration minus the
time its child spans cover.  Per-agent functions run thousands of times per
step, so spans are folded as they close into one row per
(step, name, parent) — calls, total, self, units — which keeps the trace in
memory at a few dozen rows per step and the per-call cost near a
microsecond.  Rows are written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

ROOT = "bench.harness"
TRACE_COLUMNS = ("phase", "step", "span", "parent", "calls", "total_s", "self_s", "units")
_KEY_BASE = 4096  # a row's key is span index * _KEY_BASE + parent index

# (span name, "module:Owner.attr" | "module:attr", flavour, units)
#   flavour "call" times a call; "gen" times every resume of a generator
#   function (its body runs while the consumer iterates, not at the call);
#   units names how much work one call did, see _UNITS.
SPAN_MAP = (
    ("netsim.topology_build", "repro.netsim.topology:MultiDCTopology.__init__", "call", None),
    ("netsim.build_class_plan", "repro.netsim.fabric:Fabric.build_class_plan", "call", None),
    ("netsim.run_class_plan", "repro.netsim.fabric:Fabric.run_class_plan", "call", "class_probes"),
    ("netsim.probe_many", "repro.netsim.fabric:Fabric.probe_many", "call", "len"),
    ("netsim.probe", "repro.netsim.fabric:Fabric.probe", "call", None),
    ("controller.regenerate", "repro.core.controller.service:PingmeshControllerService.regenerate", "call", None),
    ("controller.get_pinglist", "repro.core.controller.service:PingmeshControllerService.get_pinglist", "call", None),
    ("agent.refresh_pinglist", "repro.core.agent.agent:PingmeshAgent.refresh_pinglist", "call", None),
    ("agent.run_probe_round", "repro.core.agent.agent:PingmeshAgent.run_probe_round", "call", None),
    ("agent.maybe_upload", "repro.core.agent.agent:PingmeshAgent.maybe_upload", "call", None),
    ("agent.perf_counters", "repro.core.agent.agent:PingmeshAgent.perf_counters", "call", None),
    ("agent.counters", "repro.core.agent.counters:LatencyCounters.add_many", "call", None),
    ("agent.counters", "repro.core.agent.counters:LatencyCounters.add_class_round", "call", None),
    ("agent.uploader_flush", "repro.core.agent.uploader:ResultUploader.flush", "call", None),
    ("sharded.run_round", "repro.core.sharded:ShardedFleet.run_round", "call", None),
    ("sharded.serial_part", "repro.core.sharded:FleetShard.run_serial_part", "call", None),
    ("sharded.fold_outcomes", "repro.core.sharded:FleetShard.fold_outcomes", "call", None),
    ("sharded.maybe_upload", "repro.core.sharded:FleetShard.maybe_upload", "call", None),
    ("cosmos.append", "repro.cosmos.store:CosmosStore.append", "call", None),
    ("cosmos.scan", "repro.cosmos.store:CosmosStore.read", "gen", "one"),
    ("cosmos.scan", "repro.cosmos.store:CosmosStore.read_where", "gen", "one"),
    ("cosmos.scan", "repro.cosmos.store:CosmosStore.extents", "gen", "extent_records"),
    # EXTRACT is imported by value, so it is patched where it is used.
    ("cosmos.extract", "repro.core.dsa.scope_jobs:extract", "call", "len"),
    ("dsa.job_10min", "repro.core.dsa.pipeline:DsaPipeline.run_10min_job", "call", None),
    ("dsa.job_1hour", "repro.core.dsa.pipeline:DsaPipeline.run_hourly_job", "call", None),
    ("dsa.job_1day", "repro.core.dsa.pipeline:DsaPipeline.run_daily_job", "call", None),
    ("dsa.sla_track", "repro.core.dsa.sla:SlaTracker.track_scope", "call", None),
    ("dsa.sla_track", "repro.core.dsa.sla:SlaTracker.track_services", "call", None),
    ("dsa.sla_track", "repro.core.dsa.sla:SlaTracker.track_all", "call", None),
    ("dsa.alert_evaluate", "repro.core.dsa.alerts:AlertEngine.evaluate", "call", None),
    ("stream.observe", "repro.stream.aggregator:StreamAggregator.observe_round", "call", None),
    ("stream.observe", "repro.stream.aggregator:StreamAggregator.observe_class_round", "call", None),
    ("stream.tick", "repro.stream.plane:StreamPlane.tick", "call", None),
    ("stream.ingest", "repro.stream.ingest:StreamIngestService.ingest", "call", None),
    ("stream.detect", "repro.stream.detectors:StreamSlaDetector.evaluate", "call", None),
    ("stream.detect", "repro.stream.detectors:StreamInterDcSlaDetector.evaluate", "call", None),
    ("stream.detect", "repro.stream.detectors:EwmaDriftDetector.evaluate", "call", None),
    ("stream.detect", "repro.stream.detectors:StreamBlackholeFeed.evaluate", "call", None),
    ("broker.submit", "repro.broker.broker:MeasurementBroker.submit", "call", None),
    ("broker.inject", "repro.broker.broker:MeasurementBroker.on_fleet_round", "call", "value"),
    ("broker.tick", "repro.broker.broker:MeasurementBroker.tick", "call", None),
    ("autopilot.run_for", "repro.autopilot.environment:AutopilotEnvironment.run_for", "call", None),
    # Two scheduled callbacks, private by name: without them a third of a
    # 4k-server step sat unclaimed in autopilot.run_for (the PA sweep over
    # every agent's counters, the per-tick staleness sweep over every agent).
    ("autopilot.pa_collect", "repro.autopilot.perfcounter:PerfcounterAggregator._collect", "call", None),
    ("system.stream_tick", "repro.core.system:PingmeshSystem._stream_tick", "call", None),
)

# Pinglist bytes cross the controller boundary as XML and are parsed on the
# agent side; counting them needs a hook where the text is still in hand.
BYTES_HOOK = ("controller.get_pinglist.bytes", "repro.core.controller.pinglist:Pinglist.from_xml")

SPAN_NAMES = tuple(dict.fromkeys([name for name, *_ in SPAN_MAP] + [ROOT]))

_UNITS = {
    "len": len,
    "value": int,
    "one": lambda item: 1,
    "class_probes": lambda outcomes: sum(outcome.n for outcome in outcomes),
    "extent_records": lambda extent: len(extent.records),
}


def _resolve(target: str):
    """``"module:Owner.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class Tracer:
    """Collects folded span rows; one instance per traced run."""

    def __init__(self) -> None:
        self.names = list(SPAN_NAMES)
        self._index = {name: i for i, name in enumerate(self.names)}
        self.counters: dict[str, int] = {}
        self.steps: list[tuple[str, str, dict]] = []  # (phase, label, rows)
        self._rows: dict[int, list] = {}
        self._patched: list[tuple[object, str, object]] = []
        # The open spans, innermost last, as two parallel stacks (no object
        # is allocated per call: on a 400 MB heap every extra container
        # brings the next full garbage collection closer).
        self._open: list[int] = [self._index[ROOT]]  # span indices
        self._child_s: list[float] = [0.0]  # time their closed children took
        self._cut_t = perf_counter()
        self.span_cost_s = 0.0

    # -- recording ---------------------------------------------------------

    def _fold(self, idx: int, parent_idx: int, dt: float, child_s: float) -> list:
        key = idx * _KEY_BASE + parent_idx
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = [0, 0.0, 0.0, 0]
        row[0] += 1
        row[1] += dt
        row[2] += dt - child_s
        return row

    def wrap(self, name: str, fn, units=None):
        """A timing wrapper around a plain callable."""
        idx = self._index[name]
        open_spans = self._open
        child_s = self._child_s
        fold = self._fold

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(idx)
            child_s.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                open_spans.pop()
                children = child_s.pop()
                child_s[-1] += dt
                row = fold(idx, open_spans[-1], dt, children)
            if units is not None:
                row[3] += units(result)
            return result

        return span

    def wrap_generator(self, name: str, fn, units=None):
        """A wrapper that times every resume of a generator function.

        Only the generator's own body is timed — what the consumer does
        between items belongs to the consumer's span.  One call is one
        span; the generators wrapped here call no other wrapped function.
        """
        idx = self._index[name]
        open_spans = self._open
        child_s = self._child_s
        fold = self._fold

        @functools.wraps(fn)
        def span(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            busy = 0.0
            count = 0
            try:
                while True:
                    t0 = perf_counter()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        dt = perf_counter() - t0
                        busy += dt
                        child_s[-1] += dt
                    if units is not None:
                        count += units(item)
                    yield item
            finally:
                row = fold(idx, open_spans[-1], busy, 0.0)
                row[3] += count

        return span

    def cut(self, phase: str, label: str) -> None:
        """Close the current step: everything since the last cut becomes
        one group of rows, including the root's own share."""
        now = perf_counter()
        root = self._open[0]
        row = self._fold(root, root, now - self._cut_t, self._child_s[0])
        row[0] = 1
        self.steps.append((phase, label, self._rows))
        self._rows = {}
        self._child_s[0] = 0.0
        self._cut_t = now

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every mapped function with its wrapper."""
        for name, target, flavour, units in SPAN_MAP:
            owner, attr = _resolve(target)
            wrapper = self.wrap_generator if flavour == "gen" else self.wrap
            # _patch calls the lambda at once, so it may close over the loop.
            self._patch(owner, attr, lambda fn: wrapper(name, fn, _UNITS.get(units)))
        counter, target = BYTES_HOOK
        owner, attr = _resolve(target)
        self.counters[counter] = 0

        def count_bytes(fn):
            def from_xml(cls, text):
                self.counters[counter] += len(text)
                return fn(cls, text)

            return from_xml

        self._patch(owner, attr, count_bytes)
        self.span_cost_s = self._calibrate()
        self._cut_t = perf_counter()

    def _patch(self, owner, attr: str, make) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._patched.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Put every original back (the reverse of :meth:`install`)."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def _calibrate(self, n: int = 20000) -> float:
        """Seconds one wrapped call costs beyond the call itself."""

        def noop():
            return None

        wrapped = self.wrap(ROOT, noop)
        t0 = perf_counter()
        for _ in range(n):
            noop()
        bare = perf_counter() - t0
        t0 = perf_counter()
        for _ in range(n):
            wrapped()
        traced = perf_counter() - t0
        self._rows = {}
        self._child_s[0] = 0.0
        return max(traced - bare, 0.0) / n

    # -- read-out ----------------------------------------------------------

    def rows(self):
        """Every folded row, as :data:`TRACE_COLUMNS`."""
        for phase, label, rows in self.steps:
            for key, (calls, total, self_s, units) in rows.items():
                idx, parent = divmod(key, _KEY_BASE)
                yield (
                    phase, label, self.names[idx], self.names[parent],
                    calls, total, self_s, units,
                )

    def totals(self, phase: str | None = None) -> dict[str, dict]:
        """Per span name: calls, total_s, self_s, units (one phase or all)."""
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "units": 0} for name in self.names}
        for row_phase, _label, name, _parent, calls, total, self_s, units in self.rows():
            if phase is not None and row_phase != phase:
                continue
            entry = out[name]
            entry["calls"] += calls
            entry["total_s"] += total
            entry["self_s"] += self_s
            entry["units"] += units
        return out

    def by_parent(self, name: str, parent: str, phase: str | None = None) -> dict:
        """Calls / units of one span under one parent (one phase or all)."""
        out = {"calls": 0, "total_s": 0.0, "units": 0}
        for row_phase, _label, row_name, row_parent, calls, total, _self, units in self.rows():
            if phase is not None and row_phase != phase:
                continue
            if row_name == name and row_parent == parent:
                out["calls"] += calls
                out["total_s"] += total
                out["units"] += units
        return out
