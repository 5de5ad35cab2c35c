"""The streaming telemetry plane: near-real-time analysis beside batch DSA.

The paper concedes that "the minimum latency data analysis response time
... is 10 minutes" (the SCOPE batch cadence) and names near-real-time
analysis as future work (§7).  This package is that future work: a second,
always-on analytics plane that runs *beside* the batch DSA path and fires
SLA alerts with seconds of detection latency instead of minutes.

* :mod:`repro.stream.sketch` — a constant-memory, **mergeable**
  log-bucketed quantile sketch (DDSketch-style relative-error bound) plus
  the drop-rate accumulator, bundled as :class:`ClassStats`.
* :mod:`repro.stream.aggregator` — the per-agent :class:`StreamAggregator`
  that folds every probe outcome into per-peer-class sketches and emits
  compact :class:`StreamDelta`\\ s on a sub-window boundary (default 10 s).
* :mod:`repro.stream.ingest` — the :class:`StreamIngestService`, fronted by
  a :class:`~repro.core.controller.slb.SoftwareLoadBalancer` VIP, merging
  deltas into a windowed merge tree keyed ``(dc, podset, pod, class)`` with
  ring-buffer retention.
* :mod:`repro.stream.detectors` — online detectors: SLA thresholds (the
  same ``MAX_*`` limits of :mod:`repro.core.dsa.alerts` as batch), EWMA
  drift, and the streaming black-hole candidate feed.
* :mod:`repro.stream.plane` — :class:`StreamPlane`, the assembly the
  :class:`~repro.core.system.PingmeshSystem` drives.

The batch plane stays authoritative: streaming results are bounded-error
approximations (the sketch's declared relative accuracy), verified against
the columnar SCOPE results by the parity gate in
``tests/integration/test_stream_plane.py``.
"""

from repro.stream.aggregator import StreamAggregator, StreamDelta
from repro.stream.detectors import (
    EwmaDriftDetector,
    StreamBlackholeCandidate,
    StreamBlackholeFeed,
    StreamSlaDetector,
)
from repro.stream.ingest import StreamIngestService
from repro.stream.plane import StreamConfig, StreamPlane
from repro.stream.sketch import ClassStats, LatencySketch

__all__ = [
    "ClassStats",
    "EwmaDriftDetector",
    "LatencySketch",
    "StreamAggregator",
    "StreamBlackholeCandidate",
    "StreamBlackholeFeed",
    "StreamConfig",
    "StreamDelta",
    "StreamIngestService",
    "StreamPlane",
    "StreamSlaDetector",
]
