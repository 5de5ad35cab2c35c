"""Streaming anomaly detection on SLA metric series.

§4.3 closes with: "There are huge opportunities in using data mining and
machine learning to get more value out of the Pingmesh data."  This module
is a first, deliberately simple step past the fixed thresholds: an
exponentially-weighted moving average (EWMA) with variance tracking flags
windows whose metric deviates from its own history by more than
``z_threshold`` standard deviations.

Two properties matter operationally:

* it adapts to each series' *own* baseline — a service whose P99 always
  sits at 900 µs is not compared against another's 300 µs;
* it is robust to the Figure 5 periodic sync bumps once they are part of
  the learned variance, while still firing on genuinely novel excursions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["EwmaBaseline", "EwmaDetector", "AnomalyVerdict", "SeriesAnomalyTracker"]


class EwmaBaseline:
    """Exponentially weighted mean and variance of one series.

    The first value seeds the mean, with no variance; each later one moves
    the mean ``alpha`` of the way to itself and folds its squared distance
    into the variance.  Both EWMA detectors — this module's per-SLA-series
    one and the stream plane's P50 drift — keep their baseline here and add
    only their own rule for flagging a value and for what they fold in.
    """

    __slots__ = ("alpha", "mean", "var", "n")

    def __init__(self, alpha: float) -> None:
        self.alpha = alpha
        self.mean = 0.0
        self.var = 0.0
        self.n = 0  # values folded in

    def update(self, value: float) -> None:
        if self.n == 0:
            self.mean = value
        else:
            delta = value - self.mean
            self.mean += self.alpha * delta
            self.var = (1.0 - self.alpha) * (self.var + self.alpha * delta * delta)
        self.n += 1


@dataclass(frozen=True)
class AnomalyVerdict:
    """The detector's judgement of one observation."""

    value: float
    mean: float
    std: float
    z_score: float
    anomalous: bool
    warmed_up: bool


class EwmaDetector:
    """EWMA mean/variance tracker with z-score flagging for one series."""

    def __init__(
        self,
        alpha: float = 0.1,
        z_threshold: float = 4.0,
        warmup_observations: int = 10,
        min_std_fraction: float = 0.05,
    ) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0,1]: {alpha}")
        if z_threshold <= 0:
            raise ValueError(f"z_threshold must be positive: {z_threshold}")
        if warmup_observations < 2:
            raise ValueError(
                f"warmup_observations must be >= 2: {warmup_observations}"
            )
        self.alpha = alpha
        self.z_threshold = z_threshold
        self.warmup_observations = warmup_observations
        self.min_std_fraction = min_std_fraction
        self._baseline = EwmaBaseline(alpha)
        self._count = 0

    def observe(self, value: float) -> AnomalyVerdict:
        """Judge one observation, then fold it into the baseline.

        Anomalous observations are *not* folded in (a live incident must
        not teach the detector that incidents are normal).
        """
        self._count += 1
        warmed = self._count > self.warmup_observations
        baseline = self._baseline
        if baseline.n == 0:
            baseline.update(value)
            return AnomalyVerdict(value, value, 0.0, 0.0, False, False)

        # A floor keeps near-constant series from flagging on float dust.
        std = math.sqrt(baseline.var)
        floor = abs(baseline.mean) * self.min_std_fraction
        effective_std = max(std, floor, 1e-12)
        z = (value - baseline.mean) / effective_std
        anomalous = warmed and abs(z) > self.z_threshold
        verdict = AnomalyVerdict(
            value=value,
            mean=baseline.mean,
            std=effective_std,
            z_score=z,
            anomalous=anomalous,
            warmed_up=warmed,
        )
        if not anomalous:
            baseline.update(value)
        return verdict


@dataclass
class SeriesAnomalyTracker:
    """One EWMA detector per (scope, key, metric) series.

    Feed it SLA rows (the ``sla_hourly`` table's shape); it returns the
    anomalies found, keyed like alerts so dashboards can mix them.
    """

    alpha: float = 0.1
    z_threshold: float = 4.0
    warmup_observations: int = 10
    _detectors: dict = field(default_factory=dict)
    anomalies: list = field(default_factory=list)

    def _detector(self, series_key: tuple) -> EwmaDetector:
        detector = self._detectors.get(series_key)
        if detector is None:
            detector = EwmaDetector(
                alpha=self.alpha,
                z_threshold=self.z_threshold,
                warmup_observations=self.warmup_observations,
            )
            self._detectors[series_key] = detector
        return detector

    def observe_sla_rows(self, rows: list[dict]) -> list[dict]:
        """Process SLA rows; returns the new anomaly records."""
        found = []
        for row in sorted(rows, key=lambda r: r["t"]):
            for metric in ("drop_rate", "p99_us"):
                value = row.get(metric)
                if value is None:
                    continue
                key = (row["scope"], row["key"], metric)
                verdict = self._detector(key).observe(float(value))
                if verdict.anomalous:
                    found.append(
                        {
                            "t": row["t"],
                            "scope": row["scope"],
                            "key": row["key"],
                            "metric": metric,
                            "value": verdict.value,
                            "baseline_mean": verdict.mean,
                            "z_score": verdict.z_score,
                        }
                    )
        self.anomalies.extend(found)
        return found
