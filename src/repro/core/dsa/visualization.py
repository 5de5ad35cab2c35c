"""Latency heatmaps and pattern discovery (§6.3, Figure 8).

"a small green, yellow, or red block or pixel shows the network latency at
the 99th percentile between a source-destination pod-pair.  Green means the
latency is less than 4ms, yellow means the latency is between 4-5ms, and red
is for latency larger than 5ms.  A white block means there is no latency
data available."

Four canonical patterns, classified automatically:

* **NORMAL** — (almost) all green,
* **PODSET_DOWN** — a white cross: a whole podset reports no data (power),
* **PODSET_FAILURE** — a red cross: latency from/to one podset is out of
  SLA while the rest is green (Leaf problem or broadcast storm),
* **SPINE_FAILURE** — green squares on the diagonal (intra-podset fine) on a
  red background (all cross-podset traffic out of SLA).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.cosmos.scope import RowSet, agg, col

__all__ = [
    "CellColor",
    "LatencyPattern",
    "LatencyHeatmap",
    "PatternClassification",
    "GREEN_THRESHOLD_US",
    "YELLOW_THRESHOLD_US",
]

Row = dict[str, Any]

GREEN_THRESHOLD_US = 4000.0  # < 4 ms  -> green
YELLOW_THRESHOLD_US = 5000.0  # 4-5 ms -> yellow; > 5 ms -> red


class CellColor(enum.Enum):
    GREEN = "green"
    YELLOW = "yellow"
    RED = "red"
    WHITE = "white"  # no data


class LatencyPattern(enum.Enum):
    NORMAL = "normal"
    PODSET_DOWN = "podset-down"
    PODSET_FAILURE = "podset-failure"
    SPINE_FAILURE = "spine-failure"
    UNCLASSIFIED = "unclassified"


@dataclass
class PatternClassification:
    pattern: LatencyPattern
    affected_podsets: list[int] = field(default_factory=list)
    detail: str = ""


class LatencyHeatmap:
    """The pod-pair P99 latency matrix of one data center window."""

    def __init__(self, n_pods: int, pods_per_podset: int) -> None:
        if n_pods < 1 or pods_per_podset < 1:
            raise ValueError("dimensions must be >= 1")
        if n_pods % pods_per_podset != 0:
            raise ValueError(
                f"{n_pods} pods do not divide into podsets of {pods_per_podset}"
            )
        self.n_pods = n_pods
        self.pods_per_podset = pods_per_podset
        # NaN = no data (white).
        self.p99_us = np.full((n_pods, n_pods), np.nan)

    @classmethod
    def from_records(
        cls, rows: RowSet | list[Row], n_pods: int, pods_per_podset: int, dc: int = 0
    ) -> "LatencyHeatmap":
        """Build the matrix from latency records of one DC (a window, or dicts).

        Only successful probes carry a latency; a failed probe never
        completed a connection, so it contributes *no data* — "a white block
        means there is no latency data available".  A pod-pair that is
        entirely timing out therefore paints white (Fig. 8(b)), while one
        that is merely slow paints red (Fig. 8(c)/(d)).
        """
        heatmap = cls(n_pods, pods_per_podset)
        measured = (col("src_dc") == dc) & (col("dst_dc") == dc) & col("success", default=True)
        for pod in (col("src_pod"), col("dst_pod")):  # VIP probes and the like have none
            measured &= (pod >= 0) & (pod < n_pods)
        cells = (
            RowSet.of(rows)
            .select("src_pod", "dst_pod", "rtt_us", measured=measured)
            .where(col("measured"))
            .group_by("src_pod", "dst_pod")
            .aggregate(p99_us=agg.percentile("rtt_us", 99))
        )
        src, dst, p99 = map(cells.column, ("src_pod", "dst_pod", "p99_us"))
        heatmap.p99_us[src, dst] = p99
        return heatmap

    @property
    def n_podsets(self) -> int:
        return self.n_pods // self.pods_per_podset

    # -- colors -------------------------------------------------------------

    def color(self, src_pod: int, dst_pod: int) -> CellColor:
        value = self.p99_us[src_pod, dst_pod]
        if np.isnan(value):
            return CellColor.WHITE
        if value < GREEN_THRESHOLD_US:
            return CellColor.GREEN
        if value < YELLOW_THRESHOLD_US:
            return CellColor.YELLOW
        return CellColor.RED

    def color_matrix(self) -> list[list[CellColor]]:
        pods = range(self.n_pods)
        return [[self.color(src, dst) for dst in pods] for src in pods]

    def render_ascii(self) -> str:
        """A terminal rendering: . green, o yellow, # red, (space) white."""
        glyph = {CellColor.GREEN: ".", CellColor.YELLOW: "o", CellColor.RED: "#", CellColor.WHITE: " "}
        return "\n".join("".join(glyph[color] for color in row) for row in self.color_matrix())

    # -- pattern classification ------------------------------------------------

    def classify(
        self, green_fraction_normal: float = 0.75, cross_fraction: float = 0.7
    ) -> PatternClassification:
        """Name the Figure 8 pattern this matrix shows.

        Structural patterns (crosses, diagonal squares) are checked first;
        a structureless, mostly-green matrix is NORMAL.  The green fraction
        defaults to 0.75 rather than "all green" because small per-cell
        sample counts let individual P99 cells blink yellow/red on rare
        host stalls without any network problem behind them.
        """
        p99 = self.p99_us
        # NaN compares false both ways: white is neither green nor red.
        white = np.isnan(p99)
        green = p99 < GREEN_THRESHOLD_US
        red = p99 >= YELLOW_THRESHOLD_US

        white_cross = self._cross_podsets(self._block_counts(white), cross_fraction)
        if white_cross and len(white_cross) < self.n_podsets:
            return PatternClassification(
                LatencyPattern.PODSET_DOWN,
                affected_podsets=white_cross,
                detail="no data from/to podset(s) — power loss?",
            )
        if white_cross:  # every podset dark: a window without pod-pair rows
            return PatternClassification(LatencyPattern.UNCLASSIFIED, detail="no per-pair data")

        red_cross = self._cross_podsets(self._block_counts(red), cross_fraction)
        if red_cross and len(red_cross) < self.n_podsets:
            return PatternClassification(
                LatencyPattern.PODSET_FAILURE,
                affected_podsets=red_cross,
                detail="latency from/to podset(s) out of SLA — Leaf layer?",
            )

        green_blocks = self._block_counts(green)
        if self._is_spine_pattern(green_blocks, self._block_counts(~white & ~green)):
            return PatternClassification(
                LatencyPattern.SPINE_FAILURE,
                affected_podsets=list(range(self.n_podsets)),
                detail="intra-podset green, cross-podset red — Spine layer",
            )

        total = self.n_pods * self.n_pods - self.n_pods
        if total and int(green_blocks.sum()) / total >= green_fraction_normal:
            return PatternClassification(LatencyPattern.NORMAL)
        return PatternClassification(LatencyPattern.UNCLASSIFIED)

    def _block_counts(self, mask: np.ndarray) -> np.ndarray:
        """Off-diagonal cells of ``mask`` per (src podset, dst podset) block."""
        size, k = self.n_podsets, self.pods_per_podset
        mask = mask & ~np.eye(self.n_pods, dtype=bool)
        return mask.reshape(size, k, size, k).sum(axis=(1, 3))

    def _cross_podsets(self, blocks: np.ndarray, fraction: float) -> list[int]:
        """Podsets showing a cross in the colour ``blocks`` counts.

        A podset is affected only when both its *own* block (pod pairs inside
        the podset) and its *cross* band (pairs with exactly one endpoint in
        the podset) are mostly that color.  Requiring the own block keeps a
        healthy podset from being flagged just because its neighbours across
        the cross band are down.
        """
        k = self.pods_per_podset
        own_cells = k * k - k
        cross_cells = 2 * k * (self.n_pods - k)
        own = np.diagonal(blocks)
        cross = blocks.sum(axis=0) + blocks.sum(axis=1) - 2 * own
        return [
            podset
            for podset, (own_hits, cross_hits) in enumerate(zip(own.tolist(), cross.tolist()))
            if (not own_cells or own_hits / own_cells >= fraction)
            and cross_cells
            and cross_hits / cross_cells >= fraction
        ]

    def _is_spine_pattern(self, green: np.ndarray, red_or_yellow: np.ndarray) -> bool:
        """Green intra-podset squares on a red cross-podset background,
        from the two colours' block counts."""
        k = self.pods_per_podset
        intra_cells = self.n_podsets * (k * k - k)
        cross_cells = self.n_pods * self.n_pods - self.n_podsets * k * k
        intra_green = int(np.trace(green))
        cross_red = int(red_or_yellow.sum()) - int(np.trace(red_or_yellow))
        return (
            bool(intra_cells)
            and bool(cross_cells)
            and intra_green / intra_cells >= 0.8
            and cross_red / cross_cells >= 0.8
        )
