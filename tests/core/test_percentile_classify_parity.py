"""The class round's percentile and heatmap kernels against plain numpy.

``sorted_percentile`` is the one linear-interpolation kernel behind a class
record's P50/P99 and a SCOPE ``agg.percentile``; both must equal
``np.percentile`` to the bit, ties included.  ``LatencyHeatmap.classify``
counts colours per podset block in numpy; it must name the same pattern,
podsets and detail as the per-cell loop kept below as the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dsa.records import make_class_record
from repro.core.dsa.visualization import (
    GREEN_THRESHOLD_US,
    YELLOW_THRESHOLD_US,
    CellColor,
    LatencyHeatmap,
    LatencyPattern,
    PatternClassification,
)
from repro.cosmos.scope import RowSet, agg
from repro.netsim.fabric import ClassOutcome
from repro.netsim.routing import PathScope


def _values(seed, n, distinct):
    """``n`` RTTs in seconds; with ``distinct`` set, drawn from that many
    values only, so order statistics tie."""
    rng = np.random.default_rng(seed)
    values = rng.lognormal(np.log(300e-6), 1.0, size=n)
    if distinct:
        values = rng.choice(values[:distinct], size=n)
    return values


class TestPercentileKernel:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5_000),
        distinct=st.sampled_from((0, 1, 2, 5, 40)),
    )
    @settings(max_examples=80, deadline=None)
    def test_class_record_percentiles_are_np_percentile(self, seed, n, distinct):
        rtt_s = _values(seed, n, distinct)
        outcome = ClassOutcome(purpose="intra-dc", qos="", scope=PathScope.INTRA_DC,
                               n=n, failed=0, one_drop=0, two_drops=0, rtt_s=rtt_s)
        record = make_class_record(outcome, 0.0, "shard:0:0", 0, 0, -1)
        want = np.percentile(rtt_s * 1e6, (50, 99)).tolist()
        assert [record["p50_us"], record["p99_us"]] == want
        assert type(record["p50_us"]) is float

    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 5_000), min_size=1, max_size=3),
        distinct=st.sampled_from((0, 1, 3, 40)),
        q=st.sampled_from((0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0)) | st.floats(0.0, 100.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_segment_percentile_is_np_percentile(self, seed, sizes, distinct, q):
        groups = [_values(seed + g, n, distinct) * 1e6 for g, n in enumerate(sizes)]
        rows = RowSet(
            {"g": g, "v": float(v)} for g, values in enumerate(groups) for v in values
        )
        out = rows.group_by("g").aggregate(p=agg.percentile("v", q)).output()
        got = {row["g"]: row["p"] for row in out}
        assert got == {g: float(np.percentile(values, q)) for g, values in enumerate(groups)}


# Segments whose lerp rounds differently from either end: t is exactly 0.5
# at q = 50 on the first, 0.99 and 0.49 at q = 99 on the others, so a blend
# from the wrong side, or the wrong side of 0.5, shows.
@pytest.mark.parametrize("rtt_s", [
    (130.2e-6, 871.7e-6), (396.8e-6, 809.6e-6), (182.7e-6,) * 51 + (832.8e-6,),
])
def test_lerp_side_matches_np_percentile(rtt_s):
    rtt_s = np.array(rtt_s)
    want = np.percentile(rtt_s * 1e6, (50, 99)).tolist()
    outcome = ClassOutcome(purpose="intra-dc", qos="", scope=PathScope.INTRA_DC,
                           n=rtt_s.size, failed=0, one_drop=0, two_drops=0, rtt_s=rtt_s)
    record = make_class_record(outcome, 0.0, "shard:0:0", 0, 0, -1)
    assert [record["p50_us"], record["p99_us"]] == want
    rows = RowSet({"g": 0, "v": float(v)} for v in rtt_s * 1e6)
    got = [rows.group_by("g").aggregate(p=agg.percentile("v", q)).output()[0]["p"]
           for q in (50, 99)]
    assert got == want


# -- classify: the per-cell loop it replaced ------------------------------------


def _reference_classify(heatmap, green_fraction_normal=0.75, cross_fraction=0.7):
    n_pods, n_podsets = heatmap.n_pods, heatmap.n_podsets
    colors = np.empty((n_pods, n_pods), dtype=object)
    for src in range(n_pods):
        for dst in range(n_pods):
            colors[src, dst] = heatmap.color(src, dst)

    def cross_podsets(color):
        affected = []
        for podset in range(n_podsets):
            lo = podset * heatmap.pods_per_podset
            hi = lo + heatmap.pods_per_podset
            own, cross = [], []
            for src in range(n_pods):
                for dst in range(n_pods):
                    if src == dst:
                        continue
                    src_in, dst_in = lo <= src < hi, lo <= dst < hi
                    if src_in and dst_in:
                        own.append(colors[src, dst] == color)
                    elif src_in or dst_in:
                        cross.append(colors[src, dst] == color)
            own_ok = not own or sum(own) / len(own) >= cross_fraction
            cross_ok = bool(cross) and sum(cross) / len(cross) >= cross_fraction
            if own_ok and cross_ok:
                affected.append(podset)
        return affected

    white_cross = cross_podsets(CellColor.WHITE)
    if white_cross and len(white_cross) < n_podsets:
        return PatternClassification(LatencyPattern.PODSET_DOWN, white_cross,
                                     "no data from/to podset(s) — power loss?")
    if white_cross:  # the loop plus the all-podset guard on the white cross
        return PatternClassification(LatencyPattern.UNCLASSIFIED, detail="no per-pair data")
    red_cross = cross_podsets(CellColor.RED)
    if red_cross and len(red_cross) < n_podsets:
        return PatternClassification(LatencyPattern.PODSET_FAILURE, red_cross,
                                     "latency from/to podset(s) out of SLA — Leaf layer?")
    intra_green, cross_red = [], []
    for src in range(n_pods):
        for dst in range(n_pods):
            if src == dst:
                continue
            if src // heatmap.pods_per_podset == dst // heatmap.pods_per_podset:
                intra_green.append(colors[src, dst] == CellColor.GREEN)
            else:
                cross_red.append(colors[src, dst] in (CellColor.RED, CellColor.YELLOW))
    if (
        intra_green and cross_red
        and sum(intra_green) / len(intra_green) >= 0.8
        and sum(cross_red) / len(cross_red) >= 0.8
    ):
        return PatternClassification(LatencyPattern.SPINE_FAILURE, list(range(n_podsets)),
                                     "intra-podset green, cross-podset red — Spine layer")
    total = green = 0
    for src in range(n_pods):
        for dst in range(n_pods):
            if src != dst:
                total += 1
                green += colors[src, dst] == CellColor.GREEN
    if total and green / total >= green_fraction_normal:
        return PatternClassification(LatencyPattern.NORMAL)
    return PatternClassification(LatencyPattern.UNCLASSIFIED)


# Every colour, with each threshold hit exactly and from either side.
CELL_VALUES = (
    np.nan, 500.0, np.nextafter(GREEN_THRESHOLD_US, 0), GREEN_THRESHOLD_US, 4500.0,
    np.nextafter(YELLOW_THRESHOLD_US, 0), YELLOW_THRESHOLD_US, 9000.0, np.inf,
)
cell = st.sampled_from(CELL_VALUES)


@st.composite
def heatmaps(draw):
    """A background, then per-podset crosses and an intra-podset fill (the
    shapes the patterns look for), then loose cells on top."""
    n_podsets = draw(st.integers(1, 8))
    k = draw(st.integers(1, 4))
    n_pods = n_podsets * k
    heatmap = LatencyHeatmap(n_pods, k)
    heatmap.p99_us[:, :] = draw(cell)
    for podset in range(n_podsets):
        value = draw(st.none() | cell)
        if value is not None:
            heatmap.p99_us[podset * k:(podset + 1) * k, :] = value
            heatmap.p99_us[:, podset * k:(podset + 1) * k] = value
    intra = draw(st.none() | cell)
    if intra is not None:
        for podset in range(n_podsets):
            heatmap.p99_us[podset * k:(podset + 1) * k, podset * k:(podset + 1) * k] = intra
    for src, dst, value in draw(st.lists(
        st.tuples(st.integers(0, n_pods - 1), st.integers(0, n_pods - 1), cell), max_size=12
    )):
        heatmap.p99_us[src, dst] = value
    return heatmap


class TestClassifyKernel:
    @given(
        heatmap=heatmaps(),
        green_fraction=st.sampled_from((0.5, 0.75, 1.0)),
        cross_fraction=st.sampled_from((0.5, 0.7, 1.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_classify_is_the_per_cell_loop(self, heatmap, green_fraction, cross_fraction):
        got = heatmap.classify(green_fraction, cross_fraction)
        assert got == _reference_classify(heatmap, green_fraction, cross_fraction)
