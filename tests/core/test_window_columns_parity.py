"""The 10-minute job's readers against the row walks they replaced.

``LatencyHeatmap.from_records`` and ``SilentDropDetector.detect`` read a
window's columns (a rowset, or dicts packed once).  The row-walking forms
they replaced are kept below as references; on generated windows both
inputs must give the same P99 matrix to the bit (NaN where a cell is
empty), the same pattern, and the same incidents — drop rate, tier, and
the traced pairs in the same order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dsa.drop_inference import classify_probe
from repro.core.dsa.silentdrop import SilentDropDetector
from repro.core.dsa.visualization import LatencyHeatmap
from repro.cosmos.columnar import ColumnBlock, Vocabulary
from repro.cosmos.scope import RowSet
from repro.netsim.tcp import ONE_DROP_RTT_US

N_PODS, PODS_PER_PODSET = 6, 2


def reference_p99(rows, n_pods, dc):
    cells = {}
    for row in rows:
        if row["src_dc"] != dc or row["dst_dc"] != dc or not row.get("success", True):
            continue
        src_pod, dst_pod = row["src_pod"], row["dst_pod"]
        if 0 <= src_pod < n_pods and 0 <= dst_pod < n_pods:
            cells.setdefault((src_pod, dst_pod), []).append(row["rtt_us"])
    p99 = np.full((n_pods, n_pods), np.nan)
    for (src_pod, dst_pod), rtts in cells.items():
        p99[src_pod, dst_pod] = float(np.percentile(rtts, 99))
    return p99


def reference_rate(rows):
    drops = [classify_probe(bool(row["success"]), row["rtt_us"] / 1e6) for row in rows]
    successful = sum(d is not None for d in drops)
    return successful, (sum(d in (1, 2) for d in drops) / successful if successful else 0.0)


def reference_incidents(detector, rows):
    """(dc, rate, tier, pairs) per incident, as the row walk found them."""
    by_dc = {}
    for row in rows:
        if row["src_dc"] == row["dst_dc"]:
            by_dc.setdefault(row["src_dc"], []).append(row)
    found = []
    for dc, dc_rows in sorted(by_dc.items()):
        successful, rate = reference_rate(dc_rows)
        if successful == 0 or rate < detector.incident_drop_rate:
            continue
        _, intra = reference_rate([r for r in dc_rows if r["src_podset"] == r["dst_podset"]])
        _, cross = reference_rate([r for r in dc_rows if r["src_podset"] != r["dst_podset"]])
        if cross >= detector.incident_drop_rate and intra < cross / 3:
            tier = "spine"
        else:
            tier = "leaf-or-tor" if intra >= detector.incident_drop_rate else "unknown"
        evidence = {}
        for row in dc_rows:
            if row.get("purpose") == "vip":
                continue
            weight = 0
            if not row["success"]:
                weight = 1
            elif row["syn_drops"] > 0 or row["rtt_us"] >= ONE_DROP_RTT_US:
                weight = 2
            score, bad, probes = evidence.get((row["src"], row["dst"]), (0, 0, 0))
            evidence[(row["src"], row["dst"])] = (score + weight, bad + bool(weight), probes + 1)
        ranked = sorted(
            ((pair, score) for pair, (score, bad, probes) in evidence.items()
             if score and bad <= detector.max_pair_loss_ratio * probes),
            key=lambda item: (-item[1], item[0]),
        )
        pairs = [pair for pair, _ in ranked[: detector.max_traceroute_pairs]]
        found.append((dc, rate, tier, pairs))
    return found


# (success, rtt_us, syn_drops): clean, slow, 1-drop, 2-drop, failed.
PROBES = [(True, 250.0, 0), (True, 3900.0, 0), (True, 4500.0, 0), (True, 5200.0, 0),
          (True, 3.0e6, 1), (True, 3.2e6, 0), (True, 9.0e6, 2), (True, 9.4e6, 1),
          (False, 21e6, 2)]


@st.composite
def windows(draw):
    """Several DCs, VIP rows (pod -1), pods off the map, few servers (so
    pair scores tie), intra- and cross-podset probes drawn from their own
    mixes, and one window in eight without a ``success`` column."""
    n_dcs, servers = draw(st.integers(1, 3)), draw(st.integers(2, 6))
    mixes = [
        np.array(draw(st.lists(st.integers(0, 5), min_size=len(PROBES), max_size=len(PROBES))))
        + 1e-9
        for _intra in range(2)
    ]
    same_podset = draw(st.sampled_from((0.1, 0.5, 0.9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 250))):
        src_dc = int(rng.integers(n_dcs))
        dst_dc = src_dc if rng.random() < 0.6 else int(rng.integers(n_dcs))
        src_pod, vip = int(rng.integers(N_PODS)), rng.random() < 0.1
        if vip:
            dst_pod = -1
        elif rng.random() < same_podset:
            dst_pod = src_pod - src_pod % PODS_PER_PODSET + int(rng.integers(PODS_PER_PODSET))
        else:
            dst_pod = int(rng.integers(N_PODS + 1))
        mix = mixes[src_pod // PODS_PER_PODSET == dst_pod // PODS_PER_PODSET]
        success, rtt_us, syn_drops = PROBES[rng.choice(len(PROBES), p=mix / mix.sum())]
        rows.append({
            "src": f"dc{src_dc}/s{rng.integers(servers)}",
            "dst": f"dc{dst_dc}/vip" if vip else f"dc{dst_dc}/s{rng.integers(servers)}",
            "src_dc": src_dc, "dst_dc": dst_dc,
            "src_podset": src_pod // PODS_PER_PODSET, "dst_podset": dst_pod // PODS_PER_PODSET,
            "src_pod": src_pod, "dst_pod": dst_pod,
            "purpose": "vip" if vip else "tor-level",
            "success": success, "rtt_us": rtt_us, "syn_drops": syn_drops,
        })
    if draw(st.integers(0, 7)) == 0:
        for row in rows:
            del row["success"]
    return n_dcs, rows


def as_inputs(rows):
    """The window as dicts, packed, and with its text columns coded — codes
    handed out in reverse name order, so code order is not name order."""
    block = ColumnBlock.from_records(rows)
    vocab = Vocabulary()
    texts = {row[name] for row in rows for name in ("src", "dst", "purpose")}
    vocab.encode(sorted(texts, reverse=True))
    columns = dict(block.columns)
    for name in ("src", "dst", "purpose"):
        columns[name] = vocab.encode(block.columns[name].tolist())
    coded = RowSet.from_columns(columns, dict.fromkeys(("src", "dst", "purpose"), vocab))
    return [rows, RowSet(rows), coded]


@given(windows())
@settings(max_examples=120, deadline=None)
def test_heatmap_is_the_row_walk(window):
    n_dcs, rows = window
    for dc in range(n_dcs):
        want = reference_p99(rows, N_PODS, dc)
        reference = LatencyHeatmap(N_PODS, PODS_PER_PODSET)
        reference.p99_us = want
        for given_rows in as_inputs(rows):
            heatmap = LatencyHeatmap.from_records(given_rows, N_PODS, PODS_PER_PODSET, dc=dc)
            assert heatmap.p99_us.tobytes() == want.tobytes()
            assert heatmap.classify() == reference.classify()


@given(windows(), st.sampled_from((1e-3, 2e-2, 0.2)), st.sampled_from((2, 8)))
@settings(max_examples=120, deadline=None)
def test_silent_drop_incidents_are_the_row_walk(window, threshold, max_pairs):
    _n_dcs, rows = window
    detector = SilentDropDetector(incident_drop_rate=threshold, max_traceroute_pairs=max_pairs)
    if "success" not in rows[0]:
        for given_rows in as_inputs(rows):
            with pytest.raises(KeyError):
                detector.detect(given_rows)
        return
    want = reference_incidents(detector, rows)
    for given_rows in as_inputs(rows):
        got = [
            (incident.dc, incident.measured_drop_rate, incident.suspected_tier,
             incident.affected_pairs)
            for incident in detector.detect(given_rows, t=600.0)
        ]
        assert got == want
        assert all(type(dc) is int and type(rate) is float for dc, rate, _, _ in got)


def test_ties_rank_by_name_not_by_code():
    rows = [
        {"src": src, "dst": "d", "src_dc": 0, "dst_dc": 0, "src_podset": 0, "dst_podset": 1,
         "purpose": "tor-level", "success": True, "rtt_us": rtt, "syn_drops": 0}
        for src in ("zz", "aa", "mm") for rtt in (3.1e6, 250.0, 250.0)
    ]
    for given_rows in as_inputs(rows):
        (incident,) = SilentDropDetector().detect(given_rows)
        assert incident.affected_pairs == [("aa", "d"), ("mm", "d"), ("zz", "d")]
