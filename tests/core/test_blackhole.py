"""Tests for ToR black-hole detection (§5.1)."""

import random

import pytest

from repro.autopilot.device_manager import DeviceManager
from repro.core.dsa.blackhole import BlackholeDetector
from repro.cosmos.columnar import ColumnBlock
from repro.cosmos.scope import RowSet
from repro.netsim.topology import MultiDCTopology, TopologySpec


def _mesh_rows(
    n_pods=6,
    servers_per_pod=4,
    pods_per_podset=3,
    poisoned=(),
    drop_every=2,
    repeats=2,
    down_servers=(),
):
    """Synthesize a ToR-level probing mesh.

    Every server probes its host-index peer in every other pod (the §3.3.1
    pattern).  Pods in ``poisoned`` deterministically drop a fraction
    ``1/drop_every`` of their pairs, spread across destination pods, the way
    a TCAM-pattern black-hole does.  ``down_servers`` are (pod, idx) hosts
    whose every pair is dead (crashed server, not a black-hole).
    """
    poisoned = set(poisoned)
    down = set(down_servers)
    rows = []
    for src_pod in range(n_pods):
        for s in range(servers_per_pod):
            src = f"dc0/pod{src_pod}/srv{s}"
            for dst_pod in range(n_pods):
                if dst_pod == src_pod:
                    continue
                dst = f"dc0/pod{dst_pod}/srv{s}"
                dead = (
                    (src_pod, s) in down
                    or (dst_pod, s) in down
                    or (
                        src_pod in poisoned
                        and (s + dst_pod) % drop_every == 0
                    )
                    or (
                        dst_pod in poisoned
                        and (s + src_pod) % drop_every == 0
                    )
                )
                for _ in range(repeats):
                    rows.append(
                        {
                            "src": src,
                            "dst": dst,
                            "src_dc": 0,
                            "dst_dc": 0,
                            "src_podset": src_pod // pods_per_podset,
                            "dst_podset": dst_pod // pods_per_podset,
                            "src_pod": src_pod,
                            "dst_pod": dst_pod,
                            "success": not dead,
                            "rtt_us": 21e6 if dead else 250.0,
                        }
                    )
    return rows


class TestSymptomDetection:
    def test_healthy_mesh_no_candidates(self):
        report = BlackholeDetector().detect(_mesh_rows())
        assert report.candidates == []
        assert report.tors_to_reload == []
        assert report.podsets_escalated == []

    def test_blackholed_tor_detected(self):
        report = BlackholeDetector().detect(_mesh_rows(poisoned=[1]))
        assert [c.pod for c in report.candidates] == [1]
        candidate = report.candidates[0]
        assert candidate.score > 0.3
        assert report.tors_to_reload == [candidate]
        assert report.podsets_escalated == []

    def test_multiple_blackholes_all_found(self):
        """Several simultaneous black-holes in different podsets — the
        Figure 6 regime — must all localize."""
        report = BlackholeDetector().detect(_mesh_rows(poisoned=[0, 4]))
        assert sorted(c.pod for c in report.tors_to_reload) == [0, 4]

    def test_light_pattern_still_detected(self):
        """A black-hole hitting only ~25% of pairs is still deterministic
        per pair and must be found."""
        report = BlackholeDetector(score_threshold=0.2).detect(
            _mesh_rows(poisoned=[2], drop_every=4, servers_per_pod=8)
        )
        assert 2 in [c.pod for c in report.tors_to_reload]

    def test_flaky_pair_is_not_deterministic_symptom(self):
        """A pair with mixed outcomes is packet loss, not a black-hole."""
        rows = _mesh_rows()
        flaky = [row for row in rows if row["src_pod"] == 0][:4]
        for i, row in enumerate(flaky):
            row["success"] = i % 2 == 0
        assert BlackholeDetector().detect(rows).candidates == []

    def test_min_pair_probes_guard(self):
        """Single-probe evidence is not deterministic evidence."""
        rows = _mesh_rows(poisoned=[1], repeats=1)
        report = BlackholeDetector(min_pair_probes=2).detect(rows)
        assert report.candidates == []

    def test_down_server_is_not_a_blackhole(self):
        """A crashed server kills all its pairs; no ToR should be blamed."""
        report = BlackholeDetector().detect(
            _mesh_rows(down_servers=[(3, 0)])
        )
        assert report.tors_to_reload == []

    def test_down_server_next_to_real_blackhole(self):
        """The crashed server must not mask a genuine black-hole."""
        report = BlackholeDetector().detect(
            _mesh_rows(poisoned=[1], down_servers=[(3, 0)])
        )
        assert 1 in [c.pod for c in report.tors_to_reload]

    def test_empty_window(self):
        assert BlackholeDetector().detect([]).candidates == []

    def test_min_reporting_servers_guard(self):
        rows = [
            row
            for row in _mesh_rows(poisoned=[1])
            if not (row["src_pod"] == 1 and row["src"].endswith(("srv1", "srv2", "srv3")))
        ]
        report = BlackholeDetector(min_reporting_servers=2).detect(rows)
        assert 1 not in [c.pod for c in report.candidates]


class TestPodsetEscalation:
    def test_all_tors_affected_escalates(self):
        """'If all the ToRs in a podset experience the black-hole symptom,
        then the problem may be in the Leaf or Spine layer.'"""
        report = BlackholeDetector().detect(
            _mesh_rows(poisoned=[0, 1, 2])  # the whole of podset 0
        )
        assert (0, 0) in report.podsets_escalated
        assert not any(c.podset == 0 for c in report.tors_to_reload)

    def test_partial_podset_reloads_tors(self):
        report = BlackholeDetector().detect(_mesh_rows(poisoned=[0, 1]))
        assert report.podsets_escalated == []
        assert sorted(c.pod for c in report.tors_to_reload) == [0, 1]


class TestRepairFiling:
    def test_files_reload_requests(self):
        topology = MultiDCTopology.single(TopologySpec())
        dm = DeviceManager()
        detector = BlackholeDetector()
        report = detector.detect(
            _mesh_rows(n_pods=8, pods_per_podset=4, poisoned=[1]), t=100.0
        )
        filed = detector.file_repairs(report, dm, topology)
        assert filed == 1
        assert len(dm.pending) == 1
        assert dm.pending[0].action == "reload_switch"
        assert "black-hole score" in dm.pending[0].reason
        assert dm.pending[0].device_id == topology.dc(0).tors[1].device_id

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            BlackholeDetector(score_threshold=0)
        with pytest.raises(ValueError):
            BlackholeDetector(min_pair_probes=0)
        with pytest.raises(ValueError):
            BlackholeDetector(dead_share_floor=0)


class _RowWalkDetector(BlackholeDetector):
    """The detector as it was before the pair aggregate moved onto the
    SCOPE engine: one Python walk over every probe row of the window."""

    def _pair_rows(self, rows):
        return rows

    def _server_symptoms(self, rows):
        pair_stats = {}
        pair_row = {}
        row_of_server = {}
        for row in rows:
            pair = (row["src"], row["dst"])
            pair_stats.setdefault(pair, []).append(bool(row["success"]))
            pair_row.setdefault(pair, row)
            row_of_server.setdefault(row["src"], row)

        dead_by_server = {}
        live_by_server = {}
        pod_pairs = {}
        dead_pairs = set()
        for pair, outcomes in pair_stats.items():
            if len(outcomes) < self.min_pair_probes:
                continue
            src, _dst = pair
            row = pair_row[pair]
            endpoints = {
                (row["src_dc"], row["src_pod"]),
                (row.get("dst_dc", row["src_dc"]), row.get("dst_pod", -1)),
            }
            for endpoint in endpoints:
                pod_pairs.setdefault(endpoint, set()).add(pair)
            if not any(outcomes):
                dead_by_server[src] = dead_by_server.get(src, 0) + 1
                dead_pairs.add(pair)
            elif all(outcomes):
                live_by_server[src] = live_by_server.get(src, 0) + 1

        symptoms = {
            src: (
                dead_by_server.get(src, 0) > 0 and live_by_server.get(src, 0) > 0,
                row,
            )
            for src, row in row_of_server.items()
        }
        return symptoms, self._greedy_cover(pod_pairs, dead_pairs)


def _columnar_window(rows):
    return RowSet.from_columns(ColumnBlock.from_records(rows).columns)


def _without(rows, *columns):
    return [{k: v for k, v in row.items() if k not in columns} for row in rows]


_FIXTURES = {
    "healthy": dict(),
    "one-tor": dict(poisoned=[1]),
    "fig6-two-podsets": dict(poisoned=[0, 4]),
    "fig6-three-tors": dict(n_pods=9, poisoned=[1, 5, 6], servers_per_pod=6),
    "light-pattern": dict(poisoned=[2], drop_every=4, servers_per_pod=8),
    "whole-podset": dict(poisoned=[0, 1, 2]),
    "partial-podset": dict(poisoned=[0, 1]),
    "down-server": dict(down_servers=[(3, 0)]),
    "down-next-to-blackhole": dict(poisoned=[1], down_servers=[(3, 0)]),
    "single-probe-pairs": dict(poisoned=[1], repeats=1),
}


class TestRowSetEqualsRowWalk:
    """Same candidates, scores and escalations from a column-backed window,
    from a list of dicts and from the row walk kept above — on the Figure 6
    fixtures, in the order they come and in shuffled orders."""

    @staticmethod
    def _assert_same(rows, **detector_kwargs):
        expected = _RowWalkDetector(**detector_kwargs).detect(rows, t=7.0)
        detector = BlackholeDetector(**detector_kwargs)
        for window in (rows, RowSet(rows), _columnar_window(rows)):
            report = detector.detect(window, t=7.0)
            assert report.candidates == expected.candidates
            assert report.tors_to_reload == expected.tors_to_reload
            assert report.podsets_escalated == expected.podsets_escalated
        return expected

    @pytest.mark.parametrize("name", sorted(_FIXTURES))
    def test_fixture_in_order(self, name):
        self._assert_same(_mesh_rows(**_FIXTURES[name]))

    @pytest.mark.parametrize("name", sorted(_FIXTURES))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fixture_shuffled(self, name, seed):
        rows = _mesh_rows(**_FIXTURES[name])
        random.Random(seed).shuffle(rows)
        self._assert_same(rows)

    def test_figure_6_regime_is_not_vacuous(self):
        expected = self._assert_same(_mesh_rows(**_FIXTURES["fig6-three-tors"]))
        assert sorted(c.pod for c in expected.tors_to_reload) == [1, 5, 6]
        expected = self._assert_same(_mesh_rows(**_FIXTURES["whole-podset"]))
        assert expected.podsets_escalated == [(0, 0)]

    def test_flaky_pairs_and_thresholds(self):
        rows = _mesh_rows(poisoned=[1], repeats=3)
        for i, row in enumerate(row for row in rows if row["src_pod"] == 0):
            row["success"] = i % 3 != 0
        self._assert_same(rows, min_pair_probes=3, score_threshold=0.2)
        self._assert_same(rows, min_reporting_servers=5)

    def test_rows_without_destination_coordinates(self):
        """Older fixtures carry no ``dst_dc`` / ``dst_pod``: same DC, no pod."""
        rows = _mesh_rows(poisoned=[1])
        self._assert_same(_without(rows, "dst_dc"))
        self._assert_same(_without(rows, "dst_dc", "dst_pod", "dst_podset"))

    def test_only_the_pairs_leave_the_engine(self):
        rows = _mesh_rows(poisoned=[1], repeats=5)
        pairs = BlackholeDetector()._pair_rows(_columnar_window(rows))
        assert len(pairs) == len(rows) // 5
        assert {(row["probes"], row["answered"]) for row in pairs} == {(5, 5), (5, 0)}
