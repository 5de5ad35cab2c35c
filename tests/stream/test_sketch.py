"""Property tests for the mergeable latency sketch and ClassStats.

The sketch's two contracts, each driven by hypothesis over adversarial
input shapes (bimodal, heavy-tail, constant, uniform):

* **accuracy** — ``quantile(q)`` stays inside the relative-error envelope
  ``lower * (1 - a) <= e <= upper * (1 + a)`` where lower/upper are the
  nearest-rank percentiles of the true values;
* **mergeability** — merging per-chunk sketches in *any* order or grouping
  yields bit-identical buckets to sketching the whole population at once.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import tcp
from repro.stream.sketch import ClassStats, LatencySketch

DISTRIBUTIONS = ("bimodal", "heavy_tail", "constant", "uniform")


def _draw_values(kind: str, seed: int, n: int) -> np.ndarray:
    """Adversarial value populations (microsecond-ish latencies)."""
    rng = np.random.default_rng(seed)
    if kind == "constant":
        return np.full(n, float(rng.uniform(1.0, 1e6)))
    if kind == "bimodal":
        low = rng.normal(250.0, 25.0, size=n)
        high = rng.normal(250_000.0, 20_000.0, size=n)
        values = np.where(rng.random(n) < 0.8, low, high)
    elif kind == "heavy_tail":
        values = rng.lognormal(mean=5.5, sigma=2.0, size=n)
    else:
        values = rng.uniform(1.0, 1e6, size=n)
    # Keep values inside the sketch's representable range so the envelope
    # is exact (below min_value the sketch deliberately clamps).
    return np.clip(values, 1e-3, 1e8)


def _assert_envelope(sketch: LatencySketch, values: np.ndarray, q: float) -> None:
    estimate = sketch.quantile(q)
    lower = float(np.percentile(values, q, method="lower"))
    upper = float(np.percentile(values, q, method="higher"))
    a = sketch.relative_accuracy
    assert lower * (1.0 - a) - 1e-9 <= estimate <= upper * (1.0 + a) + 1e-9, (
        f"q={q}: estimate {estimate} outside "
        f"[{lower * (1 - a)}, {upper * (1 + a)}]"
    )


class TestQuantileAccuracy:
    @given(
        kind=st.sampled_from(DISTRIBUTIONS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=3000),
        accuracy=st.sampled_from((0.005, 0.01, 0.05)),
    )
    @settings(max_examples=60, deadline=None)
    def test_quantiles_within_relative_error(self, kind, seed, n, accuracy):
        values = _draw_values(kind, seed, n)
        sketch = LatencySketch(relative_accuracy=accuracy)
        sketch.add_many(values)
        for q in (0.0, 50.0, 90.0, 99.0, 100.0):
            _assert_envelope(sketch, values, q)

    @given(
        kind=st.sampled_from(DISTRIBUTIONS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=40, deadline=None)
    def test_scalar_add_matches_vectorized(self, kind, seed, n):
        values = _draw_values(kind, seed, n)
        scalar, vectorized = LatencySketch(), LatencySketch()
        for value in values:
            scalar.add(float(value))
        vectorized.add_many(values)
        assert scalar.buckets == vectorized.buckets
        assert scalar.count == vectorized.count
        assert scalar.min_seen == vectorized.min_seen
        assert scalar.max_seen == vectorized.max_seen

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    def test_small_batches_count_like_np_unique(self, n, monkeypatch):
        """Either side of the size at which ``add_many`` stops counting
        value by value: the same payload as the ``np.bincount`` fold."""
        import repro.stream.sketch as sketch_module

        values = _draw_values(DISTRIBUTIONS[0], 7, n)
        folded = LatencySketch()
        folded.add_many(values)
        monkeypatch.setattr(sketch_module, "_SMALL_BATCH", 0)
        unique = LatencySketch()
        unique.add_many(values)
        assert folded.to_payload() == unique.to_payload()

    def test_empty_sketch(self):
        sketch = LatencySketch()
        assert sketch.quantile(50.0) is None
        assert sketch.count == 0
        assert sketch.memory_buckets == 0

    def test_percentile_range_validated(self):
        sketch = LatencySketch()
        sketch.add(1.0)
        with pytest.raises(ValueError):
            sketch.quantile(101.0)
        with pytest.raises(ValueError):
            sketch.quantile(-1.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LatencySketch(relative_accuracy=0.0)
        with pytest.raises(ValueError):
            LatencySketch(relative_accuracy=1.0)
        with pytest.raises(ValueError):
            LatencySketch(max_buckets=4)
        with pytest.raises(ValueError):
            LatencySketch(min_value=0.0)


class TestMergeability:
    @given(
        kind=st.sampled_from(DISTRIBUTIONS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=1000),
        n_chunks=st.integers(min_value=2, max_value=8),
        order_seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_merge_order_and_grouping_invariant(
        self, kind, seed, n, n_chunks, order_seed
    ):
        """Any split, any merge order, any grouping: identical buckets."""
        values = _draw_values(kind, seed, n)
        order_rng = np.random.default_rng(order_seed)
        chunks = np.array_split(order_rng.permutation(values), n_chunks)
        parts = []
        for chunk in chunks:
            part = LatencySketch()
            part.add_many(chunk)
            parts.append(part)

        whole = LatencySketch()
        whole.add_many(values)

        in_order = LatencySketch()
        for part in parts:
            in_order.merge(part.copy())

        permuted = LatencySketch()
        for index in order_rng.permutation(len(parts)):
            permuted.merge(parts[index].copy())

        # Associativity: ((first half) merged) merged with ((second half)).
        split = max(1, len(parts) // 2)
        left, right = LatencySketch(), LatencySketch()
        for part in parts[:split]:
            left.merge(part.copy())
        for part in parts[split:]:
            right.merge(part.copy())
        grouped = left.merge(right)

        for merged in (in_order, permuted, grouped):
            assert merged.buckets == whole.buckets
            assert merged.count == whole.count
            assert merged.min_seen == whole.min_seen
            assert merged.max_seen == whole.max_seen

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=30, deadline=None)
    def test_merge_does_not_mutate_source(self, seed, n):
        values = _draw_values("heavy_tail", seed, n)
        source = LatencySketch()
        source.add_many(values)
        snapshot = (dict(source.buckets), source.count, source.max_seen)
        sink = LatencySketch()
        sink.merge(source.copy())
        sink.add(123.0)
        assert (dict(source.buckets), source.count, source.max_seen) == snapshot

    @given(
        kind=st.sampled_from(DISTRIBUTIONS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=30, deadline=None)
    def test_payload_round_trip_is_lossless(self, kind, seed, n):
        """What crosses the wire reconstructs the sketch exactly."""
        values = _draw_values(kind, seed, n)
        sketch = LatencySketch()
        sketch.add_many(values)
        payload = json.loads(json.dumps(sketch.to_payload()))  # wire-safe
        restored = LatencySketch.from_payload(payload)
        assert restored.buckets == sketch.buckets
        assert restored.count == sketch.count
        assert restored.min_seen == sketch.min_seen
        assert restored.max_seen == sketch.max_seen
        for q in (50.0, 99.0):
            assert restored.quantile(q) == sketch.quantile(q)

    def test_incompatible_parameters_rejected(self):
        sketch = LatencySketch(relative_accuracy=0.01)
        with pytest.raises(ValueError):
            sketch.merge(LatencySketch(relative_accuracy=0.05))


class TestBoundedMemory:
    @given(
        kind=st.sampled_from(DISTRIBUTIONS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=3000),
    )
    @settings(max_examples=30, deadline=None)
    def test_buckets_bounded_by_dynamic_range_not_volume(self, kind, seed, n):
        sketch = LatencySketch()
        sketch.add_many(_draw_values(kind, seed, n))
        # Values live in [1e-3, 1e8]: the bucket count is bounded by the
        # dynamic range alone, regardless of how many values landed.
        bound = math.ceil(math.log(1e8 / 1e-3) / sketch._log_gamma) + 2
        assert sketch.memory_buckets <= min(bound, sketch.max_buckets)

    def test_collapse_keeps_cap_and_tail_accuracy(self):
        sketch = LatencySketch(relative_accuracy=0.01, max_buckets=8)
        rng = np.random.default_rng(7)
        values = rng.lognormal(mean=6.0, sigma=3.0, size=5000)
        values = np.clip(values, 1e-3, 1e8)
        sketch.add_many(values)
        assert sketch.memory_buckets <= 8
        assert sketch.count == 5000
        # Collapse folds *low* buckets: max stays exact, order is kept.
        assert sketch.quantile(100.0) == float(values.max())
        assert sketch.quantile(99.0) <= sketch.quantile(100.0)
        assert sketch.quantile(0.0) <= sketch.quantile(50.0)


SIG_1_US = tcp.syn_rtt_signature(1) * 1e6
SIG_2_US = tcp.syn_rtt_signature(2) * 1e6


class TestClassStats:
    def test_signature_classification(self):
        stats = ClassStats()
        stats.observe(True, 250.0)
        stats.observe(True, SIG_1_US)  # one retransmission (~3 s)
        stats.observe(True, SIG_2_US)  # two retransmissions (~9 s)
        stats.observe(False, 0.0)
        assert (stats.success, stats.failed) == (3, 1)
        assert (stats.one_drop, stats.two_drops) == (1, 1)
        assert stats.signature_events == 2
        assert stats.probes == 4

    def test_rate_definitions(self):
        stats = ClassStats()
        for _ in range(8):
            stats.observe(True, 250.0)
        stats.observe(True, SIG_1_US)
        stats.observe(False, 0.0)
        # §4.2: signatures over *successful* probes, failures excluded.
        assert stats.syn_drop_rate() == pytest.approx(1 / 9)
        assert stats.failure_rate() == pytest.approx(1 / 10)
        assert stats.drop_rate() == pytest.approx(2 / 10)

    def test_all_failed_is_not_a_clean_bill(self):
        stats = ClassStats()
        for _ in range(5):
            stats.observe(False, 0.0)
        assert stats.syn_drop_rate() == 0.0  # §4.2: undefined, not 1.0
        assert stats.failure_rate() == 1.0
        assert stats.drop_rate() == 1.0
        assert stats.quantile_us(99.0) is None

    def test_empty_rates(self):
        stats = ClassStats()
        assert stats.syn_drop_rate() == 0.0
        assert stats.failure_rate() == 0.0
        assert stats.drop_rate() == 0.0

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=400),
    )
    @settings(max_examples=30, deadline=None)
    def test_observe_many_matches_scalar(self, seed, n):
        rng = np.random.default_rng(seed)
        successes = rng.random(n) < 0.9
        rtts = np.where(
            rng.random(n) < 0.05, SIG_1_US, rng.uniform(100.0, 1000.0, n)
        )
        scalar, vectorized = ClassStats(), ClassStats()
        for ok, rtt in zip(successes.tolist(), rtts.tolist()):
            scalar.observe(ok, rtt)
        vectorized.observe_many(successes, rtts)
        assert scalar.success == vectorized.success
        assert scalar.failed == vectorized.failed
        assert scalar.one_drop == vectorized.one_drop
        assert scalar.two_drops == vectorized.two_drops
        assert scalar.sketch.buckets == vectorized.sketch.buckets

    @pytest.mark.parametrize("rows", ["all", "every-other", "tail"])
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 1_000])
    def test_the_fold_is_observe_per_probe(self, n, rows, monkeypatch):
        """``observe_many`` over a round, or one class's rows of it, is
        ``observe`` per probe — buckets, the four counts, ``min_seen`` and
        ``max_seen`` — on both of its paths.  The round mixes failures,
        3 s / 9 s signatures and RTTs under the sketch's ``min_value``."""
        import repro.stream.sketch as sketch_module

        rng = np.random.default_rng(n)
        rtts = rng.lognormal(5.5, 0.6, n)
        kind = rng.random(n)
        rtts[kind < 0.15] = SIG_1_US + rng.uniform(0.0, 1e3, int((kind < 0.15).sum()))
        rtts[kind < 0.05] = SIG_2_US
        rtts[kind > 0.95] = 1e-6
        successes = rng.random(n) > 0.1
        rtts[~successes] = rng.choice([0.0, tcp.FAILED_RTT_US], int((~successes).sum()))
        picked = {"all": slice(None), "every-other": np.arange(0, n, 2), "tail": slice(n // 3, None)}[rows]
        successes, rtts = successes[picked], rtts[picked]
        small_batch_paths = (sketch_module._SMALL_BATCH, 0)
        for max_buckets in (2048, 8):  # 8: the fold collapses too
            scalar = ClassStats(max_buckets=max_buckets)
            for ok, rtt in zip(successes.tolist(), rtts.tolist()):
                scalar.observe(ok, rtt)
            expected = (scalar.to_payload(), scalar.sketch.min_seen, scalar.sketch.max_seen)
            for small_batch in small_batch_paths:
                monkeypatch.setattr(sketch_module, "_SMALL_BATCH", small_batch)
                folded = ClassStats(max_buckets=max_buckets)
                folded.observe_many(successes, rtts)
                assert (folded.to_payload(), folded.sketch.min_seen, folded.sketch.max_seen) == expected

    def test_numpy_bucket_index_is_math_log_at_every_edge(self):
        """The fold finds bucket indices with ``np.log``, ``observe`` with
        ``math.log``: they agree at every bucket edge from 1 µs to 100 s,
        at both floats beside it, and over a log-uniform sample."""
        sketch = LatencySketch()
        ks = np.arange(math.floor(math.log(1.0) / sketch._log_gamma),
                       math.ceil(math.log(1e8) / sketch._log_gamma) + 1)
        edges = np.concatenate([sketch._gamma ** ks, np.exp(ks * sketch._log_gamma)])
        values = np.concatenate([
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
            10 ** np.random.default_rng(0).uniform(0.0, 8.0, 200_000),
        ])
        expected = [sketch._index(value) for value in values.tolist()]
        assert sketch._indices(values).tolist() == expected

    def test_merge_adds_everything(self):
        a, b = ClassStats(), ClassStats()
        a.observe(True, 200.0)
        a.observe(False, 0.0)
        b.observe(True, SIG_1_US)
        a.merge(b)
        assert (a.success, a.failed, a.one_drop) == (2, 1, 1)
        assert a.sketch.count == 2

    @pytest.mark.parametrize("max_buckets", [2048, 8])
    def test_merge_payload_is_from_payload_then_merge(self, max_buckets):
        """The ingest tree's direct merge equals building the delta's stats
        and merging them, also when the payload holds more buckets than
        the tree's cap (``from_payload`` collapses it first)."""
        rng = np.random.default_rng(max_buckets)
        tree, delta = ClassStats(max_buckets=max_buckets), ClassStats()
        tree.observe_many(rng.random(500) > 0.05, rng.lognormal(6.0, 1.0, 500))
        delta.observe_many(rng.random(300) > 0.05, rng.lognormal(4.0, 2.0, 300))
        delta.observe(True, SIG_2_US)
        payload = json.loads(json.dumps(delta.to_payload()))
        assert (len(payload["sketch"]["buckets"]) > max_buckets) == (max_buckets == 8)
        built = tree.copy().merge(ClassStats.from_payload(payload, max_buckets))
        direct = tree.copy().merge_payload(payload)
        assert direct.to_payload() == built.to_payload()
        assert direct.sketch.memory_buckets <= max_buckets
        with pytest.raises(ValueError):
            ClassStats(relative_accuracy=0.05).merge_payload(payload)

    def test_payload_round_trip(self):
        stats = ClassStats()
        stats.observe(True, 250.0)
        stats.observe(True, SIG_2_US)
        stats.observe(False, 0.0)
        payload = json.loads(json.dumps(stats.to_payload()))
        restored = ClassStats.from_payload(payload)
        assert restored.success == stats.success
        assert restored.failed == stats.failed
        assert restored.one_drop == stats.one_drop
        assert restored.two_drops == stats.two_drops
        assert restored.sketch.buckets == stats.sketch.buckets
