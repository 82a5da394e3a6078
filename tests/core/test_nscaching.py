"""Tests for the NSCaching sampler (Algorithms 2 and 3)."""

import numpy as np
import pytest

import repro.models.base as base
from repro.core.nscaching import NSCachingSampler
from repro.core.strategies import SampleStrategy, UpdateStrategy
from repro.models import make_model

from cache_oracles import UnfusedRefreshSampler


@pytest.fixture
def bound_sampler(tiny_kg):
    model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
    sampler = NSCachingSampler(cache_size=6, candidate_size=6)
    sampler.bind(model, tiny_kg, rng=0)
    return sampler


class TestConstruction:
    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError, match="cache_size"):
            NSCachingSampler(cache_size=0)
        with pytest.raises(ValueError, match="cache_size"):
            NSCachingSampler(candidate_size=0)

    def test_negative_lazy_rejected(self):
        with pytest.raises(ValueError, match="lazy_epochs"):
            NSCachingSampler(lazy_epochs=-1)

    def test_sampling_before_bind_rejected(self, tiny_kg):
        sampler = NSCachingSampler()
        with pytest.raises(RuntimeError, match="must be bound"):
            sampler.sample(tiny_kg.train[:4])

    def test_repr_mentions_paper_knobs(self):
        text = repr(NSCachingSampler(cache_size=50, candidate_size=70))
        assert "N1=50" in text and "N2=70" in text


class TestCacheLayout:
    """n_buckets / n_shards / refresh_workers pick the one engine's layout;
    cache_backend only restates it."""

    def _bound(self, tiny_kg, **kwargs):
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        return NSCachingSampler(cache_size=4, candidate_size=4, **kwargs).bind(
            model, tiny_kg, rng=0
        )

    def test_sequential_benchmark_call_shape_builds_heap_layout(self, tiny_kg):
        sampler = self._bound(tiny_kg, cache_backend="array")
        try:
            assert sampler.cache_backend == "array"
            for cache in (sampler.head_cache, sampler.tail_cache):
                assert cache.n_shards is None and cache.plan is None
                assert cache.n_buckets is None
        finally:
            sampler.close()

    def test_pooled_benchmark_call_shape_builds_shared_layout(self, tiny_kg):
        sampler = self._bound(
            tiny_kg,
            cache_backend="sharded-array",
            refresh_workers=2,
            refresh_overlap=True,
        )
        try:
            assert sampler.cache_backend == "sharded-array"
            assert sampler.n_shards == 2  # defaults to the worker count
            for cache in (sampler.head_cache, sampler.tail_cache):
                assert cache.n_shards == 2 and cache.plan.n_shards == 2
                assert cache.n_buckets is None
        finally:
            sampler.close()

    def test_n_shards_alone_shares_storage(self, tiny_kg):
        sampler = self._bound(tiny_kg, n_shards=3, n_buckets=5)
        try:
            assert sampler.cache_backend == "sharded-array"
            assert sampler.head_cache.plan.n_rows == 5
        finally:
            sampler.close()

    @pytest.mark.parametrize(
        "backend, kwargs",
        (
            ("dict", {}),
            ("hashed", {"n_buckets": 8}),
            ("bucketed-array", {"n_buckets": 8}),
            ("array", {"refresh_workers": 2}),
            ("sharded-array", {}),
        ),
    )
    def test_cache_backend_mismatch_names_the_layout_arguments(self, backend, kwargs):
        with pytest.raises(ValueError, match="n_buckets.*n_shards"):
            NSCachingSampler(cache_backend=backend, **kwargs)

    @pytest.mark.parametrize(
        "removed",
        (
            {"fused": False},
            {"cache_options": {"n_buckets": 4}},
            {"cache_factory": lambda *args, **kwargs: None},
        ),
    )
    def test_removed_keywords_rejected(self, removed):
        with pytest.raises(TypeError, match=next(iter(removed))):
            NSCachingSampler(**removed)

    @pytest.mark.parametrize("name", ("n_buckets", "n_shards"))
    def test_bad_layout_counts_rejected_before_bind(self, name):
        with pytest.raises(ValueError, match=name):
            NSCachingSampler(**{name: 0})


class TestSampling:
    def test_negatives_differ_on_exactly_one_side(self, bound_sampler, tiny_kg):
        batch = tiny_kg.train[:32]
        negatives = bound_sampler.sample(batch)
        same_head = negatives[:, 0] == batch[:, 0]
        same_tail = negatives[:, 2] == batch[:, 2]
        np.testing.assert_array_equal(negatives[:, 1], batch[:, 1])
        # One side always retained (the other side may coincide by chance).
        assert np.all(same_head | same_tail)

    def test_sampled_entity_comes_from_cache(self, bound_sampler, tiny_kg):
        batch = tiny_kg.train[:8]
        negatives = bound_sampler.sample(batch)
        for pos, neg in zip(batch.tolist(), negatives.tolist()):
            h, r, t = pos
            if neg[0] != h:  # head was corrupted
                cached = bound_sampler.head_cache.get((r, t))
                assert neg[0] in cached
            elif neg[2] != t:  # tail was corrupted
                cached = bound_sampler.tail_cache.get((h, r))
                assert neg[2] in cached

    def test_cache_keys_follow_algorithm2(self, bound_sampler, tiny_kg):
        batch = tiny_kg.train[:4]
        bound_sampler.sample(batch)
        for h, r, t in batch.tolist():
            assert (r, t) in bound_sampler.head_cache
            assert (h, r) in bound_sampler.tail_cache


class TestUpdate:
    def test_update_raises_cache_scores(self, bound_sampler, tiny_kg):
        """After Alg. 3 refreshes, cached corruptions score higher than random."""
        model = bound_sampler.model
        batch = tiny_kg.train[:64]
        bound_sampler.sample(batch)
        for _ in range(5):
            bound_sampler.update(batch, batch)
        h, r, t = batch[0].tolist()
        cached_tails = bound_sampler.tail_cache.get((h, r))
        cached_scores = model.score(
            np.full(len(cached_tails), h),
            np.full(len(cached_tails), r),
            cached_tails,
        )
        random_tails = np.arange(tiny_kg.n_entities)
        random_scores = model.score(
            np.full(tiny_kg.n_entities, h),
            np.full(tiny_kg.n_entities, r),
            random_tails,
        )
        assert cached_scores.mean() > random_scores.mean()

    def test_update_counts_changed_elements(self, bound_sampler, tiny_kg):
        batch = tiny_kg.train[:16]
        bound_sampler.sample(batch)
        bound_sampler.update(batch, batch)
        assert bound_sampler.changed_elements() > 0

    def test_changed_elements_reset(self, bound_sampler, tiny_kg):
        batch = tiny_kg.train[:16]
        bound_sampler.sample(batch)
        bound_sampler.update(batch, batch)
        bound_sampler.changed_elements(reset=True)
        assert bound_sampler.changed_elements() == 0

    def test_lazy_update_skips_off_epochs(self, tiny_kg):
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        sampler = NSCachingSampler(cache_size=4, candidate_size=4, lazy_epochs=1)
        sampler.bind(model, tiny_kg, rng=0)
        batch = tiny_kg.train[:8]
        sampler.on_epoch_start(1)  # odd epoch -> skip with n=1
        sampler.sample(batch)
        sampler.update(batch, batch)
        assert sampler.changed_elements() == 0
        sampler.on_epoch_start(2)  # even epoch -> refresh
        sampler.update(batch, batch)
        assert sampler.changed_elements() > 0

    def test_update_before_sample_is_safe(self, bound_sampler, tiny_kg):
        batch = tiny_kg.train[:4]
        bound_sampler.update(batch, batch)  # initialises entries on demand
        assert bound_sampler.head_cache.n_entries > 0


class TestUpdateModes:
    @pytest.mark.parametrize("bad", ["relation", "tails", "both", ""])
    def test_unknown_mode_rejected(self, bound_sampler, tiny_kg, bad):
        batch = tiny_kg.train[:4]
        with pytest.raises(ValueError, match="mode"):
            bound_sampler.update(batch, batch, modes=(bad,))

    def test_unknown_mode_rejected_even_on_lazy_epochs(self, tiny_kg):
        """Validation runs before the lazy skip: a typo'd mode may not hide
        until the next refresh epoch (and may never fall through to a
        silent tail refresh)."""
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        sampler = NSCachingSampler(cache_size=4, candidate_size=4, lazy_epochs=3)
        sampler.bind(model, tiny_kg, rng=0)
        sampler.on_epoch_start(1)  # this epoch would be lazily skipped
        batch = tiny_kg.train[:4]
        with pytest.raises(ValueError, match="mode"):
            sampler.update(batch, batch, modes=("relation",))
        assert sampler.changed_elements() == 0  # nothing was refreshed

    @pytest.mark.parametrize("modes", [("head", "head"), ("tail", "head", "tail")])
    def test_repeated_mode_rejected(self, bound_sampler, tiny_kg, modes):
        batch = tiny_kg.train[:4]
        with pytest.raises(ValueError, match="repeat"):
            bound_sampler.update(batch, batch, modes=modes)
        assert bound_sampler.changed_elements() == 0

    def test_single_mode_refreshes_only_that_cache(self, bound_sampler, tiny_kg):
        batch = tiny_kg.train[:8]
        bound_sampler.update(batch, batch, modes=("head",))
        assert bound_sampler.head_cache.changed_elements > 0
        assert bound_sampler.tail_cache.changed_elements == 0
        assert bound_sampler.tail_cache.n_entries == 0


class TestFusedRefresh:
    def test_reference_path_runs(self, tiny_kg):
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        sampler = UnfusedRefreshSampler(cache_size=4, candidate_size=4)
        sampler.bind(model, tiny_kg, rng=0)
        batch = tiny_kg.train[:8]
        sampler.update(batch, sampler.sample(batch))
        assert sampler.changed_elements() > 0

    @pytest.mark.parametrize("sampler_cls", [NSCachingSampler, UnfusedRefreshSampler])
    def test_nan_embedding_stops_the_refresh(self, tiny_kg, sampler_cls):
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        sampler = sampler_cls(cache_size=4, candidate_size=4)
        sampler.bind(model, tiny_kg, rng=0)
        batch = tiny_kg.train[:8]
        model.params["entity"][batch[3, 0]] = np.nan  # a head the tail side scores
        with pytest.raises(
            FloatingPointError, match=r"non-finite candidate scores \(first in row \d+\)"
        ):
            sampler.update(batch, batch, modes=("tail",))

    def test_union_buffer_reused_across_batches(self, bound_sampler, tiny_kg):
        """Each side keeps its own union and noise block across batches."""
        batch = tiny_kg.train[:16]
        bound_sampler.update(batch, batch)
        unions, noise = dict(bound_sampler._unions), dict(bound_sampler._noise)
        assert set(unions) == set(noise) == {"head", "tail"}
        for mode in ("head", "tail"):
            assert unions[mode].shape == (16, 12)  # N1 + N2 = 6 + 6
            assert unions[mode].dtype == np.int64
            assert noise[mode].shape == (16, 12)
            assert noise[mode].dtype == np.float64
        # The two sides run at once, so no block is shared between them.
        blocks = [*unions.values(), *noise.values()]
        assert len({id(block) for block in blocks}) == 4
        bound_sampler.update(tiny_kg.train[16:32], tiny_kg.train[16:32])
        for mode in ("head", "tail"):  # no reallocation
            assert bound_sampler._unions[mode] is unions[mode]
            assert bound_sampler._noise[mode] is noise[mode]

    def test_union_buffer_grows_for_larger_batches(self, bound_sampler, tiny_kg):
        """A side's blocks appear on its first refresh and grow with the batch."""
        bound_sampler.update(tiny_kg.train[:8], tiny_kg.train[:8], modes=("head",))
        assert set(bound_sampler._unions) == set(bound_sampler._noise) == {"head"}
        bound_sampler.update(tiny_kg.train[:32], tiny_kg.train[:32])
        for mode in ("head", "tail"):
            assert bound_sampler._unions[mode].shape[0] >= 32
            assert bound_sampler._noise[mode].shape[0] >= 32

    def test_top_selection_draws_no_noise_block(self, tiny_kg):
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        sampler = NSCachingSampler(cache_size=4, candidate_size=4, update_strategy="top")
        sampler.bind(model, tiny_kg, rng=0)
        sampler.update(tiny_kg.train[:8], tiny_kg.train[:8])
        assert set(sampler._unions) == {"head", "tail"}
        assert sampler._noise == {}

    def test_close_drops_refresh_buffers(self, bound_sampler, tiny_kg):
        bound_sampler.update(tiny_kg.train[:8], tiny_kg.train[:8])
        bound_sampler.close()
        assert bound_sampler._unions == {} and bound_sampler._noise == {}


def _cache_snapshot(sampler):
    return [
        (
            cache._ids.tobytes(),
            cache._scores.tobytes(),
            cache._live.tobytes(),
            cache.changed_elements,
            cache.initialised_entries,
        )
        for cache in (sampler.head_cache, sampler.tail_cache)
    ]


class TestNonFiniteSide:
    """A NaN score on either side stops the batch before either cache is
    written, with the split on (the tail side on the helper thread) and
    off."""

    @pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
    @pytest.mark.parametrize("bad_mode", ["head", "tail"])
    def test_nan_on_one_side_leaves_both_caches_unchanged(
        self, tiny_kg, monkeypatch, split, bad_mode
    ):
        monkeypatch.setattr(base, "_split", split)
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        sampler = NSCachingSampler(
            cache_size=4, candidate_size=4, sample_strategy="importance"
        )
        sampler.bind(model, tiny_kg, rng=0)
        batch = tiny_kg.train[:16]
        sampler.update(batch, batch)  # both sides' rows live, with scores
        before = _cache_snapshot(sampler)
        score = model.score_candidates

        def poisoned(anchors, r, candidates, mode="tail"):
            out = score(anchors, r, candidates, mode)
            if mode == bad_mode:  # a row only this side scores
                out[5, 3] = np.nan
            return out

        monkeypatch.setattr(model, "score_candidates", poisoned)
        with pytest.raises(
            FloatingPointError, match=r"non-finite candidate scores \(first in row 5\)"
        ):
            sampler.update(batch, batch)
        assert _cache_snapshot(sampler) == before


class TestStrategyVariants:
    @pytest.mark.parametrize("strategy", list(SampleStrategy))
    def test_all_sampling_strategies_run(self, tiny_kg, strategy):
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        sampler = NSCachingSampler(
            cache_size=4, candidate_size=4, sample_strategy=strategy
        )
        sampler.bind(model, tiny_kg, rng=0)
        batch = tiny_kg.train[:8]
        negatives = sampler.sample(batch)
        sampler.update(batch, negatives)
        assert negatives.shape == batch.shape

    @pytest.mark.parametrize("strategy", list(UpdateStrategy))
    def test_all_update_strategies_run(self, tiny_kg, strategy):
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        sampler = NSCachingSampler(
            cache_size=4, candidate_size=4, update_strategy=strategy
        )
        sampler.bind(model, tiny_kg, rng=0)
        batch = tiny_kg.train[:8]
        negatives = sampler.sample(batch)
        sampler.update(batch, negatives)
        assert sampler.changed_elements() >= 0

    def test_score_storing_only_when_needed(self, tiny_kg):
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        uniform = NSCachingSampler(sample_strategy="uniform").bind(model, tiny_kg, 0)
        importance = NSCachingSampler(sample_strategy="importance").bind(
            model, tiny_kg, 0
        )
        assert not uniform.head_cache.store_scores
        assert importance.head_cache.store_scores


class TestHashedCacheIntegration:
    def test_hashed_cache_bounds_entries(self, tiny_kg):
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        sampler = NSCachingSampler(cache_size=4, candidate_size=4, n_buckets=7)
        sampler.bind(model, tiny_kg, rng=0)
        for start in range(0, len(tiny_kg.train), 32):
            batch = tiny_kg.train[start : start + 32]
            sampler.update(batch, sampler.sample(batch))
        assert sampler.head_cache.n_entries <= 7
        assert sampler.tail_cache.n_entries <= 7

    def test_no_parameters_added(self, bound_sampler):
        """Table I: NSCaching adds no trainable parameters."""
        assert not hasattr(bound_sampler, "generator")
