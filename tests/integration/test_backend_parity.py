"""Dict-oracle ↔ array-engine and fused ↔ reference refresh parity.

The array engine and the fused score-and-select refresh are performance
refactors of the oracles in ``tests/cache_oracles.py``, not behaviour
changes: under the same seed the engine (one row per key, or bucket rows)
and its dict oracle — and both refresh orchestrations — must produce
identical cache entries, CE counts, memory accounting and training
trajectories.  The dict oracles also check every per-row CE hint the
fused refresh derives.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.array_cache import ArrayNegativeCache
from repro.core.nscaching import NSCachingSampler
from repro.data.keyindex import BucketIndex, KeyIndex
from repro.data.synthetic import SyntheticKGConfig, generate_kg
from repro.models import MODEL_REGISTRY, make_model
from repro.train.config import TrainConfig
from repro.train.trainer import Trainer

from cache_oracles import (
    HashedNegativeCache,
    NegativeCache,
    OracleCacheSampler,
    UnfusedRefreshSampler,
)

N_KEYS = 6
N_ENTITIES = 30
ENTRY = 4


def _pair() -> tuple[NegativeCache, ArrayNegativeCache]:
    index = KeyIndex(
        np.arange(N_KEYS, dtype=np.int64),
        np.arange(N_KEYS, dtype=np.int64),
        N_KEYS,
    )
    dict_cache = NegativeCache(ENTRY, N_ENTITIES, np.random.default_rng(99))
    array_cache = ArrayNegativeCache(ENTRY, N_ENTITIES, np.random.default_rng(99))
    dict_cache.attach_index(index)
    array_cache.attach_index(index)
    return dict_cache, array_cache


# One operation = (op, rows): gather the rows, or scatter fresh ids there.
_ops = st.lists(
    st.tuples(
        st.sampled_from(["gather", "scatter"]),
        st.lists(st.integers(0, N_KEYS - 1), min_size=1, max_size=8),
    ),
    min_size=1,
    max_size=12,
)


class TestOperationSequenceParity:
    @given(ops=_ops, data_seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_same_entries_ce_and_memory(self, ops, data_seed):
        dict_cache, array_cache = _pair()
        data_rng = np.random.default_rng(data_seed)
        for op, row_list in ops:
            rows = np.array(row_list, dtype=np.int64)
            if op == "gather":
                np.testing.assert_array_equal(
                    dict_cache.gather(rows), array_cache.gather(rows)
                )
            else:
                ids = data_rng.integers(0, N_ENTITIES, size=(len(rows), ENTRY))
                changed_dict = dict_cache.scatter(rows, ids)
                changed_array = array_cache.scatter(rows, ids)
                assert changed_dict == changed_array
        assert dict_cache.changed_elements == array_cache.changed_elements
        assert dict_cache.initialised_entries == array_cache.initialised_entries
        assert dict_cache.n_entries == array_cache.n_entries
        assert dict_cache.memory_bytes() == array_cache.memory_bytes()
        for row in range(N_KEYS):
            key = (row, row)
            if key in dict_cache:
                assert key in array_cache
                np.testing.assert_array_equal(
                    dict_cache.get(key), array_cache.get(key)
                )


N_BUCKETS = 3  # < N_KEYS so the parity ops exercise collisions


def _hashed_pair() -> tuple[HashedNegativeCache, ArrayNegativeCache]:
    index = KeyIndex(
        np.arange(N_KEYS, dtype=np.int64),
        np.arange(N_KEYS, dtype=np.int64),
        N_KEYS,
    )
    dict_hashed = HashedNegativeCache(
        ENTRY, N_ENTITIES, np.random.default_rng(99), n_buckets=N_BUCKETS
    )
    bucketed = ArrayNegativeCache(
        ENTRY, N_ENTITIES, np.random.default_rng(99), n_buckets=N_BUCKETS
    )
    dict_hashed.attach_index(index)
    bucketed.attach_index(index)
    return dict_hashed, bucketed


class TestHashedBucketedParity:
    """The memory-bounded pair: dict buckets ↔ bucketed array rows.

    Same hash, same bucket shares, same CE accounting across colliding
    writes, same RNG stream — bit-identical under a fixed seed.
    """

    @given(ops=_ops, data_seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_same_entries_ce_and_memory(self, ops, data_seed):
        dict_hashed, bucketed = _hashed_pair()
        data_rng = np.random.default_rng(data_seed)
        for op, row_list in ops:
            rows = np.array(row_list, dtype=np.int64)
            if op == "gather":
                np.testing.assert_array_equal(
                    dict_hashed.gather(rows), bucketed.gather(rows)
                )
            else:
                ids = data_rng.integers(0, N_ENTITIES, size=(len(rows), ENTRY))
                assert dict_hashed.scatter(rows, ids) == bucketed.scatter(rows, ids)
        assert dict_hashed.changed_elements == bucketed.changed_elements
        assert dict_hashed.initialised_entries == bucketed.initialised_entries
        assert dict_hashed.n_entries == bucketed.n_entries
        assert dict_hashed.memory_bytes() == bucketed.memory_bytes()
        assert set(dict_hashed.keys()) == set(bucketed.keys())
        for row in range(N_KEYS):
            key = (row, row)
            assert (key in dict_hashed) == (key in bucketed)
            if key in dict_hashed:
                np.testing.assert_array_equal(
                    dict_hashed.get(key), bucketed.get(key)
                )

    def test_two_keys_one_bucket_share_and_ce(self):
        """The collision case, deterministically: two distinct keys landing
        in one bucket read each other's writes, and a batch writing both
        counts CE like two sequential puts."""
        dict_hashed, bucketed = _hashed_pair()
        index = bucketed._index
        buckets = BucketIndex(index, N_BUCKETS)
        rows_by_bucket = {}
        for row in range(N_KEYS):
            rows_by_bucket.setdefault(
                int(buckets.bucket_rows(np.array([row]))[0]), []
            ).append(row)
        colliding = next(rows for rows in rows_by_bucket.values() if len(rows) >= 2)
        first, second = colliding[:2]

        ids = np.arange(ENTRY)[None, :]
        for cache in (dict_hashed, bucketed):
            cache.scatter(np.array([first]), ids)
        key_second = index.key_of(second)
        np.testing.assert_array_equal(dict_hashed.get(key_second), ids[0])
        np.testing.assert_array_equal(bucketed.get(key_second), ids[0])

        # One batch writing both colliding keys: CE of the second write is
        # counted against the first write, and the last write wins.
        batch = np.stack([ids[0] + 100, ids[0] + 200])
        changed = [
            cache.scatter(np.array([first, second]), batch)
            for cache in (dict_hashed, bucketed)
        ]
        assert changed[0] == changed[1] == 2 * ENTRY
        np.testing.assert_array_equal(
            dict_hashed.get(index.key_of(first)), bucketed.get(index.key_of(first))
        )
        np.testing.assert_array_equal(bucketed.get(index.key_of(first)), batch[1])

    @pytest.mark.parametrize("n_buckets", (1, 7))
    def test_same_seed_same_training_trajectory(self, tiny_kg, n_buckets):
        """End to end: the hashed oracle and bucket rows land on identical
        parameters, losses and CE series under one seed."""
        results = []
        for oracle in (HashedNegativeCache, None):
            model = make_model(
                "TransE", tiny_kg.n_entities, tiny_kg.n_relations, 16, rng=0
            )
            options = dict(cache_size=8, candidate_size=8, n_buckets=n_buckets)
            sampler = (
                NSCachingSampler(**options)
                if oracle is None
                else OracleCacheSampler(oracle, **options)
            )
            trainer = Trainer(
                model,
                tiny_kg,
                sampler,
                TrainConfig(epochs=4, batch_size=64, learning_rate=0.05, seed=0),
            )
            history = trainer.run()
            results.append((history, model))
        (hashed_history, hashed_model), (bucketed_history, bucketed_model) = results
        np.testing.assert_array_equal(
            hashed_history["loss"].values, bucketed_history["loss"].values
        )
        np.testing.assert_array_equal(
            hashed_history["cache_changes"].values,
            bucketed_history["cache_changes"].values,
        )
        np.testing.assert_array_equal(
            hashed_model.params["entity"], bucketed_model.params["entity"]
        )


class TestTrainingParity:
    def _history(self, tiny_kg, oracle, batch_size):
        model = make_model(
            "TransE", tiny_kg.n_entities, tiny_kg.n_relations, 16, rng=0
        )
        sampler = (
            NSCachingSampler(cache_size=8, candidate_size=8)
            if oracle is None
            else OracleCacheSampler(oracle, cache_size=8, candidate_size=8)
        )
        trainer = Trainer(
            model,
            tiny_kg,
            sampler,
            TrainConfig(epochs=4, batch_size=batch_size, learning_rate=0.05, seed=0),
        )
        history = trainer.run()
        return history, trainer

    # Every refresh passes the per-row CE hint, which the dict oracle
    # checks against its multiset walk; batch 64 also repeats cache keys,
    # whose later writes scatter recounts itself.
    @pytest.mark.parametrize("batch_size", (64, 8))
    def test_same_seed_same_loss_trajectory(self, tiny_kg, batch_size):
        dict_history, dict_trainer = self._history(tiny_kg, NegativeCache, batch_size)
        array_history, array_trainer = self._history(tiny_kg, None, batch_size)
        np.testing.assert_allclose(
            dict_history["loss"].values, array_history["loss"].values, atol=1e-8
        )
        np.testing.assert_allclose(
            dict_history["cache_changes"].values,
            array_history["cache_changes"].values,
            atol=0,
        )
        np.testing.assert_allclose(
            dict_trainer.model.params["entity"],
            array_trainer.model.params["entity"],
            atol=1e-12,
        )


def _parity_kg():
    """A small dedicated KG, built once (hypothesis forbids fn fixtures)."""
    config = SyntheticKGConfig(
        name="parity",
        n_entities=40,
        n_relations=4,
        latent_dim=6,
        triples_per_relation=40,
        diagonal_fraction=0.3,
        range_fraction=0.5,
    )
    return generate_kg(config, rng=5).dataset


_PARITY_KG = _parity_kg()


def _cache_state(sampler):
    """All initialised rows of both caches plus the CE counters."""
    assert sampler.head_cache is not None and sampler.tail_cache is not None
    n_head = sampler.key_index.head.n_keys
    n_tail = sampler.key_index.tail.n_keys
    return (
        sampler.head_cache.gather(np.arange(n_head, dtype=np.int64)),
        sampler.tail_cache.gather(np.arange(n_tail, dtype=np.int64)),
        sampler.head_cache.changed_elements,
        sampler.tail_cache.changed_elements,
    )


class TestFusedRefreshParity:
    """The fused refresh is bit-identical to the unfused reference path."""

    @given(
        model_name=st.sampled_from(sorted(MODEL_REGISTRY)),
        seed=st.integers(0, 2**16),
        n1=st.integers(1, 5),
        n2=st.integers(1, 5),
        update_strategy=st.sampled_from(["importance", "top", "uniform"]),
        sample_strategy=st.sampled_from(["uniform", "importance"]),
        batch_starts=st.lists(st.integers(0, 100), min_size=1, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_fused_update_bit_identical(
        self, model_name, seed, n1, n2, update_strategy, sample_strategy, batch_starts
    ):
        dataset = _PARITY_KG
        samplers = []
        for sampler_cls in (NSCachingSampler, UnfusedRefreshSampler):
            model = make_model(
                model_name, dataset.n_entities, dataset.n_relations, 6, rng=seed
            )
            sampler = sampler_cls(
                cache_size=n1,
                candidate_size=n2,
                update_strategy=update_strategy,
                sample_strategy=sample_strategy,
            )
            sampler.bind(model, dataset, rng=seed)
            samplers.append(sampler)
        fused_sampler, reference_sampler = samplers

        for start in batch_starts:
            batch = dataset.train[start : start + 32]
            fused_negatives = fused_sampler.sample(batch)
            reference_negatives = reference_sampler.sample(batch)
            np.testing.assert_array_equal(fused_negatives, reference_negatives)
            fused_sampler.update(batch, fused_negatives)
            reference_sampler.update(batch, reference_negatives)

        for got, expected in zip(
            _cache_state(fused_sampler), _cache_state(reference_sampler)
        ):
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("model_name", ("DistMult", "TransD"))
    def test_training_trajectory_bit_identical(self, tiny_kg, model_name):
        """End-to-end: fused and reference runs land on identical parameters."""
        params = []
        for sampler_cls in (NSCachingSampler, UnfusedRefreshSampler):
            model = make_model(
                model_name, tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0
            )
            sampler = sampler_cls(cache_size=6, candidate_size=6)
            Trainer(
                model,
                tiny_kg,
                sampler,
                TrainConfig(epochs=3, batch_size=64, learning_rate=0.05, seed=0),
            ).run()
            params.append(model.state_dict())
        for name in params[0]:
            np.testing.assert_array_equal(params[0][name], params[1][name])
