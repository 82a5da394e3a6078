"""Tests for the GradientBag sparse-gradient container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import make_model, params
from repro.models.params import GradientBag
from repro.sampling import UniformSampler
from repro.train.config import TrainConfig
from repro.train.trainer import Trainer


def reference_compaction(rows_list, grads_list):
    """The row-wise compaction oracle: ``np.unique`` plus a 2-D
    ``np.add.at`` that adds each occurrence's row in order from zero."""
    rows = np.concatenate(rows_list)
    grads = np.concatenate(grads_list, axis=0)
    unique, inverse = np.unique(rows, return_inverse=True)
    summed = np.zeros((len(unique), *grads.shape[1:]), dtype=np.float64)
    np.add.at(summed, inverse, grads)
    return unique, summed


class TestGradientBag:
    def test_empty_bag_is_falsy(self):
        assert not GradientBag()

    def test_add_then_compact(self):
        bag = GradientBag()
        bag.add("w", np.array([0, 2]), np.array([[1.0, 1.0], [2.0, 2.0]]))
        items = list(bag.compacted())
        assert len(items) == 1
        name, rows, grads = items[0]
        assert name == "w"
        np.testing.assert_array_equal(rows, [0, 2])

    def test_duplicate_rows_summed(self):
        bag = GradientBag()
        bag.add("w", np.array([1, 1]), np.array([[1.0], [2.0]]))
        _, rows, grads = next(iter(bag.compacted()))
        np.testing.assert_array_equal(rows, [1])
        np.testing.assert_allclose(grads, [[3.0]])

    def test_duplicates_across_calls_summed(self):
        bag = GradientBag()
        bag.add("w", np.array([4]), np.array([[1.0]]))
        bag.add("w", np.array([4]), np.array([[5.0]]))
        _, rows, grads = next(iter(bag.compacted()))
        np.testing.assert_allclose(grads, [[6.0]])

    def test_empty_rows_ignored(self):
        bag = GradientBag()
        bag.add("w", np.empty(0, dtype=np.int64), np.empty((0, 3)))
        assert not bag

    def test_mismatched_lengths_rejected(self):
        bag = GradientBag()
        with pytest.raises(ValueError, match="disagree"):
            bag.add("w", np.array([0, 1]), np.array([[1.0]]))

    def test_merge_combines_bags(self):
        a, b = GradientBag(), GradientBag()
        a.add("x", np.array([0]), np.array([[1.0]]))
        b.add("x", np.array([0]), np.array([[2.0]]))
        b.add("y", np.array([1]), np.array([[3.0]]))
        a.merge(b)
        dense = a.dense({"x": (2, 1), "y": (2, 1)})
        assert dense["x"][0, 0] == 3.0
        assert dense["y"][1, 0] == 3.0

    def test_dense_materialisation(self):
        bag = GradientBag()
        bag.add("w", np.array([1]), np.array([[2.0, 0.0]]))
        dense = bag.dense({"w": (3, 2)})
        expected = np.zeros((3, 2))
        expected[1, 0] = 2.0
        np.testing.assert_array_equal(dense["w"], expected)

    def test_global_norm(self):
        bag = GradientBag()
        bag.add("w", np.array([0]), np.array([[3.0, 4.0]]))
        assert bag.global_norm() == pytest.approx(5.0)

    def test_touched_rows_unknown_param_empty(self):
        assert len(GradientBag().touched_rows("nope")) == 0

    def test_matrix_shaped_rows_supported(self):
        bag = GradientBag()
        bag.add("m", np.array([0, 0]), np.ones((2, 3, 3)))
        _, rows, grads = next(iter(bag.compacted()))
        assert grads.shape == (1, 3, 3)
        np.testing.assert_allclose(grads[0], 2.0)

    @given(
        rows=st.lists(st.integers(0, 9), min_size=1, max_size=30),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_compaction_preserves_total(self, rows):
        """Sum of compacted gradients equals sum of raw contributions."""
        bag = GradientBag()
        values = np.arange(len(rows), dtype=np.float64).reshape(-1, 1)
        bag.add("w", np.asarray(rows), values)
        _, unique_rows, grads = next(iter(bag.compacted()))
        assert grads.sum() == pytest.approx(values.sum())
        assert sorted(set(rows)) == unique_rows.tolist()


#: Entries drawn with signed zeros and repeated magnitudes so rounding and
#: the sign of zero sums both get exercised.
_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e16, -1e16, 1.0, -1.0]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def _bag_contents(draw):
    """Per parameter, a list of ``add`` calls sharing one row shape."""
    contents = {}
    for name in draw(st.lists(st.sampled_from("abc"), unique=True, max_size=3)):
        row_shape = draw(st.sampled_from([(), (1,), (3,), (2, 2), (3, 2)]))
        high = draw(st.sampled_from([0, 2, 50]))  # 0 => a single row id
        calls = []
        for n in draw(st.lists(st.integers(1, 12), min_size=1, max_size=4)):
            rows = np.array(draw(st.lists(st.integers(0, high), min_size=n, max_size=n)))
            size = n * int(np.prod(row_shape, dtype=np.int64))
            values = draw(st.lists(_entries, min_size=size, max_size=size))
            calls.append((rows, np.array(values, dtype=np.float64).reshape(n, *row_shape)))
        contents[name] = calls
    return contents


class TestFlatCompaction:
    @given(contents=_bag_contents())
    @settings(max_examples=150, deadline=None)
    def test_byte_identical_to_row_wise_add_at(self, contents):
        bag = GradientBag()
        for name, calls in contents.items():
            for rows, grads in calls:
                bag.add(name, rows, grads)
        got = {name: (rows, grads) for name, rows, grads in bag.compacted()}
        assert list(got) == list(contents)
        total = 0.0
        for name, calls in contents.items():
            unique, summed = reference_compaction(*zip(*calls))
            rows, grads = got[name]
            assert rows.tobytes() == unique.tobytes()
            assert grads.shape == summed.shape
            assert grads.tobytes() == summed.tobytes()
            total += float(np.sum(summed**2))
        assert bag.global_norm() == float(np.sqrt(total))

    def test_empty_bag_compacts_to_nothing(self):
        bag = GradientBag()
        assert list(bag.compacted()) == []
        assert bag.global_norm() == 0.0

    def test_negative_zero_sums_match_oracle(self):
        rows = np.array([0, 0, 1, 2, 2])
        grads = np.array([[-0.0, 1.0], [-0.0, -1.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0]])
        bag = GradientBag()
        bag.add("w", rows, grads)
        _, _, summed = next(bag.compacted())
        assert summed.tobytes() == reference_compaction([rows], [grads])[1].tobytes()

    def test_relation_matrix_rows(self):
        """RESCAL-shaped ``[n, d, d]`` gradients with heavy duplicates."""
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 5, 300)
        grads = rng.normal(size=(300, 4, 4))
        bag = GradientBag()
        bag.add("relation", rows, grads)
        _, unique, summed = next(bag.compacted())
        ref_unique, ref_summed = reference_compaction([rows], [grads])
        assert unique.tobytes() == ref_unique.tobytes()
        assert summed.tobytes() == ref_summed.tobytes()


@pytest.fixture
def compactions(monkeypatch):
    """Records the row count of every per-parameter compaction."""
    calls = []
    real = params._sum_duplicate_rows

    def spy(rows, grads):
        calls.append(len(rows))
        return real(rows, grads)

    monkeypatch.setattr(params, "_sum_duplicate_rows", spy)
    return calls


class TestCompactOnce:
    def test_result_reused_until_the_bag_changes(self, compactions):
        bag = GradientBag()
        bag.add("w", np.array([0, 1, 0]), np.ones((3, 2)))
        first = list(bag.compacted())
        bag.global_norm()
        bag.touched_rows("w")
        assert list(bag.compacted())[0][2] is first[0][2]
        assert compactions == [3]

    def test_add_after_compacted_is_seen(self):
        bag = GradientBag()
        bag.add("w", np.array([0]), np.array([[1.0]]))
        assert bag.global_norm() == 1.0
        bag.add("w", np.array([0, 3]), np.array([[2.0], [4.0]]))
        _, rows, grads = next(bag.compacted())
        np.testing.assert_array_equal(rows, [0, 3])
        np.testing.assert_array_equal(grads, [[3.0], [4.0]])
        np.testing.assert_array_equal(bag.touched_rows("w"), [0, 3])

    def test_merge_after_compacted_is_seen(self):
        bag, other = GradientBag(), GradientBag()
        bag.add("w", np.array([1]), np.array([[1.0]]))
        list(bag.compacted())
        other.add("w", np.array([1]), np.array([[2.0]]))
        other.add("v", np.array([0]), np.array([[5.0]]))
        bag.merge(other)
        got = {name: (rows.tolist(), grads.tolist()) for name, rows, grads in bag.compacted()}
        assert got == {"w": ([1], [[3.0]]), "v": ([0], [[5.0]])}

    def test_compacted_arrays_are_read_only(self):
        bag = GradientBag()
        bag.add("w", np.array([0]), np.array([[1.0]]))
        _, rows, grads = next(bag.compacted())
        with pytest.raises(ValueError):
            grads *= 2.0
        with pytest.raises(ValueError):
            rows[0] = 1

    @pytest.mark.parametrize("model_name", ["TransE", "ComplEx"])
    def test_one_train_batch_compacts_once(self, tiny_kg, model_name, compactions):
        model = make_model(model_name, tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        config = TrainConfig(epochs=1, batch_size=32, l2_weight=0.01)
        trainer = Trainer(model, tiny_kg, UniformSampler(), config)
        trainer.train_batch(tiny_kg.train[:32])
        # One compaction per parameter table: the norm, the optimiser step
        # and its dirty marks all share it.
        assert len(compactions) == len(model.params)
