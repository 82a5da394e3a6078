"""Model-conformance harness: one scoring contract for every registry model.

``score_candidates`` is the primitive the NSCaching cache refresh is built
on, and each model family ships its own fused kernel for it.  This suite
pins the contract those kernels must honour so any future specialisation
is caught by construction:

* agreement with the looped ``score()`` oracle and with the bulk
  ``score_tails`` / ``score_heads`` / ``score_all_*`` scorers;
* duplicate-candidate invariance (equal ids ⇒ bitwise-equal scores);
* dtype / shape / read-only guarantees (float64 ``[B, C]`` out, inputs
  never written, non-contiguous and non-int64 inputs accepted);
* determinism (same parameters ⇒ bitwise-identical scores, no RNG);
* early ``ValueError`` on an unknown corruption mode or bad shapes;
* edge cases: empty batch, a single candidate (``N1 + N2 == 1``), ids at
  ``n_entities - 1``;
* row-blocking: the bilinear kernels score a few rows per gather, and
  must stay byte-identical to the unblocked gather + matmul oracle for
  batch sizes on both sides of every block boundary.

Every test runs for every entry in ``MODEL_REGISTRY`` via the
``conformance_model`` fixture (see ``conftest.py``).
"""

import numpy as np
import pytest

from repro.models import MODEL_REGISTRY, make_model
from repro.models.base import CANDIDATE_MODES, KGEModel, candidate_block_rows

from conformance_fixtures import (
    CONF_N_ENTITIES,
    CONF_N_RELATIONS,
    UNBLOCKED_KERNELS,
    build_conformance_model,
    looped_reference_scores,
)

MODES = sorted(CANDIDATE_MODES)


def test_registry_is_fully_covered():
    # The fixtures parametrise over MODEL_REGISTRY; this guards against the
    # registry silently gaining a family the harness never sees.
    assert len(MODEL_REGISTRY) >= 10
    for name in MODEL_REGISTRY:
        assert build_conformance_model(name) is not None


@pytest.mark.parametrize("mode", MODES)
class TestAgreement:
    def test_matches_looped_score(self, conformance_model, candidate_block, mode):
        anchors, r, cand = candidate_block
        got = conformance_model.score_candidates(anchors, r, cand, mode)
        expected = looped_reference_scores(conformance_model, anchors, r, cand, mode)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_matches_bulk_scorers(self, conformance_model, candidate_block, mode):
        anchors, r, cand = candidate_block
        got = conformance_model.score_candidates(anchors, r, cand, mode)
        if mode == "tail":
            expected = conformance_model.score_tails(anchors, r, cand)
        else:
            expected = conformance_model.score_heads(cand, r, anchors)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_matches_generic_fallback(self, conformance_model, candidate_block, mode):
        """Specialised kernels may not drift from the base-class fallback."""
        anchors, r, cand = candidate_block
        got = conformance_model.score_candidates(anchors, r, cand, mode)
        generic = KGEModel._score_candidates_impl(
            conformance_model, anchors, r, cand, mode
        )
        np.testing.assert_allclose(got, generic, atol=1e-10)

    def test_matches_score_all(self, conformance_model, mode, rng):
        b = 3
        anchors = rng.integers(0, CONF_N_ENTITIES, b)
        r = rng.integers(0, CONF_N_RELATIONS, b)
        every = np.broadcast_to(
            np.arange(CONF_N_ENTITIES), (b, CONF_N_ENTITIES)
        )
        got = conformance_model.score_candidates(anchors, r, every, mode)
        if mode == "tail":
            expected = conformance_model.score_all_tails(anchors, r)
        else:
            expected = conformance_model.score_all_heads(r, anchors)
        np.testing.assert_allclose(got, expected, atol=1e-10)


@pytest.mark.parametrize("mode", MODES)
class TestDuplicateInvariance:
    def test_equal_ids_get_bitwise_equal_scores(self, conformance_model, rng, mode):
        b, c = 4, 8
        anchors = rng.integers(0, CONF_N_ENTITIES, b)
        r = rng.integers(0, CONF_N_RELATIONS, b)
        # Build rows from few distinct values so every row repeats ids.
        cand = rng.integers(0, 3, (b, c))
        scores = conformance_model.score_candidates(anchors, r, cand, mode)
        for i in range(b):
            for value in np.unique(cand[i]):
                cols = scores[i, cand[i] == value]
                assert np.all(cols == cols[0]), (
                    f"duplicate id {value} scored differently in row {i}: {cols}"
                )

    def test_column_permutation_permutes_scores(self, conformance_model, rng, mode):
        b, c = 3, 7
        anchors = rng.integers(0, CONF_N_ENTITIES, b)
        r = rng.integers(0, CONF_N_RELATIONS, b)
        cand = rng.integers(0, CONF_N_ENTITIES, (b, c))
        perm = rng.permutation(c)
        base = conformance_model.score_candidates(anchors, r, cand, mode)
        permuted = conformance_model.score_candidates(anchors, r, cand[:, perm], mode)
        np.testing.assert_array_equal(permuted, base[:, perm])


class TestDtypeShapeReadOnly:
    @pytest.mark.parametrize("mode", MODES)
    def test_output_is_fresh_float64_of_block_shape(
        self, conformance_model, candidate_block, mode
    ):
        anchors, r, cand = candidate_block
        out = conformance_model.score_candidates(anchors, r, cand, mode)
        assert out.dtype == np.float64
        assert out.shape == cand.shape
        # The result must not alias any parameter table.
        for table in conformance_model.params.values():
            assert not np.shares_memory(out, table)

    def test_inputs_never_written(self, conformance_model, candidate_block):
        anchors, r, cand = candidate_block
        snapshots = (anchors.copy(), r.copy(), cand.copy())
        for mode in MODES:
            conformance_model.score_candidates(anchors, r, cand, mode)
        np.testing.assert_array_equal(anchors, snapshots[0])
        np.testing.assert_array_equal(r, snapshots[1])
        np.testing.assert_array_equal(cand, snapshots[2])

    def test_accepts_readonly_broadcast_candidates(self, conformance_model, rng):
        anchors = rng.integers(0, CONF_N_ENTITIES, 4)
        r = rng.integers(0, CONF_N_RELATIONS, 4)
        row = rng.integers(0, CONF_N_ENTITIES, 6)
        cand = np.broadcast_to(row, (4, 6))  # zero-stride, non-writeable
        out = conformance_model.score_candidates(anchors, r, cand, "tail")
        expected = conformance_model.score_candidates(
            anchors, r, np.tile(row, (4, 1)), "tail"
        )
        np.testing.assert_array_equal(out, expected)

    def test_accepts_non_int64_ids(self, conformance_model):
        anchors = np.array([0, 1], dtype=np.int32)
        r = np.array([0, 1], dtype=np.int16)
        cand = np.array([[2, 3], [4, 5]], dtype=np.int32)
        out = conformance_model.score_candidates(anchors, r, cand, "head")
        assert out.shape == (2, 2)
        expected = conformance_model.score_candidates(
            anchors.astype(np.int64), r.astype(np.int64), cand.astype(np.int64), "head"
        )
        np.testing.assert_array_equal(out, expected)


class TestDeterminism:
    def test_repeated_calls_are_bitwise_identical(
        self, conformance_model, candidate_block
    ):
        anchors, r, cand = candidate_block
        for mode in MODES:
            first = conformance_model.score_candidates(anchors, r, cand, mode)
            second = conformance_model.score_candidates(anchors, r, cand, mode)
            np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
    def test_same_seed_same_scores(self, model_name, rng):
        anchors = rng.integers(0, CONF_N_ENTITIES, 3)
        r = rng.integers(0, CONF_N_RELATIONS, 3)
        cand = rng.integers(0, CONF_N_ENTITIES, (3, 5))
        a = build_conformance_model(model_name, rng=11)
        b = build_conformance_model(model_name, rng=11)
        np.testing.assert_array_equal(
            a.score_candidates(anchors, r, cand, "tail"),
            b.score_candidates(anchors, r, cand, "tail"),
        )


class TestValidation:
    @pytest.mark.parametrize("bad_mode", ["relation", "tails", "HEAD", "", None])
    def test_unknown_mode_raises_before_scoring(
        self, conformance_model, candidate_block, bad_mode
    ):
        anchors, r, cand = candidate_block
        with pytest.raises(ValueError, match="mode"):
            conformance_model.score_candidates(anchors, r, cand, bad_mode)

    def test_non_2d_candidates_rejected(self, conformance_model):
        with pytest.raises(ValueError, match=r"\[B, C\]"):
            conformance_model.score_candidates(
                np.array([0]), np.array([0]), np.array([1, 2, 3]), "tail"
            )

    def test_row_count_mismatch_rejected(self, conformance_model):
        cand = np.zeros((3, 4), dtype=np.int64)
        with pytest.raises(ValueError, match="anchors"):
            conformance_model.score_candidates(
                np.array([0, 1]), np.array([0, 1, 2]), cand, "tail"
            )


@pytest.mark.parametrize("mode", MODES)
class TestEdgeCases:
    def test_empty_batch(self, conformance_model, mode):
        empty = np.empty(0, dtype=np.int64)
        out = conformance_model.score_candidates(
            empty, empty, np.empty((0, 7), dtype=np.int64), mode
        )
        assert out.shape == (0, 7)
        assert out.dtype == np.float64

    def test_zero_candidates(self, conformance_model, mode):
        ids = np.array([0, 1], dtype=np.int64)
        out = conformance_model.score_candidates(
            ids, ids, np.empty((2, 0), dtype=np.int64), mode
        )
        assert out.shape == (2, 0)

    def test_single_candidate_block(self, conformance_model, rng, mode):
        """The N1 + N2 == 1 degenerate refresh width."""
        b = 4
        anchors = rng.integers(0, CONF_N_ENTITIES, b)
        r = rng.integers(0, CONF_N_RELATIONS, b)
        cand = rng.integers(0, CONF_N_ENTITIES, (b, 1))
        got = conformance_model.score_candidates(anchors, r, cand, mode)
        expected = looped_reference_scores(conformance_model, anchors, r, cand, mode)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_boundary_entity_ids(self, conformance_model, rng, mode):
        """The last entity row must be reachable from every kernel."""
        b, c = 3, 4
        last = CONF_N_ENTITIES - 1
        anchors = np.full(b, last, dtype=np.int64)
        r = rng.integers(0, CONF_N_RELATIONS, b)
        cand = np.full((b, c), last, dtype=np.int64)
        got = conformance_model.score_candidates(anchors, r, cand, mode)
        expected = looped_reference_scores(conformance_model, anchors, r, cand, mode)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_non_contiguous_candidates(self, conformance_model, rng, mode):
        b, c = 4, 6
        anchors = rng.integers(0, CONF_N_ENTITIES, b)
        r = rng.integers(0, CONF_N_RELATIONS, b)
        wide = rng.integers(0, CONF_N_ENTITIES, (b, 2 * c))
        cand = wide[:, ::2]  # strided view
        assert not cand.flags.c_contiguous
        got = conformance_model.score_candidates(anchors, r, cand, mode)
        expected = conformance_model.score_candidates(
            anchors, r, np.ascontiguousarray(cand), mode
        )
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(cand, wide[:, ::2])  # input untouched


#: (dim, candidates per row) shapes for the row-blocking tests: many rows
#: per block, the refresh shape (N1 + N2 = 100, d = 64), and rows too wide
#: for the budget (one row per block).
BLOCK_SHAPES = [(6, 9), (64, 100), (6, 11_000)]


def _boundary_batch_sizes(block):
    return sorted({1, max(1, block - 1), block, block + 1, 3 * block + 5})


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("model_name", sorted(UNBLOCKED_KERNELS))
class TestRowBlockedKernels:
    @pytest.mark.parametrize("dim, width", BLOCK_SHAPES)
    def test_byte_identical_across_block_boundaries(
        self, model_name, mode, dim, width, rng
    ):
        model = make_model(model_name, CONF_N_ENTITIES, CONF_N_RELATIONS, dim, rng=5)
        block = candidate_block_rows(width, dim)
        oracle = UNBLOCKED_KERNELS[model_name]
        for b in _boundary_batch_sizes(block):
            anchors = rng.integers(0, CONF_N_ENTITIES, b)
            r = rng.integers(0, CONF_N_RELATIONS, b)
            cand = rng.integers(0, CONF_N_ENTITIES, (b, width))
            got = model.score_candidates(anchors, r, cand, mode)
            expected = oracle(model, anchors, r, cand, mode)
            assert got.tobytes() == expected.tobytes(), f"B={b} block={block}"

    def test_non_contiguous_candidates_byte_identical(self, model_name, mode, rng):
        dim, width = 64, 100
        model = make_model(model_name, CONF_N_ENTITIES, CONF_N_RELATIONS, dim, rng=5)
        b = 3 * candidate_block_rows(width, dim) + 5
        anchors = rng.integers(0, CONF_N_ENTITIES, b)
        r = rng.integers(0, CONF_N_RELATIONS, b)
        strided = rng.integers(0, CONF_N_ENTITIES, (b, 2 * width))[:, ::2]
        fortran = np.asfortranarray(rng.integers(0, CONF_N_ENTITIES, (b, width)))
        for cand in (strided, fortran):
            assert not cand.flags.c_contiguous
            got = model.score_candidates(anchors, r, cand, mode)
            expected = UNBLOCKED_KERNELS[model_name](model, anchors, r, cand, mode)
            assert got.tobytes() == expected.tobytes()

    def test_ids_index_like_fancy_indexing(self, model_name, mode, rng):
        """Negative ids wrap as in ``table[ids]``; out-of-range ids raise."""
        model = build_conformance_model(model_name)
        anchors = rng.integers(0, CONF_N_ENTITIES, 2)
        r = rng.integers(0, CONF_N_RELATIONS, 2)
        negative = np.array([[-1, -CONF_N_ENTITIES], [0, -2]])
        got = model.score_candidates(anchors, r, negative, mode)
        expected = model.score_candidates(
            anchors, r, negative % CONF_N_ENTITIES, mode
        )
        np.testing.assert_array_equal(got, expected)
        for bad in (CONF_N_ENTITIES, -CONF_N_ENTITIES - 1):
            with pytest.raises(IndexError, match="out of bounds"):
                model.score_candidates(anchors, r, np.array([[0, bad], [1, 2]]), mode)


def test_block_rows_follow_the_byte_budget():
    assert candidate_block_rows(100, 64) == (1 << 19) // (100 * 64 * 8)
    assert candidate_block_rows(100, 64, itemsize=4) == 2 * candidate_block_rows(100, 64)
    assert candidate_block_rows(11_000, 6) == 1  # never fewer than one row
