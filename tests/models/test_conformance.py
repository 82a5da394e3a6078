"""Model-conformance harness: one scoring contract for every registry model.

``score_candidates`` is the primitive the NSCaching cache refresh is built
on, and each model family ships its own fused kernel for it.  This suite
pins the contract those kernels must honour so any future specialisation
is caught by construction:

* agreement with the looped ``score()`` oracle, with the base-class
  fallback that broadcasts through ``score()``, and with ``score_all_*``;
  a model that defines only ``score``/``grad`` gets every scorer from
  that fallback;
* duplicate-candidate invariance (equal ids ⇒ bitwise-equal scores);
* dtype / shape / read-only guarantees (float64 ``[B, C]`` out, inputs
  never written, non-contiguous and non-int64 inputs accepted);
* determinism (same parameters ⇒ bitwise-identical scores, no RNG);
* early ``ValueError`` on an unknown corruption mode or bad shapes;
* edge cases: empty batch, a single candidate (``N1 + N2 == 1``), ids at
  ``n_entities - 1``;
* row-blocking: the bilinear, TransE and RotatE kernels score a few rows
  per gather, and must stay byte-identical to the unblocked gather +
  matmul (or residual-norm) oracle for batch sizes on both sides of every
  block boundary;
* entity-blocked ``score_all_*``: chunk-independent, byte-identical to
  ``score_candidates`` over all entities (and, for TransE and RotatE, to
  the old broadcast path) on both sides of every entity-range boundary
  (TransE's own one-row ranges included, with the split on and off),
  with temporaries bounded by the candidate byte budget.

Every test runs for every entry in ``MODEL_REGISTRY`` via the
``conformance_model`` fixture (see ``conftest.py``).
"""

import numpy as np
import pytest

from repro.models import MODEL_REGISTRY, make_model
from repro.models.base import (
    CANDIDATE_BLOCK_BYTES,
    CANDIDATE_MODES,
    KGEModel,
    candidate_block_rows,
    entity_range_width,
)
from repro.sampling.self_adversarial import SelfAdversarialSampler

from conformance_fixtures import (
    BLOCKED_KERNEL_CASES,
    CONF_DIM,
    CONF_N_ENTITIES,
    CONF_N_RELATIONS,
    UNBLOCKED_KERNELS,
    UNBLOCKED_SCORE_ALL,
    assert_score_all_memory_bounded,
    block_rows,
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
        """Arbitrary (repeated, unordered) ids score as the same columns of
        the bulk ``score_all_*`` rows."""
        anchors, r, cand = candidate_block
        got = conformance_model.score_candidates(anchors, r, cand, mode)
        if mode == "tail":
            bulk = conformance_model.score_all_tails(anchors, r)
        else:
            bulk = conformance_model.score_all_heads(r, anchors)
        expected = np.take_along_axis(bulk, cand, axis=1)
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


def _blocked_case(case, dim=CONF_DIM, rng=5):
    """The model and unblocked oracle of one ``BLOCKED_KERNEL_CASES`` entry."""
    name, options = BLOCKED_KERNEL_CASES[case]
    model = make_model(name, CONF_N_ENTITIES, CONF_N_RELATIONS, dim, rng=rng, **options)
    return model, UNBLOCKED_KERNELS[name]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", sorted(BLOCKED_KERNEL_CASES))
class TestRowBlockedKernels:
    @pytest.mark.parametrize("dim, width", BLOCK_SHAPES)
    def test_byte_identical_across_block_boundaries(
        self, case, mode, dim, width, rng
    ):
        model, oracle = _blocked_case(case, dim)
        block = block_rows(BLOCKED_KERNEL_CASES[case][0], width, dim)
        for b in _boundary_batch_sizes(block):
            anchors = rng.integers(0, CONF_N_ENTITIES, b)
            r = rng.integers(0, CONF_N_RELATIONS, b)
            cand = rng.integers(0, CONF_N_ENTITIES, (b, width))
            got = model.score_candidates(anchors, r, cand, mode)
            expected = oracle(model, anchors, r, cand, mode)
            assert got.tobytes() == expected.tobytes(), f"B={b} block={block}"

    def test_non_contiguous_candidates_byte_identical(self, case, mode, rng):
        dim, width = 64, 100
        model, oracle = _blocked_case(case, dim)
        b = 3 * block_rows(BLOCKED_KERNEL_CASES[case][0], width, dim) + 5
        anchors = rng.integers(0, CONF_N_ENTITIES, b)
        r = rng.integers(0, CONF_N_RELATIONS, b)
        strided = rng.integers(0, CONF_N_ENTITIES, (b, 2 * width))[:, ::2]
        fortran = np.asfortranarray(rng.integers(0, CONF_N_ENTITIES, (b, width)))
        for cand in (strided, fortran):
            assert not cand.flags.c_contiguous
            got = model.score_candidates(anchors, r, cand, mode)
            expected = oracle(model, anchors, r, cand, mode)
            assert got.tobytes() == expected.tobytes()

    def test_ids_index_like_fancy_indexing(self, case, mode, rng):
        """Negative ids wrap as in ``table[ids]``; out-of-range ids raise."""
        model, _ = _blocked_case(case, rng=3)
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


# -- entity-blocked score_all_* ------------------------------------------------

SCORE_ALL_DIM = 64
#: score_all cases with a broadcast oracle: registry name and options.
SCORE_ALL_ORACLE_CASES = {
    "TransE": ("TransE", {}),
    "TransE-p2": ("TransE", {"p": 2}),
    "RotatE": ("RotatE", {}),
}


def _score_all(model, anchors, r, mode, **kwargs):
    if mode == "tail":
        return model.score_all_tails(anchors, r, **kwargs)
    return model.score_all_heads(r, anchors, **kwargs)


def _entity_counts(b):
    """Entity counts on both sides of the range boundaries, and below one."""
    width = entity_range_width(b, SCORE_ALL_DIM)
    return [5, width - 1, width, width + 1, 2 * width + 3]


def _queries(rng, b, n_entities):
    return rng.integers(0, n_entities, b), rng.integers(0, CONF_N_RELATIONS, b)


@pytest.mark.parametrize("mode", MODES)
# B = 130 would give 7-entity ranges before rounding to whole 64s.
@pytest.mark.parametrize("b", [0, 1, 17, 130])
class TestEntityBlockedScoreAll:
    @pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
    def test_matches_score_candidates_over_all_entities(
        self, model_name, b, mode, rng
    ):
        for n in _entity_counts(b):
            model = make_model(model_name, n, CONF_N_RELATIONS, SCORE_ALL_DIM, rng=5)
            anchors, r = _queries(rng, b, n)
            got = _score_all(model, anchors, r, mode)
            everyone = np.broadcast_to(np.arange(n), (b, n))
            expected = model.score_candidates(anchors, r, everyone, mode)
            assert got.dtype == np.float64 and got.shape == (b, n)
            if type(model).score_all_tails is KGEModel.score_all_tails:
                assert got.tobytes() == expected.tobytes(), f"E={n}"
            else:
                # A GEMM override: one [B, d] @ [d, E] product sums in a
                # different order than the kernel's per-row matvecs.
                np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("case", sorted(SCORE_ALL_ORACLE_CASES))
    def test_byte_identical_to_broadcast_oracle(self, case, b, mode, rng):
        name, options = SCORE_ALL_ORACLE_CASES[case]
        for n in _entity_counts(b):
            model = make_model(
                name, n, CONF_N_RELATIONS, SCORE_ALL_DIM, rng=5, **options
            )
            anchors, r = _queries(rng, b, n)
            got = _score_all(model, anchors, r, mode)
            expected = UNBLOCKED_SCORE_ALL[name](model, anchors, r, mode)
            assert got.tobytes() == expected.tobytes(), f"E={n}"


#: TransE's own ``score_all_*`` ranges: one query row's candidate byte
#: budget of entities, whatever B is.
TRANSE_RANGE_WIDTH = CANDIDATE_BLOCK_BYTES // (SCORE_ALL_DIM * 8)


@pytest.mark.parametrize("split_on", [False, True], ids=["serial", "split"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("b", [1, 2, 17, 130])
def test_transe_score_all_at_its_range_boundaries(split, split_on, b, p, mode, rng):
    """TransE scores every entity from the table in (row, range) items:
    on both sides of one and two of its own ranges, with the split on and
    off, the bytes equal ``score_candidates`` over all entities and the
    broadcast oracle."""
    split(split_on)
    w = TRANSE_RANGE_WIDTH
    for n in (w - 1, w, w + 1, 2 * w + 3):
        model = make_model("TransE", n, CONF_N_RELATIONS, SCORE_ALL_DIM, rng=5, p=p)
        anchors, r = _queries(rng, b, n)
        got = _score_all(model, anchors, r, mode)
        everyone = np.broadcast_to(np.arange(n), (b, n))
        expected = model.score_candidates(anchors, r, everyone, mode)
        assert got.tobytes() == expected.tobytes(), f"E={n}"
        oracle = UNBLOCKED_SCORE_ALL["TransE"](model, anchors, r, mode)
        assert got.tobytes() == oracle.tobytes(), f"E={n}"


@pytest.mark.parametrize("mode", MODES)
def test_score_all_ignores_chunk(conformance_model, mode, rng):
    """Regression: a negative chunk returned uninitialised memory and a
    zero chunk raised; chunk no longer affects the result at all."""
    anchors, r = _queries(rng, 5, CONF_N_ENTITIES)
    default = _score_all(conformance_model, anchors, r, mode)
    for chunk in (-1, 0, 1, 3, 64):
        got = _score_all(conformance_model, anchors, r, mode, chunk=chunk)
        assert got.tobytes() == default.tobytes(), f"chunk={chunk}"


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
def test_score_all_memory_is_bounded(model_name, mode, rng):
    """Peak memory stays within the output plus a few candidate blocks,
    however many entities there are (the [chunk, E, d] broadcast peaked
    at hundreds of MB here).  ``test_kernel_threads.py`` repeats this with
    the two-thread split forced on."""
    assert_score_all_memory_bounded(model_name, mode, rng)


# -- the base-class fallback ---------------------------------------------------


class _MinimalDistMult(KGEModel):
    """DistMult from ``score`` alone: no candidate kernel and no
    ``score_all_*`` override, so every scorer runs the base fallback."""

    def _init_params(self, rng):
        self.params["entity"] = rng.normal(size=(self.n_entities, self.dim))
        self.params["relation"] = rng.normal(size=(self.n_relations, self.dim))

    def score(self, h, r, t):
        p = self.params
        return np.sum(p["entity"][h] * p["relation"][r] * p["entity"][t], axis=-1)

    def grad(self, h, r, t, upstream):
        raise NotImplementedError("the scorers never differentiate")


class TestMinimalSubclass:
    """A model that defines only ``_init_params``/``score``/``grad`` still
    gets ``score_candidates``, ``score_all_*`` and the samplers built on
    them (the fallback must not call back into ``score_candidates``)."""

    @pytest.mark.parametrize("mode", MODES)
    def test_scorers_match_looped_score(self, candidate_block, mode):
        model = _MinimalDistMult(CONF_N_ENTITIES, CONF_N_RELATIONS, CONF_DIM, rng=3)
        anchors, r, cand = candidate_block
        np.testing.assert_allclose(
            model.score_candidates(anchors, r, cand, mode),
            looped_reference_scores(model, anchors, r, cand, mode),
            atol=1e-10,
        )
        every = np.broadcast_to(
            np.arange(CONF_N_ENTITIES), (len(anchors), CONF_N_ENTITIES)
        )
        np.testing.assert_allclose(
            _score_all(model, anchors, r, mode),
            looped_reference_scores(model, anchors, r, every, mode),
            atol=1e-10,
        )

    def test_self_adversarial_sampler_runs(self, tiny_kg):
        model = _MinimalDistMult(tiny_kg.n_entities, tiny_kg.n_relations, 4, rng=0)
        sampler = SelfAdversarialSampler(candidate_size=8).bind(model, tiny_kg, rng=0)
        batch = tiny_kg.train[:16]
        negatives = sampler.sample(batch)
        assert negatives.shape == batch.shape
