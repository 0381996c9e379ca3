import numpy as np
import pytest

from conftest import random_tall
from lpsens import rowwise
from lpsens.core import RandomSource, require_tall_full_rank
from lpsens.embed import lp_embedding
from lpsens.lewis import LewisConfig, lewis_weights
from lpsens.regress import sensitivities_exact, sensitivities_wrt
from lpsens.rowwise import RowwiseConfig, random_blocks, sensitivities_rowwise


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RowwiseConfig(p=0.5, alpha=2)
        with pytest.raises(ValueError):
            RowwiseConfig(p=1, alpha=0)
        with pytest.raises(ValueError):
            RowwiseConfig(p=1, alpha=2, repetitions=4)  # must be odd
        with pytest.raises(ValueError):
            RowwiseConfig(p=1, alpha=2, embed_eps=1.0)

    def test_integer_fields_take_integral_values_only(self):
        cfg = RowwiseConfig(p=1, alpha=5.0, signs_per_block=np.int64(8), repetitions=3.0)
        ints = (cfg.alpha, cfg.signs_per_block, cfg.repetitions)
        assert ints == (5, 8, 3) and all(type(v) is int for v in ints)
        for field in ("alpha", "signs_per_block", "repetitions"):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                RowwiseConfig(p=1, **{"alpha": 5, field: 2.5})
        with pytest.raises(ValueError, match="alpha must be an integer"):
            RowwiseConfig(p=1, alpha=float("nan"))


class TestBlocks:
    def test_partition_property(self):
        rng = RandomSource(3)
        blocks = random_blocks(23, 5, rng)
        sizes = [len(b) for b in blocks]
        assert sum(sizes) == 23
        assert max(sizes) <= 5
        seen = np.sort(np.concatenate(blocks))
        np.testing.assert_array_equal(seen, np.arange(23))

    def test_exact_division_gives_equal_blocks(self):
        blocks = random_blocks(20, 5, RandomSource(0))
        assert [len(b) for b in blocks] == [5, 5, 5, 5]


class TestEstimator:
    def test_alpha_one_reproduces_embedded_sensitivities(self, np_rng):
        a = random_tall(np_rng, 60, 3)
        cfg = RowwiseConfig(p=1, alpha=1, signs_per_block=4, repetitions=3)
        src = RandomSource(11)
        res = sensitivities_rowwise(a, cfg, src)
        w = lewis_weights(a, LewisConfig(p=1)).values
        emb = lp_embedding(a, 1, cfg.embed_eps, src.child("embed"), weights=w)
        ref = sensitivities_wrt(a, emb.materialize(a), 1)
        np.testing.assert_allclose(res.estimates.values, ref, atol=1e-12)

    def test_oracle_call_count_formula(self, np_rng):
        a = random_tall(np_rng, 47, 3)
        cfg = RowwiseConfig(p=1, alpha=10, signs_per_block=6, repetitions=3)
        res = sensitivities_rowwise(a, cfg, RandomSource(2))
        blocks = -(-47 // 10)
        assert res.oracle_calls == 3 * 6 * blocks

    def test_output_shape_and_nonnegativity(self, np_rng):
        a = random_tall(np_rng, 40, 3)
        cfg = RowwiseConfig(p=2, alpha=8, signs_per_block=5, repetitions=3)
        res = sensitivities_rowwise(a, cfg, RandomSource(4))
        assert len(res.estimates) == 40
        assert np.all(res.estimates.values >= 0)
        assert res.estimates.kind == "sensitivity"
        assert res.per_repetition.shape == (3, 40)

    def test_deterministic(self, np_rng):
        a = random_tall(np_rng, 30, 2)
        cfg = RowwiseConfig(p=1, alpha=5, signs_per_block=4, repetitions=3)
        r1 = sensitivities_rowwise(a, cfg, RandomSource(8))
        r2 = sensitivities_rowwise(a, cfg, RandomSource(8))
        np.testing.assert_array_equal(r1.estimates.values, r2.estimates.values)

    def test_alpha_must_be_smaller_than_n(self, np_rng):
        a = random_tall(np_rng, 10, 2)
        cfg = RowwiseConfig(p=1, alpha=10, signs_per_block=2, repetitions=1)
        with pytest.raises(ValueError):
            sensitivities_rowwise(a, cfg, RandomSource(0))

    def test_stacked_identity_lower_bound(self):
        # every true sensitivity is 1/k; estimates should not undershoot
        k, d = 10, 3
        a = np.vstack([np.eye(d)] * k)
        cfg = RowwiseConfig(p=1, alpha=5, signs_per_block=16, repetitions=3)
        hits = 0
        for seed in range(5):
            res = sensitivities_rowwise(a, cfg, RandomSource(seed))
            hits += int(np.all(res.estimates.values >= 1.0 / k - 1e-9))
        assert hits >= 4

    def test_median_is_entrywise_over_repetitions(self, np_rng):
        a = random_tall(np_rng, 24, 2)
        cfg = RowwiseConfig(p=1, alpha=6, signs_per_block=4, repetitions=5)
        res = sensitivities_rowwise(a, cfg, RandomSource(1))
        np.testing.assert_allclose(
            res.estimates.values, np.median(res.per_repetition, axis=0), atol=0
        )


def per_block_rowwise(a, cfg, rng):
    """Reference: one block at a time, on the estimator's streams.

    The blocks are ``random_blocks``' partition; block b takes its signs from
    slice b of the repetition's one draw, cut to the block's size, and gets
    its own oracle call.
    """
    gated = require_tall_full_rank(a)
    sa = lp_embedding(gated, cfg.p, cfg.embed_eps, rng.child("embed")).materialize(gated.a)
    n = a.shape[0]
    per_rep = np.empty((cfg.repetitions, n))
    for rep in range(cfg.repetitions):
        rep_rng = rng.child("rep", rep)
        blocks = random_blocks(n, cfg.alpha, rep_rng.child("blocks"))
        draw = rep_rng.child("signs").generator().integers(
            0, 2, size=(len(blocks), cfg.signs_per_block, cfg.alpha), dtype=np.bool_
        )
        for b, block in enumerate(blocks):
            signs = draw[b, :, : block.size].astype(np.float64) * 2.0 - 1.0
            per_rep[rep, block] = sensitivities_wrt(signs @ a[block], sa, cfg.p).max()
    return per_rep, np.median(per_rep, axis=0)


class TestBatchedBlocks:
    CASES = [
        # (p, n, alpha, signs_per_block, repetitions)
        (1, 23, 5, 4, 3),  # short last block of 3 rows
        (2, 23, 5, 4, 5),
        (2, 41, 10, 6, 1),  # short last block of 1 row
        (1, 30, 6, 3, 1),  # alpha divides n
        (2, 17, 1, 3, 3),  # alpha = 1: every block one row
        (1, 12, 1, 2, 5),
    ]

    @pytest.mark.parametrize("p, n, alpha, signs, reps", CASES)
    def test_reproduces_the_per_block_loop(self, np_rng, monkeypatch, p, n, alpha, signs, reps):
        a = random_tall(np_rng, n, 3, scale_rows=True)
        cfg = RowwiseConfig(p=p, alpha=alpha, signs_per_block=signs, repetitions=reps)
        ref_rep, ref_est = per_block_rowwise(a, cfg, RandomSource(5))
        res = sensitivities_rowwise(a, cfg, RandomSource(5))
        np.testing.assert_array_equal(res.per_repetition, ref_rep)
        np.testing.assert_array_equal(res.estimates.values, ref_est)
        # float signs for one block at a time: the same outputs
        monkeypatch.setattr(rowwise, "_SIGN_BUDGET", signs * alpha)
        one = sensitivities_rowwise(a, cfg, RandomSource(5))
        np.testing.assert_array_equal(one.per_repetition, ref_rep)
        np.testing.assert_array_equal(one.estimates.values, ref_est)
