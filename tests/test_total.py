import numpy as np
import pytest

from conftest import random_tall
from lpsens.core import RandomSource
from lpsens.embed import lp_embedding
from lpsens.regress import sensitivities_exact, sensitivities_wrt
from lpsens.total import (
    OneShotTotal,
    TotalConfig,
    bounded_ratio_mean,
    total_lewis_oneshot,
    total_recursive_l1,
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TotalConfig(p=0.5, gamma=0.2)
        with pytest.raises(ValueError):
            TotalConfig(p=1, gamma=0.005)
        with pytest.raises(ValueError):
            TotalConfig(p=1, gamma=1.0)
        with pytest.raises(ValueError):
            TotalConfig(p=1, gamma=0.2, method="magic")

    def test_integer_overrides_take_integral_values_only(self):
        cfg = TotalConfig(p=1, gamma=0.3, base_size=30.0, r_override=np.int64(20))
        assert (cfg.base_size, cfg.r_override) == (30, 20)
        assert type(cfg.base_size) is int and type(cfg.r_override) is int
        unset = TotalConfig(p=1, gamma=0.3)
        assert unset.base_size is None and unset.r_override is None
        for field in ("base_size", "r_override"):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                TotalConfig(p=1, gamma=0.3, **{field: 8.7})


class TestOneShot:
    def test_identity_matrix_is_exact_for_any_p_and_seed(self):
        for p in (1.0, 2.0, 3.0):
            for seed in (0, 1, 17):
                est = total_lewis_oneshot(np.eye(5), TotalConfig(p=p, gamma=0.5),
                                          RandomSource(seed))
                assert est == pytest.approx(5.0, rel=1e-9)

    def test_p2_lands_near_rank(self, np_rng):
        a = random_tall(np_rng, 300, 5)
        hits = 0
        for seed in range(10):
            est = total_lewis_oneshot(a, TotalConfig(p=2, gamma=0.2), RandomSource(seed))
            hits += int(5.0 / 1.3 <= est <= 2.6 * 5.0)
        assert hits >= 9

    def test_unbiased_for_embedded_total(self, np_rng):
        a = random_tall(np_rng, 100, 3)
        shot = OneShotTotal(a, TotalConfig(p=2, gamma=0.3), RandomSource(5))
        vals = np.array([shot.estimate(RandomSource(5).child("trial", i))
                         for i in range(400)])
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - shot.embedded_total()) <= 3 * se

    def test_replicated_pattern_close_to_exact_total(self, np_rng):
        base = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        a = np.vstack([base] * 50)
        truth = float(sensitivities_exact(a, 1).values.sum())
        good = 0
        for seed in range(10):
            est = total_lewis_oneshot(a, TotalConfig(p=1, gamma=0.2), RandomSource(seed))
            good += int(abs(est - truth) <= 0.6 * truth)
        assert good >= 9

    def test_deterministic(self, np_rng):
        a = random_tall(np_rng, 80, 3)
        cfg = TotalConfig(p=1.5, gamma=0.3)
        x = total_lewis_oneshot(a, cfg, RandomSource(4))
        y = total_lewis_oneshot(a, cfg, RandomSource(4))
        assert x == y

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_estimate_is_sample_order_sum_of_oracle_ratios(self, np_rng, p):
        a = random_tall(np_rng, 60, 3, scale_rows=True)
        shot = OneShotTotal(a, TotalConfig(p=p, gamma=0.5), RandomSource(8))
        rng = RandomSource(9)
        idx = rng.generator().choice(60, size=shot.sample_size, replace=True, p=shot.probs)
        sens = sensitivities_wrt(a[idx], shot.sa, p)
        expected = 0.0
        for s, i in zip(sens, idx):
            expected += s / shot.v[i]
        assert shot.estimate(rng) == expected / shot.sample_size

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_embedded_total_sums_the_oracle(self, np_rng, p):
        a = random_tall(np_rng, 50, 3)
        shot = OneShotTotal(a, TotalConfig(p=p, gamma=0.5), RandomSource(2))
        shot.estimate(RandomSource(3))  # part of the memo comes from another batch
        assert shot.embedded_total() == sensitivities_wrt(a, shot.sa, p).sum()

    def test_memo_spares_repeated_oracle_rows(self, np_rng, monkeypatch):
        import lpsens.total

        a = random_tall(np_rng, 60, 3)
        shot = OneShotTotal(a, TotalConfig(p=1.5, gamma=0.5), RandomSource(4))
        asked = []

        def counting(rows, b, p):
            asked.append(rows.copy())
            return sensitivities_wrt(rows, b, p)

        monkeypatch.setattr(lpsens.total, "sensitivities_wrt", counting)
        first = shot.estimate(RandomSource(5))
        assert len(asked) == 1
        assert shot.estimate(RandomSource(5)) == first
        assert len(asked) == 1
        shot.estimate(RandomSource(6))
        seen = {r.tobytes() for r in asked[0]}
        assert len(asked) == 2 and not any(r.tobytes() in seen for r in asked[1])
        shot.embedded_total()
        assert sum(len(r) for r in asked) == 60

    def test_sample_size_formula(self, np_rng):
        a = random_tall(np_rng, 50, 4)
        shot = OneShotTotal(a, TotalConfig(p=3, gamma=0.25), RandomSource(0))
        expected = int(np.ceil(10.0 * 4 ** abs(1 - 1.5) / 0.25**2))
        assert shot.sample_size == expected


class TestBoundedRatioMean:
    def test_constant_items_exact(self):
        vals = np.full(777, 2.5)
        got = bounded_ratio_mean(vals, 1.0, 0.3, 0.1, RandomSource(0))
        assert got == pytest.approx(vals.sum(), rel=1e-12)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            bounded_ratio_mean(np.array([1.0, 0.0]), 2.0, 0.2, 0.1, RandomSource(0))

    def test_rejects_bad_parameters(self):
        v = np.ones(5)
        with pytest.raises(ValueError):
            bounded_ratio_mean(v, 0.5, 0.2, 0.1, RandomSource(0))
        with pytest.raises(ValueError):
            bounded_ratio_mean(v, 1.0, 1.2, 0.1, RandomSource(0))
        with pytest.raises(ValueError):
            bounded_ratio_mean(v, 1.0, 0.2, 0.0, RandomSource(0))

    def test_outlier_mixture_within_gamma_mostly(self):
        vals = np.concatenate([np.ones(999), [100.0]])
        truth = vals.sum()
        bad = 0
        trials = 60
        for t in range(trials):
            est = bounded_ratio_mean(vals, 100.0, 0.2, 0.05, RandomSource(t))
            bad += int(abs(est - truth) > 0.2 * truth)
        assert bad <= 3  # delta = 0.05 allows 3 failures in 60 generously


class TestRecursive:
    def test_requires_p_equal_one(self, np_rng):
        a = random_tall(np_rng, 30, 2)
        with pytest.raises(ValueError):
            total_recursive_l1(a, TotalConfig(p=2, gamma=0.2), RandomSource(0))

    def test_base_case_equals_scaled_embedded_total(self, np_rng):
        from lpsens.total import _depth_cap

        a = random_tall(np_rng, 90, 3)
        cfg = TotalConfig(p=1, gamma=0.3, method="recursive_l1")
        rng = RandomSource(2)
        got = total_recursive_l1(a, cfg, rng)
        # defaults put a 90-row matrix in the base case immediately
        rho = 0.3 / _depth_cap(90, 3)
        spa = lp_embedding(a, 1, min(cfg.embed_eps, rho), rng.child("spa"))
        ref = (1.0 + 0.3) * sensitivities_wrt(a, spa.materialize(a), 1).sum()
        assert got == pytest.approx(ref, rel=1e-9)

    def test_near_exact_on_easy_matrix(self, np_rng):
        a = random_tall(np_rng, 120, 3)
        truth = float(sensitivities_exact(a, 1).values.sum())
        got = total_recursive_l1(a, TotalConfig(p=1, gamma=0.3), RandomSource(7))
        assert truth * 0.95 <= got <= truth * (1.3 * 1.2)

    def test_forced_recursion_stays_in_window(self, np_rng):
        a = random_tall(np_rng, 60, 3)
        truth = float(sensitivities_exact(a, 1).values.sum())
        cfg = TotalConfig(p=1, gamma=0.3, method="recursive_l1",
                          base_size=8, r_override=6)
        got = total_recursive_l1(a, cfg, RandomSource(3))
        assert 0.3 * truth <= got <= 3.0 * truth

    def test_identical_rows_reduce_to_equal_item_sampling(self):
        a = np.ones((400, 1))
        truth = 1.0  # each sensitivity is 1/400
        cfg = TotalConfig(p=1, gamma=0.3, method="recursive_l1",
                          base_size=64, r_override=64)
        got = total_recursive_l1(a, cfg, RandomSource(1))
        # exact up to the (1+gamma)(1+rho)^depth safety factors
        assert truth <= got <= 1.8 * truth

    @pytest.mark.parametrize("seed, n, d, base_size", [(0, 120, 2, 8), (1, 400, 3, 16)])
    def test_base_size_without_r_override_stays_in_window(self, seed, n, d, base_size):
        # the formula's per-bucket size keeps every row, so a node of one bucket
        # once recursed on itself until the depth guard raised; it is a base case
        g = np.random.default_rng(seed)
        a = g.standard_normal((n, d)) * np.exp(g.uniform(-1.5, 1.5, n))[:, None]
        truth = float(sensitivities_exact(a, 1).values.sum())
        cfg = TotalConfig(p=1, gamma=0.2, method="recursive_l1", base_size=base_size)
        for draw in range(3):
            got = total_recursive_l1(a, cfg, RandomSource(draw))
            assert (1.0 - 1e-9) * truth <= got <= 3.0 * truth  # acceptance 06's window

    @pytest.mark.parametrize("base_size, draws", [(None, 1), (8, 2)], ids=["default", "recursing"])
    def test_sa_is_drawn_only_when_the_root_recurses(self, np_rng, monkeypatch, base_size, draws):
        import lpsens.total as total

        embed, seen = total.lp_embedding, []
        monkeypatch.setattr(total, "lp_embedding", lambda *a, **kw: seen.append(1) or embed(*a, **kw))
        a = random_tall(np_rng, 112, 4, scale_rows=True)
        cfg = TotalConfig(p=1, gamma=0.2, method="recursive_l1", base_size=base_size)
        total_recursive_l1(a, cfg, RandomSource(1))
        assert len(seen) == draws  # spa always; sa only for a root that recurses

    def test_depth_guard_raises_on_non_shrinking_recursion(self):
        a = np.ones((8, 1))
        cfg = TotalConfig(p=1, gamma=0.3, method="recursive_l1",
                          base_size=1, r_override=100)
        with pytest.raises(RuntimeError, match="depth"):
            total_recursive_l1(a, cfg, RandomSource(0))

    def test_deterministic(self, np_rng):
        a = random_tall(np_rng, 70, 2)
        cfg = TotalConfig(p=1, gamma=0.3, method="recursive_l1")
        x = total_recursive_l1(a, cfg, RandomSource(6))
        y = total_recursive_l1(a, cfg, RandomSource(6))
        assert x == y
