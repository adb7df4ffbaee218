"""Tests for OLS, Theil-Sen, and nested-model ANOVA."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import f_test_nested, grouped_line_rss, ols_fit, theil_sen_fit


class TestOls:
    def test_exact_line_recovered(self):
        x = np.arange(10.0)
        y = 3.0 * x + 2.0
        fit = ols_fit(x, y)
        assert fit.slope == pytest.approx(3.0)
        assert fit.intercept == pytest.approx(2.0)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.n == 10

    def test_noisy_line_close(self):
        rng = np.random.default_rng(0)
        x = np.linspace(0, 100, 200)
        y = 0.5 * x + 10 + rng.normal(0, 1, 200)
        fit = ols_fit(x, y)
        assert fit.slope == pytest.approx(0.5, abs=0.02)
        assert fit.intercept == pytest.approx(10.0, abs=1.0)
        assert fit.r_squared > 0.98

    def test_predict_and_residuals(self):
        fit = ols_fit([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
        assert fit.predict(10.0) == pytest.approx(21.0)
        residuals = fit.residuals(np.array([0.0, 1.0]), np.array([1.0, 3.0]))
        assert np.allclose(residuals, 0.0)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            ols_fit([1.0], [2.0])
        with pytest.raises(ValueError):
            ols_fit([1.0, 1.0], [2.0, 3.0])   # zero x-variance
        with pytest.raises(ValueError):
            ols_fit([1.0, 2.0], [1.0, 2.0, 3.0])  # shape mismatch

    @given(slope=st.floats(-10, 10), intercept=st.floats(-100, 100))
    @settings(max_examples=50, deadline=None)
    def test_recovers_arbitrary_exact_lines(self, slope, intercept):
        x = np.array([0.0, 1.0, 2.0, 5.0, 9.0])
        y = slope * x + intercept
        fit = ols_fit(x, y)
        assert fit.slope == pytest.approx(slope, abs=1e-6)
        assert fit.intercept == pytest.approx(intercept, abs=1e-6)

    def test_residuals_sum_to_zero(self):
        rng = np.random.default_rng(1)
        x = rng.random(50) * 10
        y = 2 * x + rng.normal(0, 1, 50)
        fit = ols_fit(x, y)
        assert float(fit.residuals(x, y).sum()) == pytest.approx(0.0, abs=1e-8)


class TestTheilSen:
    def test_exact_line(self):
        x = np.arange(20.0)
        fit = theil_sen_fit(x, 0.5 * x + 1.0)
        assert fit.slope == pytest.approx(0.5)
        assert fit.intercept == pytest.approx(1.0)

    def test_robust_to_outliers(self):
        rng = np.random.default_rng(2)
        x = np.linspace(0, 100, 100)
        y = 0.5 * x + rng.normal(0, 0.5, 100)
        y[::10] += 500.0   # 10% gross outliers
        robust = theil_sen_fit(x, y)
        ols = ols_fit(x, y)
        assert abs(robust.slope - 0.5) < abs(ols.slope - 0.5)
        assert robust.slope == pytest.approx(0.5, abs=0.05)

    def test_subsampling_is_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.random(300)
        y = 2 * x + rng.normal(0, 0.1, 300)
        a = theil_sen_fit(x, y, max_pairs=1000, seed=7)
        b = theil_sen_fit(x, y, max_pairs=1000, seed=7)
        assert a.slope == b.slope

    def test_rejects_constant_x(self):
        with pytest.raises(ValueError):
            theil_sen_fit([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


class TestAnova:
    def test_known_f_statistic(self):
        # RSS drops from 100 to 50 with 1 extra parameter, n=52, full has 2.
        result = f_test_nested(100.0, 1, 50.0, 2, n=52)
        assert result.f_statistic == pytest.approx((50.0 / 1) / (50.0 / 50))
        assert result.df_extra == 1
        assert result.df_residual == 50

    def test_no_improvement_not_significant(self):
        result = f_test_nested(100.0, 2, 99.9, 4, n=100)
        assert not result.significant

    def test_huge_improvement_significant(self):
        result = f_test_nested(1000.0, 2, 10.0, 4, n=100)
        assert result.significant
        assert result.p_value < 1e-10

    def test_perfect_full_model(self):
        result = f_test_nested(10.0, 1, 0.0, 2, n=10)
        assert result.p_value == 0.0
        assert result.significant

    def test_rejects_invalid_nesting(self):
        with pytest.raises(ValueError):
            f_test_nested(10.0, 3, 5.0, 3, n=10)
        with pytest.raises(ValueError):
            f_test_nested(10.0, 1, 5.0, 2, n=2)
        with pytest.raises(ValueError):
            f_test_nested(-1.0, 1, 5.0, 2, n=10)

    def test_matches_scipy_reference(self):
        from scipy import stats as scipy_stats
        result = f_test_nested(200.0, 2, 150.0, 5, n=60)
        expected_p = float(scipy_stats.f.sf(result.f_statistic, 3, 55))
        assert result.p_value == pytest.approx(expected_p)


class TestGroupedRss:
    def test_perfect_per_group_lines(self):
        x = np.array([0, 1, 2, 0, 1, 2], dtype=float)
        y = np.array([0, 1, 2, 5, 7, 9], dtype=float)   # slopes 1 and 2
        groups = ["a", "a", "a", "b", "b", "b"]
        rss, params = grouped_line_rss(x, y, groups)
        assert rss == pytest.approx(0.0, abs=1e-12)
        assert params == 4

    def test_tiny_groups_skipped(self):
        x = np.array([0, 1, 2, 5], dtype=float)
        y = np.array([0, 1, 2, 5], dtype=float)
        groups = ["a", "a", "a", "lonely"]
        _, params = grouped_line_rss(x, y, groups)
        assert params == 2


class TestBootstrapCi:
    def test_interval_brackets_sample_slope(self):
        from repro.stats import bootstrap_slope_ci
        rng = np.random.default_rng(5)
        x = np.linspace(0, 100, 150)
        y = 0.7 * x + rng.normal(0, 2.0, 150)
        low, high = bootstrap_slope_ci(x, y, seed=1)
        sample_slope = ols_fit(x, y).slope
        assert low < sample_slope < high
        assert high - low < 0.1
        # The interval sits near the generating slope, up to sampling error.
        assert abs((low + high) / 2 - 0.7) < 0.05

    def test_narrower_with_less_noise(self):
        from repro.stats import bootstrap_slope_ci
        rng = np.random.default_rng(6)
        x = np.linspace(0, 100, 150)
        noisy = 0.7 * x + rng.normal(0, 5.0, 150)
        clean = 0.7 * x + rng.normal(0, 0.5, 150)
        low_n, high_n = bootstrap_slope_ci(x, noisy, seed=2)
        low_c, high_c = bootstrap_slope_ci(x, clean, seed=2)
        assert (high_c - low_c) < (high_n - low_n)

    def test_confidence_validated(self):
        from repro.stats import bootstrap_slope_ci
        with pytest.raises(ValueError):
            bootstrap_slope_ci([0.0, 1.0, 2.0], [0.0, 1.0, 2.0],
                               confidence=1.5)


def test_package_imports_leave_scipy_stats_unloaded():
    """scipy.stats costs most of a second to import; only Figure 4's
    ANOVA needs it, so the CLI, campaign and service never load it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli, repro.experiments.campaign, "
         "repro.service.frontend; print('scipy.stats' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
