"""Regression helpers: OLS, robust Theil–Sen, and nested-model ANOVA.

These back three parts of the paper:

* Figure 4/5 — per-group OLS fits of delay vs. distance (one- and
  two-round-trip lines) and ANOVA F-tests for tool/browser/OS effects;
* Figure 13 — the robust linear regression whose slope is η ≈ 0.49, the
  direct/indirect RTT factor;
* general calibration diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class LinearFit:
    """A fitted line ``y = intercept + slope * x`` plus fit quality."""

    slope: float
    intercept: float
    r_squared: float
    n: int

    def predict(self, x: "np.ndarray | float") -> "np.ndarray | float":
        return self.intercept + self.slope * np.asarray(x, dtype=float)

    def residuals(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.asarray(y, dtype=float) - self.predict(x)


def _as_xy(x: Sequence[float], y: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"x and y have different shapes: {x.shape} vs {y.shape}")
    if x.ndim != 1:
        raise ValueError("expected 1-D data")
    if len(x) < 2:
        raise ValueError("need at least two points to fit a line")
    return x, y


def ols_fit(x: Sequence[float], y: Sequence[float]) -> LinearFit:
    """Ordinary least-squares fit of ``y`` on ``x``."""
    x, y = _as_xy(x, y)
    x_mean = x.mean()
    y_mean = y.mean()
    sxx = float(((x - x_mean) ** 2).sum())
    if sxx == 0.0:
        raise ValueError("x has zero variance; cannot fit a slope")
    sxy = float(((x - x_mean) * (y - y_mean)).sum())
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    ss_res = float(((y - (intercept + slope * x)) ** 2).sum())
    ss_tot = float(((y - y_mean) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LinearFit(slope=slope, intercept=intercept, r_squared=r_squared, n=len(x))


def theil_sen_fit(x: Sequence[float], y: Sequence[float],
                  max_pairs: int = 200_000, seed: int = 0) -> LinearFit:
    """Robust Theil–Sen estimator: median of pairwise slopes.

    Insensitive to the congestion outliers that plague RTT data, which is
    why the paper uses a robust regression for the η factor (Figure 13).
    For more than ``max_pairs`` point pairs a random subsample of pairs is
    used (seeded, so results are reproducible).
    """
    x, y = _as_xy(x, y)
    n = len(x)
    i_idx, j_idx = np.triu_indices(n, k=1)
    if len(i_idx) > max_pairs:
        rng = np.random.default_rng(seed)
        keep = rng.choice(len(i_idx), size=max_pairs, replace=False)
        i_idx, j_idx = i_idx[keep], j_idx[keep]
    dx = x[j_idx] - x[i_idx]
    dy = y[j_idx] - y[i_idx]
    valid = dx != 0
    if not valid.any():
        raise ValueError("all x values identical; cannot fit a slope")
    slope = float(np.median(dy[valid] / dx[valid]))
    intercept = float(np.median(y - slope * x))
    y_hat = intercept + slope * x
    ss_res = float(((y - y_hat) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LinearFit(slope=slope, intercept=intercept, r_squared=r_squared, n=n)


@dataclass(frozen=True)
class AnovaResult:
    """F-test comparing a full linear model against a nested reduced model."""

    f_statistic: float
    p_value: float
    df_extra: int
    df_residual: int

    @property
    def significant(self) -> bool:
        """Conventional α = 0.05 significance."""
        return self.p_value < 0.05


def f_test_nested(rss_reduced: float, params_reduced: int,
                  rss_full: float, params_full: int, n: int) -> AnovaResult:
    """ANOVA F-test for nested linear models.

    ``rss_*`` are residual sums of squares; ``params_*`` count fitted
    parameters (including intercepts).  The paper uses this to ask whether
    adding tool/browser/OS factors significantly improves the delay–
    distance regression (Section 4.3).
    """
    if params_full <= params_reduced:
        raise ValueError("full model must have more parameters than reduced")
    if n <= params_full:
        raise ValueError("need more observations than parameters")
    if rss_reduced < 0 or rss_full < 0:
        raise ValueError("negative residual sum of squares")
    df_extra = params_full - params_reduced
    df_residual = n - params_full
    if rss_full == 0.0:
        # Perfect full model: infinitely significant unless reduced is too.
        f_statistic = float("inf") if rss_reduced > 0 else 0.0
        p_value = 0.0 if rss_reduced > 0 else 1.0
        return AnovaResult(f_statistic, p_value, df_extra, df_residual)
    f_statistic = ((rss_reduced - rss_full) / df_extra) / (rss_full / df_residual)
    f_statistic = max(f_statistic, 0.0)
    # Imported here: scipy.stats costs most of a second to import, and
    # only Figure 4's ANOVA needs it.
    from scipy import stats

    p_value = float(stats.f.sf(f_statistic, df_extra, df_residual))
    return AnovaResult(f_statistic, p_value, df_extra, df_residual)


def bootstrap_slope_ci(x: Sequence[float], y: Sequence[float],
                       confidence: float = 0.95, n_resamples: int = 500,
                       seed: int = 0) -> Tuple[float, float]:
    """Bootstrap confidence interval for an OLS slope.

    Resamples (x, y) pairs with replacement and refits; returns the
    percentile interval.  Used to put uncertainty bars on the Figure 4/5
    slope-ratio claims, which the paper states as point estimates.
    """
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must be in (0, 1): {confidence!r}")
    x, y = _as_xy(x, y)
    rng = np.random.default_rng(seed)
    slopes = []
    n = len(x)
    for _ in range(n_resamples):
        indices = rng.integers(0, n, size=n)
        xs, ys = x[indices], y[indices]
        if xs.std() == 0:
            continue
        slopes.append(ols_fit(xs, ys).slope)
    if len(slopes) < 10:
        raise ValueError("bootstrap failed: too many degenerate resamples")
    alpha = (1.0 - confidence) / 2.0
    return (float(np.quantile(slopes, alpha)),
            float(np.quantile(slopes, 1.0 - alpha)))


def grouped_line_rss(
    x: np.ndarray, y: np.ndarray, groups: Sequence[object]
) -> Tuple[float, int]:
    """Total RSS of per-group OLS lines, plus the parameter count.

    Fits an independent ``y = a_g + b_g x`` within every group and returns
    the summed residual sum of squares and total number of parameters
    (2 per group).  Groups with fewer than 2 points contribute zero RSS and
    are skipped in the parameter count.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    group_ids = np.asarray(groups)
    total_rss = 0.0
    n_params = 0
    for g in np.unique(group_ids):
        mask = group_ids == g
        if mask.sum() < 2:
            continue
        fit = ols_fit(x[mask], y[mask])
        total_rss += float((fit.residuals(x[mask], y[mask]) ** 2).sum())
        n_params += 2
    return total_rss, n_params
