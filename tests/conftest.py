import math

import pytest


def _chi2_ppf_99(df: int) -> float:
    """The 0.99 quantile of a chi-square law with 4 degrees of freedom.

    Its tail is exp(-x/2) (1 + x/2). Bisection on the log of the tail runs
    until the brackets are adjacent floats and returns the lower one, so
    the bound never exceeds the quantile.
    """
    if df != 4:
        raise ValueError(f"only 4 degrees of freedom are tabulated here, got {df}")
    lo, hi = 0.0, 100.0
    while lo < (mid := (lo + hi) / 2) < hi:
        lo, hi = (mid, hi) if math.log1p(mid / 2) - mid / 2 > math.log(0.01) else (lo, mid)
    return lo


@pytest.fixture
def chi2_ppf_99():
    """``chi2_ppf_99(df)``: the chi-square bound of the uniformity tests."""
    return _chi2_ppf_99
