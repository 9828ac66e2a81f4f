import json
import math
import struct

import numpy as np
import pytest

# Float32 candidate scoring against float64 `forward`, as rtol and atol both
# (|score - value| <= SCORE_TOL * (1 + |value|)). Each float32 operation
# rounds to within eps32 / 2 of its exact result (eps32 = 2**-23, about
# 1.19e-7). A score is a chain of at most six layers in these tests' nets
# (three LSTM, the dense head), and each layer adds at most 2**6 roundings
# of O(1) terms: the input cast, a dot product of at most 17 terms, the gate
# nonlinearities and the cell update. Squashing slopes are <= 1 and Glorot
# weights keep a layer's gain near 1, so the errors add: 6 * 2**6 * eps32 / 2
# is below 2**9 * eps32, about 6.1e-5. Two float32 projections of one
# document by differently sized matmuls meet the same bound.
SCORE_TOL = 2**9 * np.finfo(np.float32).eps


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


def _rewrite_header(path, field: str, value) -> None:
    """Set the dotted ``field`` of the JSON header of the checkpoint at
    ``path`` to ``value``, keeping the magic and the parameter payload."""
    blob = path.read_bytes()
    hlen = struct.unpack("<I", blob[4:8])[0]
    header = json.loads(blob[8:8 + hlen])
    *sections, key = field.split(".")
    target = header
    for section in sections:
        target = target[section]
    target[key] = value
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(blob[:4] + struct.pack("<I", len(hjson)) + hjson + blob[8 + hlen:])


@pytest.fixture
def rewrite_header():
    """``rewrite_header(path, field, value)``: a checkpoint with one header field changed."""
    return _rewrite_header
