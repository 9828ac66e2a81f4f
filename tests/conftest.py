import json
import math
import struct

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
