"""Dense vector representations of queries and documents.

Vectors are plain 1-D float64 numpy arrays with a fixed dimension per run.
The built-in encoder is a deterministic hashed bag-of-words, so the whole
pipeline runs with zero external dependencies; precomputed embeddings can
be ingested from TSV instead (``data.read_vectors_tsv``).
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from typing import Mapping

import numpy as np

_TOKEN_RE = re.compile(r"[0-9a-z]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric characters."""
    return _TOKEN_RE.findall(text.lower())


def token_bucket(token: str, dim: int, seed: int) -> int:
    """Stable seeded hash of a token into [0, dim)."""
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8, key=key).digest()
    return int.from_bytes(digest, "little") % dim


def embed_text(text: str, dim: int = 512, seed: int = 0) -> np.ndarray:
    """Hashed bag-of-words embedding, L2-normalized.

    Deterministic in (text, dim, seed). Empty or whitespace-only text
    yields the zero vector.
    """
    return embed_term_weights(Counter(tokenize(text)), dim, seed)


def embed_term_weights(weights: Mapping[str, float], dim: int, seed: int = 0) -> np.ndarray:
    """Embed a sparse term-weight map into the hashed space, L2-normalized."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    vec = np.zeros(dim, dtype=np.float64)
    for term, w in weights.items():
        vec[token_bucket(term, dim, seed)] += float(w)
    norm = np.linalg.norm(vec)
    if norm > 0.0:
        vec /= norm
    return vec


def _as_vector(v) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    return arr


def cosine(a, b) -> float:
    """Cosine similarity; 0.0 when either vector has zero norm."""
    a = _as_vector(a)
    b = _as_vector(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))
