"""Dense vector representations of queries and documents.

Vectors are plain 1-D float64 numpy arrays with a fixed dimension per run.
The built-in encoder is a deterministic hashed bag-of-words, so the whole
pipeline runs with zero external dependencies; precomputed embeddings can
be ingested from TSV instead (``read_vectors_tsv``).
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping

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


def mean_vectors(vectors: Iterable, dim: int | None = None) -> np.ndarray:
    """Arithmetic mean of a collection of vectors.

    An empty collection yields the zero vector, in which case ``dim``
    must be given.
    """
    vecs = [_as_vector(v) for v in vectors]
    if not vecs:
        if dim is None:
            raise ValueError("dim is required to take the mean of an empty set")
        return np.zeros(dim, dtype=np.float64)
    d = vecs[0].shape[0]
    for v in vecs[1:]:
        if v.shape[0] != d:
            raise ValueError(f"mixed dimensions: {d} vs {v.shape[0]}")
    return np.mean(np.stack(vecs), axis=0)


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


@dataclass
class EmbeddedCorpus:
    """A set of documents with one embedding per document id."""

    dim: int
    vectors: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        for doc_id, vec in self.vectors.items():
            arr = _as_vector(vec)
            if arr.shape[0] != self.dim:
                raise ValueError(f"doc {doc_id!r}: expected dim {self.dim}, got {arr.shape[0]}")
            if not np.isfinite(arr).all():
                raise ValueError(f"doc {doc_id!r}: non-finite entries")
            self.vectors[doc_id] = arr

    @property
    def doc_ids(self) -> list[str]:
        return list(self.vectors)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self.vectors


def read_vectors_tsv(path) -> EmbeddedCorpus:
    """Read an embeddings TSV: header ``#dim=D`` then ``doc_id\\tv1...\\tvD`` rows.

    Raises ValueError with the offending line number on malformed input.
    """
    vectors: dict[str, np.ndarray] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("#dim="):
            raise ValueError("line 1: expected header '#dim=D'")
        try:
            dim = int(header[len("#dim="):].strip())
        except ValueError:
            raise ValueError("line 1: malformed dimension in header") from None
        if dim < 1:
            raise ValueError("line 1: dimension must be >= 1")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split("\t")
            if len(cells) != dim + 1:
                raise ValueError(f"line {lineno}: expected {dim + 1} columns, got {len(cells)}")
            doc_id = cells[0]
            if doc_id in vectors:
                raise ValueError(f"line {lineno}: duplicate doc id {doc_id!r}")
            try:
                vectors[doc_id] = np.array([float(c) for c in cells[1:]], dtype=np.float64)
            except ValueError:
                raise ValueError(f"line {lineno}: malformed float") from None
    return EmbeddedCorpus(dim=dim, vectors=vectors)
