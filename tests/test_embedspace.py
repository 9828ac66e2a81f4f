import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynrank.data import DataError, read_vectors_tsv
from dynrank.embedspace import (
    cosine,
    embed_text,
    embed_term_weights,
    tokenize,
    token_bucket,
)


def independent_bucket(token: str, dim: int, seed: int) -> int:
    # separate reimplementation of the hashing scheme
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    h = hashlib.blake2b(token.encode("utf-8"), digest_size=8, key=key)
    return int.from_bytes(h.digest(), "little") % dim


class TestEmbedText:
    def test_empty_text_is_zero_vector(self):
        vec = embed_text("", 512, 0)
        assert vec.shape == (512,)
        assert not vec.any()
        assert not embed_text("  \t\n ", 512, 0).any()

    def test_repeated_token_normalizes_to_same_direction(self):
        a = embed_text("cat cat", 8, 7)
        b = embed_text("cat", 8, 7)
        np.testing.assert_array_equal(a, b)
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-9)

    def test_buckets_match_independent_hash(self):
        vec = embed_text("polar ice", 512, 1)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)
        nonzero = set(np.nonzero(vec)[0])
        assert len(nonzero) <= 2
        expected = {independent_bucket("polar", 512, 1), independent_bucket("ice", 512, 1)}
        assert nonzero == expected

    def test_deterministic_bitwise(self):
        a = embed_text("dynamic search ranking", 64, 3)
        b = embed_text("dynamic search ranking", 64, 3)
        assert a.tobytes() == b.tobytes()

    def test_seed_changes_buckets(self):
        a = embed_text("polar", 512, 1)
        b = embed_text("polar", 512, 2)
        assert not np.array_equal(a, b)

    @given(st.text(max_size=40), st.integers(1, 64), st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_nonzero_outputs_are_unit(self, text, dim, seed):
        vec = embed_text(text, dim, seed)
        norm = np.linalg.norm(vec)
        assert norm == pytest.approx(1.0, abs=1e-9) or norm == 0.0

    def test_dim_must_be_positive(self):
        with pytest.raises(ValueError):
            embed_text("x", 0, 0)


def test_tokenize_splits_on_non_alphanumerics():
    assert tokenize("Polar-ice; melting!") == ["polar", "ice", "melting"]
    assert tokenize("") == []


def test_token_bucket_in_range():
    for tok in ("a", "bb", "unicodeé"):
        assert 0 <= token_bucket(tok, 7, 5) < 7


class TestCosine:
    def test_identical(self):
        assert cosine([1, 0], [1, 0]) == 1.0

    def test_orthogonal(self):
        assert cosine([1, 0], [0, 1]) == 0.0

    def test_hand_value(self):
        assert cosine([1, 1], [1, 0]) == pytest.approx(0.7071, abs=1e-4)

    def test_zero_norm_returns_zero(self):
        assert cosine([0, 0], [1, 0]) == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cosine([1.0], [1.0, 0.0])

    @given(st.lists(st.floats(-4, 4), min_size=2, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_bounds_and_symmetry(self, values):
        a = np.asarray(values, float)
        b = np.roll(a, 1)
        c = cosine(a, b)
        assert abs(c) <= 1 + 1e-12
        assert c == pytest.approx(cosine(b, a), abs=1e-12)
        if np.linalg.norm(a) > 0:
            assert cosine(a, a) == pytest.approx(1.0, abs=1e-12)


def test_embed_term_weights_matches_embed_text_for_counts():
    text = "polar ice polar"
    vec_text = embed_text(text, 32, 9)
    vec_weights = embed_term_weights({"polar": 2.0, "ice": 1.0}, 32, 9)
    np.testing.assert_allclose(vec_text, vec_weights, atol=1e-12)


class TestCorpusTsv:
    def test_round_trip(self, tmp_path):
        vectors = {
            "d1": np.array([0.25, -1.5, 3.0]),
            "d2": np.array([1e-9, 0.0, 2.75]),
        }
        path = tmp_path / "vecs.tsv"
        path.write_text("#dim=3\nd1\t0.25\t-1.5\t3.0\nd2\t1e-09\t0.0\t2.75\n")
        dim, loaded = read_vectors_tsv(path)
        assert dim == 3
        assert list(loaded) == ["d1", "d2"]
        for doc in vectors:
            np.testing.assert_array_equal(loaded[doc], vectors[doc])

    def test_bad_header(self, tmp_path):
        path = tmp_path / "vecs.tsv"
        path.write_text("d1\t0.5\n")
        with pytest.raises(DataError, match="line 1"):
            read_vectors_tsv(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "vecs.tsv"
        path.write_text("#dim=2\nd1\t0.5\n")
        with pytest.raises(DataError, match="line 2"):
            read_vectors_tsv(path)

    def test_duplicate_doc(self, tmp_path):
        path = tmp_path / "vecs.tsv"
        path.write_text("#dim=1\nd1\t0.5\nd1\t0.25\n")
        with pytest.raises(DataError, match="duplicate"):
            read_vectors_tsv(path)

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_non_finite_entry_names_line(self, tmp_path, entry):
        path = tmp_path / "vecs.tsv"
        path.write_text(f"#dim=2\nd0\t0.5\t0.5\nd1\t0.5\t{entry}\n")
        with pytest.raises(DataError, match=r"line 3: non-finite entry for doc 'd1'"):
            read_vectors_tsv(path)
