"""Tests for dictionary conversion (words and splitters to integer ids)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.compression.dictionary import Dictionary


class TestWordEncoding:
    def test_first_word_gets_id_zero(self):
        dictionary = Dictionary()
        assert dictionary.encode_word("alpha") == 0

    def test_same_word_same_id(self):
        dictionary = Dictionary()
        assert dictionary.encode_word("alpha") == dictionary.encode_word("alpha")

    def test_distinct_words_distinct_ids(self):
        dictionary = Dictionary()
        ids = {dictionary.encode_word(word) for word in ["a", "b", "c", "a", "b"]}
        assert ids == {0, 1, 2}

    def test_encode_tokens_preserves_order(self):
        dictionary = Dictionary()
        assert dictionary.encode_tokens(["x", "y", "x"]) == [0, 1, 0]

    def test_lookup_does_not_register(self):
        dictionary = Dictionary()
        with pytest.raises(KeyError):
            dictionary.lookup("absent")

    def test_contains(self):
        dictionary = Dictionary()
        dictionary.encode_word("present")
        assert "present" in dictionary
        assert "absent" not in dictionary

    def test_decode_inverse_of_encode(self):
        dictionary = Dictionary()
        words = ["alpha", "beta", "gamma"]
        ids = dictionary.encode_tokens(words)
        assert dictionary.decode_tokens(ids) == words

    @given(st.lists(st.text(alphabet="abcdef", min_size=1, max_size=5), min_size=1, max_size=50))
    def test_encode_decode_roundtrip(self, words):
        dictionary = Dictionary()
        ids = dictionary.encode_tokens(words)
        assert dictionary.decode_tokens(ids) == words


class TestSplitters:
    def test_splitter_ids_follow_words(self):
        dictionary = Dictionary()
        dictionary.encode_tokens(["a", "b"])
        splitters = dictionary.allocate_splitters(3)
        assert splitters == [2, 3, 4]

    def test_is_splitter(self):
        dictionary = Dictionary()
        dictionary.encode_word("a")
        (splitter,) = dictionary.allocate_splitters(1)
        assert dictionary.is_splitter(splitter)
        assert not dictionary.is_splitter(0)

    def test_num_words_excludes_splitters(self):
        dictionary = Dictionary()
        dictionary.encode_tokens(["a", "b", "c"])
        dictionary.allocate_splitters(2)
        assert dictionary.num_words == 3
        assert dictionary.num_splitters == 2
        assert dictionary.num_symbols == 5

    def test_new_words_after_splitters_rejected(self):
        dictionary = Dictionary()
        dictionary.encode_word("a")
        dictionary.allocate_splitters(1)
        with pytest.raises(ValueError):
            dictionary.encode_word("new")

    def test_existing_word_lookup_after_splitters_ok(self):
        dictionary = Dictionary()
        dictionary.encode_word("a")
        dictionary.allocate_splitters(1)
        assert dictionary.encode_word("a") == 0

    def test_double_allocation_rejected(self):
        dictionary = Dictionary()
        dictionary.allocate_splitters(1)
        with pytest.raises(ValueError):
            dictionary.allocate_splitters(1)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            Dictionary().allocate_splitters(-1)

    def test_zero_splitters_allowed(self):
        dictionary = Dictionary()
        dictionary.encode_word("a")
        assert dictionary.allocate_splitters(0) == []


class TestSerialization:
    def test_to_from_dict_roundtrip(self):
        dictionary = Dictionary()
        dictionary.encode_tokens(["a", "b", "c"])
        dictionary.allocate_splitters(2)
        restored = Dictionary.from_dict(dictionary.to_dict())
        assert restored == dictionary

    def test_equality_considers_splitters(self):
        left = Dictionary()
        left.encode_word("a")
        left.allocate_splitters(1)
        right = Dictionary()
        right.encode_word("a")
        right.allocate_splitters(2)
        assert left != right


class TestIdSpaceViews:
    """The decode array and lexical ranks that id-space shaping reads."""

    WORDS = ["zeta", "Alpha", "alpha", "b2", "b10", "B", "10", "9", "éclair", "eclair", "Ωmega", "_x", "ß"]

    def _dictionary(self, words):
        dictionary = Dictionary()
        dictionary.encode_tokens(words)
        return dictionary

    def test_ranks_order_words_exactly_as_sorted(self):
        dictionary = self._dictionary(self.WORDS)
        ranks = dictionary.lexical_ranks
        by_rank = [word for _rank, word in sorted(zip(ranks.tolist(), self.WORDS))]
        assert by_rank == sorted(self.WORDS)
        assert sorted(ranks.tolist()) == list(range(len(self.WORDS)))

    @given(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=40, unique=True))
    def test_ranks_match_sorted_for_any_words(self, words):
        ranks = self._dictionary(words).lexical_ranks.tolist()
        assert [words[i] for i in sorted(range(len(words)), key=ranks.__getitem__)] == sorted(words)

    def test_decode_array_maps_ids_to_words_without_splitters(self):
        dictionary = self._dictionary(["a", "b"])
        dictionary.allocate_splitters(2)
        words = dictionary.decode_array
        assert words.dtype == object and words.tolist() == ["a", "b"]
        assert all(type(word) is str for word in words.tolist())

    def test_views_are_memoized(self):
        dictionary = self._dictionary(["b", "a"])
        assert dictionary.decode_array is dictionary.decode_array
        assert dictionary.lexical_ranks is dictionary.lexical_ranks

    def test_views_refresh_after_a_new_word(self):
        dictionary = self._dictionary(["m", "c"])
        assert dictionary.lexical_ranks.tolist() == [1, 0]
        assert dictionary.decode_array.tolist() == ["m", "c"]
        dictionary.encode_word("a")
        assert dictionary.lexical_ranks.tolist() == [2, 1, 0]
        assert dictionary.decode_array.tolist() == ["m", "c", "a"]
        dictionary.encode_word("m")  # a known word changes nothing
        assert dictionary.lexical_ranks.tolist() == [2, 1, 0]

    def test_views_refresh_after_splitters(self):
        dictionary = self._dictionary(["a"])
        stale = dictionary.decode_array
        dictionary.allocate_splitters(1)
        assert dictionary.decode_array is not stale
        assert dictionary.decode_array.tolist() == ["a"]
