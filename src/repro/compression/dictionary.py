"""Dictionary conversion: words and file splitters to integer ids.

Figure 1(b) of the paper shows TADOC's dictionary conversion step:
every distinct word receives an integer id, and the unique file
splitter symbols inserted between files receive ids as well.  Rules get
ids in the final serialized form (Figure 1(c)); inside this library
rules live in their own id space (see :mod:`repro.compression.grammar`)
and only the serializer flattens everything into one numbering.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

__all__ = ["Dictionary"]


class Dictionary:
    """Bidirectional word <-> integer-id mapping with splitter support.

    Ids ``0 .. num_words-1`` are words, ids ``num_words ..
    num_words+num_splitters-1`` are file splitter symbols.  Splitters are
    appended after all words have been registered, which the
    :class:`~repro.compression.compressor.TadocCompressor` guarantees by
    encoding every document before allocating splitters.

    Two read-only views serve id-space result shaping: :attr:`decode_array`
    (word id -> word as a numpy object array, for one-gather decodes) and
    :attr:`lexical_ranks` (word id -> the word's position in ``sorted()``
    order, so ties can break on integers exactly as they would on the
    strings).  Both are built on first use and dropped whenever a word or
    the splitters are registered.
    """

    def __init__(self) -> None:
        self._word_to_id: Dict[str, int] = {}
        self._id_to_word: List[str] = []
        self._num_splitters = 0
        self._decode_array: Optional[np.ndarray] = None
        self._lexical_ranks: Optional[np.ndarray] = None

    # -- word encoding ---------------------------------------------------------
    def encode_word(self, word: str) -> int:
        """Return the id of ``word``, registering it on first sight."""
        if self._num_splitters:
            existing = self._word_to_id.get(word)
            if existing is None:
                raise ValueError(
                    "cannot register new words after splitters have been allocated"
                )
            return existing
        word_id = self._word_to_id.get(word)
        if word_id is None:
            word_id = len(self._id_to_word)
            self._word_to_id[word] = word_id
            self._id_to_word.append(word)
            self._forget_views()
        return word_id

    def encode_tokens(self, tokens: Iterable[str]) -> List[int]:
        """Encode a token stream into word ids."""
        return [self.encode_word(token) for token in tokens]

    def lookup(self, word: str) -> int:
        """Return the id of ``word`` without registering it (KeyError if absent)."""
        return self._word_to_id[word]

    def __contains__(self, word: str) -> bool:
        return word in self._word_to_id

    # -- splitters -------------------------------------------------------------
    def allocate_splitters(self, count: int) -> List[int]:
        """Allocate ``count`` unique splitter ids (one per file boundary)."""
        if count < 0:
            raise ValueError("splitter count must be non-negative")
        if self._num_splitters:
            raise ValueError("splitters already allocated")
        start = len(self._id_to_word)
        self._num_splitters = count
        for index in range(count):
            self._id_to_word.append(f"<spt{index}>")
        self._forget_views()
        return list(range(start, start + count))

    def is_splitter(self, symbol_id: int) -> bool:
        """True if ``symbol_id`` denotes a file splitter."""
        return self.num_words <= symbol_id < self.num_symbols

    # -- decoding ----------------------------------------------------------------
    def decode(self, symbol_id: int) -> str:
        """Return the word (or splitter token) for ``symbol_id``."""
        return self._id_to_word[symbol_id]

    def decode_tokens(self, symbol_ids: Sequence[int]) -> List[str]:
        return [self._id_to_word[symbol_id] for symbol_id in symbol_ids]

    @property
    def decode_array(self) -> np.ndarray:
        """Word id -> word, as an object array (splitters excluded)."""
        words = self._decode_array
        if words is None:
            words = np.empty(self.num_words, dtype=object)
            words[:] = self._id_to_word[: self.num_words]
            self._decode_array = words
        return words

    @property
    def lexical_ranks(self) -> np.ndarray:
        """Word id -> rank of the word in ``sorted()`` order (int64)."""
        ranks = self._lexical_ranks
        if ranks is None:
            words = self._id_to_word
            order = sorted(range(self.num_words), key=words.__getitem__)
            ranks = np.empty(self.num_words, dtype=np.int64)
            ranks[order] = np.arange(self.num_words, dtype=np.int64)
            self._lexical_ranks = ranks
        return ranks

    def _forget_views(self) -> None:
        self._decode_array = None
        self._lexical_ranks = None

    # -- sizes --------------------------------------------------------------------
    @property
    def num_words(self) -> int:
        """Number of distinct words (excluding splitters)."""
        return len(self._id_to_word) - self._num_splitters

    @property
    def num_splitters(self) -> int:
        return self._num_splitters

    @property
    def num_symbols(self) -> int:
        """Total number of terminal symbols (words + splitters)."""
        return len(self._id_to_word)

    # -- (de)serialization helpers -------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "words": self._id_to_word[: self.num_words],
            "num_splitters": self._num_splitters,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Dictionary":
        dictionary = cls()
        for word in payload["words"]:  # type: ignore[index]
            dictionary.encode_word(word)
        dictionary.allocate_splitters(int(payload["num_splitters"]))  # type: ignore[arg-type]
        return dictionary

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dictionary):
            return NotImplemented
        return (
            self._id_to_word == other._id_to_word
            and self._num_splitters == other._num_splitters
        )
