"""Character vocabularies for the entity translator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..errors import VocabError

BOS, EOS, UNK, PAD = 0, 1, 2, 3
RESERVED = ("<bos>", "<eos>", "<unk>", "<pad>")


@dataclass(frozen=True)
class CharVocab:
    """Bijective char <-> id map with four reserved symbols at ids 0-3.

    Real characters start at id 4 and are stored sorted by code point, so
    vocabularies built from the same character set are identical.
    """

    chars: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for c in self.chars:
            if len(c) != 1:
                raise VocabError(f"vocabulary entries must be single characters, got {c!r}")
        index = {c: i + len(RESERVED) for i, c in enumerate(self.chars)}
        if len(index) != len(self.chars):
            raise VocabError("duplicate characters in vocabulary")
        object.__setattr__(self, "_index", index)

    @classmethod
    def from_texts(cls, texts: Iterable[str]) -> "CharVocab":
        chars = sorted({c for text in texts for c in text})
        if not chars:
            raise VocabError("cannot build a vocabulary from empty texts")
        return cls(tuple(chars))

    def __len__(self) -> int:
        return len(RESERVED) + len(self.chars)

    def __contains__(self, char: str) -> bool:
        return char in self._index

    def id_of(self, char: str) -> int:
        """Id of a character; unseen characters map to the unk id."""
        return self._index.get(char, UNK)

    def char_of(self, idx: int) -> str:
        if not 0 <= idx < len(self):
            raise VocabError(f"id {idx} outside vocabulary of size {len(self)}")
        if idx < len(RESERVED):
            return RESERVED[idx]
        return self.chars[idx - len(RESERVED)]

    def encode(self, text: str) -> list[int]:
        return [self.id_of(c) for c in text]

    def decode(self, ids: Iterable[int]) -> str:
        """Text of the ids; the reserved ids decode to nothing."""
        chars, first, size = self.chars, len(RESERVED), len(self)
        out = []
        for i in ids:
            if not 0 <= i < size:
                raise VocabError(f"id {i} outside vocabulary of size {size}")
            if i >= first:
                out.append(chars[i - first])
        return "".join(out)
