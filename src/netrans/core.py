"""Shared domain types and the plain-text file formats of the toolkit.

Conventions: sentences are pre-tokenized, tokens are whitespace-separated,
files are UTF-8 (a leading BOM is stripped), and one Unicode scalar value
counts as one character everywhere.  Combining-mark clusters are not joined.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .errors import AnnotationError, CorpusError, ParseError

log = logging.getLogger(__name__)

SOURCE = "source"
TARGET = "target"
SIDES = (SOURCE, TARGET)


class NeType(Enum):
    """Entity types handled by the toolkit.

    ORG is deliberately absent: recognition quality and cross-lingual
    consistency are too poor for organization names, so they are ignored
    end to end.
    """

    PER = "PER"
    LOC = "LOC"
    NT = "NT"

    @classmethod
    def parse(cls, text: str) -> "NeType":
        t = text.strip().upper()
        if t == "N/T":  # file-friendly alias
            t = "NT"
        try:
            return cls[t]
        except KeyError:
            if t == "ORG":
                raise ValueError("ORG entities are not supported") from None
            raise ValueError(f"unknown entity type {text!r}") from None


@dataclass(frozen=True)
class Sentence:
    """A tokenized sentence in one language."""

    tokens: tuple[str, ...]
    lang: str

    def __post_init__(self):
        tokens = tuple(self.tokens)
        object.__setattr__(self, "tokens", tokens)
        try:  # equal exactly when every token is a non-empty string with no whitespace
            valid = " ".join(tokens).split() == list(tokens)
        except TypeError:  # a token that is not a string
            valid = False
        if not valid:  # the per-token test, to name the first bad token
            for tok in tokens:
                if not tok or tok.split() != [tok]:
                    raise ValueError(f"token {tok!r} is empty or contains whitespace")

    def __len__(self) -> int:
        return len(self.tokens)

    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True)
class SentencePair:
    """One line of a parallel corpus."""

    src: Sentence
    tgt: Sentence
    id: int

    def __post_init__(self):
        if self.src.lang == self.tgt.lang:
            raise ValueError(f"source and target share language {self.src.lang!r}")
        if self.id < 0:
            raise ValueError("sentence id must be nonnegative")


@dataclass(frozen=True)
class NeSpan:
    """A typed entity occurrence anchored to token positions.

    ``surface`` may be empty until the span is joined with its sentence;
    see :meth:`with_surface`.
    """

    sentence_id: int
    side: str
    start: int
    end: int
    ne_type: NeType
    surface: str = ""

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}, got {self.side!r}")
        if self.start < 0 or self.start >= self.end:
            raise ValueError(f"empty or negative span [{self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start

    def with_surface(self, sentence: Sentence) -> "NeSpan":
        """Return a copy whose surface is filled from ``sentence``.

        Raises AnnotationError when the span does not fit the sentence.
        """
        if self.end > len(sentence):
            raise AnnotationError(
                f"sentence {self.sentence_id}: span [{self.start}, {self.end}) "
                f"exceeds length {len(sentence)}"
            )
        return replace(self, surface=" ".join(sentence.tokens[self.start : self.end]))


@dataclass(frozen=True)
class NePair:
    """A bilingual entity pair, the unit of translator training data."""

    src: str
    tgt: str
    ne_type: NeType
    count: int = 1

    def __post_init__(self):
        if not self.src or not self.tgt:
            raise ValueError("entity surfaces must be non-empty")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")


def _read_lines(path) -> list[str]:
    return Path(path).read_text(encoding="utf-8-sig").splitlines()


def read_parallel_corpus(src_path, tgt_path, src_lang: str, tgt_lang: str) -> list[SentencePair]:
    """Read two line-aligned token files into sentence pairs."""
    src_lines = _read_lines(src_path)
    tgt_lines = _read_lines(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise CorpusError(
            f"line count mismatch: {src_path} has {len(src_lines)} lines, "
            f"{tgt_path} has {len(tgt_lines)}"
        )
    pairs = []
    for i, (ls, lt) in enumerate(zip(src_lines, tgt_lines)):
        src_tokens = ls.split()
        tgt_tokens = lt.split()
        if not src_tokens:
            raise CorpusError(f"{src_path}: empty line {i + 1}")
        if not tgt_tokens:
            raise CorpusError(f"{tgt_path}: empty line {i + 1}")
        pairs.append(
            SentencePair(Sentence(tuple(src_tokens), src_lang), Sentence(tuple(tgt_tokens), tgt_lang), i)
        )
    return pairs


def write_parallel_corpus(pairs: Sequence[SentencePair], src_path, tgt_path) -> None:
    with open(src_path, "w", encoding="utf-8") as fs, open(tgt_path, "w", encoding="utf-8") as ft:
        for pair in pairs:
            fs.write(pair.src.text() + "\n")
            ft.write(pair.tgt.text() + "\n")


def read_ne_pairs(path) -> list[NePair]:
    """Read a TSV entity-pair list: src<TAB>tgt<TAB>type[<TAB>count]."""
    pairs = []
    for i, line in enumerate(_read_lines(path)):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) < 3:
            raise ParseError(f"expected at least 3 tab-separated columns, got {len(cols)}", path, i + 1)
        src, tgt, type_text = cols[0], cols[1], cols[2]
        try:
            ne_type = NeType.parse(type_text)
            count = int(cols[3]) if len(cols) > 3 else 1
            pairs.append(NePair(src, tgt, ne_type, count))
        except ValueError as exc:
            raise ParseError(str(exc), path, i + 1) from None
    return pairs


def write_ne_pairs(pairs: Iterable[NePair], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(f"{p.src}\t{p.tgt}\t{p.ne_type.value}\t{p.count}\n")


def read_annotations(path) -> list[NeSpan]:
    """Read stand-off spans: sentence_id<TAB>side<TAB>start<TAB>end<TAB>type.

    ORG lines are skipped with a logged warning count; any other unknown
    type is a parse error.  Bounds against the corpus are checked later,
    when spans are replayed against their sentences.
    """
    spans = []
    dropped_org = 0
    for i, line in enumerate(_read_lines(path)):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 5:
            raise ParseError(f"expected 5 tab-separated columns, got {len(cols)}", path, i + 1)
        sid_text, side, start_text, end_text, type_text = cols
        if type_text.strip().upper() == "ORG":
            dropped_org += 1
            continue
        try:
            sid = int(sid_text)
            start = int(start_text)
            end = int(end_text)
        except ValueError:
            raise ParseError(f"malformed integer in {line!r}", path, i + 1) from None
        try:
            span = NeSpan(sid, side, start, end, NeType.parse(type_text))
        except ValueError as exc:
            raise ParseError(str(exc), path, i + 1) from None
        spans.append(span)
    if dropped_org:
        log.warning("%s: dropped %d ORG span(s)", path, dropped_org)
    return spans


def write_annotations(spans: Iterable[NeSpan], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(f"{s.sentence_id}\t{s.side}\t{s.start}\t{s.end}\t{s.ne_type.value}\n")
