"""Shared domain types and the plain-text file formats of the toolkit.

Conventions: sentences are pre-tokenized, tokens are whitespace-separated,
and one Unicode scalar value counts as one character everywhere.
Combining-mark clusters are not joined.

This module owns the line format of every file: `read_lines` and
`read_rows` read UTF-8 (a leading BOM is stripped, and only a newline ends
a line) and `write_lines` writes it.  A tab-separated file is one record
per line; blank lines are skipped, `#` lines too where a reader asks for
comments, and a line with a wrong column count or a malformed field is a
ParseError naming the file and line.  The other modules' readers and
writers keep only their record fields and checks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import AnnotationError, CorpusError, ParseError

log = logging.getLogger(__name__)

R = TypeVar("R")

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

    # Members are singletons, so equality is identity and the identity hash
    # agrees with it; Enum's own `hash(self._name_)` runs as Python code at
    # every dict or set lookup of a span, pair or link.
    __hash__ = object.__hash__

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


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, a leading BOM stripped.

    A line ends only at a newline (`\\r\\n` and `\\r` read as one). The other
    characters `str.splitlines` ends a line at (form feed, U+2028 and the
    like) stay inside their line, where they separate tokens as whitespace.
    """
    lines = Path(path).read_text(encoding="utf-8-sig").split("\n")
    if not lines[-1]:
        lines.pop()  # the newline that ends the last line, or an empty file
    return lines


def read_rows(path, widths: tuple[int, ...], parse: Callable[[list[str]], R | None], *,
              comments: bool = False) -> list[R]:
    """`parse(cols)` for each tab-separated line of `path` with a column count
    in `widths`, in file order; a None from `parse` leaves its line out.
    Blank lines are skipped, and `#` lines when `comments` is set.  Any
    other column count, or a ValueError from `parse`, is a ParseError at
    the file and line."""
    rows = []
    for i, line in enumerate(read_lines(path), 1):
        if not line.strip() or (comments and line.startswith("#")):
            continue
        cols = line.split("\t")
        if len(cols) not in widths:
            expected = " or ".join(map(str, widths))
            raise ParseError(f"expected {expected} tab-separated columns, got {len(cols)}", path, i)
        try:
            row = parse(cols)
        except ValueError as exc:
            raise ParseError(str(exc), path, i) from None
        if row is not None:
            rows.append(row)
    return rows


def write_lines(path, lines: Iterable[str]) -> None:
    """Write each line and a newline to `path` as UTF-8."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _sentence(line: str, lang: str, path, lineno: int) -> Sentence:
    tokens = line.split()
    if not tokens:
        raise CorpusError(f"{path}: empty line {lineno}")
    return Sentence(tuple(tokens), lang)


def read_sentences(path, lang: str) -> list[Sentence]:
    """One tokenized sentence per line; an empty line is a CorpusError."""
    return [_sentence(line, lang, path, i) for i, line in enumerate(read_lines(path), 1)]


def read_parallel_corpus(src_path, tgt_path, src_lang: str, tgt_lang: str) -> list[SentencePair]:
    """Read two line-aligned token files into sentence pairs."""
    src_lines = read_lines(src_path)
    tgt_lines = read_lines(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise CorpusError(
            f"line count mismatch: {src_path} has {len(src_lines)} lines, "
            f"{tgt_path} has {len(tgt_lines)}"
        )
    return [SentencePair(_sentence(ls, src_lang, src_path, i + 1),
                         _sentence(lt, tgt_lang, tgt_path, i + 1), i)
            for i, (ls, lt) in enumerate(zip(src_lines, tgt_lines))]


def write_parallel_corpus(pairs: Sequence[SentencePair], src_path, tgt_path) -> None:
    write_lines(src_path, (pair.src.text() for pair in pairs))
    write_lines(tgt_path, (pair.tgt.text() for pair in pairs))


def read_ne_pairs(path) -> list[NePair]:
    """Read a TSV entity-pair list: src<TAB>tgt<TAB>type[<TAB>count]."""
    return read_rows(path, (3, 4), lambda cols: NePair(
        cols[0], cols[1], NeType.parse(cols[2]), int(cols[3]) if len(cols) == 4 else 1))


def write_ne_pairs(pairs: Iterable[NePair], path) -> None:
    write_lines(path, (f"{p.src}\t{p.tgt}\t{p.ne_type.value}\t{p.count}" for p in pairs))


def read_annotations(path) -> list[NeSpan]:
    """Read stand-off spans: sentence_id<TAB>side<TAB>start<TAB>end<TAB>type.

    ORG lines are skipped with a logged warning count; any other unknown
    type is a parse error.  Bounds against the corpus are checked later,
    when spans are replayed against their sentences.
    """
    dropped_org = 0

    def parse(cols: list[str]) -> NeSpan | None:
        nonlocal dropped_org
        sid_text, side, start_text, end_text, type_text = cols
        if type_text.strip().upper() == "ORG":
            dropped_org += 1
            return None
        try:
            sid, start, end = int(sid_text), int(start_text), int(end_text)
        except ValueError:
            line = "\t".join(cols)
            raise ValueError(f"malformed integer in {line!r}") from None
        return NeSpan(sid, side, start, end, NeType.parse(type_text))

    spans = read_rows(path, (5,), parse)
    if dropped_org:
        log.warning("%s: dropped %d ORG span(s)", path, dropped_org)
    return spans


def write_annotations(spans: Iterable[NeSpan], path) -> None:
    write_lines(path, (f"{s.sentence_id}\t{s.side}\t{s.start}\t{s.end}\t{s.ne_type.value}"
                       for s in spans))
