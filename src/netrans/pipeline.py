"""Typed-placeholder corpus rewriting and entity restoration.

Aligned entities are replaced on both sides of a parallel sentence by
indexed symbols (PER1, LOC2, NT1 ...) so a downstream word-level MT system
sees them as ordinary vocabulary items. After that system translates, the
symbols in its output are swapped back: first from the lexical table
extracted from the bilingual data, then via the entity translator for
person/location names, then by digit/month rules for numeric expressions.

Natural corpus tokens that look like placeholders are escaped with an
ESC-prefix sentinel before rewriting and unescaped one level on restore, so
symbols in rewritten files always mean replacement.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .align import AlignedPair, decode_once
from .core import NePair, NeSpan, NeType, Sentence, SentencePair, read_rows, write_lines
from .errors import ConfigError, ContractError
from .numnorm import render_nt

log = logging.getLogger(__name__)

_TYPES = "|".join(t.value for t in NeType)
PLACEHOLDER_RE = re.compile(rf"^({_TYPES})([1-9][0-9]*)$")
# broader than the symbols we emit: PER0, NT007 etc. are escaped too
_COLLIDING_RE = re.compile(rf"^({_TYPES})[0-9]+$")
ESC = "␛"


def escape_token(token: str) -> str:
    if _COLLIDING_RE.match(token) or token.startswith(ESC):
        return ESC + token
    return token


def unescape_token(token: str) -> str:
    return token[1:] if token.startswith(ESC) else token


@dataclass(frozen=True, slots=True)
class SymbolEntry:
    """One placeholder's record: what it stands for and, when known, its translation."""

    sentence_id: int
    symbol: str
    surface: str
    ne_type: NeType
    translation: str = ""


class _SymbolCounter:
    def __init__(self):
        self._taken: dict[NeType, int] = {}

    def take(self, ne_type: NeType) -> str:
        n = self._taken[ne_type] = self._taken.get(ne_type, 0) + 1
        return f"{ne_type.value}{n}"


def _check_within(start: int, end: int, length: int, what: str, sid: int) -> None:
    if not 0 <= start < end <= length:
        raise ContractError(
            f"sentence {sid}: {what} range [{start}, {end}) is empty or exceeds length {length}")


def _check_disjoint(ranges: list[tuple[int, int]], what: str, sid: int) -> None:
    for (a_start, a_end), (b_start, b_end) in zip(ranges, ranges[1:]):
        if b_start < a_end:
            raise ContractError(
                f"sentence {sid}: overlapping {what} ranges "
                f"[{a_start}, {a_end}) and [{b_start}, {b_end})")


def _rewrite(tokens: Sequence[str], placed: list[tuple[int, int, str]]) -> tuple[str, ...]:
    """Replace each (start, end, symbol) range by its symbol, escaping the rest."""
    by_start = {start: (end, symbol) for start, end, symbol in placed}
    out = []
    i = 0
    while i < len(tokens):
        if i in by_start:
            end, symbol = by_start[i]
            out.append(symbol)
            i = end
        else:
            out.append(escape_token(tokens[i]))
            i += 1
    return tuple(out)


def replace_training_pair(pair: SentencePair, aligned: Sequence[AlignedPair],
                          ) -> tuple[SentencePair, list[SymbolEntry]]:
    """Substitute each aligned entity by one symbol on both sides.

    Indices run per type in source-side order of appearance, and the same
    symbol lands on both sides; the returned entries record the original
    surfaces so nothing is lost.
    """
    for a in aligned:
        if a.sentence_id != pair.id:
            raise ContractError(
                f"alignment for sentence {a.sentence_id} handed to sentence {pair.id}")
        _check_within(a.src_start, a.src_end, len(pair.src), "source", pair.id)
        _check_within(a.tgt_start, a.tgt_end, len(pair.tgt), "target", pair.id)
    ordered = sorted(aligned, key=lambda a: a.src_start)
    _check_disjoint([(a.src_start, a.src_end) for a in ordered], "source", pair.id)
    _check_disjoint(sorted((a.tgt_start, a.tgt_end) for a in ordered), "target", pair.id)

    counter = _SymbolCounter()
    entries = []
    src_placed = []
    tgt_placed = []
    for a in ordered:
        symbol = counter.take(a.ne_type)
        src_surface = " ".join(pair.src.tokens[a.src_start:a.src_end])
        tgt_surface = " ".join(pair.tgt.tokens[a.tgt_start:a.tgt_end])
        entries.append(SymbolEntry(pair.id, symbol, src_surface, a.ne_type, tgt_surface))
        src_placed.append((a.src_start, a.src_end, symbol))
        tgt_placed.append((a.tgt_start, a.tgt_end, symbol))

    rewritten = SentencePair(
        Sentence(_rewrite(pair.src.tokens, src_placed), pair.src.lang),
        Sentence(_rewrite(pair.tgt.tokens, tgt_placed), pair.tgt.lang),
        pair.id,
    )
    return rewritten, entries


def replace_test_sentence(sentence: Sentence, spans: Sequence[NeSpan],
                          vocab: set[str] | None = None, oov_only: bool = False,
                          sentence_id: int = 0) -> tuple[Sentence, list[SymbolEntry]]:
    """Substitute recognized spans in a source sentence before translation.

    With oov_only and a vocabulary, spans whose every token the MT system
    already knows are left alone (in-vocabulary names need no placeholder
    treatment); a span with any unknown token is still replaced.
    """
    ordered = sorted(spans, key=lambda s: s.start)
    _check_disjoint([(s.start, s.end) for s in ordered], "span", sentence_id)

    counter = _SymbolCounter()
    entries = []
    placed = []
    for span in ordered:
        _check_within(span.start, span.end, len(sentence), "span", sentence_id)
        tokens = sentence.tokens[span.start:span.end]
        if oov_only and vocab is not None and all(tok in vocab for tok in tokens):
            continue
        symbol = counter.take(span.ne_type)
        entries.append(SymbolEntry(sentence_id, symbol, " ".join(tokens), span.ne_type))
        placed.append((span.start, span.end, symbol))

    return Sentence(_rewrite(sentence.tokens, placed), sentence.lang), entries


# -- lexical table ----------------------------------------------------------


@dataclass(frozen=True)
class LexicalTable:
    """src surface -> translation candidates, best (count, then lexicographic) first."""

    entries: dict[str, tuple[tuple[str, int], ...]] = field(default_factory=dict)

    @classmethod
    def from_pairs(cls, pairs: Iterable[NePair]) -> "LexicalTable":
        counts: dict[tuple[str, str], int] = {}
        for p in pairs:
            counts[(p.src, p.tgt)] = counts.get((p.src, p.tgt), 0) + p.count
        grouped: dict[str, list[tuple[str, int]]] = {}
        for (src, tgt), count in counts.items():
            grouped.setdefault(src, []).append((tgt, count))
        entries = {}
        for src in sorted(grouped):
            grouped[src].sort(key=lambda tc: (-tc[1], tc[0]))
            entries[src] = tuple(grouped[src])
        return cls(entries)

    def lookup(self, src: str) -> tuple[tuple[str, int], ...]:
        return self.entries.get(src, ())

    def best(self, src: str) -> str | None:
        hits = self.entries.get(src)
        return hits[0][0] if hits else None

    def __len__(self) -> int:
        return len(self.entries)

    def write(self, path) -> None:
        write_lines(path, (f"{src}\t{tgt}\t{count}"
                           for src in sorted(self.entries) for tgt, count in self.entries[src]))

    @classmethod
    def read(cls, path) -> "LexicalTable":
        return cls.from_pairs(read_rows(path, (3,), lambda cols: NePair(
            cols[0], cols[1], NeType.PER, int(cols[2]))))


def extract_lexical_table(pairs: Iterable[NePair]) -> LexicalTable:
    return LexicalTable.from_pairs(pairs)


# -- restoration -------------------------------------------------------------


@dataclass
class RestoreReport:
    from_table: int = 0
    from_model: int = 0
    from_rules: int = 0
    dropped: int = 0      # output placeholders with no symbol entry
    unrealized: int = 0   # entries left as placeholders or never seen in the output

    @property
    def warnings(self) -> int:
        return self.dropped + self.unrealized


def restore(sentence: Sentence, entries: Sequence[SymbolEntry], table: LexicalTable,
            translator=None, *, src_lang: str, tgt_lang: str,
            ) -> tuple[Sentence, RestoreReport]:
    """Swap placeholder symbols in MT output back to entity translations.

    Backoff per symbol: lexical table, then the entity translator's 1-best
    for PER/LOC, then digit/month rules for NT. A PER/LOC symbol with no
    table hit and no translator stays in place and is counted unrealized;
    symbols nobody mapped are dropped. Repeated symbols restore identically.
    """
    by_symbol = {e.symbol: e for e in entries}
    report = RestoreReport()
    seen: set[str] = set()
    out: list[str] = []
    for token in sentence.tokens:
        if not PLACEHOLDER_RE.match(token):
            out.append(unescape_token(token))
            continue
        entry = by_symbol.get(token)
        if entry is None:
            report.dropped += 1
            continue
        seen.add(token)
        realized = _realize(entry, table, translator, src_lang, tgt_lang, report)
        if realized is None:
            report.unrealized += 1
            out.append(token)
        else:
            out.extend(realized.split())
    report.unrealized += sum(1 for symbol in by_symbol if symbol not in seen)
    return Sentence(tuple(out), sentence.lang), report


def restore_corpus(sentences: Sequence[Sentence], symbol_map: dict[int, Sequence[SymbolEntry]],
                   table: LexicalTable, translator=None, *, jobs: int = 1, src_lang: str,
                   tgt_lang: str) -> tuple[list[Sentence], RestoreReport]:
    """`restore` over MT output sentences, with sentence i's entries at
    symbol_map[i]; returns the restored sentences and one summed report.
    Entries for a sentence id the output does not have count as
    unrealized, with one warning for them all.

    Which surfaces are decoded is `restore`'s decision alone: a first pass
    of it, with a translator that records its questions and answers none,
    hands them to `align.decode_once`, which asks the translator once per
    distinct one, first occurrence first (jobs > 1 spreads those calls over
    processes, so it must then pickle). Translators are deterministic, so
    this is exact, and a raising one fails on the first surface in order.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if translator is not None:
        asked: list[str] = []
        for sid, sentence in enumerate(sentences):
            restore(sentence, symbol_map.get(sid, ()), table,
                    lambda surface: asked.append(surface) or (),
                    src_lang=src_lang, tgt_lang=tgt_lang)
        translator = decode_once(translator, asked, jobs)
    totals = RestoreReport()
    restored = []
    for sid, sentence in enumerate(sentences):
        out, report = restore(sentence, symbol_map.get(sid, ()), table, translator,
                              src_lang=src_lang, tgt_lang=tgt_lang)
        restored.append(out)
        for name, n in vars(report).items():
            setattr(totals, name, getattr(totals, name) + n)
    orphans = [entries for sid, entries in symbol_map.items() if not 0 <= sid < len(sentences)]
    if orphans:
        count = sum(map(len, orphans))
        totals.unrealized += count
        log.warning("%d symbol-map entries for %d sentence id(s) the output does not have, "
                    "counted as unrealized", count, len(orphans))
    return restored, totals


def _realize(entry: SymbolEntry, table: LexicalTable, translator,
             src_lang: str, tgt_lang: str, report: RestoreReport) -> str | None:
    hit = table.best(entry.surface)
    if hit:
        report.from_table += 1
        return hit
    if entry.ne_type is NeType.NT:
        report.from_rules += 1
        return render_nt(entry.surface, src_lang, tgt_lang)
    if translator is not None:
        for candidate, _ in translator(entry.surface):
            if candidate.strip():  # a blank candidate translates nothing
                report.from_model += 1
                return candidate
    return None


# -- symbol map sidecar -------------------------------------------------------


def write_symbol_map(entries: Sequence[SymbolEntry], path) -> None:
    write_lines(path, (f"{e.sentence_id}\t{e.symbol}\t{e.surface}\t{e.ne_type.value}"
                       + (f"\t{e.translation}" if e.translation else "") for e in entries))


def read_symbol_map(path) -> dict[int, list[SymbolEntry]]:
    by_sentence: dict[int, list[SymbolEntry]] = {}
    seen: set[tuple[int, str]] = set()  # (sentence id, symbol) of every entry read

    def add(cols: list[str]) -> None:
        entry = SymbolEntry(int(cols[0]), cols[1], cols[2], NeType.parse(cols[3]),
                            cols[4] if len(cols) == 5 else "")
        if not PLACEHOLDER_RE.match(entry.symbol):
            raise ValueError(f"malformed symbol {entry.symbol!r}")
        key = (entry.sentence_id, entry.symbol)
        if key in seen:
            raise ValueError(f"duplicate symbol {entry.symbol!r} for sentence "
                             f"{entry.sentence_id}")
        seen.add(key)
        by_sentence.setdefault(entry.sentence_id, []).append(entry)

    read_rows(path, (4, 5), add)
    return by_sentence
