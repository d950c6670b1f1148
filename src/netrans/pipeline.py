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

import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .align import AlignedPair
from .core import NePair, NeSpan, NeType, Sentence, SentencePair, _read_lines
from .errors import ContractError, ParseError
from .numnorm import month_name, month_number

PLACEHOLDER_RE = re.compile(r"^(PER|LOC|NT)([1-9][0-9]*)$")
# broader than the symbols we emit: PER0, NT007 etc. are escaped too
_COLLIDING_RE = re.compile(r"^(PER|LOC|NT)[0-9]+$")
ESC = "␛"

_ZH_DIGITS = {"零": "0", "〇": "0", "一": "1", "二": "2", "三": "3", "四": "4",
              "五": "5", "六": "6", "七": "7", "八": "8", "九": "9"}


def escape_token(token: str) -> str:
    if _COLLIDING_RE.match(token) or token.startswith(ESC):
        return ESC + token
    return token


def unescape_token(token: str) -> str:
    return token[1:] if token.startswith(ESC) else token


@dataclass(frozen=True)
class SymbolEntry:
    """One placeholder's record: what it stands for and, when known, its translation."""

    sentence_id: int
    symbol: str
    surface: str
    ne_type: NeType
    translation: str = ""


class _SymbolCounter:
    def __init__(self):
        self._next = {t: 1 for t in NeType}

    def take(self, ne_type: NeType) -> str:
        symbol = f"{ne_type.value}{self._next[ne_type]}"
        self._next[ne_type] += 1
        return symbol


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
        if span.end > len(sentence):
            raise ContractError(
                f"sentence {sentence_id}: span [{span.start}, {span.end}) "
                f"exceeds length {len(sentence)}")
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
        with open(path, "w", encoding="utf-8") as fh:
            for src in sorted(self.entries):
                for tgt, count in self.entries[src]:
                    fh.write(f"{src}\t{tgt}\t{count}\n")

    @classmethod
    def read(cls, path) -> "LexicalTable":
        pairs = []
        for i, line in enumerate(_read_lines(path)):
            if not line.strip():
                continue
            cols = line.split("\t")
            if len(cols) != 3:
                raise ParseError(f"expected 3 tab-separated columns, got {len(cols)}", path, i + 1)
            try:
                pairs.append(NePair(cols[0], cols[1], NeType.PER, int(cols[2])))
            except ValueError as exc:
                raise ParseError(str(exc), path, i + 1) from None
        return cls.from_pairs(pairs)


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


def render_nt(surface: str, src_lang: str, tgt_lang: str) -> str:
    """Rule rendering for numeric/temporal surfaces.

    Whole-surface month names are rendered in the target language; otherwise
    local-language digits become Arabic digits and every other character
    (units, punctuation) is copied through.
    """
    number = month_number(surface.strip(), src_lang)
    if number is not None:
        name = month_name(number, tgt_lang)
        if name is not None:
            return name
    return "".join(_ZH_DIGITS.get(c, c) for c in surface)


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
            if candidate:
                report.from_model += 1
                return candidate
    return None


# -- symbol map sidecar -------------------------------------------------------


def write_symbol_map(entries: Sequence[SymbolEntry], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in entries:
            line = f"{e.sentence_id}\t{e.symbol}\t{e.surface}\t{e.ne_type.value}"
            if e.translation:
                line += f"\t{e.translation}"
            fh.write(line + "\n")


def read_symbol_map(path) -> dict[int, list[SymbolEntry]]:
    by_sentence: dict[int, list[SymbolEntry]] = {}
    for i, line in enumerate(_read_lines(path)):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) not in (4, 5):
            raise ParseError(f"expected 4 or 5 tab-separated columns, got {len(cols)}", path, i + 1)
        try:
            entry = SymbolEntry(int(cols[0]), cols[1], cols[2], NeType.parse(cols[3]),
                                cols[4] if len(cols) == 5 else "")
        except ValueError as exc:
            raise ParseError(str(exc), path, i + 1) from None
        if not PLACEHOLDER_RE.match(entry.symbol):
            raise ParseError(f"malformed symbol {entry.symbol!r}", path, i + 1)
        entries = by_sentence.setdefault(entry.sentence_id, [])
        if any(e.symbol == entry.symbol for e in entries):
            raise ParseError(f"duplicate symbol {entry.symbol!r} for sentence "
                             f"{entry.sentence_id}", path, i + 1)
        entries.append(entry)
    return by_sentence
