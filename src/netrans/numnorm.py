"""Normalization of numeric/temporal expressions for alignment.

There is no entity list to train a translator for numbers and dates, so
N/T expressions are aligned by reducing both sides to a digit skeleton:
number words and numerals for one..nine become ASCII digits, month names
become the month number, and every other character (zero included) is
discarded.  "百分之四点二" and "4.2%" both reduce to "42" and therefore
match exactly.

Rules are data-driven (pattern / replacement / language TSV); the packaged
default covers Chinese and English.  Alphabetic patterns only match at the
start of a letter run, so "seventh" yields "7" while "stone" yields
nothing.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

from . import simdist
from .core import read_rows

DIGITS = "123456789"

# month number -> display name, used by the restoration fallback rules
MONTH_NAMES = {
    "en": (
        "January", "February", "March", "April", "May", "June",
        "July", "August", "September", "October", "November", "December",
    ),
    "zh": (
        "一月", "二月", "三月", "四月", "五月", "六月",
        "七月", "八月", "九月", "十月", "十一月", "十二月",
    ),
}


def _is_ascii_letter(c: str) -> bool:
    return "a" <= c <= "z" or "A" <= c <= "Z"


# (needs a word start, patterns) for the characters that start a pattern
_Bucket = tuple[bool, tuple[tuple[str, str], ...]]
_NO_BUCKET: _Bucket = (False, ())


@dataclass(frozen=True)
class RuleTable:
    """Longest-pattern-first rewrite table, grouped by language.

    For each language, the first ``normalize_numeric`` call builds an index
    from a first character to the patterns starting with it, in
    ``patterns_for`` order, and caches it on the table, so each position of
    a string tries only the patterns that can match there.

    Skeletons are idempotent (normalizing one again returns it unchanged)
    under a table in which each digit 1-9 is a pattern rewriting to itself
    for the language, and no other pattern consists of digits alone. The
    packaged table meets this; a user table that does not, e.g. one without
    the digit rules or with a "12" -> "5" rule, can change a skeleton again.

    The skeleton of a space-joined text is its pieces' skeletons joined
    under a table in which no pattern holds whitespace: no match then
    crosses a space, and a letter after a space is at a word start, as at
    the start of a text. The packaged table meets this, and
    `align.match_span` relies on it to normalize each token once.
    """

    rules: dict[str, tuple[tuple[str, str], ...]]
    _index: dict[str, dict[str, _Bucket]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_rows(cls, rows) -> "RuleTable":
        by_lang: dict[str, list[tuple[str, str]]] = {}
        for i, (pattern, replacement, lang) in enumerate(rows):
            if not pattern:
                raise ValueError(f"rule row {i}: empty pattern in {(pattern, replacement, lang)!r}")
            by_lang.setdefault(lang, []).append((pattern.lower(), replacement))
        ordered = {
            lang: tuple(sorted(pats, key=lambda pr: (-len(pr[0]), pr[0])))
            for lang, pats in by_lang.items()
        }
        return cls(ordered)

    @classmethod
    def from_path(cls, path) -> "RuleTable":
        def rule(cols: list[str]) -> tuple[str, str, str]:
            if not cols[0]:
                raise ValueError("empty pattern")
            return cols[0], cols[1], cols[2]

        return cls.from_rows(read_rows(path, (3,), rule, comments=True))

    def patterns_for(self, lang: str) -> tuple[tuple[str, str], ...]:
        specific = self.rules.get(lang, ())
        universal = self.rules.get("*", ())
        if not universal:
            return specific
        return tuple(sorted(specific + universal, key=lambda pr: (-len(pr[0]), pr[0])))

    def index_for(self, lang: str) -> dict[str, _Bucket]:
        """First character -> (needs a word start, its patterns in table order).

        Alphabetic (ASCII-letter) patterns require a word start: they do
        not match right after another ASCII letter.  All patterns in a
        bucket share their first character, so the rule holds per bucket.
        """
        index = self._index.get(lang)
        if index is None:
            buckets: dict[str, list[tuple[str, str]]] = {}
            for pattern, replacement in self.patterns_for(lang):
                buckets.setdefault(pattern[0], []).append((pattern, replacement))
            index = {c: (_is_ascii_letter(c), tuple(pats)) for c, pats in buckets.items()}
            self._index[lang] = index
        return index


@lru_cache(maxsize=1)
def default_rules() -> RuleTable:
    ref = resources.files("netrans.data").joinpath("numnorm_rules.tsv")
    with resources.as_file(ref) as path:
        return RuleTable.from_path(path)


def normalize_numeric(s: str, lang: str, table: RuleTable | None = None) -> str:
    """Reduce an expression to its digit skeleton over the alphabet 1-9."""
    table = table or default_rules()
    index = table.index_for(lang)
    lowered = unicodedata.normalize("NFC", s).lower()
    out: list[str] = []
    i = 0
    n = len(lowered)
    while i < n:
        word_start, patterns = index.get(lowered[i], _NO_BUCKET)
        if word_start and i > 0 and _is_ascii_letter(lowered[i - 1]):
            patterns = ()
        for pattern, replacement in patterns:
            if lowered.startswith(pattern, i):
                out.append(replacement)
                i += len(pattern)
                break
        else:
            i += 1
    return "".join(c for c in "".join(out) if c in DIGITS)


def nt_similarity(
    src: str, src_lang: str, tgt: str, tgt_lang: str, table: RuleTable | None = None
) -> float:
    """Similarity of two N/T expressions via their digit skeletons.

    Returns 0.0 when either skeleton is empty; no trained translator is
    involved.
    """
    return skeleton_similarity(normalize_numeric(src, src_lang, table),
                               normalize_numeric(tgt, tgt_lang, table))


def skeleton_similarity(a: str, b: str) -> float:
    """Similarity of two digit skeletons; 0.0 when either is empty."""
    if not a or not b:
        return 0.0
    return simdist.similarity(a, b)


def month_number(s: str, lang: str) -> int | None:
    """Month index 1-12 when the whole (folded) string names a month."""
    folded = unicodedata.normalize("NFC", s).strip().lower().rstrip(".")
    names = MONTH_NAMES.get(lang, ())
    for idx, name in enumerate(names, start=1):
        if folded == name.lower():
            return idx
    if lang == "en" and len(folded) >= 3:
        for idx, name in enumerate(names, start=1):
            if name.lower().startswith(folded) and len(folded) <= 4:
                return idx
    return None


def month_name(number: int, lang: str) -> str | None:
    names = MONTH_NAMES.get(lang)
    if names is None or not 1 <= number <= 12:
        return None
    return names[number - 1]
