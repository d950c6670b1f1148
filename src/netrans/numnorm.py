"""Normalization of numeric/temporal expressions for alignment.

There is no entity list to train a translator for numbers and dates, so
N/T expressions are aligned by reducing both sides to a digit skeleton:
number words and numerals for one..nine become ASCII digits, month names
become the month number, and every other character (zero included) is
discarded.  "百分之四点二" and "4.2%" both reduce to "42" and therefore
match exactly.

The rules are one packaged TSV (pattern / replacement / language, "*" for
every language) covering Chinese and English.  At each position the
longest pattern wins; alphabetic patterns only match at the start of a
letter run, so "seventh" yields "7" while "stone" yields nothing.  Two
facts about the packaged rules hold the rest of the toolkit up, and tests
pin both:
- each digit 1-9 rewrites to itself and no other pattern is all digits,
  so a skeleton normalizes to itself;
- no pattern holds whitespace, so no match crosses a space and a letter
  after a space is at a word start: the skeleton of a space-joined text is
  its pieces' skeletons joined, and `align.match_span` normalizes each
  token once on that basis.
"""

from __future__ import annotations

import logging
import unicodedata
from functools import lru_cache
from importlib import resources

from . import simdist
from .core import read_rows

log = logging.getLogger(__name__)

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


def _rule_index(rows, lang: str) -> dict[str, _Bucket]:
    """First character -> (needs a word start, its patterns in match order).

    `rows` are `(pattern, replacement, lang)`; the rows of `lang` and of
    "*" take part, patterns lowered and ordered longest first, then in
    code-point order, then a language's own row before a "*" row, then in
    row order. Alphabetic (ASCII-letter) patterns require a word start:
    they do not match right after another ASCII letter.  All patterns in a
    bucket share their first character, so the rule holds per bucket.
    """
    rules = sorted(((pattern.lower(), replacement, row_lang == "*")
                    for pattern, replacement, row_lang in rows if row_lang in (lang, "*")),
                   key=lambda rule: (-len(rule[0]), rule[0], rule[2]))
    buckets: dict[str, list[tuple[str, str]]] = {}
    for pattern, replacement, _ in rules:
        buckets.setdefault(pattern[0], []).append((pattern, replacement))
    return {c: (_is_ascii_letter(c), tuple(pats)) for c, pats in buckets.items()}


@lru_cache(maxsize=None)
def _packaged_index(lang: str) -> dict[str, _Bucket]:
    """The packaged rules' index for `lang`, built once per language.

    A language no row names gets only the "*" rows, with one warning.
    """
    ref = resources.files("netrans.data").joinpath("numnorm_rules.tsv")
    with resources.as_file(ref) as path:
        rows = read_rows(path, (3,), tuple, comments=True)
    langs = sorted({row_lang for _, _, row_lang in rows} - {"*"})
    if lang not in langs:
        log.warning("no numeric rules for language %r, only the digit rules apply "
                    "(languages with rules: %s)", lang, ", ".join(langs))
    return _rule_index(rows, lang)


def normalize_numeric(s: str, lang: str) -> str:
    """Reduce an expression to its digit skeleton over the alphabet 1-9."""
    return _normalize(s, _packaged_index(lang))


def _normalize(s: str, index: dict[str, _Bucket]) -> str:
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


def nt_similarity(src: str, src_lang: str, tgt: str, tgt_lang: str) -> float:
    """Similarity of two N/T expressions via their digit skeletons.

    Returns 0.0 when either skeleton is empty; no trained translator is
    involved.
    """
    a = normalize_numeric(src, src_lang)
    b = normalize_numeric(tgt, tgt_lang)
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
