"""Normalization of numeric/temporal expressions for alignment.

There is no entity list to train a translator for numbers and dates, so
N/T expressions are aligned by reducing both sides to a digit skeleton:
number words and numerals for one..nine become ASCII digits, month names
become the month number, and every other character (zero included) is
discarded.  "百分之四点二" and "4.2%" both reduce to "42" and therefore
match exactly.

The rules are one packaged TSV (pattern / replacement / language, "*" for
every language / kind), and this module holds every spelling of numbers
and months in the toolkit: the table, the display names `MONTH_NAMES` and
the numerals `ZH_NUMERALS`.  At each position the longest pattern wins;
alphabetic patterns only match at the start of a letter run, and month
patterns (kind "month") that end in a letter only at its end too, so
"seventh" yields "7" while "stone" and "market" yield nothing.  Two facts
about the packaged rules hold the rest of the toolkit up, and tests pin both:
- each digit 1-9 rewrites to itself and no other pattern is all digits,
  so a skeleton normalizes to itself;
- no pattern holds whitespace, and a space is not a letter, so no match
  crosses a space and a space starts and ends a word as the ends of a text
  do: the skeleton of a space-joined text is its pieces' skeletons joined,
  and `align.match_span` normalizes each token once on that basis.
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
# the Chinese numerals for 0-9, each at its value
ZH_NUMERALS = "零一二三四五六七八九"
_TO_ARABIC = str.maketrans(ZH_NUMERALS + "〇", "0123456789" + "0")

# month number -> the name `month_name` prints, each a month row of the table
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


# (needs a word start, (pattern, replacement, needs a word end) in match order)
_Bucket = tuple[bool, tuple[tuple[str, str, bool], ...]]
_NO_BUCKET: _Bucket = (False, ())


def _rule_index(rows, lang: str) -> dict[str, _Bucket]:
    """First character -> (needs a word start, its patterns in match order).

    `rows` are `(pattern, replacement, lang, kind)`; the rows of `lang` and
    of "*" take part, patterns lowered and ordered longest first, then in
    code-point order, then a language's own row before a "*" row, then in
    row order. Alphabetic (ASCII-letter) patterns require a word start:
    they do not match right after another ASCII letter; "month" ones that
    end in one also require a word end.  All patterns in a bucket share
    their first character, so the start rule holds per bucket.
    """
    rules = sorted(((pattern.lower(), replacement, row_lang == "*", kind == "month")
                    for pattern, replacement, row_lang, kind in rows if row_lang in (lang, "*")),
                   key=lambda rule: (-len(rule[0]), rule[0], rule[2]))
    buckets: dict[str, list[tuple[str, str, bool]]] = {}
    for pattern, replacement, _, month in rules:
        buckets.setdefault(pattern[0], []).append(
            (pattern, replacement, month and _is_ascii_letter(pattern[-1])))
    return {c: (_is_ascii_letter(c), tuple(pats)) for c, pats in buckets.items()}


@lru_cache(maxsize=None)
def _packaged_rows() -> tuple[tuple[str, str, str, str], ...]:
    ref = resources.files("netrans.data").joinpath("numnorm_rules.tsv")
    with resources.as_file(ref) as path:
        return tuple(read_rows(path, (4,), tuple, comments=True))


@lru_cache(maxsize=None)
def _packaged_index(lang: str) -> dict[str, _Bucket]:
    """The packaged rules' index for `lang`, built once per language.

    A language no row names gets only the "*" rows, with one warning.
    """
    rows = _packaged_rows()
    langs = sorted({row_lang for _, _, row_lang, _ in rows} - {"*"})
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
        for pattern, replacement, word_end in patterns:
            if lowered.startswith(pattern, i):
                end = i + len(pattern)
                if word_end and end < n and _is_ascii_letter(lowered[end]):
                    continue
                out.append(replacement)
                i = end
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


@lru_cache(maxsize=None)
def _month_numbers(lang: str) -> dict[str, int]:
    return {pattern.lower(): int(replacement)
            for pattern, replacement, row_lang, kind in _packaged_rows()
            if kind == "month" and row_lang in (lang, "*")}


def month_number(s: str, lang: str) -> int | None:
    """Month index 1-12 when the whole folded string is a month row of the table."""
    folded = unicodedata.normalize("NFC", s).strip().lower().rstrip(".")
    return _month_numbers(lang).get(folded)


def month_name(number: int, lang: str) -> str | None:
    names = MONTH_NAMES.get(lang)
    if names is None or not 1 <= number <= 12:
        return None
    return names[number - 1]


def render_nt(surface: str, src_lang: str, tgt_lang: str) -> str:
    """Rule rendering for numeric/temporal surfaces.

    Whole-surface month names are rendered in the target language; otherwise
    Chinese numerals become Arabic digits and every other character (units,
    punctuation) is copied through.
    """
    number = month_number(surface, src_lang)
    if number is not None:
        name = month_name(number, tgt_lang)
        if name is not None:
            return name
    return surface.translate(_TO_ARABIC)
