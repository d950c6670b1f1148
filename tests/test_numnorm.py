import logging
import random
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netrans import numnorm
from netrans.core import NeType, Sentence, read_rows
from netrans.ner import Gazetteer
from netrans.numnorm import (
    DIGITS,
    MONTH_NAMES,
    ZH_NUMERALS,
    month_name,
    month_number,
    normalize_numeric,
    nt_similarity,
    render_nt,
)

PACKAGED = Path(numnorm.__file__).parent / "data" / "numnorm_rules.tsv"
# (pattern, replacement, lang, kind)
PACKAGED_ROWS = read_rows(PACKAGED, (4,), tuple, comments=True)


def normalize_with(rows, text, lang):
    """`normalize_numeric` over the rule rows `rows` in place of the packaged ones."""
    return numnorm._normalize(text, numnorm._rule_index(rows, lang))


@pytest.mark.parametrize(
    "text,lang,skeleton",
    [
        ("百分之四点二", "zh", "42"),
        ("4.2%", "en", "42"),
        ("4,200", "en", "42"),
        ("四千二百", "zh", "42"),
        ("十月五日", "zh", "15"),
        ("october 5", "en", "15"),
        ("第 三", "zh", "3"),
        ("three", "en", "3"),
        ("", "zh", ""),
        ("大使馆", "zh", ""),
        ("hello", "en", ""),
    ],
)
def test_digit_skeletons(text, lang, skeleton):
    assert normalize_numeric(text, lang) == skeleton


def test_zeroes_are_discarded():
    assert normalize_numeric("100", "en") == "1"
    assert normalize_numeric("一百零五", "zh") == "15"


def test_alphabetic_rules_only_fire_at_word_starts():
    # "stone" must not trigger the rule for "one"
    assert normalize_numeric("stone", "en") == ""
    assert normalize_numeric("one stone", "en") == "1"
    # but a leading match inside a longer word is the documented behavior
    assert normalize_numeric("seventh", "en") == "7"


@pytest.mark.parametrize("word", ["market", "mayor", "decide", "novel", "junior", "maybe",
                                  "marching", "Septet", "octopus"])
def test_month_rows_do_not_match_inside_a_word(word):
    assert normalize_numeric(word, "en") == ""


def test_month_rows_match_a_whole_letter_run():
    assert normalize_numeric("march", "en") == "3"
    assert normalize_numeric("Mar.", "en") == "3"
    assert normalize_numeric("3mar", "en") == "33"
    assert normalize_numeric("sept-5", "en") == "95"
    assert normalize_numeric("the market opened in march", "en") == "3"
    # the rule reads letters, not meaning: a whole-word "may" is still May
    assert normalize_numeric("prices may rise", "en") == "5"
    # Chinese month rows end in 月, not a letter, and keep matching anywhere
    assert normalize_numeric("三月a", "zh") == "3"


def test_longest_pattern_wins():
    # "十一月" is November (11), not a bare 一月 (January) suffix
    assert normalize_numeric("十一月", "zh") == "11"
    assert normalize_numeric("十二月", "zh") == "12"
    # cardinals cover word stems only; there is no ordinal/teen vocabulary
    assert normalize_numeric("seventeen", "en") == "7"


def test_idempotence_on_random_strings():
    rng = random.Random(3)
    alphabet = "0123456789一二三四五六七八九十零百千万点分之年月日,. abcdefghijklmnopqrstuvwxyz%"
    for _ in range(10_000):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
        lang = rng.choice(("zh", "en"))
        once = normalize_numeric(s, lang)
        assert normalize_numeric(once, lang) == once
        assert set(once) <= set(DIGITS)


def test_nt_similarity_matches_equal_skeletons():
    assert nt_similarity("百分之四点二", "zh", "4.2%", "en") == 1.0
    assert nt_similarity("十月五日", "zh", "october 5", "en") == 1.0
    assert nt_similarity("四千二百", "zh", "4,200", "en") == 1.0


def test_nt_similarity_zero_when_either_side_lacks_digits():
    assert nt_similarity("大使馆", "zh", "4.2%", "en") == 0.0
    assert nt_similarity("百分之四点二", "zh", "embassy", "en") == 0.0


def test_nt_similarity_is_graded_not_binary():
    score = nt_similarity("百分之四点二", "zh", "4.5%", "en")
    assert 0.0 < score < 1.0


def test_month_number_accepts_names_and_abbreviations():
    assert month_number("October", "en") == 10
    assert month_number("oct", "en") == 10
    assert month_number("sept.", "en") == 9
    assert month_number("十月", "zh") == 10
    assert month_number("embassy", "en") is None
    assert month_number("o", "en") is None


def test_month_name_round_trips():
    for lang in ("en", "zh"):
        for number in range(1, 13):
            assert month_number(month_name(number, lang), lang) == number
    assert month_name(13, "en") is None
    assert month_name(0, "zh") is None


def test_default_rules_cover_both_languages():
    langs = {lang for _, _, lang, _ in PACKAGED_ROWS}
    assert {"zh", "en", "*"} == langs
    assert normalize_numeric("三", "zh") == "3" and normalize_numeric("三", "en") == ""
    assert normalize_numeric("three", "en") == "3" and normalize_numeric("three", "zh") == ""


def test_a_language_without_rules_of_its_own_is_warned_about_once(caplog):
    numnorm._packaged_index.cache_clear()  # so that every language below is indexed afresh
    with caplog.at_level(logging.WARNING, logger="netrans.numnorm"):
        assert normalize_numeric("百分之四点二", "ZH") == ""  # the "*" digit rows still apply
        assert normalize_numeric("4.2%", "ZH") == "42"
        assert normalize_numeric("百分之四点二", "zh") == "42"
        assert normalize_numeric("4.2%", "en") == "42"
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", "no numeric rules for language 'ZH', only the digit rules apply "
                    "(languages with rules: en, zh)")]


def test_universal_rules_merge_longest_first():
    rows = [("a", "1", "en", "number"), ("ab", "2", "*", "number"), ("abc", "3", "en", "number")]
    assert normalize_with(rows, "ab abc a", "en") == "231"
    assert normalize_with(rows, "ab abc a", "zh") == "22"


def _is_ascii_letter(c):
    return "a" <= c <= "z" or "A" <= c <= "Z"


def scan_patterns(rows, lang):
    """The rows of `lang` and of "*" in match order, sorted as the rule table
    sorted them: each language's rows longest first, then by pattern, then
    a language's own rows and the "*" rows merged by a second stable sort."""
    def ordered(patterns):
        return sorted(patterns, key=lambda pr: (-len(pr[0]), pr[0]))

    specific = ordered([(p.lower(), r, k) for p, r, row_lang, k in rows if row_lang == lang])
    universal = ordered([(p.lower(), r, k) for p, r, row_lang, k in rows if row_lang == "*"])
    return ordered(specific + universal)


def scan_normalize(s, lang, rows):
    """Reference: every pattern of the language tried at every position."""
    patterns = scan_patterns(rows, lang)
    lowered = unicodedata.normalize("NFC", s).lower()
    out = []
    i = 0
    while i < len(lowered):
        for pattern, replacement, kind in patterns:
            if lowered[i:i + len(pattern)] != pattern:
                continue
            if _is_ascii_letter(pattern[0]) and i > 0 and _is_ascii_letter(lowered[i - 1]):
                continue
            after = lowered[i + len(pattern):i + len(pattern) + 1]
            if kind == "month" and _is_ascii_letter(pattern[-1]) and _is_ascii_letter(after):
                continue
            out.append(replacement)
            i += len(pattern)
            break
        else:
            i += 1
    return "".join(c for c in "".join(out) if c in DIGITS)


DEFAULT_CHARS = sorted({c for pattern, *_ in PACKAGED_ROWS for c in pattern})
NOISE = " .,%0zxOTÉé十"
LANG = st.sampled_from(["zh", "en"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(DEFAULT_CHARS + list(NOISE), max_size=30), min_size=1, max_size=5),
       LANG)
def test_rule_index_matches_the_scan_on_default_rules(texts, lang):
    for text in texts:
        assert normalize_numeric(text, lang) == scan_normalize(text, lang, PACKAGED_ROWS)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(DEFAULT_CHARS + list(NOISE), max_size=30), min_size=1, max_size=5),
       LANG)
def test_skeletons_are_idempotent_under_the_packaged_rules(texts, lang):
    for text in texts:
        once = normalize_numeric(text, lang)
        assert normalize_numeric(once, lang) == once


def test_packaged_rules_keep_the_digits():
    # what makes packaged skeletons idempotent: each of 1-9 rewrites to
    # itself in every language, and no other pattern is all digits
    digit_rows = [row for row in PACKAGED_ROWS if set(row[0]) <= set("0123456789")]
    assert sorted(digit_rows) == [(d, d, "*", "number") for d in DIGITS]


# a small alphabet, so patterns share prefixes and first characters; ASCII
# letters exercise the word-start rule and, in month rows, the word-end
# rule, upper case and "İ" (two characters when lowered) the folding of
# patterns and text
PATTERN_CHARS = "abAB1一十月İ"
KIND = st.sampled_from(["month", "number"])
RULE = st.tuples(st.text(PATTERN_CHARS, min_size=1, max_size=4),
                 st.text("0123456789", max_size=2),
                 st.sampled_from(["zh", "en", "*"]), KIND)


@settings(max_examples=300, deadline=None)
@given(st.lists(RULE, min_size=1, max_size=10),
       st.lists(st.text(PATTERN_CHARS + " .z2", max_size=20), min_size=1, max_size=5),
       LANG)
def test_rule_index_matches_the_scan_on_user_tables(rows, texts, lang):
    # random rule rows, through the builder of the packaged index
    for text in texts:
        assert normalize_with(rows, text, lang) == scan_normalize(text, lang, rows)


# the extra rules' patterns hold a non-digit, and may start with a digit
EXTRA_RULE = st.tuples(st.text("ab1一十月%", min_size=1, max_size=4).filter(
                           lambda p: not all(c in "0123456789" for c in p)),
                       st.text("0123456789a", max_size=3),
                       st.sampled_from(["zh", "en", "*"]), KIND)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.booleans(), min_size=9, max_size=9),
       st.lists(EXTRA_RULE, max_size=10),
       st.lists(st.text("ab1一十月% 29", max_size=20), min_size=1, max_size=5),
       LANG)
def test_skeletons_are_idempotent_under_user_tables_that_keep_the_digits(
        universal, extra, texts, lang):
    # each of 1-9 rewrites to itself in `lang`, for that language or for
    # all, and no other pattern is all digits
    digits = [(d, d, "*" if u else lang, "number") for d, u in zip(DIGITS, universal)]
    rows = digits + extra
    for text in texts:
        once = normalize_with(rows, text, lang)
        assert normalize_with(rows, once, lang) == once


def test_skeletons_need_not_be_idempotent_under_other_user_tables():
    no_digit_rules = [("一", "1", "zh", "number")]
    assert normalize_with(no_digit_rules, "一", "zh") == "1"
    assert normalize_with(no_digit_rules, "1", "zh") == ""
    two_digit_rule = [(d, d, "*", "number") for d in DIGITS] + [
        ("一", "1", "zh", "number"), ("二", "2", "zh", "number"), ("12", "5", "zh", "number")]
    assert normalize_with(two_digit_rule, "一二", "zh") == "12"
    assert normalize_with(two_digit_rule, "12", "zh") == "5"


# words and numerals that rewrite at a word start, and ones that must not;
# words a month starts, which must not rewrite, as a month must end its word;
# Chinese months and numerals; digits and a zero; capital, final and medial
# sigma; a dotted capital I that lowers to two characters; a lone combining
# acute, which NFC could compose with a letter before it
JOIN_PIECES = ["january", "May", "sept", "Oct", "one", "stone", "seventh", "a",
               "market", "decide", "marching", "十一月", "十", "一", "二月", "零", "7", "0",
               "42", "Σ", "ς", "σ", "İ", "\u0301"]


@settings(max_examples=500, deadline=None)
@given(tokens=st.lists(st.lists(st.sampled_from(JOIN_PIECES), min_size=1, max_size=4)
                       .map("".join), max_size=6),
       lang=st.sampled_from(["en", "zh"]))
def test_skeleton_of_joined_tokens_joins_their_skeletons(tokens, lang):
    assert normalize_numeric(" ".join(tokens), lang) == "".join(
        normalize_numeric(token, lang) for token in tokens)


def test_no_packaged_pattern_holds_whitespace():
    # what makes a text's skeleton its space-separated tokens' skeletons joined
    patterns = [pattern for pattern, *_ in PACKAGED_ROWS]
    assert patterns and all(pattern.split() == [pattern] for pattern in patterns)


def test_every_form_month_number_accepts_has_a_skeleton():
    # Gazetteer tests a token for N/T by its skeleton alone; this is why a
    # month name or abbreviation needs no test of its own. month_number
    # accepts a token only when, lowered and stripped of trailing dots, it
    # is a prefix of a month name; normalize_numeric lowers it too, and no
    # pattern holds a dot. So every prefix, in three cases and with trailing
    # dots, stands for every token month_number accepts.
    assert not any("." in pattern for pattern, *_ in PACKAGED_ROWS)
    accepted = 0
    for lang, names in MONTH_NAMES.items():
        for name in names:
            for end in range(1, len(name) + 1):
                prefix = name[:end]
                for form in (prefix.lower(), prefix.upper(), prefix.title()):
                    for dots in ("", ".", ".."):
                        if month_number(form + dots, lang) is None:
                            continue
                        accepted += 1
                        assert normalize_numeric(form + dots, lang), (form + dots, lang)
                        spans = Gazetteer({}).recognize(Sentence((form + dots,), lang), 0,
                                                        "source")
                        assert [(s.start, s.end, s.ne_type) for s in spans] == \
                            [(0, 1, NeType.NT)]
    # 32 English forms and 12 Chinese ones, each in three cases (the same
    # for Chinese) with zero to two trailing dots
    assert accepted == (32 + 12) * 9


def test_every_month_name_is_a_month_row_of_its_language():
    months = {(pattern, lang): int(replacement)
              for pattern, replacement, lang, kind in PACKAGED_ROWS if kind == "month"}
    for lang, names in MONTH_NAMES.items():
        for number, name in enumerate(names, start=1):
            assert months.get((name.lower(), lang)) == number, (name, lang)


def test_each_chinese_numeral_row_reads_its_index_in_the_numerals():
    rows = [(pattern, replacement) for pattern, replacement, lang, kind in PACKAGED_ROWS
            if lang == "zh" and kind == "number" and len(pattern) == 1]
    assert rows
    for pattern, replacement in rows:
        assert ZH_NUMERALS.index(pattern) == int(replacement), pattern


@pytest.mark.parametrize("surface,src,tgt,expected", [
    ("十月", "zh", "en", "October"),
    ("October", "en", "zh", "十月"),
    ("oct.", "en", "zh", "十月"),
    ("百分之四点二", "zh", "en", "百分之4点2"),
    ("三", "zh", "en", "3"),
    ("42", "zh", "en", "42"),
])
def test_render_nt(surface, src, tgt, expected):
    assert render_nt(surface, src, tgt) == expected
