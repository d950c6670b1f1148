import random
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netrans.errors import ParseError
from netrans.numnorm import (
    DIGITS,
    RuleTable,
    default_rules,
    month_name,
    month_number,
    normalize_numeric,
    nt_similarity,
)


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


def test_custom_rule_table_replaces_packaged_rules():
    table = RuleTable.from_rows([("x", "7", "en")])
    # two word-initial x's fire; the run-internal one and the unruled "4" do not
    assert normalize_numeric("x xx 4", "en", table) == "77"
    assert normalize_numeric("4", "en", table) == ""


def test_rule_table_rejects_malformed_file(tmp_path):
    path = tmp_path / "rules.tsv"
    path.write_text("one\t1\n", encoding="utf-8")
    with pytest.raises(ParseError):
        RuleTable.from_path(path)


def test_default_rules_cover_both_languages():
    table = default_rules()
    assert {"zh", "en"} <= set(table.rules)


def test_universal_rules_merge_longest_first():
    table = RuleTable.from_rows([("a", "1", "en"), ("ab", "2", "*"), ("abc", "3", "en")])
    assert normalize_numeric("ab abc a", "en", table) == "231"
    assert normalize_numeric("ab abc a", "zh", table) == "22"


def test_rule_table_rejects_empty_patterns(tmp_path):
    with pytest.raises(ValueError, match="rule row 1"):
        RuleTable.from_rows([("x", "7", "en"), ("", "7", "en")])
    path = tmp_path / "rules.tsv"
    path.write_text("x\t7\ten\n\t7\ten\n", encoding="utf-8")
    with pytest.raises(ParseError, match=":2"):
        RuleTable.from_path(path)


def _is_ascii_letter(c):
    return "a" <= c <= "z" or "A" <= c <= "Z"


def scan_normalize(s, lang, table):
    """Reference: every pattern of the language tried at every position."""
    patterns = table.patterns_for(lang)
    lowered = unicodedata.normalize("NFC", s).lower()
    out = []
    i = 0
    while i < len(lowered):
        for pattern, replacement in patterns:
            if lowered[i:i + len(pattern)] != pattern:
                continue
            if _is_ascii_letter(pattern[0]) and i > 0 and _is_ascii_letter(lowered[i - 1]):
                continue
            out.append(replacement)
            i += len(pattern)
            break
        else:
            i += 1
    return "".join(c for c in "".join(out) if c in DIGITS)


DEFAULT_CHARS = sorted({c for pats in default_rules().rules.values() for p, _ in pats for c in p})
NOISE = " .,%0zxOTÉé十"
LANG = st.sampled_from(["zh", "en"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(DEFAULT_CHARS + list(NOISE), max_size=30), min_size=1, max_size=5),
       LANG)
def test_rule_index_matches_the_scan_on_default_rules(texts, lang):
    table = default_rules()
    for text in texts:
        assert normalize_numeric(text, lang) == scan_normalize(text, lang, table)


# a small alphabet, so patterns share prefixes and first characters; ASCII
# letters exercise the word-start rule, upper case and "İ" (two characters
# when lowered) the folding of patterns and text
PATTERN_CHARS = "abAB1一十月İ"
RULE = st.tuples(st.text(PATTERN_CHARS, min_size=1, max_size=4),
                 st.text("0123456789", max_size=2),
                 st.sampled_from(["zh", "en", "*"]))


@settings(max_examples=300, deadline=None)
@given(st.lists(RULE, min_size=1, max_size=10),
       st.lists(st.text(PATTERN_CHARS + " .z2", max_size=20), min_size=1, max_size=5),
       LANG)
def test_rule_index_matches_the_scan_on_user_tables(rows, texts, lang):
    table = RuleTable.from_rows(rows)
    for text in texts:
        assert normalize_numeric(text, lang, table) == scan_normalize(text, lang, table)


# the extra rules' patterns hold a non-digit, and may start with a digit
EXTRA_RULE = st.tuples(st.text("ab1一十月%", min_size=1, max_size=4).filter(
                           lambda p: not all(c in "0123456789" for c in p)),
                       st.text("0123456789a", max_size=3),
                       st.sampled_from(["zh", "en", "*"]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.booleans(), min_size=9, max_size=9),
       st.lists(EXTRA_RULE, max_size=10),
       st.lists(st.text("ab1一十月% 29", max_size=20), min_size=1, max_size=5),
       LANG)
def test_skeletons_are_idempotent_under_user_tables_that_keep_the_digits(
        universal, extra, texts, lang):
    # each of 1-9 rewrites to itself in `lang`, for that language or for
    # all, and no other pattern is all digits
    digits = [(d, d, "*" if u else lang) for d, u in zip(DIGITS, universal)]
    table = RuleTable.from_rows(digits + extra)
    for text in texts:
        once = normalize_numeric(text, lang, table)
        assert normalize_numeric(once, lang, table) == once


def test_skeletons_need_not_be_idempotent_under_other_user_tables():
    no_digit_rules = RuleTable.from_rows([("一", "1", "zh")])
    assert normalize_numeric("一", "zh", no_digit_rules) == "1"
    assert normalize_numeric("1", "zh", no_digit_rules) == ""
    two_digit_rule = RuleTable.from_rows(
        [(d, d, "*") for d in DIGITS] + [("一", "1", "zh"), ("二", "2", "zh"), ("12", "5", "zh")])
    assert normalize_numeric("一二", "zh", two_digit_rule) == "12"
    assert normalize_numeric("12", "zh", two_digit_rule) == "5"


# words and numerals that rewrite at a word start, and ones that must not;
# Chinese months and numerals; digits and a zero; capital, final and medial
# sigma; a dotted capital I that lowers to two characters; a lone combining
# acute, which NFC could compose with a letter before it
JOIN_PIECES = ["january", "May", "sept", "Oct", "one", "stone", "seventh", "a", "十一月", "十",
               "一", "二月", "零", "7", "0", "42", "Σ", "ς", "σ", "İ", "\u0301"]


@settings(max_examples=500, deadline=None)
@given(tokens=st.lists(st.lists(st.sampled_from(JOIN_PIECES), min_size=1, max_size=4)
                       .map("".join), max_size=6),
       lang=st.sampled_from(["en", "zh"]))
def test_skeleton_of_joined_tokens_joins_their_skeletons(tokens, lang):
    assert normalize_numeric(" ".join(tokens), lang) == "".join(
        normalize_numeric(token, lang) for token in tokens)


def test_no_packaged_pattern_holds_whitespace():
    # what makes a text's skeleton its space-separated tokens' skeletons joined
    patterns = [pattern for rules in default_rules().rules.values() for pattern, _ in rules]
    assert patterns and all(pattern.split() == [pattern] for pattern in patterns)
