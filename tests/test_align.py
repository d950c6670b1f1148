import concurrent.futures
import gc
import logging
import pickle
import re
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from netrans import align, numnorm, simdist, synth
from netrans.align import (
    AlignConfig,
    AlignedPair,
    align_corpus,
    align_sentence_pair,
    match_span,
    read_alignments,
    write_alignments,
)
from netrans.core import NePair, NeSpan, NeType, Sentence, SentencePair
from netrans.errors import ConfigError, ContractError, LengthLimitError, ParseError
from netrans.ner import AnnotationRecognizer, Gazetteer

CFG = AlignConfig()

log = logging.getLogger(__name__)


class DictTranslator:
    """Deterministic stand-in for the neural translator; picklable."""

    def __init__(self, table):
        self.table = dict(table)

    def __call__(self, text):
        return self.table.get(text, [("???", -9.0)])


class CountingTranslator(DictTranslator):
    """DictTranslator that counts its calls per input text."""

    def __init__(self, table):
        super().__init__(table)
        self.calls = Counter()

    def __call__(self, text):
        self.calls[text] += 1
        return super().__call__(text)


class LoggingTranslator(DictTranslator):
    """DictTranslator that appends each input to a file, so that calls made
    in worker processes are counted too; picklable."""

    def __init__(self, table, path):
        super().__init__(table)
        self.path = path

    def __call__(self, text):
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(text + "\n")
        return super().__call__(text)

    def calls(self):
        if not self.path.exists():
            return Counter()
        return Counter(self.path.read_text(encoding="utf-8").splitlines())


def pair(sid, src_tokens, tgt_tokens):
    return SentencePair(
        Sentence(tuple(src_tokens), "zh"), Sentence(tuple(tgt_tokens), "en"), sid
    )


def per_span(sid, side, start, end, surface):
    return NeSpan(sid, side, start, end, NeType.PER, surface)


# -- configuration -------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"sim_threshold": 0.0},
    {"sim_threshold": 1.2},
    {"max_ngram": 0},
    {"beam_width": 0},
    {"directions": "backwards"},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        AlignConfig(**kwargs)


# -- span matching -------------------------------------------------------------


def test_translated_candidate_matches_by_lcs_similarity():
    ne = per_span(0, "source", 0, 1, "波林")
    hit = match_span(ne, [("bolin", -0.1)], ("berlin", "visited"), CFG,
                     ne_lang="zh", other_lang="en")
    assert hit == (0, 1, 0.8)  # lcs("bolin","berlin")=4, divided by len("bolin")


def test_no_range_above_threshold_returns_none():
    ne = per_span(0, "source", 0, 1, "波林")
    hit = match_span(ne, [("bolin", -0.1)], ("embassy", "visited"), CFG,
                     ne_lang="zh", other_lang="en")
    assert hit is None


def test_threshold_is_inclusive():
    ne = per_span(0, "source", 0, 1, "某某")
    # lcs("abcde","abc")=3 -> score exactly 0.6
    tokens = ("abc",)
    assert match_span(ne, [("abcde", 0.0)], tokens, AlignConfig(sim_threshold=0.6),
                      ne_lang="zh", other_lang="en") == (0, 1, 0.6)
    assert match_span(ne, [("abcde", 0.0)], tokens, AlignConfig(sim_threshold=0.61),
                      ne_lang="zh", other_lang="en") is None


def test_raising_the_threshold_never_adds_matches():
    ne = per_span(0, "source", 0, 1, "某某")
    tokens = ("berlin", "bolzano", "hall")
    found = []
    for threshold in (0.2, 0.4, 0.6, 0.8, 1.0):
        cfg = AlignConfig(sim_threshold=threshold)
        found.append(match_span(ne, [("bolin", 0.0)], tokens, cfg,
                                ne_lang="zh", other_lang="en"))
    for lo, hi in zip(found, found[1:]):
        if hi is not None:
            assert lo is not None


THRESHOLDS = st.one_of(st.sampled_from([0.2, 0.25, 0.5, 0.6, 0.75, 0.8, 1.0]),
                       st.floats(0.01, 1.0))
LETTERS = "abeilnorz"


@st.composite
def candidate(draw, tokens):
    """Random letters, or a run of the stream's tokens with a few characters cut,
    so that ranges of every width score anywhere from 0 to 1."""
    if draw(st.booleans()):
        return draw(st.text(LETTERS + " ", max_size=10))
    start = draw(st.integers(0, len(tokens) - 1))
    text = " ".join(tokens[start:draw(st.integers(start + 1, len(tokens)))])
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + text[i + 1:]
    return text


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       ne_type=st.sampled_from([NeType.PER, NeType.LOC, NeType.NT]),
       nt_surface=st.sampled_from(["百分之四点二", "十月 五 日", "二零零五年", "四十二"]),
       tokens=st.lists(st.one_of(st.text(LETTERS, min_size=1, max_size=7),
                                 st.sampled_from(["4.2%", "42", "october", "5", "2005"])),
                       min_size=1, max_size=8),
       thresholds=st.tuples(THRESHOLDS, THRESHOLDS),
       max_ngram=st.integers(1, 3))
def test_raising_the_threshold_keeps_the_match_or_drops_it(data, ne_type, nt_surface, tokens,
                                                           thresholds, max_ngram):
    candidates = data.draw(st.lists(st.tuples(candidate(tokens), st.floats(-9.0, 0.0)),
                                    min_size=1, max_size=4))
    if ne_type is not NeType.NT and not any(c.strip() for c, _ in candidates):
        candidates.append(("bolin", -1.0))  # a blank k-best is a caller error
    surface = nt_surface if ne_type is NeType.NT else "某某"
    ne = NeSpan(0, "source", 0, 1, ne_type, surface)
    lo, hi = sorted(thresholds)
    found = [match_span(ne, candidates, tokens,
                        AlignConfig(sim_threshold=threshold, max_ngram=max_ngram),
                        ne_lang="zh", other_lang="en")
             for threshold in (lo, hi)]
    assert found[1] is None or found[1] == found[0]


def reference_match_span(ne, candidates, other_tokens, cfg, *, ne_lang, other_lang):
    """The one-`similarity`-call-per-(range, candidate) loop `match_span` replaced;
    the oracle its one-pass scan must equal exactly."""
    if ne.ne_type is NeType.NT:
        skeleton = numnorm.normalize_numeric(ne.surface, ne_lang)
        if not skeleton:
            return None  # every range would score 0.0, below any threshold
        scored = [skeleton]

        def similarity(cand, text):
            return numnorm.skeleton_similarity(cand, numnorm.normalize_numeric(text, other_lang))
    else:
        scored = [c for c, _ in candidates if c.strip()]
        if not scored:
            raise ConfigError(
                f"no translation candidates for {ne.ne_type.value} span {ne.surface!r}")
        similarity = simdist.similarity

    n = len(other_tokens)
    best = None
    best_key = None
    too_long = 0
    for start in range(n):
        for end in range(start + 1, min(start + cfg.max_ngram, n) + 1):
            text = " ".join(other_tokens[start:end])
            for rank, cand in enumerate(scored):
                try:
                    score = similarity(cand, text)
                except LengthLimitError:
                    too_long += 1
                    continue
                if score < cfg.sim_threshold:
                    continue
                key = (-score, end - start, start, rank)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (start, end, score)
    if too_long:
        log.warning("sentence %d: %d comparison(s) for %s span %r exceed %d chars, "
                    "treated as no match", ne.sentence_id, too_long, ne.ne_type.value,
                    ne.surface, simdist.MAX_CHARS)
    return best


def outcome(caplog, matcher, *args, **kwargs):
    """(result or raised exception type, warning texts) of one matcher call."""
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        try:
            result = matcher(*args, **kwargs)
        except Exception as exc:  # the oracle and the scan must raise alike
            result = type(exc)
    return result, [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]


# cases, final and medial sigma, a dotted capital I that folds to two chars, a
# sharp s, a combining acute after letters and alone, a precomposed e-acute, CJK
ORACLE_CHARS = "abzABZΣςσİßé\u0301北京"
# over-long alone, or only once joined to a neighbour (1020 + 1 + 4 > 1024);
# "İ" * 520 is short before folding and 1,040 chars after
LONG_TOKENS = ["a" * 1020, "İ" * 520, "ß" * 1025, "7" * 1030]
# runs of one character against candidates of the same character carry out of
# a packed candidate's top bit into its guard bit
A_RUNS = st.integers(1, 9).map(lambda k: "a" * k)
ORACLE_TOKENS = st.one_of(
    st.text(ORACLE_CHARS, min_size=1, max_size=6),
    st.sampled_from(["4.2%", "42", "october", "5", "2005", "十月"]),
    st.sampled_from(LONG_TOKENS),
    A_RUNS)
OVERLONG_CANDIDATES = ["x" * 1025, "İ" * 513]


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(),
       ne_type=st.sampled_from([NeType.PER, NeType.LOC, NeType.NT]),
       nt_surface=st.sampled_from(["百分之四点二", "十月 五 日", "二零零五年", "四十二",
                                   "7" * 1030]),
       tokens=st.lists(ORACLE_TOKENS, min_size=0, max_size=7),
       threshold=THRESHOLDS,
       max_ngram=st.integers(1, 5))
def test_match_span_equals_the_reference_loop(caplog, data, ne_type, nt_surface, tokens,
                                              threshold, max_ngram):
    texts = [st.text(ORACLE_CHARS + " ", max_size=8),
             st.sampled_from(["", *OVERLONG_CANDIDATES, "Σ" * 1024]),
             A_RUNS, st.sampled_from(["aa a", "a aa"])]
    if tokens:
        texts.append(candidate(tokens))
    candidates = data.draw(st.lists(st.tuples(st.one_of(texts), st.floats(-9.0, 0.0)),
                                    min_size=1, max_size=5))
    if len(candidates) > 1 and data.draw(st.booleans()):
        # an over-long candidate between short ones: the packed ranks skip it
        candidates.insert(data.draw(st.integers(1, len(candidates) - 1)),
                          (data.draw(st.sampled_from(OVERLONG_CANDIDATES)), -1.0))
    surface = nt_surface if ne_type is NeType.NT else "某某"
    ne = NeSpan(3, "source", 0, 1, ne_type, surface)
    cfg = AlignConfig(sim_threshold=threshold, max_ngram=max_ngram)
    got = outcome(caplog, match_span, ne, candidates, tokens, cfg,
                  ne_lang="zh", other_lang="en")
    want = outcome(caplog, reference_match_span, ne, candidates, tokens, cfg,
                   ne_lang="zh", other_lang="en")
    assert got == want


@pytest.mark.parametrize("threshold", [0.2, 0.6, 0.75, 1.0])
@pytest.mark.parametrize("max_ngram", [1, 2, 3, 4])
def test_packed_runs_of_one_character_equal_the_reference_loop(caplog, threshold, max_ngram):
    # every update carries into some guard bit; the over-long token makes
    # the fragments through it warn once per packed candidate
    ne = per_span(5, "source", 0, 1, "阿阿")
    candidates = [("a" * k, -k / 10) for k in (9, 1, 5, 3, 7)]
    tokens = ("aaaa", "a", "a" * 1022, "aa", "a" * 9, "aaa")
    cfg = AlignConfig(sim_threshold=threshold, max_ngram=max_ngram)
    got = outcome(caplog, match_span, ne, candidates, tokens, cfg,
                  ne_lang="zh", other_lang="en")
    want = outcome(caplog, reference_match_span, ne, candidates, tokens, cfg,
                   ne_lang="zh", other_lang="en")
    assert got == want and got[0] is not None
    assert bool(got[1]) == (max_ngram > 1)


# -- the bounded scan -------------------------------------------------------------

# (candidates, tokens): a perfect match, then a wider perfect match; a wide
# perfect match, then a narrower one further right that must win; over-long
# tokens after a perfect match, whose warning counts must not change;
# candidates with a space beside start tokens that match nothing
BOUNDED_SCAN_CASES = [
    (["anna"], ("anna", "anna", "anna")),
    (["bolin"], ("bo", "lin", "qq", "bolin")),
    (["bo lin", "bolin"], ("bo", "lin", "zz", "bolin", "lin")),
    (["bolin", "x" * 1025], ("bolin", "a" * 1020, "said", "ß" * 1025, "bolin")),
    (["bolin", "bo"], ("qq", "bolin", "y" * 1020, "zz", "bo")),
    (["bo lin"], ("qq", "bo", "zz", "lin", "qq", "bo", "lin")),
    (["an na", "anna"], ("xx", "an", "na", "yy", "anna")),
    (["lin"], ("qq", "zz", "xx")),
    # the space after a token that matches nothing lifts "zz lin" to 4/6
    (["bo lin"], ("zz", "lin", "qq")),
    (["bo lin", "q"], ("zz", "lin", "zz", "bo")),
]


@pytest.mark.parametrize("threshold", [0.3, 0.6, 1.0])
@pytest.mark.parametrize("max_ngram", [1, 2, 3, 4])
@pytest.mark.parametrize("candidates, tokens", BOUNDED_SCAN_CASES)
def test_bounded_scan_equals_the_reference_loop(caplog, candidates, tokens, threshold,
                                                max_ngram):
    ne = per_span(4, "source", 0, 1, "波林")
    candidates = [(c, -rank / 2) for rank, c in enumerate(candidates)]
    cfg = AlignConfig(sim_threshold=threshold, max_ngram=max_ngram)
    got = outcome(caplog, match_span, ne, candidates, tokens, cfg,
                  ne_lang="zh", other_lang="en")
    assert got == outcome(caplog, reference_match_span, ne, candidates, tokens, cfg,
                          ne_lang="zh", other_lang="en")


def test_a_narrower_perfect_match_further_right_wins():
    ne = per_span(0, "source", 0, 1, "波林")
    for candidates, tokens, want in [([("bolin", 0.0)], ("bo", "lin", "qq", "bolin"), (3, 4)),
                                     ([("bo lin", 0.0)], ("bo", "lin", "x", "bo", "lin"), (0, 2)),
                                     ([("anna", 0.0)], ("an", "na", "anna", "anna"), (2, 3))]:
        assert match_span(ne, candidates, tokens, CFG, ne_lang="zh",
                          other_lang="en") == (*want, 1.0)


def test_overlong_tokens_after_a_perfect_match_still_warn(caplog):
    ne = per_span(2, "source", 0, 1, "波林")
    candidates = [("bolin", 0.0), ("x" * 1025, -1.0)]
    tokens = ("bolin", "said", "a" * 1020, "ß" * 1025, "today")
    got = outcome(caplog, match_span, ne, candidates, tokens, CFG, ne_lang="zh", other_lang="en")
    # all 12 ranges with the long candidate; with "bolin" the 5 through
    # "ß" * 1025 and the 2 that join "said" to "a" * 1020
    assert got == ((0, 1, 1.0), [
        f"sentence 2: 19 comparison(s) for PER span '波林' exceed {simdist.MAX_CHARS} chars, "
        "treated as no match"])
    assert got == outcome(caplog, reference_match_span, ne, candidates, tokens, CFG,
                          ne_lang="zh", other_lang="en")


# tokens of a few letters, so that n-grams equal the candidates often
PERFECT_TOKENS = st.sampled_from(["bo", "lin", "anna", "b", "zz", "qq", "a" * 1020])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), tokens=st.lists(PERFECT_TOKENS, min_size=1, max_size=8),
       threshold=THRESHOLDS, max_ngram=st.integers(1, 4))
def test_bounded_scan_equals_the_reference_loop_on_perfect_matches(caplog, data, tokens,
                                                                   threshold, max_ngram):
    # candidates are runs of the tokens, joined with or without spaces, so
    # that most spans meet several perfect matches of different widths
    run = st.integers(0, len(tokens) - 1).flatmap(
        lambda i: st.integers(i + 1, min(i + 3, len(tokens))).map(lambda j: tokens[i:j]))
    text = st.one_of(run.map(" ".join), run.map("".join),
                     st.sampled_from(["bolin", "bo lin", "q", "x" * 1025]))
    candidates = data.draw(st.lists(st.tuples(text, st.floats(-9.0, 0.0)),
                                    min_size=1, max_size=4))
    ne = per_span(1, "source", 0, 1, "波林")
    cfg = AlignConfig(sim_threshold=threshold, max_ngram=max_ngram)
    got = outcome(caplog, match_span, ne, candidates, tokens, cfg,
                  ne_lang="zh", other_lang="en")
    assert got == outcome(caplog, reference_match_span, ne, candidates, tokens, cfg,
                          ne_lang="zh", other_lang="en")


class CountingMasks(dict):
    """A candidate pack's character masks that record every lookup."""

    def __init__(self, masks):
        super().__init__(masks)
        self.looked_up = []

    def get(self, key, default=None):
        self.looked_up.append(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.looked_up.append(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.looked_up.append(key)
        return super().__contains__(key)

    def keys(self):
        self.looked_up.append("keys()")
        return super().keys()


def test_nothing_after_a_one_token_perfect_match_is_looked_up():
    ne = per_span(0, "source", 0, 1, "波林")
    candidates = [("bolin", 0.0), ("berlin", -1.0), ("bo lin", -2.0)]
    tokens = ("bolin", "met", "berlin", "bo", "lin", "zz")
    memos = align._Memos(CFG.sim_threshold)
    pack = align.pack_candidates(candidates, CFG.sim_threshold)
    masks = CountingMasks(pack.masks)
    memos.packs[tuple(candidates)] = pack._replace(masks=masks)
    assert match_span(ne, candidates, tokens, CFG, ne_lang="zh", other_lang="en",
                      memos=memos) == (0, 1, 1.0)
    assert masks.looked_up == list("bolin")  # the first token's characters, once each
    assert match_span(ne, candidates, tokens, CFG, ne_lang="zh",
                      other_lang="en") == (0, 1, 1.0)


def test_nothing_after_a_one_token_nt_perfect_match_is_looked_up():
    ne = NeSpan(0, "source", 0, 1, NeType.NT, "四十二")
    tokens = ("42", "said", "4.2%", "forty", "2", "42")
    memos = align._Memos(CFG.sim_threshold)
    key = (("42", 0.0),)  # the span's digit skeleton is its one candidate
    pack = memos.packs[key]
    masks = CountingMasks(pack.masks)
    memos.packs[key] = pack._replace(masks=masks)
    assert match_span(ne, [], tokens, CFG, ne_lang="zh", other_lang="en",
                      memos=memos) == (0, 1, 1.0)
    # the pack has no space, so the first start checks its token against the
    # characters, then looks up each of them once
    assert masks.looked_up == ["keys()", "4", "2"]
    assert match_span(ne, [], tokens, CFG, ne_lang="zh", other_lang="en") == (0, 1, 1.0)


def test_overlong_nt_tokens_after_a_perfect_match_still_warn(caplog):
    ne = NeSpan(2, "source", 0, 1, NeType.NT, "七")
    tokens = ("7", "said", "7" * 1030, "today", "7" * 1030)
    got = outcome(caplog, match_span, ne, [], tokens, CFG, ne_lang="zh", other_lang="en")
    # every range through a long token, but "today" alone and "said" alone
    # have no digit and score 0.0 without a comparison
    assert got == ((0, 1, 1.0), [
        f"sentence 2: 8 comparison(s) for NT span '七' exceed {simdist.MAX_CHARS} chars, "
        "treated as no match"])
    assert got == outcome(caplog, reference_match_span, ne, [], tokens, CFG,
                          ne_lang="zh", other_lang="en")


def test_nt_skeletons_join_with_no_joiner_at_the_length_limit(caplog):
    fits, over = simdist.MAX_CHARS, simdist.MAX_CHARS + 1
    cases = [
        # 1,020 + 4 digits fit; joined by a space they would not, and the
        # one-token range would win at 1020/1024
        ("7" * fits, ("7" * 1020, "7" * 4), ((0, 2, 1.0), [])),
        # 1,021 + 4 digits do not: one over-long comparison
        ("7" * fits, ("7" * 1021, "7" * 4), ((0, 1, 1021 / fits), [
            f"sentence 3: 1 comparison(s) for NT span '{'7' * fits}' exceed "
            f"{simdist.MAX_CHARS} chars, treated as no match"])),
        # an over-long skeleton against ranges with no digit compares nothing
        ("7" * over, ("said", "today", "x"), (None, [])),
    ]
    for surface, tokens, want in cases:
        ne = NeSpan(3, "source", 0, 1, NeType.NT, surface)
        got = outcome(caplog, match_span, ne, [], tokens, CFG, ne_lang="zh", other_lang="en")
        assert got == want
        assert got == outcome(caplog, reference_match_span, ne, [], tokens, CFG,
                              ne_lang="zh", other_lang="en")


def test_per_spans_make_no_similarity_calls(monkeypatch):
    calls = []
    similarity = simdist.similarity

    def counting(candidate, target):
        calls.append((candidate, target))
        return similarity(candidate, target)

    ne = per_span(0, "source", 0, 1, "波林")
    tokens = ("the", "bolin", "visit", "to", "berlin", "hall")
    candidates = [("bolin", -0.1), ("bo lin", -0.5), ("berlin", -1.0), ("polin", -2.0),
                  ("bolinhall", -4.0)]
    monkeypatch.setattr(simdist, "similarity", counting)
    hit = match_span(ne, candidates, tokens, CFG, ne_lang="zh", other_lang="en")
    assert calls == []
    monkeypatch.undo()
    assert hit == (1, 2, 1.0)
    assert hit == reference_match_span(ne, candidates, tokens, CFG,
                                       ne_lang="zh", other_lang="en")


def test_ties_prefer_narrower_then_leftmost_ranges():
    ne = per_span(0, "source", 0, 1, "安娜")
    # "anna" scores 1.0 against the single token and against any 2-gram
    # containing it; the single token must win
    hit = match_span(ne, [("anna", 0.0)], ("anna", "anna"), CFG,
                     ne_lang="zh", other_lang="en")
    assert hit == (0, 1, 1.0)


def test_multi_token_ranges_up_to_max_ngram():
    ne = per_span(0, "source", 0, 1, "坦安州")
    hit = match_span(ne, [("tanan zhou", 0.0)], ("in", "tanan", "zhou"), CFG,
                     ne_lang="zh", other_lang="en")
    assert hit == (1, 3, 1.0)
    narrow = AlignConfig(max_ngram=1)
    assert match_span(ne, [("tanan zhou", 0.0)], ("in", "tanan", "zhou"), narrow,
                      ne_lang="zh", other_lang="en") is None


def test_nt_spans_match_on_digit_skeletons_without_a_translator():
    ne = NeSpan(0, "source", 0, 1, NeType.NT, "百分之四点二")
    hit = match_span(ne, [], ("grew", "4.2%"), CFG, ne_lang="zh", other_lang="en")
    assert hit == (1, 2, 1.0)


# -- sentence-level union --------------------------------------------------------


def test_one_sided_recognition_still_aligns():
    p = pair(0, ["波林", "说"], ["bolin", "said"])
    s2t = DictTranslator({"波林": [("bolin", 0.0)]})
    t2s = DictTranslator({"bolin": [("波林", 0.0)]})

    only_src = align_sentence_pair(p, [per_span(0, "source", 0, 1, "波林")], [],
                                   CFG, s2t, t2s)
    assert [(a.direction, a.src_start, a.tgt_start) for a in only_src] == [("s2t", 0, 0)]

    only_tgt = align_sentence_pair(p, [], [per_span(0, "target", 0, 1, "bolin")],
                                   CFG, s2t, t2s)
    assert [(a.direction, a.src_start, a.tgt_start) for a in only_tgt] == [("t2s", 0, 0)]


def test_agreeing_directions_merge_into_both():
    p = pair(0, ["波林", "说"], ["bolin", "said"])
    s2t = DictTranslator({"波林": [("bolin", 0.0)]})
    t2s = DictTranslator({"bolin": [("波林", 0.0)]})
    out = align_sentence_pair(p, [per_span(0, "source", 0, 1, "波林")],
                              [per_span(0, "target", 0, 1, "bolin")], CFG, s2t, t2s)
    assert len(out) == 1
    a = out[0]
    assert a.direction == "both"
    assert (a.src_start, a.src_end, a.tgt_start, a.tgt_end) == (0, 1, 0, 1)
    assert a.score == 1.0


def test_merged_pairs_keep_the_recognized_spans():
    # the source recognizer sees one token, the target recognizer two; the
    # merged alignment must preserve both recognized ranges exactly
    p = pair(0, ["坦安州", "真", "美"], ["tanan", "zhou", "is", "nice"])
    s2t = DictTranslator({"坦安州": [("tanan zhou", 0.0)]})
    t2s = DictTranslator({"tanan zhou": [("坦安州", 0.0)]})
    out = align_sentence_pair(
        p,
        [NeSpan(0, "source", 0, 1, NeType.LOC, "坦安州")],
        [NeSpan(0, "target", 0, 2, NeType.LOC, "tanan zhou")],
        CFG, s2t, t2s)
    assert [(a.src_start, a.src_end, a.tgt_start, a.tgt_end, a.direction)
            for a in out] == [(0, 1, 0, 2, "both")]


def test_type_disagreement_does_not_merge():
    p = pair(0, ["波林", "说"], ["bolin", "said"])
    s2t = DictTranslator({"波林": [("bolin", 0.0)]})
    t2s = DictTranslator({"bolin": [("波林", 0.0)]})
    out = align_sentence_pair(
        p,
        [NeSpan(0, "source", 0, 1, NeType.PER, "波林")],
        [NeSpan(0, "target", 0, 1, NeType.LOC, "bolin")],
        CFG, s2t, t2s)
    # both candidates survive to selection; they fight over the same tokens
    # and the s2t one wins the rank tie-break
    assert [(a.direction, a.ne_type) for a in out] == [("s2t", NeType.PER)]


def test_competing_entities_resolve_by_score():
    p = pair(0, ["波林", "保林", "来"], ["bolin", "arrived"])
    s2t = DictTranslator({
        "波林": [("bolin", 0.0)],    # similarity 1.0
        "保林": [("baolin", 0.0)],   # similarity against "bolin" is 5/6
    })
    out = align_sentence_pair(
        p,
        [per_span(0, "source", 0, 1, "波林"), per_span(0, "source", 1, 2, "保林")],
        [], AlignConfig(directions="s2t"), s2t, None)
    assert [(a.src_start, a.score) for a in out] == [(0, 1.0)]


def test_missing_translator_is_a_config_error():
    p = pair(0, ["波林"], ["bolin"])
    with pytest.raises(ConfigError, match="translator"):
        align_sentence_pair(p, [per_span(0, "source", 0, 1, "波林")], [], CFG)


def test_foreign_spans_are_a_contract_error():
    p = pair(0, ["波林"], ["bolin"])
    wrong_sentence = per_span(9, "source", 0, 1, "波林")
    with pytest.raises(ContractError):
        align_sentence_pair(p, [wrong_sentence], [], CFG, DictTranslator({}))
    wrong_side = per_span(0, "target", 0, 1, "波林")
    with pytest.raises(ContractError):
        align_sentence_pair(p, [wrong_side], [], CFG, DictTranslator({}))


def test_direction_restriction_skips_the_other_recognizer():
    p = pair(0, ["波林"], ["bolin"])
    t2s = DictTranslator({"bolin": [("波林", 0.0)]})
    out = align_sentence_pair(p, [], [per_span(0, "target", 0, 1, "bolin")],
                              AlignConfig(directions="t2s"), None, t2s)
    assert [a.direction for a in out] == ["t2s"]


# -- corpus-level driver ---------------------------------------------------------


class TwoSentenceRecognizer:
    """Annotation-free recognizer for the corpus tests: tags 波林 and bolin as PER."""

    def recognize(self, sentence, sentence_id, side):
        spans = []
        lookup = {"波林": NeType.PER, "bolin": NeType.PER}
        for i, token in enumerate(sentence.tokens):
            if token in lookup:
                spans.append(NeSpan(sentence_id, side, i, i + 1, lookup[token], token))
        return spans


def small_corpus():
    return [
        pair(0, ["波林", "说"], ["bolin", "said"]),
        pair(1, ["波林", "来"], ["bolin", "arrived"]),
    ]


def corpus_translators():
    return (DictTranslator({"波林": [("bolin", 0.0)]}),
            DictTranslator({"bolin": [("波林", 0.0)]}))


def test_align_corpus_counts_repeated_pairs():
    s2t, t2s = corpus_translators()
    alignments, ne_pairs = align_corpus(small_corpus(), TwoSentenceRecognizer(),
                                        CFG, s2t, t2s)
    assert len(alignments) == 2
    assert [(p.src, p.tgt, p.count) for p in ne_pairs] == [("波林", "bolin", 2)]


def test_align_corpus_is_job_count_invariant():
    s2t, t2s = corpus_translators()
    sequential = align_corpus(small_corpus(), TwoSentenceRecognizer(), CFG, s2t, t2s,
                              jobs=1)
    parallel = align_corpus(small_corpus(), TwoSentenceRecognizer(), CFG, s2t, t2s,
                            jobs=2)
    assert sequential == parallel
    with pytest.raises(ConfigError):
        align_corpus(small_corpus(), TwoSentenceRecognizer(), CFG, s2t, t2s, jobs=0)


def test_align_corpus_checks_jobs_before_recognizing():
    # NT spans need no translator and so no decode: the check cannot be left to it
    corpus = [pair(0, ["十月", "五", "日"], ["october", "5"])]
    annotated = AnnotationRecognizer([NeSpan(0, "source", 0, 3, NeType.NT),
                                      NeSpan(0, "target", 0, 2, NeType.NT)])
    seen = []

    def recognize(sentence, sentence_id, side):
        seen.append(side)
        return annotated.recognize(sentence, sentence_id, side)

    recognizer = SimpleNamespace(recognize=recognize)
    assert len(align_corpus(corpus, recognizer, CFG)[0]) == 1
    seen.clear()
    with pytest.raises(ConfigError, match="^jobs must be >= 1, got 0$"):
        align_corpus(corpus, recognizer, CFG, jobs=0)
    assert seen == []


def test_align_corpus_sends_only_the_decodes_to_workers(monkeypatch):
    synthetic = synth.make_corpus(n_pairs=12, n_sentences=40, seed=3, noise=0.0)
    recognizer = AnnotationRecognizer(synthetic.annotations)
    s2t = DictTranslator({p.src: [(p.tgt, 0.0)] for p in synthetic.train_pairs})
    t2s = DictTranslator({p.tgt: [(p.src, 0.0)] for p in synthetic.train_pairs})
    want = align_corpus(synthetic.corpus, recognizer, CFG, s2t, t2s, jobs=1)
    calls = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers)
            self.workers = max_workers

        def map(self, fn, items, **kwargs):
            calls.append((fn, list(items), self.workers))
            return super().map(fn, items, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert align_corpus(synthetic.corpus, recognizer, CFG, s2t, t2s, jobs=2) == want
    surfaces = {"source": {}, "target": {}}
    for p in synthetic.corpus:
        for side, sentence in (("source", p.src), ("target", p.tgt)):
            surfaces[side].update(dict.fromkeys(
                s.surface for s in recognizer.recognize(sentence, p.id, side)
                if s.ne_type is not NeType.NT))
    assert calls == [(s2t, list(surfaces["source"]), 2), (t2s, list(surfaces["target"]), 2)]


def test_align_corpus_through_a_real_pool_equals_one_job():
    synthetic = synth.make_corpus(n_pairs=12, n_sentences=40, seed=7, noise=0.0,
                                  oneside_drop=0.3)
    # spans whose types crossed a pickle round trip, as a worker's would
    recognizer = AnnotationRecognizer(pickle.loads(pickle.dumps(synthetic.annotations)))
    s2t = DictTranslator({p.src: [(p.tgt, 0.0)] for p in synthetic.train_pairs})
    t2s = DictTranslator({p.tgt: [(p.src, 0.0)] for p in synthetic.train_pairs})
    alignments, pairs = align_corpus(synthetic.corpus, recognizer, CFG, s2t, t2s, jobs=1)
    assert {a.ne_type for a in alignments} == set(NeType)
    assert align_corpus(synthetic.corpus, recognizer, CFG, s2t, t2s, jobs=2) == (
        alignments, pairs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_overlong_warnings_reach_the_caller_at_any_job_count(caplog, jobs):
    # one over-long target token in each of 8 sentences: every warning is
    # logged in this process, in corpus order
    corpus = [pair(i, ["波林", "说"], ["bolin", "x" * (1100 + i), "said"]) for i in range(8)]
    recognizer = AnnotationRecognizer([per_span(i, "source", 0, 1, "波林") for i in range(8)])
    s2t = DictTranslator({"波林": [("bolin", 0.0)]})
    alignments, warnings = outcome(
        caplog, lambda: align_corpus(corpus, recognizer, CFG, s2t, None, jobs=jobs)[0])
    assert [(a.sentence_id, a.src_start, a.tgt_start) for a in alignments] == [
        (i, 0, 0) for i in range(8)]
    assert warnings == [f"sentence {i}: 4 comparison(s) for PER span '波林' exceed "
                        f"{simdist.MAX_CHARS} chars, treated as no match" for i in range(8)]


def test_align_corpus_decodes_each_surface_once_per_direction(tmp_path):
    synthetic = synth.make_corpus(n_pairs=12, n_sentences=40, seed=3, noise=0.0,
                                  oneside_drop=0.2)
    recognizer = AnnotationRecognizer(synthetic.annotations)
    s2t_table = {p.src: [(p.tgt, 0.0)] for p in synthetic.train_pairs}
    t2s_table = {p.tgt: [(p.src, 0.0)] for p in synthetic.train_pairs}
    s2t, t2s = CountingTranslator(s2t_table), CountingTranslator(t2s_table)
    got = align_corpus(synthetic.corpus, recognizer, CFG, s2t, t2s)

    spans = {"source": [], "target": []}
    by_sentence = []
    for p in synthetic.corpus:
        src_spans = recognizer.recognize(p.src, p.id, "source")
        tgt_spans = recognizer.recognize(p.tgt, p.id, "target")
        spans["source"] += src_spans
        spans["target"] += tgt_spans
        by_sentence += align_sentence_pair(p, src_spans, tgt_spans, CFG,
                                           DictTranslator(s2t_table), DictTranslator(t2s_table))
    for side, translator in (("source", s2t), ("target", t2s)):
        surfaces = [s.surface for s in spans[side] if s.ne_type is not NeType.NT]
        assert len(set(surfaces)) < len(surfaces)  # names repeat, so decodes are saved
        assert translator.calls == Counter(set(surfaces))
    assert got[0] == by_sentence and len(by_sentence) > 0

    # nor at jobs=2: calls made in the workers are logged too
    logged = (LoggingTranslator(s2t_table, tmp_path / "s2t.log"),
              LoggingTranslator(t2s_table, tmp_path / "t2s.log"))
    assert align_corpus(synthetic.corpus, recognizer, CFG, *logged, jobs=2) == got
    assert [t.calls() for t in logged] == [s2t.calls, t2s.calls]


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_disabled_direction_is_never_decoded(tmp_path, jobs):
    synthetic = synth.make_corpus(n_pairs=12, n_sentences=40, seed=3, noise=0.0)
    recognizer = AnnotationRecognizer(synthetic.annotations)
    s2t = DictTranslator({p.src: [(p.tgt, 0.0)] for p in synthetic.train_pairs})
    t2s = LoggingTranslator({p.tgt: [(p.src, 0.0)] for p in synthetic.train_pairs},
                            tmp_path / "t2s.log")
    cfg = AlignConfig(directions="s2t")
    alignments, _ = align_corpus(synthetic.corpus, recognizer, cfg, s2t, t2s, jobs=jobs)
    assert alignments and {a.direction for a in alignments} == {"s2t"}
    assert t2s.calls() == Counter()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("missing, first", [
    ("s2t", "PER span '波林' needs a s2t translator"),
    ("t2s", "PER span 'bolin' needs a t2s translator"),
    ("both", "PER span 'bolin' needs a t2s translator"),  # sentence 0 comes first
], ids=["s2t", "t2s", "both"])
def test_a_missing_translator_fails_at_its_first_span_before_any_decode(tmp_path, jobs,
                                                                        missing, first):
    corpus = [pair(0, ["说"], ["bolin", "said"]), pair(1, ["波林", "来"], ["bolin", "arrived"])]
    s2t_table, t2s_table = ({"波林": [("bolin", 0.0)]}, {"bolin": [("波林", 0.0)]})
    s2t = None if missing != "t2s" else LoggingTranslator(s2t_table, tmp_path / "s2t.log")
    t2s = None if missing != "s2t" else LoggingTranslator(t2s_table, tmp_path / "t2s.log")
    with pytest.raises(ConfigError, match=f"^{re.escape(first)}$"):
        align_corpus(corpus, TwoSentenceRecognizer(), CFG, s2t, t2s, jobs=jobs)
    assert all(t.calls() == Counter() for t in (s2t, t2s) if t is not None)


def per_span_alignments(corpus, recognizer, cfg, s2t, t2s):
    """Every sentence through `align_sentence_pair` with fresh memos: each
    sentence packs its candidates, folds its tokens and normalizes its
    skeletons itself."""
    out = []
    for p in corpus:
        out += align_sentence_pair(p, recognizer.recognize(p.src, p.id, "source"),
                                   recognizer.recognize(p.tgt, p.id, "target"), cfg, s2t, t2s)
    return out


def test_align_corpus_normalizes_each_nt_text_once(monkeypatch):
    synthetic = synth.make_corpus(n_pairs=12, n_sentences=40, seed=3, noise=0.1)
    recognizer = AnnotationRecognizer(synthetic.annotations)
    s2t = DictTranslator({p.src: [(p.tgt, 0.0)] for p in synthetic.train_pairs})
    t2s = DictTranslator({p.tgt: [(p.src, 0.0)] for p in synthetic.train_pairs})
    calls = []
    real = numnorm.normalize_numeric

    def counting(text, lang, table=None):
        calls.append((text, lang))
        return real(text, lang, table)

    monkeypatch.setattr(numnorm, "normalize_numeric", counting)
    want = per_span_alignments(synthetic.corpus, recognizer, CFG, s2t, t2s)
    per_span_calls = Counter(calls)
    assert max(per_span_calls.values()) > 1  # texts repeat, so normalizations are saved
    assert any(a.ne_type is NeType.NT for a in want)

    calls.clear()
    got = align_corpus(synthetic.corpus, recognizer, CFG, s2t, t2s)
    assert got[0] == want
    assert Counter(calls) == Counter(set(per_span_calls))

    calls.clear()  # at jobs=2 too, as matching runs in this process
    assert align_corpus(synthetic.corpus, recognizer, CFG, s2t, t2s, jobs=2) == got
    assert Counter(calls) == Counter(set(per_span_calls))


def test_align_corpus_packs_each_candidate_list_once(monkeypatch):
    synthetic = synth.make_corpus(n_pairs=12, n_sentences=40, seed=3, noise=0.1)
    recognizer = AnnotationRecognizer(synthetic.annotations)
    # k-best lists of three, so that packing joins several candidates
    tables = ({p.src: [(p.tgt, 0.0), (p.tgt[1:], -1.0), ("zz", -2.0)]
               for p in synthetic.train_pairs},
              {p.tgt: [(p.src, 0.0), (p.src[1:], -1.0), ("之", -2.0)]
               for p in synthetic.train_pairs})
    s2t, t2s = DictTranslator(tables[0]), DictTranslator(tables[1])
    want = per_span_alignments(synthetic.corpus, recognizer, CFG, s2t, t2s)
    assert {a.ne_type for a in want} >= {NeType.PER, NeType.LOC}

    built = []
    pack = align.pack_candidates

    def counting(candidates, threshold):
        built.append(tuple(candidates))
        return pack(candidates, threshold)

    monkeypatch.setattr(align, "pack_candidates", counting)
    alignments, _ = align_corpus(synthetic.corpus, recognizer, CFG, s2t, t2s)
    assert alignments == want
    translators = {"s2t": s2t, "t2s": t2s}
    spans = []  # (direction, surface) of every PER/LOC span, in the order matched
    lists = []  # the candidate list of every span with one, in the order matched
    for p in synthetic.corpus:
        for direction, side, sentence in (("s2t", "source", p.src), ("t2s", "target", p.tgt)):
            for ne in recognizer.recognize(sentence, p.id, side):
                if ne.ne_type is not NeType.NT:
                    spans.append((direction, ne.surface))
                    lists.append(tuple(translators[direction](ne.surface)))
                elif wanted := numnorm.normalize_numeric(ne.surface, sentence.lang):
                    lists.append(((wanted, 0.0),))  # an NT span's skeleton is its one candidate
    per_loc = [tuple(translators[direction](surface)) for direction, surface in spans]
    # surfaces repeat, and the unknown ones of both directions share one list
    assert len(set(per_loc)) < len(set(spans)) < len(spans)
    assert len(lists) > len(per_loc)
    assert built == list(dict.fromkeys(lists))

    built.clear()  # at jobs=2 too, as matching runs in this process
    assert align_corpus(synthetic.corpus, recognizer, CFG, s2t, t2s, jobs=2)[0] == want
    assert built == list(dict.fromkeys(lists))


def nt_packs(corpus, recognizer):
    """The one-candidate list of each NT span with a digit skeleton, in the
    order `align_corpus` matches the spans."""
    lists = []
    for p in corpus:
        for side, sentence in (("source", p.src), ("target", p.tgt)):
            for ne in recognizer.recognize(sentence, p.id, side):
                if ne.ne_type is NeType.NT and (
                        wanted := numnorm.normalize_numeric(ne.surface, sentence.lang)):
                    lists.append(((wanted, 0.0),))
    return lists


def test_align_corpus_packs_each_nt_skeleton_once(monkeypatch):
    synthetic = synth.make_corpus(n_pairs=12, n_sentences=40, seed=3, noise=0.1)
    recognizer = AnnotationRecognizer(synthetic.annotations)
    s2t = DictTranslator({p.src: [(p.tgt, 0.0)] for p in synthetic.train_pairs})
    t2s = DictTranslator({p.tgt: [(p.src, 0.0)] for p in synthetic.train_pairs})
    want = per_span_alignments(synthetic.corpus, recognizer, CFG, s2t, t2s)
    lists = nt_packs(synthetic.corpus, recognizer)
    assert len(set(lists)) < len(lists)  # skeletons repeat, so packs are saved
    assert any(a.ne_type is NeType.NT for a in want)

    built = []
    pack = align.pack_candidates

    def counting(candidates, threshold):
        built.append(tuple(candidates))
        return pack(candidates, threshold)

    monkeypatch.setattr(align, "pack_candidates", counting)
    assert align_corpus(synthetic.corpus, recognizer, CFG, s2t, t2s)[0] == want
    assert [c for c in built if c in lists] == list(dict.fromkeys(lists))


def test_overlong_comparisons_warn_at_every_repeat(caplog):
    # one surface and one digit skeleton in three sentences: every over-long
    # comparison is counted in its own sentence's warning, memo or not
    long_digits = "7" * 1030
    corpus = [pair(i, ["波林", long_digits], ["bolin", "7", long_digits, tail])
              for i, tail in enumerate(["said", "arrived", "said"])]
    spans = []
    for p in corpus:
        spans += [per_span(p.id, "source", 0, 1, "波林"),
                  NeSpan(p.id, "source", 1, 2, NeType.NT, long_digits),
                  NeSpan(p.id, "target", 1, 3, NeType.NT, "7 " + long_digits)]
    recognizer = AnnotationRecognizer(spans)
    s2t = DictTranslator({"波林": [("x" * 1025, 0.0), ("bolin", -1.0)]})
    runs = []
    for align_run in (lambda: per_span_alignments(corpus, recognizer, CFG, s2t, None),
                      lambda: align_corpus(corpus, recognizer, CFG, s2t, None)[0]):
        runs.append(outcome(caplog, align_run))
    assert runs[0] == runs[1]
    alignments, warnings = runs[1]
    assert [(a.sentence_id, a.src_start, a.tgt_start) for a in alignments] == [
        (0, 0, 0), (1, 0, 0), (2, 0, 0)]
    assert len(warnings) == 3 * 3  # the long candidate, the NT span on each side
    # all 9 ranges with the long candidate, the 5 through the long token with "bolin"
    assert sum("14 comparison(s) for PER span '波林'" in w for w in warnings) == 3


@pytest.mark.parametrize("blank", [" ", "   ", "\t", "\u3000"])
def test_a_blank_candidate_matches_nothing(blank):
    # a lone space once matched the joiner of any two-token range at score 1.0
    ne = per_span(0, "source", 0, 1, "某某")
    tokens = ["the", "delegation", "arrived"]
    assert match_span(ne, [(blank, 0.0), ("arrived", -1.0)], tokens, CFG,
                      ne_lang="zh", other_lang="en") == (2, 3, 1.0)
    assert (align.pack_candidates([(blank, 0.0), ("arrived", -1.0)], 0.6)
            == align.pack_candidates([("arrived", -1.0)], 0.6))


@pytest.mark.parametrize("candidates", [[(" ", 0.0)], [("", 0.0), ("  ", -1.0)]])
def test_an_all_blank_k_best_is_no_candidate(candidates):
    ne = per_span(0, "source", 0, 1, "某某")
    with pytest.raises(ConfigError, match="^no translation candidates for PER span '某某'$"):
        match_span(ne, candidates, ["the", "delegation", "arrived"], CFG,
                   ne_lang="zh", other_lang="en")


@pytest.mark.parametrize("jobs", [1, 2])
def test_an_empty_candidate_list_fails_at_its_first_span(jobs):
    corpus = [pair(0, ["波林", "说"], ["bolin", "said"]),
              pair(1, ["保林", "来"], ["bolin", "arrived"]),
              pair(2, ["保林", "走"], ["baolin", "left"])]
    recognizer = AnnotationRecognizer(
        [per_span(0, "source", 0, 1, "波林"), per_span(0, "target", 0, 1, "bolin"),
         per_span(1, "source", 0, 1, "保林"), per_span(2, "source", 0, 1, "保林"),
         per_span(2, "target", 0, 1, "baolin")])
    s2t = DictTranslator({"波林": [("bolin", 0.0)], "保林": [("", 0.0)]})
    t2s = DictTranslator({"bolin": [("波林", 0.0)], "baolin": []})
    first = "no translation candidates for PER span '保林'"  # sentence 1 comes first
    with pytest.raises(ConfigError, match=f"^{re.escape(first)}$"):
        per_span_alignments(corpus, recognizer, CFG, s2t, t2s)
    with pytest.raises(ConfigError, match=f"^{re.escape(first)}$"):
        align_corpus(corpus, recognizer, CFG, s2t, t2s, jobs=jobs)


def test_beam_width_caps_the_candidates_matched():
    # the second candidate is the one that matches
    p = pair(0, ["波林", "说"], ["bolin", "said"])
    recognizer = AnnotationRecognizer([per_span(0, "source", 0, 1, "波林")])
    s2t = DictTranslator({"波林": [("qqqq", 0.0), ("bolin", -1.0)]})
    for beam_width, want in ((5, [(0, 0, "s2t")]), (2, [(0, 0, "s2t")]), (1, [])):
        cfg = AlignConfig(beam_width=beam_width)
        for alignments in (align_sentence_pair(p, recognizer.recognize(p.src, 0, "source"), [],
                                               cfg, s2t),
                           align_corpus([p], recognizer, cfg, s2t)[0]):
            assert [(a.src_start, a.tgt_start, a.direction) for a in alignments] == want


def test_the_memos_go_with_the_run():
    s2t, t2s = corpus_translators()
    align_corpus(small_corpus(), TwoSentenceRecognizer(), CFG, s2t, t2s)
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, align._Memos)]


@settings(max_examples=1000, deadline=None)
@given(m=st.integers(1, simdist.MAX_CHARS), threshold=THRESHOLDS)
def test_most_unmatched_is_the_threshold_test(m, threshold):
    want = next(u for u in range(m, -1, -1) if (m - u) / m >= threshold)
    assert align._most_unmatched(m, threshold) == want


def test_recognition_runs_in_process_and_needs_no_pickling():
    synthetic = synth.make_corpus(n_pairs=12, n_sentences=40, seed=3, noise=0.0)
    annotated = AnnotationRecognizer(synthetic.annotations)
    seen = []

    def recognize(sentence, sentence_id, side):  # a closure: cannot be pickled
        seen.append((sentence_id, side))
        return annotated.recognize(sentence, sentence_id, side)

    recognizer = SimpleNamespace(recognize=recognize)
    with pytest.raises((pickle.PicklingError, AttributeError)):
        pickle.dumps(recognizer)
    s2t = DictTranslator({p.src: [(p.tgt, 0.0)] for p in synthetic.train_pairs})
    t2s = DictTranslator({p.tgt: [(p.src, 0.0)] for p in synthetic.train_pairs})
    got = align_corpus(synthetic.corpus, recognizer, CFG, s2t, t2s, jobs=2)
    assert seen == [(p.id, side) for p in synthetic.corpus for side in ("source", "target")]
    assert got == align_corpus(synthetic.corpus, annotated, CFG, s2t, t2s, jobs=1)


def test_gazetteer_aligns_the_same_across_job_counts():
    # a gazetteer aligns alike at every job count, and a pickled copy, its
    # first-token index included, aligns as the original does
    synthetic = synth.make_corpus(n_pairs=12, n_sentences=40, seed=3, noise=0.0)
    annotated = AnnotationRecognizer(synthetic.annotations)
    entries = {}
    for p in synthetic.corpus:
        for side, sentence in (("source", p.src), ("target", p.tgt)):
            for span in annotated.recognize(sentence, p.id, side):
                if span.ne_type is not NeType.NT:
                    entries.setdefault(tuple(span.surface.split()), span.ne_type)
    gazetteer = Gazetteer(entries)
    s2t = DictTranslator({p.src: [(p.tgt, 0.0)] for p in synthetic.train_pairs})
    t2s = DictTranslator({p.tgt: [(p.src, 0.0)] for p in synthetic.train_pairs})
    sequential = align_corpus(synthetic.corpus, gazetteer, CFG, s2t, t2s, jobs=1)
    alignments, ne_pairs = sequential
    assert {a.ne_type for a in alignments} >= {NeType.PER, NeType.LOC, NeType.NT}
    assert len(ne_pairs) > 0
    assert align_corpus(synthetic.corpus, gazetteer, CFG, s2t, t2s, jobs=2) == sequential
    unpickled = pickle.loads(pickle.dumps(gazetteer))
    assert align_corpus(synthetic.corpus, unpickled, CFG, s2t, t2s, jobs=1) == sequential


def test_overlong_token_is_no_match_not_a_corpus_failure(caplog):
    corpus = [
        pair(0, ["波林", "说"], ["bolin", "x" * 2000, "said"]),
        pair(1, ["波林", "来"], ["bolin", "arrived"]),
        # alone and joined to "met" it fits (1,020 and 1,024 chars); the
        # three other ranges through it do not
        pair(2, ["波林", "到"], ["we", "met", "y" * 1020, "bolin", "today"]),
    ]
    s2t, t2s = corpus_translators()
    recognizer = TwoSentenceRecognizer()
    with caplog.at_level(logging.WARNING, logger="netrans.align"):
        alignments, ne_pairs = align_corpus(corpus, recognizer, CFG, s2t, t2s)
    assert [(a.sentence_id, a.src_start, a.tgt_start, a.direction) for a in alignments] == [
        (0, 0, 0, "both"), (1, 0, 0, "both"), (2, 0, 3, "both")]
    assert [(p.src, p.tgt, p.count) for p in ne_pairs] == [("波林", "bolin", 3)]
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 2 and "sentence 0" in warnings[0] and "sentence 2" in warnings[1]
    assert str(simdist.MAX_CHARS) in warnings[0]
    assert "4 comparison(s)" in warnings[0] and "4 comparison(s)" in warnings[1]

    expected = []
    for p in corpus:  # the same spans and candidates through the oracle
        for ne in recognizer.recognize(p.src, p.id, "source"):
            expected.append(outcome(caplog, reference_match_span, ne, s2t(ne.surface),
                                    p.tgt.tokens, CFG, ne_lang="zh", other_lang="en"))
        for ne in recognizer.recognize(p.tgt, p.id, "target"):
            expected.append(outcome(caplog, reference_match_span, ne, t2s(ne.surface),
                                    p.src.tokens, CFG, ne_lang="en", other_lang="zh"))
    assert [w for _, found in expected for w in found] == warnings


# -- file format ------------------------------------------------------------------


def test_alignment_file_round_trip(tmp_path):
    rows = [
        AlignedPair(0, 0, 1, 0, 2, NeType.LOC, 0.875, "both"),
        AlignedPair(3, 2, 3, 1, 2, NeType.NT, 1.0, "s2t"),
    ]
    path = tmp_path / "a.tsv"
    write_alignments(rows, path)
    assert read_alignments(path) == rows


def test_alignment_file_rejects_bad_rows(tmp_path):
    path = tmp_path / "a.tsv"
    path.write_text("0\t0\t1\t0\t2\tLOC\t0.9\n", encoding="utf-8")
    with pytest.raises(ParseError, match="8"):
        read_alignments(path)
    path.write_text("0\t0\t1\t0\t2\tLOC\t0.9\tsideways\n", encoding="utf-8")
    with pytest.raises(ParseError, match="direction"):
        read_alignments(path)


@pytest.mark.parametrize("row, side", [
    ("0\t2\t1\t0\t1", "source"),   # reversed
    ("0\t1\t1\t0\t1", "source"),   # empty
    ("0\t-1\t1\t0\t1", "source"),  # negative
    ("0\t0\t1\t3\t2", "target"),
    ("0\t0\t1\t-2\t1", "target"),
])
def test_alignment_file_rejects_empty_or_negative_ranges(tmp_path, row, side):
    path = tmp_path / "a.tsv"
    path.write_text(f"0\t0\t1\t0\t1\tLOC\t0.9\tboth\n{row}\tLOC\t0.9\tboth\n",
                    encoding="utf-8")
    with pytest.raises(ParseError, match=side) as exc:
        read_alignments(path)
    assert f"{path}:2" in str(exc.value)


# -- one link per token ---------------------------------------------------------

SRC_TOKENS = ["波林", "安娜", "北京", "3", "五", "十月", "的"]
TGT_TOKENS = ["bolin", "anna", "beijing", "3", "five", "october", "the", "bo", "lin"]


@st.composite
def spans_on(draw, sentence: Sentence, side: str, sentence_id: int = 0):
    """1-4 in-bounds, non-overlapping typed spans sorted by start, as a recognizer gives."""
    n = len(sentence.tokens)
    starts = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=4)))
    spans = []
    for i, start in enumerate(starts):
        limit = starts[i + 1] if i + 1 < len(starts) else n
        end = draw(st.integers(start + 1, limit))
        ne_type = draw(st.sampled_from([NeType.PER, NeType.LOC, NeType.NT]))
        spans.append(NeSpan(sentence_id, side, start, end, ne_type).with_surface(sentence))
    return spans


def table_for(draw, spans, vocab):
    """A translator table: each PER/LOC surface gets 1-3 scored candidates
    made of the other sentence's tokens, so that spans compete for them."""
    phrase = st.lists(st.sampled_from(vocab), min_size=1, max_size=2).map(" ".join)
    return DictTranslator({
        s.surface: draw(st.lists(st.tuples(phrase, st.floats(-9.0, 0.0)),
                                 min_size=1, max_size=3))
        for s in spans if s.ne_type is not NeType.NT})


@settings(max_examples=200, deadline=None)
@given(data=st.data(),
       src=st.lists(st.sampled_from(SRC_TOKENS), min_size=2, max_size=7),
       tgt=st.lists(st.sampled_from(TGT_TOKENS), min_size=2, max_size=7),
       threshold=st.sampled_from([0.3, 0.6, 1.0]),
       max_ngram=st.integers(1, 3),
       directions=st.sampled_from(["both", "s2t", "t2s"]))
def test_no_token_is_linked_twice(data, src, tgt, threshold, max_ngram, directions):
    p = pair(0, src, tgt)
    src_spans = data.draw(spans_on(p.src, "source"))
    tgt_spans = data.draw(spans_on(p.tgt, "target"))
    cfg = AlignConfig(sim_threshold=threshold, max_ngram=max_ngram, directions=directions)
    links = align_sentence_pair(p, src_spans, tgt_spans, cfg,
                                table_for(data.draw, src_spans, tgt),
                                table_for(data.draw, tgt_spans, src))
    src_used = Counter(i for a in links for i in range(a.src_start, a.src_end))
    tgt_used = Counter(i for a in links for i in range(a.tgt_start, a.tgt_end))
    assert all(count == 1 for count in src_used.values())
    assert all(count == 1 for count in tgt_used.values())
    assert all(0 <= a.src_start < a.src_end <= len(src) for a in links)
    assert all(0 <= a.tgt_start < a.tgt_end <= len(tgt) for a in links)


# -- one run's memos against fresh ones -------------------------------------------

# names and NT texts, few enough that spans match and repeat; now and then a
# token over-long alone or once joined
MEMO_SRC = ["波林", "北京", "百分之四点二", "十月"]
MEMO_TGT = ["bolin", "beijing", "4.2%", "october"]
MEMO_SRC_TOKEN = st.sampled_from(MEMO_SRC * 2 + ["7" * 1030])
MEMO_TGT_TOKEN = st.sampled_from(MEMO_TGT * 2 + ["a" * 1020, "ß" * 1025])


def ne_pairs_of(corpus, alignments):
    """The entity pairs `align_corpus` reports with `alignments`."""
    counts = Counter()
    for a in alignments:
        p = corpus[a.sentence_id]
        counts[" ".join(p.src.tokens[a.src_start:a.src_end]),
               " ".join(p.tgt.tokens[a.tgt_start:a.tgt_end]), a.ne_type] += 1
    pairs = [NePair(src, tgt, ne_type, count) for (src, tgt, ne_type), count in counts.items()]
    return sorted(pairs, key=lambda p: (-p.count, p.src, p.tgt, p.ne_type.value))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(),
       templates=st.lists(st.tuples(st.lists(MEMO_SRC_TOKEN, min_size=1, max_size=5),
                                    st.lists(MEMO_TGT_TOKEN, min_size=1, max_size=5)),
                          min_size=1, max_size=3),
       threshold=st.sampled_from([0.3, 0.6, 1.0]),
       max_ngram=st.integers(1, 3),
       beam_width=st.integers(1, 3),
       directions=st.sampled_from(["both", "s2t", "t2s"]))
def test_one_run_of_memos_aligns_as_fresh_memos_per_sentence(caplog, data, templates, threshold,
                                                             max_ngram, beam_width, directions):
    # sentences repeat a few templates, so surfaces and n-grams repeat across them
    order = data.draw(st.lists(st.integers(0, len(templates) - 1), min_size=2, max_size=6))
    corpus = [pair(i, *templates[t]) for i, t in enumerate(order)]
    spans = []
    for p in corpus:
        spans += data.draw(spans_on(p.src, "source", p.id))
        spans += data.draw(spans_on(p.tgt, "target", p.id))
    # a few k-best lists, each shared by the surfaces of both directions that
    # draw it; some are prefixes of one another, and one surface's may be empty
    word = st.sampled_from(MEMO_SRC + MEMO_TGT)
    phrase = st.one_of(st.sampled_from(MEMO_SRC + MEMO_TGT + ["", *OVERLONG_CANDIDATES]),
                       st.tuples(word, word).map(" ".join))
    k_best = st.lists(st.tuples(phrase, st.floats(-9.0, 0.0)), min_size=1, max_size=4)
    longest = data.draw(k_best)
    k_bests = [longest[:k] for k in range(1, len(longest) + 1)]
    k_bests += data.draw(st.lists(k_best, max_size=2))
    surfaces = sorted({s.surface for s in spans if s.ne_type is not NeType.NT})
    table = {s: data.draw(st.sampled_from(k_bests)) for s in surfaces}
    if surfaces and data.draw(st.integers(0, 7)) == 7:
        table[data.draw(st.sampled_from(surfaces))] = []
    translator = DictTranslator(table)
    recognizer = AnnotationRecognizer(spans)
    cfg = AlignConfig(sim_threshold=threshold, max_ngram=max_ngram, beam_width=beam_width,
                      directions=directions)

    def each_sentence():
        alignments = per_span_alignments(corpus, recognizer, cfg, translator, translator)
        return alignments, ne_pairs_of(corpus, alignments)

    got = outcome(caplog, align_corpus, corpus, recognizer, cfg, translator, translator)
    assert got == outcome(caplog, each_sentence)
