"""The first-token index of Gazetteer.recognize against the entry-by-entry scan."""

from hypothesis import given, settings
from hypothesis import strategies as st

import netrans.ner
from netrans.core import NeSpan, NeType, Sentence
from netrans.ner import Gazetteer


def scan_recognize(gaz: Gazetteer, sentence: Sentence, sentence_id: int, side: str):
    """Reference: every entry tried at every position, as before the index."""
    tokens = sentence.tokens
    n = len(tokens)
    matches = []
    for (key, ne_type) in gaz.entries.items():
        width = len(key)
        for start in range(0, n - width + 1):
            if tuple(tokens[start:start + width]) == key:
                matches.append((start, width, ne_type))
    matches.sort(key=lambda m: (-m[1], m[0]))

    covered = [False] * n
    spans = []
    for start, width, ne_type in matches:
        if any(covered[start:start + width]):
            continue
        for j in range(start, start + width):
            covered[j] = True
        spans.append(NeSpan(sentence_id, side, start, start + width, ne_type))

    i = 0
    while i < n:
        if covered[i] or not gaz._is_nt_token(tokens[i], sentence.lang):
            i += 1
            continue
        j = i
        while j < n and not covered[j] and gaz._is_nt_token(tokens[j], sentence.lang):
            j += 1
        spans.append(NeSpan(sentence_id, side, i, j, NeType.NT))
        i = j

    spans.sort(key=lambda s: s.start)
    return [s.with_surface(sentence) for s in spans]


# few distinct tokens, so entries share first tokens and sentences repeat
# them; numerals, number words and months make N/T runs (and entries that
# shadow them)
WORDS = ["a", "b", "c", "纽约", "时报"]
NT_TOKENS = ["3", "五", "2024", "十月", "October", "oct", "百分之四点二"]
TOKEN = st.sampled_from(WORDS + NT_TOKENS)
KEY = st.lists(TOKEN, min_size=1, max_size=4).map(tuple)
GAZETTEER = st.dictionaries(KEY, st.sampled_from([NeType.PER, NeType.LOC]), max_size=12)


@st.composite
def sentences_over(draw, entries):
    """Sentences built from whole keys, key suffixes and single tokens, so
    that entries match, repeat and overlap one another."""
    pieces = [k for key in entries for k in (key, key[1:]) if k]
    single = TOKEN.map(lambda t: (t,))
    piece = (st.sampled_from(pieces) | single) if pieces else single
    tokens = sum(draw(st.lists(piece, max_size=6)), ())[:14]
    return Sentence(tokens, draw(st.sampled_from(["zh", "en"])))


@settings(max_examples=400, deadline=None)
@given(data=st.data(), entries=GAZETTEER, side=st.sampled_from(["source", "target"]))
def test_index_matches_the_entry_scan(data, entries, side):
    gaz = Gazetteer(entries)
    for sid in range(3):
        sentence = data.draw(sentences_over(entries))
        assert gaz.recognize(sentence, sid, side) == scan_recognize(gaz, sentence, sid, side)


def test_entries_share_first_tokens_and_outgrow_the_sentence():
    gaz = Gazetteer({
        ("a",): NeType.LOC,
        ("a", "b"): NeType.PER,
        ("a", "b", "c", "a"): NeType.LOC,  # longer than the sentence below
        ("b", "a"): NeType.LOC,
    })
    sentence = Sentence(("a", "b", "a", "a", "b"), "en")
    spans = gaz.recognize(sentence, 0, "source")
    assert [(s.start, s.end, s.ne_type) for s in spans] == [
        (0, 2, NeType.PER), (2, 3, NeType.LOC), (3, 5, NeType.PER)]
    assert spans == scan_recognize(gaz, sentence, 0, "source")


def test_each_uncovered_token_is_tested_for_nt_once(monkeypatch):
    seen = []
    real = netrans.ner.normalize_numeric

    def counting(token, lang):
        seen.append(token)
        return real(token, lang)

    monkeypatch.setattr(netrans.ner, "normalize_numeric", counting)
    gaz = Gazetteer({("纽约",): NeType.LOC})
    sentence = Sentence(("纽约", "十月", "五", "日", "3", "会议"), "zh")
    spans = gaz.recognize(sentence, 0, "source")
    assert [(s.start, s.end, s.ne_type) for s in spans] == [
        (0, 1, NeType.LOC), (1, 3, NeType.NT), (4, 5, NeType.NT)]
    assert seen == ["十月", "五", "日", "3", "会议"]


def test_nt_test_is_memoized_per_token_and_language(monkeypatch):
    seen = []
    real = netrans.ner.normalize_numeric

    def counting(token, lang):
        seen.append((token, lang))
        return real(token, lang)

    monkeypatch.setattr(netrans.ner, "normalize_numeric", counting)
    gaz = Gazetteer({("纽约",): NeType.LOC})
    zh = Sentence(("纽约", "十月", "五", "日", "3", "会议"), "zh")
    en = Sentence(("3", "October", "3"), "en")
    first = [gaz.recognize(s, i, "source") for i, s in enumerate([zh, en])]
    for _ in range(3):
        again = [gaz.recognize(s, i, "source") for i, s in enumerate([zh, en])]
        assert again == first
    assert seen == [("十月", "zh"), ("五", "zh"), ("日", "zh"), ("3", "zh"), ("会议", "zh"),
                    ("3", "en"), ("October", "en")]
    # the memo is per gazetteer and takes no part in equality
    fresh = Gazetteer({("纽约",): NeType.LOC})
    assert fresh == gaz
    fresh.recognize(en, 1, "source")
    assert seen[-2:] == [("3", "en"), ("October", "en")] and len(seen) == 9
