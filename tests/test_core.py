import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netrans.core import (
    NePair,
    NeSpan,
    NeType,
    Sentence,
    SentencePair,
    read_annotations,
    read_ne_pairs,
    read_parallel_corpus,
    write_annotations,
    write_ne_pairs,
    write_parallel_corpus,
)
from netrans.errors import AnnotationError, CorpusError, ParseError


def test_ne_type_parse_is_case_insensitive():
    assert NeType.parse("per") is NeType.PER
    assert NeType.parse(" LOC ") is NeType.LOC
    assert NeType.parse("N/T") is NeType.NT


def test_ne_type_rejects_org_and_unknown():
    with pytest.raises(ValueError, match="ORG"):
        NeType.parse("ORG")
    with pytest.raises(ValueError, match="unknown"):
        NeType.parse("GPE")


def test_sentence_rejects_whitespace_tokens():
    with pytest.raises(ValueError):
        Sentence(("a b",), "en")
    with pytest.raises(ValueError):
        Sentence(("",), "en")


# letters and a sample of what `str.split` takes for whitespace
TOKEN_CHARS = "ab北" + " \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u3000"


@settings(max_examples=1000)
@given(tokens=st.lists(st.one_of(st.text(TOKEN_CHARS, max_size=3), st.none()), max_size=5))
def test_sentence_accepts_exactly_nonempty_tokens_without_whitespace(tokens):
    bad = [tok for tok in tokens if not tok or tok.split() != [tok]]
    if not bad:
        assert Sentence(tokens, "en").tokens == tuple(tokens)
        return
    with pytest.raises(ValueError) as exc:
        Sentence(tokens, "en")
    assert str(exc.value) == f"token {bad[0]!r} is empty or contains whitespace"


def test_sentence_text_joins_tokens():
    s = Sentence(("reopens", "embassy"), "en")
    assert s.text() == "reopens embassy"
    assert len(s) == 2


def test_sentence_pair_needs_distinct_languages():
    zh = Sentence(("大使馆",), "zh")
    en = Sentence(("embassy",), "en")
    assert SentencePair(zh, en, 0).id == 0
    with pytest.raises(ValueError):
        SentencePair(zh, zh, 0)
    with pytest.raises(ValueError):
        SentencePair(zh, en, -1)


def test_ne_span_validation():
    span = NeSpan(0, "source", 1, 3, NeType.LOC)
    assert len(span) == 2
    with pytest.raises(ValueError):
        NeSpan(0, "left", 0, 1, NeType.LOC)
    with pytest.raises(ValueError):
        NeSpan(0, "source", 2, 2, NeType.LOC)
    with pytest.raises(ValueError):
        NeSpan(0, "source", -1, 1, NeType.LOC)


def test_with_surface_fills_tokens_and_checks_bounds():
    sentence = Sentence(("驻", "北京", "大使馆"), "zh")
    span = NeSpan(0, "source", 1, 3, NeType.LOC)
    assert span.with_surface(sentence).surface == "北京 大使馆"
    bad = NeSpan(0, "source", 1, 4, NeType.LOC)
    with pytest.raises(AnnotationError):
        bad.with_surface(sentence)


def test_ne_pair_rejects_empty_and_zero_count():
    with pytest.raises(ValueError):
        NePair("", "x", NeType.PER)
    with pytest.raises(ValueError):
        NePair("a", "", NeType.PER)
    with pytest.raises(ValueError):
        NePair("a", "x", NeType.PER, 0)


def test_parallel_corpus_round_trip(tmp_path):
    pairs = [
        SentencePair(Sentence(("冰岛", "大使馆"), "zh"), Sentence(("iceland", "embassy"), "en"), 0),
        SentencePair(Sentence(("你好",), "zh"), Sentence(("hello", "there"), "en"), 1),
    ]
    src, tgt = tmp_path / "c.zh", tmp_path / "c.en"
    write_parallel_corpus(pairs, src, tgt)
    back = read_parallel_corpus(src, tgt, "zh", "en")
    assert back == pairs


def test_parallel_corpus_length_mismatch(tmp_path):
    (tmp_path / "a").write_text("x\ny\n", encoding="utf-8")
    (tmp_path / "b").write_text("x\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="mismatch"):
        read_parallel_corpus(tmp_path / "a", tmp_path / "b", "zh", "en")


def test_parallel_corpus_rejects_empty_line(tmp_path):
    (tmp_path / "a").write_text("x\n\n", encoding="utf-8")
    (tmp_path / "b").write_text("x\ny\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="empty line 2"):
        read_parallel_corpus(tmp_path / "a", tmp_path / "b", "zh", "en")


def test_ne_pairs_round_trip_and_default_count(tmp_path):
    path = tmp_path / "pairs.tsv"
    write_ne_pairs([NePair("北京", "beijing", NeType.LOC, 3)], path)
    assert read_ne_pairs(path) == [NePair("北京", "beijing", NeType.LOC, 3)]
    path.write_text("北京\tbeijing\tLOC\n", encoding="utf-8")
    assert read_ne_pairs(path)[0].count == 1


def test_ne_pairs_parse_errors_name_path_and_line(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("ok\tfine\tPER\nbroken line\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_ne_pairs(path)
    assert err.value.line == 2
    path.write_text("a\tb\tORG\n", encoding="utf-8")
    with pytest.raises(ParseError, match="ORG"):
        read_ne_pairs(path)


def test_annotations_round_trip(tmp_path):
    spans = [NeSpan(0, "source", 0, 1, NeType.PER), NeSpan(3, "target", 2, 4, NeType.NT)]
    path = tmp_path / "ann.tsv"
    write_annotations(spans, path)
    assert read_annotations(path) == spans


def test_annotations_drop_org_rows_quietly(tmp_path, caplog):
    path = tmp_path / "ann.tsv"
    path.write_text("0\tsource\t0\t1\tORG\n0\tsource\t1\t2\tPER\n", encoding="utf-8")
    with caplog.at_level("WARNING"):
        spans = read_annotations(path)
    assert [s.ne_type for s in spans] == [NeType.PER]
    assert "ORG" in caplog.text


def test_annotations_reject_malformed_rows(tmp_path):
    path = tmp_path / "ann.tsv"
    path.write_text("0\tsource\t0\tone\tPER\n", encoding="utf-8")
    with pytest.raises(ParseError, match="malformed integer"):
        read_annotations(path)
    path.write_text("0\tsource\t0\t1\n", encoding="utf-8")
    with pytest.raises(ParseError, match="5 tab-separated"):
        read_annotations(path)
