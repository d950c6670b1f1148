import concurrent.futures
import copy
import multiprocessing
import pickle
import tempfile
from dataclasses import MISSING, FrozenInstanceError, fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netrans.align import DIRECTIONS, AlignedPair, read_alignments, write_alignments
from netrans.core import (
    SIDES,
    NePair,
    NeSpan,
    NeType,
    Sentence,
    SentencePair,
    read_annotations,
    read_lines,
    read_ne_pairs,
    read_parallel_corpus,
    read_rows,
    write_annotations,
    write_ne_pairs,
    write_parallel_corpus,
)
from netrans.errors import AnnotationError, CorpusError, ParseError
from netrans.pipeline import LexicalTable, SymbolEntry, read_symbol_map, write_symbol_map


def test_ne_type_parse_is_case_insensitive():
    assert NeType.parse("per") is NeType.PER
    assert NeType.parse(" LOC ") is NeType.LOC
    assert NeType.parse("N/T") is NeType.NT


def test_ne_type_rejects_org_and_unknown():
    with pytest.raises(ValueError, match="ORG"):
        NeType.parse("ORG")
    with pytest.raises(ValueError, match="unknown"):
        NeType.parse("GPE")


def test_ne_type_members_work_as_dict_and_set_keys_however_obtained():
    parsed = [NeType.parse(text) for text in ("per", " LOC ", "N/T")]
    round_tripped = [pickle.loads(pickle.dumps(t)) for t in NeType]
    copied = [copy.deepcopy(t) for t in NeType]
    by_type = {t: t.value for t in NeType}
    for members in (parsed, round_tripped, copied):
        assert members == list(NeType)
        assert [by_type[t] for t in members] == ["PER", "LOC", "NT"]
        assert set(members) == set(NeType) and len(set(members + list(NeType))) == 3
    span = NeSpan(0, "source", 0, 1, NeType.PER, "安娜")
    assert {span: 1}[pickle.loads(pickle.dumps(span))] == 1
    assert {span: 1}[replace(span, ne_type=NeType.parse("per"))] == 1


def _parse_types(texts):
    return {NeType.parse(text): text for text in texts}


_ZH = Sentence(("安娜", "到", "巴林"), "zh")

# name -> (a record, its fields in order with their defaults); a run holds
# every record of a corpus at once, so each is a slotted frozen dataclass
RECORDS = {
    "Sentence": (_ZH, {"tokens": MISSING, "lang": MISSING}),
    "SentencePair": (SentencePair(_ZH, Sentence(("anna", "reached", "bahrain"), "en"), 7),
                     {"src": MISSING, "tgt": MISSING, "id": MISSING}),
    "NeSpan": (NeSpan(7, "source", 2, 3, NeType.LOC, "巴林"),
               {"sentence_id": MISSING, "side": MISSING, "start": MISSING, "end": MISSING,
                "ne_type": MISSING, "surface": ""}),
    "NePair": (NePair("安娜", "anna", NeType.PER, 3),
               {"src": MISSING, "tgt": MISSING, "ne_type": MISSING, "count": 1}),
    "AlignedPair": (AlignedPair(7, 0, 1, 0, 1, NeType.PER, 0.875, "both"),
                    {"sentence_id": MISSING, "src_start": MISSING, "src_end": MISSING,
                     "tgt_start": MISSING, "tgt_end": MISSING, "ne_type": MISSING,
                     "score": MISSING, "direction": MISSING}),
    "SymbolEntry": (SymbolEntry(7, "LOC1", "巴林", NeType.LOC, "bahrain"),
                    {"sentence_id": MISSING, "symbol": MISSING, "surface": MISSING,
                     "ne_type": MISSING, "translation": ""}),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_holds_its_fields_only(name):
    record, expected = RECORDS[name]
    assert type(record).__name__ == name
    assert {f.name: f.default for f in fields(record)} == expected
    assert list(expected) == [f.name for f in fields(record)]  # in order
    assert type(record).__slots__ == tuple(expected)
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", RECORDS)
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_record_pickles_at_every_protocol(name, protocol):
    record, _ = RECORDS[name]
    back = pickle.loads(pickle.dumps(record, protocol))
    assert type(back) is type(record) and not hasattr(back, "__dict__")
    assert back == record and repr(back) == repr(record)
    assert hash(back) == hash(record)
    assert {record: name}[back] == name and {back: name}[record] == name
    assert len({record, back}) == 1


@pytest.mark.parametrize("name", RECORDS)
def test_record_copies_are_equal(name):
    record, _ = RECORDS[name]
    for other in (copy.copy(record), copy.deepcopy(record), replace(record)):
        assert type(other) is type(record) and not hasattr(other, "__dict__")
        assert other == record and hash(other) == hash(record)
    first = fields(record)[0].name
    assert replace(record, **{first: getattr(record, first)}) == record


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_cannot_be_assigned(name):
    record, _ = RECORDS[name]
    before = repr(record)
    for f in fields(record):
        with pytest.raises(FrozenInstanceError):
            setattr(record, f.name, getattr(record, f.name))
        with pytest.raises(FrozenInstanceError):
            delattr(record, f.name)
    # a name that is no field has no slot; the frozen `__setattr__` of a
    # slotted class raises TypeError for it (CPython 3.10-3.13)
    with pytest.raises((AttributeError, TypeError)):
        record.extra = 1
    assert repr(record) == before


def test_ne_type_keys_come_back_from_a_fresh_worker_process():
    # a spawned worker has its own members, at other addresses; the keys it
    # sends back are unpickled as this process's members
    spawn = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        got = pool.submit(_parse_types, ["per", "LOC", "n/t"]).result(timeout=120)
    assert got == {NeType.PER: "per", NeType.LOC: "LOC", NeType.NT: "n/t"}
    assert [got[t] for t in NeType] == ["per", "LOC", "n/t"]


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


# what `str.splitlines` ends a line at besides "\n" and "\r"
LINE_SEPARATORS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def test_a_line_separator_inside_a_sentence_shifts_no_line(tmp_path):
    src, tgt = tmp_path / "c.zh", tmp_path / "c.en"
    src.write_text("冰岛\u2028大使馆\n你好\n", encoding="utf-8")
    tgt.write_text("iceland embassy\nhello\n", encoding="utf-8")
    pairs = read_parallel_corpus(src, tgt, "zh", "en")
    # the separator still separates tokens, as whitespace
    assert [(p.src.tokens, p.tgt.tokens) for p in pairs] == [
        (("冰岛", "大使馆"), ("iceland", "embassy")), (("你好",), ("hello",))]


@pytest.mark.parametrize("separator", LINE_SEPARATORS)
def test_only_a_newline_ends_a_line(tmp_path, separator):
    path = tmp_path / "lines.txt"
    path.write_bytes(f"a{separator}b\r\nc\rd\n\ne".encode())
    assert read_lines(path) == [f"a{separator}b", "c", "d", "", "e"]
    for text, lines in [("", []), ("\n", [""]), ("x", ["x"]), ("x\n", ["x"]),
                        ("\ufeffx\n\n", ["x", ""])]:
        path.write_bytes(text.encode())
        assert read_lines(path) == lines


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
    path.write_text("安娜\tanna\tPER\t2\tjunk\textra\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_ne_pairs(path)
    assert str(err.value) == f"{path}:1: expected 3 or 4 tab-separated columns, got 6"


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



def test_read_rows_strips_a_bom_and_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_text("\ufeffa\tb\n \n#c\td\ne\tf\n", encoding="utf-8")
    assert read_rows(path, (2,), tuple) == [("a", "b"), ("#c", "d"), ("e", "f")]
    assert read_rows(path, (2,), tuple, comments=True) == [("a", "b"), ("e", "f")]
    assert read_rows(path, (2,), lambda cols: None if cols[0] == "a" else cols[1]) == ["d", "f"]

    def no_e(cols):
        if cols[0] == "e":
            raise ValueError("no e")
        return cols

    with pytest.raises(ParseError) as err:
        read_rows(path, (2,), no_e)
    assert str(err.value) == f"{path}:4: no e"


# -- every tab-separated format: write -> read -> write -----------------------

# A field holds no tab, no newline or carriage return (which end a line), no
# BOM (stripped at the start of a file) and no surrogate (not UTF-8): no stage
# writes them. The other characters `str.splitlines` ends a line at may appear.
FIELD = st.text(st.characters(blacklist_categories=("Cs",),
                              blacklist_characters="\t\n\r\ufeff"),
                min_size=1, max_size=8)
NE_TYPES = st.sampled_from(list(NeType))
COUNTS = st.integers(1, 10**6)
IDS = st.integers(0, 10**6)
RANGES = st.tuples(st.integers(0, 200), st.integers(1, 20)).map(lambda sw: (sw[0], sw[0] + sw[1]))


@st.composite
def symbol_entries(draw):
    ne_type = draw(NE_TYPES)
    return SymbolEntry(draw(st.integers(0, 5)), f"{ne_type.value}{draw(st.integers(1, 99))}",
                       draw(FIELD), ne_type, draw(st.just("") | FIELD))


# name -> (records, write(records, path), read(path), the records a read returns)
FORMATS = {
    "ne_pairs": (st.lists(st.builds(NePair, FIELD, FIELD, NE_TYPES, COUNTS)),
                 write_ne_pairs, read_ne_pairs, lambda rows: rows),
    "annotations": (st.lists(st.builds(lambda sid, side, r, t: NeSpan(sid, side, *r, t),
                                       IDS, st.sampled_from(SIDES), RANGES, NE_TYPES)),
                    write_annotations, read_annotations, lambda rows: rows),
    "alignments": (st.lists(st.builds(lambda sid, s, t, ty, score, d: AlignedPair(sid, *s, *t, ty,
                                                                                 score, d),
                                      IDS, RANGES, RANGES, NE_TYPES, st.floats(0, 1),
                                      st.sampled_from(DIRECTIONS))),
                   write_alignments, read_alignments,
                   lambda rows: [replace(a, score=round(a.score, 6)) for a in rows]),
    "lexical_table": (st.lists(st.builds(NePair, FIELD, FIELD, st.just(NeType.PER), COUNTS))
                      .map(LexicalTable.from_pairs),
                      LexicalTable.write, LexicalTable.read, lambda table: table),
    # written grouped by sentence, as `replace` writes it
    "symbol_map": (st.lists(symbol_entries(), unique_by=lambda e: (e.sentence_id, e.symbol))
                   .map(lambda rows: sorted(rows, key=lambda e: e.sentence_id)),
                   write_symbol_map,
                   lambda path: [e for group in read_symbol_map(path).values() for e in group],
                   lambda rows: rows),
}


@pytest.mark.parametrize("name", FORMATS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_file_format_round_trips_byte_for_byte(name, data):
    records, write, read, expected = FORMATS[name]
    records = data.draw(records)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.tsv"), Path(tmp, "second.tsv")
        write(records, first)
        got = read(first)
        assert got == expected(records)
        write(got, second)
        assert second.read_bytes() == first.read_bytes()
