import random

import pytest

from netrans.core import NeSpan, NeType, Sentence
from netrans.errors import AnnotationError, ParseError
from netrans.ner import AnnotationRecognizer, Gazetteer


def zh(*tokens):
    return Sentence(tuple(tokens), "zh")


def en(*tokens):
    return Sentence(tuple(tokens), "en")


GAZ = Gazetteer({
    ("纽约",): NeType.LOC,
    ("纽约", "时报"): NeType.PER,  # deliberately longer entry sharing a prefix
    ("安娜",): NeType.PER,
})


def test_longest_entry_wins():
    spans = GAZ.recognize(zh("纽约", "时报", "报道"), 0, "source")
    assert [(s.start, s.end, s.ne_type) for s in spans] == [(0, 2, NeType.PER)]


def test_shorter_entry_still_fires_alone():
    spans = GAZ.recognize(zh("安娜", "去", "纽约"), 0, "source")
    assert [(s.start, s.end, s.ne_type) for s in spans] == [
        (0, 1, NeType.PER),
        (2, 3, NeType.LOC),
    ]
    assert spans[0].surface == "安娜"
    assert spans[1].surface == "纽约"


def test_repeated_entries_match_every_occurrence():
    spans = GAZ.recognize(zh("纽约", "和", "纽约"), 3, "target")
    assert [(s.start, s.end) for s in spans] == [(0, 1), (2, 3)]
    assert all(s.sentence_id == 3 and s.side == "target" for s in spans)


def test_overlapping_candidates_resolve_left_first():
    g = Gazetteer({("a", "b"): NeType.LOC, ("b", "c"): NeType.LOC})
    spans = g.recognize(en("a", "b", "c"), 0, "source")
    assert [(s.start, s.end) for s in spans] == [(0, 2)]


def test_numeric_runs_become_nt_spans():
    spans = GAZ.recognize(zh("增长", "百分之四点二"), 0, "source")
    assert [(s.start, s.end, s.ne_type) for s in spans] == [(1, 2, NeType.NT)]

    spans = GAZ.recognize(zh("会议", "定于", "十月", "五", "日"), 0, "source")
    # 十月 and 五 are numeric, 日 is not, so the maximal run stops there
    assert [(s.start, s.end, s.ne_type) for s in spans] == [(2, 4, NeType.NT)]


def test_month_tokens_count_as_numeric():
    spans = GAZ.recognize(en("seen", "on", "october", "5"), 0, "target")
    assert [(s.start, s.end, s.ne_type) for s in spans] == [(2, 4, NeType.NT)]


def test_words_that_start_like_a_month_are_not_nt():
    spans = Gazetteer({}).recognize(
        en(*"maybe the market will decide on a novel plan".split()), 0, "source")
    assert spans == []


def test_gazetteer_entries_do_not_become_nt():
    g = Gazetteer({("五",): NeType.PER})  # pathological but legal
    spans = g.recognize(zh("五", "六"), 0, "source")
    assert [(s.ne_type, s.start, s.end) for s in spans] == [
        (NeType.PER, 0, 1),
        (NeType.NT, 1, 2),
    ]


def test_gazetteer_rejects_empty_surfaces():
    with pytest.raises(ValueError):
        Gazetteer({(): NeType.LOC})
    with pytest.raises(ValueError):
        Gazetteer({("a", ""): NeType.LOC})


def test_from_path_reads_drops_org_and_rejects_conflicts(tmp_path, caplog):
    path = tmp_path / "gaz.tsv"
    path.write_text("纽约\tLOC\n联合国\tORG\n安娜\tPER\n", encoding="utf-8")
    with caplog.at_level("WARNING"):
        g = Gazetteer.from_path(path)
    assert ("纽约",) in g.entries and ("安娜",) in g.entries
    assert ("联合国",) not in g.entries
    assert "ORG" in caplog.text

    path.write_text("纽约\tLOC\n纽约\tPER\n", encoding="utf-8")
    with pytest.raises(ParseError, match="conflicting"):
        Gazetteer.from_path(path)

    path.write_text("just-one-column\n", encoding="utf-8")
    with pytest.raises(ParseError):
        Gazetteer.from_path(path)


def test_gazetteer_spans_are_sorted_and_disjoint_by_construction():
    vocab = ["纽约", "时报", "安娜", "去", "和", "百分之四点二", "五", "大使馆"]
    rng = random.Random(17)
    for _ in range(200):
        tokens = [rng.choice(vocab) for _ in range(rng.randint(1, 10))]
        spans = GAZ.recognize(zh(*tokens), 0, "source")
        for a, b in zip(spans, spans[1:]):
            assert a.start < a.end <= b.start < b.end


def test_annotation_recognizer_replays_by_sentence_and_side():
    spans = [
        NeSpan(0, "source", 0, 1, NeType.PER),
        NeSpan(0, "target", 1, 2, NeType.PER),
        NeSpan(1, "source", 0, 2, NeType.LOC),
    ]
    rec = AnnotationRecognizer(spans)
    out = rec.recognize(zh("安娜", "说"), 0, "source")
    assert [(s.start, s.end, s.surface) for s in out] == [(0, 1, "安娜")]
    assert rec.recognize(en("anna", "said"), 0, "target")[0].surface == "said"
    assert rec.recognize(zh("别处",), 7, "source") == []


def test_annotation_recognizer_rejects_overlaps_up_front():
    spans = [NeSpan(0, "source", 0, 2, NeType.PER), NeSpan(0, "source", 1, 3, NeType.LOC)]
    with pytest.raises(AnnotationError, match="overlapping"):
        AnnotationRecognizer(spans)


def test_annotation_recognizer_checks_bounds_at_replay():
    rec = AnnotationRecognizer([NeSpan(0, "source", 0, 5, NeType.PER)])
    with pytest.raises(AnnotationError, match="sentence 0"):
        rec.recognize(zh("短", "句"), 0, "source")
