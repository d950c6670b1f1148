"""Placeholder rewriting, lexical tables, and restoration."""

import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netrans import pipeline
from netrans.align import AlignedPair
from netrans.core import NePair, NeSpan, NeType, Sentence, SentencePair
from netrans.errors import ConfigError, ContractError, ParseError
from netrans.pipeline import (
    ESC,
    LexicalTable,
    RestoreReport,
    SymbolEntry,
    escape_token,
    extract_lexical_table,
    read_symbol_map,
    render_nt,
    replace_test_sentence,
    replace_training_pair,
    restore,
    restore_corpus,
    unescape_token,
    write_symbol_map,
)


def loc(sid, ss, se, ts, te, score=1.0):
    return AlignedPair(sid, ss, se, ts, te, NeType.LOC, score, "both")


@pytest.fixture
def embassy_pair():
    src = Sentence(("冰岛", "重新", "开放", "驻", "北京", "大使馆"), "zh")
    tgt = Sentence(("iceland", "reopens", "embassy", "in", "beijing"), "en")
    return SentencePair(src, tgt, 7)


def test_replace_training_pair_rewrites_both_sides(embassy_pair):
    aligned = [loc(7, 0, 1, 0, 1), loc(7, 4, 5, 4, 5)]
    rewritten, entries = replace_training_pair(embassy_pair, aligned)
    assert rewritten.src.text() == "LOC1 重新 开放 驻 LOC2 大使馆"
    assert rewritten.tgt.text() == "LOC1 reopens embassy in LOC2"
    assert rewritten.id == 7
    assert [(e.symbol, e.surface, e.translation) for e in entries] == [
        ("LOC1", "冰岛", "iceland"),
        ("LOC2", "北京", "beijing"),
    ]
    assert all(e.sentence_id == 7 and e.ne_type is NeType.LOC for e in entries)


def test_replace_then_restore_reproduces_the_target(embassy_pair):
    aligned = [loc(7, 0, 1, 0, 1), loc(7, 4, 5, 4, 5)]
    rewritten, entries = replace_training_pair(embassy_pair, aligned)
    table = extract_lexical_table(
        NePair(e.surface, e.translation, e.ne_type) for e in entries)
    restored, report = restore(rewritten.tgt, entries, table,
                               src_lang="zh", tgt_lang="en")
    assert restored.text() == "iceland reopens embassy in beijing"
    assert report.from_table == 2
    assert report.warnings == 0


def test_symbol_indices_run_per_type_in_source_order():
    src = Sentence(("安娜", "十月", "去", "巴林", "见", "马克"), "zh")
    tgt = Sentence(("anna", "visits", "balin", "in", "october", "with", "make"), "en")
    pair = SentencePair(src, tgt, 0)
    aligned = [
        AlignedPair(0, 5, 6, 6, 7, NeType.PER, 1.0, "both"),   # 马克 last in src
        AlignedPair(0, 0, 1, 0, 1, NeType.PER, 1.0, "both"),
        AlignedPair(0, 3, 4, 2, 3, NeType.LOC, 1.0, "both"),
        AlignedPair(0, 1, 2, 4, 5, NeType.NT, 1.0, "both"),
    ]
    rewritten, entries = replace_training_pair(pair, aligned)
    assert rewritten.src.text() == "PER1 NT1 去 LOC1 见 PER2"
    assert rewritten.tgt.text() == "PER1 visits LOC1 in NT1 with PER2"
    assert [e.symbol for e in entries] == ["PER1", "NT1", "LOC1", "PER2"]


def test_multi_token_ranges_collapse_to_one_symbol():
    src = Sentence(("他", "去", "塔南", "州"), "zh")
    tgt = Sentence(("he", "visits", "tanan", "zhou"), "en")
    pair = SentencePair(src, tgt, 3)
    rewritten, entries = replace_training_pair(pair, [loc(3, 2, 4, 2, 4)])
    assert rewritten.src.tokens == ("他", "去", "LOC1")
    assert rewritten.tgt.tokens == ("he", "visits", "LOC1")
    assert entries[0].surface == "塔南 州"
    assert entries[0].translation == "tanan zhou"


def test_replace_training_pair_contract_errors(embassy_pair):
    with pytest.raises(ContractError, match="sentence 9"):
        replace_training_pair(embassy_pair, [loc(9, 0, 1, 0, 1)])
    with pytest.raises(ContractError, match="source"):
        replace_training_pair(embassy_pair, [loc(7, 0, 2, 0, 1), loc(7, 1, 3, 2, 3)])
    with pytest.raises(ContractError, match="target"):
        replace_training_pair(embassy_pair, [loc(7, 0, 1, 0, 2), loc(7, 2, 3, 1, 3)])


@pytest.mark.parametrize("row, side", [
    (loc(7, 2, 1, 0, 1), "source"),  # reversed: rewriting it would never end
    (loc(7, 1, 1, 0, 1), "source"),
    (loc(7, -1, 1, 0, 1), "source"),
    (loc(7, 5, 7, 0, 1), "source"),  # the source has 6 tokens
    (loc(7, 0, 1, 2, 1), "target"),
    (loc(7, 0, 1, 5, 6), "target"),  # the target has 5
])
def test_replace_training_pair_rejects_ranges_outside_the_sentence(embassy_pair, monkeypatch,
                                                                   row, side):
    def unreachable(*_):
        raise AssertionError("a malformed range reached the rewrite")

    monkeypatch.setattr(pipeline, "_rewrite", unreachable)
    with pytest.raises(ContractError, match=f"sentence 7: {side} range"):
        replace_training_pair(embassy_pair, [loc(7, 3, 4, 3, 4), row])


# -- escaping -----------------------------------------------------------------


@pytest.mark.parametrize("token", ["PER1", "LOC2", "NT1", "PER0", "NT007", "LOC10"])
def test_colliding_natural_tokens_are_escaped(token):
    assert escape_token(token) == ESC + token
    assert unescape_token(escape_token(token)) == token


@pytest.mark.parametrize("token", ["LOC", "per1", "PERSON1", "1PER", "巴林", "X"])
def test_ordinary_tokens_pass_through(token):
    assert escape_token(token) == token


def test_escape_is_reversible_even_for_escaped_input():
    # a natural token that already starts with the sentinel gains one more
    assert escape_token(ESC + "LOC1") == ESC + ESC + "LOC1"
    assert unescape_token(ESC + ESC + "LOC1") == ESC + "LOC1"


def test_natural_placeholder_lookalikes_survive_the_round_trip():
    src = Sentence(("LOC1", "在", "巴林"), "zh")
    tgt = Sentence(("LOC1", "is", "in", "balin"), "en")
    pair = SentencePair(src, tgt, 0)
    rewritten, entries = replace_training_pair(
        pair, [loc(0, 2, 3, 3, 4)])
    # the natural LOC1 is escaped, so the only bare symbol is ours
    assert rewritten.src.tokens == (ESC + "LOC1", "在", "LOC1")
    assert rewritten.tgt.tokens == (ESC + "LOC1", "is", "in", "LOC1")
    table = extract_lexical_table([NePair("巴林", "balin", NeType.LOC)])
    restored, report = restore(rewritten.tgt, entries, table,
                               src_lang="zh", tgt_lang="en")
    assert restored.tokens == ("LOC1", "is", "in", "balin")
    assert report.warnings == 0


# tokens a corpus may hold: placeholder lookalikes (PER0 and NT007 are not
# symbols the rewriter emits, PER1 is), tokens that already start with the
# escape sentinel, and plain words
STREAM_TOKENS = st.one_of(
    st.sampled_from(["PER0", "NT007", "PER1", "LOC2", ESC, ESC + "PER1",
                     ESC + ESC + "NT3", ESC + "巴林"]),
    st.text("abz巴林", min_size=1, max_size=3),
)


def disjoint_ranges(draw, n: int) -> list[tuple[int, int]]:
    """Non-empty, disjoint (possibly adjacent) token ranges, in random order."""
    cuts = sorted(draw(st.sets(st.integers(0, n), max_size=n)) | {0, n})
    segments = draw(st.permutations(list(zip(cuts, cuts[1:]))))
    return segments[:draw(st.integers(0, len(segments)))]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_replace_then_restore_round_trips_random_streams(data):
    # unique source tokens make the aligned source surfaces distinct, so the
    # lexical table maps each one back to its own translation
    src = data.draw(st.lists(STREAM_TOKENS, min_size=1, max_size=8, unique=True))
    tgt = data.draw(st.lists(STREAM_TOKENS, min_size=1, max_size=10))
    links = list(zip(disjoint_ranges(data.draw, len(src)), disjoint_ranges(data.draw, len(tgt))))
    types = data.draw(st.lists(st.sampled_from(list(NeType)),
                               min_size=len(links), max_size=len(links)))
    aligned = [AlignedPair(5, ss, se, ts, te, ne_type, 1.0, "both")
               for ((ss, se), (ts, te)), ne_type in zip(links, types)]
    pair = SentencePair(Sentence(src, "zh"), Sentence(tgt, "en"), 5)
    rewritten, entries = replace_training_pair(pair, aligned)
    table = extract_lexical_table(
        NePair(e.surface, e.translation, e.ne_type) for e in entries)
    restored, report = restore(rewritten.tgt, entries, table,
                               src_lang="zh", tgt_lang="en")
    assert restored == pair.tgt
    assert report.from_table == len(links)
    assert report.warnings == 0


# -- test-time replacement ----------------------------------------------------


def test_replace_test_sentence_basic():
    sent = Sentence(("安娜", "爱", "巴林"), "zh")
    spans = [NeSpan(0, "source", 0, 1, NeType.PER), NeSpan(0, "source", 2, 3, NeType.LOC)]
    rewritten, entries = replace_test_sentence(sent, spans, sentence_id=4)
    assert rewritten.tokens == ("PER1", "爱", "LOC1")
    assert [(e.sentence_id, e.symbol, e.surface, e.translation) for e in entries] == [
        (4, "PER1", "安娜", ""), (4, "LOC1", "巴林", "")]


def test_oov_only_keeps_fully_known_spans():
    sent = Sentence(("安娜", "爱", "塔南", "州"), "zh")
    spans = [NeSpan(0, "source", 0, 1, NeType.PER), NeSpan(0, "source", 2, 4, NeType.LOC)]
    vocab = {"安娜", "爱", "塔南"}
    rewritten, entries = replace_test_sentence(sent, spans, vocab=vocab, oov_only=True)
    # 安娜 is in vocabulary so it stays; 州 is unknown so the LOC is replaced
    assert rewritten.tokens == ("安娜", "爱", "LOC1")
    assert [e.surface for e in entries] == ["塔南 州"]


def test_oov_only_without_vocab_replaces_everything():
    sent = Sentence(("安娜",), "zh")
    rewritten, _ = replace_test_sentence(
        sent, [NeSpan(0, "source", 0, 1, NeType.PER)], oov_only=True)
    assert rewritten.tokens == ("PER1",)


def test_replace_test_sentence_contract_errors():
    sent = Sentence(("安娜", "爱"), "zh")
    with pytest.raises(ContractError, match="span"):
        replace_test_sentence(sent, [NeSpan(0, "source", 0, 2, NeType.PER),
                                     NeSpan(0, "source", 1, 2, NeType.LOC)])
    with pytest.raises(ContractError, match="exceeds"):
        replace_test_sentence(sent, [NeSpan(0, "source", 1, 3, NeType.PER)])


# -- lexical table ------------------------------------------------------------


def test_table_orders_candidates_by_count_then_spelling():
    table = LexicalTable.from_pairs([
        NePair("巴林", "balin", NeType.LOC, 2),
        NePair("巴林", "bahrain", NeType.LOC, 5),
        NePair("巴林", "barin", NeType.LOC, 2),
    ])
    assert table.lookup("巴林") == (("bahrain", 5), ("balin", 2), ("barin", 2))
    assert table.best("巴林") == "bahrain"


def test_table_aggregates_duplicate_pairs():
    table = LexicalTable.from_pairs([
        NePair("安娜", "anna", NeType.PER, 1),
        NePair("安娜", "anna", NeType.PER, 3),
    ])
    assert table.lookup("安娜") == (("anna", 4),)


def test_table_misses_and_len():
    table = LexicalTable.from_pairs([NePair("安娜", "anna", NeType.PER)])
    assert table.best("巴林") is None
    assert table.lookup("巴林") == ()
    assert len(table) == 1
    assert len(LexicalTable()) == 0


def test_table_file_round_trip(tmp_path):
    table = LexicalTable.from_pairs([
        NePair("巴林", "balin", NeType.LOC, 2),
        NePair("巴林", "bahrain", NeType.LOC, 5),
        NePair("安娜", "anna", NeType.PER, 1),
    ])
    path = tmp_path / "lex.tsv"
    table.write(path)
    assert LexicalTable.read(path) == table


@pytest.mark.parametrize("line,complaint", [
    ("巴林\tbalin", "2"),
    ("巴林\tbalin\tmany", "many"),
])
def test_table_read_rejects_malformed_rows(tmp_path, line, complaint):
    path = tmp_path / "lex.tsv"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=complaint):
        LexicalTable.read(path)


# -- rule rendering -----------------------------------------------------------


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


# -- restoration backoff ------------------------------------------------------


class OneBest:
    """Stand-in entity translator with a fixed answer sheet."""

    def __init__(self, answers):
        self.answers = answers

    def __call__(self, surface):
        return self.answers.get(surface, [])


def test_restore_backs_off_from_table_to_model_to_nothing():
    entries = [
        SymbolEntry(0, "PER1", "安娜", NeType.PER),
        SymbolEntry(0, "PER2", "马克", NeType.PER),
        SymbolEntry(0, "LOC1", "巴林", NeType.LOC),
    ]
    table = extract_lexical_table([NePair("安娜", "anna", NeType.PER)])
    translator = OneBest({"马克": [("make", -0.5), ("mako", -1.0)]})
    out = Sentence(("PER1", "meets", "PER2", "in", "LOC1"), "en")
    restored, report = restore(out, entries, table, translator,
                               src_lang="zh", tgt_lang="en")
    # 巴林 misses both routes, so its placeholder stays put
    assert restored.tokens == ("anna", "meets", "make", "in", "LOC1")
    assert (report.from_table, report.from_model, report.unrealized) == (1, 1, 1)
    assert report.warnings == 1


def test_nt_symbols_use_rules_not_the_model():
    entries = [SymbolEntry(0, "NT1", "十月", NeType.NT)]
    translator = OneBest({"十月": [("never", -0.1)]})
    restored, report = restore(Sentence(("NT1",), "en"), entries, LexicalTable(),
                               translator, src_lang="zh", tgt_lang="en")
    assert restored.tokens == ("October",)
    assert report.from_rules == 1
    assert report.from_model == 0


def test_table_hit_wins_over_nt_rules():
    entries = [SymbolEntry(0, "NT1", "十月", NeType.NT)]
    table = extract_lexical_table([NePair("十月", "oct", NeType.NT)])
    restored, report = restore(Sentence(("NT1",), "en"), entries, table,
                               src_lang="zh", tgt_lang="en")
    assert restored.tokens == ("oct",)
    assert (report.from_table, report.from_rules) == (1, 0)


def test_model_candidates_skip_empty_strings():
    entries = [SymbolEntry(0, "PER1", "安娜", NeType.PER)]
    translator = OneBest({"安娜": [("", -0.1), ("anna", -0.9)]})
    restored, report = restore(Sentence(("PER1",), "en"), entries, LexicalTable(),
                               translator, src_lang="zh", tgt_lang="en")
    assert restored.tokens == ("anna",)
    assert report.from_model == 1


@pytest.mark.parametrize("blank", [" ", "  ", "\t", "\u3000"])
def test_model_candidates_skip_blank_strings(blank):
    entries = [SymbolEntry(0, "PER1", "安娜", NeType.PER)]
    translator = OneBest({"安娜": [(blank, -1.0), ("anna", -2.0)]})
    restored, report = restore(Sentence(("PER1",), "en"), entries, LexicalTable(),
                               translator, src_lang="zh", tgt_lang="en")
    assert restored.tokens == ("anna",)
    assert report.from_model == 1


def test_an_all_blank_k_best_leaves_the_symbol():
    # a blank candidate once restored to no token: an empty line, which no reader takes
    entries = [SymbolEntry(0, "PER1", "安娜", NeType.PER)]
    translator = OneBest({"安娜": [(" ", -1.0), ("", -2.0)]})
    restored, report = restore(Sentence(("PER1",), "en"), entries, LexicalTable(),
                               translator, src_lang="zh", tgt_lang="en")
    assert restored.tokens == ("PER1",)
    assert (report.from_model, report.unrealized) == (0, 1)


class LoggingOneBest(OneBest):
    """OneBest that logs each surface asked for to a file, so that calls made
    in worker processes are seen too; picklable."""

    def __init__(self, answers, path):
        super().__init__(answers)
        self.path = path

    def __call__(self, surface):
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(surface + "\n")
        return super().__call__(surface)

    def calls(self):
        return self.path.read_text(encoding="utf-8").splitlines() if self.path.exists() else []


class FailingOneBest:
    def __init__(self):
        self.calls = []

    def __call__(self, surface):
        self.calls.append(surface)
        raise RuntimeError(f"cannot decode {surface}")


def mt_corpus():
    """MT output with repeated unseen names, a table hit, an NT symbol, a
    dropped symbol, a placeholder-like token the map also names, and an
    entry never realized."""
    sentences = [Sentence(("PER1", "arrived", "in", "LOC1"), "en"),
                 Sentence(("LOC1", "welcomed", "PER2", "and", "PER1"), "en"),
                 Sentence(("on", "NT1", "PER1", "left", "PER9"), "en"),
                 Sentence(("nothing", "here"), "en"),
                 Sentence(("PER01", "met", "PER1"), "en")]
    symbol_map = {
        0: [SymbolEntry(0, "PER1", "马克", NeType.PER), SymbolEntry(0, "LOC1", "巴林", NeType.LOC)],
        1: [SymbolEntry(1, "LOC1", "北京", NeType.LOC), SymbolEntry(1, "PER1", "马克", NeType.PER),
            SymbolEntry(1, "PER2", "安娜", NeType.PER)],
        2: [SymbolEntry(2, "NT1", "十月", NeType.NT), SymbolEntry(2, "PER1", "波林", NeType.PER)],
        4: [SymbolEntry(4, "PER01", "不见", NeType.PER), SymbolEntry(4, "PER1", "安娜", NeType.PER),
            SymbolEntry(4, "PER2", "莫名", NeType.PER)],
    }
    table = extract_lexical_table([NePair("北京", "beijing", NeType.LOC)])
    answers = {"马克": [("mark", -0.1)], "巴林": [("", -0.1), ("bahrain", -0.5)],
               "安娜": [("anna", -0.2)], "波林": [("", -0.3)], "不见": [("unseen", -0.1)],
               "莫名": [("moming", -0.1)]}
    return sentences, symbol_map, table, answers


def per_sentence(sentences, symbol_map, table, translator):
    """`restore_corpus` spelled out: one `restore` per sentence, reports summed."""
    restored, totals = [], RestoreReport()
    for sid, sentence in enumerate(sentences):
        out, report = restore(sentence, symbol_map.get(sid, []), table, translator,
                              src_lang="zh", tgt_lang="en")
        restored.append(out)
        for name in ("from_table", "from_model", "from_rules", "dropped", "unrealized"):
            setattr(totals, name, getattr(totals, name) + getattr(report, name))
    return restored, totals


@pytest.mark.parametrize("jobs", [1, 2])
def test_restore_corpus_decodes_each_missed_surface_once(tmp_path, jobs):
    sentences, symbol_map, table, answers = mt_corpus()
    translator = LoggingOneBest(answers, tmp_path / "calls.log")
    got = restore_corpus(sentences, symbol_map, table, translator, jobs=jobs,
                         src_lang="zh", tgt_lang="en")
    # first occurrence first; not the table hit, the NT symbol, the escaped-looking
    # PER01 nor the entry missing from the output
    assert sorted(translator.calls()) == sorted(["马克", "巴林", "安娜", "波林"])
    if jobs == 1:
        assert translator.calls() == ["马克", "巴林", "安娜", "波林"]
    assert got == per_sentence(sentences, symbol_map, table, OneBest(answers))
    restored, report = got
    assert [s.text() for s in restored] == [
        "mark arrived in bahrain", "beijing welcomed anna and mark", "on October PER1 left",
        "nothing here", "PER01 met anna"]
    assert vars(report) == {"from_table": 1, "from_model": 5, "from_rules": 1, "dropped": 1,
                            "unrealized": 3}


def test_restore_corpus_without_a_translator_decodes_nothing():
    sentences, symbol_map, table, answers = mt_corpus()
    assert (restore_corpus(sentences, symbol_map, table, src_lang="zh", tgt_lang="en")
            == per_sentence(sentences, symbol_map, table, None))


@pytest.mark.parametrize("with_translator", [False, True])
def test_restore_corpus_checks_jobs_up_front(with_translator):
    # without a translator, or with every surface in the table, nothing is decoded:
    # the check cannot be left to the decode
    sentences = [Sentence(("PER1", "arrived"), "en")]
    symbol_map = {0: [SymbolEntry(0, "PER1", "马克", NeType.PER)]}
    table = extract_lexical_table([NePair("马克", "mark", NeType.PER)])
    translator = FailingOneBest() if with_translator else None
    with pytest.raises(ConfigError, match="^jobs must be >= 1, got 0$"):
        restore_corpus(sentences, symbol_map, table, translator, jobs=0,
                       src_lang="zh", tgt_lang="en")


def test_restore_corpus_fails_on_the_first_missed_surface():
    sentences, symbol_map, table, _ = mt_corpus()
    translator = FailingOneBest()
    with pytest.raises(RuntimeError, match="cannot decode 马克"):
        restore_corpus(sentences, symbol_map, table, translator, src_lang="zh", tgt_lang="en")
    assert translator.calls == ["马克"]


def test_restore_corpus_counts_entries_of_missing_sentences_as_unrealized(caplog):
    sentences = [Sentence(("PER1", "arrived"), "en")]
    symbol_map = {0: [SymbolEntry(0, "PER1", "马克", NeType.PER),
                      SymbolEntry(0, "PER2", "安娜", NeType.PER)],
                  3: [SymbolEntry(3, "PER1", "波林", NeType.PER),
                      SymbolEntry(3, "NT1", "十月", NeType.NT)],
                  7: [SymbolEntry(7, "LOC1", "北京", NeType.LOC)]}
    table = extract_lexical_table([NePair("马克", "mark", NeType.PER)])
    with caplog.at_level(logging.WARNING, logger="netrans.pipeline"):
        restored, report = restore_corpus(sentences, symbol_map, table,
                                          src_lang="zh", tgt_lang="en")
        assert [s.text() for s in restored] == ["mark arrived"]
        # PER2 of sentence 0, and the three entries of sentences 3 and 7
        assert vars(report) == {"from_table": 1, "from_model": 0, "from_rules": 0,
                                "dropped": 0, "unrealized": 4}
        assert [r.getMessage() for r in caplog.records] == [
            "3 symbol-map entries for 2 sentence id(s) the output does not have, "
            "counted as unrealized"]

        caplog.clear()  # every id present: no warning
        restore_corpus(sentences, {0: symbol_map[0]}, table, src_lang="zh", tgt_lang="en")
        assert caplog.records == []


def test_model_with_no_usable_candidate_leaves_the_symbol():
    entries = [SymbolEntry(0, "PER1", "安娜", NeType.PER)]
    translator = OneBest({"安娜": [("", -0.1)]})
    restored, report = restore(Sentence(("PER1",), "en"), entries, LexicalTable(),
                               translator, src_lang="zh", tgt_lang="en")
    assert restored.tokens == ("PER1",)
    assert report.unrealized == 1


def test_unmapped_output_symbols_are_dropped():
    restored, report = restore(Sentence(("PER9", "walks"), "en"), [], LexicalTable(),
                               src_lang="zh", tgt_lang="en")
    assert restored.tokens == ("walks",)
    assert (report.dropped, report.unrealized) == (1, 0)


def test_entries_missing_from_the_output_count_as_unrealized():
    entries = [SymbolEntry(0, "LOC1", "巴林", NeType.LOC)]
    table = extract_lexical_table([NePair("巴林", "balin", NeType.LOC)])
    restored, report = restore(Sentence(("no", "symbols"), "en"), entries, table,
                               src_lang="zh", tgt_lang="en")
    assert restored.tokens == ("no", "symbols")
    assert (report.from_table, report.unrealized, report.warnings) == (0, 1, 1)


def test_repeated_symbols_restore_identically():
    entries = [SymbolEntry(0, "LOC1", "巴林", NeType.LOC)]
    table = extract_lexical_table([NePair("巴林", "balin", NeType.LOC)])
    restored, report = restore(Sentence(("LOC1", "and", "LOC1"), "en"), entries, table,
                               src_lang="zh", tgt_lang="en")
    assert restored.tokens == ("balin", "and", "balin")
    assert (report.from_table, report.unrealized) == (2, 0)


def test_multi_token_translations_split_back_into_tokens():
    entries = [SymbolEntry(0, "LOC1", "塔南 州", NeType.LOC)]
    table = extract_lexical_table([NePair("塔南 州", "tanan zhou", NeType.LOC)])
    restored, _ = restore(Sentence(("near", "LOC1"), "en"), entries, table,
                          src_lang="zh", tgt_lang="en")
    assert restored.tokens == ("near", "tanan", "zhou")


def test_report_warning_arithmetic():
    report = RestoreReport(from_table=3, dropped=2, unrealized=5)
    assert report.warnings == 7


# -- symbol map sidecar -------------------------------------------------------


def test_symbol_map_round_trip(tmp_path):
    entries = [
        SymbolEntry(0, "LOC1", "冰岛", NeType.LOC, "iceland"),
        SymbolEntry(0, "LOC2", "北京", NeType.LOC, "beijing"),
        SymbolEntry(2, "PER1", "安娜", NeType.PER),   # no translation column
    ]
    path = tmp_path / "symbols.tsv"
    write_symbol_map(entries, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "0\tLOC1\t冰岛\tLOC\ticeland"
    assert lines[2] == "2\tPER1\t安娜\tPER"
    by_sentence = read_symbol_map(path)
    assert by_sentence == {0: entries[:2], 2: entries[2:]}


@pytest.mark.parametrize("line,complaint", [
    ("0\tLOC1\t冰岛", "columns"),
    ("0\tBADSYM\t冰岛\tLOC", "symbol"),
    ("x\tLOC1\t冰岛\tLOC", "invalid literal"),
])
def test_symbol_map_read_rejects_malformed_rows(tmp_path, line, complaint):
    path = tmp_path / "symbols.tsv"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=complaint):
        read_symbol_map(path)


def test_symbol_map_finds_a_duplicate_among_many_symbols_of_one_sentence(tmp_path):
    # each row is checked against a set, not against the sentence's earlier rows
    rows = [f"3\tPER{i}\t安娜\tPER" for i in range(1, 20_001)]
    path = tmp_path / "symbols.tsv"
    path.write_text("\n".join(rows + ["4\tPER7\t马克\tPER"]) + "\n", encoding="utf-8")
    by_sentence = read_symbol_map(path)  # the same symbol in another sentence is no duplicate
    assert [len(group) for group in by_sentence.values()] == [20_000, 1]
    path.write_text("\n".join(rows + ["3\tPER7\t马克\tPER"]) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_symbol_map(path)
    assert str(err.value) == f"{path}:20001: duplicate symbol 'PER7' for sentence 3"


def test_symbol_map_skips_blank_lines(tmp_path):
    path = tmp_path / "symbols.tsv"
    path.write_text("\n0\tPER1\t安娜\tPER\n\n", encoding="utf-8")
    assert read_symbol_map(path) == {0: [SymbolEntry(0, "PER1", "安娜", NeType.PER)]}


# -- whole-corpus round trip --------------------------------------------------


def test_corpus_round_trip_with_extracted_table():
    pairs = [
        SentencePair(Sentence(("安娜", "去", "巴林"), "zh"),
                     Sentence(("anna", "goes", "to", "balin"), "en"), 0),
        SentencePair(Sentence(("马克", "和", "安娜", "回来"), "zh"),
                     Sentence(("make", "and", "anna", "return"), "en"), 1),
    ]
    aligned = {
        0: [AlignedPair(0, 0, 1, 0, 1, NeType.PER, 1.0, "both"),
            AlignedPair(0, 2, 3, 3, 4, NeType.LOC, 0.875, "both")],
        1: [AlignedPair(1, 0, 1, 0, 1, NeType.PER, 1.0, "both"),
            AlignedPair(1, 2, 3, 2, 3, NeType.PER, 1.0, "both")],
    }
    all_entries = []
    rewritten = []
    for pair in pairs:
        new_pair, entries = replace_training_pair(pair, aligned[pair.id])
        rewritten.append(new_pair)
        all_entries.append(entries)
    table = extract_lexical_table(
        NePair(e.surface, e.translation, e.ne_type)
        for entries in all_entries for e in entries)
    for pair, new_pair, entries in zip(pairs, rewritten, all_entries):
        restored, report = restore(new_pair.tgt, entries, table,
                                   src_lang="zh", tgt_lang="en")
        assert restored.text() == pair.tgt.text()
        assert report.warnings == 0
