"""Command-line behavior: exit codes, output formats, determinism."""

import pytest

from netrans import core
from netrans.cli import main
from netrans.core import NeSpan, NeType


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def tiny_pairs(work):
    path = work / "pairs.tsv"
    path.write_text("巴林\tbalin\tLOC\n安娜\tanna\tPER\n马克\tmake\tPER\n",
                    encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def tiny_model(work, tiny_pairs):
    out = work / "tiny.bin"
    rc = main(["train-ne", "--pairs", str(tiny_pairs), "--direction", "s2t",
               "--out", str(out), "--hidden", "10", "--embed", "6",
               "--lr", "1.0", "--epochs", "30", "--seed", "7"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def nt_corpus(work):
    """Two-sentence corpus whose entities are all numeric, so no model is needed."""
    zh = work / "corpus.zh"
    en = work / "corpus.en"
    zh.write_text("会议 定于 十月 五 日 举行\n出口 增长 百分之四点二\n", encoding="utf-8")
    en.write_text("the meeting is set for october 5\nexports grew 4.2%\n", encoding="utf-8")
    spans = [
        NeSpan(0, "source", 2, 5, NeType.NT),
        NeSpan(0, "target", 5, 7, NeType.NT),
        NeSpan(1, "source", 2, 3, NeType.NT),
        NeSpan(1, "target", 2, 3, NeType.NT),
    ]
    ann = work / "annotations.tsv"
    core.write_annotations(spans, ann)
    return zh, en, ann


@pytest.fixture(scope="module")
def aligned_nt(work, nt_corpus):
    zh, en, ann = nt_corpus
    alignments = work / "alignments.tsv"
    pairs = work / "aligned_pairs.tsv"
    rc = main(["align", "--src", str(zh), "--tgt", str(en),
               "--src-lang", "zh", "--tgt-lang", "en",
               "--annotations", str(ann),
               "--out-alignments", str(alignments), "--out-pairs", str(pairs)])
    assert rc == 0
    return alignments, pairs


# -- parser-level behavior -----------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "netrans" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [[], ["no-such-command"], ["sim", "--bogus", "a", "b"]])
def test_usage_errors_exit_1(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1


def test_missing_required_flag_is_a_config_error(capsys):
    rc, _, err = run(capsys, "restore", "--input", "x")
    assert rc == 1
    assert "--symmap is required" in err


def test_missing_file_exits_1(capsys):
    rc, _, err = run(capsys, "translate-ne", "--model", "/nonexistent/m.bin",
                     "--input", "/nonexistent/in.txt")
    assert rc == 1
    assert "error:" in err


def test_malformed_data_exits_2(capsys, work):
    bad = work / "bad_pairs.tsv"
    bad.write_text("only-one-column\n", encoding="utf-8")
    rc, _, err = run(capsys, "extract-lex", "--pairs", str(bad), "--out",
                     str(work / "lex_unused.tsv"))
    assert rc == 2
    assert "error:" in err


# -- diagnostics ----------------------------------------------------------------


def test_sim_prints_lcs_distance_and_score(capsys):
    rc, out, _ = run(capsys, "sim", "bolin", "berlin")
    assert rc == 0
    assert out == "4\t3\t0.800000\n"


@pytest.mark.parametrize("argv,expected", [
    (("numnorm", "百分之四点二"), "42"),
    (("numnorm", "--lang", "en", "4,200"), "42"),
    (("numnorm", "--lang", "en", "october"), "1"),   # month 10, zeros leave the skeleton
])
def test_numnorm(capsys, argv, expected):
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert out == expected + "\n"


def test_gradcheck_default_pairs_pass(capsys):
    rc, out, _ = run(capsys, "gradcheck", "--seed", "5")
    assert rc == 0
    assert out.strip().endswith("OK")
    assert "worst\t" in out


def test_gradcheck_impossible_tolerance_fails(capsys):
    rc, out, _ = run(capsys, "gradcheck", "--seed", "5", "--tolerance", "1e-12")
    assert rc == 3
    assert "FAIL" in out


# -- training and translation ----------------------------------------------------


def test_train_writes_model_and_log(capsys, work, tiny_pairs):
    out = work / "t1.bin"
    rc, stdout, _ = run(capsys, "train-ne", "--pairs", str(tiny_pairs),
                        "--direction", "s2t", "--out", str(out),
                        "--hidden", "8", "--embed", "4", "--lr", "1.0",
                        "--epochs", "5", "--seed", "7",
                        "--dev", str(tiny_pairs))
    assert rc == 0
    assert "trained s2t translator on 3 pairs, 5 epochs" in stdout
    assert f"model written to {out}" in stdout
    log_lines = (work / "t1.bin.log").read_text(encoding="utf-8").splitlines()
    assert log_lines[0] == "epoch\ttrain_loss\tdev_loss"
    assert len(log_lines) == 6
    # dev column is populated when --dev is given
    assert all(len(line.split("\t")) == 3 and line.split("\t")[2] for line in log_lines[1:])


def test_training_is_byte_deterministic(work, tiny_pairs):
    outs = []
    for name in ("d1.bin", "d2.bin"):
        out = work / name
        rc = main(["train-ne", "--pairs", str(tiny_pairs), "--direction", "t2s",
                   "--out", str(out), "--hidden", "8", "--embed", "4",
                   "--lr", "1.0", "--epochs", "4", "--seed", "11"])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_translate_ne_k_best(capsys, work, tiny_model):
    inputs = work / "inputs.txt"
    inputs.write_text("巴林\n安娜\n", encoding="utf-8")
    out = work / "kbest.tsv"
    rc, _, _ = run(capsys, "translate-ne", "--model", str(tiny_model),
                   "--input", str(inputs), "--out", str(out), "--k", "2")
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4
    for line in lines:
        src, cand, logprob = line.split("\t")
        assert src in ("巴林", "安娜")
        assert float(logprob) <= 0.0
    # two distinct candidates per input
    assert lines[0].split("\t")[1] != lines[1].split("\t")[1]


def test_translate_ne_rejects_empty_lines(capsys, work, tiny_model):
    inputs = work / "empty_line.txt"
    inputs.write_text("巴林\n\n", encoding="utf-8")
    rc, _, err = run(capsys, "translate-ne", "--model", str(tiny_model),
                     "--input", str(inputs))
    assert rc == 2
    assert "empty line 2" in err


@pytest.mark.parametrize("k", ["0", "6"])
def test_translate_ne_k_must_fit_the_beam(capsys, work, tiny_model, k):
    inputs = work / "k_inputs.txt"
    inputs.write_text("巴林\n", encoding="utf-8")
    out = work / "k_unused.tsv"
    rc, _, err = run(capsys, "translate-ne", "--model", str(tiny_model),
                     "--input", str(inputs), "--out", str(out), "--beam", "5", "--k", k)
    assert rc == 1
    assert "--k must be between 1 and --beam (5)" in err
    assert not out.exists()


@pytest.mark.parametrize("max_len", ["0", "-2"])
def test_translate_ne_max_len_must_be_positive(capsys, work, tiny_model, max_len):
    inputs = work / "max_len_inputs.txt"
    inputs.write_text("巴林\n", encoding="utf-8")
    out = work / "max_len_unused.tsv"
    rc, _, err = run(capsys, "translate-ne", "--model", str(tiny_model),
                     "--input", str(inputs), "--out", str(out), "--max-len", max_len)
    assert rc == 1
    assert f"max_len must be >= 1, got {max_len}" in err
    assert not out.exists()


def test_score_ne(capsys, work, tiny_model, tiny_pairs):
    rc, out, _ = run(capsys, "score-ne", "--model", str(tiny_model),
                     "--pairs", str(tiny_pairs))
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("巴林\tbalin\t")
    assert all(float(line.split("\t")[2]) < 0.0 for line in lines)


# -- alignment pipeline -----------------------------------------------------------


def test_align_reports_counts(capsys, work, nt_corpus):
    zh, en, ann = nt_corpus
    rc, out, _ = run(capsys, "align", "--src", str(zh), "--tgt", str(en),
                     "--src-lang", "zh", "--tgt-lang", "en",
                     "--annotations", str(ann),
                     "--out-alignments", str(work / "a2.tsv"),
                     "--out-pairs", str(work / "p2.tsv"))
    assert rc == 0
    assert "alignments\t2" in out
    assert "type:NT\t2" in out
    assert "direction:both\t2" in out
    assert "pairs\t2" in out


def test_align_requires_exactly_one_recognizer(capsys, work, nt_corpus):
    zh, en, ann = nt_corpus
    base = ["align", "--src", str(zh), "--tgt", str(en),
            "--src-lang", "zh", "--tgt-lang", "en",
            "--out-alignments", str(work / "x.tsv"), "--out-pairs", str(work / "y.tsv")]
    rc, _, err = run(capsys, *base)
    assert rc == 1 and "required" in err
    rc, _, err = run(capsys, *base, "--annotations", str(ann),
                     "--gazetteer", str(ann))
    assert rc == 1 and "not both" in err


def test_eval_align_perfect_match(capsys, aligned_nt):
    alignments, _ = aligned_nt
    rc, out, _ = run(capsys, "eval-align", "--pred", str(alignments),
                     "--gold", str(alignments))
    assert rc == 0
    assert "NT\t1.000000\t1.000000\t1.000000" in out
    assert out.strip().splitlines()[-1] == "ALL\t1.000000\t1.000000\t1.000000"


def test_eval_align_empty_gold_is_a_data_error(capsys, work, aligned_nt):
    alignments, _ = aligned_nt
    empty = work / "empty_gold.tsv"
    empty.write_text("", encoding="utf-8")
    rc, _, err = run(capsys, "eval-align", "--pred", str(alignments),
                     "--gold", str(empty))
    assert rc == 2
    assert "empty gold" in err


def test_replace_extract_restore_round_trip(capsys, work, nt_corpus, aligned_nt):
    zh, en, _ = nt_corpus
    alignments, pairs = aligned_nt
    out_src, out_tgt = work / "rw.zh", work / "rw.en"
    symmap = work / "symbols.tsv"
    rc, out, _ = run(capsys, "replace", "--alignments", str(alignments),
                     "--src", str(zh), "--tgt", str(en),
                     "--src-lang", "zh", "--tgt-lang", "en",
                     "--out-src", str(out_src), "--out-tgt", str(out_tgt),
                     "--out-symmap", str(symmap))
    assert rc == 0
    assert "sentences\t2" in out and "symbols\t2" in out
    assert out_src.read_text(encoding="utf-8") == "会议 定于 NT1 举行\n出口 增长 NT1\n"
    assert out_tgt.read_text(encoding="utf-8") == "the meeting is set for NT1\nexports grew NT1\n"

    lex = work / "lex.tsv"
    rc, out, _ = run(capsys, "extract-lex", "--pairs", str(pairs), "--out", str(lex))
    assert rc == 0
    assert "entries\t2" in out

    restored = work / "restored.en"
    rc, out, _ = run(capsys, "restore", "--input", str(out_tgt),
                     "--symmap", str(symmap), "--lex", str(lex),
                     "--src-lang", "zh", "--tgt-lang", "en", "--out", str(restored))
    assert rc == 0
    assert "from_table\t2" in out
    assert "unrealized\t0" in out
    assert restored.read_bytes() == en.read_bytes()


def test_restore_without_table_falls_back_to_rules(capsys, work, nt_corpus, aligned_nt):
    zh, en, _ = nt_corpus
    alignments, _ = aligned_nt
    out_src, out_tgt = work / "rw2.zh", work / "rw2.en"
    symmap = work / "symbols2.tsv"
    main(["replace", "--alignments", str(alignments), "--src", str(zh),
          "--tgt", str(en), "--src-lang", "zh", "--tgt-lang", "en",
          "--out-src", str(out_src), "--out-tgt", str(out_tgt),
          "--out-symmap", str(symmap)])
    capsys.readouterr()
    rc, out, _ = run(capsys, "restore", "--input", str(out_tgt),
                     "--symmap", str(symmap),
                     "--src-lang", "zh", "--tgt-lang", "en",
                     "--out", str(work / "restored2.en"))
    assert rc == 0
    assert "from_rules\t2" in out
    assert "from_table\t0" in out


def test_restore_rejects_duplicate_symbol_rows(capsys, work):
    mt = work / "dup_mt.en"
    mt.write_text("PER1 arrived\n", encoding="utf-8")
    symmap = work / "dup_symbols.tsv"
    symmap.write_text("0\tPER1\t安娜\tPER\tanna\n0\tPER1\t马克\tPER\tmake\n",
                      encoding="utf-8")
    out = work / "dup_restored.en"
    rc, _, err = run(capsys, "restore", "--input", str(mt), "--symmap", str(symmap),
                     "--src-lang", "zh", "--tgt-lang", "en", "--out", str(out))
    assert rc == 2
    assert f"{symmap}:2: duplicate symbol 'PER1'" in err
    assert not out.exists()


def test_restore_decodes_each_surface_once(capsys, work, tiny_model, monkeypatch):
    from netrans.neural import beam

    calls = []
    decode = beam.translate

    def counting(model, text, *args, **kwargs):
        calls.append(text)
        return decode(model, text, *args, **kwargs)

    monkeypatch.setattr(beam, "translate", counting)
    mt = work / "once_mt.en"
    mt.write_text("PER1 arrived\nPER1 left PER2\nwe met PER1\n", encoding="utf-8")
    symmap = work / "once_symbols.tsv"
    # the same unseen name in three sentences, and one the table knows
    symmap.write_text("0\tPER1\t安马\tPER\n1\tPER1\t安马\tPER\n1\tPER2\t巴林\tLOC\n"
                      "2\tPER1\t安马\tPER\n", encoding="utf-8")
    lex = work / "once_lex.tsv"
    lex.write_text("巴林\tbahrain\t1\n", encoding="utf-8")
    outputs = []
    for jobs in ("1", "2"):
        calls.clear()
        out = work / f"once_restored_{jobs}.en"
        rc, report, _ = run(capsys, "restore", "--input", str(mt), "--symmap", str(symmap),
                            "--lex", str(lex), "--model", str(tiny_model),
                            "--src-lang", "zh", "--tgt-lang", "en", "--out", str(out),
                            "--jobs", jobs)
        assert rc == 0
        assert calls == ["安马"]
        assert "from_model\t3" in report and "from_table\t1" in report
        outputs.append((out.read_bytes(), report))
    assert outputs[0] == outputs[1]


def test_restore_sends_only_the_model_decode_to_workers(capsys, work, tiny_model,
                                                        monkeypatch):
    from netrans import cli

    calls = []
    fan_out = cli.pmap

    def recording(fn, items, jobs, *args, **kwargs):
        calls.append((fn, list(items), jobs))
        return fan_out(fn, items, jobs, *args, **kwargs)

    # the model decode fans out through align.decode_once
    monkeypatch.setattr(cli, "pmap", recording)
    monkeypatch.setattr(cli.align, "pmap", recording)
    mt = work / "jobs_mt.en"
    mt.write_text("PER1 arrived\nPER1 left PER2\nwe met PER1 on NT1\n", encoding="utf-8")
    symmap = work / "jobs_symbols.tsv"
    symmap.write_text("0\tPER1\t安马\tPER\n1\tPER1\t安马\tPER\n1\tPER2\t巴林\tLOC\n"
                      "2\tPER1\t安马\tPER\n2\tNT1\t五月\tNT\n", encoding="utf-8")
    lex = work / "jobs_lex.tsv"
    lex.write_text("巴林\tbahrain\t1\n", encoding="utf-8")
    for model_flags, decodes in (([], 0), (["--model", str(tiny_model)], 1)):
        results = []
        for jobs in ("1", "2"):
            calls.clear()
            out = work / f"jobs_restored_{len(model_flags)}_{jobs}.en"
            rc, report, _ = run(capsys, "restore", "--input", str(mt), "--symmap", str(symmap),
                                "--lex", str(lex), *model_flags, "--src-lang", "zh",
                                "--tgt-lang", "en", "--out", str(out), "--jobs", jobs)
            assert rc == 0
            assert len(calls) == decodes
            results.append((out.read_bytes(), report))
        if decodes:
            assert calls[0][1:] == (["安马"], 2)
        assert results[0] == results[1]


def test_replace_rejects_an_alignment_row_outside_its_sentence(capsys, work, nt_corpus):
    zh, en, _ = nt_corpus
    rows = work / "out_of_range.tsv"
    rows.write_text("1\t2\t3\t2\t3\tNT\t1.0\tboth\n0\t5\t7\t5\t7\tNT\t1.0\tboth\n",
                    encoding="utf-8")
    rc, out, err = run(capsys, "replace", "--alignments", str(rows),
                       "--src", str(zh), "--tgt", str(en),
                       "--src-lang", "zh", "--tgt-lang", "en",
                       "--out-src", str(work / "bad.zh"), "--out-tgt", str(work / "bad.en"),
                       "--out-symmap", str(work / "bad_symbols.tsv"))
    assert rc == 2
    assert out == ""
    assert "sentence 0: source range [5, 7) is empty or exceeds length 6" in err


def test_replace_aborts_on_overlapping_alignment_rows_and_writes_nothing(capsys, work,
                                                                        nt_corpus):
    zh, en, _ = nt_corpus
    rows = work / "overlapping.tsv"
    rows.write_text("1\t2\t3\t2\t3\tNT\t1.0\tboth\n0\t2\t5\t5\t7\tNT\t1.0\tboth\n"
                    "0\t4\t5\t6\t7\tNT\t1.0\tboth\n", encoding="utf-8")
    outputs = [work / "overlap.zh", work / "overlap.en", work / "overlap_symbols.tsv"]
    rc, out, err = run(capsys, "replace", "--alignments", str(rows),
                       "--src", str(zh), "--tgt", str(en),
                       "--src-lang", "zh", "--tgt-lang", "en",
                       "--out-src", str(outputs[0]), "--out-tgt", str(outputs[1]),
                       "--out-symmap", str(outputs[2]))
    assert rc == 2
    assert out == ""
    assert "sentence 0: overlapping source ranges [2, 5) and [4, 5)" in err
    assert not any(path.exists() for path in outputs)


def test_replace_modes_are_mutually_exclusive(capsys, work, nt_corpus, aligned_nt):
    zh, _, ann = nt_corpus
    alignments, _ = aligned_nt
    rc, _, err = run(capsys, "replace")
    assert rc == 1 and "corpus mode" in err
    rc, _, err = run(capsys, "replace", "--alignments", str(alignments),
                     "--input", str(zh), "--annotations", str(ann))
    assert rc == 1 and "corpus mode" in err


def test_replace_sentence_mode_with_vocabulary(capsys, work):
    sents = work / "test_input.zh"
    sents.write_text("安娜 爱 巴林\n", encoding="utf-8")
    ann = work / "test_ann.tsv"
    core.write_annotations([NeSpan(0, "source", 0, 1, NeType.PER),
                            NeSpan(0, "source", 2, 3, NeType.LOC)], ann)
    vocab = work / "vocab.txt"
    vocab.write_text("安娜 120\n爱 80\n", encoding="utf-8")
    out = work / "test_out.zh"
    symmap = work / "test_symbols.tsv"
    rc, stdout, _ = run(capsys, "replace", "--input", str(sents), "--lang", "zh",
                        "--annotations", str(ann), "--vocab", str(vocab),
                        "--oov-only", "--out", str(out), "--out-symmap", str(symmap))
    assert rc == 0
    assert "symbols\t1" in stdout
    assert out.read_text(encoding="utf-8") == "安娜 爱 LOC1\n"
    assert "LOC1\t巴林\tLOC" in symmap.read_text(encoding="utf-8")


@pytest.mark.parametrize("from_file", [False, True], ids=["flag", "config"])
def test_replace_oov_only_needs_a_vocabulary(capsys, work, from_file):
    sents = work / "oov_input.zh"
    sents.write_text("安娜 爱 巴林\n", encoding="utf-8")
    ann = work / "oov_ann.tsv"
    core.write_annotations([NeSpan(0, "source", 2, 3, NeType.LOC)], ann)
    cfg = work / "oov.cfg"
    cfg.write_text("oov-only = yes\n", encoding="utf-8")
    out = work / "oov_out.zh"
    rc, stdout, err = run(capsys, "replace",
                          *(["--config", str(cfg)] if from_file else ["--oov-only"]),
                          "--input", str(sents), "--lang", "zh", "--annotations", str(ann),
                          "--out", str(out), "--out-symmap", str(work / "oov_symbols.tsv"))
    assert rc == 1
    assert stdout == ""
    assert "--oov-only needs --vocab" in err
    assert not out.exists()


def test_replace_sentence_mode_with_gazetteer(capsys, work):
    sents = work / "gaz_input.zh"
    sents.write_text("记者 采访 了 安娜\n", encoding="utf-8")
    gaz = work / "gaz.tsv"
    gaz.write_text("安娜\tPER\n", encoding="utf-8")
    out = work / "gaz_out.zh"
    rc, _, _ = run(capsys, "replace", "--input", str(sents), "--lang", "zh",
                   "--gazetteer", str(gaz), "--out", str(out),
                   "--out-symmap", str(work / "gaz_symbols.tsv"))
    assert rc == 0
    assert out.read_text(encoding="utf-8") == "记者 采访 了 PER1\n"


# -- evaluation -------------------------------------------------------------------


def test_eval_ne_counts_case_folded_matches(capsys, work):
    ref = work / "ref.tsv"
    hyp = work / "hyp.tsv"
    ref.write_text("巴林\tbalin\tLOC\n安娜\tanna\tPER\n马克\tmake\tPER\n", encoding="utf-8")
    hyp.write_text("巴林\tBALIN\tLOC\n安娜\tanna\tPER\n马克\twrong\tPER\n", encoding="utf-8")
    rc, out, _ = run(capsys, "eval-ne", "--hyp", str(hyp), "--ref", str(ref))
    assert rc == 0
    lines = out.splitlines()
    assert "PER\t1\t2\t0.500000" in lines
    assert "LOC\t1\t1\t1.000000" in lines
    assert lines[-1] == "ALL\t2\t3\t0.666667"


@pytest.mark.parametrize("hyp_text,complaint", [
    ("巴林\tbalin\tLOC\n", "pairs"),                        # length mismatch
    ("巴林\tbalin\tLOC\n错的\tanna\tPER\n", "sources differ"),
])
def test_eval_ne_data_errors(capsys, work, hyp_text, complaint):
    ref = work / "ref2.tsv"
    ref.write_text("巴林\tbalin\tLOC\n安娜\tanna\tPER\n", encoding="utf-8")
    hyp = work / "hyp2.tsv"
    hyp.write_text(hyp_text, encoding="utf-8")
    rc, _, err = run(capsys, "eval-ne", "--hyp", str(hyp), "--ref", str(ref))
    assert rc == 2
    assert complaint in err


def test_eval_ne_empty_reference(capsys, work):
    empty = work / "empty.tsv"
    empty.write_text("", encoding="utf-8")
    rc, _, err = run(capsys, "eval-ne", "--hyp", str(empty), "--ref", str(empty))
    assert rc == 2
    assert "empty reference" in err


# -- corpus generation --------------------------------------------------------------


def test_synth_writes_the_five_files(capsys, work):
    out_dir = work / "synth1"
    rc, out, _ = run(capsys, "synth", "--out-dir", str(out_dir),
                     "--pairs", "6", "--sentences", "30", "--seed", "3")
    assert rc == 0
    assert "sentences\t30" in out
    assert "plants\t6" in out
    for name in ("corpus.zh", "corpus.en", "annotations.tsv",
                 "plant_pairs.tsv", "train_pairs.tsv", "gold_alignments.tsv"):
        assert (out_dir / name).is_file(), name


def test_synth_is_deterministic_across_runs(work):
    dirs = [work / "synth_a", work / "synth_b"]
    for d in dirs:
        rc = main(["synth", "--out-dir", str(d), "--pairs", "6",
                   "--sentences", "30", "--seed", "3"])
        assert rc == 0
    for name in ("corpus.zh", "corpus.en", "annotations.tsv",
                 "plant_pairs.tsv", "train_pairs.tsv", "gold_alignments.tsv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


# -- parallel jobs ---------------------------------------------------------------


def test_replace_output_is_independent_of_jobs(work, nt_corpus, aligned_nt):
    zh, en, _ = nt_corpus
    alignments, _ = aligned_nt
    outputs = []
    for jobs, tag in (("1", "j1"), ("3", "j3")):
        out_src = work / f"rw_{tag}.zh"
        out_tgt = work / f"rw_{tag}.en"
        symmap = work / f"sym_{tag}.tsv"
        rc = main(["replace", "--alignments", str(alignments), "--src", str(zh),
                   "--tgt", str(en), "--src-lang", "zh", "--tgt-lang", "en",
                   "--out-src", str(out_src), "--out-tgt", str(out_tgt),
                   "--out-symmap", str(symmap), "--jobs", jobs])
        assert rc == 0
        outputs.append((out_src.read_bytes(), out_tgt.read_bytes(), symmap.read_bytes()))
    assert outputs[0] == outputs[1]


def restore_inputs(work):
    mt = work / "checked_mt.en"
    mt.write_text("PER1 arrived\n", encoding="utf-8")
    symmap = work / "checked_symbols.tsv"
    symmap.write_text("0\tPER1\t安马\tPER\n", encoding="utf-8")
    return ["--input", str(mt), "--symmap", str(symmap), "--src-lang", "zh",
            "--tgt-lang", "en", "--out", str(work / "checked_restored.en")]


@pytest.mark.parametrize("command", ["replace", "align", "restore"])
def test_jobs_must_be_positive(capsys, work, nt_corpus, aligned_nt, command):
    zh, en, ann = nt_corpus
    alignments, _ = aligned_nt
    corpus = ["--src", str(zh), "--tgt", str(en), "--src-lang", "zh", "--tgt-lang", "en"]
    argv = {
        "replace": ["--alignments", str(alignments), *corpus,
                    "--out-src", str(work / "n.zh"), "--out-tgt", str(work / "n.en"),
                    "--out-symmap", str(work / "n.tsv")],
        "align": [*corpus, "--annotations", str(ann),
                  "--out-alignments", str(work / "n_alignments.tsv"),
                  "--out-pairs", str(work / "n_pairs.tsv")],
        "restore": restore_inputs(work),
    }[command]
    rc, _, err = run(capsys, command, *argv, "--jobs", "0")
    assert rc == 1
    assert "jobs" in err


@pytest.mark.parametrize("with_model", [False, True])
@pytest.mark.parametrize("flag, value", [("--jobs", "-2"), ("--beam", "0")])
def test_restore_checks_jobs_and_beam_up_front(capsys, work, tiny_model, flag, value,
                                               with_model):
    argv = restore_inputs(work)
    model = ["--model", str(tiny_model)] if with_model else []
    rc, _, err = run(capsys, "restore", *argv, *model, flag, value)
    assert rc == 1
    assert f"{flag} must be >= 1" in err
    assert not (work / "checked_restored.en").exists()


# -- config files ------------------------------------------------------------------


def test_config_file_sets_defaults_and_flags_override(capsys, work):
    cfg = work / "numnorm.cfg"
    cfg.write_text("# demo\nlang = en\n", encoding="utf-8")
    rc, out, _ = run(capsys, "numnorm", "--config", str(cfg), "october")
    assert rc == 0 and out == "1\n"
    # an explicit flag beats the file value; zh rules know no english months
    rc, out, _ = run(capsys, "numnorm", "--config", str(cfg), "--lang", "zh", "october")
    assert rc == 0 and out == "\n"


def test_config_boolean_words(capsys, work):
    sents = work / "cfg_input.zh"
    sents.write_text("安娜 爱 巴林\n", encoding="utf-8")
    ann = work / "cfg_ann.tsv"
    core.write_annotations([NeSpan(0, "source", 2, 3, NeType.LOC)], ann)
    vocab = work / "cfg_vocab.txt"
    vocab.write_text("巴林\n", encoding="utf-8")
    cfg = work / "replace.cfg"
    cfg.write_text("oov-only = yes\n", encoding="utf-8")
    out = work / "cfg_out.zh"
    rc, _, _ = run(capsys, "replace", "--config", str(cfg), "--input", str(sents),
                   "--lang", "zh", "--annotations", str(ann), "--vocab", str(vocab),
                   "--out", str(out), "--out-symmap", str(work / "cfg_symbols.tsv"))
    assert rc == 0
    # oov-only from the file: 巴林 is in vocabulary, so nothing is replaced
    assert out.read_text(encoding="utf-8") == "安娜 爱 巴林\n"


@pytest.mark.parametrize("text,complaint", [
    ("bogus = 1\n", "unknown configuration key"),
    ("sentences = lots\n", "bad value"),
    ("no equals sign\n", "key = value"),
])
def test_config_file_problems_exit_1(capsys, work, text, complaint):
    cfg = work / "bad.cfg"
    cfg.write_text(text, encoding="utf-8")
    rc, _, err = run(capsys, "synth", "--config", str(cfg),
                     "--out-dir", str(work / "unused"))
    assert rc == 1
    assert complaint in err


# -- run-twice determinism ----------------------------------------------------------


def test_repeated_invocations_print_identical_output(capsys, work, tiny_model):
    inputs = work / "det_inputs.txt"
    inputs.write_text("巴林\n马克\n", encoding="utf-8")
    outs = []
    for _ in range(2):
        rc, out, _ = run(capsys, "translate-ne", "--model", str(tiny_model),
                         "--input", str(inputs), "--k", "3")
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1]
