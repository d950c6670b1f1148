"""Command-line behavior: exit codes, output formats, determinism."""

import concurrent.futures
import os
import subprocess
import sys
from pathlib import Path

import pytest

import netrans
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


# flag -> a good line and a line with a wrong column count, for each file a command reads
MALFORMED = {
    "pairs": ("巴林\tbalin\tLOC", "only-one-column"),
    "annotations": ("0\tsource\t2\t5\tNT", "0\tsource\t2\t5"),
    "gazetteer": ("巴林\tLOC", "巴林\tLOC\textra"),
    "alignments": ("0\t2\t5\t5\t7\tNT\t1.0\tboth", "0\t2\t5\t5\t7\tNT\t1.0"),
    "symmap": ("0\tNT1\t十月\tNT", "0\tNT1"),
    "lex": ("巴林\tbalin\t1", "巴林\tbalin"),
}


@pytest.mark.parametrize("flag", MALFORMED)
def test_malformed_data_exits_2(capsys, work, nt_corpus, flag):
    zh, en, _ = nt_corpus
    bad = work / f"malformed_{flag}.tsv"
    bad.write_text("\n".join(MALFORMED[flag]) + "\n", encoding="utf-8")
    symmap = work / "malformed_ok_symbols.tsv"
    symmap.write_text(MALFORMED["symmap"][0] + "\n", encoding="utf-8")
    out = [str(work / f"malformed_unused.{i}") for i in range(3)]
    corpus = ["--src", str(zh), "--tgt", str(en), "--src-lang", "zh", "--tgt-lang", "en"]
    align = ["align", *corpus, "--out-alignments", out[0], "--out-pairs", out[1]]
    restore = ["restore", "--input", str(en), "--src-lang", "zh", "--tgt-lang", "en",
               "--out", out[0]]
    argv = {
        "pairs": ["extract-lex", "--pairs", str(bad), "--out", out[0]],
        "annotations": [*align, "--annotations", str(bad)],
        "gazetteer": [*align, "--gazetteer", str(bad)],
        "alignments": ["replace", "--alignments", str(bad), *corpus, "--out-src", out[0],
                       "--out-tgt", out[1], "--out-symmap", out[2]],
        "symmap": [*restore, "--symmap", str(bad)],
        "lex": [*restore, "--symmap", str(symmap), "--lex", str(bad)],
    }[flag]
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert err.startswith(f"error: {bad}:2: expected ")


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


def test_translate_ne_decodes_each_distinct_line_once(capsys, work, tiny_model, monkeypatch):
    from netrans import neural

    calls = []
    decode = neural.translate

    def counting(model, text, *args, **kwargs):
        calls.append(text)
        return decode(model, text, *args, **kwargs)

    monkeypatch.setattr(neural, "translate", counting)
    lines = ["巴林", "安娜", "巴林", " 安娜 ", "马克", "巴林"]
    inputs = work / "repeated_inputs.txt"
    inputs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = work / "repeated_kbest.tsv"
    rc, _, _ = run(capsys, "translate-ne", "--model", str(tiny_model),
                   "--input", str(inputs), "--out", str(out), "--k", "2")
    assert rc == 0
    assert calls == ["巴林", "安娜", "马克"]
    # the same rows, in input order, as decoding every line on its own
    alone = b""
    for n, line in enumerate(lines):
        one = work / f"repeated_one_{n}.txt"
        one.write_text(line + "\n", encoding="utf-8")
        one_out = work / f"repeated_one_{n}.tsv"
        rc, _, _ = run(capsys, "translate-ne", "--model", str(tiny_model),
                       "--input", str(one), "--out", str(one_out), "--k", "2")
        assert rc == 0
        alone += one_out.read_bytes()
    assert out.read_bytes() == alone
    assert len(calls) == 3 + len(lines)


def test_translate_ne_checks_every_line_before_decoding(capsys, work, tiny_model, monkeypatch):
    from netrans import neural

    calls = []
    monkeypatch.setattr(neural, "translate", lambda *args: calls.append(args))
    inputs = work / "late_empty_line.txt"
    inputs.write_text("巴林\n安娜\n  \n马克\n", encoding="utf-8")
    out = work / "late_empty_unused.tsv"
    rc, _, err = run(capsys, "translate-ne", "--model", str(tiny_model),
                     "--input", str(inputs), "--out", str(out))
    assert rc == 2
    assert "empty line 3" in err
    assert calls == []
    assert not out.exists()


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


def test_translate_ne_checks_max_len_before_reading_an_empty_input(capsys, work, tiny_model):
    inputs = work / "max_len_empty_inputs.txt"
    inputs.write_text("", encoding="utf-8")
    out = work / "max_len_empty_unused.tsv"
    rc, _, err = run(capsys, "translate-ne", "--model", str(tiny_model),
                     "--input", str(inputs), "--out", str(out), "--max-len", "0")
    assert rc == 1
    assert "max_len must be >= 1, got 0" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["translate-ne", "score-ne"])
def test_an_impossible_size_in_a_model_header_exits_2(capsys, work, tiny_model, tiny_pairs,
                                                     command):
    bad = work / "zero_hidden.bin"
    blob = tiny_model.read_bytes()
    assert blob.count(b'"hidden_size":10') == 1
    bad.write_bytes(blob.replace(b'"hidden_size":10', b'"hidden_size": 0'))  # same length
    inputs = work / "zero_hidden_inputs.txt"
    inputs.write_text("巴林\n", encoding="utf-8")
    data = {"translate-ne": ["--input", str(inputs)], "score-ne": ["--pairs", str(tiny_pairs)]}
    rc, _, err = run(capsys, command, "--model", str(bad), *data[command])
    assert rc == 2
    assert err.startswith(f"error: {bad}: malformed header ")


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


def test_restore_warns_about_entries_of_missing_sentences(work):
    # run as a command, so that the warning is seen on the process's stderr
    mt = work / "short_mt.en"
    mt.write_text("PER1 arrived\n", encoding="utf-8")
    symmap = work / "short_symbols.tsv"
    symmap.write_text("0\tPER1\t安娜\tPER\tanna\n3\tPER1\t马克\tPER\tmake\n"
                      "3\tNT1\t十月\tNT\n9\tLOC1\t巴林\tLOC\n", encoding="utf-8")
    out = work / "short_restored.en"
    env = dict(os.environ, PYTHONPATH=str(Path(netrans.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "netrans.cli", "restore", "--input", str(mt),
                           "--symmap", str(symmap), "--src-lang", "zh", "--tgt-lang", "en",
                           "--out", str(out)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0
    assert "unrealized\t4\n" in proc.stdout  # with no table, sentence 0's PER1 too
    assert proc.stderr == ("WARNING netrans.pipeline: 3 symbol-map entries for 2 sentence id(s) "
                           "the output does not have, counted as unrealized\n")
    assert out.read_text(encoding="utf-8") == "PER1 arrived\n"


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
    calls = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers)
            self.workers = max_workers

        def map(self, fn, items, **kwargs):
            calls.append((fn, list(items), self.workers))
            return super().map(fn, items, **kwargs)

    # the model decode fans out through align.decode_once
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    mt = work / "jobs_mt.en"
    mt.write_text("PER1 arrived\nPER1 left PER2\nwe met PER1 and PER2 on NT1\n",
                  encoding="utf-8")
    symmap = work / "jobs_symbols.tsv"
    # two unseen names, so two jobs start a pool, one the table knows, and a number
    symmap.write_text("0\tPER1\t安马\tPER\n1\tPER1\t安马\tPER\n1\tPER2\t巴林\tLOC\n"
                      "2\tPER1\t安马\tPER\n2\tPER2\t马安\tPER\n2\tNT1\t五月\tNT\n",
                      encoding="utf-8")
    lex = work / "jobs_lex.tsv"
    lex.write_text("巴林\tbahrain\t1\n", encoding="utf-8")
    for model_flags in ([], ["--model", str(tiny_model)]):
        results = []
        for jobs in ("1", "2"):
            calls.clear()
            out = work / f"jobs_restored_{len(model_flags)}_{jobs}.en"
            rc, report, _ = run(capsys, "restore", "--input", str(mt), "--symmap", str(symmap),
                                "--lex", str(lex), *model_flags, "--src-lang", "zh",
                                "--tgt-lang", "en", "--out", str(out), "--jobs", jobs)
            assert rc == 0
            pooled = model_flags and jobs == "2"
            assert [call[1:] for call in calls] == ([(["安马", "马安"], 2)] if pooled else [])
            results.append((out.read_bytes(), report))
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


def test_replace_rejects_rows_for_sentences_the_corpus_lacks_and_writes_nothing(capsys, work):
    zh, en = work / "one.zh", work / "one.en"
    zh.write_text("出口 增长 百分之四点二\n", encoding="utf-8")
    en.write_text("exports grew 4.2%\n", encoding="utf-8")
    rows = work / "unknown_sentence.tsv"
    rows.write_text("0\t2\t3\t2\t3\tNT\t1.0\tboth\n7\t0\t1\t0\t1\tNT\t1.0\tboth\n"
                    "9\t0\t1\t0\t1\tNT\t1.0\tboth\n", encoding="utf-8")
    outputs = [work / "unknown.zh", work / "unknown.en", work / "unknown_symbols.tsv"]
    rc, out, err = run(capsys, "replace", "--alignments", str(rows),
                       "--src", str(zh), "--tgt", str(en),
                       "--src-lang", "zh", "--tgt-lang", "en",
                       "--out-src", str(outputs[0]), "--out-tgt", str(outputs[1]),
                       "--out-symmap", str(outputs[2]))
    assert rc == 2
    assert out == ""
    assert err == (f"error: {rows}: rows for 2 sentence id(s) the 1-pair corpus does not "
                   "have, the first 7\n")
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


@pytest.mark.parametrize("flag, value", [
    ("--noise", "5"), ("--noise", "-1"), ("--oneside-drop", "2"), ("--oneside-drop", "-0.5"),
    ("--extra-train", "-3"),
])
def test_synth_rejects_out_of_range_settings(capsys, work, flag, value):
    out_dir = work / f"synth_bad{flag}{value}"
    rc, out, err = run(capsys, "synth", "--out-dir", str(out_dir), "--pairs", "6",
                       "--sentences", "30", flag, value)
    assert rc == 1
    assert flag[2:].replace("-", "_") in err and out == ""
    assert not out_dir.exists()


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


def test_replace_starts_no_worker_process(work, nt_corpus, aligned_nt, monkeypatch):
    zh, en, ann = nt_corpus
    alignments, _ = aligned_nt

    def replace(mode, jobs):
        """The output files of one `replace` run, read back."""
        out = [work / f"np_{mode}_{jobs}.{ext}" for ext in ("zh", "en", "tsv")]
        argv = {
            "corpus": ["--alignments", str(alignments), "--src", str(zh), "--tgt", str(en),
                       "--src-lang", "zh", "--tgt-lang", "en",
                       "--out-src", str(out[0]), "--out-tgt", str(out[1])],
            "sentence": ["--input", str(zh), "--lang", "zh", "--annotations", str(ann),
                         "--out", str(out[0])],
        }[mode]
        assert main(["replace", *argv, "--out-symmap", str(out[2]), "--jobs", jobs]) == 0
        return [f.read_bytes() for f in out if f.exists()]

    sequential = {mode: replace(mode, "1") for mode in ("corpus", "sentence")}

    def no_pool(*args, **kwargs):
        raise AssertionError("replace started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    for mode, files in sequential.items():
        assert len(files) == (3 if mode == "corpus" else 2)
        assert b"NT" in files[-1]  # symbols were written
        assert replace(mode, "2") == files


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


# -- start-up: each process loads only what it runs ---------------------------


def _loaded_in_fresh_process(code: str, watched) -> list[str]:
    """Which of the `watched` modules a fresh interpreter holds after `code`,
    read from the last line it prints."""
    env = dict(os.environ, PYTHONPATH=str(Path(netrans.__file__).parents[1]))
    probe = f"{code}\nimport sys\nprint(' '.join(m for m in {tuple(watched)!r} if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


@pytest.mark.parametrize("module, unloaded", [
    ("netrans.cli", ("numpy", "multiprocessing")),
    ("netrans.align", ("multiprocessing",)),
    ("netrans.pipeline", ("multiprocessing",)),
    ("netrans.synth", ("multiprocessing",)),
])
def test_importing_loads_neither_numpy_nor_the_worker_pool(module, unloaded):
    assert _loaded_in_fresh_process(f"import {module}", unloaded) == []


def test_model_free_subcommands_run_without_numpy_or_the_worker_pool(tmp_path, nt_corpus):
    d = tmp_path
    zh, en, ann = nt_corpus  # numeric entities only, so align needs no model
    runs = [
        ["synth", "--out-dir", d, "--pairs", "12", "--sentences", "40"],
        ["sim", "巴林", "巴森"],
        ["numnorm", "十月五日"],
        ["align", "--src", zh, "--tgt", en, "--src-lang", "zh", "--tgt-lang", "en",
         "--annotations", ann, "--jobs", "2",
         "--out-alignments", d / "nt.tsv", "--out-pairs", d / "nt_pairs.tsv"],
        ["eval-align", "--pred", d / "gold_alignments.tsv", "--gold", d / "gold_alignments.tsv"],
        ["eval-ne", "--hyp", d / "plant_pairs.tsv", "--ref", d / "plant_pairs.tsv"],
        ["extract-lex", "--pairs", d / "plant_pairs.tsv", "--out", d / "lex.tsv"],
        ["replace", "--alignments", d / "gold_alignments.tsv", "--src", d / "corpus.zh",
         "--tgt", d / "corpus.en", "--src-lang", "zh", "--tgt-lang", "en", "--jobs", "2",
         "--out-src", d / "r.zh", "--out-tgt", d / "r.en", "--out-symmap", d / "symbols.tsv"],
        ["restore", "--input", d / "r.en", "--symmap", d / "symbols.tsv", "--lex", d / "lex.tsv",
         "--src-lang", "zh", "--tgt-lang", "en", "--out", d / "restored.en", "--jobs", "2"],
    ]
    calls = "".join(f"assert main({[str(arg) for arg in argv]!r}) == 0\n" for argv in runs)
    code = f"from netrans.cli import main\n{calls}"
    assert _loaded_in_fresh_process(code, ("numpy", "multiprocessing")) == []
    assert (d / "restored.en").read_bytes() == (d / "corpus.en").read_bytes()
