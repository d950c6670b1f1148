"""Golden outputs: every file of `netrans synth` and of the table-translator
pipeline, pinned by sha256.

`netrans synth` runs at its defaults, at a larger size and at another seed
with one-sided annotation drops; each file it writes must hash to the digest
committed in `golden/synth_<run>.sha256`.

The synthetic corpus also goes through align -> replace (corpus and
sentence mode) -> extract-lex -> restore with a seeded 5-best table
translator in place of the neural one, at one and at two jobs. Each file
written must hash to the digest committed in `golden/table_leg.sha256`.
The gazetteer leg runs the same stages over a larger corpus recognized by a
`Gazetteer` of its PER/LOC surfaces and the N/T token rules, and must hash
to `golden/gazetteer_leg.sha256`.

The neural leg pins what the two session translators (`tests/conftest.py`)
produce: both model files, the k-best lists of every distinct PER/LOC
surface at widths 1, 2 and 5, `translate-ne --k 5` over those surfaces, and
the files of align -> replace -> extract-lex -> restore run with the models,
at one and at two jobs, in `golden/neural_leg.sha256`.

All the other outputs are strings, integers and scores printed to six
decimals, so their digests hold on any platform. The neural ones depend on
the floating-point arithmetic of the numpy build and its BLAS, so
`golden/neural_leg.build` names the build they were made on, and on any
other build the leg skips and names both. A changed digest is an output
change: regenerate the file from the listing the failure prints, and say why
in CHANGES.md.
"""

import dataclasses
import hashlib
import random
import shutil
from pathlib import Path

import pytest

from netrans import core, pipeline, synth
from netrans.align import AlignConfig, align_corpus, write_alignments
from netrans.cli import main
from netrans.core import SOURCE, TARGET, NeType
from netrans.ner import AnnotationRecognizer, Gazetteer

GOLDEN = Path(__file__).parent / "golden"
LATIN = "abcdefghijklmnopqrstuvwxyz"


class KBestTable:
    """A k-best translator over a fixed table; module-level, so it pickles."""

    def __init__(self, table: dict[str, list[tuple[str, float]]]):
        self.table = table

    def __call__(self, text: str) -> list[tuple[str, float]]:
        return list(self.table.get(text, ()))


def _five_best(gold: str, alphabet: str, rng: random.Random) -> list[tuple[str, float]]:
    """Gold first, then four distinct one-character corruptions, with falling scores."""
    positions = [i for i, c in enumerate(gold) if c != " "]
    cands = [gold]
    while len(cands) < 5:
        i = rng.choice(positions)
        c = gold[:i] + rng.choice(alphabet) + gold[i + 1:]
        if c not in cands:
            cands.append(c)
    return [(c, -0.1 - 0.5 * rank) for rank, c in enumerate(cands)]


def _translators(plants, seed: int) -> tuple[KBestTable, KBestTable]:
    rng = random.Random(seed)
    hanzi = "".join(sorted({c for p in plants for c in p.src}))
    s2t: dict[str, list[tuple[str, float]]] = {}
    t2s: dict[str, list[tuple[str, float]]] = {}
    for p in plants:
        if p.ne_type is NeType.NT:
            continue
        if p.src not in s2t:
            s2t[p.src] = _five_best(p.tgt, LATIN, rng)
        if p.tgt not in t2s:
            t2s[p.tgt] = _five_best(p.src, hanzi, rng)
    return KBestTable(s2t), KBestTable(t2s)


def _gazetteer(plants) -> Gazetteer:
    """Every PER/LOC surface of both languages, less those planted as both types."""
    types: dict[str, set[NeType]] = {}
    for p in plants:
        if p.ne_type is not NeType.NT:
            for surface in (p.src, p.tgt):
                types.setdefault(surface, set()).add(p.ne_type)
    return Gazetteer({tuple(surface.split()): ne_type
                      for surface, kinds in types.items() if len(kinds) == 1
                      for ne_type in kinds})


def run_table_leg(out: Path, jobs: int) -> None:
    """The pipeline over the default corpus, recognized by its annotations."""
    sc = synth.make_corpus(50, 200, seed=42)
    run_leg(out, jobs, sc, AnnotationRecognizer(sc.annotations))


def run_gazetteer_leg(out: Path, jobs: int) -> None:
    """The pipeline over a larger corpus, recognized by gazetteer and N/T rules."""
    sc = synth.make_corpus(1000, 2000, seed=42, min_occurrences=1)
    run_leg(out, jobs, sc, _gazetteer(sc.plant_pairs))


def run_leg(out: Path, jobs: int, sc: synth.SynthCorpus, recognizer) -> None:
    """Write every file of the pipeline under `out`, as the CLI chains the stages."""
    s2t, t2s = _translators(sc.plant_pairs, seed=42)

    alignments, ne_pairs = align_corpus(sc.corpus, recognizer, AlignConfig(), s2t, t2s,
                                        jobs=jobs)
    write_alignments(alignments, out / "alignments.tsv")
    core.write_ne_pairs(ne_pairs, out / "pairs.tsv")

    by_sid: dict[int, list] = {}
    for a in alignments:
        by_sid.setdefault(a.sentence_id, []).append(a)
    results = [pipeline.replace_training_pair(pair, by_sid.get(pair.id, []))
               for pair in sc.corpus]
    core.write_parallel_corpus([pair for pair, _ in results],
                               out / "rewritten.zh", out / "rewritten.en")
    pipeline.write_symbol_map([e for _, group in results for e in group], out / "symbols.tsv")

    tests = [pipeline.replace_test_sentence(pair.src,
                                            recognizer.recognize(pair.src, pair.id, "source"),
                                            sentence_id=pair.id)
             for pair in sc.corpus]
    core.write_lines(out / "test.zh", (sentence.text() for sentence, _ in tests))
    pipeline.write_symbol_map([e for _, group in tests for e in group], out / "test_symbols.tsv")

    pipeline.extract_lexical_table(core.read_ne_pairs(out / "pairs.tsv")).write(out / "lex.tsv")
    table = pipeline.LexicalTable.read(out / "lex.tsv")

    # every other pair of the table, so test-time restore uses each backoff
    half = pipeline.LexicalTable.from_pairs(core.read_ne_pairs(out / "pairs.tsv")[::2])
    restores = (("restored.en", "rewritten.en", "symbols.tsv", table),
                ("test_restored.en", "test.zh", "test_symbols.tsv", half))
    for name, text, symbols, lex in restores:
        restored, report = pipeline.restore_corpus(
            core.read_sentences(out / text, synth.EN), pipeline.read_symbol_map(out / symbols),
            lex, s2t, jobs=jobs, src_lang=synth.ZH, tgt_lang=synth.EN)
        core.write_lines(out / name, (sentence.text() for sentence in restored))
        core.write_lines(out / (name + ".report"),
                         (f"{count}\t{n}" for count, n in vars(report).items()))


def digest_listing(out: Path) -> str:
    """`sha256sum`-style lines for every file under `out`, by name."""
    return "".join(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
                   for path in sorted(out.iterdir()))


def _check_leg(run, out: Path, jobs: int, leg: str) -> None:
    run(out, jobs)
    got = digest_listing(out)
    assert got == (GOLDEN / f"{leg}.sha256").read_text(encoding="utf-8"), \
        f"digests now:\n{got}"


@pytest.mark.parametrize("jobs", [1, 2])
def test_table_leg_outputs_match_the_committed_digests(tmp_path, jobs):
    _check_leg(run_table_leg, tmp_path, jobs, "table_leg")


@pytest.mark.parametrize("jobs", [1, 2])
def test_gazetteer_leg_outputs_match_the_committed_digests(tmp_path, jobs):
    _check_leg(run_gazetteer_leg, tmp_path, jobs, "gazetteer_leg")


SYNTH_RUNS = {
    "defaults": [],
    "pairs1000": ["--pairs", "1000", "--sentences", "2000"],
    "seed7_drop": ["--seed", "7", "--oneside-drop", "0.3"],
}


@pytest.mark.parametrize("run", sorted(SYNTH_RUNS))
def test_synth_outputs_match_the_committed_digests(tmp_path, capsys, run):
    assert main(["synth", "--out-dir", str(tmp_path), *SYNTH_RUNS[run]]) == 0
    got = digest_listing(tmp_path)
    assert got == (GOLDEN / f"synth_{run}.sha256").read_text(encoding="utf-8"), \
        f"digests now:\n{got}"


def numpy_build() -> str:
    """The numpy version and the name and version of the BLAS it was built with."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.25 only prints its configuration
        name = "unknown"
    return f"numpy {np.__version__}; blas {name}"


def run_neural_leg(out: Path, jobs: int, sc: synth.SynthCorpus, translators, capsys) -> None:
    """Write the models, their k-best lists and every file of the pipeline
    run through the CLI with them under `out`."""
    s2t, t2s = translators
    recognizer = AnnotationRecognizer(sc.annotations)
    surfaces = {
        direction: list(dict.fromkeys(
            span.surface for pair in sc.corpus
            for span in recognizer.recognize(getattr(pair, attr), pair.id, side)
            if span.ne_type is not NeType.NT))
        for direction, attr, side in (("s2t", "src", SOURCE), ("t2s", "tgt", TARGET))}
    work = out.parent / f"{out.name}.work"  # inputs, kept out of the listing
    work.mkdir()

    def cli(*argv: str) -> str:
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    for direction, translator in (("s2t", s2t), ("t2s", t2s)):
        shutil.copyfile(translator.path, out / f"model.{direction}.bin")
        for width in (1, 2, 5):
            decode = dataclasses.replace(translator, beam_width=width)
            core.write_lines(out / f"kbest.{direction}.w{width}.tsv",
                             (f"{surface}\t{candidate}\t{logprob!r}"
                              for surface in surfaces[direction]
                              for candidate, logprob in decode(surface)))
        inputs = work / f"surfaces.{direction}.txt"
        core.write_lines(inputs, surfaces[direction])
        stdout = cli("translate-ne", "--model", translator.path, "--input", str(inputs),
                     "--k", "5")
        (out / f"translate.{direction}.k5.out").write_text(stdout, encoding="utf-8")

    zh, en, ann = (str(work / name) for name in ("corpus.zh", "corpus.en", "annotations.tsv"))
    core.write_parallel_corpus(sc.corpus, zh, en)
    core.write_annotations(sc.annotations, ann)
    langs = ["--src-lang", synth.ZH, "--tgt-lang", synth.EN]
    o = {name: str(out / name) for name in (
        "alignments.tsv", "pairs.tsv", "rewritten.zh", "rewritten.en", "symbols.tsv",
        "test.zh", "test_symbols.tsv", "lex.tsv", "half_lex.tsv", "restored.en",
        "test_restored.en")}
    stdout = {
        "align": cli("align", "--src", zh, "--tgt", en, *langs, "--annotations", ann,
                     "--model-s2t", s2t.path, "--model-t2s", t2s.path,
                     "--out-alignments", o["alignments.tsv"], "--out-pairs", o["pairs.tsv"],
                     "--jobs", str(jobs)),
        "replace": cli("replace", "--alignments", o["alignments.tsv"], "--src", zh,
                       "--tgt", en, *langs, "--out-src", o["rewritten.zh"],
                       "--out-tgt", o["rewritten.en"], "--out-symmap", o["symbols.tsv"]),
        "replace_test": cli("replace", "--input", zh, "--lang", synth.ZH, "--annotations", ann,
                            "--out", o["test.zh"], "--out-symmap", o["test_symbols.tsv"]),
        "extract_lex": cli("extract-lex", "--pairs", o["pairs.tsv"], "--out", o["lex.tsv"]),
    }
    # every other pair of the table, so test-time restore asks the model too
    pipeline.LexicalTable.from_pairs(core.read_ne_pairs(o["pairs.tsv"])[::2]).write(
        o["half_lex.tsv"])
    for name, text, symbols, lex in (
            ("restored.en", "rewritten.en", "symbols.tsv", "lex.tsv"),
            ("test_restored.en", "test.zh", "test_symbols.tsv", "half_lex.tsv")):
        stdout[name] = cli("restore", "--input", o[text], "--symmap", o[symbols],
                           "--lex", o[lex], "--model", s2t.path, *langs, "--out", o[name],
                           "--jobs", str(jobs))
    for name, text in stdout.items():
        (out / f"{name}.out").write_text(text, encoding="utf-8")


@pytest.mark.parametrize("jobs", [1, 2])
def test_neural_leg_outputs_match_the_committed_digests(tmp_path, capsys, synth_corpus,
                                                       translators, jobs):
    pinned = (GOLDEN / "neural_leg.build").read_text(encoding="utf-8").strip()
    here = numpy_build()
    if here != pinned:
        pytest.skip(f"neural digests were made on {pinned}; this is {here}")
    out = tmp_path / "out"
    out.mkdir()
    run_neural_leg(out, jobs, synth_corpus, translators, capsys)
    got = digest_listing(out)
    assert got == (GOLDEN / "neural_leg.sha256").read_text(encoding="utf-8"), \
        f"digests now:\n{got}"
