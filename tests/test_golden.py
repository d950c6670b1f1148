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

All these outputs are strings, integers and scores printed to six decimals,
so the digests hold on any platform. A changed digest is an output change:
regenerate the file from the listing the failure prints, and say why in
CHANGES.md.
"""

import hashlib
import random
from pathlib import Path

import pytest

from netrans import core, pipeline, synth
from netrans.align import AlignConfig, align_corpus, write_alignments
from netrans.cli import main
from netrans.core import NeType
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
