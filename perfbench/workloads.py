"""Benchmark workloads: seeded inputs and one timed pass of the pipeline.

A pass runs the paper's batch pipeline in one process through the library
API the CLI calls (train-ne -> align -> replace -> extract-lex -> restore,
then a test-time replace -> restore on held-out text).  Corpus files are
written at set-up and read and written by ``netrans.core`` inside the pass.

Two workloads stress different layers:

* ``pipeline`` trains both neural translators and decodes with them, so
  training and beam search dominate.  Align asks the decoder for 5-best
  lists of few, often repeated surfaces; test-time restore asks for the
  1-best of many distinct, unseen ones.
* ``lexicon`` has no neural model at all: a gazetteer recognizes entities
  and a generated candidate table stands in for the decoder, so the
  recognizer, the LCS kernel and digit-skeleton normalization dominate.

A stage that raises is counted as failed with all of its sentences, and
every later stage of that pass is skipped and counted failed as well, so a
bad stage shows up in the numbers instead of ending the run.
"""

from __future__ import annotations

import hashlib
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

from netrans import align, core, neural, pipeline, synth
from netrans.core import SOURCE, NeType, Sentence
from netrans.ner import AnnotationRecognizer, Gazetteer

PIPELINE = "pipeline"
LEXICON = "lexicon"

# the model settings of the test suite's translator fixtures; the seed is Spec.model_seed
MODEL_CONFIG = neural.ModelConfig(hidden_size=32, embed_size=16, learning_rate=1.0)
LATIN = "abcdefghijklmnopqrstuvwxyz"
CANDIDATES = 5  # table translator: gold plus four corruptions, like a 5-best decoder


@dataclass(frozen=True)
class Spec:
    """Sizes and settings of one workload."""

    name: str
    neural: bool  # train and decode with the neural translators, else a candidate table
    n_pairs: int
    n_sentences: int
    heldout_pairs: int
    heldout_sentences: int
    min_occurrences: int
    epochs: int
    beam: int = 5
    model_seed: int = 42


SPECS = {
    # training runs a fixed epoch count with no early stopping, so passes compare;
    # 40 epochs reach alignment F1 ~0.96 on this corpus, 20 only ~0.8
    PIPELINE: Spec(PIPELINE, neural=True, n_pairs=50, n_sentences=200, heldout_pairs=200,
                   heldout_sentences=200, min_occurrences=2, epochs=40),
    LEXICON: Spec(LEXICON, neural=False, n_pairs=1000, n_sentences=2000, heldout_pairs=1000,
                  heldout_sentences=2000, min_occurrences=1, epochs=0),
}


@dataclass
class Inputs:
    """Everything generated from the seed; ``files`` are the on-disk inputs."""

    spec: Spec
    train: synth.SynthCorpus
    heldout: synth.SynthCorpus
    files: dict[str, Path]
    tables: dict[str, dict[str, list[tuple[str, float]]]] | None = None

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode())
            h.update(self.files[name].read_bytes())
        return h.hexdigest()


def generate(spec: Spec, seed: int) -> tuple[synth.SynthCorpus, synth.SynthCorpus]:
    """Training corpus at ``seed`` and held-out corpus at ``seed + 1`` (unseen names)."""
    train = synth.make_corpus(n_pairs=spec.n_pairs, n_sentences=spec.n_sentences, seed=seed,
                              noise=0.1, min_occurrences=spec.min_occurrences)
    heldout = synth.make_corpus(n_pairs=spec.heldout_pairs, n_sentences=spec.heldout_sentences,
                                seed=seed + 1, min_occurrences=1)
    return train, heldout


def _corrupt(gold: str, alphabet: str, rng: random.Random) -> list[tuple[str, float]]:
    """Gold first, then distinct one-character corruptions, with falling scores."""
    positions = [i for i, c in enumerate(gold) if c != " "]
    cands = [gold]
    while len(cands) < CANDIDATES:
        i = rng.choice(positions)
        c = gold[:i] + rng.choice(alphabet) + gold[i + 1:]
        if c not in cands:
            cands.append(c)
    return [(c, -0.1 - 0.5 * rank) for rank, c in enumerate(cands)]


def make_tables(plants, seed: int) -> dict[str, dict[str, list[tuple[str, float]]]]:
    """Per-direction candidate tables for the PER/LOC plants, gold translation first."""
    rng = random.Random(seed)
    hanzi = "".join(sorted({c for p in plants for c in p.src}))
    s2t: dict[str, list[tuple[str, float]]] = {}
    t2s: dict[str, list[tuple[str, float]]] = {}
    for p in plants:
        if p.ne_type is NeType.NT:
            continue
        if p.src not in s2t:
            s2t[p.src] = _corrupt(p.tgt, LATIN, rng)
        if p.tgt not in t2s:
            t2s[p.tgt] = _corrupt(p.src, hanzi, rng)
    return {neural.S2T: s2t, neural.T2S: t2s}


def _write_gazetteer(plants, path: Path) -> None:
    """Every PER/LOC surface of both languages, less those planted as both types.

    Two names can transliterate alike ("nan an", "na nan"); a gazetteer
    rejects a surface listed with two types, so such surfaces are left out.
    """
    types: dict[str, set[NeType]] = {}
    for p in plants:
        if p.ne_type is not NeType.NT:
            for surface in (p.src, p.tgt):
                types.setdefault(surface, set()).add(p.ne_type)
    with open(path, "w", encoding="utf-8") as fh:
        for surface, kinds in types.items():
            if len(kinds) == 1:
                (ne_type,) = kinds
                fh.write(f"{surface}\t{ne_type.value}\n")


def setup(spec: Spec, seed: int, directory: Path) -> Inputs:
    """Generate the inputs for ``seed`` and write them under ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    train, heldout = generate(spec, seed)
    files = {name: directory / name for name in
             ("train.zh", "train.en", "heldout.zh", "heldout.en")}
    core.write_parallel_corpus(train.corpus, files["train.zh"], files["train.en"])
    core.write_parallel_corpus(heldout.corpus, files["heldout.zh"], files["heldout.en"])
    tables = None
    if spec.neural:
        files["train.ann"] = directory / "train.ann"
        files["heldout.ann"] = directory / "heldout.ann"
        files["train_pairs.tsv"] = directory / "train_pairs.tsv"
        core.write_annotations(train.annotations, files["train.ann"])
        core.write_annotations(heldout.annotations, files["heldout.ann"])
        core.write_ne_pairs(train.train_pairs, files["train_pairs.tsv"])
    else:
        files["train.gaz"] = directory / "train.gaz"
        files["heldout.gaz"] = directory / "heldout.gaz"
        _write_gazetteer(train.plant_pairs, files["train.gaz"])
        _write_gazetteer(heldout.plant_pairs, files["heldout.gaz"])
        tables = make_tables(train.plant_pairs + heldout.plant_pairs, seed)
    return Inputs(spec, train, heldout, files, tables)


def timed_setup(spec: Spec, seed: int, directory: Path) -> tuple[Inputs, float]:
    """``setup`` and the ``perf_counter`` reading at its end.

    ``perf_counter`` reads the system-wide monotonic clock, so the parent
    subtracts the reading it took before starting this process: set-up time
    from process start to the last file written, without handing the
    inputs back.
    """
    inputs = setup(spec, seed, directory)
    return inputs, time.perf_counter()


class TableTranslator:
    """k-best translator over a fixed candidate table (the lexicon workload's decoder)."""

    def __init__(self, table: dict[str, list[tuple[str, float]]]):
        self.table = table

    def __call__(self, text: str) -> list[tuple[str, float]]:
        return list(self.table.get(text, ()))


# Pure-Python work of fixed size, timed now and then inside each stage to
# gauge how fast the host runs this process at that moment: other tenants
# of a shared host slow it by up to ~75% for seconds to minutes at a time,
# and its CPU time as much as its wall time.  A cache-missing dict walk and
# small numpy products, tried as probes on a 2-core Xeon VM, normalized the
# stages no better overall than this integer loop.
PROBE_LOOPS = 10_000
PROBE_EVERY_NS = 25_000_000
# the probe's time on an uncontended core of a 2.1 GHz Xeon (Python 3.11);
# host-normalized times are at this speed
PROBE_REFERENCE_NS = 600_000


def probe_ns() -> int:
    started = time.perf_counter_ns()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter_ns() - started


def host_speed() -> float:
    """The host's speed now, relative to the probe's reference: median of five probes."""
    return PROBE_REFERENCE_NS / statistics.median(probe_ns() for _ in range(5))


@dataclass
class Timeline:
    """One stage as pieces of work (ns) and probe times taken between them.

    ``probes`` holds (number of pieces done, probe ns); probe time is not
    part of any piece.
    """

    pieces: list[int] = field(default_factory=list)
    probes: list[tuple[int, int]] = field(default_factory=list)

    def wall_s(self) -> float:
        return sum(self.pieces) / 1e9

    def normalized_s(self) -> float:
        """The stage's time at the probe's reference speed.

        Each piece is scaled by the reference over the probe times around
        it, smoothed by a median over five probes against one-off stalls.
        """
        times = [ns for _, ns in self.probes]
        smooth = [statistics.median(times[max(0, i - 2):i + 3]) for i in range(len(times))]
        total, k = 0.0, 0
        for j, piece in enumerate(self.pieces):
            while k + 1 < len(self.probes) and self.probes[k + 1][0] <= j:
                k += 1
            around = (smooth[k] + smooth[min(k + 1, len(smooth) - 1)]) / 2
            total += piece * PROBE_REFERENCE_NS / around
        return total / 1e9

    def speed(self) -> float:
        """The host's speed during the stage, relative to the probe's reference."""
        return PROBE_REFERENCE_NS / statistics.median(ns for _, ns in self.probes)


class Clock:
    """Splits each stage into pieces at the benchmark's own hooks.

    The recognizer and translators the benchmark hands to the library, and
    the training epoch callback, mark the clock; a probe runs at a mark when
    ``PROBE_EVERY_NS`` have passed since the last one, and at both ends of
    the stage.
    """

    def __init__(self):
        self.timelines: dict[str, Timeline] = {}
        self._timeline = Timeline()
        self._last = self._last_probe = 0

    def start(self, stage: str) -> None:
        self._timeline = self.timelines[stage] = Timeline(probes=[(0, probe_ns())])
        self._last = self._last_probe = time.perf_counter_ns()

    def mark(self, force_probe: bool = False) -> None:
        now = time.perf_counter_ns()
        self._timeline.pieces.append(now - self._last)
        if force_probe or now - self._last_probe >= PROBE_EVERY_NS:
            self._timeline.probes.append((len(self._timeline.pieces), probe_ns()))
            now = self._last_probe = time.perf_counter_ns()
        self._last = now

    def stop(self) -> None:
        self.mark(force_probe=True)

    def marked(self, fn):
        """``fn`` marking the clock on entry and on return."""
        def call(*args):
            self.mark()
            try:
                return fn(*args)
            finally:
                self.mark()
        return call


# -- one pass -------------------------------------------------------------------

OUTPUT_FILES = ("alignments.tsv", "pairs.tsv", "symbols.tsv", "restored.en",
                "test_symbols.tsv", "test_restored.en")


@dataclass
class PassResult:
    """What one process running some of the stages measured and produced."""

    stage_s: dict[str, float] = field(default_factory=dict)  # wall, probes excluded
    stage_cpu_s: dict[str, float] = field(default_factory=dict)  # process CPU, probes included
    stage_units: dict[str, int] = field(default_factory=dict)
    failed_stages: list[str] = field(default_factory=list)
    total_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    epoch_s: list[list[float]] = field(default_factory=list)  # per direction
    final_losses: list[float] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    restore: dict[str, dict[str, int]] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    timelines: dict[str, Timeline] = field(default_factory=dict)


class _State:
    """Files and intermediate results handed from stage to stage."""

    def __init__(self, inputs: Inputs, out: Path, models: Path, tracer, clock: Clock):
        self.inputs = inputs
        self.spec = inputs.spec
        self.out = out
        self.models = models
        self.tracer = tracer
        self.clock = clock
        self.files = inputs.files
        self.alignments = None
        self.table = None
        self.restored_train: list[str] = []
        self.test_symbols = 0
        self.test_items: list[list[tuple]] = []
        self.test_restored: list[tuple[str, ...]] = []

    def translator(self, direction: str):
        """The workload's translator, marking the clock (and traced in a traced pass)."""
        if self.spec.neural:
            t = align.ModelTranslator(str(self.models / f"{direction}.bin"), self.spec.beam)
        else:
            t = TableTranslator(self.inputs.tables[direction])
        t = self.clock.marked(t)
        return self.tracer.translator(t) if self.tracer else t


def _train(st: _State, result: PassResult) -> None:
    pairs = core.read_ne_pairs(st.files["train_pairs.tsv"])
    for direction in (neural.S2T, neural.T2S):
        losses, epoch_s = [], []
        last = time.perf_counter()

        def on_epoch(epoch, train_loss, dev_loss, model):
            nonlocal last
            st.clock.mark()
            now = time.perf_counter()
            epoch_s.append(now - last)
            last = now
            losses.append(train_loss)
            return False

        # patience == epochs: every pass runs exactly spec.epochs epochs
        config = replace(MODEL_CONFIG, seed=st.spec.model_seed)
        model = neural.train(pairs, direction, config, max_epochs=st.spec.epochs,
                             patience=st.spec.epochs, on_epoch=on_epoch)
        result.epoch_s.append(epoch_s)
        result.final_losses.append(losses[-1] if losses else float("nan"))
        neural.io.save_model(model, str(st.models / f"{direction}.bin"))


def _recognizer(st: _State, which: str):
    if st.spec.neural:
        recognizer = AnnotationRecognizer(core.read_annotations(st.files[f"{which}.ann"]))
    else:
        recognizer = Gazetteer.from_path(st.files[f"{which}.gaz"])
    return SimpleNamespace(recognize=st.clock.marked(recognizer.recognize))


def _align(st: _State, result: PassResult) -> None:
    corpus = core.read_parallel_corpus(st.files["train.zh"], st.files["train.en"],
                                       synth.ZH, synth.EN)
    cfg = align.AlignConfig(sim_threshold=0.6, max_ngram=3, beam_width=st.spec.beam)
    alignments, pairs = align.align_corpus(corpus, _recognizer(st, "train"), cfg,
                                           st.translator(neural.S2T), st.translator(neural.T2S),
                                           jobs=1)
    align.write_alignments(alignments, st.out / "alignments.tsv")
    core.write_ne_pairs(pairs, st.out / "pairs.tsv")
    st.alignments = alignments


def _write_lines(lines, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _restore_all(sentences, symbol_map, table, translator) -> tuple[list[Sentence], dict]:
    totals = pipeline.RestoreReport()
    out = []
    for sid, sentence in enumerate(sentences):
        restored, report = pipeline.restore(sentence, symbol_map.get(sid, []), table, translator,
                                            src_lang=synth.ZH, tgt_lang=synth.EN)
        out.append(restored)
        for name in ("from_table", "from_model", "from_rules", "dropped", "unrealized"):
            setattr(totals, name, getattr(totals, name) + getattr(report, name))
    return out, vars(totals)


def _rewrite(st: _State, result: PassResult) -> None:
    """replace -> extract-lex -> restore on the training corpus, as the CLI chains them."""
    corpus = core.read_parallel_corpus(st.files["train.zh"], st.files["train.en"],
                                       synth.ZH, synth.EN)
    by_sid: dict[int, list] = {}
    for a in align.read_alignments(st.out / "alignments.tsv"):
        by_sid.setdefault(a.sentence_id, []).append(a)
    results = [pipeline.replace_training_pair(pair, by_sid.get(pair.id, [])) for pair in corpus]
    core.write_parallel_corpus([pair for pair, _ in results],
                               st.out / "rewritten.zh", st.out / "rewritten.en")
    pipeline.write_symbol_map([e for _, group in results for e in group], st.out / "symbols.tsv")

    table = pipeline.extract_lexical_table(core.read_ne_pairs(st.out / "pairs.tsv"))
    table.write(st.out / "lex.tsv")
    st.table = pipeline.LexicalTable.read(st.out / "lex.tsv")

    symbol_map = pipeline.read_symbol_map(st.out / "symbols.tsv")
    restored, report = _restore_all([pair.tgt for pair, _ in results], symbol_map,
                                    st.table, st.translator(neural.S2T))
    _write_lines((s.text() for s in restored), st.out / "restored.en")
    st.restored_train = [s.text() for s in restored]
    result.restore["rewrite"] = report


def _mt_output(pair, spans, entries, gold_ranges) -> list[tuple]:
    """Simulated MT output: the gold target with each symbol at its gold range.

    Items are ("tok", token) or ("sym", symbol, gold target surface).  A
    symbol whose source span has no gold counterpart is left out, as an MT
    system may drop it; restore then counts it unrealized.
    """
    at: dict[int, tuple[int, str]] = {}
    for span, entry in zip(spans, entries):
        hit = gold_ranges.get((span.start, span.end))
        if hit is not None:
            at[hit[0]] = (hit[1], entry.symbol)
    items: list[tuple] = []
    tokens = pair.tgt.tokens
    i = 0
    while i < len(tokens):
        if i in at:
            end, symbol = at[i]
            items.append(("sym", symbol, " ".join(tokens[i:end])))
            i = end
        else:
            items.append(("tok", pipeline.escape_token(tokens[i])))
            i += 1
    return items


def _testtime(st: _State, result: PassResult) -> None:
    """Held-out source: recognize -> replace; simulated MT output -> restore."""
    corpus = core.read_parallel_corpus(st.files["heldout.zh"], st.files["heldout.en"],
                                       synth.ZH, synth.EN)
    recognizer = _recognizer(st, "heldout")
    gold: dict[int, dict[tuple[int, int], tuple[int, int]]] = {}
    for a in st.inputs.heldout.gold_alignments:
        gold.setdefault(a.sentence_id, {})[(a.src_start, a.src_end)] = (a.tgt_start, a.tgt_end)

    rewritten, entries, mt = [], [], []
    for pair in corpus:
        spans = sorted(recognizer.recognize(pair.src, pair.id, SOURCE), key=lambda s: s.start)
        sentence, group = pipeline.replace_test_sentence(pair.src, spans, sentence_id=pair.id)
        rewritten.append(sentence.text())
        entries.extend(group)
        items = _mt_output(pair, spans, group, gold.get(pair.id, {}))
        mt.append(Sentence(tuple(item[1] for item in items), synth.EN))
        st.test_items.append(items)
    _write_lines(rewritten, st.out / "test_rewritten.zh")
    pipeline.write_symbol_map(entries, st.out / "test_symbols.tsv")

    symbol_map = pipeline.read_symbol_map(st.out / "test_symbols.tsv")
    restored, report = _restore_all(mt, symbol_map, st.table, st.translator(neural.S2T))
    _write_lines((s.text() for s in restored), st.out / "test_restored.en")
    st.test_restored = [s.tokens for s in restored]
    st.test_symbols = len(entries)
    result.restore["testtime"] = report


STAGES = {"train": _train, "align": _align, "rewrite": _rewrite, "testtime": _testtime}
DOWNSTREAM = ("align", "rewrite", "testtime")


def stage_units(inputs: Inputs) -> dict[str, int]:
    """Work units per stage: sentences, and pair updates over both directions for training."""
    n_train = len(inputs.train.corpus)
    units = {"align": n_train, "rewrite": n_train, "testtime": len(inputs.heldout.corpus)}
    if inputs.spec.neural:
        units = {"train": 2 * inputs.spec.epochs * len(inputs.train.train_pairs), **units}
    return units


def run_pass(inputs: Inputs, out: Path, stages, models: Path, tracer=None) -> PassResult:
    """Run ``stages`` in order, writing outputs under ``out`` and models under ``models``."""
    out.mkdir(parents=True, exist_ok=True)
    models.mkdir(parents=True, exist_ok=True)
    clock = Clock()
    st = _State(inputs, out, models, tracer, clock)
    units = stage_units(inputs)
    result = PassResult(stage_units={stage: units[stage] for stage in stages})
    started = time.perf_counter()
    for stage in stages:
        # failed counts sentences (training: pair updates) of failed stages
        result.attempted += units[stage]
        if result.failed_stages:
            result.failed_stages.append(stage)
            result.failed += units[stage]
            continue
        cpu = time.process_time()
        clock.start(stage)
        try:
            if tracer:
                with tracer.span(f"stage.{stage}"):
                    STAGES[stage](st, result)
            else:
                STAGES[stage](st, result)
        except Exception:
            # a benchmark run must report a broken stage, not die of it
            traceback.print_exc(file=sys.stderr)
            result.failed_stages.append(stage)
            result.failed += units[stage]
        clock.stop()
        result.stage_cpu_s[stage] = time.process_time() - cpu
        result.stage_s[stage] = clock.timelines[stage].wall_s()
    result.total_s = time.perf_counter() - started
    result.timelines = clock.timelines
    if "align" in stages:
        _score(st, result)
        result.digests = {name: (hashlib.sha256((out / name).read_bytes()).hexdigest()
                                 if (out / name).exists() else "missing")
                          for name in OUTPUT_FILES}
    return result


def run_pass_isolated(inputs: Inputs, out: Path, stages, models: Path, trace: bool = False):
    """``run_pass`` in a process of its own: (result, tracer or None).

    Meant to run in a freshly spawned interpreter, so every pass starts with
    cold caches, as a command-line run does, and its peak RSS is its own.
    """
    tracer = handler = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        handler = tracing.instrument(tracer)
    try:
        result = run_pass(inputs, out, stages, models, tracer)
    finally:
        if trace:
            tracing.uninstrument(tracer, handler)
    result.peak_rss_mb = peak_rss_mb()
    return result, tracer


def peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space.

    ``ru_maxrss`` is kept across ``execve`` on Linux, so in a child it can
    report the parent's peak; ``VmHWM`` starts afresh with the new program.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- quality ----------------------------------------------------------------------


def alignment_f1(predicted, gold) -> float:
    """Pair F1 on (sentence, ranges, type) keys, as ``netrans eval-align`` scores it."""
    def keys(items):
        return {(a.sentence_id, a.src_start, a.src_end, a.tgt_start, a.tgt_end, a.ne_type)
                for a in items}
    p, g = keys(predicted), keys(gold)
    tp = len(p & g)
    return 2 * tp / (len(p) + len(g)) if tp else 0.0


def _lcs(a: str, b: str) -> int:
    row = [0] * (len(b) + 1)
    for ca in a:
        diag = 0
        for j, cb in enumerate(b):
            diag, row[j + 1] = row[j + 1], diag + 1 if ca == cb else max(row[j + 1], row[j])
    return row[-1]


def char_similarity(a: str, b: str) -> float:
    """LCS over the longer length, case-folded: 1.0 only for equal strings."""
    a, b = a.lower(), b.lower()
    return _lcs(a, b) / max(len(a), len(b)) if a or b else 1.0


def restored_entities(items: list[tuple], restored: tuple[str, ...]) -> tuple[int, float]:
    """(exact, summed similarity) of one sentence's symbols against their gold surfaces.

    Tokens between symbols pass through restore unchanged, so each symbol's
    realization is what lies between its neighbouring tokens.
    """
    exact, sim = 0, 0.0
    pos = 0
    for k, item in enumerate(items):
        if item[0] == "tok":
            if pos >= len(restored) or restored[pos] != pipeline.unescape_token(item[1]):
                break
            pos += 1
            continue
        following = items[k + 1] if k + 1 < len(items) else None
        if following is None:
            end = len(restored)
        elif following[0] == "tok":
            anchor = pipeline.unescape_token(following[1])
            end = next((j for j in range(pos, len(restored)) if restored[j] == anchor),
                       len(restored))
        else:
            break  # adjacent symbols cannot be told apart
        realized = " ".join(restored[pos:end])
        exact += realized == item[2]
        sim += char_similarity(realized, item[2])
        pos = end
    return exact, sim


def _score(st: _State, result: PassResult) -> None:
    def ok(stage):
        return stage in result.stage_s and stage not in result.failed_stages

    q = {"align_f1": 0.0, "roundtrip_exact": 0.0, "testtime_entity_acc": 0.0,
         "testtime_entity_sim": 0.0}
    if ok("align"):
        q["align_f1"] = alignment_f1(st.alignments, st.inputs.train.gold_alignments)
    if ok("rewrite"):
        originals = [pair.tgt.text() for pair in st.inputs.train.corpus]
        same = sum(a == b for a, b in zip(st.restored_train, originals))
        q["roundtrip_exact"] = same / len(originals)
    if ok("testtime") and st.test_symbols:
        scores = [restored_entities(items, restored)
                  for items, restored in zip(st.test_items, st.test_restored)]
        # unplaced symbols (no gold counterpart) count as wrong
        q["testtime_entity_acc"] = sum(e for e, _ in scores) / st.test_symbols
        q["testtime_entity_sim"] = sum(s for _, s in scores) / st.test_symbols
    result.quality = q

