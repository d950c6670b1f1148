"""Command-line front end.

One subcommand per pipeline stage: train the entity translator, align a
parallel corpus, rewrite it with placeholder symbols, extract the lexical
table, restore placeholders in MT output, plus small evaluation and
diagnostic tools. Exit codes: 0 success, 1 usage or configuration problem,
2 data or contract violation, 3 numerical divergence.

Every subcommand accepts `--config FILE` with `key = value` lines (`#`
comments); command-line flags override file values, unknown keys are
rejected. All randomness flows from `--seed`. `align`, `restore` and
`translate-ne` decode through one translator, `align.ModelTranslator`, and
one step, `align.decode_once`, which decodes each distinct surface once.
`--jobs` spreads the model decodes of `align` and `restore` over processes;
matching, replacing and restoring run in one process. `replace` accepts
`--jobs` for symmetry. Outputs are byte-identical for any job count.

Each subcommand loads only what it runs. The neural translator, and with it
numpy, is imported by `train-ne`, `score-ne` and `gradcheck`, and by
`translate-ne`, and `align` and `restore` given a model, at their first
decode, so these read the model only after their inputs are checked; every
other subcommand starts without it. The worker pool loads when `--jobs`
first starts one.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from functools import partial
from typing import TYPE_CHECKING

from . import __version__, align, core, numnorm, pipeline, simdist, synth
from .core import NeType
from .errors import ConfigError, ContractError, CorpusError, DataError, DivergenceError
from .ner import AnnotationRecognizer, Gazetteer

if TYPE_CHECKING:
    from .neural import ModelConfig

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this toolkit reserves 2 for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_rows(path, rows) -> None:
    if path:
        core.write_lines(path, rows)
    else:
        sys.stdout.writelines(row + "\n" for row in rows)


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name) in (None, ""):
            raise ConfigError(f"--{name.replace('_', '-')} is required")


def _model_config(args) -> ModelConfig:
    from .neural import ModelConfig

    return ModelConfig(hidden_size=args.hidden, embed_size=args.embed,
                       max_decode_len=args.max_decode_len, learning_rate=args.lr,
                       adadelta_rho=args.rho, adadelta_eps=args.eps, seed=args.seed)


def _add_model_flags(p) -> None:
    p.add_argument("--hidden", type=int, default=64, help="recurrent state width")
    p.add_argument("--embed", type=int, default=32, help="character embedding width")
    p.add_argument("--max-decode-len", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-4, help="learning rate")
    p.add_argument("--rho", type=float, default=0.95, help="accumulator decay")
    p.add_argument("--eps", type=float, default=1e-6, help="accumulator damping")


# -- subcommands -------------------------------------------------------------


def cmd_train_ne(args) -> int:
    from .neural import save_model
    from .neural import train as train_model

    _require(args, "pairs", "direction", "out")
    pairs = core.read_ne_pairs(args.pairs)
    dev = core.read_ne_pairs(args.dev) if args.dev else None
    config = _model_config(args)

    rows = ["epoch\ttrain_loss\tdev_loss"]

    def on_epoch(epoch, train_loss, dev_loss, model) -> bool:
        dev_text = f"{dev_loss:.6f}" if dev_loss is not None else ""
        rows.append(f"{epoch}\t{train_loss:.6f}\t{dev_text}")
        return False

    model = train_model(pairs, args.direction, config, dev,
                        max_epochs=args.epochs, patience=args.patience,
                        on_epoch=on_epoch)
    save_model(model, args.out)
    _write_rows(args.log or args.out + ".log", rows)
    print(f"trained {args.direction} translator on {len(pairs)} pairs, "
          f"{len(rows) - 1} epochs")
    print(f"model written to {args.out}")
    return 0


def cmd_translate_ne(args) -> int:
    _require(args, "model", "input")
    if not 1 <= args.k <= args.beam:
        raise ConfigError(f"--k must be between 1 and --beam ({args.beam}), got {args.k}")
    if args.max_len is not None and args.max_len < 1:  # an empty input decodes nothing
        raise ConfigError(f"max_len must be >= 1, got {args.max_len}")
    texts = [line.strip() for line in core.read_lines(args.input)]
    for i, text in enumerate(texts):
        if not text:
            raise CorpusError(f"{args.input}: empty line {i + 1}")
    # the model loads at the first decode; each distinct line is decoded once
    kbest = align.decode_once(align.ModelTranslator(args.model, args.beam, args.max_len), texts)
    _write_rows(args.out, [f"{text}\t{candidate}\t{logprob:.6f}"
                           for text in texts for candidate, logprob in kbest(text)[:args.k]])
    return 0


def cmd_score_ne(args) -> int:
    from .neural import load_model

    _require(args, "model", "pairs")
    model = load_model(args.model)
    rows = []
    for p in core.read_ne_pairs(args.pairs):
        logprob = model.sequence_logprob(p.src, p.tgt)
        rows.append(f"{p.src}\t{p.tgt}\t{logprob:.6f}")
    _write_rows(args.out, rows)
    return 0


def cmd_gradcheck(args) -> int:
    from .neural import gradient_check, make_model, oriented

    if not 0.0 < args.tolerance < math.inf:
        raise ConfigError(f"--tolerance must be finite and positive, got {args.tolerance}")
    if args.pairs:
        pairs = core.read_ne_pairs(args.pairs)
    else:
        pairs = synth.make_translit_pairs(2, seed=args.seed)
    config = _model_config(args)
    model = make_model(pairs, args.direction, config)
    report = gradient_check(model, oriented(pairs, args.direction), eps=args.fd_eps)
    worst = max(report.values())
    for name in sorted(report, key=lambda n: -report[n]):
        print(f"{name}\t{report[name]:.3e}")
    print(f"worst\t{worst:.3e}")
    if worst > args.tolerance:
        print(f"FAIL: worst relative error {worst:.3e} exceeds {args.tolerance:.1e}")
        return 3
    print("OK")
    return 0


def cmd_sim(args) -> int:
    a = simdist.fold(args.candidate)
    b = simdist.fold(args.target)
    lcs = simdist.lcs_length(a, b)
    ed = simdist.edit_distance_indel(a, b)
    score = simdist.similarity(args.candidate, args.target)
    print(f"{lcs}\t{ed}\t{score:.6f}")
    return 0


def cmd_numnorm(args) -> int:
    print(numnorm.normalize_numeric(args.text, args.lang))
    return 0


def _make_recognizer(args):
    if args.annotations and args.gazetteer:
        raise ConfigError("give either --annotations or --gazetteer, not both")
    if args.annotations:
        return AnnotationRecognizer(core.read_annotations(args.annotations))
    if args.gazetteer:
        return Gazetteer.from_path(args.gazetteer)
    raise ConfigError("one of --annotations or --gazetteer is required")


def cmd_align(args) -> int:
    _require(args, "src", "tgt", "src_lang", "tgt_lang", "out_alignments", "out_pairs")
    corpus = core.read_parallel_corpus(args.src, args.tgt, args.src_lang, args.tgt_lang)
    recognizer = _make_recognizer(args)
    cfg = align.AlignConfig(args.threshold, args.max_ngram, args.beam, args.directions)
    s2t = align.ModelTranslator(args.model_s2t, args.beam) if args.model_s2t else None
    t2s = align.ModelTranslator(args.model_t2s, args.beam) if args.model_t2s else None

    alignments, ne_pairs = align.align_corpus(corpus, recognizer, cfg, s2t, t2s,
                                              jobs=args.jobs)
    align.write_alignments(alignments, args.out_alignments)
    core.write_ne_pairs(ne_pairs, args.out_pairs)

    print(f"alignments\t{len(alignments)}")
    for ne_type in NeType:
        print(f"type:{ne_type.value}\t{sum(1 for a in alignments if a.ne_type is ne_type)}")
    for direction in align.DIRECTIONS:
        print(f"direction:{direction}\t{sum(1 for a in alignments if a.direction == direction)}")
    print(f"pairs\t{len(ne_pairs)}")
    return 0


def cmd_replace(args) -> int:
    if bool(args.alignments) == bool(args.input):
        raise ConfigError("give --alignments (corpus mode) or --input (sentence mode)")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")

    if args.alignments:
        _require(args, "src", "tgt", "src_lang", "tgt_lang", "out_src", "out_tgt", "out_symmap")
        corpus = core.read_parallel_corpus(args.src, args.tgt, args.src_lang, args.tgt_lang)
        by_sid: dict[int, list] = {}
        for a in align.read_alignments(args.alignments):
            by_sid.setdefault(a.sentence_id, []).append(a)
        unknown = sorted(by_sid.keys() - {pair.id for pair in corpus})
        if unknown:
            raise ContractError(f"{args.alignments}: rows for {len(unknown)} sentence id(s) "
                                f"the {len(corpus)}-pair corpus does not have, the first "
                                f"{unknown[0]}")
        results = [pipeline.replace_training_pair(pair, by_sid.get(pair.id, []))
                   for pair in corpus]
        core.write_parallel_corpus([pair for pair, _ in results], args.out_src, args.out_tgt)
        entries = [e for _, group in results for e in group]
        pipeline.write_symbol_map(entries, args.out_symmap)
        print(f"sentences\t{len(results)}")
        print(f"symbols\t{len(entries)}")
        return 0

    _require(args, "lang", "out", "out_symmap")
    if args.oov_only and not args.vocab:
        raise ConfigError("--oov-only needs --vocab, the tokens the MT system knows")
    recognizer = _make_recognizer(args)
    vocab = None
    if args.vocab:
        vocab = {line.split()[0] for line in core.read_lines(args.vocab) if line.split()}
    sentences = core.read_sentences(args.input, args.lang)
    results = [pipeline.replace_test_sentence(s, recognizer.recognize(s, sid, core.SOURCE),
                                              vocab, args.oov_only, sid)
               for sid, s in enumerate(sentences)]
    _write_rows(args.out, [sentence.text() for sentence, _ in results])
    entries = [e for _, group in results for e in group]
    pipeline.write_symbol_map(entries, args.out_symmap)
    print(f"sentences\t{len(results)}")
    print(f"symbols\t{len(entries)}")
    return 0


def cmd_extract_lex(args) -> int:
    _require(args, "pairs", "out")
    table = pipeline.extract_lexical_table(core.read_ne_pairs(args.pairs))
    table.write(args.out)
    print(f"entries\t{len(table)}")
    return 0


def cmd_restore(args) -> int:
    _require(args, "input", "symmap", "out", "src_lang", "tgt_lang")
    for name in ("jobs", "beam"):
        if getattr(args, name) < 1:
            raise ConfigError(f"--{name} must be >= 1, got {getattr(args, name)}")
    symbol_map = pipeline.read_symbol_map(args.symmap)
    table = pipeline.LexicalTable.read(args.lex) if args.lex else pipeline.LexicalTable()
    sentences = core.read_sentences(args.input, args.tgt_lang)
    translator = align.ModelTranslator(args.model, args.beam) if args.model else None
    restored, totals = pipeline.restore_corpus(sentences, symbol_map, table, translator,
                                               jobs=args.jobs, src_lang=args.src_lang,
                                               tgt_lang=args.tgt_lang)
    _write_rows(args.out, [sentence.text() for sentence in restored])
    for name, n in vars(totals).items():
        print(f"{name}\t{n}")
    return 0


def cmd_eval_ne(args) -> int:
    _require(args, "hyp", "ref")
    hyp = core.read_ne_pairs(args.hyp)
    ref = core.read_ne_pairs(args.ref)
    if not ref:
        raise DataError("empty reference list")
    if len(hyp) != len(ref):
        raise DataError(f"hypothesis has {len(hyp)} pairs, reference has {len(ref)}")

    correct: dict[NeType, int] = {t: 0 for t in NeType}
    total: dict[NeType, int] = {t: 0 for t in NeType}
    for i, (h, r) in enumerate(zip(hyp, ref)):
        if h.src != r.src:
            raise DataError(f"pair {i + 1}: sources differ ({h.src!r} vs {r.src!r})")
        total[r.ne_type] += 1
        if simdist.fold(h.tgt) == simdist.fold(r.tgt):
            correct[r.ne_type] += 1

    for ne_type in NeType:
        if total[ne_type]:
            acc = correct[ne_type] / total[ne_type]
            print(f"{ne_type.value}\t{correct[ne_type]}\t{total[ne_type]}\t{acc:.6f}")
    overall = sum(correct.values()) / len(ref)
    print(f"ALL\t{sum(correct.values())}\t{len(ref)}\t{overall:.6f}")
    return 0


def cmd_eval_align(args) -> int:
    _require(args, "pred", "gold")
    pred = align.read_alignments(args.pred)
    gold = align.read_alignments(args.gold)
    if not gold:
        raise DataError("empty gold alignment list")

    def keys(items):
        return {(a.sentence_id, a.src_start, a.src_end, a.tgt_start, a.tgt_end, a.ne_type)
                for a in items}

    pred_keys = keys(pred)
    gold_keys = keys(gold)

    def prf(p_keys, g_keys):
        tp = len(p_keys & g_keys)
        precision = tp / len(p_keys) if p_keys else 0.0
        recall = tp / len(g_keys) if g_keys else 0.0
        f1 = (2 * precision * recall / (precision + recall)) if tp else 0.0
        return precision, recall, f1

    for ne_type in NeType:
        g = {k for k in gold_keys if k[5] is ne_type}
        if not g:
            continue
        p = {k for k in pred_keys if k[5] is ne_type}
        precision, recall, f1 = prf(p, g)
        print(f"{ne_type.value}\t{precision:.6f}\t{recall:.6f}\t{f1:.6f}")
    precision, recall, f1 = prf(pred_keys, gold_keys)
    print(f"ALL\t{precision:.6f}\t{recall:.6f}\t{f1:.6f}")
    return 0


def cmd_synth(args) -> int:
    import os

    _require(args, "out_dir")
    sc = synth.make_corpus(n_pairs=args.pairs, n_sentences=args.sentences,
                           seed=args.seed, noise=args.noise,
                           oneside_drop=args.oneside_drop,
                           extra_train=args.extra_train)
    os.makedirs(args.out_dir, exist_ok=True)
    join = partial(os.path.join, args.out_dir)
    core.write_parallel_corpus(sc.corpus, join("corpus.zh"), join("corpus.en"))
    core.write_annotations(sc.annotations, join("annotations.tsv"))
    core.write_ne_pairs(sc.plant_pairs, join("plant_pairs.tsv"))
    core.write_ne_pairs(sc.train_pairs, join("train_pairs.tsv"))
    align.write_alignments(sc.gold_alignments, join("gold_alignments.tsv"))
    print(f"sentences\t{len(sc.corpus)}")
    print(f"plants\t{len(sc.plant_pairs)}")
    print(f"train_pairs\t{len(sc.train_pairs)}")
    print(f"annotations\t{len(sc.annotations)}")
    return 0


# -- parser assembly ----------------------------------------------------------


def _build() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="netrans",
                     description="bilingual named-entity translation and alignment")
    parser.add_argument("--version", action="version", version=f"netrans {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    by_name: dict[str, _Parser] = {}

    def sub(name, func, help_text):
        p = subparsers.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value defaults file")
        p.set_defaults(func=func)
        by_name[name] = p
        return p

    p = sub("train-ne", cmd_train_ne, "train an entity translator")
    p.add_argument("--pairs", help="training pair TSV")
    p.add_argument("--dev", help="development pair TSV for early stopping")
    p.add_argument("--direction", choices=[align.S2T, align.T2S])
    p.add_argument("--out", help="model output path")
    p.add_argument("--log", help="training log path (default: OUT.log)")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--patience", type=int, default=5)
    p.add_argument("--seed", type=int, default=42)
    _add_model_flags(p)

    p = sub("translate-ne", cmd_translate_ne, "k-best entity translations")
    p.add_argument("--model")
    p.add_argument("--input", help="one surface per line")
    p.add_argument("--out")
    p.add_argument("--beam", type=int, default=5)
    p.add_argument("--k", type=int, default=1, help="candidates to print per input")
    p.add_argument("--max-len", type=int, default=None)

    p = sub("score-ne", cmd_score_ne, "log-probabilities of given pairs")
    p.add_argument("--model")
    p.add_argument("--pairs")
    p.add_argument("--out")

    p = sub("gradcheck", cmd_gradcheck, "compare gradients with finite differences")
    p.add_argument("--pairs", help="pair TSV (default: two built-in pairs)")
    p.add_argument("--direction", choices=[align.S2T, align.T2S], default=align.S2T)
    p.add_argument("--fd-eps", type=float, default=1e-4)
    p.add_argument("--tolerance", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=42)
    _add_model_flags(p)
    p.set_defaults(hidden=8, embed=8)

    p = sub("sim", cmd_sim, "string similarity diagnostics")
    p.add_argument("candidate")
    p.add_argument("target")

    p = sub("numnorm", cmd_numnorm, "numeric normalization of one string")
    p.add_argument("text")
    p.add_argument("--lang", default="zh")

    p = sub("align", cmd_align, "align entities across a parallel corpus")
    p.add_argument("--src")
    p.add_argument("--tgt")
    p.add_argument("--src-lang")
    p.add_argument("--tgt-lang")
    p.add_argument("--annotations")
    p.add_argument("--gazetteer")
    p.add_argument("--model-s2t")
    p.add_argument("--model-t2s")
    p.add_argument("--threshold", type=float, default=0.6)
    p.add_argument("--max-ngram", type=int, default=3)
    p.add_argument("--beam", type=int, default=5)
    p.add_argument("--directions", choices=list(align.DIRECTIONS), default=align.BOTH)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the model decodes")
    p.add_argument("--out-alignments")
    p.add_argument("--out-pairs")

    p = sub("replace", cmd_replace, "rewrite entities as placeholder symbols")
    p.add_argument("--alignments", help="corpus mode: alignment TSV")
    p.add_argument("--src")
    p.add_argument("--tgt")
    p.add_argument("--src-lang")
    p.add_argument("--tgt-lang")
    p.add_argument("--out-src")
    p.add_argument("--out-tgt")
    p.add_argument("--input", help="sentence mode: tokenized text, one sentence per line")
    p.add_argument("--lang")
    p.add_argument("--annotations")
    p.add_argument("--gazetteer")
    p.add_argument("--vocab", help="known-token list; first column is the token")
    p.add_argument("--oov-only", action="store_true",
                   help="only replace spans containing tokens not in --vocab")
    p.add_argument("--out")
    p.add_argument("--out-symmap")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for symmetry; replace runs in one process")

    p = sub("extract-lex", cmd_extract_lex, "build a lexical table from pair TSV")
    p.add_argument("--pairs")
    p.add_argument("--out")

    p = sub("restore", cmd_restore, "replace placeholder symbols in MT output")
    p.add_argument("--input", help="MT output, one tokenized sentence per line")
    p.add_argument("--symmap")
    p.add_argument("--lex")
    p.add_argument("--model", help="entity translator for table misses")
    p.add_argument("--beam", type=int, default=5)
    p.add_argument("--src-lang")
    p.add_argument("--tgt-lang")
    p.add_argument("--out")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the --model decode")

    p = sub("eval-ne", cmd_eval_ne, "exact-match translation accuracy")
    p.add_argument("--hyp")
    p.add_argument("--ref")

    p = sub("eval-align", cmd_eval_align, "alignment precision/recall/F1")
    p.add_argument("--pred")
    p.add_argument("--gold")

    p = sub("synth", cmd_synth, "generate a synthetic bilingual corpus")
    p.add_argument("--out-dir")
    p.add_argument("--pairs", type=int, default=50)
    p.add_argument("--sentences", type=int, default=200)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--oneside-drop", type=float, default=0.0)
    p.add_argument("--extra-train", type=int, default=60)
    p.add_argument("--seed", type=int, default=42)

    return parser, by_name


def _read_config_file(path) -> dict[str, str]:
    values = {}
    for i, line in enumerate(core.read_lines(path)):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        key, sep, value = text.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"{path}:{i + 1}: expected `key = value`")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


def _apply_config(sub: _Parser, values: dict[str, str], path) -> None:
    actions = {a.dest: a for a in sub._actions}
    defaults = {}
    for key, raw in values.items():
        action = actions.get(key)
        if action is None or key in ("config", "func", "command", "help"):
            raise ConfigError(f"{path}: unknown configuration key {key!r}")
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            if raw.lower() in _TRUE_WORDS:
                defaults[key] = isinstance(action, argparse._StoreTrueAction)
            elif raw.lower() in _FALSE_WORDS:
                defaults[key] = not isinstance(action, argparse._StoreTrueAction)
            else:
                raise ConfigError(f"{path}: {key} expects a boolean, got {raw!r}")
            continue
        try:
            value = action.type(raw) if action.type else raw
        except ValueError:
            raise ConfigError(f"{path}: bad value for {key}: {raw!r}") from None
        if action.choices and value not in action.choices:
            raise ConfigError(f"{path}: {key} must be one of {list(action.choices)}")
        defaults[key] = value
    sub.set_defaults(**defaults)


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser, by_name = _build()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _apply_config(by_name[args.command], _read_config_file(args.config), args.config)
            args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
