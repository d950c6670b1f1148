"""Span tracing from outside the program: wrap each layer's public functions.

Every wrapped call opens a span (name, start, end, parent) kept in memory.
Functions called ~1e5 times per pass are not recorded one span per call;
their count and time are summed per parent span instead.  Self time is a
span's duration minus the time its children (spans and summed calls)
cover.  Times are integer nanoseconds from ``perf_counter_ns``, so self
times are exact differences.

Wrappers replace the name where the caller looks it up: a function that
another module imported by name is patched in that module too, and methods
are patched on their class.
"""

from __future__ import annotations

import functools
import json
import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import netrans
import netrans.align
import netrans.core
import netrans.neural
import netrans.neural.beam
import netrans.neural.io
import netrans.ner
import netrans.numnorm
import netrans.pipeline
import netrans.simdist
from netrans.neural.model import Seq2SeqModel
from netrans.neural.train import AdaDelta


@dataclass
class Span:
    id: int
    name: str
    start: int
    end: int = 0
    parent: int | None = None
    self_ns: int = 0
    key: object = None


@dataclass
class _Frame:
    span: Span | None          # None for a summed (aggregated) call
    name: str
    start: int
    child_ns: int = 0


@dataclass
class Tracer:
    """In-memory span recorder plus counters filled by result observers."""

    spans: list[Span] = field(default_factory=list)
    # (name, parent span id) -> [calls, total ns, self ns]
    aggregates: dict[tuple[str, int | None], list[int]] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    _stack: list[_Frame] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def _open(self, name: str, aggregate: bool, key) -> _Frame:
        now = time.perf_counter_ns()
        span = None
        if not aggregate:
            parent = self._parent_id()
            span = Span(len(self.spans), name, now, parent=parent, key=key)
            self.spans.append(span)
        frame = _Frame(span, name, now)
        self._stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        duration = end - frame.start
        if self._stack:
            self._stack[-1].child_ns += duration
        if frame.span is not None:
            frame.span.end = end
            frame.span.self_ns = duration - frame.child_ns
        else:
            acc = self.aggregates.setdefault((frame.name, self._parent_id()), [0, 0, 0])
            acc[0] += 1
            acc[1] += duration
            acc[2] += duration - frame.child_ns

    def _parent_id(self) -> int | None:
        for frame in reversed(self._stack):
            if frame.span is not None:
                return frame.span.id
        return None

    @contextmanager
    def span(self, name: str, key=None):
        frame = self._open(name, False, key)
        try:
            yield
        finally:
            self._close(frame)

    def wrap(self, fn, name: str, *, aggregate: bool = False, key=None, observe=None):
        """``fn`` recording one span per call (or summed, with ``aggregate``).

        ``key(args)`` is stored on the span; ``observe(args, result)`` may
        update ``counters``.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(name, aggregate, key(args) if key else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if observe is not None:
                observe(args, result)
            return result
        return traced

    def patch(self, owner, attr: str, name: str, **options) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **options))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def translator(self, translator):
        """Wrap a translator handed to align/restore, keyed by its input text."""
        return self.wrap(translator, "translator", key=lambda args: args[0])

    def to_json(self) -> dict:
        return {
            "spans": [[s.id, s.name, s.start, s.end, s.parent, s.self_ns] for s in self.spans],
            "aggregates": [[name, parent, *acc] for (name, parent), acc in self.aggregates.items()],
            "counters": self.counters,
        }


class _DisagreementCounter(logging.Handler):
    """Counts the aligner's type-disagreement log records."""

    def __init__(self, tracer: Tracer):
        super().__init__(logging.INFO)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if "type disagreement" in record.msg:
            self.tracer.count("align.type_disagreements")


def instrument(tracer: Tracer) -> logging.Handler:
    """Patch every traced layer; returns the log handler to remove afterwards."""
    count = tracer.count

    def spans_found(args, spans):
        for s in spans:
            count(f"ner.spans.{s.ne_type.value}.{s.side}")

    def links(args, result):
        for a in result[0]:
            count(f"align.links.{a.direction}")

    def match(args, hit):
        if hit is not None:
            count("align.match_span.hits")

    def restored(args, result):
        for name, n in vars(result[1]).items():
            count(f"pipeline.restore.{name}", n)

    nn = netrans.neural
    tracer.patch(nn, "train", "neural.train")
    tracer.patch(Seq2SeqModel, "loss_and_grads", "model.loss_and_grads")
    tracer.patch(AdaDelta, "update", "train.adadelta_update")
    tracer.patch(nn.beam, "translate", "beam.translate",
                 key=lambda args: (id(args[0]), args[1], args[2] if len(args) > 2 else None))
    tracer.patch(Seq2SeqModel, "encode", "model.encode")
    tracer.patch(Seq2SeqModel, "step", "model.step", aggregate=True)
    tracer.patch(nn.io, "save_model", "io.save_model")
    tracer.patch(nn.io, "load_model", "io.load_model")

    tracer.patch(netrans.simdist, "similarity", "simdist.similarity", aggregate=True)
    for module in (netrans.numnorm, netrans.ner):
        tracer.patch(module, "normalize_numeric", "numnorm.normalize_numeric", aggregate=True)
    tracer.patch(netrans.numnorm, "nt_similarity", "numnorm.nt_similarity", aggregate=True)

    for cls in (netrans.ner.Gazetteer, netrans.ner.AnnotationRecognizer):
        tracer.patch(cls, "recognize", "ner.recognize", observe=spans_found)

    tracer.patch(netrans.align, "align_corpus", "align.align_corpus", observe=links)
    tracer.patch(netrans.align, "match_span", "align.match_span", observe=match)

    for fn in ("replace_training_pair", "replace_test_sentence"):
        tracer.patch(netrans.pipeline, fn, "pipeline.replace")
    tracer.patch(netrans.pipeline, "restore", "pipeline.restore", observe=restored)

    for fn in ("read_parallel_corpus", "read_annotations", "read_ne_pairs"):
        tracer.patch(netrans.core, fn, "core.read")
    for fn in ("write_parallel_corpus", "write_annotations", "write_ne_pairs"):
        tracer.patch(netrans.core, fn, "core.write")

    handler = _DisagreementCounter(tracer)
    logger = logging.getLogger("netrans.align")
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    return handler


def uninstrument(tracer: Tracer, handler: logging.Handler) -> None:
    tracer.unpatch()
    logger = logging.getLogger("netrans.align")
    logger.removeHandler(handler)
    logger.setLevel(logging.NOTSET)


# -- per-layer metrics ------------------------------------------------------------

# span name -> layer, for the per-layer shares of traced time
LAYER_OF = {
    "neural.train": "neural.train", "model.loss_and_grads": "neural.train",
    "train.adadelta_update": "neural.train",
    "beam.translate": "neural.beam", "model.encode": "neural.beam", "model.step": "neural.beam",
    "io.save_model": "neural.io", "io.load_model": "neural.io",
    "simdist.similarity": "simdist",
    "numnorm.normalize_numeric": "numnorm", "numnorm.nt_similarity": "numnorm",
    "ner.recognize": "ner",
    "align.align_corpus": "align", "align.match_span": "align",
    "pipeline.replace": "pipeline", "pipeline.restore": "pipeline",
    "core.read": "core", "core.write": "core",
}
LAYERS = ("neural.train", "neural.beam", "neural.io", "simdist", "numnorm", "ner", "align",
          "pipeline", "core", "bench")
STAGE_NAMES = ("train", "align", "rewrite", "testtime")


def _stage_of(tracer: Tracer) -> dict[int, str]:
    """Span id -> the stage it ran in."""
    stage: dict[int, str] = {}
    for s in tracer.spans:  # parents precede children
        if s.name.startswith("stage."):
            stage[s.id] = s.name[len("stage."):]
        elif s.parent is not None and s.parent in stage:
            stage[s.id] = stage[s.parent]
    return stage


def layer_metrics(tracer: Tracer, total_s: float) -> dict[str, float]:
    """Per-layer counts, times, ratios and shares of one traced pass."""
    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}

    def add(name, n, dur, own):
        calls[name] = calls.get(name, 0) + n
        total[name] = total.get(name, 0) + dur
        self_ns[name] = self_ns.get(name, 0) + own

    for s in tracer.spans:
        add(s.name, 1, s.end - s.start, s.self_ns)
    for (name, _), (n, dur, own) in tracer.aggregates.items():
        add(name, n, dur, own)

    c = lambda name: calls.get(name, 0)  # noqa: E731
    sec = lambda name: total.get(name, 0) / 1e9  # noqa: E731
    own = lambda name: self_ns.get(name, 0) / 1e9  # noqa: E731
    per = lambda n, s: n / s if s else 0.0  # noqa: E731
    counter = lambda name: tracer.counters.get(name, 0)  # noqa: E731

    m: dict[str, float] = {
        "model.loss_and_grads.calls": c("model.loss_and_grads"),
        "model.loss_and_grads.self_s": own("model.loss_and_grads"),
        "train.adadelta_update.calls": c("train.adadelta_update"),
        "train.adadelta_update.self_s": own("train.adadelta_update"),
        "beam.translate.calls": c("beam.translate"),
        "beam.translate.distinct": len({s.key for s in tracer.spans if s.name == "beam.translate"}),
        "beam.translate.self_s": own("beam.translate"),
        "model.encode.calls": c("model.encode"),
        "model.encode.s": sec("model.encode"),
        "model.step.calls": c("model.step"),
        "model.step.s": sec("model.step"),
        "beam.decodes_per_s": per(c("beam.translate"), sec("beam.translate")),
        "beam.steps_per_s": per(c("model.step"), sec("beam.translate")),
        "io.save_model.s": sec("io.save_model"),
        "io.load_model.calls": c("io.load_model"),
        "io.load_model.s": sec("io.load_model"),
        "simdist.similarity.calls": c("simdist.similarity"),
        "simdist.similarity.s": sec("simdist.similarity"),
        "simdist.pairs_per_s": per(c("simdist.similarity"), sec("simdist.similarity")),
        "simdist.backend_compiled": int(netrans.simdist.BACKEND != "python"),
        "numnorm.normalize_numeric.calls": c("numnorm.normalize_numeric"),
        "numnorm.normalize_numeric.s": sec("numnorm.normalize_numeric"),
        "numnorm.nt_similarity.calls": c("numnorm.nt_similarity"),
        "numnorm.nt_similarity.s": sec("numnorm.nt_similarity"),
        "ner.recognize.calls": c("ner.recognize"),
        "ner.recognize.s": sec("ner.recognize"),
        "ner.sents_per_s": per(c("ner.recognize"), sec("ner.recognize")),
        "align.match_span.calls": c("align.match_span"),
        "align.match_span.hits": counter("align.match_span.hits"),
        "align.match_rate": per(counter("align.match_span.hits"), c("align.match_span")),
        "align.match_span.self_s": own("align.match_span"),
        "align.type_disagreements": counter("align.type_disagreements"),
        "pipeline.replace.calls": c("pipeline.replace"),
        "pipeline.replace.s": sec("pipeline.replace"),
        "pipeline.restore.calls": c("pipeline.restore"),
        "pipeline.restore.s": sec("pipeline.restore"),
        "core.read.s": sec("core.read"),
        "core.write.s": sec("core.write"),
    }
    for ne_type in ("PER", "LOC", "NT"):
        for side in ("source", "target"):
            m[f"ner.spans.{ne_type}.{side}"] = counter(f"ner.spans.{ne_type}.{side}")
    for direction in ("both", "s2t", "t2s"):
        m[f"align.links.{direction}"] = counter(f"align.links.{direction}")
    for name in ("from_table", "from_model", "from_rules", "dropped", "unrealized"):
        m[f"pipeline.restore.{name}"] = counter(f"pipeline.restore.{name}")

    # useful-work ratio of the translator, per stage: distinct inputs / calls
    stage = _stage_of(tracer)
    for name in ("translator", "beam.translate"):
        for st in STAGE_NAMES[1:]:
            keys = [s.key for s in tracer.spans if s.name == name and stage.get(s.id) == st]
            m[f"{name}.{st}.calls"] = len(keys)
            m[f"{name}.{st}.distinct"] = len(set(keys))

    # share of the traced pass spent in each layer's own code
    shares = dict.fromkeys(LAYERS, 0)
    for name, ns in self_ns.items():
        shares[LAYER_OF.get(name, "bench")] += ns
    for layer in LAYERS:
        m[f"share.{layer}"] = shares[layer] / 1e9 / total_s if total_s else 0.0
    return m


def write_trace(tracer: Tracer, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_json(), fh)
