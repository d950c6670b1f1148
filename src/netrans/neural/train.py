"""Training loop, AdaDelta updates, and a finite-difference gradient check."""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ..align import S2T, T2S
from ..core import NePair
from ..errors import ConfigError, DivergenceError
from .model import FlatParams, ModelConfig, Seq2SeqModel
from .vocab import CharVocab


def oriented(pairs: Sequence[NePair], direction: str) -> list[tuple[str, str]]:
    """Orient NE pairs as (input, output) strings for one translator."""
    if direction == S2T:
        return [(p.src, p.tgt) for p in pairs]
    if direction == T2S:
        return [(p.tgt, p.src) for p in pairs]
    raise ConfigError(f"direction must be {S2T!r} or {T2S!r}, got {direction!r}")


def make_model(pairs: Sequence[NePair], direction: str, config: ModelConfig) -> Seq2SeqModel:
    """Fresh model with vocabularies built from the oriented training pairs."""
    texts = oriented(pairs, direction)
    if not texts:
        raise ConfigError("cannot build a model from an empty training set")
    src_vocab = CharVocab.from_texts(inp for inp, _ in texts)
    tgt_vocab = CharVocab.from_texts(out for _, out in texts)
    return Seq2SeqModel(config, src_vocab, tgt_vocab)


class AdaDelta:
    """Per-parameter accumulator update (Zeiler 2012) with a global rate.

    The gradient, the two accumulators and the parameters are whole flat
    vectors, updated with 18 ufunc calls that write into scratch vectors
    allocated once. Every expression keeps the operand order of the
    textbook form, e.g. (1 - rho) * g * g is ((1 - rho) * g) * g: that order,
    not just the formula, is what keeps the trained parameters bit-identical
    to a per-tensor implementation.
    """

    def __init__(self, model: Seq2SeqModel):
        cfg = model.config
        self.model = model
        self.rho = cfg.adadelta_rho
        self.eps = cfg.adadelta_eps
        self.lr = cfg.learning_rate
        size = model.params.vector.size
        self.sq_grad = np.zeros(size)
        self.sq_delta = np.zeros(size)
        self._g = np.empty(size)
        self._delta = np.empty(size)
        self._tmp = np.empty(size)

    def update(self, grads: FlatParams, scale: float = 1.0) -> None:
        rho, eps = self.rho, self.eps
        g, delta, tmp = self._g, self._delta, self._tmp
        eg, ex = self.sq_grad, self.sq_delta
        np.multiply(grads.vector, scale, out=g)
        # eg = rho * eg + (1 - rho) * g * g
        eg *= rho
        np.multiply(1.0 - rho, g, out=tmp)
        tmp *= g
        eg += tmp
        # delta = -sqrt(ex + eps) / sqrt(eg + eps) * g
        np.add(ex, eps, out=delta)
        np.sqrt(delta, out=delta)
        np.negative(delta, out=delta)
        np.add(eg, eps, out=tmp)
        np.sqrt(tmp, out=tmp)
        delta /= tmp
        delta *= g
        # ex = rho * ex + (1 - rho) * delta * delta
        ex *= rho
        np.multiply(1.0 - rho, delta, out=tmp)
        tmp *= delta
        ex += tmp
        np.multiply(self.lr, delta, out=tmp)
        self.model.params.vector += tmp


def loss_on(model: Seq2SeqModel, texts: Sequence[tuple[str, str]]) -> float:
    """Mean per-character cross-entropy (terminal <eos> steps included)."""
    total = 0.0
    steps = 0
    for inp, out in texts:
        nll, n = model.nll(model.src_vocab.encode(inp), model.tgt_vocab.encode(out))
        total += nll
        steps += n
    if steps == 0:
        raise ConfigError("no scoreable steps in evaluation set")
    return total / steps


def train(pairs: Sequence[NePair], direction: str, config: ModelConfig,
          dev_pairs: Sequence[NePair] | None = None, *,
          max_epochs: int = 100, patience: int = 5,
          on_epoch: Callable[[int, float, float | None, Seq2SeqModel], bool | None] | None = None,
          ) -> Seq2SeqModel:
    """Train one translator direction; returns the best checkpoint.

    The monitored quantity is dev loss when dev_pairs is given, otherwise the
    epoch's mean training loss. Training stops when the monitor fails to
    improve for `patience` consecutive epochs or at max_epochs. Each pair is
    one update (batch size 1); pair counts are frequencies for the lexical
    table, not training multiplicities. on_epoch may return True to stop
    early, in which case the current (not best) parameters are kept.
    """
    if max_epochs < 0 or patience < 0:
        raise ConfigError(f"max_epochs and patience must be >= 0, got {max_epochs} and {patience}")
    model = make_model(pairs, direction, config)
    texts = oriented(pairs, direction)
    dev_texts = oriented(dev_pairs, direction) if dev_pairs else None
    encoded = [(model.src_vocab.encode(inp), model.tgt_vocab.encode(out))
               for inp, out in texts]

    opt = AdaDelta(model)
    rng = np.random.default_rng(config.seed)
    theta = model.params.vector
    best = theta.copy()
    best_loss = np.inf
    bad_epochs = 0

    for epoch in range(1, max_epochs + 1):
        order = rng.permutation(len(encoded))
        nll_total = 0.0
        step_total = 0
        for idx in order:
            nll, steps, grads = model.loss_and_grads(*encoded[idx])
            if not np.isfinite(nll):
                raise DivergenceError(f"non-finite training loss in epoch {epoch}")
            opt.update(grads, 1.0 / steps)
            nll_total += nll
            step_total += steps
        train_loss = nll_total / step_total

        dev_loss = loss_on(model, dev_texts) if dev_texts else None
        monitored = dev_loss if dev_loss is not None else train_loss
        if not np.isfinite(monitored):
            raise DivergenceError(f"non-finite monitored loss in epoch {epoch}")

        if on_epoch is not None and on_epoch(epoch, train_loss, dev_loss, model):
            return model

        if monitored < best_loss:
            best_loss = monitored
            np.copyto(best, theta)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= patience:
                break

    np.copyto(theta, best)
    return model


def gradient_check(model: Seq2SeqModel, texts: Sequence[tuple[str, str]],
                   eps: float = 1e-4) -> dict[str, float]:
    """Max relative error between analytic and central-difference gradients.

    Covers every parameter elementwise, walking the flat parameter vector;
    the report is keyed by tensor name. The batch loss is the mean
    per-character NLL over `texts`. Relative error for one element is
    |ga - gn| / max(|ga| + |gn|, 1e-6).
    """
    if not 0.0 < eps < math.inf:
        raise ConfigError(f"finite-difference eps must be finite and positive, got {eps}")
    encoded = [(model.src_vocab.encode(inp), model.tgt_vocab.encode(out))
               for inp, out in texts]

    theta = model.params.vector
    total = np.zeros_like(theta)
    steps_sum = 0
    for src_ids, tgt_ids in encoded:
        _, steps, grads = model.loss_and_grads(src_ids, tgt_ids)
        steps_sum += steps
        total += grads.vector
    analytic = total / steps_sum

    report: dict[str, float] = {}
    for name, start, stop, _ in model.layout:
        worst = 0.0
        for i in range(start, stop):
            saved = theta[i]
            theta[i] = saved + eps
            up = loss_on(model, texts)
            theta[i] = saved - eps
            down = loss_on(model, texts)
            theta[i] = saved
            numeric = (up - down) / (2.0 * eps)
            ga = analytic[i]
            err = abs(ga - numeric) / max(abs(ga) + abs(numeric), 1e-6)
            if err > worst:
                worst = err
        report[name] = worst
    return report
