"""The one GRU cell: decoding against the per-tensor reference, and its views.

The model's encoder and decoder cells are built once, as views of the flat
parameter vector. These tests pin that the views are the named tensors,
that gradients land in the gradient vector, and that a model updated in
place encodes and decodes exactly like one built afresh from the same
numbers.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from netrans.core import NePair, NeType
from netrans.neural import (
    AdaDelta,
    BOS,
    CharVocab,
    ModelConfig,
    S2T,
    Seq2SeqModel,
    train,
)
from trainer_oracle import OracleModel

SRC_CHARS = "巴林安娜"
TGT_CHARS = "abln"


def random_model(config: ModelConfig, scale: float) -> Seq2SeqModel:
    """A model whose every parameter, biases included, is drawn at `scale`."""
    model = Seq2SeqModel(config, CharVocab.from_texts([SRC_CHARS]),
                         CharVocab.from_texts([TGT_CHARS]))
    rng = np.random.default_rng(config.seed)
    model.params.vector[:] = rng.normal(scale=scale, size=model.params.vector.size)
    return model


def decode_trace(model, src_ids, y_prevs):
    """Encoder states, initial state, then (log-probs, state) of each step."""
    enc = model.encode(src_ids)
    att_enc = enc @ model.params["att_u"]
    s = model.initial_state(enc)
    trace = [enc, s]
    for y_prev in y_prevs:
        logp, s = model.step(s, y_prev, enc, att_enc)
        trace += [logp, s]
    return trace


def assert_same_trace(got, want):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert np.array_equal(a, b), i


@st.composite
def decode_case(draw):
    config = ModelConfig(hidden_size=draw(st.integers(1, 12)),
                         embed_size=draw(st.integers(1, 8)),
                         seed=draw(st.integers(0, 2**16)))
    model = random_model(config, draw(st.sampled_from([0.08, 1.0, 3.0])))
    src_ids = draw(st.lists(st.integers(0, len(model.src_vocab) - 1), min_size=1, max_size=6))
    tokens = st.integers(0, len(model.tgt_vocab) - 1)
    y_prevs = [BOS] + draw(st.lists(tokens, max_size=5))
    return model, src_ids, y_prevs


@settings(max_examples=100, deadline=None)
@given(decode_case())
def test_encode_and_step_match_the_reference_exactly(case):
    model, src_ids, y_prevs = case
    assert_same_trace(decode_trace(model, src_ids, y_prevs),
                      decode_trace(OracleModel(model), src_ids, y_prevs))


def test_cells_are_views_of_the_parameter_and_gradient_vectors():
    model = random_model(ModelConfig(hidden_size=5, embed_size=3), 1.0)
    p, g = model.params, model.zero_grads()
    cells = {("enc_f", "enc_b"): (model._enc, model._enc_block),
             ("dec",): (model._dec, model._dec_block)}
    for prefixes, (cell, block) in cells.items():
        graded = cell.with_grads(g.vector[block])
        for name in ("w", "u_zr", "u_h", "b_zr", "b_h"):
            assert np.shares_memory(getattr(graded, name), p.vector), name
            assert not np.shares_memory(getattr(graded, name), g.vector), name
        for name in ("g_w", "g_u_zr", "g_u_h", "g_b"):
            assert np.shares_memory(getattr(graded, name), g.vector), name
            assert not np.shares_memory(getattr(graded, name), p.vector), name
        # each lane and gate is its named tensor
        for lane, prefix in enumerate(prefixes):
            pick = (lane,) if len(prefixes) > 1 else ()
            for i, gate in enumerate("zrh"):
                views = {
                    "w": (cell.w[pick + (i,)], graded.g_w[pick + (i,)]),
                    "u": ((cell.u_zr[pick + (i,)], graded.g_u_zr[pick + (i,)]) if i < 2
                          else (cell.u_h[pick], graded.g_u_h[pick])),
                    "b": ((cell.b_zr[pick + (i,)] if i < 2 else cell.b_h[pick]),
                          graded.g_b[pick + (i,)]),
                }
                for kind, (weight, grad) in views.items():
                    name = f"{prefix}_{kind}{gate}"
                    assert np.shares_memory(weight, p[name]), name
                    assert np.array_equal(weight, p[name]), name
                    assert np.shares_memory(grad, g[name]), name


def fresh_copy(model: Seq2SeqModel) -> Seq2SeqModel:
    return Seq2SeqModel(model.config, model.src_vocab, model.tgt_vocab, dict(model.params))


def test_an_optimizer_step_reaches_the_cells():
    model = random_model(ModelConfig(hidden_size=6, embed_size=4, learning_rate=1.0), 1.0)
    src_ids = model.src_vocab.encode("巴林安娜")
    y_prevs = [BOS] + model.tgt_vocab.encode("nab")
    before = decode_trace(model, src_ids, y_prevs)
    _, steps, grads = model.loss_and_grads(src_ids, model.tgt_vocab.encode("blan"))
    AdaDelta(model).update(grads, 1.0 / steps)
    after = decode_trace(model, src_ids, y_prevs)
    assert not np.array_equal(after[0], before[0])
    assert_same_trace(after, decode_trace(fresh_copy(model), src_ids, y_prevs))


def test_the_best_checkpoint_restore_reaches_the_cells():
    pairs = [NePair("巴林", "balin", NeType.LOC), NePair("安娜", "anna", NeType.PER)]
    # same source, contradictory target: the dev loss rises from the first
    # epoch on, so training ends by copying an earlier checkpoint back
    conflicting_dev = [NePair("巴林", "nilab", NeType.LOC)]
    last = []

    def keep_last(epoch, train_loss, dev_loss, model):
        last[:] = [model.params.vector.copy()]

    config = ModelConfig(hidden_size=6, embed_size=3, learning_rate=1.0, seed=1)
    model = train(pairs, S2T, config, conflicting_dev, max_epochs=50, patience=2,
                  on_epoch=keep_last)
    assert not np.array_equal(model.params.vector, last[0])
    src_ids = model.src_vocab.encode("巴林安")
    y_prevs = [BOS] + model.tgt_vocab.encode("anil")
    assert_same_trace(decode_trace(model, src_ids, y_prevs),
                      decode_trace(fresh_copy(model), src_ids, y_prevs))
