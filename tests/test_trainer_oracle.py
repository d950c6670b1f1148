"""The flat-buffer trainer against the per-tensor reference, with exact equality."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from netrans.core import NePair, NeType
from netrans.neural import AdaDelta, ModelConfig, S2T, T2S, make_model, save_model, train
from trainer_oracle import OracleAdaDelta, OracleModel, oracle_model_bytes, oracle_train

# few characters, so pairs repeat them within and across strings
SRC_CHARS = "巴林安娜"
TGT_CHARS = "abln"


@st.composite
def training_case(draw):
    config = ModelConfig(
        hidden_size=draw(st.integers(1, 12)),
        embed_size=draw(st.integers(1, 8)),
        learning_rate=draw(st.sampled_from([1e-4, 0.5, 1.0])),
        adadelta_rho=draw(st.sampled_from([0.9, 0.95])),
        seed=draw(st.integers(0, 2**16)),
    )
    pair = st.builds(NePair, st.text(SRC_CHARS, min_size=1, max_size=6),
                     st.text(TGT_CHARS, min_size=1, max_size=6), st.just(NeType.PER))
    pairs = draw(st.lists(pair, min_size=1, max_size=3))
    scales = draw(st.lists(st.sampled_from([1.0, 0.5, 1.0 / 3.0, 1.0 / 7.0]),
                           min_size=2, max_size=2))
    return config, pairs, draw(st.sampled_from([S2T, T2S])), scales


@settings(max_examples=60, deadline=None)
@given(training_case())
def test_loss_grads_and_update_match_the_reference_exactly(case):
    config, pairs, direction, scales = case
    model = make_model(pairs, direction, config)
    oracle = OracleModel(model)
    opt, oracle_opt = AdaDelta(model), OracleAdaDelta(oracle)
    src, tgt = (pairs[0].src, pairs[0].tgt) if direction == S2T else (pairs[0].tgt, pairs[0].src)
    src_ids, tgt_ids = model.src_vocab.encode(src), model.tgt_vocab.encode(tgt)

    # two updates, so the second starts from non-zero accumulators
    for scale in scales:
        nll, steps, grads = model.loss_and_grads(src_ids, tgt_ids)
        ref_nll, ref_steps, ref_grads = oracle.loss_and_grads(src_ids, tgt_ids)
        assert nll == ref_nll
        assert steps == ref_steps
        for name, _ in model.param_specs():
            assert np.array_equal(grads[name], ref_grads[name]), name
        opt.update(grads, scale)
        oracle_opt.update(ref_grads, scale)
        for name, start, stop, _ in model.layout:
            assert np.array_equal(model.params[name], oracle.params[name]), name
            assert np.array_equal(opt.sq_grad[start:stop], oracle_opt.sq_grad[name].ravel())
            assert np.array_equal(opt.sq_delta[start:stop], oracle_opt.sq_delta[name].ravel())


def test_trained_model_files_match_the_reference_byte_for_byte(synth_corpus, tmp_path):
    pairs = synth_corpus.train_pairs
    config = ModelConfig(hidden_size=32, embed_size=16, learning_rate=1.0, seed=42)
    for direction in (S2T, T2S):
        path = tmp_path / f"{direction}.bin"
        save_model(train(pairs, direction, config, max_epochs=3, patience=3), str(path))
        fresh, best = oracle_train(pairs, direction, config, max_epochs=3, patience=3)
        assert path.read_bytes() == oracle_model_bytes(fresh, best), direction
