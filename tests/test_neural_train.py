import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netrans.core import NePair, NeType
from netrans.errors import ConfigError, DivergenceError
from netrans.neural import (
    AdaDelta,
    BOS,
    EOS,
    ModelConfig,
    S2T,
    Seq2SeqModel,
    T2S,
    UNK,
    gradient_check,
    loss_on,
    make_model,
    oriented,
    train,
)
from trainer_oracle import OracleModel

PAIRS = [
    NePair("巴林", "balin", NeType.LOC),
    NePair("安娜", "anna", NeType.PER),
    NePair("马克", "make", NeType.PER),
]


def small_config(**kwargs):
    defaults = dict(hidden_size=10, embed_size=6, seed=1)
    defaults.update(kwargs)
    return ModelConfig(**defaults)


def oracle_step_logprobs(model, src_ids, tgt_ids):
    """log p of each of tgt_ids + <eos>, stepping the reference model one character at a time."""
    oracle = OracleModel(model)
    enc = oracle.encode(src_ids)
    att_enc = enc @ oracle.params["att_u"]
    s = oracle.initial_state(enc)
    y_prev = BOS
    out = []
    for y in list(tgt_ids) + [EOS]:
        logp, s = oracle.step(s, y_prev, enc, att_enc)
        out.append(logp[y])
        y_prev = y
    return out


def oracle_nll(model, src_ids, tgt_ids):
    """NLL sum and scored steps of tgt_ids + <eos>, skipping <unk> targets."""
    nll = 0.0
    steps = 0
    for y, logp in zip(list(tgt_ids) + [EOS], oracle_step_logprobs(model, src_ids, tgt_ids)):
        if y != UNK:
            nll -= logp
            steps += 1
    return nll, steps


def test_oriented_swaps_pairs_for_the_reverse_direction():
    assert oriented(PAIRS, S2T)[0] == ("巴林", "balin")
    assert oriented(PAIRS, T2S)[0] == ("balin", "巴林")
    with pytest.raises(ConfigError):
        oriented(PAIRS, "sideways")


def test_make_model_builds_vocabularies_from_the_right_sides():
    m = make_model(PAIRS, S2T, small_config())
    assert m.src_vocab.id_of("巴") != 2  # known, not <unk>
    assert m.tgt_vocab.id_of("b") != 2
    assert m.src_vocab.id_of("b") == 2  # Latin chars are unseen on the source side
    r = make_model(PAIRS, T2S, small_config())
    assert r.src_vocab.id_of("b") != 2
    with pytest.raises(ConfigError):
        make_model([], S2T, small_config())


def test_adadelta_first_step_matches_hand_computation():
    config = small_config(learning_rate=0.5, adadelta_rho=0.9, adadelta_eps=1e-6)
    model = make_model(PAIRS, S2T, config)
    theta0 = model.params["att_v"].copy()
    grads = model.zero_grads()
    g = np.full_like(theta0, 0.25)
    grads["att_v"][:] = g

    optimizer = AdaDelta(model)
    optimizer.update(grads)

    # Zeiler's recurrences from zero accumulators, scaled by the global rate
    e_g = 0.1 * g**2
    delta = -np.sqrt(1e-6) / np.sqrt(e_g + 1e-6) * g
    np.testing.assert_allclose(model.params["att_v"], theta0 + 0.5 * delta, atol=1e-15)


def test_adadelta_scale_rescales_the_gradient():
    config = small_config()
    a = make_model(PAIRS, S2T, config)
    b = make_model(PAIRS, S2T, config)
    grads_a = a.zero_grads()
    grads_b = b.zero_grads()
    grads_a["att_v"][:] = 1.0
    grads_b["att_v"][:] = 0.5
    AdaDelta(a).update(grads_a, scale=0.5)
    AdaDelta(b).update(grads_b, scale=1.0)
    np.testing.assert_allclose(a.params["att_v"], b.params["att_v"], atol=1e-15)


def test_loss_on_matches_sequence_logprob():
    model = make_model(PAIRS, S2T, small_config())
    text_in, text_out = oriented(PAIRS, S2T)[0]
    expected = -model.sequence_logprob(text_in, text_out) / (len(text_out) + 1)
    assert abs(loss_on(model, [(text_in, text_out)]) - expected) < 1e-12


def test_loss_on_skips_unknown_target_chars():
    model = make_model(PAIRS, S2T, small_config())
    value = loss_on(model, [("巴林", "baQin")])  # Q is not in the target vocab
    assert np.isfinite(value)
    with pytest.raises(ConfigError):
        loss_on(model, [])


def test_gradients_match_finite_differences():
    config = ModelConfig(hidden_size=8, embed_size=8, seed=5)
    pairs = [NePair("巴林", "bal", NeType.LOC), NePair("克安", "kean", NeType.PER)]
    model = make_model(pairs, S2T, config)
    report = gradient_check(model, oriented(pairs, S2T), eps=1e-4)
    assert set(report) == set(model.params)
    worst = max(report.values())
    assert worst <= 1e-3, f"worst relative error {worst:.3e}"


@pytest.mark.parametrize("eps", [0.0, -1e-4, float("nan"), float("inf")])
def test_gradient_check_needs_a_finite_positive_step(eps):
    model = make_model(PAIRS, S2T, small_config())
    with pytest.raises(ConfigError, match="finite-difference eps"):
        gradient_check(model, oriented(PAIRS, S2T), eps=eps)


@pytest.mark.parametrize("kwargs", [dict(max_epochs=-3), dict(patience=-1)])
def test_training_rejects_negative_epochs_and_patience(kwargs):
    with pytest.raises(ConfigError, match="must be >= 0"):
        train(PAIRS, S2T, small_config(), **kwargs)


def test_zero_epochs_leave_the_initial_model():
    model = train(PAIRS, S2T, small_config(), max_epochs=0, patience=0)
    initial = make_model(PAIRS, S2T, small_config())
    assert np.array_equal(model.params.vector, initial.params.vector)


def test_unknown_target_chars_are_skipped_like_the_dev_loss():
    config = ModelConfig(hidden_size=8, embed_size=8, seed=5)
    model = make_model(PAIRS, S2T, config)
    src_ids = model.src_vocab.encode("巴林")
    tgt_ids = model.tgt_vocab.encode("baQin")  # Q is not in the target vocab
    assert UNK in tgt_ids
    nll, steps, _ = model.loss_and_grads(src_ids, tgt_ids)
    assert np.isfinite(nll)
    assert (nll, steps) == model.nll(src_ids, tgt_ids) == oracle_nll(model, src_ids, tgt_ids)
    assert steps == len("baQin")  # <eos> scored, the unknown step not
    report = gradient_check(model, [("巴林", "baQin"), ("克安", "kean")], eps=1e-4)
    worst = max(report.values())
    assert worst <= 1e-3, f"worst relative error {worst:.3e}"


def test_one_epoch_at_the_default_rate_reduces_training_loss():
    config = small_config()  # learning_rate 1e-4
    texts = oriented(PAIRS, S2T)
    before_model = make_model(PAIRS, S2T, config)
    before = loss_on(before_model, texts)
    model = train(PAIRS, S2T, config, max_epochs=1)
    assert loss_on(model, texts) < before


def test_training_is_deterministic():
    config = small_config(learning_rate=1.0)
    a = train(PAIRS, S2T, config, max_epochs=5)
    b = train(PAIRS, S2T, config, max_epochs=5)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])


def test_training_overfits_a_tiny_list():
    config = small_config(hidden_size=16, embed_size=8, learning_rate=1.0)
    model = train(PAIRS, S2T, config, max_epochs=120)
    assert loss_on(model, oriented(PAIRS, S2T)) < 0.2


def test_on_epoch_callback_can_stop_training():
    seen = []

    def stop_at_three(epoch, train_loss, dev_loss, model):
        seen.append((epoch, train_loss, dev_loss))
        return epoch == 3

    train(PAIRS, S2T, small_config(), max_epochs=50, on_epoch=stop_at_three)
    assert [e for e, _, _ in seen] == [1, 2, 3]
    assert all(dev is None for _, _, dev in seen)


def test_dev_pairs_are_reported_to_the_callback():
    seen = []

    def record(epoch, train_loss, dev_loss, model):
        seen.append(dev_loss)
        return True

    train(PAIRS, S2T, small_config(), PAIRS[:1], max_epochs=5, on_epoch=record)
    assert len(seen) == 1 and seen[0] is not None and np.isfinite(seen[0])


def test_patience_restores_the_best_dev_checkpoint():
    seen = []

    def record(epoch, train_loss, dev_loss, model):
        seen.append(dev_loss)
        return False

    config = small_config(hidden_size=16, embed_size=8, learning_rate=1.0)
    # same source, contradictory target: overfitting the training list must
    # eventually push the dev loss up, which is what patience watches for
    conflicting_dev = [NePair("巴林", "nilab", NeType.LOC)]
    model = train(PAIRS, S2T, config, conflicting_dev,
                  max_epochs=400, patience=3, on_epoch=record)
    assert len(seen) < 400
    restored = loss_on(model, oriented(conflicting_dev, S2T))
    assert abs(restored - min(seen)) < 1e-9


def test_divergence_is_reported_with_the_epoch(monkeypatch):
    def explode(self, src_ids, tgt_ids):
        return float("nan"), 1, self.zero_grads()

    monkeypatch.setattr(Seq2SeqModel, "loss_and_grads", explode)
    with pytest.raises(DivergenceError, match="epoch 1"):
        train(PAIRS, S2T, small_config(), max_epochs=5)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 8), st.integers(0, 2**16),
       st.sampled_from([1.0, 3.0, 10.0]),
       st.text("巴林安娜", min_size=1, max_size=6),
       st.text("balinQ", max_size=7))  # Q is outside the target vocab
def test_scores_match_a_step_loop_over_the_reference_exactly(hidden, embed, seed, scale,
                                                             src, tgt):
    model = make_model(PAIRS, S2T, small_config(hidden_size=hidden, embed_size=embed,
                                                seed=seed))
    model.params.vector[...] *= scale
    src_ids, tgt_ids = model.src_vocab.encode(src), model.tgt_vocab.encode(tgt)
    step_logprobs = oracle_step_logprobs(model, src_ids, tgt_ids)
    for terminated in (True, False):
        expected = 0.0
        for logp in step_logprobs[:len(tgt) + terminated]:
            expected += logp
        assert model.sequence_logprob(src, tgt, terminated) == expected
    nll, steps = oracle_nll(model, src_ids, tgt_ids)
    assert model.nll(src_ids, tgt_ids) == (nll, steps)
    assert model.loss_and_grads(src_ids, tgt_ids)[:2] == (nll, steps)
    assert loss_on(model, [(src, tgt)]) == nll / steps
