import math

import numpy as np
import pytest

from netrans.errors import (
    ConfigError,
    DegenerateInputError,
    ShapeError,
    VocabError,
)
from netrans.neural import BOS, EOS, PAD, UNK, CharVocab, ModelConfig, RESERVED, Seq2SeqModel


def tiny_model(hidden=6, embed=4, src_chars="ab", tgt_chars="xyz", seed=0,
               max_decode_len=16):
    config = ModelConfig(hidden_size=hidden, embed_size=embed,
                         max_decode_len=max_decode_len, seed=seed)
    src_vocab = CharVocab.from_texts([src_chars])
    tgt_vocab = CharVocab.from_texts([tgt_chars])
    return Seq2SeqModel(config, src_vocab, tgt_vocab)


# -- vocabulary ---------------------------------------------------------------


def test_vocab_reserves_low_ids():
    v = CharVocab.from_texts(["ba"])
    assert (BOS, EOS, UNK, PAD) == (0, 1, 2, 3)
    assert len(v) == len(RESERVED) + 2
    assert v.id_of("a") == 4  # codepoint order, not first-seen order
    assert v.id_of("b") == 5


def test_vocab_maps_unseen_chars_to_unk():
    v = CharVocab.from_texts(["ab"])
    assert v.id_of("Z") == UNK
    assert v.encode("aZb") == [v.id_of("a"), UNK, v.id_of("b")]


def test_vocab_decode_skips_reserved_ids():
    v = CharVocab.from_texts(["ab"])
    ids = [BOS, v.id_of("a"), UNK, v.id_of("b"), EOS, PAD]
    assert v.decode(ids) == "ab"


def test_vocab_rejects_empty_and_bad_ids():
    with pytest.raises(VocabError):
        CharVocab.from_texts([])
    with pytest.raises(VocabError):
        CharVocab.from_texts([""])
    v = CharVocab.from_texts(["ab"])
    with pytest.raises(VocabError):
        v.char_of(len(v))


@pytest.mark.parametrize("idx", [-1, -2, -6, -7, 10])
def test_vocab_rejects_ids_outside_it_at_both_ends(idx):
    # negative ids must not wrap around to the end of the character tuple
    v = CharVocab(tuple("abcdef"))
    with pytest.raises(VocabError, match=f"id {idx} outside vocabulary of size 10"):
        v.char_of(idx)
    with pytest.raises(VocabError, match=f"id {idx} outside vocabulary of size 10"):
        v.decode([4, idx, 5])
    assert v.decode([4, 9]) == "af"


# -- configuration and parameters --------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"hidden_size": 0},
    {"embed_size": -1},
    {"max_decode_len": 0},
    {"learning_rate": 0.0},
    {"adadelta_rho": 1.0},
    {"adadelta_eps": 0.0},
    {"learning_rate": float("nan")},
    {"learning_rate": float("inf")},
    {"adadelta_eps": float("nan")},
    {"adadelta_eps": float("inf")},
])
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        ModelConfig(**kwargs)


def test_parameter_shapes_match_declared_specs():
    m = tiny_model()
    specs = dict(m.param_specs())
    assert set(specs) == set(m.params)
    for name, shape in specs.items():
        assert m.params[name].shape == shape, name
        assert m.params[name].dtype == np.float64


def test_initialization_is_deterministic_and_biases_are_zero():
    a, b = tiny_model(seed=7), tiny_model(seed=7)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    c = tiny_model(seed=8)
    assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)
    for name, tensor in a.params.items():
        if name.rsplit("_", 1)[-1].startswith("b"):
            assert not tensor.any(), name
        assert np.abs(tensor).max() <= 0.08


def test_model_rejects_wrong_shaped_params():
    m = tiny_model()
    bad = {k: v.copy() for k, v in m.params.items()}
    bad["att_v"] = np.zeros(3)
    with pytest.raises(ShapeError):
        Seq2SeqModel(m.config, m.src_vocab, m.tgt_vocab, bad)


def test_params_are_views_into_one_vector_in_spec_order():
    m = tiny_model()
    vector = m.params.vector
    assert vector.dtype == np.float64 and vector.flags.c_contiguous
    offset = 0
    for name, shape in m.param_specs():
        view = m.params[name]
        assert view.base is vector, name
        start = (view.__array_interface__["data"][0]
                 - vector.__array_interface__["data"][0]) // vector.itemsize
        assert start == offset, name
        offset += view.size
    assert offset == vector.size
    assert list(m.params) == [name for name, _ in m.param_specs()]


def test_writes_through_the_vector_are_visible_by_name():
    m = tiny_model()
    m.params.vector[:] = 0.0
    assert not any(t.any() for t in m.params.values())
    name, start, _, _ = m.layout[3]
    m.params.vector[start] = 5.0
    assert m.params[name].flat[0] == 5.0
    m.params["out_b"][-1] = 7.0
    assert m.params.vector[-1] == 7.0


def test_gradients_share_the_parameter_layout():
    m = tiny_model()
    grads = m.zero_grads()
    assert grads.vector.shape == m.params.vector.shape and not grads.vector.any()
    assert not np.shares_memory(grads.vector, m.params.vector)
    for name, view in grads.items():
        assert view.base is grads.vector and view.shape == m.params[name].shape


def test_model_copies_the_params_it_is_given():
    m = tiny_model()
    given = {k: v.copy() for k, v in m.params.items()}
    copy = Seq2SeqModel(m.config, m.src_vocab, m.tgt_vocab, given)
    given["att_v"][:] = 99.0
    assert not (copy.params["att_v"] == 99.0).any()
    assert np.array_equal(copy.params.vector, m.params.vector)


# -- encoder -------------------------------------------------------------------


def test_encode_concatenates_both_directions():
    m = tiny_model(hidden=5)
    enc = m.encode(m.src_vocab.encode("ab"))
    assert enc.shape == (2, 10)
    assert np.all(np.abs(enc) <= 1.0)  # GRU states are convex tanh mixtures


def test_encode_rejects_empty_and_out_of_range():
    m = tiny_model()
    with pytest.raises(DegenerateInputError):
        m.encode([])
    with pytest.raises(VocabError):
        m.encode([99])


def test_encoder_is_direction_sensitive():
    m = tiny_model(src_chars="ab")
    ab = m.encode(m.src_vocab.encode("ab"))
    ba = m.encode(m.src_vocab.encode("ba"))
    assert not np.allclose(ab, ba)


# -- attention -----------------------------------------------------------------


def test_attention_weights_match_direct_formula():
    m = tiny_model(hidden=4)
    enc = m.encode(m.src_vocab.encode("aba"))
    state = m.initial_state(enc)

    scores = np.tanh(state @ m.params["att_w"] + enc @ m.params["att_u"]) @ m.params["att_v"]
    expected = np.exp(scores) / np.exp(scores).sum()

    weights = m.attention(state, enc)
    np.testing.assert_allclose(weights, expected, atol=1e-12)
    assert abs(weights.sum() - 1.0) < 1e-12
    assert np.all(weights > 0)


def test_attention_validates_shapes():
    m = tiny_model(hidden=4)
    enc = m.encode(m.src_vocab.encode("ab"))
    with pytest.raises(ShapeError):
        m.attention(np.zeros(5), enc)
    with pytest.raises(ShapeError):
        m.attention(np.zeros(4), enc[:, :-1])


# -- decoding steps -------------------------------------------------------------


def test_step_distribution_sums_to_one_and_masks_specials():
    m = tiny_model()
    enc = m.encode(m.src_vocab.encode("ab"))
    s = m.initial_state(enc)
    logp, s_new = m.step(s, BOS, enc)
    probs = np.exp(logp)
    assert abs(probs.sum() - 1.0) < 1e-12
    assert probs[BOS] == 0.0 and probs[UNK] == 0.0 and probs[PAD] == 0.0
    assert probs[EOS] > 0.0
    assert s_new.shape == (m.config.hidden_size,)


def test_zero_parameters_give_uniform_steps():
    m = tiny_model(tgt_chars="xyz")
    for tensor in m.params.values():
        tensor[:] = 0.0
    enc = m.encode(m.src_vocab.encode("a"))
    logp, _ = m.step(m.initial_state(enc), BOS, enc)
    live = len(m.tgt_vocab) - 3  # everything except BOS/UNK/PAD
    expected = -math.log(live)
    for i in range(len(m.tgt_vocab)):
        if i in (BOS, UNK, PAD):
            assert np.isneginf(logp[i])
        else:
            assert abs(logp[i] - expected) < 1e-12


def test_sequence_logprob_closed_form_with_zero_parameters():
    m = tiny_model(tgt_chars="xyz")
    for tensor in m.params.values():
        tensor[:] = 0.0
    live = len(m.tgt_vocab) - 3
    # each of the two steps (char + <eos>) is uniform over the live ids
    assert abs(m.sequence_logprob("a", "x") - (-2 * math.log(live))) < 1e-12
    assert abs(m.sequence_logprob("a", "x", terminated=False) - (-math.log(live))) < 1e-12


def test_sequence_logprob_contracts():
    m = tiny_model()
    with pytest.raises(DegenerateInputError):
        m.sequence_logprob("", "x")
    # empty target is legal: it scores the immediate-<eos> event
    assert m.sequence_logprob("a", "") < 0.0
    assert m.sequence_logprob("a", "x") < m.sequence_logprob("a", "x", terminated=False)


def exhaustive_mass(model, src: str, max_len: int) -> float:
    """Total probability of the complete decode tree cut at max_len."""
    chars = [model.tgt_vocab.char_of(i) for i in range(4, len(model.tgt_vocab))]

    def leaves(prefix: str):
        if len(prefix) == max_len:
            yield prefix, False
            return
        yield prefix, True
        for c in chars:
            yield from leaves(prefix + c)

    return sum(
        math.exp(model.sequence_logprob(src, text, terminated=done))
        for text, done in leaves("")
    )


def test_probability_mass_is_exactly_one_on_toy_vocab():
    m = tiny_model(tgt_chars="xy", seed=3)  # vocab size 6 with the 4 reserved ids
    mass = exhaustive_mass(m, "ab", max_len=3)
    assert abs(mass - 1.0) < 1e-10
