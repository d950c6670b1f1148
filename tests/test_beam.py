import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netrans.core import NePair, NeType
from netrans.errors import ConfigError, DegenerateInputError
from netrans.neural import (
    BOS,
    EOS,
    CharVocab,
    ModelConfig,
    S2T,
    Seq2SeqModel,
    make_model,
    train,
    translate,
)

PAIRS = [
    NePair("ab", "xy", NeType.LOC),
    NePair("bc", "yz", NeType.LOC),
    NePair("ca", "zx", NeType.LOC),
]


@pytest.fixture(scope="module")
def fit_model():
    config = ModelConfig(hidden_size=16, embed_size=8, learning_rate=1.0,
                         max_decode_len=8, seed=4)
    return train(PAIRS, S2T, config, max_epochs=150)


def greedy_rollout(model, src: str) -> tuple[str, float]:
    """Independent argmax decode used as the beam-width-1 oracle."""
    enc = model.encode(model.src_vocab.encode(src))
    att_enc = enc @ model.params["att_u"]
    s = model.initial_state(enc)
    y_prev = BOS
    ids: list[int] = []
    total = 0.0
    for _ in range(model.config.max_decode_len):
        logp, s = model.step(s, y_prev, enc, att_enc)
        y = int(np.argmax(logp))
        total += float(logp[y])
        if y == EOS:
            return model.tgt_vocab.decode(ids), total
        ids.append(y)
        y_prev = y
    return model.tgt_vocab.decode(ids), total


def reference_translate(model, src: str, beam_width: int,
                        max_len: int | None = None) -> list[tuple[str, float]]:
    """Beam search over Python tuples: score every extension, sort them all.

    The reference for translate's numpy selection; same steps, same sums.
    """
    if max_len is None:
        max_len = model.config.max_decode_len
    enc = model.encode(model.src_vocab.encode(src))
    att_enc = enc @ model.params["att_u"]
    live = [((), 0.0, model.initial_state(enc), BOS)]
    finished = []
    for _ in range(max_len):
        expansions = []
        for ids, lp, state, y_prev in live:
            logp, s_new = model.step(state, y_prev, enc, att_enc)
            for y in range(len(logp)):
                step_lp = logp[y]
                if not math.isfinite(step_lp):
                    continue
                expansions.append((ids + (y,), lp + step_lp, s_new))
        expansions.sort(key=lambda item: (-item[1], item[0]))
        live = []
        for ids, lp, s_new in expansions[:beam_width]:
            if ids[-1] == EOS:
                finished.append((lp, ids[:-1]))
            else:
                live.append((ids, lp, s_new, ids[-1]))
        if not live:
            break
    for ids, lp, _, _ in live:
        finished.append((lp, ids))
    finished.sort(key=lambda item: (-item[0], item[1]))
    return [(model.tgt_vocab.decode(ids), float(lp)) for lp, ids in finished[:beam_width]]


def test_rejects_bad_arguments(fit_model):
    with pytest.raises(ConfigError):
        translate(fit_model, "ab", beam_width=0)
    with pytest.raises(DegenerateInputError):
        translate(fit_model, "")


@pytest.mark.parametrize("max_len", [0, -2])
def test_rejects_max_len_below_one(fit_model, max_len):
    # an empty decode is not a confident empty translation
    with pytest.raises(ConfigError, match="max_len must be >= 1"):
        translate(fit_model, "ab", max_len=max_len)


def test_beam_one_equals_greedy(fit_model):
    for src in ("ab", "bc", "ca", "cb"):
        (cand, score), = translate(fit_model, src, beam_width=1)
        expect_text, expect_score = greedy_rollout(fit_model, src)
        assert cand == expect_text
        assert abs(score - expect_score) < 1e-12


def test_overfit_model_recalls_its_training_pairs(fit_model):
    for pair in PAIRS:
        best, _ = translate(fit_model, pair.src, beam_width=5)[0]
        assert best == pair.tgt


def test_kbest_is_sorted_unique_and_scored_exactly(fit_model):
    kbest = translate(fit_model, "ab", beam_width=5)
    assert len(kbest) == 5
    texts = [text for text, _ in kbest]
    assert len(set(texts)) == len(texts)
    scores = [score for _, score in kbest]
    assert scores == sorted(scores, reverse=True)
    max_len = fit_model.config.max_decode_len
    for text, score in kbest:
        # hypotheses cut at the length limit carry their unterminated score
        done = len(text) < max_len
        recomputed = fit_model.sequence_logprob("ab", text, terminated=done)
        assert abs(score - recomputed) < 1e-12


def test_wider_beams_never_lose_probability(fit_model):
    top1 = translate(fit_model, "ab", beam_width=1)[0][1]
    top5 = translate(fit_model, "ab", beam_width=5)[0][1]
    top9 = translate(fit_model, "ab", beam_width=9)[0][1]
    assert top5 >= top1 - 1e-12
    assert top9 >= top5 - 1e-12


def test_max_len_truncates_candidates(fit_model):
    for text, score in translate(fit_model, "ab", beam_width=4, max_len=1):
        assert len(text) <= 1
        assert math.isfinite(score)


def test_scores_are_log_probabilities(fit_model):
    kbest = translate(fit_model, "ab", beam_width=5)
    assert all(score <= 0.0 for _, score in kbest)
    assert sum(math.exp(score) for _, score in kbest) <= 1.0 + 1e-12


SRC_CHARS = "abc北京"


def random_model(seed: int, tgt_chars: str, sharpness: float, output: str,
                 max_decode_len: int = 6) -> Seq2SeqModel:
    """Random small model; output "fixed" makes every step's distribution the
    same, so reordered strings tie exactly, and "uniform" ties every id."""
    config = ModelConfig(hidden_size=6, embed_size=4, max_decode_len=max_decode_len, seed=seed)
    model = Seq2SeqModel(config, CharVocab.from_texts(["abc"]), CharVocab.from_texts([tgt_chars]))
    model.params["out_w"] *= sharpness
    if output != "random":
        model.params["out_w"][:] = 0.0
    if output == "fixed":
        model.params["out_b"][:] = np.random.default_rng(seed).normal(size=len(model.tgt_vocab))
    if output == "uniform":
        model.params["out_b"][:] = 0.0
    return model


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**16),
       tgt_chars=st.sampled_from(["x", "xy", "xyzuvw", "ABCDEFGHIJKL"]),
       sharpness=st.sampled_from([1.0, 30.0, 300.0]),
       output=st.sampled_from(["random", "fixed", "uniform"]),
       src=st.text(SRC_CHARS, min_size=1, max_size=6),
       beam_width=st.integers(1, 8),
       max_len=st.sampled_from([None, 1, 3]))
def test_translate_matches_reference(seed, tgt_chars, sharpness, output, src, beam_width,
                                     max_len):
    # "北京" are outside the source vocabulary; "x" and "xy" give fewer
    # real characters than most beam widths
    model = random_model(seed, tgt_chars, sharpness, output)
    assert (translate(model, src, beam_width, max_len)
            == reference_translate(model, src, beam_width, max_len))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**16),
       tgt_chars=st.sampled_from(["x", "xy", "xyzuvw"]),
       output=st.sampled_from(["random", "fixed", "uniform"]),
       bad_biases=st.lists(st.tuples(st.integers(0, 9),
                                     st.sampled_from([-np.inf, -np.inf, np.nan])),
                           max_size=4),
       inf_weight=st.booleans(),
       src=st.text(SRC_CHARS, min_size=1, max_size=6),
       beam_width=st.integers(1, 8),
       max_len=st.sampled_from([None, 1, 3]))
def test_non_finite_scores_are_dropped_as_the_reference_drops_them(
        seed, tgt_chars, output, bad_biases, inf_weight, src, beam_width, max_len):
    # a -inf bias drops that id at every step, and a NaN one at a real id
    # every extension (the log-softmax of a row with a NaN is all NaN); an
    # infinite weight makes that id's logit +-inf or NaN depending on the
    # state, so some rows of a step are all NaN and others lose one id. With
    # "x" or "xy" most steps have fewer finite extensions than beam_width
    model = random_model(seed, tgt_chars, 1.0, output)
    n = len(model.tgt_vocab)
    for i, bias in bad_biases:
        model.params["out_b"][i % n] = bias
    if inf_weight:
        model.params["out_w"][0, n - 1] = np.inf
    with np.errstate(invalid="ignore"):
        assert (translate(model, src, beam_width, max_len)
                == reference_translate(model, src, beam_width, max_len))


def test_all_ties_break_toward_the_lower_character_id():
    model = random_model(0, "xyz", 1.0, "uniform")
    # <eos> has the lowest unmasked id and "x" the lowest character id, so each
    # step keeps <eos> and the "x" extensions ahead of their equally scored rivals
    assert [text for text, _ in translate(model, "ab", beam_width=4)] == ["", "x", "xx", "xxx"]
    assert [text for text, _ in translate(model, "ab", beam_width=4, max_len=1)] == [
        "", "x", "y", "z"]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**16),
       tgt_chars=st.sampled_from(["x", "xy", "xyzuvw", "ABCDEFGHIJKL"]),
       sharpness=st.sampled_from([1.0, 30.0]),
       output=st.sampled_from(["random", "fixed", "uniform"]),
       eos_bias=st.sampled_from([0.0, 2.0, 6.0]),
       src=st.text(SRC_CHARS, min_size=1, max_size=6),
       beam_width=st.integers(1, 8),
       max_decode_len=st.sampled_from([2, 8, 20, 40]))
def test_early_stop_matches_the_reference(seed, tgt_chars, sharpness, output, eos_bias, src,
                                          beam_width, max_decode_len):
    # tied and <eos>-biased outputs finish hypotheses early, so the search
    # often stops with hypotheses still alive, well before max_decode_len
    model = random_model(seed, tgt_chars, sharpness, output, max_decode_len)
    model.params["out_b"][EOS] += eos_bias
    assert translate(model, src, beam_width) == reference_translate(model, src, beam_width)


def test_one_stacked_step_per_beam_step_and_an_early_stop(fit_model, monkeypatch):
    shapes = []
    step = Seq2SeqModel.step

    def counting(self, s_prev, *args):
        shapes.append(np.shape(s_prev))
        return step(self, s_prev, *args)

    monkeypatch.setattr(Seq2SeqModel, "step", counting)
    kbest = translate(fit_model, "ab", beam_width=5)
    monkeypatch.undo()
    # every call steps all live hypotheses as rows, and the 5-best is
    # decided before any hypothesis reaches the length cap
    assert shapes[0] == (1, fit_model.config.hidden_size)
    assert all(len(shape) == 2 for shape in shapes)
    assert len(shapes) < fit_model.config.max_decode_len
    assert kbest == reference_translate(fit_model, "ab", 5)


def bigram_model(transitions: dict[str, dict[str, float]], max_decode_len: int) -> Seq2SeqModel:
    """A model whose step distribution depends only on the previous id.

    transitions maps a previous character ("^" for <bos>) to the logits of
    its successors ("$" for <eos>); every other real id gets logit -700,
    whose exp is too small to change a sum of ones, so a successor given
    alone has log-prob exactly 0 and two equal ones exactly -log 2.
    """
    tgt = CharVocab.from_texts(["abc"])
    n = len(tgt)
    config = ModelConfig(hidden_size=3, embed_size=n, max_decode_len=max_decode_len, seed=0)
    model = Seq2SeqModel(config, CharVocab.from_texts(["ab"]), tgt)
    ids = {"^": BOS, "$": EOS, **{c: tgt.id_of(c) for c in "abc"}}
    model.params["tgt_emb"][:] = np.eye(n)  # one-hot previous id
    model.params["out_w"][:] = 0.0
    model.params["out_b"][:] = 0.0
    rows = model.params["out_w"][3 * config.hidden_size:]
    for prev, successors in transitions.items():
        rows[ids[prev]] = -700.0
        for succ, logit in successors.items():
            rows[ids[prev], ids[succ]] = logit
    return model


def test_a_live_hypothesis_tied_with_the_kth_finished_keeps_the_search_going():
    # width 2: "" finishes at -log 2; "ab" and "ac" live at -2 log 2; then "ac"
    # finishes and "abb" lives on, both at -2 log 2, tied with the 2nd best
    # finished. Every later step costs "ab..." nothing, so at the cap it ties
    # "ac" and wins on its lower ids: stopping at the tie would be wrong
    model = bigram_model({"^": {"$": 0.0, "a": 0.0}, "a": {"b": 0.0, "c": 0.0},
                          "b": {"b": 0.0}, "c": {"$": 0.0}}, max_decode_len=6)
    half = -math.log(2.0)
    assert reference_translate(model, "ab", 2) == [("", half), ("abbbbb", 2 * half)]
    assert translate(model, "ab", 2) == reference_translate(model, "ab", 2)
