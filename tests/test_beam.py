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


def random_model(seed: int, tgt_chars: str, sharpness: float, output: str) -> Seq2SeqModel:
    """Random small model; output "fixed" makes every step's distribution the
    same, so reordered strings tie exactly, and "uniform" ties every id."""
    config = ModelConfig(hidden_size=6, embed_size=4, max_decode_len=6, seed=seed)
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


def test_all_ties_break_toward_the_lower_character_id():
    model = random_model(0, "xyz", 1.0, "uniform")
    # <eos> has the lowest unmasked id and "x" the lowest character id, so each
    # step keeps <eos> and the "x" extensions ahead of their equally scored rivals
    assert [text for text, _ in translate(model, "ab", beam_width=4)] == ["", "x", "xx", "xxx"]
    assert [text for text, _ in translate(model, "ab", beam_width=4, max_len=1)] == [
        "", "x", "y", "z"]
