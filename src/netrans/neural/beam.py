"""Beam-search decoding producing k-best candidate translations."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, DegenerateInputError
from .model import Seq2SeqModel
from .vocab import BOS, EOS


def translate(model: Seq2SeqModel, src: str, beam_width: int = 5,
              max_len: int | None = None) -> list[tuple[str, float]]:
    """K-best target strings with exact summed step log-probs, best first.

    Hypotheses finish at <eos> (scored including that step) or when they hit
    max_len, in which case the score covers only the emitted characters.

    Each step scores every one-character extension of every live hypothesis
    (running score plus step log-prob, non-finite ones dropped) and keeps
    the beam_width best. Equal scores rank the lower ids tuple first, that
    is, the lower character id; width 1 therefore reduces to greedy
    decoding, matching argmax.
    """
    if beam_width < 1:
        raise ConfigError(f"beam_width must be >= 1, got {beam_width}")
    if max_len is not None and max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    if not src:
        raise DegenerateInputError("cannot translate an empty source string")
    if max_len is None:
        max_len = model.config.max_decode_len

    enc = model.encode(model.src_vocab.encode(src))
    att_enc = enc @ model.params["att_u"]
    s0 = model.initial_state(enc)

    # live hypotheses, kept in ids order: (ids tuple, logprob, state)
    live = [((), 0.0, s0)]
    finished: list[tuple[float, tuple[int, ...]]] = []

    for _ in range(max_len):
        steps = [model.step(state, ids[-1] if ids else BOS, enc, att_enc)
                 for ids, _, state in live]
        scores = np.array([lp for _, lp, _ in live])[:, None] + np.stack([lp for lp, _ in steps])
        width = scores.shape[1]
        flat = scores.ravel()
        index = np.flatnonzero(np.isfinite(flat))
        # live is in ids order and every ids tuple has the same length, so the
        # flat index orders the extensions by their ids tuples
        best = np.sort(index[np.lexsort((index, -flat[index]))[:beam_width]])
        extended = []
        for i in best.tolist():
            h, y = divmod(i, width)
            ids = live[h][0] + (y,)
            if y == EOS:
                finished.append((flat[i], ids[:-1]))
            else:
                extended.append((ids, flat[i], steps[h][1]))
        live = extended
        if not live:
            break

    # anything still alive ran into the length cap; keep its raw score
    for ids, lp, _ in live:
        finished.append((lp, ids))

    finished.sort(key=lambda item: (-item[0], item[1]))
    return [(model.tgt_vocab.decode(ids), float(lp))
            for lp, ids in finished[:beam_width]]
