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

    The live hypotheses are stepped together: their states are the rows of
    one (live, hidden) array and their scores one vector, so a beam step is
    one `model.step` call, and each row gets the bits of stepping it alone.

    The search stops once beam_width hypotheses have finished and the best
    live score is strictly below the beam_width-th best finished score.
    That is exact: every step log-prob is <= 0 in floating point (the log-
    softmax subtracts the log of a sum that is at least 1), so no
    descendant of a live hypothesis can score above its parent, let alone
    reach the k-best; and a strict comparison leaves exact ties to the ids
    tie-break, as if the search had run on.
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

    # live hypotheses, kept in ids order: ids tuples, running scores, states
    live: list[tuple[int, ...]] = [()]
    scores = np.zeros(1)
    states = model.initial_state(enc)[None]
    finished: list[tuple[float, tuple[int, ...]]] = []
    kth_finished = -np.inf

    for _ in range(max_len):
        y_prev = [ids[-1] if ids else BOS for ids in live]
        logp, new_states = model.step(states, y_prev, enc, att_enc)
        flat = (scores[:, None] + logp).ravel()
        width = logp.shape[1]
        index = np.flatnonzero(np.isfinite(flat))
        # live is in ids order and every ids tuple has the same length, so the
        # flat index orders the extensions by their ids tuples
        best = np.sort(index[np.lexsort((index, -flat[index]))[:beam_width]])
        rows, ys = np.divmod(best, width)
        done = ys == EOS
        finished += [(flat[i], live[h]) for i, h in zip(best[done].tolist(), rows[done].tolist())]
        keep = ~done
        live = [live[h] + (y,) for h, y in zip(rows[keep].tolist(), ys[keep].tolist())]
        if not live:
            break
        scores = flat[best[keep]]
        states = new_states[rows[keep]]
        if done.any() and len(finished) >= beam_width:
            kth_finished = sorted(lp for lp, _ in finished)[-beam_width]
        if scores.max() < kth_finished:
            break

    # anything still alive ran into the length cap, or scores below the
    # k-best and is cut by the sort; either way it keeps its raw score
    finished.extend(zip(scores, live))

    finished.sort(key=lambda item: (-item[0], item[1]))
    return [(model.tgt_vocab.decode(ids), float(lp))
            for lp, ids in finished[:beam_width]]
