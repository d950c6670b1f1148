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

    The selection is one stable argsort of the negated flat scores, cut at
    beam_width, with the non-finite picks dropped after the cut and the
    rest put back in flat-index order; one pass over those at most
    beam_width picks finishes the ones ending in <eos> and extends the
    others. That keeps exactly the extensions above, with the same bits:
    - live is in ids order and every ids tuple has the same length, so the
      flat index (row, then id) is ids order, and a stable sort keeps
      equal scores in it: the ids tie-break;
    - no score is +inf, since step log-probs and running scores are <= 0,
      so -(-inf) and NaN sort after every finite score, and dropping them
      after the cut keeps the picks that dropping them first would;
    - the running scores are added to the step log-probs in place, and
      IEEE addition commutes, so each sum has the bits of score + logp.

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

    # live hypotheses, kept in ids order: ids tuples, their last ids (BOS
    # for the empty one), running scores and states
    live: list[tuple[int, ...]] = [()]
    y_prev = [BOS]
    scores = np.zeros(1)
    states = model.initial_state(enc)[None]
    finished: list[tuple[float, tuple[int, ...]]] = []
    kth_finished = -np.inf

    for _ in range(max_len):
        logp, new_states = model.step(states, y_prev, enc, att_enc)
        width = logp.shape[1]
        logp += scores[:, None]
        flat = logp.ravel()
        picks = np.argsort(-flat, kind="stable")[:beam_width]
        picks = np.sort(picks[np.isfinite(flat[picks])])
        parents, kept, next_live, y_prev = [], [], [], []
        done = False
        for i in picks.tolist():
            h, y = divmod(i, width)
            if y == EOS:
                finished.append((flat[i], live[h]))
                done = True
            else:
                parents.append(h)
                kept.append(i)
                next_live.append(live[h] + (y,))
                y_prev.append(y)
        live = next_live
        if not live:
            break
        scores = flat[kept]
        states = new_states[parents]
        if done and len(finished) >= beam_width:
            kth_finished = sorted(lp for lp, _ in finished)[-beam_width]
        if scores.max() < kth_finished:
            break

    # anything still alive ran into the length cap, or scores below the
    # k-best and is cut by the sort; either way it keeps its raw score
    finished.extend(zip(scores, live))

    finished.sort(key=lambda item: (-item[0], item[1]))
    return [(model.tgt_vocab.decode(ids), float(lp))
            for lp, ids in finished[:beam_width]]
