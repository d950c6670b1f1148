"""Bidirectional entity alignment over a parallel corpus.

Recognized entities on one side are translated (k-best) and compared with
every word sequence up to `max_ngram` tokens on the other side; the final
result is the union of both directions, so an entity missed by one
recognizer can still be aligned through the other. Numeric/temporal spans
skip the translator and match on digit skeletons instead.

The comparison is the LCS similarity of `simdist`, run as one
bit-parallel pass per start token that serves all of a span's candidates:
the other sentence is folded once, the candidates sit side by side in one
bit vector (the multi-pattern packing of Hyyrö, Fredriksson and Navarro
2005), and each (n-gram, candidate) score is read off that vector when
the pass reaches the n-gram's end. The scan keeps only the best range so
far, and skips the ranges and readouts that cannot beat it.

Names, numbers and words repeat across a corpus, so `align_corpus`
recognizes every sentence, decodes each distinct surface of each direction
once, then matches the sentences in-process through one set of memos
(`_Memos`): each distinct candidate list is packed once (an NT span's digit
skeleton is its one candidate), each distinct token folded once and each
distinct `(token, lang)` normalized to its digit skeleton once, at first
use. This is exact: each memo is keyed by the whole input of a
deterministic function, so one result serves every occurrence.

`decode_once` is the one decode step of the toolkit: `align_corpus`,
`pipeline.restore_corpus` and `netrans translate-ne` all hand it their
surfaces as they come. It keeps the first occurrence of each and is the only
place that starts worker processes; they return the decodes in input order,
so the result is the same for any job count. The pool's modules
(`multiprocessing`) load when the first pool starts, so a run that decodes
in-process never imports them.
"""

from __future__ import annotations

import concurrent.futures
import logging
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, NamedTuple, Sequence

from . import numnorm, simdist
from .core import NePair, NeSpan, NeType, SentencePair, read_rows, write_lines
from .errors import ConfigError, ContractError
from .ner import Recognizer

log = logging.getLogger(__name__)

S2T = "s2t"
T2S = "t2s"
BOTH = "both"
DIRECTIONS = (BOTH, S2T, T2S)

# k-best: text -> [(candidate, logprob), ...]
Translator = Callable[[str], Sequence[tuple[str, float]]]


@dataclass(frozen=True)
class AlignConfig:
    sim_threshold: float = 0.6
    max_ngram: int = 3
    beam_width: int = 5
    directions: str = BOTH

    def __post_init__(self):
        if not 0.0 < self.sim_threshold <= 1.0:
            raise ConfigError(f"sim_threshold must lie in (0, 1], got {self.sim_threshold}")
        if self.max_ngram < 1:
            raise ConfigError(f"max_ngram must be >= 1, got {self.max_ngram}")
        if self.beam_width < 1:
            raise ConfigError(f"beam_width must be >= 1, got {self.beam_width}")
        if self.directions not in DIRECTIONS:
            raise ConfigError(f"directions must be one of {DIRECTIONS}, got {self.directions!r}")


@dataclass(frozen=True, slots=True)
class AlignedPair:
    """One aligned entity: a source token range linked to a target range."""

    sentence_id: int
    src_start: int
    src_end: int
    tgt_start: int
    tgt_end: int
    ne_type: NeType
    score: float
    direction: str


class _Link(NamedTuple):
    """An `AlignedPair` of one sentence, before conflicts are resolved."""

    src_start: int
    src_end: int
    tgt_start: int
    tgt_end: int
    ne_type: NeType
    score: float
    direction: str


class CandidatePack(NamedTuple):
    """A span's candidates side by side in one bit vector (see `match_span`)."""

    # (rank, segment mask, length, most unmatched characters at the
    # threshold) of each candidate that fits
    segments: tuple[tuple[int, int, int, int], ...]
    masks: dict[str, int]  # character -> its match bits in every segment
    full: int  # every segment's bits
    space: int  # masks[" "], or 0
    overlong: int  # candidates over `simdist.MAX_CHARS` folded characters


def pack_candidates(candidates: Sequence[tuple[str, float]], threshold: float) -> CandidatePack:
    """Fold the non-blank candidates and pack each that fits `simdist.MAX_CHARS`
    into its own segment, in rank order, with a zero guard bit above it, for
    scoring at `threshold`."""
    segments = []
    masks: dict[str, int] = {}
    most: dict[int, int] = {}  # candidate length -> `_most_unmatched` at threshold
    bit = 1  # the next character's bit
    overlong = 0
    for rank, cand in enumerate(simdist.fold(c) for c, _ in candidates if c.strip()):
        m = len(cand)
        if m > simdist.MAX_CHARS:
            overlong += 1
            continue
        low = bit
        for ch in cand:  # `simdist.char_masks`, shifted to the segment
            masks[ch] = masks.get(ch, 0) | bit
            bit <<= 1
        if m not in most:
            most[m] = _most_unmatched(m, threshold)
        segments.append((rank, bit - low, m, most[m]))
        bit <<= 1  # the guard bit stays clear
    return CandidatePack(tuple(segments), masks, sum(seg for _, seg, _, _ in segments),
                         masks.get(" ", 0), overlong)


def _most_unmatched(m: int, threshold: float) -> int:
    """The most of a candidate's m characters an n-gram may leave unmatched
    and still score `(m - unmatched) / m >= threshold`, by that very test."""
    unmatched = min(m, int(m * (1 - threshold)) + 2)  # at or above the answer
    while (m - unmatched) / m < threshold:  # true at unmatched 0, as threshold <= 1
        unmatched -= 1
    return unmatched


# above every hit's key, as a hit scores above 0
_NO_HIT = (0.0,)


def match_span(ne: NeSpan, candidates: Sequence[tuple[str, float]],
               other_tokens: Sequence[str], cfg: AlignConfig, *,
               ne_lang: str, other_lang: str, memos: _Memos | None = None,
               ) -> tuple[int, int, float] | None:
    """Best-scoring token range for one entity, or None below threshold.

    Ties prefer the shorter range, then the leftmost, then the higher-ranked
    candidate. A candidate/range pair longer than `simdist.MAX_CHARS` folded
    characters counts as no match.

    Ranges are scored in one bit-parallel LCS pass per start token that
    serves every candidate at once: each candidate that fits `MAX_CHARS`
    owns a segment of one bit vector, with a zero guard bit above it
    (`pack_candidates`). `v - u` never borrows, because `u` is a subset of
    `v`, and the carry out of a segment's top bit lands in its guard bit,
    which `& full` clears, so each segment evolves exactly as that
    candidate's own vector would. The bit vector after a prefix of the text
    already holds the LCS against that prefix, so the pass over a start's
    `max_ngram` tokens and their joiners reads every n-gram's score, per
    candidate, at its end. For PER/LOC the text is the folded tokens joined
    by spaces, and the scores are the integer ratios `simdist.similarity`
    gives, because folding commutes with joining tokens by spaces, so the
    result is the same as comparing each range with each candidate on its
    own.

    An NT span has no translator and matches on digit skeletons
    (`numnorm.normalize_numeric`): it is scanned as a span whose one
    candidate is its own skeleton, against the tokens' skeletons joined
    with no joiner. Each token is normalized on its own, which equals
    normalizing the space-joined text, because no pattern of the packaged
    table holds whitespace and a space is not a letter: no match crosses a
    space, and a space starts and ends a word as the ends of a text do.
    The result is the one `numnorm.nt_similarity` gives per range, exactly:
    - skeletons are digits, so folding leaves the candidate as it is and
      its pack has no space mask;
    - `(m - unmatched) / m` is `lcs / len(wanted)`, the same integers
      divided, so the scores are equal to the bit;
    - the one candidate has rank 0, as every NT key had;
    - a token with an empty skeleton leaves `v` as it is, so its ranges
      score what the one-token-narrower range did, or 0.
    A comparison is over-long, and counted, exactly where
    `nt_similarity` raises: one skeleton exceeds `MAX_CHARS` and the
    other is non-empty. So an over-long candidate counts one comparison
    per range with any text; for PER/LOC that is every range.

    The scan keeps only the smallest key `(-score, width, start, rank)` of
    a range at or above threshold, and skips work that cannot make a
    smaller one; each skip is exact by construction:
    - Once that key scores 1.0 at width w, no range w or more tokens wide
      is scanned. 1.0 means no unmatched bit, so the key holds exactly
      -1.0; no score is higher, and at equal score the narrower, then the
      leftmost, range wins. Narrower ranges at later starts are scanned.
    - The scores are not read out when `v` is what it was at the previous
      end of the same start, or `full` at the first: every candidate then
      scores as in that narrower range, or 0, below any threshold.
    - A start is skipped when no packed candidate has a space and its
      token has no character of any candidate. Each of its ranges leaves
      `v` as the range from the next start to the same end does, which is
      one token narrower, and its one-token range scores 0.
    A token's match masks are built when the scan first reaches it. The
    `MAX_CHARS` count still walks every range, scanned or not, so the
    warning is the one an unbounded scan gives.

    The candidate pack, the token folds and the digit skeletons come from
    `memos`, which must be built for `cfg.sim_threshold`; without it the
    call builds its own. `align_corpus` shares one across its run. Each
    memo is keyed by the whole input of what it computes, so the result
    does not depend on what the memos already hold.
    """
    n = len(other_tokens)
    if memos is None:
        memos = _Memos(cfg.sim_threshold)
    if ne.ne_type is NeType.NT:
        skeleton = memos.skeleton
        wanted = "".join([skeleton[token, ne_lang] for token in ne.surface.split(" ")])
        if not wanted:
            return None  # every range would score 0.0, below any threshold
        candidates = ((wanted, 0.0),)
        texts = [skeleton[token, other_lang] for token in other_tokens]
        sep = 0  # a range's skeleton is its tokens' skeletons joined
    else:
        texts = list(map(memos.fold.__getitem__, other_tokens))
        sep = 1  # a range's text is its tokens joined by spaces
    segments, masks, full, space, overlong = memos.packs[tuple(candidates)]
    if not segments and not overlong:
        raise ConfigError(
            f"no translation candidates for {ne.ne_type.value} span {ne.surface!r}")
    best = _NO_HIT  # the smallest (-score, width, start, rank) at or above threshold
    too_long = 0
    token_masks: list[list[int] | None] = [None] * n  # built at first use
    reach = cfg.max_ngram + 1  # no range this many tokens wide can beat `best`
    for start in range(n):
        stop = min(start + cfg.max_ngram, n)
        if overlong:  # one comparison per range with any text
            too_long += overlong * next((stop - j for j in range(start, stop) if texts[j]), 0)
        # a start with no candidate character and no space to match is dead
        live = reach > 1 and (space or not masks.keys().isdisjoint(texts[start]))
        v = prev = full
        length = -sep
        for end in range(start + 1, stop + 1):
            length += len(texts[end - 1]) + sep
            if length > simdist.MAX_CHARS:
                too_long += (stop - end + 1) * len(segments)  # the fragment only grows
                break
            if not live or end - start >= reach:
                continue  # cannot make a smaller key
            if end > start + 1 and space:
                u = v & space
                v = ((v + u) | (v - u)) & full
            xs = token_masks[end - 1]
            if xs is None:  # a character no candidate has leaves `v` as it is
                xs = token_masks[end - 1] = [x for x in map(masks.get, texts[end - 1]) if x]
            for x in xs:
                u = v & x
                v = ((v + u) | (v - u)) & full
            if v == prev:
                continue  # the scores of a narrower range, or all 0
            prev = v
            for rank, seg, m, most in segments:
                unmatched = (v & seg).bit_count()
                if unmatched <= most:
                    key = (-(m - unmatched) / m, end - start, start, rank)
                    if key < best:
                        best = key
            if best[0] == -1.0:  # a perfect score: only narrower ranges can win
                reach = best[1]
    if too_long:
        log.warning("sentence %d: %d comparison(s) for %s span %r exceed %d chars, "
                    "treated as no match", ne.sentence_id, too_long, ne.ne_type.value,
                    ne.surface, simdist.MAX_CHARS)
    if best is _NO_HIT:
        return None
    neg_score, width, start, _ = best
    return start, start + width, -neg_score


def _spans_for(pair: SentencePair, spans: Sequence[NeSpan], side: str) -> list[NeSpan]:
    out = []
    for s in spans:
        if s.sentence_id != pair.id or s.side != side:
            raise ContractError(
                f"span for sentence {s.sentence_id}/{s.side} handed to "
                f"sentence {pair.id}/{side}")
        out.append(s)
    return out


def _overlaps(a_start: int, a_end: int, b_start: int, b_end: int) -> bool:
    return a_start < b_end and b_start < a_end


def align_sentence_pair(pair: SentencePair, src_spans: Sequence[NeSpan],
                        tgt_spans: Sequence[NeSpan], cfg: AlignConfig,
                        s2t: Translator | None = None,
                        t2s: Translator | None = None, *,
                        memos: _Memos | None = None) -> list[AlignedPair]:
    """Union of both matching directions for one sentence pair.

    Matches whose source and target ranges both overlap collapse into a
    single direction="both" pair keeping each direction's recognized span
    and the higher score. Remaining conflicts are resolved score-first
    (then s2t before t2s), one link per token on either side. Each span is
    matched against the first `cfg.beam_width` of its candidates, through
    `memos` (see `match_span`), built for this sentence when none is given.
    Matches are carried as `_Link`s, and an `AlignedPair` is built only for
    each link kept.
    """
    src_spans = _spans_for(pair, src_spans, "source")
    tgt_spans = _spans_for(pair, tgt_spans, "target")
    if memos is None:
        memos = _Memos(cfg.sim_threshold)

    fwd: list[_Link] = []
    if cfg.directions in (BOTH, S2T):
        for ne in src_spans:
            cands = _candidates(ne, s2t, S2T, cfg.beam_width)
            hit = match_span(ne, cands, pair.tgt.tokens, cfg, ne_lang=pair.src.lang,
                             other_lang=pair.tgt.lang, memos=memos)
            if hit:
                start, end, score = hit
                fwd.append(_Link(ne.start, ne.end, start, end, ne.ne_type, score, S2T))

    rev: list[_Link] = []
    if cfg.directions in (BOTH, T2S):
        for ne in tgt_spans:
            cands = _candidates(ne, t2s, T2S, cfg.beam_width)
            hit = match_span(ne, cands, pair.src.tokens, cfg, ne_lang=pair.tgt.lang,
                             other_lang=pair.src.lang, memos=memos)
            if hit:
                start, end, score = hit
                rev.append(_Link(start, end, ne.start, ne.end, ne.ne_type, score, T2S))

    pool = _merge_directions(fwd, rev, pair.id)

    rank = {BOTH: 0, S2T: 1, T2S: 2}
    pool.sort(key=lambda a: (-a.score, rank[a.direction], a.src_start, a.tgt_start))
    taken_src: set[int] = set()
    taken_tgt: set[int] = set()
    accepted = []
    for a in pool:
        src_range = range(a.src_start, a.src_end)
        tgt_range = range(a.tgt_start, a.tgt_end)
        if taken_src.intersection(src_range) or taken_tgt.intersection(tgt_range):
            continue
        taken_src.update(src_range)
        taken_tgt.update(tgt_range)
        accepted.append(a)

    accepted.sort(key=lambda a: (a.src_start, a.tgt_start))
    return [AlignedPair(pair.id, *a) for a in accepted]


def _candidates(ne: NeSpan, translator: Translator | None, direction: str,
                beam_width: int) -> Sequence[tuple[str, float]]:
    if ne.ne_type is NeType.NT:
        return []
    if translator is None:
        raise ConfigError(
            f"{ne.ne_type.value} span {ne.surface!r} needs a {direction} translator")
    return translator(ne.surface)[:beam_width]


def _merge_directions(fwd: list[_Link], rev: list[_Link], sentence_id: int) -> list[_Link]:
    used_rev: set[int] = set()
    pool: list[_Link] = []
    for a in fwd:
        partner = None
        partner_key = None
        for j, b in enumerate(rev):
            if j in used_rev:
                continue
            if not _overlaps(a.src_start, a.src_end, b.src_start, b.src_end):
                continue
            if not _overlaps(a.tgt_start, a.tgt_end, b.tgt_start, b.tgt_end):
                continue
            if a.ne_type != b.ne_type:
                log.info("sentence %d: type disagreement %s/%s at src %d-%d, not merged",
                         sentence_id, a.ne_type.value, b.ne_type.value,
                         a.src_start, a.src_end)
                continue
            key = (-b.score, b.tgt_start)
            if partner_key is None or key < partner_key:
                partner_key = key
                partner = j
        if partner is None:
            pool.append(a)
        else:
            used_rev.add(partner)
            b = rev[partner]
            # keep each direction's recognized span, drop the fuzzy matched ranges
            pool.append(_Link(a.src_start, a.src_end, b.tgt_start, b.tgt_end, a.ne_type,
                              max(a.score, b.score), BOTH))
    pool.extend(b for j, b in enumerate(rev) if j not in used_rev)
    return pool


# -- corpus-level driver --------------------------------------------------

def decode_once(translator: Translator, surfaces: Iterable[str], jobs: int = 1) -> Translator:
    """`translator` as a lookup over the distinct `surfaces`, called once per
    surface, first occurrence first.

    This is the one decode step, and its one fan-out: jobs > 1 spreads the
    calls over up to `jobs` processes, no more than there are distinct
    surfaces, as the pool forks all of its workers at the first submit. The
    translator must then pickle. One job or fewer than two distinct surfaces
    decode in-process. The results come back in input order, so the lookup
    is the same for any job count; everything else runs in the caller.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    distinct = list(dict.fromkeys(surfaces))
    if jobs == 1 or len(distinct) < 2:
        decoded = list(map(translator, distinct))
    else:
        workers = min(jobs, len(distinct))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            decoded = list(pool.map(translator, distinct,
                                    chunksize=max(1, len(distinct) // (workers * 4))))
    return dict(zip(distinct, decoded)).__getitem__


class _Memo(dict):
    """`func(key)` for each key looked up, computed at its first lookup; an
    exception `func` raises is not stored, so the next lookup raises again."""

    def __init__(self, func):
        super().__init__()
        self.func = func

    def __missing__(self, key):
        value = self[key] = self.func(key)
        return value


def _pack(candidates: tuple[tuple[str, float], ...], threshold: float) -> CandidatePack:
    return pack_candidates(candidates, threshold)


def _skeleton(key: tuple[str, str]) -> str:
    return numnorm.normalize_numeric(*key)


class _Memos:
    """What `match_span` works out from its inputs, for scoring at
    `threshold`, each memo keyed by the whole input of what it computes:
    `packs` by candidate list, `fold` by token and `skeleton` by `(token,
    lang)`. NT surfaces and ranges are normalized token by token (see
    `match_span`), so the skeleton memo holds one entry per distinct token
    and language, and an NT span's one-candidate list is packed once per
    distinct skeleton.

    `pack_candidates` and `numnorm.normalize_numeric` are looked up at each
    computation, so a patched one is called. A memo fills at first use.
    Over-long comparisons are counted at each span, from the pack and the
    text lengths, so they are warned about at every span that makes them.
    """

    def __init__(self, threshold: float):
        self.packs = _Memo(partial(_pack, threshold=threshold))
        self.fold = _Memo(simdist.fold)
        self.skeleton = _Memo(_skeleton)


def align_corpus(corpus: Sequence[SentencePair], recognizer: Recognizer,
                 cfg: AlignConfig, s2t: Translator | None = None,
                 t2s: Translator | None = None, jobs: int = 1,
                 ) -> tuple[list[AlignedPair], list[NePair]]:
    """Align every sentence pair and aggregate the extracted entity pairs.

    Recognizes every sentence in-process, decodes the distinct PER/LOC
    surfaces of each enabled direction once (`decode_once`), then
    matches the sentences through one `_Memos`, dropped when the run
    returns. As each memo is keyed by the whole input of what it computes,
    the result is the same as aligning each sentence on its own, and errors
    and warnings come at the same spans, logged in this process. jobs > 1
    spreads only the decodes over processes, so only the translators need
    to be picklable; the sentences are matched here.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    tasks = [(pair, recognizer.recognize(pair.src, pair.id, "source"),
              recognizer.recognize(pair.tgt, pair.id, "target")) for pair in corpus]
    missing = [(direction, side) for direction, translator, side in ((S2T, s2t, 1), (T2S, t2s, 2))
               if translator is None and cfg.directions in (BOTH, direction)]
    for task in tasks:  # a missing translator fails at its first span, before any decode
        for direction, side in missing:
            for ne in task[side]:
                _candidates(ne, None, direction, cfg.beam_width)

    def decoded(translator: Translator | None, direction: str, side: int):
        if translator is None or cfg.directions not in (BOTH, direction):
            return None
        return decode_once(translator, (s.surface for task in tasks for s in task[side]
                                        if s.ne_type is not NeType.NT), jobs)

    s2t, t2s = decoded(s2t, S2T, 1), decoded(t2s, T2S, 2)
    memos = _Memos(cfg.sim_threshold)
    per_sentence = [align_sentence_pair(*task, cfg, s2t, t2s, memos=memos) for task in tasks]

    alignments: list[AlignedPair] = []
    counts: dict[tuple[str, str, NeType], int] = {}
    for pair, found in zip(corpus, per_sentence):
        for a in found:
            alignments.append(a)
            src_surface = " ".join(pair.src.tokens[a.src_start:a.src_end])
            tgt_surface = " ".join(pair.tgt.tokens[a.tgt_start:a.tgt_end])
            counts[(src_surface, tgt_surface, a.ne_type)] = (
                counts.get((src_surface, tgt_surface, a.ne_type), 0) + 1)

    ne_pairs = [NePair(src, tgt, ne_type, count)
                for (src, tgt, ne_type), count in counts.items()]
    ne_pairs.sort(key=lambda p: (-p.count, p.src, p.tgt, p.ne_type.value))
    return alignments, ne_pairs


# -- translators and file formats ------------------------------------------

# path -> (the file's trailing sha256, the model loaded from it)
_MODEL_CACHE: dict = {}


@dataclass(frozen=True)
class ModelTranslator:
    """K-best translator backed by a model file.

    Loads lazily, once per process and file contents: a model saved over
    the same path is loaded afresh, found by the digest the file ends with.
    """

    path: str
    beam_width: int = 5

    def __call__(self, text: str) -> list[tuple[str, float]]:
        from .neural import beam, io

        digest = io.stored_digest(self.path)
        cached = _MODEL_CACHE.get(self.path)
        if cached is None or cached[0] != digest:
            cached = _MODEL_CACHE[self.path] = (digest, io.load_model(self.path))
        return beam.translate(cached[1], text, self.beam_width)


def write_alignments(alignments: Sequence[AlignedPair], path) -> None:
    write_lines(path, (f"{a.sentence_id}\t{a.src_start}\t{a.src_end}"
                       f"\t{a.tgt_start}\t{a.tgt_end}\t{a.ne_type.value}"
                       f"\t{a.score:.6f}\t{a.direction}" for a in alignments))


def _alignment_row(cols: list[str]) -> AlignedPair:
    if cols[7] not in DIRECTIONS:
        raise ValueError(f"unknown direction {cols[7]!r}")
    row = AlignedPair(int(cols[0]), int(cols[1]), int(cols[2]),
                      int(cols[3]), int(cols[4]), NeType.parse(cols[5]),
                      float(cols[6]), cols[7])
    for side, start, end in (("source", row.src_start, row.src_end),
                             ("target", row.tgt_start, row.tgt_end)):
        if start < 0 or start >= end:
            raise ValueError(f"empty or negative {side} range [{start}, {end})")
    return row


def read_alignments(path) -> list[AlignedPair]:
    return read_rows(path, (8,), _alignment_row)
