"""Entity recognition plug points.

The toolkit never trains a recognizer. Sentences are tagged either by
replaying externally produced stand-off annotations or, for self-contained
runs, by a gazetteer plus numeric/temporal token rules.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Protocol

from .core import NeSpan, NeType, Sentence, read_rows
from .errors import AnnotationError
from .numnorm import normalize_numeric

log = logging.getLogger(__name__)


class Recognizer(Protocol):
    def recognize(self, sentence: Sentence, sentence_id: int, side: str) -> list[NeSpan]:
        """In-bounds, non-overlapping spans sorted by start position."""
        ...


@dataclass(frozen=True)
class Gazetteer:
    """Fixed surface list plus numeric/temporal token rules.

    Matching is longest-entry-first (ties to the leftmost occurrence), then
    maximal runs of tokens with a digit skeleton (numerals, number words,
    month names) over the uncovered remainder become NT spans.

    Construction indexes ``entries`` by first token, so each sentence
    position tries only the entries that start with its token.  The index
    is built once: do not mutate ``entries`` afterwards.  The N/T test of a
    token is remembered per ``(token, lang)``, since corpora repeat their
    tokens sentence after sentence.
    """

    entries: dict[tuple[str, ...], NeType]
    _by_first: dict[str, tuple[tuple[tuple[str, ...], NeType], ...]] = field(
        init=False, repr=False, compare=False)
    _nt_memo: dict[tuple[str, str], bool] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        by_first: dict[str, list[tuple[tuple[str, ...], NeType]]] = {}
        for key, ne_type in self.entries.items():
            if not key or any(not tok for tok in key):
                raise ValueError(f"gazetteer entry with empty tokens: {key!r}")
            by_first.setdefault(key[0], []).append((key, ne_type))
        object.__setattr__(self, "_by_first", {tok: tuple(b) for tok, b in by_first.items()})

    @classmethod
    def from_path(cls, path) -> "Gazetteer":
        entries: dict[tuple[str, ...], NeType] = {}
        dropped_org = 0

        def add(cols: list[str]) -> None:
            nonlocal dropped_org
            surface, type_text = cols
            if type_text.strip().upper() == "ORG":
                dropped_org += 1
                return
            key = tuple(surface.split())
            if not key:
                raise ValueError("empty gazetteer surface")
            ne_type = NeType.parse(type_text)
            if entries.setdefault(key, ne_type) != ne_type:
                raise ValueError(f"conflicting types for {surface!r}")

        read_rows(path, (2,), add)
        if dropped_org:
            log.warning("%s: dropped %d ORG entr(ies)", path, dropped_org)
        return cls(entries)

    def _is_nt_token(self, token: str, lang: str) -> bool:
        is_nt = self._nt_memo.get((token, lang))
        if is_nt is None:
            is_nt = bool(normalize_numeric(token, lang))
            self._nt_memo[(token, lang)] = is_nt
        return is_nt

    def recognize(self, sentence: Sentence, sentence_id: int, side: str) -> list[NeSpan]:
        tokens = sentence.tokens
        n = len(tokens)
        matches = []
        for start, token in enumerate(tokens):
            for key, ne_type in self._by_first.get(token, ()):
                width = len(key)
                if tokens[start:start + width] == key:
                    matches.append((start, width, ne_type))
        # keys are unique, so no two matches tie on (width, start)
        matches.sort(key=lambda m: (-m[1], m[0]))

        covered = [False] * n
        spans = []
        for start, width, ne_type in matches:
            if any(covered[start:start + width]):
                continue
            for j in range(start, start + width):
                covered[j] = True
            spans.append(NeSpan(sentence_id, side, start, start + width, ne_type,
                                " ".join(tokens[start:start + width])))

        lang = sentence.lang
        is_nt = [not covered[i] and self._is_nt_token(tok, lang) for i, tok in enumerate(tokens)]
        i = 0
        while i < n:
            if not is_nt[i]:
                i += 1
                continue
            j = i + 1
            while j < n and is_nt[j]:
                j += 1
            spans.append(NeSpan(sentence_id, side, i, j, NeType.NT, " ".join(tokens[i:j])))
            i = j

        spans.sort(key=lambda s: s.start)
        return spans


class AnnotationRecognizer:
    """Replays stand-off spans, keyed by sentence id and side."""

    def __init__(self, spans: Iterable[NeSpan]):
        self._stored: dict[tuple[int, str], list[NeSpan]] = {}
        for span in spans:
            self._stored.setdefault((span.sentence_id, span.side), []).append(span)
        for (sid, _), group in self._stored.items():
            group.sort(key=lambda s: (s.start, s.end))
            for a, b in zip(group, group[1:]):
                if b.start < a.end:
                    raise AnnotationError(
                        f"sentence {sid}: overlapping spans "
                        f"[{a.start}, {a.end}) and [{b.start}, {b.end})")

    def recognize(self, sentence: Sentence, sentence_id: int, side: str) -> list[NeSpan]:
        stored = self._stored.get((sentence_id, side), [])
        # with_surface re-checks bounds, so stale annotations fail loudly here
        return [s.with_surface(sentence) for s in stored]
