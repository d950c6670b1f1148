"""Deterministic synthetic bilingual corpus generation.

Produces a Chinese/English toy world with a fixed character-to-syllable
transliteration scheme, template sentences with typed entity slots, exact
stand-off annotations, the gold alignment for every planted occurrence, and
a noisy training list for the entity translator. Everything flows from one
seed, so identical calls produce identical corpora byte for byte.

The generated data is the oracle for end-to-end exercises: alignment
quality is measured against the plant list, and replace/restore round
trips are checked against the original target text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .align import BOTH, AlignedPair
from .core import NePair, NeSpan, NeType, Sentence, SentencePair
from .errors import ConfigError

ZH = "zh"
EN = "en"

_HANZI = "巴贝波林克尔安娜利维奥马斯坦杜福高汉金凯兰莫南佩奇瑞沙泰文西亚州城东飞格华加罗明"
_SYLLABLES = (
    "ba", "bei", "bo", "lin", "ke", "er", "an", "na", "li", "wei",
    "ao", "ma", "si", "tan", "du", "fu", "gao", "han", "jin", "kai",
    "lan", "mo", "nan", "pei", "qi", "rui", "sha", "tai", "wen", "xi",
    "ya", "zhou", "cheng", "dong", "fei", "ge", "hua", "jia", "luo", "ming",
)
_ZH_NUM = "零一二三四五六七八九"
_EN_MONTHS = ("january", "february", "march", "april", "may", "june", "july",
              "august", "september", "october", "november", "december")
_ZH_MONTHS = ("一月", "二月", "三月", "四月", "五月", "六月", "七月", "八月",
              "九月", "十月", "十一月", "十二月")

# walked for the per-type dicts of every sentence; iterating the Enum itself
# runs Python code at each pass
_NE_TYPES = tuple(NeType)

# slot markers are NeType members; same-type slots correspond by order across sides
_TEMPLATES = (
    ((NeType.PER, "昨天", "发表", "讲话"),
     (NeType.PER, "gave", "a", "speech", "yesterday")),
    (("代表团", "抵达", NeType.LOC),
     ("the", "delegation", "arrived", "in", NeType.LOC)),
    ((NeType.PER, "访问", NeType.LOC),
     (NeType.PER, "visited", NeType.LOC)),
    ((NeType.LOC, "出口", "增长", NeType.NT),
     ("exports", "of", NeType.LOC, "grew", NeType.NT)),
    (("会议", "定于", NeType.NT, "举行"),
     ("the", "meeting", "is", "set", "for", NeType.NT)),
    (("记者", "采访", "了", NeType.PER),
     ("reporters", "interviewed", NeType.PER)),
    ((NeType.LOC, "与", NeType.LOC, "签署", "协议"),
     (NeType.LOC, "and", NeType.LOC, "signed", "an", "agreement")),
    ((NeType.PER, "获得", NeType.NT, "选票"),
     (NeType.PER, "won", NeType.NT, "votes")),
)


@dataclass(frozen=True)
class SynthCorpus:
    corpus: list[SentencePair]
    annotations: list[NeSpan]
    plant_pairs: list[NePair]        # the clean gold entity pairs
    train_pairs: list[NePair]        # noisy translator training list (PER/LOC only)
    gold_alignments: list[AlignedPair]


def _name(rng: random.Random, used: set[str]) -> tuple[str, tuple[str, ...]]:
    """One transliteration pair: hanzi string and its Latin token(s)."""
    while True:
        k = rng.randint(2, 4)
        idxs = [rng.randrange(len(_SYLLABLES)) for _ in range(k)]
        zh = "".join(_HANZI[i] for i in idxs)
        if zh in used:
            continue
        used.add(zh)
        syllables = [_SYLLABLES[i] for i in idxs]
        if k >= 3 and rng.random() < 0.3:
            cut = rng.randint(1, k - 1)
            en = ("".join(syllables[:cut]), "".join(syllables[cut:]))
        else:
            en = ("".join(syllables),)
        return zh, en


def _numeric(rng: random.Random, kind: int, used: set[str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """One numeric/temporal pair as (zh tokens, en tokens)."""
    while True:
        a = rng.randint(1, 9)
        b = rng.randint(1, 9)
        if kind % 3 == 0:
            zh: tuple[str, ...] = (f"百分之{_ZH_NUM[a]}点{_ZH_NUM[b]}",)
            en: tuple[str, ...] = (f"{a}.{b}%",)
        elif kind % 3 == 1:
            month = rng.randint(1, 12)
            zh = (_ZH_MONTHS[month - 1], _ZH_NUM[a], "日")
            en = (_EN_MONTHS[month - 1], str(a))
        else:
            zh = (f"{_ZH_NUM[a]}千{_ZH_NUM[b]}百",)
            en = (f"{a},{b}00",)
        key = " ".join(zh)
        if key not in used:
            used.add(key)
            return zh, en


def make_translit_pairs(n: int = 100, seed: int = 42) -> list[NePair]:
    """Rule-generated transliteration pairs for capacity exercises."""
    rng = random.Random(seed)
    used: set[str] = set()
    pairs = []
    for _ in range(n):
        zh, en = _name(rng, used)
        pairs.append(NePair(zh, " ".join(en), NeType.PER))
    return pairs


def _noisy(rng: random.Random, text: str, alphabet: str, rate: float) -> str:
    out = []
    for c in text:
        if c != " " and rng.random() < rate:
            out.append(rng.choice(alphabet))
        else:
            out.append(c)
    return "".join(out)


def make_corpus(n_pairs: int = 50, n_sentences: int = 200, seed: int = 42,
                noise: float = 0.1, oneside_drop: float = 0.0,
                extra_train: int = 60, min_occurrences: int = 2) -> SynthCorpus:
    """Plant n_pairs entities into n_sentences template sentence pairs.

    Every planted pair occurs at least min_occurrences times. The training
    list gets per-character substitution noise at the given rate (numeric
    pairs are excluded from it; those are matched by rules, not by the
    translator). With oneside_drop > 0, that fraction of occurrences loses
    its annotation on one side, as if one recognizer had missed it.
    """
    if n_pairs < 3:
        raise ConfigError("need at least one pair per entity type")
    for name, rate in (("noise", noise), ("oneside_drop", oneside_drop)):
        if not 0.0 <= rate <= 1.0:
            raise ConfigError(f"{name} must lie in [0, 1], got {rate}")
    if extra_train < 0:
        raise ConfigError(f"extra_train must be >= 0, got {extra_train}")
    rng = random.Random(seed)

    n_nt = max(1, round(n_pairs * 0.16))
    n_per = (n_pairs - n_nt + 1) // 2
    n_loc = n_pairs - n_nt - n_per

    used: set[str] = set()
    plants: list[tuple[NeType, tuple[str, ...], tuple[str, ...]]] = []
    for _ in range(n_per):
        zh, en = _name(rng, used)
        plants.append((NeType.PER, (zh,), en))
    for _ in range(n_loc):
        zh, en = _name(rng, used)
        plants.append((NeType.LOC, (zh,), en))
    for i in range(n_nt):
        zh, en = _numeric(rng, i, used)
        plants.append((NeType.NT, zh, en))

    plant_pairs = [NePair(" ".join(zh), " ".join(en), ne_type)
                   for ne_type, zh, en in plants]

    by_type: dict[NeType, list[int]] = {t: [] for t in _NE_TYPES}
    for i, (ne_type, _, _) in enumerate(plants):
        by_type[ne_type].append(i)

    queues: dict[NeType, list[int]] = {}
    for ne_type, members in by_type.items():
        queue = [i for i in members for _ in range(min_occurrences)]
        rng.shuffle(queue)
        queues[ne_type] = queue

    plan = [_TEMPLATES[i % len(_TEMPLATES)] for i in range(n_sentences)]
    rng.shuffle(plan)
    for ne_type, queue in queues.items():
        slots = sum(sum(1 for item in zh_side if item is ne_type) for zh_side, _ in plan)
        if slots < len(queue):
            raise ConfigError(
                f"{n_sentences} sentences offer {slots} {ne_type.value} slots, "
                f"need {len(queue)}")

    corpus = []
    annotations = []
    gold = []
    for sid, (zh_side, en_side) in enumerate(plan):
        chosen: dict[NeType, list[int]] = {t: [] for t in _NE_TYPES}
        for item in zh_side:
            if isinstance(item, NeType):
                queue = queues[item]
                chosen[item].append(queue.pop() if queue else rng.choice(by_type[item]))

        def expand(side, picks: dict[NeType, list[int]], token_index: int):
            cursor = {t: 0 for t in _NE_TYPES}
            tokens: list[str] = []
            ranges: list[tuple[NeType, tuple[int, int]]] = []
            for item in side:
                if isinstance(item, NeType):
                    plant_idx = picks[item][cursor[item]]
                    cursor[item] += 1
                    surface = plants[plant_idx][token_index]
                    ranges.append((item, (len(tokens), len(tokens) + len(surface))))
                    tokens.extend(surface)
                else:
                    tokens.append(item)
            return tokens, ranges

        zh_tokens, zh_ranges = expand(zh_side, chosen, 1)
        en_tokens, en_ranges = expand(en_side, chosen, 2)

        corpus.append(SentencePair(
            Sentence(tuple(zh_tokens), ZH), Sentence(tuple(en_tokens), EN), sid))

        # the i-th slot of a type on one side corresponds to the i-th on the other
        en_of_type: dict[NeType, list[tuple[int, int]]] = {t: [] for t in _NE_TYPES}
        for ne_type, en_range in en_ranges:
            en_of_type[ne_type].append(en_range)
        taken = {t: 0 for t in _NE_TYPES}
        for ne_type, (zs, ze) in zh_ranges:
            es, ee = en_of_type[ne_type][taken[ne_type]]
            taken[ne_type] += 1
            gold.append(AlignedPair(sid, zs, ze, es, ee, ne_type, 1.0, BOTH))
            src_span = NeSpan(sid, "source", zs, ze, ne_type)
            tgt_span = NeSpan(sid, "target", es, ee, ne_type)
            if rng.random() < oneside_drop:
                annotations.append(tgt_span if rng.random() < 0.5 else src_span)
            else:
                annotations.append(src_span)
                annotations.append(tgt_span)

    latin = "abcdefghijklmnopqrstuvwxyz"
    train_pairs = []
    for ne_type, zh, en in plants:
        if ne_type is NeType.NT:
            continue
        train_pairs.append(NePair(_noisy(rng, " ".join(zh), _HANZI, noise),
                                  _noisy(rng, " ".join(en), latin, noise), ne_type))
    for _ in range(extra_train):
        zh, en = _name(rng, used)
        train_pairs.append(NePair(_noisy(rng, zh, _HANZI, noise),
                                  _noisy(rng, " ".join(en), latin, noise), NeType.PER))

    return SynthCorpus(corpus, annotations, plant_pairs, train_pairs, gold)
