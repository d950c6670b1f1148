"""Synthetic corpus generator: determinism, coverage, and internal consistency."""

import pytest

from netrans import synth
from netrans.core import NeType
from netrans.errors import ConfigError
from netrans.synth import make_corpus, make_translit_pairs


@pytest.fixture(scope="module")
def small():
    return make_corpus(n_pairs=12, n_sentences=60, seed=9, noise=0.1, extra_train=5)


def test_same_seed_is_byte_identical():
    assert make_corpus(n_pairs=10, n_sentences=50, seed=3) == \
        make_corpus(n_pairs=10, n_sentences=50, seed=3)


def test_different_seeds_differ():
    a = make_corpus(n_pairs=10, n_sentences=50, seed=3)
    b = make_corpus(n_pairs=10, n_sentences=50, seed=4)
    assert a.plant_pairs != b.plant_pairs


def test_shapes(small):
    assert len(small.corpus) == 60
    assert len(small.plant_pairs) == 12
    assert [p.id for p in small.corpus] == list(range(60))
    types = [p.ne_type for p in small.plant_pairs]
    assert all(t in NeType for t in types)
    # all three types get at least one pair
    assert {t for t in types} == set(NeType)


def test_every_plant_occurs_at_least_min_occurrences(small):
    surface_counts: dict[tuple[str, str], int] = {}
    by_id = {p.id: p for p in small.corpus}
    for a in small.gold_alignments:
        pair = by_id[a.sentence_id]
        key = (" ".join(pair.src.tokens[a.src_start:a.src_end]),
               " ".join(pair.tgt.tokens[a.tgt_start:a.tgt_end]))
        surface_counts[key] = surface_counts.get(key, 0) + 1
    for plant in small.plant_pairs:
        assert surface_counts.get((plant.src, plant.tgt), 0) >= 2, plant


def test_gold_alignments_point_at_planted_surfaces(small):
    planted = {(p.src, p.tgt, p.ne_type) for p in small.plant_pairs}
    by_id = {p.id: p for p in small.corpus}
    for a in small.gold_alignments:
        pair = by_id[a.sentence_id]
        key = (" ".join(pair.src.tokens[a.src_start:a.src_end]),
               " ".join(pair.tgt.tokens[a.tgt_start:a.tgt_end]),
               a.ne_type)
        assert key in planted, a


def test_annotations_replay_cleanly(small):
    by_id = {p.id: p for p in small.corpus}
    seen: dict[tuple[int, str], list[tuple[int, int]]] = {}
    for span in small.annotations:
        pair = by_id[span.sentence_id]
        sentence = pair.src if span.side == "source" else pair.tgt
        assert 0 <= span.start < span.end <= len(sentence)
        seen.setdefault((span.sentence_id, span.side), []).append((span.start, span.end))
    for ranges in seen.values():
        ranges.sort()
        for (a_s, a_e), (b_s, b_e) in zip(ranges, ranges[1:]):
            assert a_e <= b_s, "overlapping annotations"


def test_full_annotation_covers_both_sides():
    corpus = make_corpus(n_pairs=10, n_sentences=50, seed=3, oneside_drop=0.0)
    assert len(corpus.annotations) == 2 * len(corpus.gold_alignments)


def test_total_drop_leaves_one_side_per_occurrence():
    corpus = make_corpus(n_pairs=10, n_sentences=50, seed=3, oneside_drop=1.0)
    assert len(corpus.annotations) == len(corpus.gold_alignments)
    sides = {span.side for span in corpus.annotations}
    assert sides == {"source", "target"}   # drops hit either side


def test_partial_drop_lands_in_between():
    corpus = make_corpus(n_pairs=10, n_sentences=50, seed=3, oneside_drop=0.3)
    n = len(corpus.gold_alignments)
    assert n < len(corpus.annotations) < 2 * n


def test_training_list_excludes_numeric_pairs(small):
    assert all(p.ne_type is not NeType.NT for p in small.train_pairs)
    n_nt = sum(1 for p in small.plant_pairs if p.ne_type is NeType.NT)
    assert len(small.train_pairs) == len(small.plant_pairs) - n_nt + 5


def test_zero_noise_keeps_plant_spellings():
    corpus = make_corpus(n_pairs=10, n_sentences=50, seed=3, noise=0.0, extra_train=0)
    name_plants = [p for p in corpus.plant_pairs if p.ne_type is not NeType.NT]
    assert corpus.train_pairs == name_plants


def test_noise_perturbs_some_spellings():
    corpus = make_corpus(n_pairs=10, n_sentences=50, seed=3, noise=0.3, extra_train=0)
    name_plants = [p for p in corpus.plant_pairs if p.ne_type is not NeType.NT]
    assert corpus.train_pairs != name_plants
    # same list positions, though, and noise never touches separators
    assert all(t.ne_type is p.ne_type for t, p in zip(corpus.train_pairs, name_plants))


@pytest.mark.parametrize("kwargs,complaint", [
    (dict(n_pairs=2, n_sentences=50), "at least one pair"),
    (dict(n_pairs=50, n_sentences=10), "slots"),
])
def test_insufficient_capacity_is_rejected(kwargs, complaint):
    with pytest.raises(ConfigError, match=complaint):
        make_corpus(seed=3, **kwargs)


def test_the_largest_size_the_numeric_kinds_hold_is_generated():
    # 243 numeric plants cycle over the kinds: 81 percentages (all of them),
    # 81 dates and 81 thousands (all of them)
    corpus = make_corpus(n_pairs=1521, n_sentences=6100, seed=42)
    nt = [p for p in corpus.plant_pairs if p.ne_type is NeType.NT]
    assert len(nt) == 243 and len({p.src for p in nt}) == 243


def test_numeric_plants_beyond_a_kinds_values_are_refused_before_any_draw(monkeypatch):
    def no_draws(seed):
        raise AssertionError("a random generator was made before the size was checked")

    monkeypatch.setattr(synth.random, "Random", no_draws)
    for n_pairs in (1522, 2000, 10**9):
        with pytest.raises(ConfigError, match="more percentages than the 81 distinct "
                                              "ones: at most 1521 pairs fit"):
            make_corpus(n_pairs=n_pairs, n_sentences=4 * n_pairs, seed=42)


def test_translit_pairs_deterministic_unique_and_typed():
    pairs = make_translit_pairs(100, seed=42)
    again = make_translit_pairs(100, seed=42)
    assert pairs == again
    assert len(pairs) == 100
    assert len({p.src for p in pairs}) == 100
    assert all(p.ne_type is NeType.PER for p in pairs)
    latin = set("abcdefghijklmnopqrstuvwxyz ")
    assert all(set(p.tgt) <= latin for p in pairs)
    assert make_translit_pairs(100, seed=1) != pairs
