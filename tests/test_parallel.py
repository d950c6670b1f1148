"""The fan-out of `align.decode_once`, the one place that starts worker processes."""

import concurrent.futures

import pytest

from netrans.align import decode_once
from netrans.errors import ConfigError


class FakePool:
    """Stands in for ProcessPoolExecutor: records its worker count and the
    items it is handed, maps in-process."""

    started: list[int] = []
    mapped: list[list] = []

    def __init__(self, max_workers):
        FakePool.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, items, chunksize=1):
        assert chunksize >= 1
        FakePool.mapped.append(list(items))
        return map(func, items)


@pytest.fixture
def fake_pool(monkeypatch):
    FakePool.started = []
    FakePool.mapped = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return FakePool.started


class Recording:
    """A one-best translator that records the surfaces it decodes."""

    def __init__(self):
        self.calls = []

    def __call__(self, text):
        self.calls.append(text)
        return [(text.upper(), 0.0)]


@pytest.mark.parametrize("jobs, n_items, workers", [
    (64, 3, 3),
    (2, 2, 2),
    (2, 9, 2),
    (5, 5, 5),
])
def test_no_more_workers_than_items(fake_pool, jobs, n_items, workers):
    items = [f"s{i}" for i in range(n_items)]
    lookup = decode_once(Recording(), items, jobs)
    assert [lookup(s) for s in items] == [[(s.upper(), 0.0)] for s in items]
    assert fake_pool == [workers]


@pytest.mark.parametrize("jobs, n_items", [(1, 5), (64, 1), (64, 0)])
def test_one_job_or_fewer_than_two_items_start_no_pool(fake_pool, jobs, n_items):
    items = [f"s{i}" for i in range(n_items)]
    translator = Recording()
    lookup = decode_once(translator, items, jobs)
    assert [lookup(s) for s in items] == [[(s.upper(), 0.0)] for s in items]
    assert translator.calls == items
    assert fake_pool == []


@pytest.mark.parametrize("jobs", [0, -2])
def test_jobs_must_be_positive(fake_pool, jobs):
    translator = Recording()
    with pytest.raises(ConfigError, match=f"^jobs must be >= 1, got {jobs}$"):
        decode_once(translator, ["a", "b"], jobs)
    assert translator.calls == []
    assert fake_pool == []


def test_one_job_is_the_default(fake_pool):
    translator = Recording()
    decode_once(translator, ["a", "b", "c"])
    assert translator.calls == ["a", "b", "c"]
    assert fake_pool == []


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_a_generator_with_repeats_decodes_each_surface_once_first_occurrence_first(
        fake_pool, jobs):
    surfaces = ["b", "a", "b", "c", "a", "b"]
    consumed = []

    def given():
        for s in surfaces:
            consumed.append(s)
            yield s

    translator = Recording()
    lookup = decode_once(translator, given(), jobs)
    assert consumed == surfaces
    assert [lookup(s) for s in "abc"] == [[("A", 0.0)], [("B", 0.0)], [("C", 0.0)]]
    if jobs == 1:
        assert translator.calls == ["b", "a", "c"]
        assert fake_pool == []
    else:  # the pool is sized and fed by the distinct surfaces
        assert FakePool.mapped == [["b", "a", "c"]]
        assert fake_pool == [min(jobs, 3)]
    with pytest.raises(KeyError):
        lookup("d")  # a lookup over the given surfaces only


def test_repeats_of_one_surface_start_no_pool(fake_pool):
    translator = Recording()
    lookup = decode_once(translator, iter(["a", "a", "a"]), 4)
    assert lookup("a") == [("A", 0.0)]
    assert translator.calls == ["a"]
    assert fake_pool == []


def reversing_translator(text):
    return [(text[::-1], -1.0), (text, -2.0)]


def test_the_pool_maps_in_input_order():
    # a real pool: the translator pickles, and the lookup is the one-job lookup
    surfaces = [f"s{i % 7}" for i in range(20)]
    lookups = [decode_once(reversing_translator, surfaces, jobs) for jobs in (1, 2)]
    assert [[lookup(s) for s in surfaces] for lookup in lookups] == [
        [reversing_translator(s) for s in surfaces]] * 2
