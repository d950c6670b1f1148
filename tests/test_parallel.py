import pytest

import netrans.parallel
from netrans.errors import ConfigError
from netrans.parallel import pmap


class FakePool:
    """Stands in for ProcessPoolExecutor: records its worker count, maps in-process."""

    started: list[int] = []

    def __init__(self, max_workers):
        FakePool.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, items, chunksize=1):
        assert chunksize >= 1
        return map(func, items)


@pytest.fixture
def fake_pool(monkeypatch):
    FakePool.started = []
    monkeypatch.setattr(netrans.parallel, "ProcessPoolExecutor", FakePool)
    return FakePool.started


@pytest.mark.parametrize("jobs, n_items, workers", [
    (64, 3, 3),
    (2, 2, 2),
    (2, 9, 2),
    (5, 5, 5),
])
def test_no_more_workers_than_items(fake_pool, jobs, n_items, workers):
    items = list(range(n_items))
    assert pmap(str, items, jobs) == [str(i) for i in items]
    assert fake_pool == [workers]


@pytest.mark.parametrize("jobs, n_items", [(1, 5), (64, 1), (64, 0)])
def test_one_job_or_fewer_than_two_items_start_no_pool(fake_pool, jobs, n_items):
    assert pmap(str, list(range(n_items)), jobs) == [str(i) for i in range(n_items)]
    assert fake_pool == []


@pytest.mark.parametrize("jobs", [0, -2])
def test_jobs_must_be_positive(fake_pool, jobs):
    with pytest.raises(ConfigError, match="jobs must be >= 1"):
        pmap(str, [1, 2], jobs)
    assert fake_pool == []
