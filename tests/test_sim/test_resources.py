"""Tests for Resource / PriorityResource / Store."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, PriorityResource, Resource, Store


def test_resource_capacity_one_serializes():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def worker(env, res, tag, hold):
        req = res.request()
        yield req
        log.append((tag, "in", env.now))
        yield env.timeout(hold)
        res.release(req)
        log.append((tag, "out", env.now))

    env.process(worker(env, res, "a", 2.0))
    env.process(worker(env, res, "b", 1.0))
    env.run()
    assert log == [
        ("a", "in", 0.0),
        ("a", "out", 2.0),
        ("b", "in", 2.0),
        ("b", "out", 3.0),
    ]


def test_resource_capacity_n_allows_parallelism():
    env = Environment()
    res = Resource(env, capacity=3)
    finished = []

    def worker(env, res, tag):
        req = res.request()
        yield req
        yield env.timeout(1.0)
        res.release(req)
        finished.append((tag, env.now))

    for tag in range(3):
        env.process(worker(env, res, tag))
    env.run()
    assert all(t == 1.0 for _, t in finished)


def test_resource_count_and_queue_length():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder(env, res):
        req = res.request()
        yield req
        yield env.timeout(10.0)
        res.release(req)

    def checker(env, res):
        yield env.timeout(1.0)
        req = res.request()  # queues
        assert res.count == 1
        assert res.queue_length == 1
        res.release(req)  # cancel while queued
        assert res.queue_length == 0
        yield env.timeout(0)

    env.process(holder(env, res))
    env.process(checker(env, res))
    env.run()


def test_release_unowned_request_raises():
    env = Environment()
    res = Resource(env, capacity=1)
    req = res.request()
    res.release(req)
    with pytest.raises(SimulationError):
        res.release(req)


def test_capacity_must_be_positive():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_priority_resource_serves_lowest_priority_first():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def holder(env, res):
        req = res.request()
        yield req
        yield env.timeout(5.0)
        res.release(req)

    def claimant(env, res, prio, tag, delay):
        yield env.timeout(delay)
        req = res.request(priority=prio)
        yield req
        order.append(tag)
        res.release(req)

    env.process(holder(env, res))
    env.process(claimant(env, res, 5, "low", 1.0))
    env.process(claimant(env, res, 1, "high", 2.0))
    env.run()
    assert order == ["high", "low"]


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env, store):
        for i in range(3):
            yield env.timeout(1.0)
            yield store.put(i)

    def consumer(env, store):
        for _ in range(3):
            item = yield store.get()
            got.append((item, env.now))

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert got == [(0, 1.0), (1, 2.0), (2, 3.0)]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)

    def consumer(env, store):
        item = yield store.get()
        return (item, env.now)

    def producer(env, store):
        yield env.timeout(4.0)
        yield store.put("x")

    c = env.process(consumer(env, store))
    env.process(producer(env, store))
    env.run()
    assert c.value == ("x", 4.0)


def test_bounded_store_put_blocks_when_full():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer(env, store):
        yield store.put("first")
        log.append(("put-first", env.now))
        yield store.put("second")  # blocks until a get
        log.append(("put-second", env.now))

    def consumer(env, store):
        yield env.timeout(3.0)
        item = yield store.get()
        log.append(("got", item, env.now))

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert ("put-first", 0.0) in log
    assert ("got", "first", 3.0) in log
    assert ("put-second", 3.0) in log


def test_store_len():
    env = Environment()
    store = Store(env)
    store.put(1)
    store.put(2)
    assert len(store) == 2


def test_store_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def _store_scenario(nowait: bool):
    """Two consumers, a same-time bystander and a producer; returns the log
    of who saw what when, and the number of dispatched events."""
    env = Environment()
    store = Store(env)
    log = []

    def consumer(name):
        for _ in range(2):
            item = yield store.get()
            log.append((env.now, name, item))

    def bystander():
        for _ in range(3):
            yield env.timeout(1.0)
            log.append((env.now, "bystander", None))

    def producer():
        for i in range(6):
            yield env.timeout(0.5)
            if nowait:
                store.put_nowait(i)
            else:
                store.put(i)
            log.append((env.now, "producer", i))

    env.process(consumer("a"))
    env.process(consumer("b"))
    env.process(bystander())
    env.process(producer())
    dispatched = 0
    while env.peek() != float("inf"):
        env.step()
        dispatched += 1
    return log, dispatched, list(store.items)


def test_put_nowait_hands_items_to_getters_exactly_as_put():
    log_put, events_put, left_put = _store_scenario(nowait=False)
    log_nowait, events_nowait, left_nowait = _store_scenario(nowait=True)
    assert log_nowait == log_put
    assert left_nowait == left_put == [4, 5]
    # Only the six put events, which nothing waited on, are gone.
    assert events_put - events_nowait == 6


def test_put_nowait_appends_when_no_getter_waits():
    env = Environment()
    store = Store(env, capacity=2)
    store.put_nowait("x")
    store.put_nowait("y")
    assert list(store.items) == ["x", "y"]
    assert env.peek() == float("inf")   # nothing was scheduled
    got = []

    def consumer():
        got.append((yield store.get()))
        got.append((yield store.get()))

    env.process(consumer())
    env.run()
    assert got == ["x", "y"]


def test_put_nowait_raises_on_a_full_bounded_store():
    env = Environment()
    store = Store(env, capacity=1)
    store.put_nowait(1)
    with pytest.raises(SimulationError, match="full store"):
        store.put_nowait(2)
    assert list(store.items) == [1]
