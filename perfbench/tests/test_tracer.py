"""Self-time arithmetic and install/uninstall of the tracer."""

import types

import numpy as np
import pytest

from tracer import Tracer, self_times


def test_self_time_subtracts_children_once():
    # 0: root [0, 10]; 1: a [1, 4] and 2: b [5, 7] under root; 3: [2, 3] under a.
    # 4: root2 [20, 30] with children 5: [21, 25] and 6: [23, 28] overlapping (threads).
    start = [0, 1, 5, 2, 20, 21, 23]
    end = [10, 4, 7, 3, 30, 25, 28]
    parent = [-1, 0, 0, 1, -1, 4, 4]
    got = self_times(start, end, parent)
    np.testing.assert_allclose(got, [5, 2, 2, 1, 3, 4, 5])


def test_self_time_of_leaf_and_empty_input():
    np.testing.assert_allclose(self_times([1.0], [3.5], [-1]), [2.5])
    assert self_times([], [], []).size == 0


class Boom(Exception):
    pass


def _toy_modules():
    low = types.ModuleType("toy.low")

    def leaf(x):
        if x < 0:
            raise Boom("negative")
        return [x] * x

    leaf.__module__ = "toy.low"
    low.leaf = leaf
    low.__all__ = ["leaf"]

    high = types.ModuleType("toy.high")
    high.leaf = leaf  # imported under the same name

    def outer(n):
        return [high.leaf(k) for k in range(n)]

    outer.__module__ = "toy.high"
    high.outer = outer
    high.__all__ = ["outer"]
    return low, high


def test_wrappers_count_calls_errors_and_restore_originals():
    low, high = _toy_modules()
    originals = (low.leaf, high.leaf, high.outer)
    tracer = Tracer([low, high], prefix="toy.", error_types=(Boom,),
                    observers={"low.leaf": lambda t, r: t.count("low.leaf.items", len(r))},
                    values=("low.leaf.items",))
    tracer.install()
    assert low.leaf is not originals[0] and high.leaf is low.leaf
    assert high.outer(4) == [[], [1], [2, 2], [3, 3, 3]]
    with pytest.raises(Boom):
        high.leaf(-1)
    tracer.uninstall()
    assert (low.leaf, high.leaf, high.outer) == originals

    stats = tracer.stats()
    assert stats["high.outer.calls"] == 1
    assert stats["low.leaf.calls"] == 5
    assert stats["low.leaf.errors"] == 1
    assert stats["low.leaf.items"] == 0 + 1 + 2 + 3
    assert stats["high.outer.self_s"] <= stats["high.outer.total_s"]
    fn, parent, _, _ = tracer.spans()
    assert [tracer.names[i] for i in fn] == ["high.outer"] + ["low.leaf"] * 5
    assert list(parent) == [-1, 0, 0, 0, 0, -1]


def test_fbmkit_wrappers_restore_every_module_and_follow_threads():
    import fbmkit.cli  # noqa: F401  (loads every fbmkit module)
    from child import make_tracer

    tracer = make_tracer()
    before = {m.__name__: dict(vars(m)) for m in tracer.modules}
    tracer.install()
    import fbmkit.drift
    import fbmkit.gamma
    import fbmkit.rng

    assert fbmkit.drift.xi is fbmkit.gamma.xi
    assert fbmkit.drift.xi is not before["fbmkit.context"]["xi"]
    squares = fbmkit.rng.parallel_map(lambda k: fbmkit.drift.xi(2.0, float(k), 1.0), range(6), threads=2)
    tracer.uninstall()
    after = {m.__name__: dict(vars(m)) for m in tracer.modules}
    assert after == before

    np.testing.assert_allclose(squares, [2 * k + 1 for k in range(6)])
    stats = tracer.stats()
    assert stats["rng.parallel_map.calls"] == 1 and stats["rng.parallel_map.items"] == 6
    assert stats["context.xi.calls"] == 6 and stats["context.xi.elems"] == 6
    fn, parent, _, _ = tracer.spans()
    pm = tracer.names.index("rng.parallel_map")
    root = int(np.flatnonzero(fn == pm)[0])
    assert all(parent[i] == root for i in range(len(fn)) if tracer.names[fn[i]] == "context.xi")
