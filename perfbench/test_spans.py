"""Self-test of the benchmark's span bookkeeping and of its function patching.

Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

import sys
import types
from pathlib import Path

import pytest

from spans import NO_PARENT, Span, Tracer, union_length


class FakeClock:
    """Returns the queued times in order, so span bounds are exact."""

    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_union_counts_overlaps_once():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3)]) == 3
    assert union_length([(5, 6), (0, 1), (0.5, 2)]) == 3
    assert union_length([(0, 4), (1, 2)]) == 4


def test_self_time_with_overlapping_children():
    t = Tracer()
    t.spans = [
        Span("parent", 0.0, 10.0, NO_PARENT),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),       # overlaps a: 1..6 covered once
        Span("c", 8.0, 12.0, 0),      # outlives the parent: clipped to 8..10
        Span("a.child", 1.5, 2.0, 1),
    ]
    kids = t.children()
    assert kids[0] == [1, 2, 3]
    assert t.self_time(0) == pytest.approx(10.0 - 5.0 - 2.0)
    assert t.self_time(1) == pytest.approx(3.0 - 0.5)
    assert t.self_time(4) == pytest.approx(0.5)
    table = t.summary()
    assert table["parent"]["self_s"] == pytest.approx(3.0)
    assert table["a"]["inclusive_s"] == pytest.approx(3.0)


def test_nested_spans_record_parents_and_inclusive_time():
    t = Tracer(clock=FakeClock([0, 1, 2, 3, 7, 8, 9, 10]))
    leaf = t.wrap(lambda: 1, "leaf")
    with t.span("outer"):
        with t.span("outer"):
            leaf()
        leaf()
    assert [(s.name, s.start, s.end, s.parent) for s in t.spans] == [
        ("outer", 0, 10, NO_PARENT), ("outer", 1, 7, 0), ("leaf", 2, 3, 1), ("leaf", 8, 9, 0)]
    table = t.summary(within="outer")
    # Only the outermost "outer" counts toward its inclusive time.
    assert table["outer"]["inclusive_s"] == 10
    assert table["outer"]["self_s"] == (10 - 6 - 1) + (6 - 1)
    assert table["outer"]["calls"] == 2 and table["outer"]["calls_within"] == 1
    assert table["leaf"]["calls_within"] == 2


def test_raising_function_closes_its_span_and_counts_the_failure():
    t = Tracer()

    def boom():
        raise ValueError("no")

    wrapped = t.wrap(boom, "boom")
    with t.span("root"):
        with pytest.raises(ValueError):
            wrapped()
        wrapped_ok = t.wrap(lambda: 3, "ok")
        assert wrapped_ok() == 3
    assert t._stack == []
    boom_span, ok_span = t.spans[1], t.spans[2]
    assert boom_span.failed and boom_span.end >= boom_span.start
    assert not ok_span.failed
    # After the failure the next call is a sibling, not a child of the failed span.
    assert boom_span.parent == 0 and ok_span.parent == 0
    table = t.summary()
    assert table["boom"]["failed"] == 1 and table["ok"]["failed"] == 0
    assert not t.spans[0].failed


def test_patch_covers_aliases_and_restore_puts_everything_back():
    def target(x):
        return x + 1

    home = types.ModuleType("home")
    home.target = target
    user = types.ModuleType("user")
    user.alias = target          # as made by "from home import target as alias"
    user.other = len
    t = Tracer()
    with t:
        assert t.patch([home, user], target, "home.target") == 2
        assert home.target is not target and user.alias is not target
        assert user.alias(1) == 2 and home.target(2) == 3
        assert user.other is len
    assert home.target is target and user.alias is target
    assert [s.name for s in t.spans] == ["home.target", "home.target"]


def test_package_instrumentation_is_fully_restored():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import layers
    import lrcompress  # noqa: F401
    from lrcompress import cli, linalg, toymodels  # noqa: F401

    before = layers.snapshot()
    original = toymodels.cholesky_whiten
    t = Tracer()
    try:
        rebound = layers.install(t)
        assert rebound > len(layers.public_functions())
        # from-imported aliases are wrapped too, not just the defining module
        assert toymodels.cholesky_whiten is not original
        assert toymodels.cholesky_whiten is linalg.cholesky_whiten
        assert lrcompress.cholesky_whiten is linalg.cholesky_whiten
    finally:
        t.restore()
    assert toymodels.cholesky_whiten is original
    assert layers.snapshot() == before
