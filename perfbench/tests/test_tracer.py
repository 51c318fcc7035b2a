import pytest

from tracer import ROOT_PARENT, Tracer, patched


class FakeClock:
    """Advances by a set step only when read, so span bounds are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def build(clock, keep=()):
    tr = Tracer(clock=clock, keep=keep)

    def leaf():
        clock.advance(1.0)

    leaf = tr.wrap("leaf", leaf)

    def inner():
        clock.advance(2.0)
        leaf()
        clock.advance(3.0)

    inner = tr.wrap("inner", inner)

    def outer():
        clock.advance(5.0)
        inner()
        leaf()
        inner()
        clock.advance(7.0)

    return tr, tr.wrap("outer", outer)


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr, outer = build(clock)
    outer()
    # outer spans 5 + 6 + 1 + 6 + 7 = 25, of which its children cover 13
    assert tr.total("outer") == pytest.approx(25.0)
    assert tr.self_total("outer") == pytest.approx(12.0)
    assert tr.calls("inner", "outer") == 2
    assert tr.total("inner") == pytest.approx(12.0)
    assert tr.self_total("inner") == pytest.approx(10.0)
    assert tr.calls("leaf") == 3
    assert tr.calls("leaf", "inner") == 2
    assert tr.calls("leaf", "outer") == 1
    assert tr.self_total("leaf") == pytest.approx(3.0)
    assert tr.calls("outer", ROOT_PARENT) == 1


def test_kept_spans_and_notes_do_not_charge_parent():
    clock = FakeClock()
    tr = Tracer(clock=clock, keep=("child",))

    def slow_note(span, args, result):
        clock.advance(100.0)
        return (args, result)

    child = tr.wrap("child", lambda x: clock.advance(1.0) or x * 2, note=slow_note)

    def parent():
        clock.advance(1.0)
        return child(4)

    assert tr.wrap("parent", parent)() == 8
    (span,) = tr.kept["child"]
    assert (span.parent, span.duration, span.note) == ("parent", 1.0, ((4,), 8))
    assert tr.self_total("parent") == pytest.approx(1.0)


def test_span_closes_when_call_raises():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise KeyError("x")

    with pytest.raises(KeyError):
        tr.wrap("boom", boom)()
    assert tr.calls("boom") == 1
    assert tr._stack == []


def test_patched_restores_attributes():
    class Owner:
        def f(self):
            return 1

    original = Owner.__dict__["f"]
    with patched([(Owner, "f", lambda self: 2)]):
        assert Owner().f() == 2
    assert Owner.__dict__["f"] is original
