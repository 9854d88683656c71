"""Vector clocks: pinned arithmetic, contracts, and work accounting."""

import pytest

# the pinned six-thread vectors that `clocktrace selfcheck` also checks
from clocktrace.selfcheck import (VECTOR_LARGE as LARGE, VECTOR_OTHER as OTHER,
                                  VECTOR_SMALL as SMALL)
from clocktrace.vclock import (
    ClockContractError,
    Epoch,
    VectorClock,
    WorkCounter,
    vt_join,
    vt_leq,
)


def test_pinned_pointwise_order():
    assert vt_leq(SMALL, LARGE)
    assert not vt_leq(LARGE, SMALL)
    assert vt_leq(SMALL, SMALL)


def test_pinned_join():
    assert vt_join(OTHER, SMALL) == LARGE
    assert vt_join(SMALL, OTHER) == LARGE


def test_incomparable_pair():
    assert not vt_leq(OTHER, SMALL) and not vt_leq(SMALL, OTHER)


def _pair(k=4, debug=False):
    c = WorkCounter(debug)
    a = VectorClock.owned(0, k, c)
    b = VectorClock.owned(1, k, c)
    return a, b, c


def test_increment_needs_owner():
    c = WorkCounter()
    aux = VectorClock.aux(3, c)
    with pytest.raises(ClockContractError):
        aux.increment()


def test_increment_counts():
    a, _, c = _pair()
    a.increment()
    a.increment()
    assert a.flatten() == (2, 0, 0, 0)
    assert (c.increments, c.impl_work, c.vt_work) == (2, 2, 2)


def test_join_counts_full_scan_but_only_changes():
    a, b, c = _pair()
    a.increment()
    b.increment()
    b.increment()
    base_impl, base_vt = c.impl_work, c.vt_work
    a.join(b)
    assert a.flatten() == (1, 2, 0, 0)
    assert c.impl_work - base_impl == 4  # full scan of k entries
    assert c.vt_work - base_vt == 1  # one entry actually rose
    assert c.joins == 1
    # joining again changes nothing but still scans
    a.join(b)
    assert c.vt_work - base_vt == 1


def test_monotone_copy_counts_and_contract():
    a, b, c = _pair(debug=True)
    a.increment()
    aux = VectorClock.aux(4, c)
    assert aux.copy_check_monotone(a) == "monotone"
    assert aux.flatten() == (1, 0, 0, 0)
    # one increment, then a copy that scans all k entries and changes one
    assert (c.copies, c.impl_work, c.vt_work) == (1, 1 + 4, 1 + 1)
    # a target above the source is no contract breach for vectors, even
    # under debug: the copy overwrites it and is counted like any other
    b.increment()
    assert b.copy_check_monotone(a) == "monotone"
    assert b.flatten() == (1, 0, 0, 0)
    assert (c.copies, c.impl_work, c.vt_work) == (2, 1 + 4 + 1 + 4, 1 + 1 + 1 + 2)


def test_copy_check_monotone_is_always_plain_copy():
    a, _, c = _pair()
    a.increment()
    aux = VectorClock.aux(4, c)
    assert aux.copy_check_monotone(a) == "monotone"
    assert aux.flatten() == a.flatten()
    # even a non-monotone overwrite stays a plain copy for vectors
    other = VectorClock.owned(1, 4, c)
    other.increment()
    assert other.copy_check_monotone(a) == "monotone"
    assert other.flatten() == a.flatten()


def test_flatten_is_an_independent_snapshot():
    a, _, _ = _pair()
    a.increment()
    snap = a.flatten()
    a.increment()
    assert snap == (1, 0, 0, 0)
    assert a.flatten() == (2, 0, 0, 0)


def test_join_then_increment_orders_flattened_clocks():
    a, b, _ = _pair()
    a.increment()
    b.join(a)
    b.increment()
    assert vt_leq(a.flatten(), b.flatten()) and not vt_leq(b.flatten(), a.flatten())


def test_epoch_fields():
    e = Epoch(3, 17)
    assert e.tid == 3 and e.clk == 17
    assert e == Epoch(3, 17)
