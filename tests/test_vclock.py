"""Vector clocks: pinned arithmetic, contracts, and work accounting."""

import random

import pytest

# the pinned six-thread vectors that `clocktrace selfcheck` also checks
from clocktrace.selfcheck import (VECTOR_LARGE as LARGE, VECTOR_OTHER as OTHER,
                                  VECTOR_SMALL as SMALL)
from clocktrace.vclock import (
    ClockContractError,
    Epoch,
    VectorClock,
    WorkCounter,
    vt_leq,
)


def test_pinned_pointwise_order():
    assert vt_leq(SMALL, LARGE)
    assert not vt_leq(LARGE, SMALL)
    assert vt_leq(SMALL, SMALL)


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


# --- one-entry fast path against an entrywise reference -------------------

def _cases(rng, k):
    """(acting index a, mine, theirs), plain lists covering every way two
    clocks can differ relative to the acting thread a: equal, at a only
    (up or down), at a and at index 0 or k-1, and elsewhere only."""
    a = rng.randrange(k)
    base = [rng.randrange(1, 9) for _ in range(k)]

    def moved(idx, up):
        out = base[:]
        for j in idx:
            out[j] += rng.randrange(1, 5) if up else -rng.randrange(1, base[j] + 1)
        return out

    yield a, base, base[:]
    for up in (True, False):
        yield a, base, moved([a], up)
        for j in sorted({0, k - 1} - {a}):
            yield a, base, moved([a, j], up)
        others = [j for j in range(k) if j != a]
        if others:
            picked = rng.sample(others, rng.randrange(1, len(others) + 1))
            yield a, base, moved(picked, up)


def _check(op, dst, src, want, want_vt):
    c = dst.counter
    before = (c.vt_work, c.impl_work, c.joins, c.copies)
    result = op(dst, src)
    assert dst.clk == want
    assert (c.vt_work - before[0], c.impl_work - before[1]) == (want_vt, len(want))
    if op is VectorClock.join:
        assert (c.joins - before[2], c.copies - before[3]) == (1, 0)
        assert result is None
    else:
        assert (c.joins - before[2], c.copies - before[3]) == (0, 1)
        assert result == "monotone"


@pytest.mark.parametrize("k", [1, 2, 5, 64])
@pytest.mark.parametrize("seed", range(5))
def test_join_and_copy_match_entrywise_reference(k, seed):
    rng = random.Random(seed * 1000 + k)
    c = WorkCounter()

    def clock(values, owner):
        vc = VectorClock(k, c, owner=owner)
        vc.clk[:] = values
        return vc

    def other_owner(a):
        return rng.choice([None] + [j for j in range(k) if j != a])

    for a, mine, theirs in _cases(rng, k):
        # join: the acting thread is the target's owner; an aux target
        # (no owner) always takes the entrywise path
        want = [max(x, y) for x, y in zip(mine, theirs)]
        vt = sum(y > x for x, y in zip(mine, theirs))
        for owner in (a, None):
            _check(VectorClock.join, clock(mine, owner),
                   clock(theirs, other_owner(a)), want, vt)
        # copy: the acting thread is the source's owner; an aux source too
        vt = sum(x != y for x, y in zip(mine, theirs))
        for owner in (a, None):
            _check(VectorClock.copy_check_monotone, clock(mine, other_owner(a)),
                   clock(theirs, owner), theirs, vt)
        # self-join and self-copy change nothing but still count k
        for owner in (a, None):
            me = clock(mine, owner)
            _check(VectorClock.join, me, me, mine, 0)
            _check(VectorClock.copy_check_monotone, me, me, mine, 0)


class _Tripwire(Exception):
    pass


class _NoIterList(list):
    """A clk list that refuses entrywise iteration."""

    def __iter__(self):
        raise _Tripwire


def _tripwire_clock(values, owner, c):
    vc = VectorClock(len(values), c, owner=owner)
    vc.clk = _NoIterList(values)
    return vc


def test_one_entry_join_and_copy_do_not_iterate():
    c = WorkCounter()
    t = _tripwire_clock([3, 5, 2, 7], 2, c)
    lock = _tripwire_clock([3, 5, 6, 7], None, c)
    t.join(lock)  # differs only at the target's owner
    assert t.clk == [3, 5, 6, 7]  # list equality does not call __iter__
    t.clk[2] += 1
    assert lock.copy_check_monotone(t) == "monotone"  # only at the source's owner
    assert lock.clk == [3, 5, 7, 7]
    assert (c.joins, c.copies, c.impl_work, c.vt_work) == (1, 1, 8, 2)
    # a join that differs elsewhere is entrywise, so the tripwire is live
    lock.clk[0] = 9
    with pytest.raises(_Tripwire):
        t.join(lock)
