"""Tests for the deterministic trace generator and its RNG."""

import pytest

from clocktrace.tracegen import (
    PATTERNS,
    STAR_STYLES,
    GenSpec,
    SplitMix64,
    _pair_lock,
    generate,
)
from clocktrace.trace import ACQ, REL, serialize_trace, validate_trace


class TestSplitMix64:
    def test_published_reference_vectors(self):
        # first three outputs for two well-known seeds of this generator
        rng = SplitMix64(0)
        assert [rng.next() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]
        rng = SplitMix64(1234567)
        assert [rng.next() for _ in range(3)] == [
            0x599ED017FB08FC85,
            0x2C73F08458540FA5,
            0x883EBCE5A3F27C77,
        ]

    def test_below_is_in_range_and_deterministic(self):
        a = SplitMix64(99)
        b = SplitMix64(99)
        seen = set()
        for _ in range(2000):
            x = a.below(7)
            assert 0 <= x < 7
            assert x == b.below(7)
            seen.add(x)
        assert seen == set(range(7))  # all residues reachable

    def test_below_one_is_always_zero(self):
        rng = SplitMix64(5)
        assert all(rng.below(1) == 0 for _ in range(10))

    def test_below_takes_the_full_64_bit_range(self):
        # a larger bound is refused; tests/test_cli.py checks that in a
        # subprocess, since a draw that never returns would hang this one
        rng = SplitMix64(5)
        assert 0 <= rng.below(1 << 64) < 1 << 64


def spec(pattern, threads=4, events=12, seed=5, **kw):
    return GenSpec(pattern=pattern, threads=threads, events=events, seed=seed, **kw)


class TestPatterns:
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_traces_are_legal_and_deterministic(self, pattern):
        s = spec(pattern, threads=5, events=200, seed=11)
        t1 = generate(s)
        t2 = generate(s)
        assert serialize_trace(t1) == serialize_trace(t2)
        assert validate_trace(t1) == []
        assert {ev.op for ev in t1.events} <= {ACQ, REL}
        assert t1.var_count == 0

    def test_seeds_change_the_trace(self):
        a = serialize_trace(generate(spec("skewed_locks", seed=1)))
        b = serialize_trace(generate(spec("skewed_locks", seed=2)))
        assert a != b

    def test_event_count_rounds_down_to_whole_rounds(self):
        assert len(generate(spec("single_lock", events=13)).events) == 12
        assert len(generate(spec("star", events=13, star_style="paired")).events) == 12
        assert len(generate(spec("star", events=13, star_style="relay")).events) == 12
        assert len(generate(spec("pairwise", events=15)).events) == 12

    def test_single_lock_uses_one_lock_in_two_event_rounds(self):
        t = generate(spec("single_lock", events=40))
        assert t.lock_count == 1
        for i in range(0, len(t.events), 2):
            a, r = t.events[i], t.events[i + 1]
            assert (a.op, r.op) == (ACQ, REL)
            assert a.tid == r.tid
            assert a.target == r.target == 0

    def test_skewed_locks_shape_and_skew(self):
        t = generate(spec("skewed_locks", threads=10, events=6000, seed=3))
        assert t.lock_count == 50
        assert all(0 <= ev.target < 50 for ev in t.events)
        per_thread = [0] * 10
        for ev in t.events:
            per_thread[ev.tid] += 1
        # ceil(0.2 * 10) = 2 hot threads at weight 5; with 8 cold threads the
        # expected hot:cold frequency ratio is 5
        hot = sum(per_thread[:2]) / 2
        cold = sum(per_thread[2:]) / 8
        assert 3.5 < hot / cold < 6.5

    def test_hot_thread_count_uses_ceiling(self):
        # 0.2 * 10 = 2 exactly; the epsilon guard must not push it to 3
        t = generate(spec("skewed_locks", threads=10, events=4000, seed=9))
        per_thread = [0] * 10
        for ev in t.events:
            per_thread[ev.tid] += 1
        ranked = sorted(range(10), key=lambda i: -per_thread[i])
        assert set(ranked[:2]) == {0, 1}
        # thread 2 is cold: far below the hot pair
        assert per_thread[2] < per_thread[1] / 2

    def test_star_paired_rounds_share_a_dedicated_lock(self):
        k = 5
        t = generate(spec("star", threads=k, events=400, star_style="paired"))
        assert t.lock_count == k - 1
        for i in range(0, len(t.events), 4):
            ca, cr, sa, sr = t.events[i : i + 4]
            client = ca.tid
            assert client != 0
            lock = client - 1  # each client owns the lock below its id
            assert [e.op for e in (ca, cr, sa, sr)] == [ACQ, REL, ACQ, REL]
            assert cr.tid == client and sa.tid == 0 and sr.tid == 0
            assert {e.target for e in (ca, cr, sa, sr)} == {lock}

    def test_star_relay_rounds_bind_clients_to_their_lock(self):
        k = 5
        t = generate(spec("star", threads=k, events=400, star_style="relay"))
        assert t.lock_count == k - 1
        server_locks = set()
        for i in range(0, len(t.events), 2):
            a, r = t.events[i], t.events[i + 1]
            assert (a.op, r.op) == (ACQ, REL)
            assert a.tid == r.tid and a.target == r.target
            if a.tid == 0:
                server_locks.add(a.target)  # the hub roams over client locks
            else:
                assert a.target == a.tid - 1
        assert len(server_locks) > 1

    def test_pairwise_rounds_use_the_pair_lock(self):
        k = 5
        t = generate(spec("pairwise", threads=k, events=400))
        assert t.lock_count == k * (k - 1) // 2
        seen_pairs = set()
        for i in range(0, len(t.events), 4):
            quad = t.events[i : i + 4]
            assert [e.op for e in quad] == [ACQ, REL, ACQ, REL]
            assert quad[0].tid == quad[1].tid
            assert quad[2].tid == quad[3].tid
            assert quad[0].tid != quad[2].tid
            lo, hi = sorted((quad[0].tid, quad[2].tid))
            lock = quad[0].target
            assert {e.target for e in quad} == {lock}
            assert lock == _pair_lock(lo, hi, k)
            seen_pairs.add((lo, hi))
        assert len(seen_pairs) > k  # many distinct pairs get exercised

    def test_pair_lock_is_a_bijection(self):
        k = 7
        locks = {
            _pair_lock(a, b, k) for a in range(k) for b in range(a + 1, k)
        }
        assert locks == set(range(k * (k - 1) // 2))


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"pattern": "ring"},
            {"pattern": "single_lock", "threads": 1},
            {"pattern": "single_lock", "events": 1},
            {"pattern": "single_lock", "seed": -1},
            {"pattern": "single_lock", "seed": 2**64},
            {"pattern": "star", "star_style": "mesh"},
        ],
        # Ids are pinned so deleting a case does not rename the ones after it.
        ids=["kw0", "kw1", "kw2", "kw3", "kw4", "kw9"],
    )
    def test_bad_specs_are_rejected(self, kw):
        kw.setdefault("threads", 4)
        kw.setdefault("events", 10)
        kw.setdefault("seed", 1)
        with pytest.raises(ValueError):
            generate(GenSpec(**kw))

    def test_star_styles_are_enumerated(self):
        assert set(STAR_STYLES) == {"paired", "relay"}
        assert set(PATTERNS) == {"single_lock", "skewed_locks", "star", "pairwise"}
