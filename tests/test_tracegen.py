"""Tests for the deterministic trace generator and its RNG."""

import hashlib

import pytest

from clocktrace import tracegen
from clocktrace.tracegen import (
    PATTERNS,
    STAR_STYLES,
    GenSpec,
    SplitMix64,
    _pair_lock,
    generate,
)
from clocktrace.trace import ACQ, REL, Violation, serialize_trace, validate_trace
from oracles import OneDrawSplitMix64


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

    def test_below_draws_are_pinned(self):
        # three passes over bounds that reject no draw, some and half of
        # them, in turn, so each pass changes the bound between draws
        rng = SplitMix64(3)
        bounds = (1, 2, 3, 7, 160, 1279, 2**63 + 1, 2**64)
        assert [rng.below(b) for b in bounds * 3] == [
            0, 1, 0, 0, 86, 1213, 2493001065868230072, 16393961507643560470,
            0, 0, 0, 6, 52, 456, 5645703015062601190, 1916716703724845557,
            0, 1, 2, 4, 51, 1185, 3980598000218139604, 2230844239267079357,
        ]

    def test_blocks_match_one_draw_at_a_time(self):
        # bounds that reject no output (3, 2**64), some (160, 1279) and
        # about half (2**63 + 1), with next() between them; each draw uses
        # at least one output, so five blocks' worth of draws cross at
        # least four refills. Seed 2**64 - 1 wraps on the first step, and
        # 200 more seeds come from the reference itself
        bounds = (3, 160, 1279, 2**63 + 1, 2**64, None)
        seeder = OneDrawSplitMix64(17)
        for seed in [0, 3, 2**64 - 1] + [seeder.next() for _ in range(200)]:
            ref, rng = OneDrawSplitMix64(seed), SplitMix64(seed)
            for i in range(5 * tracegen._BLOCK):
                bound = bounds[i % len(bounds)]
                if bound is None:
                    assert rng.next() == ref.next(), (seed, i)
                else:
                    assert rng.below(bound) == ref.below(bound), (seed, i)

    def test_below_takes_the_full_64_bit_range(self):
        # a larger bound is refused; tests/test_cli.py checks that in a
        # subprocess, since a draw that never returns would hang this one.
        # A bound of 0 is refused before any draw
        rng = SplitMix64(5)
        assert 0 <= rng.below(1 << 64) < 1 << 64
        with pytest.raises(ValueError, match=r"bound must be in 1\.\.2\*\*64, got 0"):
            rng.below(0)


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

    def test_an_illegal_trace_is_an_assertion_failure(self, monkeypatch):
        # the generator checks its own output's lock discipline
        message = "event 1: thread #0 acquires lock #0 already held by thread #0"
        monkeypatch.setattr(tracegen, "validate_trace",
                            lambda trace: [Violation(1, "reacquire", message)])
        with pytest.raises(AssertionError) as exc:
            generate(spec("single_lock"))
        assert str(exc.value) == f"generator produced an illegal trace: {message}"

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


SHAPES = [("single_lock", "paired"), ("skewed_locks", "paired"),
          ("star", "paired"), ("star", "relay"), ("pairwise", "paired")]


@pytest.mark.parametrize("threads, events, seed, digests", [
    (7, 1000, 3, [
        "e8ffcecd04457636c8fb3c2210581a088dbb4ace67e8a2cf4d817744604bc7d9",
        "afb7a2d207a260dc3504a964e2450b6bfeb6175cc0180c90bcab63efc6191a05",
        "061293e7dd280f3c4c2996f5938469cab204ad7043bea17aa7569c01ae291ee3",
        "8003223777fb86bd90b3a9059593a91dd11267f2cec562beaa11271ab863b3d7",
        "05ee01930e884ee5485d487eff8c7072ef0b1436d132bd8f09dac5c8426e5bbe",
    ]),
    (160, 16_000, 0, [
        "1f07d0d0b31ec00eb9f54bfe0446baa56be651a3da48e9f75b2c776d07a0b5df",
        "bbfa624f18a7d983d85f18889662aabe397e8ff46999b7340e91af4b6298f534",
        "9b2457240194039f2e7ec066a7e1a44af7a209cc9eea2f92696ca62ca13804c8",
        "925df6eba0e7fbbe02a7241dae0d795aef784a1490e5154352badd290e7cc830",
        "39a614e74c2268591f56610ef151dcf9db2f1052f6a03fb4d1feca8832346d8b",
    ]),
    (3000, 2000, 1, [
        "85ee03c0f6f5fac0fbb497cf7d9d1846e9ebf819355920490903266e7dacf7c2",
        "c7bfb6b7e8a5969f123f2df5dd01bb8ae52b3739201ded8d5fedb2c1e1b9900b",
        "a6de9b8aa0b86107cf335d6f91e6d652e5dc2e9eccfff38d1b8bf957e31c9ea3",
        "822ae4d12b3b142c3f237cb56374101402c73d0ad7a722253750c7d063109692",
        "8efba30e1a20a1edac22a0cd7aa10ee606057583f0e1efd0e237bb59ff35eae6",
    ]),
])
def test_generated_text_is_pinned(threads, events, seed, digests):
    # the SHA-256 of each pattern's and star style's serialized trace,
    # so every byte gen writes stays the same across releases; at
    # k=3000 most rounds fall past the generator's table of shared
    # rounds, which has no more slots than there are rounds
    got = [hashlib.sha256(serialize_trace(generate(GenSpec(
        pattern, threads, events, seed, style))).encode()).hexdigest()
        for pattern, style in SHAPES]
    assert got == digests


@pytest.mark.parametrize("pattern, style", SHAPES[:4])  # all but pairwise
def test_repeated_rounds_share_their_events(pattern, style):
    # one Event object per distinct event, as parse_trace shares one per
    # distinct line
    events = generate(GenSpec(pattern, 7, 2000, 1, style)).events
    distinct = {(ev.tid, ev.op, ev.target) for ev in events}
    assert len(set(map(id, events))) == len(distinct) < len(events)


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
            {"pattern": "pairwise", "events": 3},
            {"pattern": "star", "events": 2},
            {"pattern": "star", "events": 3, "star_style": "paired"},
        ],
        # Ids are pinned so deleting a case does not rename the ones after it.
        ids=["kw0", "kw1", "kw2", "kw3", "kw4", "kw9", "kw10", "kw11", "kw12"],
    )
    def test_bad_specs_are_rejected(self, kw):
        kw.setdefault("threads", 4)
        kw.setdefault("events", 10)
        kw.setdefault("seed", 1)
        with pytest.raises(ValueError):
            generate(GenSpec(**kw))

    @pytest.mark.parametrize("pattern,style,size", [
        ("single_lock", "paired", 2), ("skewed_locks", "paired", 2),
        ("star", "relay", 2), ("star", "paired", 4), ("pairwise", "relay", 4),
    ])
    def test_one_round_is_the_fewest_events(self, pattern, style, size):
        # fewer events than one round would give an empty trace
        spec = GenSpec(pattern, 3, size, seed=1, star_style=style)
        assert len(generate(spec).events) == size
        with pytest.raises(ValueError, match=f"events must be >= {size}, "
                                             f"one {pattern}.* round, got {size - 1}"):
            generate(GenSpec(pattern, 3, size - 1, seed=1, star_style=style))

    @pytest.mark.parametrize("pattern, style, most", [
        ("single_lock", "paired", 2**64), ("skewed_locks", "paired", 10248191152060862008),
        ("star", "paired", 2**64 + 1), ("star", "relay", 2**64), ("pairwise", "paired", 2**64),
    ])
    def test_threads_past_the_first_draw_are_refused(self, pattern, style, most):
        # the first draw's bound is k, k - 1 for star paired, and the
        # weighted total for skewed_locks; validate refuses one past 2**64
        # with below()'s message, before any draw, and generate's draws
        # take every k it accepts
        assert len(generate(GenSpec(pattern, most, 4, star_style=style)).events) == 4
        with pytest.raises(ValueError) as exc:
            GenSpec(pattern, most + 1, 4, star_style=style).validate()
        assert str(exc.value) == f"bound must be in 1..2**64, got {2**64 + 1}"

    def test_star_styles_are_enumerated(self):
        assert set(STAR_STYLES) == {"paired", "relay"}
        assert set(PATTERNS) == {"single_lock", "skewed_locks", "star", "pairwise"}
