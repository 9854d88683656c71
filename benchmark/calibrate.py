"""Fixed Python load that measures how fast the host runs Python right now.

    python3 benchmark/calibrate.py

The timed run (run.py) starts this program between any two `analyze`
invocations and after the last one, and scales each invocation by the
mean wall time of the two calibrations around it. It imports
nothing from the repository, so no change to the program under test can
move it. Its work resembles `analyze`'s: interpreter start, element-wise
max over integer lists, small tuples and dictionary updates.

`allocation_load` is a second, in-process load for timing set-ups: run.py
runs it just before and just after each set-up and scales the set-up by
the mean of the two. It allocates tuples and strings, as trace generation
and serialization do. README.md, section Host speed, says why each load
is used where it is.
"""

K = 256
CLOCKS = 48
STEPS = 12000
ALLOCATION_STEPS = 20_000


def main():
    clocks = [[0] * K for _ in range(CLOCKS)]
    last = {}
    state = 1
    for step in range(STEPS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        a = clocks[state % CLOCKS]
        b = clocks[(state >> 8) % CLOCKS]
        a[state % K] += 1
        for i, v in enumerate(b):
            if v > a[i]:
                a[i] = v
        key = (state % 997, step & 7)
        last[key] = last.get(key, 0) + a[step % K]
    print(sum(map(sum, clocks)) + sum(last.values()))


def allocation_load():
    """A few ms of tuple, string and dictionary allocation."""
    last = {}
    for i in range(ALLOCATION_STEPS):
        last[(i % 97, i & 7)] = (i, str(i))
    return len(last)


if __name__ == "__main__":
    main()
