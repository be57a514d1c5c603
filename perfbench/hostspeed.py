"""Host-speed samples: a fixed pure-Python kernel that shares no code with braidcomm.

The benchmark runs on a share of a host whose speed for the same work
drifts by 20-40% over minutes.  Each CPU also switches between a fast and
a slow state (kernel times of about 5 and 9 ms) that lasts a second or
so, independently of the other CPU.  So the host is sampled on the same
thread as the workload, while it runs: ``Sampler`` calls the kernel every
``INTERVAL_S``.  A pass's time, scaled by ``REF_KERNEL_S`` over the mean
kernel time of the samples taken during it, is its time at the reference
host speed.

The kernel never changes with the program, so a faster program still
reads faster.  It does what braidcomm's hot paths do: it builds words as
tuples of ``((family, index), exponent)`` letters, substitutes and freely
reduces them, and row-reduces sparse integer rows kept in dicts.
"""

from __future__ import annotations

import signal
import time

# a typical kernel time on the 2-core x86-64 VM the benchmark was written on
REF_KERNEL_S = 0.0085
INTERVAL_S = 0.1      # one kernel call per interval: about 8% of the run

_GENS = tuple(("s", i) for i in range(5)) + tuple(("r", i) for i in range(5))
_INDEX = {g: i for i, g in enumerate(_GENS)}
_P = 10007


def _reduce(letters):
    out: list = []
    for g, e in letters:
        if out and out[-1][0] == g:
            e += out.pop()[1]
        if e:
            out.append((g, e))
    return tuple(out)


def _substitute(w, target, replacement):
    raw: list = []
    for g, e in w:
        if g == target:
            piece = replacement if e > 0 else tuple((h, -f) for h, f in reversed(replacement))
            raw.extend(piece * abs(e))
        else:
            raw.append((g, e))
    return _reduce(raw)


def _row_reduce(rows):
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            if col not in pivots:
                inv = pow(row[col], -1, _P)
                pivots[col] = {c: v * inv % _P for c, v in row.items()}
                break
            factor = row[col]
            for c, v in pivots[col].items():
                x = (row.get(c, 0) - factor * v) % _P
                if x:
                    row[c] = x
                else:
                    row.pop(c, None)
    return len(pivots)


def kernel() -> int:
    """One host-speed sample: the same fixed work on every call."""
    x = 1
    words = []
    for _ in range(100):
        letters = []
        for _ in range(14):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            letters.append((_GENS[x % 10], (x >> 8) % 5 - 2))
        words.append(_reduce(letters))
    for target in _GENS[:3]:
        replacement = words[_INDEX[target]][:4]
        words = [_substitute(w, target, replacement) for w in words]
    rows = []
    for w in words:
        row: dict[int, int] = {}
        for g, e in w:
            row[_INDEX[g]] = row.get(_INDEX[g], 0) + e
        rows.append({c: v % _P for c, v in row.items() if v % _P})
    return _row_reduce(rows) + sum(map(len, words))


class Sampler:
    """Runs the kernel every ``INTERVAL_S`` of wall time while entered.

    It runs from a SIGALRM handler, so on the thread, and the CPU, that
    runs the workload, and at the same moments.  ``clock`` is
    ``time.perf_counter`` minus the time spent in the handler, so a call
    timed with it excludes the samples taken during it.
    """

    def __init__(self):
        self.kernel_s = 0.0   # summed kernel times
        self.calls = 0        # kernel calls
        self.paused_s = 0.0   # time spent in the handler

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.kernel_s += t1 - t0
        self.calls += 1
        self.paused_s += time.perf_counter() - t0

    def clock(self) -> float:
        return time.perf_counter() - self.paused_s

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
