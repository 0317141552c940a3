"""Spans and exact counters, installed from the benchmark's own files.

Spans: ``Tracer.patch`` replaces a module or class attribute with a wrapper
that records ``[name, start, end, parent]`` in memory.  The package looks
these names up at call time, so calls it makes internally (``cli.main``
calling ``run_grid``) nest under the caller's span.  ``restore`` puts the
originals back, which lets one process alternate traced and untraced runs.

Counters: ``install_hashlib`` must run before ``merkle_falsify`` is
imported; ``install_package`` wraps the package's own classes and functions
afterwards.
Counting wrappers are never active while a timing is taken.
"""

from __future__ import annotations

import hashlib
import math
from time import perf_counter

NAME, START, END, PARENT = range(4)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        raw = vars(owner)[attr]
        wrapped = self.wrap(getattr(owner, attr), name)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = staticmethod(wrapped)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def durations(self, name: str) -> list[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out: dict[str, float] = {}
        for k, s in enumerate(self.spans):
            out[s[NAME]] = out.get(s[NAME], 0.0) + (s[END] - s[START]) - child[k]
        return out


class Counters:
    FIELDS = (
        "sha256_calls",
        "sha256_bytes",
        "oracle_queries",
        "oracle_misses",
        "digests_built",
        "format_sig_calls",
        "experiments",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for f in self.FIELDS:
            setattr(self, f, 0)

    def snapshot(self) -> dict[str, int]:
        return {f: getattr(self, f) for f in self.FIELDS}


def install_hashlib(counters: Counters) -> None:
    real = hashlib.sha256

    def sha256(data=b"", **kwargs):
        counters.sha256_calls += 1
        counters.sha256_bytes += len(data)
        return real(data, **kwargs)

    hashlib.sha256 = sha256


def install_package(counters: Counters) -> None:
    from merkle_falsify import hashing, report, simulate

    real_value64 = hashing.OracleState.value64

    def value64(self, data):
        counters.oracle_queries += 1
        before = len(self)
        got = real_value64(self, data)
        counters.oracle_misses += len(self) - before
        return got

    hashing.OracleState.value64 = value64

    real_post_init = hashing.Digest.__post_init__

    def post_init(self):
        counters.digests_built += 1
        real_post_init(self)

    hashing.Digest.__post_init__ = post_init

    real_format_sig = report.format_sig

    def format_sig(*args, **kwargs):
        counters.format_sig_calls += 1
        return real_format_sig(*args, **kwargs)

    report.format_sig = format_sig

    # run_grid looks run_experiment up at call time; the counting pass runs
    # with one worker, so every experiment is counted in this process.
    real_run_experiment = simulate.run_experiment

    def run_experiment(*args, **kwargs):
        counters.experiments += 1
        return real_run_experiment(*args, **kwargs)

    simulate.run_experiment = run_experiment
