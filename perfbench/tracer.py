"""In-memory span tracer that wraps the package's public functions from outside.

Each wrapped call records one span: layer, function, start, end and the span
that was open when it was called.  Spans stay in memory until the benchmark
writes them out.  Counters are taken at the same boundaries, before the span's
clock starts, so their cost shows as tracing overhead and not as layer time.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from cipher_audit import cipher, cli, experiments, image_io, metrics

# The layers and the functions through which each one is entered.
TARGETS = {
    cipher: ("encrypt", "decrypt"),
    metrics: ("hamming_percent", "byte_histogram", "chi_square", "psnr", "ssim"),
    experiments: ("avalanche_sweep", "uniformity_sweep", "error_propagation"),
    image_io: ("read_pgm", "write_pgm", "make_portrait_image"),
    cli: ("main",),
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str  # "<layer>.<function>"
    start: float
    end: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that swaps each target for a span-recording wrapper."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._last_ssim_ref: np.ndarray | None = None

    def __enter__(self) -> "Tracer":
        for module, names in TARGETS.items():
            layer = module.__name__.rsplit(".", 1)[1]
            for name in names:
                original = getattr(module, name)
                self._saved.append((module, name, original))
                setattr(module, name, self._wrap(f"{layer}.{name}", original))
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _count(self, name: str, args: tuple) -> None:
        if name == "cipher.encrypt":
            self.counts["cipher.encrypt.zero_input"] += not np.any(args[0])
        elif name == "metrics.ssim":
            ref = args[0]
            last = self._last_ssim_ref
            self.counts["metrics.ssim.repeat_ref"] += last is not None and np.array_equal(last, ref)
            self._last_ssim_ref = np.array(ref, copy=True)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._count(name, args)
            span = Span(len(self.spans), self._stack[-1] if self._stack else None, name, 0.0)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out
