"""Timing normalized to the machine's momentary speed.

The machine the benchmark was written on (a shared 2-vCPU KVM guest)
switches between a fast and a slow state, about 1.5 times apart, for
stretches of half a second to over a minute.  A plain wall-clock time
therefore depends on how much of a run the slow state covers, and ten runs
of unchanged code spread by up to 0.4 of their median.

`Meter` times a call in segments and divides each segment by the time of a
fixed reference kernel run right before and right after it on the same CPU.
Hooks on ``Adam.step`` and ``SurvivalModel.predict`` end a segment when one
of them returns, so that a training or sweep call is cut into pieces of
about `MIN_SEGMENT_S` and each is compared with the speed of its own moment.
The summed ratio is scaled back to seconds by the kernel's nominal time: a
reported time is the call's duration at the speed at which the kernel takes
exactly that long.  The kernel runs between segments, so its own time is in
neither figure.  The wall-clock time without the kernel is returned
alongside.

The slow state does not slow all work alike, so there are two kernels:
`MODEL` (small matmuls, ufuncs, interpreter loops and an integer JSON round
trip) for model work, and `CHECKPOINT` (float JSON, as ``save`` and ``load``
do) for checkpoints.  Each tracks its own kind of work more closely than
the other one does.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

# a hook ends a segment only once it is this long, which keeps the kernel's
# share of a training call small; the machine's state lasts longer
MIN_SEGMENT_S = 0.05
# a call that starts this soon after the last kernel run reuses its time
REUSE_S = 0.02
# an end-of-call segment shorter than this is scaled by the last kernel time
# instead of running the kernel once more
SHORT_TAIL_S = 1.0e-4

_MATRIX = np.random.default_rng(0).random((64, 64))
_INTS = list(range(3000))
_FLOATS = np.random.default_rng(1).random(600).tolist()


def _model_kernel() -> None:
    for _ in range(8):
        product = _MATRIX @ _MATRIX
        np.tanh(product, out=product)
        acc = 0
        for i in range(250):
            acc += i * i
    json.loads(json.dumps(_INTS))


def _checkpoint_kernel() -> None:
    for _ in range(4):
        json.loads(json.dumps(_FLOATS))


@dataclass(frozen=True)
class Kernel:
    run: Callable[[], None]
    # the kernel's time in the fast state of the machine the benchmark was
    # written on; a constant, so it only sets the scale of reported times
    nominal_s: float

    def time(self) -> float:
        """Median of three runs, so that one interrupted run does not skew a segment."""
        samples = []
        for _ in range(3):
            started = time.perf_counter()
            self.run()
            samples.append(time.perf_counter() - started)
        return sorted(samples)[1]


MODEL = Kernel(_model_kernel, 6.5e-4)
CHECKPOINT = Kernel(_checkpoint_kernel, 2.0e-3)


class Meter:
    """Segment timer; without installed hooks a call is a single segment."""

    def __init__(self):
        self._active = False
        self._restore: list[tuple] = []
        self._kernel = MODEL
        self._last = self._resume = self._wall = self._scaled = 0.0

    def _mark(self) -> None:
        now = time.perf_counter()
        kernel = self._kernel.time()
        segment = now - self._resume
        self._wall += segment
        self._scaled += segment * self._kernel.nominal_s / (0.5 * (self._last + kernel))
        self._last = kernel
        self._resume = time.perf_counter()

    def time(self, fn, kernel: Kernel = MODEL):
        """Run ``fn()``; return its result, normalized seconds and wall seconds."""
        if self._active:
            raise RuntimeError("Meter.time calls do not nest")
        self._wall = self._scaled = 0.0
        if kernel is not self._kernel or time.perf_counter() - self._resume > REUSE_S:
            self._kernel = kernel
            self._last = kernel.time()
        self._active = True
        self._resume = time.perf_counter()
        try:
            result = fn()
            tail = time.perf_counter() - self._resume
            if tail < SHORT_TAIL_S:
                self._wall += tail
                self._scaled += tail * kernel.nominal_s / self._last
            else:
                self._mark()
        finally:
            self._active = False
        return result, self._scaled, self._wall

    def split(self) -> float:
        """Inside `time`: normalized seconds so far, ending the current segment."""
        self._mark()
        return self._scaled

    # -- segment hooks -----------------------------------------------------------

    def install(self, owners) -> None:
        """End a segment at each return of ``owner.attr``, for each ``(owner, attr)``."""
        for owner, attr in owners:
            original = owner.__dict__[attr]
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._hook(original))

    def _hook(self, fn):
        def marked(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self._active and time.perf_counter() - self._resume >= MIN_SEGMENT_S:
                self._mark()
            return result

        marked.__wrapped__ = fn
        return marked

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
