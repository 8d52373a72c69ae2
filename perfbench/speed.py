"""Host-speed sampling, so timings read in reference-host seconds.

The benchmark runs on small shared hosts whose speed drifts with what
their neighbours run: on the 2-core container this benchmark was
written on, one fixed pass of ``factor_paper`` varied by 19% (standard
deviation over mean, 39 passes in one process) and drift outlasts a
run, so medians over passes do not remove it.

A :class:`SpeedSampler` interrupts the timed work every
:data:`INTERVAL_S` seconds of wall time and times a small fixed probe:
dict and attribute work, then small-array NumPy calls and dict stores,
in turn, the two kinds of work the simulator and planner spend their
time on.  The probe samples the host's speed at the same moments as the
work, so the ratio of the probes' reference times to their measured
times rescales the work's seconds to a host of reference speed.  On
the passes above this cut the variation to 5.7% (``factor_paper``) and
from 14% to 2.8% (``factor_auto``).  The probe time is subtracted from
the work's time, and the probe code is fixed here, so a change to the
program moves the scaled seconds as much as it moves the raw ones.
"""

from __future__ import annotations

import contextlib
import dataclasses
import signal
import statistics
import time
from typing import Iterator

import numpy as np

__all__ = ["SpeedSampler", "Segment", "lookup_probe",
           "LOOKUP_REFERENCE_S"]

#: Wall seconds between two probe samples.
INTERVAL_S = 0.03
#: Fewest samples per probe kind a segment's own speed estimate needs;
#: shorter segments use every sample of the sampler so far.  Three per
#: kind (about 0.2 s) already track the host better than the run-wide
#: mean: a 0.3 s call varied by 24% with eight, by 5% with three.
MIN_SAMPLES = 3

_TABLE = {i: i for i in range(256)}
_TILES = [np.ones((4, 4)) for _ in range(8)]


class _Box:
    __slots__ = ("x",)


def _probe_dict() -> None:
    box = _Box()
    box.x = 0
    for i in range(1000):
        box.x += _TABLE[i & 255]
        hash((i, box.x))


def _probe_tiles() -> None:
    store = {}
    for i in range(60):
        tile = np.asarray(_TILES[i & 7])
        store[(i, "k")] = tile.copy()
        np.stack(_TILES[:4])


def lookup_probe() -> None:
    """A microsecond-scale stand-in for a cached plan lookup (dict and
    attribute work only), timed next to each lookup: the sampler's
    millisecond probes do not track the speed of such short calls."""
    box = _Box()
    box.x = 0
    for i in range(40):
        box.x += _TABLE[i & 255]


#: :func:`lookup_probe`'s reference seconds.
LOOKUP_REFERENCE_S = 2.6e-6

#: The probes and their reference seconds: the 10th percentile of their
#: per-pass mean times on the 2-core host above.
_PROBES = ((_probe_dict, 1.9e-4), (_probe_tiles, 4.6e-4))


@dataclasses.dataclass
class Segment:
    """One timed stretch of work.

    ``raw_s`` is its wall time without the probe time, ``scale`` the
    reference-over-measured speed ratio and :attr:`seconds` their
    product, the stretch's duration on a reference-speed host.
    """

    raw_s: float = 0.0
    scale: float = 1.0

    @property
    def seconds(self) -> float:
        return self.raw_s * self.scale


class SpeedSampler:
    """Samples host speed with a wall-clock interval timer while
    active (use as a context manager around a whole run)."""

    def __init__(self) -> None:
        self.samples: list[list[float]] = [[] for _ in _PROBES]
        self.probe_s = 0.0
        self._turn = 0
        self._busy = False
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            kind = self._turn % len(_PROBES)
            self._turn += 1
            t0 = time.perf_counter()
            _PROBES[kind][0]()
            dt = time.perf_counter() - t0
            self.samples[kind].append(dt)
            self.probe_s += dt
        finally:
            self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self) -> tuple[float, float]:
        """A timestamp with the probe time spent so far; subtracting
        two gives the work's own seconds (per-query latencies)."""
        return time.perf_counter(), self.probe_s

    def _scale(self, counts: list[int]) -> float:
        """Reference-over-measured speed over the samples taken since
        ``counts`` (per kind), or over all samples when too few."""
        fresh = [kind[n:] for kind, n in zip(self.samples, counts)]
        if min(len(f) for f in fresh) < MIN_SAMPLES:
            fresh = self.samples
        ratios = [ref / statistics.mean(f)
                  for f, (_, ref) in zip(fresh, _PROBES) if f]
        return statistics.mean(ratios) if ratios else 1.0

    @contextlib.contextmanager
    def segment(self) -> Iterator[Segment]:
        """Time the enclosed work; the yielded :class:`Segment` is
        filled in when the block ends."""
        seg = Segment()
        counts = [len(kind) for kind in self.samples]
        t0, p0 = self.now()
        try:
            yield seg
        finally:
            t1, p1 = self.now()
            seg.raw_s = (t1 - t0) - (p1 - p0)
            seg.scale = self._scale(counts)
