"""Per-layer measurement for the traced benchmark run.

Two sources feed the per-layer metrics:

* the spans :mod:`repro.obs` already records (``pd.*`` and its
  gate/prep/backend/writeback phases, ``step:*``, ``plan.batch``,
  ``plan.live``, ``atlas.build``, ``cache.get``/``cache.put``,
  ``sweep.task``, ``workload.*``), folded into *self time*: a span's
  duration minus the part of it that its child spans cover;
* wrappers installed by :func:`instrument` around the public functions
  of each layer.  Each wrapper counts calls and inclusive seconds in a
  :class:`Probe`.  Functions called a few hundred times per pass also
  open a ``bench.*`` span, so the fold subtracts their time from the
  program span that called them (``plan.batch`` self time excludes the
  TermBatch evaluation nested in it).

A wrapper replaces the attribute the program looks up at call time: a
class attribute for methods, or the module attribute at the calling
site for a function that callers imported by name (``redistribute`` is
looked up in :mod:`repro.api`, ``conversion_words`` in
:mod:`repro.planner.workload`).  Wrapping the defining module there
would measure nothing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from typing import Iterable, Iterator

from repro import api, obs
from repro.engine.accounting import TermBatch
from repro.kernels import blas
from repro.layouts import BlockCyclicLayout
from repro.machine import Machine, RankStore
from repro.planner import workload as workload_mod
from repro.planner.atlas import PlanAtlas

__all__ = ["Probe", "instrument", "fold_spans", "per_layer_metrics",
           "PER_LAYER"]

_COLLECTIVES = ("bcast", "reduce", "allreduce", "reduce_scatter",
                "scatter", "gather", "allgather")
_KERNELS = ("gemm", "gemmt", "trsm", "getrf", "potrf", "laswp")


@dataclasses.dataclass
class Probe:
    """Calls and inclusive seconds of one wrapped function group.

    Only the outermost call of a group is counted and timed, so an
    ``allreduce`` that calls ``reduce`` and ``bcast`` counts once and
    its time is not added twice.  ``items`` counts work units a wrapper
    reports beyond calls (schedules per TermBatch evaluation).
    """

    calls: int = 0
    seconds: float = 0.0
    items: int = 0
    depth: int = 0


def _wrap(fn, probe: Probe, span: str | None = None, items=None):
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if probe.depth:
            return fn(*args, **kwargs)
        probe.calls += 1
        if items is not None:
            probe.items += items(*args)
        probe.depth += 1
        t0 = clock()
        try:
            if span is None:
                return fn(*args, **kwargs)
            with obs.span(span, cat="bench"):
                return fn(*args, **kwargs)
        finally:
            probe.seconds += clock() - t0
            probe.depth -= 1
    return wrapper


@contextlib.contextmanager
def instrument() -> Iterator[dict[str, Probe]]:
    """Install every layer wrapper for the duration of the block and
    yield the probes by name; the original attributes are restored on
    exit, so untraced passes run the unmodified program."""
    probes = {name: Probe() for name in (
        "machine.send", "machine.collective", "machine.store_put",
        "layouts.owner_rank", "layouts.redistribute",
        "layouts.conversion_words", "kernels", "accounting.evaluate",
        "planner.workload", "atlas.get")}
    sites = [(Machine, "send", probes["machine.send"], None, None),
             (RankStore, "put", probes["machine.store_put"], None, None),
             (BlockCyclicLayout, "owner_rank", probes["layouts.owner_rank"],
              None, None),
             (api, "redistribute", probes["layouts.redistribute"],
              None, None),
             (workload_mod, "conversion_words",
              probes["layouts.conversion_words"], "bench.conversion_words",
              None),
             (TermBatch, "evaluate", probes["accounting.evaluate"],
              "bench.termbatch.evaluate", len),
             (workload_mod, "plan_workload", probes["planner.workload"],
              "bench.plan_workload", None),
             (PlanAtlas, "get", probes["atlas.get"], None, None)]
    sites += [(Machine, name, probes["machine.collective"], None, None)
              for name in _COLLECTIVES]
    sites += [(blas, name, probes["kernels"], None, None)
              for name in _KERNELS]
    saved = [(owner, attr, owner.__dict__[attr])
             for owner, attr, *_ in sites]
    try:
        for owner, attr, probe, span, items in sites:
            setattr(owner, attr, _wrap(getattr(owner, attr), probe,
                                       span=span, items=items))
        yield probes
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


@dataclasses.dataclass
class SpanTotals:
    """Per span name: count, inclusive seconds and self seconds."""

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def fold_spans(records: Iterable[obs.SpanRecord]) -> dict[str, SpanTotals]:
    """Fold span records into per-name totals with self time.

    Spans of one thread nest by time containment.  Walking each
    thread's spans by start time with a stack of open spans finds every
    span's parent; the parent's self time loses the child's duration.
    """
    by_thread: dict[tuple[int, int], list[obs.SpanRecord]] = {}
    for rec in records:
        by_thread.setdefault((rec.pid, rec.tid), []).append(rec)
    out: dict[str, SpanTotals] = {}
    for recs in by_thread.values():
        recs.sort(key=lambda r: (r.ts, -r.dur))
        stack: list[tuple[float, SpanTotals]] = []
        for rec in recs:
            while stack and stack[-1][0] <= rec.ts:
                stack.pop()
            totals = out.setdefault(rec.name, SpanTotals())
            totals.count += 1
            totals.total_s += rec.dur
            totals.self_s += rec.dur
            if stack:
                stack[-1][1].self_s -= rec.dur
            stack.append((rec.ts + rec.dur, totals))
    return out


#: The per-layer metrics of a traced run: name -> (unit, better).  The
#: comments say which end-to-end metric each should move, on which
#: workload.
PER_LAYER = {
    # api: pass_s on factor_paper (prep/writeback are the COSTA
    # share), comm_words_per_rank through adoption; backend dominates
    # factor_auto.  The four phases are inclusive span durations: they
    # partition a pd* call.
    "api.gate_s": ("s", "lower"),
    "api.prep_s": ("s", "lower"),
    "api.backend_s": ("s", "lower"),
    "api.writeback_s": ("s", "lower"),
    "api.reshuffle_words": ("words", "lower"),
    "api.workload_adopted": ("count", "higher"),
    # engine (DistributedBackend): pass_s, mostly on factor_auto.
    "engine.steps": ("count", "lower"),
    "engine.step_s": ("s", "lower"),
    # machine: pass_s on factor_auto.  Coalescing transfers should
    # cut send_calls while comm_msgs_per_rank stays exactly the same.
    "machine.send_calls": ("count", "lower"),
    "machine.send_s": ("s", "lower"),
    "machine.collective_calls": ("count", "lower"),
    "machine.collective_s": ("s", "lower"),
    "machine.store_put_calls": ("count", "lower"),
    "machine.store_put_s": ("s", "lower"),
    # layouts: pass_s on factor_paper; conversion_words_s moves
    # pass_s (its DAG planning) on plan_model.
    "layouts.owner_rank_calls": ("count", "lower"),
    "layouts.owner_rank_s": ("s", "lower"),
    "layouts.redistribute_s": ("s", "lower"),
    "layouts.conversion_words_s": ("s", "lower"),
    # kernels: pass_s, by call count on factor_auto and by flop time
    # on factor_paper.
    "kernels.calls": ("count", "lower"),
    "kernels.s": ("s", "lower"),
    # engine.accounting (TermBatch.evaluate): pass_s on plan_model
    # (its sweep and batched planning).
    "accounting.evaluate_calls": ("count", "lower"),
    "accounting.evaluate_s": ("s", "lower"),
    "accounting.schedules": ("count", "lower"),
    # planner: pass_s on plan_model (batched and DAG planning).
    "planner.candidates": ("count", "lower"),
    "planner.plan_batch_self_s": ("s", "lower"),
    "planner.workload_search_s": ("s", "lower"),
    # planner.service / planner.atlas: LRU hits drive op_p50_ms on
    # plan_model; atlas reads and live plans drive op_p95_ms.
    "service.lru_hits": ("count", "higher"),
    "service.atlas_hits": ("count", "higher"),
    "service.snaps": ("count", "higher"),
    "service.live_plans": ("count", "lower"),
    "service.hit_ratio": ("ratio", "higher"),
    "service.live_s": ("s", "lower"),
    "atlas.get_s": ("s", "lower"),
    # runtime: writes happen in set-up (setup_s), reads move
    # op_p95_ms, executor tasks move pass_s (the sweep) on plan_model.
    "cache.get_s": ("s", "lower"),
    "cache.put_s": ("s", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.misses": ("count", "lower"),
    "executor.task_s": ("s", "lower"),
    # obs: traced pass wall over untraced pass wall.
    "obs.overhead_ratio": ("ratio", "lower"),
}


def per_layer_metrics(probes: dict[str, Probe],
                      spans: dict[str, SpanTotals],
                      counters: dict[str, float],
                      service: dict[str, float],
                      api_counts: dict[str, float],
                      overhead_ratio: float) -> dict[str, float]:
    """Assemble :data:`PER_LAYER` from one traced scope.

    ``counters`` are deltas of the always-on metrics registry,
    ``service`` the serving PlanService's resolution counters (empty
    when the workload serves nothing) and ``api_counts`` what the
    workload read off its api results.  A layer the workload does not
    touch reports zero.
    """
    def inclusive(*names: str) -> float:
        return sum(spans[n].total_s for n in names if n in spans)

    def self_time(prefix: str) -> float:
        return sum(t.self_s for n, t in spans.items()
                   if n.startswith(prefix))

    lookups = service.get("lru_hits", 0) + service.get("lru_misses", 0)
    useful = (service.get("lru_hits", 0) + service.get("atlas_hits", 0)
              + service.get("atlas_snaps", 0))
    return {
        "api.gate_s": inclusive("pd.gate"),
        "api.prep_s": inclusive("pd.prep"),
        "api.backend_s": inclusive("pd.backend"),
        "api.writeback_s": inclusive("pd.writeback"),
        "api.reshuffle_words": api_counts.get("reshuffle_words", 0.0),
        "api.workload_adopted": api_counts.get("workload_adopted", 0.0),
        "engine.steps": float(sum(t.count for n, t in spans.items()
                                  if n.startswith("step:"))),
        "engine.step_s": self_time("step:"),
        "machine.send_calls": float(probes["machine.send"].calls),
        "machine.send_s": probes["machine.send"].seconds,
        "machine.collective_calls":
            float(probes["machine.collective"].calls),
        "machine.collective_s": probes["machine.collective"].seconds,
        "machine.store_put_calls": float(probes["machine.store_put"].calls),
        "machine.store_put_s": probes["machine.store_put"].seconds,
        "layouts.owner_rank_calls":
            float(probes["layouts.owner_rank"].calls),
        "layouts.owner_rank_s": probes["layouts.owner_rank"].seconds,
        "layouts.redistribute_s": probes["layouts.redistribute"].seconds,
        "layouts.conversion_words_s":
            probes["layouts.conversion_words"].seconds,
        "kernels.calls": float(probes["kernels"].calls),
        "kernels.s": probes["kernels"].seconds,
        "accounting.evaluate_calls":
            float(probes["accounting.evaluate"].calls),
        "accounting.evaluate_s": probes["accounting.evaluate"].seconds,
        "accounting.schedules": float(probes["accounting.evaluate"].items),
        "planner.candidates": counters.get("planner.candidates", 0.0),
        "planner.plan_batch_self_s": self_time("plan.batch"),
        "planner.workload_search_s": self_time("bench.plan_workload"),
        "service.lru_hits": float(service.get("lru_hits", 0)),
        "service.atlas_hits": float(service.get("atlas_hits", 0)),
        "service.snaps": float(service.get("atlas_snaps", 0)),
        "service.live_plans": float(service.get("live_plans", 0)),
        "service.hit_ratio": useful / lookups if lookups else 0.0,
        "service.live_s": inclusive("plan.live"),
        "atlas.get_s": probes["atlas.get"].seconds,
        "cache.get_s": inclusive("cache.get"),
        "cache.put_s": inclusive("cache.put"),
        "cache.hits": counters.get("cache.hits", 0.0),
        "cache.misses": counters.get("cache.misses", 0.0),
        "executor.task_s": inclusive("sweep.task"),
        "obs.overhead_ratio": overhead_ratio,
    }
