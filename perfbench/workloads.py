"""The three benchmark workloads.

Each workload is a closed loop with one client: the next call starts
only after the previous one returns.  A workload has a ``setup`` (seeded
inputs, scatter onto simulated machines, atlas build), a ``run_pass``
that makes the fixed sequence of calls once and checks every output,
and a ``final_check`` made once per run.  The program receives only the
inputs generated from the seed.

* ``factor_paper`` — explicit paper-default calls at n=512 on an
  unbudgeted ``Machine(16)``, then the DFT chain through
  ``plan_workload`` + ``run_workload`` at n=256.  Large tiles and a full
  COSTA reshuffle in each direction make layouts, kernels and the api's
  prep/writeback phases a large share of the time.
* ``factor_auto`` — ``impl="auto"`` calls on budget-enforcing machines
  at P=64.  The planner picks v=2..4 tiles, so host time goes to many
  tiny sends, store puts and kernel calls.  The Cholesky call at n=256
  (about 12 s on a 2-core host) is left out to keep a pass short enough
  for two passes per run.
* ``plan_model`` — the closed-form side only (trace sweep, cold batched
  planning, DAG planning, and a seeded stream of service queries); the
  simulator stays idle.  It is the control workload: a simulator
  optimisation must show no change here.
"""

from __future__ import annotations

import dataclasses
import math
import pathlib
import time
from typing import Any, Callable

import numpy as np

from repro.analysis.harness import (
    NODE_MEM_WORDS,
    dft_workload_request,
    sweep_traces,
)
from repro.api import pdgemm, pdgetrf, pdpotrf, run_workload
from repro.layouts import BlockCyclicLayout, ScaLAPACKDescriptor, block_key
from repro.lowerbounds.bounds import (
    cholesky_io_lower_bound,
    lu_io_lower_bound,
    min_required_memory,
)
from repro.machine import Machine, ProcessorGrid2D
from repro.planner import (
    NoFeasiblePlanError,
    PlanAtlas,
    PlanRequest,
    PlanService,
    plan_batch,
    plan_request,
)
from repro.planner import workload as workload_mod
from speed import LOOKUP_REFERENCE_S, SpeedSampler, lookup_probe

__all__ = ["WORKLOADS", "PassResult", "RESIDUAL_TOL"]

#: Largest accepted scaled residual of a factorization or product
#: (measured values are about 2e-15).
RESIDUAL_TOL = 1e-10


@dataclasses.dataclass
class PassResult:
    """One pass of a workload.

    ``values`` holds the end-to-end metrics the pass measured (host
    times and rates); ``exact`` the simulated or planned quantities
    that must repeat bit for bit from pass to pass and between traced
    and untraced passes; ``api_counts`` and ``service`` feed the
    per-layer metrics of a traced pass.
    """

    values: dict[str, float]
    exact: dict[str, float]
    attempted: int
    failed: int
    api_counts: dict[str, float] = dataclasses.field(default_factory=dict)
    service: dict[str, float] = dataclasses.field(default_factory=dict)
    notes: list[str] = dataclasses.field(default_factory=list)


# ----------------------------------------------------------------------
# Shared helpers for the factorization workloads.

def _grid(p: int) -> ProcessorGrid2D:
    rows = math.isqrt(p)
    while p % rows:
        rows -= 1
    return ProcessorGrid2D(rows, p // rows)


@dataclasses.dataclass
class _Operand:
    """A caller-layout distribution: the descriptor handed to the api
    and the equivalent layout the benchmark reads outputs through."""

    desc: ScaLAPACKDescriptor
    layout: BlockCyclicLayout

    @classmethod
    def make(cls, n: int, p: int, mb: int) -> "_Operand":
        grid = _grid(p)
        return cls(ScaLAPACKDescriptor(m=n, n=n, mb=mb, nb=mb,
                                       prows=grid.rows, pcols=grid.cols),
                   BlockCyclicLayout(n, n, mb, mb, grid))


def _gather(machine: Machine, layout: BlockCyclicLayout,
            name: str) -> np.ndarray:
    """Dense copy of a distributed matrix, read rank by rank (outside
    the program's ownership lookups, so the traced counts stay the
    program's own)."""
    out = np.zeros((layout.m, layout.n))
    for rank in range(layout.grid.size):
        store = machine.store(rank)
        for bi, bj in layout.blocks_of_rank(rank):
            rows, cols = layout.block_slice(bi, bj)
            out[rows, cols] = store.get(block_key(name, bi, bj))
    return out


def _rel(diff: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(diff) / np.linalg.norm(ref))


def _lu_residual(a: np.ndarray, packed: np.ndarray,
                 perm: np.ndarray) -> float:
    """``||PA - LU|| / ||A||`` of packed getrf factors."""
    n = a.shape[0]
    lower = np.tril(packed, -1) + np.eye(n)
    return _rel(a[perm] - lower @ np.triu(packed), a)


def _chol_residual(a: np.ndarray, packed: np.ndarray) -> float:
    """``||A - LL^T|| / ||A||``."""
    lower = np.tril(packed)
    return _rel(a - lower @ lower.T, a)


def _gemm_residual(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """``||C - AB|| / ||AB||``."""
    ref = a @ b
    return _rel(c - ref, ref)


def _spd(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n))
    return g @ g.T + n * np.eye(n)


@dataclasses.dataclass
class _Call:
    """One call of a factorization workload.

    Every call runs on a machine of its own, distributed afresh before
    each pass (outside the timed region): the schedules leave working
    tiles in the stores under names that can collide with the caller's
    (``A``, ``B``, ``P``, ``Cr``), so a machine is used for one call
    only.  ``invoke`` makes the call; ``check`` returns the failed
    output checks and the api counts read off the result.
    """

    label: str
    p: int
    mem_words: float | None
    operand: _Operand
    inputs: dict[str, np.ndarray]
    invoke: Callable[[Machine, ScaLAPACKDescriptor], Any]
    check: Callable[[Machine, Any], tuple[list[str], dict[str, float]]]
    machine: Machine | None = None

    def prepare(self) -> None:
        """A fresh machine holding the call's distributed inputs."""
        machine = (Machine(self.p) if self.mem_words is None
                   else Machine(self.p, mem_words=self.mem_words,
                                enforce_memory=True))
        for name, a in self.inputs.items():
            self.operand.layout.scatter_from(machine, name, a)
        self.machine = machine


def _residual_errors(residuals: dict[str, float]) -> list[str]:
    return [f"{what} residual {r:.3e} >= {RESIDUAL_TOL:g}"
            for what, r in residuals.items() if not r < RESIDUAL_TOL]


def _pd_call(label: str, op: str, p: int, mem_words: float | None,
             operand: _Operand, inputs: dict[str, np.ndarray],
             invoke) -> _Call:
    """A pd* call whose packed output is checked against its inputs."""
    layout = operand.layout

    def check(machine: Machine, res) -> tuple[list[str], dict[str, float]]:
        out = _gather(machine, layout, res.out_name)
        a = next(iter(inputs.values()))
        if op == "lu":
            resid = _lu_residual(a, out, res.perm)
        elif op == "cholesky":
            resid = _chol_residual(a, out)
        else:
            resid = _gemm_residual(a, inputs["B"], out)
        return (_residual_errors({op: resid}),
                {"reshuffle_words": res.reshuffle_words})

    return _Call(label, p, mem_words, operand, inputs, invoke, check)


class _FactorWorkload:
    """Shared pass of the factorization workloads: the calls in order,
    each timed alone, counted traffic and memory peak read off each
    call's machine."""

    setup_reps = 5

    def calls(self, rng: np.random.Generator) -> list[_Call]:
        raise NotImplementedError

    def setup(self, seed: int, workdir: pathlib.Path) -> list[_Call]:
        calls = self.calls(np.random.default_rng(seed))
        for call in calls:
            call.prepare()
        return calls

    def run_pass(self, calls: list[_Call],
                 sampler: SpeedSampler) -> PassResult:
        call_s = []
        words = msgs = peak_ratio = 0.0
        failed = 0
        notes = []
        counts: dict[str, float] = {}
        for call in calls:
            machine = call.machine
            with sampler.segment() as timed:
                try:
                    res = call.invoke(machine, call.operand.desc)
                except Exception as exc:  # a failed call is a failed op
                    res, errors = None, [f"{type(exc).__name__}: {exc}"]
            call_s.append(timed.seconds)
            if res is not None:
                errors, got = call.check(machine, res)
                for key, value in got.items():
                    counts[key] = counts.get(key, 0.0) + value
            words += float(machine.stats.recv_words.sum()) / call.p
            msgs += float(machine.stats.recv_msgs.sum()) / call.p
            # An unbudgeted machine's M is the input share N^2/P.
            mem = (machine.mem_words if machine.enforces_memory
                   else min_required_memory(call.operand.layout.m, call.p))
            peak_ratio = max(peak_ratio, float(
                machine.peak_words_per_rank().max() / mem))
            if errors:
                failed += 1
                notes += [f"{call.label}: {e}" for e in errors]
            call.prepare()
        return PassResult(
            values={"pass_s": sum(call_s),
                    "op_p50_ms": float(np.percentile(call_s, 50)) * 1e3,
                    "op_p95_ms": float(np.percentile(call_s, 95)) * 1e3},
            exact={"comm_words_per_rank": words,
                   "comm_msgs_per_rank": msgs,
                   "mem_peak_ratio": peak_ratio},
            attempted=len(calls), failed=failed, api_counts=counts,
            notes=notes)

    def final_check(self, calls: list[_Call]) -> tuple[int, int, list[str]]:
        return 0, 0, []


# ----------------------------------------------------------------------
# factor_paper

class FactorPaper(_FactorWorkload):
    """Explicit paper-default calls on an unbudgeted machine, then the
    DFT chain."""

    name = "factor_paper"
    #: Layer wrappers (see :mod:`layers`) a traced pass must fire.
    fires = ("machine.send", "machine.collective", "machine.store_put",
             "layouts.owner_rank", "layouts.redistribute",
             "layouts.conversion_words", "kernels", "accounting.evaluate",
             "planner.workload")

    N, P, MB = 512, 16, 64
    DFT_N, DFT_MB = 256, 32

    def calls(self, rng: np.random.Generator) -> list[_Call]:
        n, p = self.N, self.P
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        s = _spd(rng, n)
        operand = _Operand.make(n, p, self.MB)

        def call(label, op, inputs, invoke):
            return _pd_call(label, op, p, None, operand, inputs, invoke)

        return [
            call("pdgetrf conflux v=16 c=1", "lu", {"A": a},
                 lambda m, d: pdgetrf(m, "A", d, v=16, c=1)),
            call("pdgetrf conflux v=16 c=2", "lu", {"A": a},
                 lambda m, d: pdgetrf(m, "A", d, v=16, c=2)),
            call("pdgetrf scalapack nb=32", "lu", {"A": a},
                 lambda m, d: pdgetrf(m, "A", d, nb=32, impl="scalapack")),
            call("pdpotrf confchox v=16 c=2", "cholesky", {"S": s},
                 lambda m, d: pdpotrf(m, "S", d, v=16, c=2)),
            call("pdpotrf scalapack nb=32", "cholesky", {"S": s},
                 lambda m, d: pdpotrf(m, "S", d, nb=32, impl="scalapack")),
            call("pdgemm 25d s=64 c=2", "gemm", {"A": a, "B": b},
                 lambda m, d: pdgemm(m, "A", d, "B", d, s=64, c=2)),
            self._dft_chain(rng),
        ]

    def _dft_chain(self, rng: np.random.Generator) -> _Call:
        """The DFT chain, planned jointly and run through
        ``run_workload``."""
        n, p = self.DFT_N, self.P
        inputs = {"A": rng.standard_normal((n, n)),
                  "B": rng.standard_normal((n, n)),
                  "S": _spd(rng, n)}
        operand = _Operand.make(n, p, self.DFT_MB)
        request = dft_workload_request(n, p)

        def invoke(machine: Machine, desc: ScaLAPACKDescriptor):
            plan = workload_mod.plan_workload(request)
            return run_workload(machine, plan,
                                {"A": desc, "B": desc, "S": desc})

        def check(machine: Machine, result):
            out = {name: _gather(machine, operand.layout, name)
                   for name in ("f1", "f2", "lu")}
            k = result.results["k"].lower
            errors = _residual_errors({
                "k": _gemm_residual(inputs["A"], inputs["B"], k),
                "f1": _chol_residual(inputs["S"], out["f1"]),
                "f2": _chol_residual(inputs["S"], out["f2"]),
                "lu": _lu_residual(k, out["lu"], result.results["lu"].perm),
            })
            return errors, {"reshuffle_words": result.reshuffle_words,
                            "workload_adopted": float(len(result.reused))}

        return _Call("dft chain", p, None, operand, inputs, invoke, check)


# ----------------------------------------------------------------------
# factor_auto

class FactorAuto(_FactorWorkload):
    """``impl="auto"`` calls on budget-enforcing machines at P=64."""

    name = "factor_auto"
    fires = ("machine.send", "machine.collective", "machine.store_put",
             "layouts.owner_rank", "layouts.redistribute", "kernels")

    P = 64

    def calls(self, rng: np.random.Generator) -> list[_Call]:
        p = self.P

        def call(op, n, mult, inputs, invoke):
            return _pd_call(f"{op} n={n} auto", op, p, mult * n * n / p,
                            _Operand.make(n, p, n // 16), inputs, invoke)

        n = 128
        lu_in = {"A": rng.standard_normal((n, n))}
        chol_in = {"A": _spd(rng, n)}
        n = 256
        gemm_in = {"A": rng.standard_normal((n, n)),
                   "B": rng.standard_normal((n, n))}
        return [
            call("lu", 128, 16, lu_in,
                 lambda m, d: pdgetrf(m, "A", d, impl="auto")),
            call("cholesky", 128, 16, chol_in,
                 lambda m, d: pdpotrf(m, "A", d, impl="auto")),
            call("gemm", 256, 32, gemm_in,
                 lambda m, d: pdgemm(m, "A", d, "B", d, impl="auto")),
        ]


# ----------------------------------------------------------------------
# plan_model

def _proven_infeasible(request: PlanRequest) -> bool:
    """A budget that cannot hold the N^2/P input words per rank has no
    feasible schedule; only then does a NoFeasiblePlanError count as an
    answer."""
    return min_required_memory(request.n, request.p) >= request.budget


def _plan_fits(plan, request: PlanRequest) -> bool:
    return (plan.problem == request.op and plan.n == request.n
            and plan.nranks == request.p
            and plan.chosen.required_words <= request.budget)


class PlanModel:
    """The closed-form side: sweep, batched planning, DAG planning and
    plan serving."""

    name = "plan_model"
    fires = ("layouts.conversion_words", "accounting.evaluate",
             "planner.workload", "atlas.get")
    setup_reps = 3

    OPS = ("lu", "cholesky", "gemm")
    #: The paper's evaluation plane.
    PLANE = [(n, p) for n in (2 ** k for k in range(11, 19))
             for p in (4, 16, 64, 256, 1024)]
    #: Sweeps per pass: one sweep takes about 0.55 s on a 2-core host,
    #: too short to time alone.
    SWEEP_REPEATS = 4
    DAG_POINTS = ((16384, 1024), (65536, 1024), (131072, 1024))
    #: Rounds of DAG planning per pass (one round is about 0.8 s);
    #: dag_plan_s is the mean round.
    DAG_REPEATS = 3
    #: Atlas lattice: small-N corner of the plane, two budget rungs
    #: (multiples of n^2/P).  Every point is feasible.
    ATLAS_NS = (2048, 4096, 8192, 16384)
    ATLAS_PS = (4, 16, 64, 256, 1024)
    RUNGS = (8, 32)
    #: Off-lattice N, planned live on first sight.
    LIVE_NS = (3072, 6144, 12288)
    LIVE_PS = (16, 64)
    #: Stream length: about 6 s of serving, so the tail covers more than
    #: a moment of the host's speed.
    QUERIES = 60000
    #: Stretches of the stream the tail latency is the median over.
    TAIL_PARTS = 10
    SNAP_SHARE = 0.15
    LIVE_SHARE = 0.02
    ZIPF_A = 1.2

    def lattice(self) -> list[PlanRequest]:
        return [PlanRequest(op, n, p, mult * n * n / p)
                for n in self.ATLAS_NS for p in self.ATLAS_PS
                for mult in self.RUNGS for op in self.OPS]

    def _stream(self, rng: np.random.Generator,
                lattice: list[PlanRequest]) -> list[PlanRequest]:
        """The seeded query stream: Zipf-repeated lattice hits,
        off-lattice budgets between the rungs (they snap to the lower
        rung) and off-lattice N (planned live once, then LRU hits)."""
        live_pool = [PlanRequest(op, n, p, 16 * n * n / p)
                     for n in self.LIVE_NS for p in self.LIVE_PS
                     for op in self.OPS]
        low = [req for req in lattice
               if req.mem_words == self.RUNGS[0] * req.n * req.n / req.p]

        def zipf_picker(pool):
            order = rng.permutation(len(pool))
            return lambda: pool[order[(int(rng.zipf(self.ZIPF_A)) - 1)
                                      % len(pool)]]

        hit, snap_base, live = (zipf_picker(pool)
                                for pool in (lattice, low, live_pool))
        stream = []
        for u in rng.random(self.QUERIES):
            if u < self.LIVE_SHARE:
                stream.append(live())
            elif u < self.LIVE_SHARE + self.SNAP_SHARE:
                base = snap_base()
                mult = rng.uniform(self.RUNGS[0], self.RUNGS[1])
                stream.append(dataclasses.replace(
                    base, mem_words=mult * base.n * base.n / base.p))
            else:
                stream.append(hit())
        return stream

    def setup(self, seed: int, workdir: pathlib.Path) -> dict:
        rng = np.random.default_rng(seed)
        lattice = self.lattice()
        stream = self._stream(rng, lattice)
        atlas = PlanAtlas(workdir / "atlas")
        build = atlas.build(lattice)
        if build.infeasible:
            raise RuntimeError(f"{build.infeasible} atlas lattice points "
                               "are infeasible; the lattice is meant to "
                               "be fully feasible")
        batch = [PlanRequest(op, n, p, NODE_MEM_WORDS)
                 for n, p in self.PLANE for op in self.OPS]
        dags = [dft_workload_request(n, p, NODE_MEM_WORDS)
                for n, p in self.DAG_POINTS]
        return {"atlas": atlas, "lattice": lattice, "stream": stream,
                "batch": batch, "dags": dags}

    def _check_sweep(self, results) -> tuple[int, list[str]]:
        """Every traced LU/Cholesky result must move at least the
        paper's I/O lower bound at the schedule's M; returns the number
        of failed (N, P) cases."""
        bad_cases = set()
        notes = []
        for res in results:
            bound_fn = (lu_io_lower_bound if res.name in ("conflux", "mkl")
                        else cholesky_io_lower_bound)
            bound = bound_fn(res.n, res.nranks, res.mem_words)
            if not res.max_recv_words >= bound:
                bad_cases.add((res.n, res.nranks))
                notes.append(f"{res.name} N={res.n} P={res.nranks}: "
                             f"{res.max_recv_words:.6g} words < bound "
                             f"{bound:.6g}")
        return len(bad_cases), notes

    def run_pass(self, state: dict, sampler: SpeedSampler) -> PassResult:
        failed = 0
        notes: list[str] = []
        with sampler.segment() as sweep:
            for _ in range(self.SWEEP_REPEATS):
                results = sweep_traces(self.PLANE)
        bad, why = self._check_sweep(results)
        failed += bad
        notes += why
        # The traced volume of the last sweep, as the factorization
        # workloads count theirs: received words and messages over P.
        words = sum(res.mean_recv_words for res in results)
        msgs = sum(float(res.comm.recv_msgs.sum()) / res.nranks
                   for res in results)
        checksum = words
        peak_ratio = 0.0

        batch = state["batch"]
        with sampler.segment() as batch_seg:
            plans = plan_batch(batch, strict=False)
        for req, plan in zip(batch, plans):
            ok = (_proven_infeasible(req) if plan is None
                  else _plan_fits(plan, req))
            if not ok:
                failed += 1
                notes.append(f"plan_batch answer for {req.token()} is wrong")
            elif plan is not None:
                checksum += plan.chosen.predicted_words
                # The planner's declared peak over the budget it met.
                peak_ratio = max(peak_ratio,
                                 plan.chosen.required_words / req.budget)

        with sampler.segment() as dag:
            for _ in range(self.DAG_REPEATS):
                dag_plans = [workload_mod.plan_workload(req)
                             for req in state["dags"]]
        for req, plan in zip(state["dags"], dag_plans):
            if not plan.chosen.total_words <= plan.independent.total_words:
                failed += 1
                notes.append(f"joint plan for {req.token()} charges more "
                             "than independent planning")
            checksum += plan.chosen.total_words

        stream = state["stream"]
        service = PlanService(atlas=state["atlas"])
        lat = np.empty(len(stream))
        probe = np.empty(len(stream))
        answers: list[Any] = []
        with sampler.segment() as serve:
            for i, req in enumerate(stream):
                t0 = time.perf_counter()
                lookup_probe()
                t1, p1 = sampler.now()
                try:
                    answer = service.plan(req)
                except NoFeasiblePlanError as exc:
                    answer = exc
                t2, p2 = sampler.now()
                probe[i] = t1 - t0
                lat[i] = (t2 - t1) - (p2 - p1)
                answers.append(answer)
        for req, answer in zip(stream, answers):
            ok = (_proven_infeasible(req)
                  if isinstance(answer, NoFeasiblePlanError)
                  else _plan_fits(answer, req))
            if not ok:
                failed += 1
                notes.append(f"served answer for {req.token()} is wrong")
        stats = service.stats
        cases = self.SWEEP_REPEATS * len(self.PLANE)
        serve_s = float(lat.sum()) * serve.scale
        # Each query in units of the probe timed just before it, so a
        # moment of slow host moves both; the tail is the median over
        # stretches of the stream, so one slow stretch does not set it.
        ref_ms = lat / probe * LOOKUP_REFERENCE_S * 1e3
        tail_ms = np.median([np.percentile(part, 95) for part in
                             np.array_split(ref_ms, self.TAIL_PARTS)])
        return PassResult(
            values={"pass_s": (sweep.seconds + batch_seg.seconds
                               + dag.seconds + serve_s),
                    "op_p50_ms": float(np.median(ref_ms)),
                    "op_p95_ms": float(tail_ms),
                    "sweep_cases_per_s": cases / sweep.seconds,
                    "plan_requests_per_s": len(batch) / batch_seg.seconds,
                    "dag_plan_s": dag.seconds / self.DAG_REPEATS,
                    "serve_s": serve_s,
                    "queries": float(len(stream))},
            exact={"comm_words_per_rank": words,
                   "comm_msgs_per_rank": msgs,
                   "mem_peak_ratio": peak_ratio,
                   "plan_checksum": checksum},
            attempted=(cases + len(batch) + self.DAG_REPEATS * len(dag_plans)
                       + len(stream)),
            failed=failed,
            service={name: getattr(stats, name) for name in (
                "lru_hits", "lru_misses", "atlas_hits", "atlas_snaps",
                "live_plans")},
            notes=notes)

    def final_check(self, state: dict) -> tuple[int, int, list[str]]:
        """Every lattice point must serve a plan bit-identical to
        ``plan_request``."""
        service = PlanService(atlas=state["atlas"])
        lattice = state["lattice"]
        notes = [f"atlas point {req.token()} differs from plan_request"
                 for req in lattice if service.plan(req) != plan_request(req)]
        return len(lattice), len(notes), notes


WORKLOADS = {wl.name: wl for wl in (FactorPaper(), FactorAuto(),
                                    PlanModel())}
