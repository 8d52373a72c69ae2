"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload factor_paper --seed 1 \\
        --seconds 15 --trace 0

``--workload all`` runs every workload in turn and prints each one's
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the workload is set up several times (``setup_s`` is
the import time plus the median set-up) and then runs passes until
``--seconds`` have elapsed, at least two; the end-to-end metrics are
medians over passes.  The simulated quantities (counted words and
messages, memory peak) must repeat bit for bit from pass to pass.

With ``--trace 1`` each round runs one untraced pass and then one pass
with :mod:`repro.obs` spans on and the layer wrappers of
:mod:`layers` installed; the first traced round also repeats the
set-up traced.  The per-layer metrics come from that first traced
set-up and pass; ``obs.overhead_ratio`` is the median traced over
untraced pass time.  The simulated quantities must agree between the
traced and untraced passes.

Host times (set-up, calls, planning) are scaled to a host of reference
speed by :class:`speed.SpeedSampler`, which times a fixed probe at
regular intervals during the work; single plan lookups are scaled by
:func:`speed.lookup_probe`, timed just before each.

BLAS is pinned to one thread and nothing runs in another process, so
on a small host the numbers measure the program rather than the
scheduler.  The program is imported from ``src/`` of the checkout this
file sits in; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import sys
import tempfile
import time

_START = time.perf_counter()

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Passes a run makes at least, so pass-to-pass repeatability is
#: checked on every run.
MIN_PASSES = 2
#: No new pass starts once a run has measured this long.
MAX_MEASURE_S = 120.0

#: End-to-end metric units.  Every workload reports every one:
#:
#: * ``setup_s`` — import plus the median set-up;
#: * ``pass_s`` — host seconds of one pass of the workload's fixed
#:   sequence;
#: * ``op_p50_ms``, ``op_p95_ms`` — per-operation latency: each pd* or
#:   DAG call (``factor_*``), each PlanService query (``plan_model``);
#: * ``comm_words_per_rank``, ``comm_msgs_per_rank`` — received words
#:   and messages over P, summed over the calls: counted on the
#:   simulated machines (``factor_*``), traced by the sweep
#:   (``plan_model``);
#: * ``mem_peak_ratio`` — largest per-rank peak over the per-rank
#:   memory M: the enforced budget (``factor_auto``), the input share
#:   N^2/P of an unbudgeted machine (``factor_paper``), the planner's
#:   declared peak over the request budget (``plan_model``).
UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "comm_words_per_rank": "words",
    "comm_msgs_per_rank": "msgs",
    "mem_peak_ratio": "ratio",
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="factor_paper, factor_auto, plan_model or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _prepare_imports() -> None:
    """Pin BLAS to one thread and put the checkout's ``src/`` and this
    directory first on the import path."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program sources under {ROOT / 'src'}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))


def _setup(wl, seed: int, workdir: pathlib.Path, sampler):
    """Set the workload up ``wl.setup_reps`` times, each from scratch;
    returns the last state and the median set-up seconds."""
    times = []
    state = None
    for rep in range(wl.setup_reps):
        with sampler.segment() as timed:
            state = wl.setup(seed, workdir / f"setup{rep}")
        times.append(timed.seconds)
    return state, statistics.median(times)


class _Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, attempted: int, failed: int, notes: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.notes += notes

    def add_pass(self, result) -> None:
        self.add(result.attempted, result.failed, result.notes)

    def require_same(self, what: str, first: dict, other: dict) -> None:
        """Count a failure unless the simulated quantities repeat."""
        self.attempted += 1
        if first != other:
            self.failed += 1
            self.notes.append(f"{what}: {other} != {first}")


def _measure(wl, state, seconds: float, sampler,
             tally: _Tally) -> dict[str, float]:
    """Untraced passes until ``seconds`` elapse; median metrics."""
    passes = []
    t_start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
            time.perf_counter() - t_start < min(seconds, MAX_MEASURE_S)):
        passes.append(wl.run_pass(state, sampler))
        tally.add_pass(passes[-1])
        tally.require_same("simulated metrics changed between passes",
                           passes[0].exact, passes[-1].exact)
    tally.add(*wl.final_check(state))
    names = passes[0].values
    out = {name: statistics.median(p.values[name] for p in passes)
           for name in names}
    out.update({name: value for name, value in passes[0].exact.items()
                if name in UNITS})
    out["passes"] = float(len(passes))
    return out


def _measure_traced(layers, wl, state, seed: int, seconds: float,
                    workdir: pathlib.Path, sampler,
                    tally: _Tally) -> dict[str, float]:
    """Rounds of (untraced pass, traced pass); per-layer metrics from
    the first traced set-up and pass."""
    from repro import obs

    ratios = []
    first = None
    scope = None
    t_start = time.perf_counter()
    while not ratios or (
            time.perf_counter() - t_start < min(seconds, MAX_MEASURE_S)):
        with sampler.segment() as plain_pass:
            plain = wl.run_pass(state, sampler)
        before = obs.metrics().snapshot()
        with layers.instrument() as probes:
            obs.enable()
            try:
                if scope is None:
                    state = wl.setup(seed, workdir / "traced")
                with sampler.segment() as traced_pass:
                    traced = wl.run_pass(state, sampler)
            finally:
                obs.disable()
        if scope is None:
            after = obs.metrics().snapshot()
            scope = (probes, layers.fold_spans(obs.spans()),
                     {k: v - before.get(k, 0.0) for k, v in after.items()},
                     traced)
        first = first or plain.exact
        for result in (plain, traced):
            tally.add_pass(result)
            tally.require_same("simulated metrics differ between traced "
                               "and untraced passes", first, result.exact)
        ratios.append(traced_pass.seconds / plain_pass.seconds)
    tally.add(*wl.final_check(state))
    probes, spans, counters, traced = scope
    silent = [name for name in wl.fires if not probes[name].calls]
    tally.add(len(wl.fires), len(silent),
              [f"layer wrapper {name} never fired" for name in silent])
    return layers.per_layer_metrics(
        probes, spans, counters, traced.service, traced.api_counts,
        overhead_ratio=statistics.median(ratios))


def run_one(layers, workloads, sampler, name: str, seed: int,
            seconds: float, trace: bool, import_s: float,
            workdir: pathlib.Path) -> tuple[dict[str, float], _Tally]:
    """Set up and measure one workload; returns its metrics and tally."""
    wl = workloads.WORKLOADS[name]
    tally = _Tally()
    state, setup_s = _setup(wl, seed, workdir, sampler)
    if trace:
        return _measure_traced(layers, wl, state, seed, seconds, workdir,
                               sampler, tally), tally
    metrics = _measure(wl, state, seconds, sampler, tally)
    metrics["setup_s"] = import_s + setup_s
    return metrics, tally


def _report(name: str, metrics: dict[str, float], trace: bool,
            layers, tally: _Tally) -> dict[str, dict]:
    """Print one workload's metrics by name with units; returns them in
    result-line form."""
    units = ({k: unit for k, (unit, _) in layers.PER_LAYER.items()}
             if trace else UNITS)
    out = {}
    print(f"== {name}: attempted {tally.attempted}, failed {tally.failed}")
    for note in tally.notes[:20]:
        print(f"   FAILED: {note}")
    for key, value in metrics.items():
        if key in units:
            print(f"   {key:28s} {value:16.6f} {units[key]}")
            out[key] = {"value": value, "unit": units[key]}
        else:
            print(f"   ({key} = {value:g})")
    return out


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        _prepare_imports()
        import speed
    except (FileNotFoundError, ImportError) as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    workdir = None
    attempted = failed = 0
    result_metrics: dict[str, dict] = {}
    try:
        with speed.SpeedSampler() as sampler:
            before = time.perf_counter()
            with sampler.segment() as imported:
                try:
                    import layers
                    import workloads
                except ImportError as exc:
                    print(f"cannot import the program: {exc}",
                          file=sys.stderr)
                    return 2
            import_s = (before - _START) + imported.seconds
            names = (list(workloads.WORKLOADS) if args.workload == "all"
                     else [args.workload])
            unknown = [n for n in names if n not in workloads.WORKLOADS]
            if unknown:
                print(f"unknown workload {unknown[0]!r}; have "
                      f"{', '.join(workloads.WORKLOADS)} or all",
                      file=sys.stderr)
                return 2
            workdir = pathlib.Path(
                tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
            for name in names:
                metrics, tally = run_one(
                    layers, workloads, sampler, name, args.seed,
                    args.seconds, bool(args.trace), import_s,
                    workdir / name)
                shown = _report(name, metrics, bool(args.trace), layers,
                                tally)
                prefix = f"{name}." if len(names) > 1 else ""
                result_metrics.update({prefix + k: v
                                       for k, v in shown.items()})
                attempted += tally.attempted
                failed += tally.failed
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
