"""Serving benchmark: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload chat --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics (set-up several times, one
untraced pass).  ``--trace 1`` sets up once, runs untraced, traced and
untraced passes over the same inputs, and reports the per-layer metrics
of the traced pass plus the tracing overhead (traced minus the mean of
the untraced passes).  Every pass
re-decodes a fixed sample of finished requests with ``greedy_generate``
on the unsharded variant; any mismatch makes ``correct`` false and the
exit code 1.  The last stdout line is the JSON result; a fuller record
(host fingerprint, inputs digest, per-op table) is written to
``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Pin BLAS before NumPy loads: the two tensor-parallel thread ranks must
# not oversubscribe the cores, and every workload runs under one setting.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
# An untraced run sets up at least SETUP_MIN times and until SETUP_BUDGET_S
# seconds of set-up are spent (at most SETUP_MAX); setup_s is the median.
SETUP_MIN, SETUP_BUDGET_S, SETUP_MAX = 3, 3.0, 9
CHECK_SAMPLE = 4       # finished requests re-decoded per pass
SLICES = 5             # time slices behind the p50 latency figures


def _load_stack() -> None:
    """Make the package under test importable, or fail before any output."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def _p(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


# -- host fingerprint ---------------------------------------------------------
def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint() -> Dict[str, object]:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": int(BLAS_THREADS),
        "git_commit": _git_commit(),
    }


# -- set-up -------------------------------------------------------------------
@dataclass
class Served:
    """Everything one set-up produced for the timed passes."""

    variant: object          # ModelVariant (unsharded; the check's reference)
    model: object            # what the engine serves
    sharded: Optional[object]
    engine: Optional[object]  # consumed by the first untraced pass
    times: Dict[str, float]

    @property
    def context(self):
        """The fast-path context whose ops the profiler records (rank 0)."""
        if self.sharded is not None:
            return self.sharded.executors[0].context
        return self.variant.model.runtime.context

    def close(self) -> None:
        if self.sharded is not None:
            self.sharded.close()


def setup(workload) -> Served:
    import numpy as np

    from repro.models import build_model, get_config
    from repro.parallel import ShardedLlama
    from repro.serving import InferenceEngine, VariantRegistry
    from workloads import ENGINE, MODEL, WEIGHT_SEED, warmup_inputs

    t0 = perf_counter()
    config = get_config(MODEL)
    base = build_model(config, np.random.default_rng(WEIGHT_SEED))
    t1 = perf_counter()
    variant = VariantRegistry(base).get(workload.variant)
    t2 = perf_counter()
    sharded = ShardedLlama(variant.model, workload.tp) if workload.tp > 1 else None
    model = sharded if sharded is not None else variant.model
    t3 = perf_counter()
    warm = InferenceEngine(model, config=ENGINE)
    for prompt, new_tokens in warmup_inputs(config.vocab_size):
        warm.submit(prompt, new_tokens)
    while warm.has_work:
        warm.step()
    del warm
    t4 = perf_counter()
    engine = InferenceEngine(model, config=ENGINE)
    t5 = perf_counter()
    times = {
        "setup.build_s": t1 - t0,
        "setup.variant_s": t2 - t1,
        "setup.shard_s": t3 - t2,
        "setup.warmup_s": t4 - t3,
        "setup_s": t5 - t0,
    }
    return Served(variant, model, sharded, engine, times)


# -- one timed pass -----------------------------------------------------------
@dataclass
class Pass:
    gen: object               # LoadGenerator after the run
    probes: Optional[object]  # Probes (traced pass only)
    checked: int
    mismatched: int


def run_pass(workload, served: Served, inputs, seconds: float, traced: bool) -> Pass:
    from loadgen import LoadGenerator
    from probes import ForwardTimer, Probes
    from repro.serving import InferenceEngine
    from workloads import ENGINE

    probes = None
    if traced:
        engine = InferenceEngine(ForwardTimer(served.model), config=ENGINE)
        probes = Probes(engine, served.context, served.sharded)
    else:
        # The set-up engine serves the first untraced pass; later passes get
        # a fresh one, so no pass inherits another's radix index or counters.
        engine = served.engine or InferenceEngine(served.model, config=ENGINE)
        served.engine = None
    gen = LoadGenerator(engine, on_step=None if probes is None else probes.on_step)
    try:
        if workload.loop == "open":
            gen.run_open(inputs)
        else:
            gen.run_closed(inputs, workload.clients, seconds)
    finally:
        if probes is not None:
            probes.close()
    checked, mismatched = check_outputs(gen, served.variant.model)
    return Pass(gen, probes, checked, mismatched)


def check_outputs(gen, reference) -> tuple:
    """Re-decode the first finished requests alone on the unsharded model;
    the engine's batched, paged (and sharded) outputs must match exactly."""
    import numpy as np

    sample = gen.finished()[:CHECK_SAMPLE]
    mismatched = 0
    for s in sample:
        expect = reference.greedy_generate(s.request.prompt, s.request.max_new_tokens)
        if not np.array_equal(np.asarray(expect).reshape(-1), s.request.tokens):
            mismatched += 1
            print(f"perfbench: output mismatch on request {s.request.request_id}",
                  file=sys.stderr)
    return len(sample), mismatched


# -- metrics ------------------------------------------------------------------
def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _resident_mb() -> float:
    """Resident memory now, after freed heap is handed back to the OS.

    The peak is not steady where rank threads allocate: which buffers glibc
    maps and which it keeps in a heap depends on thread timing, and about
    one tp=2 set-up in six peaks 47 MB higher.  What stays after a trim is
    the live footprint, steady to well under 1 %."""
    gc.collect()
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)  # glibc only
    if trim is not None:
        trim(0)
    pages = int(Path("/proc/self/statm").read_text().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _slice_median(at, values) -> float:
    """Median over SLICES equal time slices of each slice's median: a host
    hiccup confined to one slice moves the result little."""
    import numpy as np

    at, values = np.asarray(at), np.asarray(values)
    if not len(values):
        return 0.0
    edges = np.linspace(0.0, at.max(), SLICES + 1)
    edges[-1] = np.inf
    medians = [
        np.median(values[(at >= lo) & (at < hi)])
        for lo, hi in zip(edges, edges[1:])
        if ((at >= lo) & (at < hi)).any()
    ]
    return float(np.median(medians))


def serving_stats(run: Pass, skip: int) -> Dict[str, float]:
    """Latency and throughput of one pass.  The first ``skip`` requests (a
    closed loop's start-up wave, all due at once) are left out of TTFT.
    TTFT is sliced by due time, ITL by the time of the later token."""
    timed = [s for s in run.gen.samples[skip:] if s.token_times]
    ttft = [1e3 * (s.token_times[0] - s.due) for s in timed]
    gaps = [
        (later, 1e3 * (later - earlier))
        for s in run.gen.samples
        for earlier, later in zip(s.token_times, s.token_times[1:])
    ]
    itl = [gap for _, gap in gaps]
    tokens = sum(len(s.token_times) for s in run.gen.samples)
    return {
        "ttft_p50_ms": _slice_median([s.due for s in timed], ttft),
        "ttft_p90_ms": _p(ttft, 90),
        "itl_p50_ms": _slice_median([at for at, _ in gaps], itl),
        "itl_p90_ms": _p(itl, 90),
        "output_tok_s": tokens / run.gen.now if run.gen.now else 0.0,
    }


def _busy_wall_per_token(run: Pass) -> float:
    wall = sum(s.wall_s for s in run.gen.steps)
    tokens = sum(len(s.token_times) for s in run.gen.samples)
    return wall / tokens if tokens else 0.0


def per_layer(run: Pass, bases: List[Pass], served: Served, skip: int) -> Dict[str, float]:
    """The traced pass's per-layer metrics.  ``bases`` are the untraced
    passes over the same inputs before and after it; the tracing overhead
    compares against their mean, which cancels warm-up and linear drift."""
    from workloads import ENGINE

    gen = run.gen
    busy = [s for s in gen.steps if not s.report.idle]
    queue_wait = [
        1e3 * (s.request.first_scheduled_time - s.due)
        for s in gen.samples
        if s.request.first_scheduled_time is not None
    ]
    failed = len(gen.failed()) + run.mismatched
    out: Dict[str, float] = {
        "loadgen.sent": float(len(gen.samples)),
        "loadgen.ok": float(len(gen.finished()) - run.mismatched),
        "loadgen.failed": float(failed),
        "loadgen.lag_p90_ms": 1e3 * _p([s.submitted - s.due for s in gen.samples], 90),
        "engine.step_ms_p50": 1e3 * _p([s.wall_s for s in busy], 50),
        "engine.step_ms_p90": 1e3 * _p([s.wall_s for s in busy], 90),
        "engine.rows_per_step": statistics.fmean(s.report.n_rows for s in busy),
        "engine.budget_use": statistics.fmean(
            (s.report.prefill_tokens + s.report.decode_rows) / ENGINE.token_budget
            for s in busy
        ),
        "engine.queue_wait_ms_p50": _p(queue_wait, 50),
        "engine.queue_wait_ms_p90": _p(queue_wait, 90),
        "engine.preemptions": float(sum(s.request.preemptions for s in gen.samples)),
    }
    prefill_tokens = sum(s.report.prefill_tokens for s in busy)
    out.update(run.probes.metrics(gen.steps, prefill_tokens))
    out.update({k: v for k, v in served.times.items() if k.startswith("setup.")})
    out["mem.weight_mb"] = served.variant.total_bytes / 1e6
    out["mem.peak_rss_mb"] = _peak_rss_mb()
    traced = serving_stats(run, skip)
    untraced = [serving_stats(base, skip) for base in bases]
    untraced_cost = statistics.fmean(_busy_wall_per_token(base) for base in bases)
    out["trace.overhead_frac"] = (
        _busy_wall_per_token(run) / untraced_cost - 1.0 if untraced_cost else 0.0
    )
    for name in ("ttft_p50_ms", "itl_p50_ms", "output_tok_s"):
        out[f"trace.{name}_delta"] = traced[name] - statistics.fmean(u[name] for u in untraced)
    return out


def declared_units(key: str) -> Dict[str, str]:
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` metrics
    declared in BENCHMARK.json, in declaration order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


# -- entry point --------------------------------------------------------------
def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    _load_stack()
    from repro.models import get_config
    from workloads import MODEL, WORKLOADS, inputs_digest

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    host = host_fingerprint()
    inputs = workload.inputs(args.seed, args.seconds, get_config(MODEL).vocab_size)
    digest = inputs_digest(inputs)
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} inputs={len(inputs)} sha256={digest[:16]}")
    print("host " + json.dumps(host, sort_keys=True))

    served = None
    ungated: Dict[str, tuple] = {}  # printed and recorded, not in the result
    try:
        if args.trace:
            served = setup(workload)
            before = run_pass(workload, served, inputs, args.seconds, traced=False)
            run = run_pass(workload, served, inputs, args.seconds, traced=True)
            after = run_pass(workload, served, inputs, args.seconds, traced=False)
            passes = [before, after, run]  # the traced pass last: it is reported
            metrics = per_layer(run, [before, after], served, workload.clients)
            key = "per_layer"
        else:
            setup_times: List[float] = []
            while len(setup_times) < SETUP_MIN or (
                sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < SETUP_MAX
            ):
                if served is not None:
                    served.close()
                    served = None
                    gc.collect()
                served = setup(workload)
                setup_times.append(served.times["setup_s"])
                if len(setup_times) == 1:
                    # What a fresh server process holds before traffic.
                    rss_ready = _resident_mb()
            run = run_pass(workload, served, inputs, args.seconds, traced=False)
            passes = [run]
            stats = serving_stats(run, workload.clients)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "rss_ready_mb": rss_ready,
                "output_tok_s": stats["output_tok_s"],
            }
            ungated = {
                "itl_p50_ms": (stats["itl_p50_ms"], "ms"),
                "ttft_p50_ms": (stats["ttft_p50_ms"], "ms"),
                "ttft_p90_ms": (stats["ttft_p90_ms"], "ms"),
                "itl_p90_ms": (stats["itl_p90_ms"], "ms"),
                "peak_rss_mb": (_peak_rss_mb(), "MB"),
            }
            key = "end_to_end"
    finally:
        if served is not None:
            served.close()

    units = declared_units(key)
    if set(units) != set(metrics):
        print(f"perfbench: metrics differ from BENCHMARK.json {key}: "
              f"missing {sorted(set(units) - set(metrics))}, "
              f"undeclared {sorted(set(metrics) - set(units))}", file=sys.stderr)
        return 2
    for name in units:
        print(f"  {name:<28} {metrics[name]:>14.6g} {units[name]}")
    for name, (value, unit) in ungated.items():
        print(f"  {name:<28} {value:>14.6g} {unit} (not gated)")
    mismatched = sum(p.mismatched for p in passes)
    final = passes[-1].gen
    failed = len(final.failed()) + mismatched
    attempted = len(final.finished()) + len(final.failed())
    print(f"  {'failed_frac':<28} {failed / max(attempted, 1):>14.6g} frac "
          f"({failed}/{attempted}; {sum(p.checked for p in passes)} outputs checked, "
          f"{mismatched} mismatched; {final.cancelled_at_end} in flight at window end)")
    busy_s = sum(s.wall_s for s in final.steps)
    print(f"run clock={final.now:.2f}s busy={busy_s:.2f}s ({busy_s / final.now:.0%}) "
          f"steps={len(final.steps)} sent={len(final.samples)} "
          f"tokens={sum(len(s.token_times) for s in final.samples)}")
    result = {
        "correct": mismatched == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, inputs_sha256=digest, host=host, ungated=ungated,
                  samples=[[s.due, s.token_times] for s in final.samples],
                  steps=[s.wall_s for s in final.steps],
                  ops=None if passes[-1].probes is None
                  else passes[-1].probes.profiler.to_dict())
    path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
