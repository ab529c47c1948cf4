"""bcsys benchmark: time to verdict on three workloads.

Run from the repository root:

    python3 bench/run.py --workload e-laws --seed 1 --seconds 20 --trace 0

The harness imports bcsys from ``src/`` of the checkout it sits in and
calls its public entry points from one process, with one closed-loop
client (the next job starts when the previous one has its verdict) and
no extra threads. It repeats passes over the workload's job list (see
workloads.py) until ``--seconds`` have passed and at least the
workload's minimum number of passes has run.

Every job's outcome is checked against its known answer (known.json)
and against the golden copy of its report text, exit code and output
document (golden/<workload>.json, written by golden.py at seed 1). A
job that raises or differs counts as failed.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it has
the per-layer metrics, measured by traced passes (tracing.py) that follow
untraced ones, and the spans are written to
``.bench_out/trace-<workload>-seed<seed>.json``. Metric names and units
are read from BENCHMARK.json. All times are seconds at the reference
speed of speed.py.

Exit code 1 without a result means the checkout has no bcsys sources or
no BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from speed import Measurement, SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
TAIL_BEYOND = 10
UNTRACED_PASSES = 3  # at least, before the traced passes of a traced run


@dataclass
class JobResult:
    key: str
    setup: Measurement
    call: Measurement
    outcome: object = None  # workloads.Outcome, None if the job raised
    error: str | None = None

    @property
    def checked(self) -> int:
        return self.outcome.checked if self.outcome else 0

    @property
    def skipped(self) -> int:
        return self.outcome.skipped if self.outcome else 0

    @property
    def setup_s(self) -> float:
        return self.setup.ref_seconds

    @property
    def job_s(self) -> float:
        return self.call.ref_seconds


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> int:
    """Highest whole percentile that leaves at least ``beyond`` of ``n`` samples above it.

    The percentile is interpolated at position (n - 1) * p / 100 of the
    sorted samples, so the samples above it are those past index
    ceil(position); at least ``beyond`` of them remain when the position
    is at most n - 1 - beyond.
    """
    if n < beyond + 2:
        raise ValueError(f"{n} samples leave no percentile with {beyond} beyond it")
    return 100 * (n - 1 - beyond) // (n - 1)


def percentile(values: list[float], p: int) -> float:
    """Linear interpolation at position (n - 1) * p / 100 of the sorted values."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# running


def load_bcsys() -> None:
    """Import bcsys from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "bcsys" / "__init__.py").is_file():
        raise SystemExit(f"error: no bcsys sources under {src}")
    sys.path.insert(0, str(src))
    import bcsys

    if Path(bcsys.__file__).resolve().parent != (src / "bcsys").resolve():
        raise SystemExit(f"error: imported bcsys from {bcsys.__file__}, not {src}")


def run_pass(jobs, known: dict, golden: dict | None, measure, tracer=None, tag: str = "") -> list[JobResult]:
    """Run one pass; ``measure`` is ``SpeedProbe.measure`` or ``plain_measure``.

    ``golden`` is passed on to ``workloads.check``.
    """
    import workloads

    results = []
    for i, job in enumerate(jobs):
        gc.collect()
        if tracer is not None:
            tracer.job = f"{tag}{i} {job.key}"
        args, setup, exc = measure(job.setup)
        value, call, exc = measure(job.call, *args) if exc is None else (None, Measurement(), exc)
        out = error = None
        if exc is None:
            try:
                out = job.outcome(value)
                error = workloads.check(job, out, known, golden)
            except Exception as e:  # a broken result is a failed job
                exc = e
        if exc is not None:
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        results.append(JobResult(job.key, setup, call, out, error))
        args = value = None  # the next job's set-up must not share the heap with this one
    return results


def wall(results: list[JobResult]) -> float:
    """Time to every verdict of one pass, inputs ready: the sum of its job intervals."""
    return sum(r.job_s for r in results)


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def end_to_end(passes: list[list[JobResult]], min_jobs: int) -> tuple[dict, str]:
    times = [r.job_s for p in passes for r in p]
    p = tail_percentile(min_jobs)
    values = {
        "wall_s": statistics.median(wall(res) for res in passes),
        "job_s.p50": statistics.median(times),
        "job_s.tail": percentile(times, p),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(sum(r.setup_s for r in res) for res in passes),
    }
    return values, f"job_s.tail is p{p} of {len(times)} job times"


def ref_per_raw(passes: list[list[JobResult]]) -> float:
    """Reference seconds per second on the clock, over the passes' jobs and set-ups.

    The tracer times with the plain clock, probe interrupts included; this
    ratio scales its seconds to the reference speed of the passes' own
    measurements.
    """
    ms = [m for res in passes for r in res for m in (r.setup, r.call)]
    return sum(m.ref_seconds for m in ms) / sum(m.end - m.start for m in ms)


def per_layer(tracer, traced: list[list[JobResult]], untraced: list[list[JobResult]], names) -> dict:
    n = len(traced)
    scale = ref_per_raw(traced) / n
    self_s = tracer.self_seconds()
    checked = sum(r.checked for r in traced[0])
    skipped = sum(r.skipped for r in traced[0])
    traced_wall = statistics.median(wall(res) for res in traced)
    special = {
        "serialize.bytes_in": tracer.bytes_in / n,
        "serialize.bytes_out": tracer.bytes_out / n,
        "report.checked": checked,
        "report.skipped": skipped,
        "report.checked_ratio": checked / (checked + skipped) if checked + skipped else 0.0,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - statistics.median(wall(res) for res in untraced),
    }
    values = {}
    for name in names:
        base, _, field = name.rpartition(".")
        if name in special:
            values[name] = special[name]
        elif field == "calls":
            values[name] = tracer.calls.get(base, 0) / n
        elif field == "s":
            values[name] = tracer.seconds.get(base, 0.0) * scale
        elif field == "self_s":
            values[name] = self_s.get(base, 0.0) * scale
        else:
            raise ValueError(f"no rule for per-layer metric {name!r}")
    return values


def layer_shares(tracer, traced: list[list[JobResult]]) -> dict[str, float]:
    """Each module's exclusive time as a share of the traced passes (jobs and set-up)."""
    total = sum(m.end - m.start for res in traced for r in res for m in (r.setup, r.call))
    shares = {m: t / total for m, t in tracer.exclusive.items()}
    shares["(harness and untraced)"] = max(0.0, 1.0 - sum(shares.values()))
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def baseline_table(passes: list[list[JobResult]]) -> list[str]:
    by_key: dict[str, list[float]] = {}
    for res in passes:
        for r in res:
            by_key.setdefault(r.key, []).append(r.job_s)
    lines = ["| entry point and input | runs | median s |", "|---|---|---|"]
    for key in sorted(by_key):
        lines.append(f"| `{key}` | {len(by_key[key])} | {statistics.median(by_key[key]):.4f} |")
    return lines


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SystemExit(f"error: no {spec_path}")
    load_bcsys()
    import workloads
    from tracing import Tracer

    ap = argparse.ArgumentParser(description="bcsys benchmark: time to verdict")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    spec = read_json(spec_path)
    known = read_json(HERE / "known.json")
    golden_path = HERE / "golden" / f"{args.workload}.json"
    golden = read_json(golden_path) if golden_path.is_file() else {}
    workdir = OUT_DIR / "work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)

    orders = workloads.job_list(args.workload, args.seed, workdir)
    start = time.perf_counter()
    passes: list[list[JobResult]] = []
    untraced: list[list[JobResult]] = []

    def measure_passes(into, min_passes: int, until: float, tracer=None) -> None:
        while len(into) < min_passes or time.perf_counter() - start < until:
            tag = f"pass{len(into)} job"
            into.append(run_pass(next(orders), known, golden, probe.measure, tracer, tag))

    with SpeedProbe() as probe:
        if args.trace:
            # Untraced passes for the first half of the run give the overhead;
            # traced passes for the second half give the per-layer metrics.
            measure_passes(untraced, UNTRACED_PASSES, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                measure_passes(passes, 1, args.seconds, tracer)
            finally:
                tracer.remove()
        else:
            measure_passes(passes, workloads.MIN_PASSES[args.workload], args.seconds)

    everything = passes + untraced
    attempted = sum(len(res) for res in everything)
    failures = [r for res in everything for r in res if r.error]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes of {len(passes[0])} jobs")
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer(tracer, passes, untraced, names)
        shares = layer_shares(tracer, passes)
        print("layer shares of the traced passes (exclusive time by module):")
        for module, share in shares.items():
            print(f"  {module:24s} {share:6.1%}")
        print(f"dominant layer: {next(iter(shares))}")
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "passes": len(passes),
            "ref_per_raw": ref_per_raw(passes),
            "metrics": values, "shares": shares, "spans": tracer.span_dicts(),
        }), encoding="utf-8")
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        min_jobs = workloads.MIN_PASSES[args.workload] * len(passes[0])
        values, tail_note = end_to_end(passes, min_jobs)
        print("\n".join(baseline_table(passes)))
        print(tail_note)
        measured = statistics.median(sum(r.call.seconds for r in res) for res in passes)
        print(f"wall_s as measured, before scaling to the reference speed: {measured:.6f} s")
    for name in names:
        print(f"{name:36s} {values[name]:14.6f} {units[name]}")
    print(f"jobs_failed_share {len(failures)}/{attempted} = {len(failures) / attempted:.4f}")
    for r in failures[:10]:
        print(f"FAILED {r.key}: {r.error}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
