"""braidcomm benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one table

Run from the root of a checkout; the package is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  Passes over the workload
repeat while the next one is predicted to end within ``--seconds`` of
the start, set-up included (at least one pass); timings are medians over
passes, scaled to the reference host speed (``hostspeed.py``).  The raw
times, workload-specific figures (claim latency percentiles, moves per
second) and ``failed_ratio`` are printed beside them but not gated.

``--trace 1`` reports the per-layer metrics instead: one untraced pass,
then the same order again with every layer wrapped in spans.  The spans
are written to ``.bench_out/``.  The tracing overhead is the traced
pass's wall time minus the untraced one's; on a noisy host it can come
out negative, so the wrappers' own cost (spans times the cost of one
wrapped no-op call) is reported beside it.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REF_KERNEL_S, Sampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_PROBES_PER_PASS = 4
SETUP_KERNEL_CALLS = 4
# a fresh interpreter importing every entry point the workloads call; it
# samples its host's speed just before and just after the imports, and
# prints how long the samples took
SETUP_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; import hostspeed; "
               "t = time.perf_counter(); hostspeed.kernel(); hostspeed.kernel(); "
               "k = time.perf_counter() - t; "
               "import braidcomm.cli, braidcomm.audit; "
               "from braidcomm import registry, replays; "
               "assert registry.REGISTRY and replays.SCRIPTS; "
               "t = time.perf_counter(); hostspeed.kernel(); hostspeed.kernel(); "
               "print(k + time.perf_counter() - t)")


def setup_probe() -> tuple[float, float]:
    """Set-up time of one fresh interpreter, less its host-speed samples:
    raw, and scaled to the reference host speed by those samples."""
    t0 = time.perf_counter()
    # a pipe, not DEVNULL: run() then returns at the child's exit, where
    # a wait with a timeout would poll it in steps of up to 50 ms
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE)],
                          check=True, timeout=120, stdout=subprocess.PIPE, text=True)
    kernel_s = float(proc.stdout)
    raw_s = time.perf_counter() - t0 - kernel_s
    return raw_s, raw_s * REF_KERNEL_S * SETUP_KERNEL_CALLS / kernel_s


def run_untraced(workload, rng: random.Random, seconds: float):
    """Passes while the next one is predicted to end within the budget.

    Set-up probes run before every pass, so that ``setup_s`` and ``wall_s``
    sample the host over the same stretch of time.  The host is sampled
    during each pass; the workload's clock leaves the samples out."""
    sampler = Sampler()
    workload.clock = sampler.clock
    t_start = time.perf_counter()
    passes, spans, setups = [], [], []
    while True:
        t0 = time.perf_counter()
        setups += [setup_probe() for _ in range(SETUP_PROBES_PER_PASS)]
        k0, n0 = sampler.kernel_s, sampler.calls
        with sampler:
            p = workload.run_pass(workload.order(rng))
        p.kernel_s, p.kernel_calls = sampler.kernel_s - k0, sampler.calls - n0
        passes.append(p)
        spans.append(time.perf_counter() - t0)
        if time.perf_counter() - t_start + statistics.median(spans) > seconds:
            return passes, setups


def end_to_end(passes, setups) -> dict[str, float]:
    """The gated metrics.  Times are at the reference host speed: a pass
    scaled by the samples taken during it, a set-up by its own."""
    return {
        "setup_s": statistics.median(ref for _, ref in setups),
        "wall_s": statistics.median(p.ref_wall_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def unscaled(passes, setups) -> dict[str, tuple[float, str]]:
    """The raw times behind the gated ones, printed beside them."""
    return {
        "setup_raw_s": (statistics.median(raw for raw, _ in setups), "s"),
        "wall_raw_s": (statistics.median(p.wall_s for p in passes), "s"),
        "kernel_s": (sum(p.kernel_s for p in passes)
                     / sum(p.kernel_calls for p in passes), "s"),
    }


def run_traced(workload, rng: random.Random, seed: int):
    from tracing import Tracer

    order = workload.order(rng)
    untraced = workload.run_pass(order)
    tracer = Tracer()
    tracer.install()
    try:
        traced = workload.run_pass(order, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics["trace.wall_s"] = traced.wall_s
    metrics["trace.untraced_wall_s"] = untraced.wall_s
    metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    metrics["trace.span_cost_s"] = metrics["trace.spans"] * Tracer.cost_per_span()
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.tsv.gz"
    tracer.write(spans_path)
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    return [untraced, traced], metrics


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from tracing import LAYER_METRICS

    OUT.mkdir(exist_ok=True)
    workload = workloads.load(name, OUT)
    rng = random.Random(seed)
    if trace:
        passes, values = run_traced(workload, rng, seed)
        units = LAYER_METRICS
        extra = {}
    else:
        passes, setups = run_untraced(workload, rng, seconds)
        values = end_to_end(passes, setups)
        units = END_TO_END
        extra = workload.summary(passes) | unscaled(passes, setups)
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{name}: {len(passes)} pass(es), seed {seed}")
    for key, unit in units.items():
        print(f"  {key:<36} {values[key]:>14.6g} {unit}")
    for key, (value, unit) in extra.items():
        print(f"  {key:<36} {value:>14.6g} {unit}  (not gated)")
    print(f"  {'failed_ratio':<36} {len(failures) / attempted:>14.6g} "
          f"({len(failures)} of {attempted} units)")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in a fresh process, one at a time."""
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"{name} exited with status {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    return merged


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "braidcomm" / "__init__.py").is_file():
        print(f"no braidcomm package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import braidcomm

    if Path(braidcomm.__file__).resolve().parent != SRC / "braidcomm":
        print(f"imported braidcomm from {braidcomm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
