"""toralzeta benchmark: seeded closed-loop CLI workloads, verified outputs.

One run:
    python3 perfbench/run.py --workload zeta-counts --seed 1 --seconds 50 --trace 0

Every workload, untraced then traced, followed by rewriting BENCHMARK.json:
    python3 perfbench/run.py --seed 1

A run writes its request stream from the seed in a separate process
(workloads.py), times SETUP_REPEATS set-ups of toralzeta in fresh
interpreters (client.py), half before the loop and half after it, sets
toralzeta up in its own process and sends
the requests one at a time (a closed loop, one client, no threads) to
toralzeta.cli.main with stdout captured.  It stops at the first cycle
boundary after --seconds, or at the end of the stream.  Responses are
verified after the timed loop.  With --trace 1 the loop runs for half of
--seconds, then toralzeta is set up again from a cold import and the same
requests run a second time with every layer's public functions wrapped in
spans.  The last line of stdout is a JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import client
import spec
import workloads
from tracer import LAYERS, Tracer
from verify import Verifier

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPEATS = 11
# used by no tuning run of this benchmark; a claimed gain must also hold on it
HELD_OUT_SEED = 9173


def _child(args: list[str]) -> str:
    """Run a benchmark script in a fresh interpreter; returns its stdout."""
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no message"])[-1]
        raise RuntimeError(f"{Path(args[0]).name} exited with {proc.returncode}: {last}")
    return proc.stdout


def generate(workload: str, seed: int, seconds: float, path: Path) -> float:
    """Write the request stream to path; returns the seconds it took."""
    start = perf_counter()
    _child([str(HERE / "workloads.py"), workload, str(seed), str(seconds), str(path)])
    return perf_counter() - start


def setup_times(dim: int, repeats: int) -> list[float]:
    """Set-ups of toralzeta, each in a fresh interpreter."""
    return [float(_child([str(HERE / "client.py"), str(dim)])) for _ in range(repeats)]


def closed_loop(requests, cycle: int, seconds: float, spool, tracer=None):
    """Send requests back to back until `seconds` pass or the requests run out.

    A timed loop stops only at a cycle boundary, so every run holds whole
    cycles of the workload mix.  Requests come one at a time from the
    stream file and responses go to the spool file as JSON lines, rather
    than stay in memory, so that the peak RSS measures the program and not
    how long the stream is or how many responses a run kept for
    verification.
    """
    latencies = []
    start = now = perf_counter()
    for i, req in enumerate(requests):
        argv = workloads.argv(req)
        if tracer is not None:
            tracer.current_request = i
        began = perf_counter()
        result = client.call(argv)
        now = perf_counter()
        latencies.append(now - began)
        spool.write(json.dumps(result) + "\n")
        if (i + 1) % cycle == 0 and now - start >= seconds:
            break
    return latencies, now - start


def _spooled(path: Path):
    with path.open() as spool:
        for line in spool:
            yield tuple(json.loads(line))


def tail(latencies):
    """The highest percentile with at least ten samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(10, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def verify(pairs):
    """Failure reasons, counted, over (request, response) pairs."""
    oracle = sys.modules["toralzeta.oracle"]
    verifier = Verifier(oracle, sys.modules["toralzeta.linalg"].IntMatrix)
    reasons = Counter()
    for req, (rc, out, error) in pairs:
        reason = error or verifier.check(req, workloads.argv(req), rc, out)
        if reason:
            reasons[f"{req.command}: {reason}"] += 1
    return reasons


# Published names for figures the generic per-function loop produces.
# parse_matrix and polyroots call no traced function, so self time is
# their whole time.
_RENAMED = {
    "cli.main.self_ms": "cli.main.self_ms_per_req",
    "cli.parse_matrix.self_ms": "cli.parse_matrix.ms_per_req",
    "mpmath.polyroots.self_ms": "mpmath.polyroots.ms",
    **{f"zeta.{f}.calls": f"zeta.{f}.calls_per_req"
       for f in ("char_factors", "lefschetz_zeta", "signs", "signed_count")},
}


def layer_metrics(tracer: Tracer, n: int, traced_s: float, untraced_s: float) -> dict:
    """Every per-layer figure, per traced request."""
    summary = tracer.summary()
    out = {}
    for name in tracer.names:
        entry = summary.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = entry["calls"] / n
        out[f"{name}.self_ms"] = 1000 * entry["self_s"] / n
    for old, new in _RENAMED.items():
        out[new] = out.pop(old)
    queries = out["zeta.growth_rate.calls"] + out["zeta.classify.calls"]
    out["mpmath.polyroots.attempts_per_query"] = out["mpmath.polyroots.calls"] / queries if queries else 0.0
    out["oracle.enumerate_fixed_points.points"] = tracer.points / n
    for layer in LAYERS:
        self_s = sum(v["self_s"] for k, v in summary.items() if k.split(".")[0] == layer)
        out[f"{layer}.self_share"] = 100 * self_s / traced_s
    out["trace.overhead_ratio"] = traced_s / untraced_s
    return out


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    load = workloads.WORKLOADS[workload]
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}"
    stream = stem.with_name(stem.name + "-requests.jsonl")
    untraced_spool = stem.with_name(stem.name + "-responses.jsonl")
    traced_spool = stem.with_name(stem.name + "-traced-responses.jsonl")
    try:
        # half the set-up samples now and half after the loop, so that their
        # median spans the run and not one moment of the machine
        setup_samples = setup_times(load.max_dim, SETUP_REPEATS // 2 + 1)
        generate_s = generate(workload, seed, seconds, stream)
        client.set_up(load.max_dim)
        cycle = len(load.slots)
        with untraced_spool.open("w") as spool:
            latencies, elapsed = closed_loop(workloads.read(stream), cycle,
                                             seconds / 2 if trace else seconds, spool)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        n = len(latencies)
        exhausted = n == workloads.stream_length(workload, seconds)

        layers = {}
        if trace:
            # the same requests again, from the same cold state as the untraced pass
            client.purge()
            gc.collect()
            client.set_up(load.max_dim)
            tracer = Tracer()
            tracer.install()
            try:
                with traced_spool.open("w") as spool:
                    _, traced_s = closed_loop(itertools.islice(workloads.read(stream), n), cycle,
                                              math.inf, spool, tracer=tracer)
            finally:
                tracer.uninstall()
            layers = layer_metrics(tracer, n, traced_s, elapsed)

        attempted = list(itertools.islice(workloads.read(stream), n))
        reasons = verify(zip(attempted, _spooled(untraced_spool)))
        if trace:
            differ = sum(1 for a, b in zip(_spooled(untraced_spool), _spooled(traced_spool)) if a != b)
            if differ:
                reasons["traced responses differ from untraced ones"] += differ
        inputs_digest = workloads.digest(stream)
        setup_samples += setup_times(load.max_dim, SETUP_REPEATS // 2)
    finally:
        for path in (stream, untraced_spool, traced_spool):
            path.unlink(missing_ok=True)
    failed = sum(reasons.values())

    tail_s, tail_pct, beyond = tail(latencies)
    report = {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": int(trace),
        "inputs_digest": inputs_digest,
        "stream_exhausted": exhausted,
        "input_properties": workloads.input_properties(attempted),
        "end_to_end": {
            "throughput_rps": n / elapsed,
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "latency_tail_ms": 1000 * tail_s,
            "fail_ratio": failed / n,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
            "generate_s": generate_s,
        },
        "latency_tail": {"percentile": tail_pct, "samples": n, "beyond": beyond},
        "setup_samples_s": setup_samples,
        "latencies_s": latencies,
        "layers": layers,
        "attempted": n,
        "failed": failed,
        "failures": dict(reasons),
    }
    stem.with_suffix(".json").write_text(json.dumps(report, indent=2) + "\n")
    if trace:
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(tracer.spans()))
    return report


_UNITS = {name: unit for name, unit, _, _ in spec.END_TO_END} | {"fail_ratio": "ratio", "generate_s": "s"}
_LAYER_UNITS = dict(spec.PER_LAYER)


def _layer_unit(name: str) -> str:
    if name in _LAYER_UNITS:
        return _LAYER_UNITS[name]
    return "ms/req" if name.endswith(("ms", "_ms")) else "calls/req"


def print_report(report: dict) -> dict:
    """Print every metric with its unit; returns the JSON result object."""
    print(f"workload {report['workload']} seed {report['seed']} "
          f"(held-out seed {report['held_out_seed']}) seconds {report['seconds']} trace {report['trace']}")
    print(f"inputs digest {report['inputs_digest']}")
    print("input properties " + json.dumps(report["input_properties"]))
    if report["stream_exhausted"]:
        print("note: the run reached the end of its request stream before --seconds passed; "
              "raise the workload's seed_rps in workloads.py")
    lt = report["latency_tail"]
    for name, value in report["end_to_end"].items():
        note = f"  (p{lt['percentile']:.2f} of {lt['samples']}, {lt['beyond']} beyond)" if name == "latency_tail_ms" else ""
        print(f"metric {name} {value!r} {_UNITS[name]}{note}")
    for name, value in sorted(report["layers"].items()):
        print(f"layer {name} {value!r} {_layer_unit(name)}")
    for reason, count in report["failures"].items():
        print(f"failure {count} x {reason}")
    if report["trace"]:
        names = [n for n, _ in spec.PER_LAYER]
        metrics = {n: {"value": report["layers"][n], "unit": _layer_unit(n)} for n in names}
    else:
        metrics = {n: {"value": report["end_to_end"][n], "unit": u} for n, u, _, _ in spec.END_TO_END}
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, untraced then traced, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise RuntimeError(f"{workload} trace {trace} exited with {proc.returncode}")
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
    spec.write_benchmark_json(ROOT)
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS),
                        help="run one workload (default: all, untraced and traced)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload is None:
            result = run_all(args.seed, args.seconds)
        else:
            result = print_report(run_one(args.workload, args.seed, args.seconds, bool(args.trace)))
    except (ImportError, RuntimeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
