"""Metric definitions: the single source for BENCHMARK.json and the README table."""

from __future__ import annotations

import json
from pathlib import Path

from workloads import WORKLOADS

COMMAND = ["python3", "perfbench/run.py"]
RUN_SECONDS = 50

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("throughput_rps", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

# Per-layer metrics are per traced request, and lower is better for each:
# less time or less work.  Self time is span time minus the spans it
# caused.  Only self times of layers that every workload enters are listed
# here, since the others read 0 ms on every run of some workload; the run
# prints them all (see README.md).
PER_LAYER = [
    ("cli.main.self_ms_per_req", "ms/req"),
    ("cli.parse_matrix.ms_per_req", "ms/req"),
    ("polynomials.poly_gcd.calls", "calls/req"),
    ("polynomials.poly_gcd.self_ms", "ms/req"),
    ("polynomials.RatFunc.init.calls", "calls/req"),
    ("polynomials.det_poly_linear.self_ms", "ms/req"),
    ("polynomials.squarefree_decomposition.self_ms", "ms/req"),
    ("mpmath.polyroots.calls", "calls/req"),
    ("mpmath.polyroots.attempts_per_query", "calls/query"),
    ("linalg.det_exact.calls", "calls/req"),
    ("linalg.det_exact.self_ms", "ms/req"),
    ("linalg.exterior_power.self_ms", "ms/req"),
    ("oracle.enumerate_fixed_points.points", "points/req"),
    ("zeta.char_factors.calls_per_req", "calls/req"),
    ("zeta.lefschetz_zeta.calls_per_req", "calls/req"),
    ("zeta.signs.calls_per_req", "calls/req"),
    ("zeta.signed_count.calls_per_req", "calls/req"),
    ("cli.self_share", "%"),
    ("zeta.self_share", "%"),
    ("linalg.self_share", "%"),
    ("polynomials.self_share", "%"),
    ("oracle.self_share", "%"),
    ("mpmath.self_share", "%"),
    ("trace.overhead_ratio", "ratio"),
]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w.why} for name, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "lower"} for n, u in PER_LAYER
        ],
    }


def write_benchmark_json(root: Path) -> None:
    (root / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
