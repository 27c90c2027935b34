"""Metric definitions of the benchmark; run it to rewrite BENCHMARK.json.

    python3 bench/spec.py

The run command, workloads and metric names in BENCHMARK.json all come
from here, so the file and the numbers ``run.py`` prints cannot drift
apart.
"""

from __future__ import annotations

import json
from pathlib import Path

from tracing import KERNELS, LAYERS
from workloads import WORKLOADS

RUN_SECONDS = 30

#: (name, unit, better, bound).  The same five metrics are measured on every
#: workload; ``items`` are states (sample-mc), trials counted from the
#: per-suite lines of ``check`` (check-suites) or documents (analyze-docs).
#: Largest run-to-run spread (quartile distance over median, ten seeds, two
#: sets, over the three workloads) seen on a 2-core Xeon VM: 8.7% for
#: items_per_s, 8.1% for op_p50_us, 10.4% for op_tail_us, 0.4% for
#: peak_rss_mb, 8.2% for setup_s, which has the largest bound.
END_TO_END = (
    ("items_per_s", "1/s", "higher", 0.15),
    ("op_p50_us", "us", "lower", 0.2),
    ("op_tail_us", "us", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

MUL = "division_algebra.mul_coeffs"


def per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    for layer, names in LAYERS.items():
        for name in names:
            key = f"{layer}.{name}"
            if layer == "checks":
                out.append((f"{key}.self_s", "s", "lower"))
                continue
            out.append((f"{key}.calls", "count", "lower"))
            if key in KERNELS:
                out.append((f"{key}.rows", "count", "lower"))
            out.append((f"{key}.self_s", "s", "lower"))
            out.append((f"{key}.total_s", "s", "lower"))
    out += [
        (f"{MUL}.rows_per_call", "rows/call", "higher"),
        (f"{MUL}.ops_computed", "ops", "lower"),
        (f"{MUL}.bytes_computed", "B", "lower"),
        ("hopf_maps.hopf_base.calls_per_doc", "calls/op", "lower"),
        ("qubit_states.PureState.calls_per_state", "calls/item", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return out


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer()],
    }


if __name__ == "__main__":
    target = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    target.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    print(f"wrote {target}")
