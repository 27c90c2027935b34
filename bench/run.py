"""hopfq benchmark: timed, traced and untimed runs of the three workloads.

    python3 bench/run.py --workload sample-mc --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload check-suites --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload analyze-docs --seed 1 --untimed

Run from the root of a source checkout: the program is imported from
``src/hopfq`` there and nowhere else.  Every operation goes in-process
through ``hopfq.cli.main``, closed loop with one client, and every output
is checked against the numpy oracle in ``oracle.py``; a non-zero exit
code or a mismatch counts as a failed operation.

Operation and set-up times are scaled to a reference machine speed
measured by an interleaved calibration loop (see CALIBRATION_REF_S); raw
times are printed alongside.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it give the same numbers as a table and the environment.
Result files (and the spans of a traced run) go to ``.bench_out/``.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is imported, here and in the set-up
# children: the machines this runs on have few cores, shared with others.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import spec
from oracle import OracleError
from tracing import KERNELS, LAYERS, Tracer
from workloads import WORKLOADS, Op, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh interpreters started to time ``import hopfq.cli`` plus
#: ``build_parser()``; the first only warms the bytecode cache.
SETUP_REPEATS = 11
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import hopfq.cli\n"
    "hopfq.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)

#: Workload-specific names of the generic metrics, shown in the table.
ALIASES = {
    "sample-mc": {"items_per_s": "states_per_s"},
    "check-suites": {"items_per_s": "trials_per_s"},
    "analyze-docs": {
        "items_per_s": "docs_per_s", "op_p50_us": "doc_p50_us", "op_tail_us": "doc_p99_us",
    },
}


class Failure(Exception):
    """The benchmark cannot run here (for example: no program to run)."""


# ---------------------------------------------------------------------------
# Running operations
# ---------------------------------------------------------------------------

def invoke(call, argv: tuple[str, ...]) -> tuple[int, str, float]:
    """Run one CLI operation with captured output: (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = call(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an operation that raises is a failed operation
            code = -1
            print(f"bench: {' '.join(argv)[:60]} raised {exc!r}", file=sys.__stderr__)
        seconds = perf_counter() - start
    return code, out.getvalue(), seconds


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, op: Op, code: int, stdout: str) -> int | None:
        """Check one operation's output: its work items, or None if it failed."""
        self.attempted += 1
        try:
            if code != 0:
                raise OracleError(f"exit code {code}")
            return self.workload.verify(op, stdout)
        except OracleError as exc:
            self.fail(f"{' '.join(op.argv)[:60]}: {exc}")
            return None

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(reason)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# Machine-speed calibration
# ---------------------------------------------------------------------------

#: Shared machines change speed by up to 2x, for a fraction of a second up
#: to minutes at a time, which no run length averages out.  A fixed piece
#: of work shaped like hopfq's per-state path but written without hopfq
#: (``calibration_loop``) is timed between operations, for about
#: CALIBRATION_SHARE of the wall time, at least every CALIBRATE_EVERY_S.
#: Each operation's time is scaled by CALIBRATION_REF_S over the mean loop
#: time from CALIBRATE_HALF_WINDOW_S before it starts to
#: CALIBRATE_HALF_WINDOW_S after it ends, so the end-to-end times read as on
#: a machine where the loop takes CALIBRATION_REF_S (the typical loop time
#: on the 2-core Xeon VM the benchmark was tuned on).  Each set-up time is
#: scaled the same way by the median of SETUP_CALIBRATIONS loops just before
#: and of as many just after it.  Raw times are printed alongside.
CALIBRATION_REF_S = 0.01
CALIBRATION_SHARE = 0.1
CALIBRATE_EVERY_S = 0.2
CALIBRATE_HALF_WINDOW_S = 0.5
SETUP_CALIBRATIONS = 3

_TENSOR = np.random.default_rng(0).standard_normal((8, 8, 8))


class _Value:
    """Small read-only value object, like the library's."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs) -> None:
        arr = np.array(coeffs, dtype=float)
        arr.setflags(write=False)
        self.coeffs = arr


def calibration_loop() -> float:
    """Seconds taken by the fixed calibration work: Haar draws, cut matrices,
    coefficient packing, an 8x8x8 contraction, value objects, formatting."""
    start = perf_counter()
    rng = np.random.default_rng(1)
    acc = 0.0
    for _ in range(100):
        z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        z = z / np.linalg.norm(z)
        for cut in range(3):
            m = np.moveaxis(z.reshape(2, 2, 2), cut, 0).reshape(2, 4)
            first = np.stack([m[0].real, m[0].imag]).reshape(-1)
            second = np.stack([m[1].real, m[1].imag]).reshape(-1)
            value = _Value(np.einsum("i,j,ijk->k", first, second, _TENSOR))
            acc += float(value.coeffs @ value.coeffs)
        format(acc, ".12g")
    return perf_counter() - start


class Speed:
    """Calibration loop times over a run."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.loops: list[float] = []
        self._last = perf_counter()

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.loops.append(calibration_loop())
            self.times.append(perf_counter())
        self._last = self.times[-1]

    def poll(self) -> None:
        """Calibrate for CALIBRATION_SHARE of the time since the last
        calibration, once that is CALIBRATE_EVERY_S or more."""
        since = perf_counter() - self._last
        if since >= CALIBRATE_EVERY_S:
            self.sample(max(1, round(CALIBRATION_SHARE * since / CALIBRATION_REF_S)))

    def scale(self, start: float, end: float) -> float:
        """Factor for an operation that ran from ``start`` to ``end``."""
        times = np.asarray(self.times)
        lo = int(np.searchsorted(times, start - CALIBRATE_HALF_WINDOW_S))
        hi = int(np.searchsorted(times, end + CALIBRATE_HALF_WINDOW_S))
        if hi <= lo:  # no sample in the window: the nearest one
            lo = max(0, min(lo, len(times) - 1))
            hi = lo + 1
        return CALIBRATION_REF_S / float(np.mean(self.loops[lo:hi]))


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def _loop_median() -> float:
    return statistics.median(calibration_loop() for _ in range(SETUP_CALIBRATIONS))


def measure_setup() -> tuple[list[float], list[float]]:
    """(raw, scaled) seconds for import hopfq.cli + build_parser() in fresh
    interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    raw, scaled = [], []
    for attempt in range(SETUP_REPEATS + 1):
        before = _loop_median()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise Failure(f"set-up interpreter failed: {proc.stderr.strip()[-300:]}")
        after = _loop_median()
        if attempt:  # the first one only warms the bytecode cache
            raw.append(float(proc.stdout))
            scaled.append(raw[-1] * 2.0 * CALIBRATION_REF_S / (before + after))
    return raw, scaled


def timed_run(workload: Workload, main, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    setup_raw, setup = measure_setup()
    speed = Speed()
    stream = workload.stream(seed)
    tally = Tally(workload)
    for op in itertools.islice(stream, workload.warmup_ops):
        tally.record(op, *invoke(main, op.argv)[:2])
    starts, raw, items = [], [], 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        speed.poll()
        op = next(stream)
        start = perf_counter()
        code, stdout, elapsed = invoke(main, op.argv)
        done = tally.record(op, code, stdout)
        if done is not None:
            starts.append(start)
            raw.append(elapsed)
            items += done
    speed.poll()
    if not raw:
        raise Failure("no operation succeeded")
    lat = [t * speed.scale(at, at + t) for t, at in zip(raw, starts)]
    tail = workload.tail_percentile
    metrics = {
        "items_per_s": items / sum(lat),
        "op_p50_us": statistics.median(lat) * 1e6,
        "op_tail_us": percentile(lat, tail) * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }
    detail = {
        "ops_timed": len(lat),
        "items": items,
        "tail_percentile": tail,
        "samples_beyond_tail": sum(1 for x in lat if x > percentile(lat, tail)),
        "raw": {
            "items_per_s": items / sum(raw),
            "op_p50_us": statistics.median(raw) * 1e6,
            "op_tail_us": percentile(raw, tail) * 1e6,
            "setup_s": statistics.median(setup_raw),
        },
        "calibration_loop_s": {
            "mean": statistics.mean(speed.loops),
            "median": statistics.median(speed.loops),
            "min": min(speed.loops),
            "max": max(speed.loops),
            "count": len(speed.loops),
        },
    }
    return metrics, tally, detail


def _run_pass(ops: list[Op], main, tally: Tally, tracer: Tracer | None = None):
    """One pass over ``ops``: (seconds inside the CLI, work items, outputs)."""
    busy, items, outputs = 0.0, 0, []
    for index, op in enumerate(ops):
        call = main if tracer is None else (lambda argv, i=index: tracer.request(i, main, argv))
        code, stdout, elapsed = invoke(call, op.argv)
        items += tally.record(op, code, stdout) or 0
        busy += elapsed
        outputs.append(stdout)
    return busy, items, outputs


def traced_run(workload: Workload, main, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    """Alternate untraced and traced passes over a fixed operation list.

    Counters are per pass and must repeat exactly in every pass; times are
    means over the traced passes.  The overhead ratio is the median traced
    pass time over the median untraced one.
    """
    ops = list(itertools.islice(workload.stream(seed), workload.trace_ops))
    tally = Tally(workload)
    _, items, reference = _run_pass(ops, main, tally)      # warm-up
    deadline = perf_counter() + seconds
    plain, traced, passes = [], [], []
    while not passes or perf_counter() < deadline:
        plain.append(_run_pass(ops, main, tally)[0])
        with Tracer() as tracer:
            busy, _, outputs = _run_pass(ops, main, tally, tracer)
        traced.append(busy)
        passes.append(tracer.stats)
        for op, got, want in zip(ops, outputs, reference):
            if got != want:
                tally.fail(f"{' '.join(op.argv)[:60]}: output changed under tracing")
    counts = [{k: (s.calls, s.rows, s.ops, s.bytes) for k, s in stats.items()} for stats in passes]
    if any(c != counts[0] for c in counts):
        tally.fail("call counts differ between passes of the same operations")
    if tracer.missing:  # a renamed or moved layer function must not read as 0
        tally.fail(f"layer functions not found: {', '.join(tracer.missing)}")
    tracer.write_spans(OUT / f"spans-{workload.name}-seed{seed}.jsonl")

    stats = passes[0]
    n = len(passes)
    metrics: dict[str, float] = {}
    for layer, names in LAYERS.items():
        for name in names:
            key = f"{layer}.{name}"
            self_s = sum(p[key].self_s for p in passes if key in p) / n
            if layer == "checks":
                metrics[f"{key}.self_s"] = self_s
                continue
            stat = stats.get(key)
            metrics[f"{key}.calls"] = stat.calls if stat else 0
            if key in KERNELS:
                metrics[f"{key}.rows"] = stat.rows if stat else 0
            metrics[f"{key}.self_s"] = self_s
            metrics[f"{key}.total_s"] = sum(p[key].total_s for p in passes if key in p) / n
    mul = stats.get(spec.MUL)
    metrics[f"{spec.MUL}.rows_per_call"] = mul.rows / mul.calls if mul else 0.0
    metrics[f"{spec.MUL}.ops_computed"] = mul.ops if mul else 0
    metrics[f"{spec.MUL}.bytes_computed"] = mul.bytes if mul else 0
    metrics["hopf_maps.hopf_base.calls_per_doc"] = (
        metrics["hopf_maps.hopf_base.calls"] / len(ops)
    )
    metrics["qubit_states.PureState.calls_per_state"] = (
        metrics["qubit_states.PureState.calls"] / items if items else 0.0
    )
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    detail = {"passes": n, "ops_per_pass": len(ops), "items_per_pass": items,
              "not_found": tracer.missing}
    return metrics, tally, detail


def untimed_run(workload: Workload, main, seed: int) -> tuple[dict, Tally, dict]:
    ops = list(itertools.islice(workload.stream(seed), workload.trace_ops))
    tally = Tally(workload)
    _run_pass(ops, main, tally)
    return {}, tally, {"ops": len(ops)}


# ---------------------------------------------------------------------------
# Environment and output
# ---------------------------------------------------------------------------

def load_program():
    """Import hopfq.cli from this checkout's src/ and nowhere else."""
    if not (SRC / "hopfq" / "cli.py").is_file():
        raise Failure(f"no program to benchmark: {SRC / 'hopfq' / 'cli.py'} is missing")
    sys.path.insert(0, str(SRC))
    import hopfq.cli

    if Path(hopfq.cli.__file__).resolve().parent != (SRC / "hopfq").resolve():
        raise Failure(f"imported hopfq from {hopfq.cli.__file__}, not from {SRC}")
    return hopfq.cli.main


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"
    except (TypeError, KeyError):
        return "unknown"


def _commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hopfq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _units() -> dict[str, str]:
    units = {name: unit for name, unit, _, _ in spec.END_TO_END}
    units.update({name: unit for name, unit, _ in spec.per_layer()})
    return units


def report(workload: Workload, args, metrics: dict, tally: Tally, detail: dict) -> dict:
    """Print the table and return the result object."""
    units = _units()
    aliases = ALIASES[workload.name]
    print(f"workload {workload.name} ({workload.item}), seed {args.seed}, "
          f"trace {args.trace}, {json.dumps(detail)}")
    for name, value in metrics.items():
        alias = f"  [{aliases[name]}]" if name in aliases else ""
        shown = f"{value:>18}" if isinstance(value, int) else f"{value:>18.6f}"
        print(f"  {name:<52} {shown} {units[name]}{alias}")
    rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'error_rate':<52} {rate:>18.6f} failed/attempted "
          f"({tally.failed}/{tally.attempted})")
    for line in tally.errors:
        print(f"  failure: {line}")
    env = environment(args)
    print("env " + json.dumps(env))
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({"result": result, "detail": detail, "env": env}, indent=1) + "\n"
    )
    return result


def run_all(args) -> int:
    """Each workload in its own process; a combined table and result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.untimed:
            cmd.append("--untimed")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise Failure(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--untimed", action="store_true",
                        help="run the fixed operation list once, check it, report no timings")
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        cli_main = load_program()
        workload = WORKLOADS[args.workload]
        if args.untimed:
            outcome = untimed_run(workload, cli_main, args.seed)
        elif args.trace:
            outcome = traced_run(workload, cli_main, args.seed, args.seconds)
        else:
            outcome = timed_run(workload, cli_main, args.seed, args.seconds)
        result = report(workload, args, *outcome)
    except Failure as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
