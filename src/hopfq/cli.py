"""Command-line front end: analyze, coords, sample, check.

Documents are plain key-value text with two-space indentation, every
number rendered at 12 significant digits, fields in a fixed order, so
identical inputs produce byte-identical output.

Exit codes: 0 ok, 1 invariant failure (check), 2 parse error,
3 contract violation (for example an unnormalized or non-finite state
without --renormalize).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import checks
from .entanglement import classify_cuts, cut_entanglement, reduced_density, separability_2qubit
from .errors import ContractViolationError
from .hopf_maps import base_coords, coords_entanglement, descend, ratio_coeffs, state_coords
from .qubit_states import (
    CUTS,
    PureState,
    cut_stack,
    format_amplitudes,
    format_number as _fmt,
    haar_amplitudes,
    matrix_minors,
    pack_coeffs,
    parse_amplitudes,
)
from .tolerances import CLI_NORM_ACCEPT, SEPARABILITY_TOL

EXIT_OK = 0
EXIT_INVARIANT_FAILURE = 1
EXIT_PARSE_ERROR = 2
EXIT_CONTRACT_VIOLATION = 3

#: States per block of ``sample``; blocks keep its memory flat in the count.
SAMPLE_BLOCK = 1024


def _fmt_vec(values) -> str:
    return " ".join(_fmt(float(v)) for v in values)


def _fmt_labeled_coords(coords) -> str:
    return " ".join(f"X{i + 1}={_fmt(float(v))}" for i, v in enumerate(coords))


def _load_state(spec: str, renormalize: bool) -> PureState:
    """Parse a state spec and apply the normalization policy."""
    amps = parse_amplitudes(spec)
    norm_sq = float(np.sum(np.abs(amps) ** 2))
    if not math.isfinite(norm_sq):
        raise ContractViolationError(f"state norm^2 = {norm_sq!r} is not finite")
    if norm_sq == 0.0:
        raise ValueError("state spec has zero norm")
    if abs(norm_sq - 1.0) > CLI_NORM_ACCEPT and not renormalize:
        raise ContractViolationError(
            f"state norm^2 = {norm_sq!r} deviates from 1 beyond {CLI_NORM_ACCEPT}; "
            "pass --renormalize to scale it"
        )
    return PureState(amps / np.sqrt(norm_sq))


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _analyze_three(matrices, coords, tol: float, lines: list[str]) -> None:
    minors = matrix_minors(matrices)
    report = classify_cuts(minors, coords_entanglement(coords), tol)
    lines.append("entanglement:")
    for cut, e in zip(CUTS, report.e_per_cut):
        lines.append(f"  e cut {cut}: {_fmt(e)}")
    lines.append(f"  e avg: {_fmt(report.e_avg)}")
    lines.append(f"  minor measure: {_fmt(report.minor_measure)}")
    lines.append(f"  classification: {report.classification}")
    for cut, res in zip(CUTS, report.residuals_per_cut):
        lines.append(f"  residuals cut {cut}: {_fmt_vec(res)}")
    chain = descend(matrices[0], coords[0], float(np.abs(minors[0]).max()), tol)
    lines.append("chain:")
    for index, stage in enumerate(chain.stages, start=1):
        sep = "yes" if stage.separable else "no"
        lines.append(
            f"  stage {index}: level={stage.level} e={_fmt(stage.e_value)} separable={sep}"
        )
    if chain.bloch_points:
        for index, point in enumerate(chain.bloch_points, start=1):
            lines.append(f"  bloch point {index}: {_fmt_vec(point.coords)}")
    else:
        lines.append("  bloch points: none")


def _analyze_two(state: PureState, coords: np.ndarray, tol: float, lines: list[str]) -> None:
    residual = separability_2qubit(state)
    lines.append("entanglement:")
    lines.append(f"  e: {_fmt(float(coords_entanglement(coords)))}")
    lines.append(f"  residual: {_fmt(residual)}")
    lines.append(f"  separable: {'yes' if residual <= tol else 'no'}")


def cmd_analyze(args: argparse.Namespace) -> int:
    if not 0.0 <= args.tol < math.inf:
        raise ValueError(f"--tol must be finite and non-negative, got {args.tol!r}")
    state = _load_state(args.state, args.renormalize)
    lines = [
        "input:",
        f"  spec: {args.state}",
        f"  n: {state.n}",
        f"  amplitudes: {format_amplitudes(state.amplitudes)}",
    ]
    # Every section, and the classification, reads this one stack.
    matrices = cut_stack(state.amplitudes)
    if state.n == 3:
        keys = density_keys = [f"cut {cut}" for cut in CUTS]
    else:
        keys, density_keys = ["value"], ["first qubit" if state.n == 2 else "qubit"]
    first, second = pack_coeffs(matrices.reshape(len(keys), -1))
    coords = base_coords(first, second)
    lines.append("base:")
    lines += [f"  {key}: {_fmt_labeled_coords(c)}" for key, c in zip(keys, coords)]
    lines.append("h1:")
    lines += [
        f"  {key}: {'infinity' if at_infinity else _fmt_vec(value)}"
        for key, value, at_infinity in zip(keys, *ratio_coeffs(first, second))
    ]
    lines.append("density:")
    rows = zip(density_keys, reduced_density(matrices))
    lines += [f"  {key}: {format_amplitudes(rho.ravel())}" for key, rho in rows]
    if state.n == 3:
        _analyze_three(matrices, coords, args.tol, lines)
    elif state.n == 2:
        _analyze_two(state, coords[0], args.tol, lines)
    print("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# coords
# ---------------------------------------------------------------------------

def cmd_coords(args: argparse.Namespace) -> int:
    state = _load_state(args.state, args.renormalize)
    if state.n < 3 and args.cut != 1:
        raise ContractViolationError(f"--cut {args.cut} is only available for 3-qubit states")
    # The cut's row of the stack that analyze reads.
    coords = state_coords(cut_stack(state.amplitudes)[args.cut - 1].reshape(-1))
    sum_sq = float(coords @ coords)
    if args.csv:
        rows = ["coordinate,value"]
        rows += [f"X{i + 1},{_fmt(float(v))}" for i, v in enumerate(coords)]
        rows.append(f"sum_sq,{_fmt(sum_sq)}")
        print("\n".join(rows))
        return EXIT_OK
    lines = [
        "coordinates:",
        f"  spec: {args.state}",
        f"  n: {state.n}",
        f"  cut: {args.cut}",
    ]
    lines += [f"  X{i + 1}: {_fmt(float(v))}" for i, v in enumerate(coords)]
    lines.append(f"  sum sq: {_fmt(sum_sq)}")
    print("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def cmd_sample(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise ValueError("count must be at least 1")
    if args.histogram < 0:
        raise ValueError("--histogram must be at least 0")
    rng = np.random.default_rng(args.seed)
    values = np.empty(args.count)
    for start in range(0, args.count, SAMPLE_BLOCK):
        block = haar_amplitudes(rng, args.n, min(SAMPLE_BLOCK, args.count - start))
        values[start : start + block.shape[0]] = cut_entanglement(block).mean(axis=-1)
    if args.histogram:
        edges = np.linspace(0.0, 1.0, args.histogram + 1)
        counts, _ = np.histogram(values, bins=edges)
        rows = ["bin_lo,bin_hi,count"]
        rows += [
            f"{_fmt(lo)},{_fmt(hi)},{int(c)}"
            for lo, hi, c in zip(edges[:-1], edges[1:], counts)
        ]
        print("\n".join(rows))
    else:
        rows = ["index,e_avg"]
        rows += [f"{k},{_fmt(v)}" for k, v in enumerate(values)]
        print("\n".join(rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ValueError("trials must be at least 1")
    results = checks.run_all(args.trials, args.seed)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(
            f"suite {r.name}: {r.trials} trials, {r.failures} failures, "
            f"max error {_fmt(r.max_error)}: {status}"
        )
        if not r.passed and r.counterexample:
            print(f"  counterexample: {r.counterexample}")
    if failed:
        print(f"check: FAIL ({len(failed)} of {len(results)} suites failed)")
        return EXIT_INVARIANT_FAILURE
    print(f"check: pass ({len(results)} suites)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfq",
        description=(
            "Analyze 1-3 qubit pure states through the Hopf fibrations: "
            "base coordinates, ratio values, entanglement measures and "
            "separability classification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "state",
            help=(
                "state spec: re,im pairs in basis order, a named constant "
                "(ghz, w, bell00), a basis label like '|010>', or @file"
            ),
        )
        p.add_argument(
            "--renormalize",
            action="store_true",
            help="scale inputs whose norm deviates beyond the acceptance threshold",
        )

    p_analyze = sub.add_parser("analyze", help="full analysis document for a state")
    add_state_options(p_analyze)
    p_analyze.add_argument(
        "--tol", type=float, default=SEPARABILITY_TOL,
        help="separability residual tolerance (default %(default)g)",
    )
    p_analyze.set_defaults(fn=cmd_analyze)

    p_coords = sub.add_parser("coords", help="base coordinates of a state")
    add_state_options(p_coords)
    p_coords.add_argument("--cut", type=int, default=1, choices=(1, 2, 3),
                          help="qubit moved to the base role (3-qubit states)")
    p_coords.add_argument("--csv", action="store_true", help="emit CSV rows")
    p_coords.set_defaults(fn=cmd_coords)

    p_sample = sub.add_parser("sample", help="Monte-Carlo entanglement statistics")
    p_sample.add_argument("n", type=int, choices=(1, 2, 3), help="qubit count")
    p_sample.add_argument("count", type=int, help="number of Haar-random samples")
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--histogram", type=int, default=0, metavar="BINS",
                          help="emit a histogram with this many bins instead of per-sample rows")
    p_sample.set_defaults(fn=cmd_sample)

    p_check = sub.add_parser("check", help="run the invariant self-test suites")
    p_check.add_argument("--trials", type=int, default=2000)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(fn=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ContractViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT_VIOLATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
