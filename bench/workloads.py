"""The benchmark's three workloads: seeded operation streams plus checks.

Each workload turns a seed into an endless, reproducible stream of CLI
operations (argument lists for ``hopfq.cli.main``) and knows how to check
one operation's output with the numpy oracle.  The program under test
receives only the generated arguments.

- ``sample-mc``: the paper's Monte-Carlo use, one ``sample 3 10000`` with
  per-sample rows per operation (the size README.md and ROADMAP.md use).
  Large batches through the E pipeline.
- ``check-suites``: the documented self-check ``check --trials 10000``
  (README.md, ROADMAP.md, acceptance criterion 10) per operation, with the
  CLI's default ``--seed``, so every operation has the same input.  Eleven
  batched suites run the algebra kernels at full batch size; three
  scalar-loop suites run the scalar API one state at a time.  Drawing a
  fresh ``--seed`` per operation would make about 4% of operations hit the
  known ``stereographic`` cancellation defect (see README.md), so no run
  could report correct output on the current code.
- ``analyze-docs``: single-state ``analyze`` documents with some
  ``coords`` requests, over a mix of state families that reach every
  branch of classification and of the iterated descent.  Every layer runs
  at batch size 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

import oracle

SAMPLE_COUNT = 10000
CHECK_TRIALS = 10000

#: Probability that an analyze-docs request is ``coords`` rather than ``analyze``.
COORDS_SHARE = 0.15

#: State families of analyze-docs and their shares.
STATE_MIX = (
    ("haar3", 0.30),        # Haar-random 3-qubit states
    ("ghz_w", 0.10),        # GHZ or W, with a random global phase
    ("biseparable", 0.15),  # one qubit times a Haar 2-qubit state, random cut
    ("product", 0.15),      # three Haar qubits: the deepest descent
    ("two_qubit", 0.10),
    ("one_qubit", 0.05),
    ("near_pole", 0.15),    # Haar 3-qubit with |o2|^2 between 1e-18 and 1e-6
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its check needs to know."""

    argv: tuple[str, ...]
    payload: Any = None


@dataclass(frozen=True)
class Workload:
    name: str
    item: str            # what items_per_s counts
    tail_percentile: int  # fixed per workload; see README.md for how many lie beyond it
    warmup_ops: int      # run before timing starts; checked but not timed
    trace_ops: int       # operations in one pass of the traced and untimed runs
    why: str

    def stream(self, seed: int) -> Iterator[Op]:
        return _STREAMS[self.name](seed)

    def verify(self, op: Op, stdout: str) -> int:
        """Work items covered by the output; raises oracle.OracleError."""
        return _VERIFY[self.name](op, stdout)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sample-mc", "states", 75, warmup_ops=1, trace_ops=1,
            why="Monte-Carlo E over Haar states: large batches through the E pipeline",
        ),
        Workload(
            "check-suites", "trials", 75, warmup_ops=1, trace_ops=1,
            why="the documented check --trials 10000: batched kernels plus three scalar-loop suites",
        ),
        Workload(
            "analyze-docs", "docs", 99, warmup_ops=100, trace_ops=200,
            why="single-state documents over all state families: every layer at batch size 1",
        ),
    )
}


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------

def _sub_seeds(seed: int, stream: int) -> Iterator[int]:
    rng = np.random.default_rng([seed, stream])
    while True:
        yield int(rng.integers(2 ** 31))


def _sample_stream(seed: int) -> Iterator[Op]:
    for s in _sub_seeds(seed, 0):
        yield Op(("sample", "3", str(SAMPLE_COUNT), "--seed", str(s)), s)


def _check_stream(seed: int) -> Iterator[Op]:
    del seed  # the documented command, the same input for every seed
    while True:
        yield Op(("check", "--trials", str(CHECK_TRIALS)))


def _haar(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return z / np.linalg.norm(z)


def _family_state(family: str, rng: np.random.Generator) -> np.ndarray:
    if family == "haar3":
        return _haar(rng, 3)
    if family == "ghz_w":
        amps = np.zeros(8, dtype=complex)
        if rng.random() < 0.5:
            amps[[0, 7]] = 1.0 / math.sqrt(2.0)
        else:
            amps[[1, 2, 4]] = 1.0 / math.sqrt(3.0)
        return amps * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    if family == "biseparable":
        single, pair = _haar(rng, 1), _haar(rng, 2).reshape(2, 2)
        cut = int(rng.integers(1, 4))
        cube = np.einsum("a,bc->abc", single, pair)           # qubit 1 separates
        cube = np.moveaxis(cube, 0, cut - 1)                  # move it to position cut
        return cube.reshape(8)
    if family == "product":
        return np.kron(np.kron(_haar(rng, 1), _haar(rng, 1)), _haar(rng, 1))
    if family == "two_qubit":
        return _haar(rng, 2)
    if family == "one_qubit":
        return _haar(rng, 1)
    if family == "near_pole":
        amps = _haar(rng, 3)
        amps[4:] *= 10.0 ** rng.uniform(-9.0, -3.0)   # o2 packs amplitudes 4..7
        return amps / np.linalg.norm(amps)
    raise ValueError(f"unknown state family {family!r}")


def state_spec(amplitudes: np.ndarray) -> str:
    """Literal amplitude spec with round-trip exact floats."""
    return " ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in amplitudes)


def _docs_stream(seed: int) -> Iterator[Op]:
    rng = np.random.default_rng([seed, 2])
    families = [name for name, _ in STATE_MIX]
    shares = [share for _, share in STATE_MIX]
    while True:
        amps = _family_state(families[int(rng.choice(len(families), p=shares))], rng)
        spec = state_spec(amps)
        if rng.random() < COORDS_SHARE:
            cut = int(rng.integers(1, 4)) if amps.shape[0] == 8 else 1
            yield Op(("coords", spec, "--cut", str(cut)), (amps, cut))
        else:
            yield Op(("analyze", spec), (amps, None))


def _verify_docs(op: Op, stdout: str) -> int:
    amps, cut = op.payload
    if op.argv[0] == "coords":
        return oracle.check_coords(stdout, amps, cut)
    return oracle.check_analyze(stdout, amps)


_STREAMS = {
    "sample-mc": _sample_stream,
    "check-suites": _check_stream,
    "analyze-docs": _docs_stream,
}

_VERIFY = {
    "sample-mc": lambda op, out: oracle.check_sample(out, op.payload, SAMPLE_COUNT),
    "check-suites": lambda op, out: oracle.check_suites(out),
    "analyze-docs": _verify_docs,
}
