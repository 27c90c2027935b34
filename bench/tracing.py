"""Per-layer tracing of hopfq from outside the library.

``Tracer`` wraps the public functions of each layer in every hopfq module
namespace that binds them (a function imported into three modules is
wrapped in all three, and inside module-level tuples such as
``checks.SUITES``), and wraps ``__init__`` of the value classes so that
every construction is seen.  Each wrapped call records a span
(name, start, end, parent, request) in memory.  Self time is a span's
duration minus the time its child spans cover.  Leaving the ``with``
block puts every original object back.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

#: Traced callables per layer module.  Classes are traced through __init__.
LAYERS = {
    "division_algebra": ("mul_coeffs", "conj_coeffs", "HyperComplex", "exp_imaginary"),
    "qubit_states": (
        "PureState", "pack_coeffs", "unpack_coeffs", "cut_state", "cut_minors",
        "parse_amplitudes", "format_number",
    ),
    "hopf_maps": (
        "base_coords", "hopf_base", "BasePoint", "h1_value", "stereographic",
        "hopf_inverse", "iterated_analysis", "fiber_decompose",
    ),
    "entanglement": (
        "classify", "e_avg", "e_hopf", "minor_measure", "partial_trace_keep",
        "separability_2qubit",
    ),
    "checks": tuple(
        "suite_" + name
        for name in (
            "algebra_cycle_table", "norm_multiplicativity", "alternativity",
            "conj_anti_automorphism", "inverse_cancellation", "base_normalization",
            "stereographic_h1_consistency", "fibration_round_trip", "fiber_invariance",
            "gauge_invariance", "separability_sensitivity", "e_equals_4_det_rho",
            "minor_measure_equals_e_avg", "bloch_ball_containment",
        )
    ),
    "cli": ("cmd_sample", "cmd_check", "cmd_analyze", "cmd_coords"),
}

#: Batched kernels: their ``rows`` counter is the product of the leading
#: axes of the first argument (of both arguments, broadcast, for mul_coeffs).
KERNELS = {
    "division_algebra.mul_coeffs", "division_algebra.conj_coeffs",
    "qubit_states.pack_coeffs", "qubit_states.unpack_coeffs", "hopf_maps.base_coords",
}


def _leading(shape: tuple[int, ...]) -> int:
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _rows(key: str, args: tuple) -> int:
    if key == "division_algebra.mul_coeffs":
        return _leading(np.broadcast_shapes(np.shape(args[0]), np.shape(args[1])))
    return _leading(np.shape(args[0]))


class Stat:
    __slots__ = ("calls", "rows", "self_s", "total_s", "ops", "bytes")

    def __init__(self) -> None:
        self.calls = self.rows = self.ops = self.bytes = 0
        self.self_s = self.total_s = 0.0


class Tracer:
    """Context manager that traces every callable named in LAYERS."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.missing: list[str] = []
        self._child: list[float] = []
        self._stack: list[int] = []
        self._request = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _call(self, key: str, fn, args, kwargs):
        spans, child, stack = self.spans, self._child, self._stack
        index = len(spans)
        spans.append(None)
        child.append(0.0)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            spans[index] = (key, start, end, parent, self._request)
            if parent >= 0:
                child[parent] += duration
            stat = self.stats[key]
            stat.calls += 1
            stat.total_s += duration
            stat.self_s += duration - child[index]
            if key in KERNELS:
                rows = _rows(key, args)
                stat.rows += rows
                if key == "division_algebra.mul_coeffs":
                    dim = np.shape(args[0])[-1]
                    stat.ops += rows * dim * dim      # nonzeros of the structure tensor
                    stat.bytes += rows * 3 * dim * 8  # two float64 inputs, one output

    def request(self, index: int, fn, *args):
        """Run ``fn(*args)`` as the root span of request ``index``."""
        self._request = index
        return self._call("request", fn, args, {})

    def _wrap(self, key: str, fn):
        call = self._call

        def traced(*args, **kwargs):
            return call(key, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if name == "hopfq" or name.startswith("hopfq.")
        }
        wrapped: dict[int, object] = {}
        try:
            for layer, names in LAYERS.items():
                home = modules.get(f"hopfq.{layer}")
                for name in names:
                    key = f"{layer}.{name}"
                    target = getattr(home, name, None)
                    if isinstance(target, type) and "__init__" in vars(target):
                        self._set(target, "__init__", self._wrap(key, vars(target)["__init__"]))
                    elif callable(target) and not isinstance(target, type):
                        wrapped[id(target)] = self._wrap(key, target)
                    else:
                        self.missing.append(key)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    new = _substitute(value, wrapped)
                    if new is not value:
                        self._set(mod, attr, new)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _set(self, holder, attr: str, value) -> None:
        self._saved.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)

    def _restore(self) -> None:
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    # -- output --------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """Write the recorded spans as JSON lines, times relative to the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent, "request": request,
                }) + "\n")


def _substitute(value, wrapped: dict[int, object]):
    """``value`` with traced callables swapped in, looking into tuples."""
    if id(value) in wrapped:
        return wrapped[id(value)]
    if type(value) is tuple:
        items = tuple(_substitute(v, wrapped) for v in value)
        if any(a is not b for a, b in zip(items, value)):
            return items
    return value
