"""Per-layer tracing of pilotsched from outside the package.

`install()` wraps public functions of each module and rebinds every name in
every loaded `pilotsched` module that refers to the original object, because
`cli`, `simulation` and `validation` import functions by name.

Two kinds of wrapper:

  span     records calls, items and self time (its own duration minus the
           durations of the spans it encloses);
  counter  records calls and items only.  Used for functions called tens of
           thousands of times per curve, where timing each call would swamp
           the measurement; their time stays in the enclosing span's self time.

Items are read from each call's result, so they do not depend on how
arguments are passed.  Metric names are `<module>.<function>.<kind>`; a
method or cached property keeps its class name, `__call__` is dropped.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np


def _size(result):
    return np.size(result)


def _first_size(result):
    return np.size(result[0])


def _stream_bytes(result):
    trace, noise, uniforms = result
    return trace.samples.nbytes + noise.nbytes + uniforms.nbytes


# (module, attribute, wrapper kind, items from result, bytes from result)
TARGETS = [
    ("cli", "cmd_goodput_curve", "span", None, None),
    ("cli", "cmd_solve", "span", None, None),
    ("cli", "cmd_sweep_snr", "span", None, None),
    ("cli", "cmd_sweep_mobility", "span", None, None),
    ("cli", "cmd_simulate", "span", None, None),
    ("cli", "cmd_validate", "span", None, None),
    ("link_adaptation", "McsTable.feasibility_thresholds", "span", None, None),
    ("link_adaptation", "build_reward_curve", "span", len, None),
    ("link_adaptation", "expected_goodput", "counter", None, None),
    ("link_adaptation", "LogisticBlerCurve.__call__", "counter", _size, None),
    ("link_adaptation", "max_goodput_array", "span", _first_size, None),
    ("estimation", "sinr_gain", "counter", None, None),
    ("channel", "bessel_j0", "counter", _size, None),
    ("channel", "generate_fading_trace", "span", len, None),
    ("channel", "empirical_autocorrelation", "span", None, None),
    ("scheduler", "index_gamma", "counter", None, None),
    ("scheduler", "solve_threshold", "span", None, None),
    ("scheduler", "brute_force_optimal_period", "span", None, None),
    ("scheduler", "relative_value_iteration", "span", None, None),
    ("simulation", "run_policy", "span", lambda r: r.horizon, None),
    ("simulation", "derive_streams", "span", None, _stream_bytes),
    ("validation", "check_autocorrelation_fidelity", "span", None, None),
    ("validation", "check_orthogonality", "span", None, None),
    ("validation", "check_quadrature_vs_mc", "span", None, None),
    ("validation", "check_scheduler_triangle", "span", None, None),
]


def metric_prefix(module: str, attr: str) -> str:
    return f"{module}.{attr.removesuffix('.__call__')}"


def metric_units() -> dict:
    """Every metric a traced run reports, with its unit."""
    units = {}
    for module, attr, kind, items, nbytes in TARGETS:
        prefix = metric_prefix(module, attr)
        units[f"{prefix}.calls"] = "count"
        if items is not None:
            units[f"{prefix}.items"] = "count"
        if kind == "span":
            units[f"{prefix}.self_s"] = "s"
        if nbytes is not None:
            units[f"{prefix}.bytes"] = "B"
    return units


class Tracer:
    def __init__(self):
        self.totals = defaultdict(float)
        self._child_time = []  # one accumulator per open span

    def span(self, prefix, fn, items, nbytes):
        totals, stack = self.totals, self._child_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                totals[prefix + ".calls"] += 1
                totals[prefix + ".self_s"] += elapsed - children
            if items is not None:
                totals[prefix + ".items"] += items(result)
            if nbytes is not None:
                totals[prefix + ".bytes"] += nbytes(result)
            return result

        return wrapper

    def counter(self, prefix, fn, items, nbytes):
        totals = self.totals

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            totals[prefix + ".calls"] += 1
            result = fn(*args, **kwargs)
            if items is not None:
                totals[prefix + ".items"] += items(result)
            return result

        return wrapper

    def metrics(self) -> dict:
        return {name: float(self.totals.get(name, 0.0)) for name in metric_units()}


def _rebind(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "pilotsched" or name.startswith("pilotsched."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install() -> Tracer:
    """Wrap every target that exists in the loaded package; absent ones report 0."""
    tracer = Tracer()
    for module_name, attr, kind, items, nbytes in TARGETS:
        module = sys.modules.get(f"pilotsched.{module_name}")
        if module is None:
            continue
        wrap = tracer.span if kind == "span" else tracer.counter
        prefix = metric_prefix(module_name, attr)
        if "." in attr:
            cls_name, name = attr.split(".")
            cls = getattr(module, cls_name, None)
            member = vars(cls).get(name) if cls is not None else None
            if isinstance(member, functools.cached_property):
                wrapped = functools.cached_property(wrap(prefix, member.func, items, nbytes))
                wrapped.__set_name__(cls, name)
                setattr(cls, name, wrapped)
            elif member is not None:
                setattr(cls, name, wrap(prefix, member, items, nbytes))
            continue
        original = getattr(module, attr, None)
        if original is not None:
            _rebind(original, wrap(prefix, original, items, nbytes))
    return tracer
