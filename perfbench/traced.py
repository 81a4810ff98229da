"""Traced run: one corrleak command in-process, with spans around public entry points.

Usage::

    python3 perfbench/traced.py SPANS_JSON COMMAND [CLI ARGUMENTS...]

Wrappers are installed by name on the public functions bound in
``corrleak.cli``, the public methods of ``WiretapAnalyzer`` (its constructor
is the span ``leakage.analyzer_init``), ``SequenceModel.support_arrays`` and
``leakage.minmax_curves``.  A name that no longer exists is skipped, and the
metrics built on it are reported as absent.  Spans stay in memory and are
written to SPANS_JSON when the command returns.

The module also turns the spans of a traced pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time

from scenarios import ALL_COMMANDS


def _rows(span, args, result):
    span["rows"] = int(result[0].shape[0])


def _candidates(span, args, result):
    span["candidates"] = len(result.candidates)


def _key_space(span, args, result):
    span["key_space"] = math.prod(args[0].key_sizes().values())


# Span name -> records a count taken from the call's arguments or result.
ANNOTATE = {
    "seqmodel.support_arrays": _rows,
    "swcodec.joint_decode": _candidates,
    "cipher.measure_security": _key_space,
}


class Tracer:
    """Collects spans: name, start, end, parent span index, recorded counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self.installed: list[str] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else -1}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if annotate is not None:
                try:
                    annotate(span, args, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # the count is reported as absent
            return result

        self.installed.append(name)
        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr, None)
        if fn is not None and inspect.isfunction(fn):
            setattr(owner, attr, self.wrap(fn, name))


def _lookup(module: str, *path: str):
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    for attr in path:
        obj = getattr(obj, attr, None)
        if obj is None:
            return None
    return obj


def install(tracer: Tracer, cli) -> None:
    for attr, fn in list(vars(cli).items()):
        if attr.startswith("_") or not inspect.isfunction(fn):
            continue
        if fn.__module__.startswith("corrleak."):
            tracer.patch(cli, attr, f"{fn.__module__.rsplit('.', 1)[-1]}.{attr}")
    analyzer = _lookup("corrleak.leakage", "WiretapAnalyzer")
    if analyzer is not None:
        tracer.patch(analyzer, "__init__", "leakage.analyzer_init")
        for attr, fn in list(vars(analyzer).items()):
            if not attr.startswith("_") and inspect.isfunction(fn):
                tracer.patch(analyzer, attr, f"leakage.{attr}")
    model = _lookup("corrleak.seqmodel", "SequenceModel")
    if model is not None:
        tracer.patch(model, "support_arrays", "seqmodel.support_arrays")
    leakage = _lookup("corrleak.leakage")
    tracer.patch(leakage, "minmax_curves", "leakage.minmax_curves")


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    start = time.perf_counter()
    cli = importlib.import_module("corrleak.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer, cli)
    code = 1
    try:
        code = cli.main(cli_argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"command": cli_argv[0], "import_s": import_s, "exit": code,
                       "installed": tracer.installed, "spans": tracer.spans}, fh)
    return code


# -- per-layer metrics from the spans of one traced pass ------------------------

def _total(spans: list[dict], name: str) -> float:
    """Inclusive time of the outermost spans called ``name``."""
    def nested(span):
        parent = span["parent"]
        while parent >= 0:
            if spans[parent]["name"] == name:
                return True
            parent = spans[parent]["parent"]
        return False

    return sum(s["end"] - s["start"] for s in spans if s["name"] == name and not nested(s))


def _self(spans: list[dict], match) -> float:
    """Time of the spans whose name satisfies ``match``, minus their direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    return sum(
        s["end"] - s["start"] - child[i] for i, s in enumerate(spans) if match(s["name"])
    )


def _count(spans: list[dict], name: str) -> int:
    return sum(1 for s in spans if s["name"] == name)


def _attr(spans: list[dict], name: str, key: str) -> float | None:
    chosen = [s for s in spans if s["name"] == name]
    if any(key not in s for s in chosen):
        return None
    return sum(s[key] for s in chosen)


def _key_cells(spans: list[dict]) -> float | None:
    """Support rows x key space, summed over measure_security calls."""
    total = 0
    for i, s in enumerate(spans):
        if s["name"] != "cipher.measure_security":
            continue
        if "key_space" not in s:
            return None
        rows = 0
        for t in spans:  # support_arrays spans below this measure_security call
            parent = t["parent"]
            while parent > i:
                parent = spans[parent]["parent"]
            if parent == i and t["name"] == "seqmodel.support_arrays":
                if "rows" not in t:
                    return None
                rows += t["rows"]
        total += rows * s["key_space"]
    return total


# metric -> (unit, span it is built on, how)
LAYER_METRICS = {
    "seqmodel.support_arrays.s": ("s", "seqmodel.support_arrays", "total"),
    "seqmodel.support_arrays.calls": ("count", "seqmodel.support_arrays", "calls"),
    "seqmodel.support_rows": ("count", "seqmodel.support_arrays", "rows"),
    "seqmodel.sequence_summary.s": ("s", "seqmodel.sequence_summary", "total"),
    "seqmodel.sequence_summary.calls": ("count", "seqmodel.sequence_summary", "calls"),
    "swcodec.prototype_condition_report.s": ("s", "swcodec.prototype_condition_report", "total"),
    "swcodec.joint_decode.s": ("s", "swcodec.joint_decode", "total"),
    "swcodec.joint_decode.candidates": ("count", "swcodec.joint_decode", "candidates"),
    "leakage.analyzer_init.self_s": ("s", "leakage.analyzer_init", "self"),
    "leakage.analyzer_init.calls": ("count", "leakage.analyzer_init", "calls"),
    "leakage.pattern_checks.s": ("s", "leakage.pattern_checks", "total"),
    "leakage.pattern_checks.calls": ("count", "leakage.pattern_checks", "calls"),
    "leakage.minmax_oracle.s": ("s", "leakage.minmax_oracle", "total"),
    "leakage.exact_leakage.calls": ("count", "leakage.exact_leakage", "calls"),
    "leakage.bound_report.s": ("s", "leakage.bound_report", "total"),
    "leakage.bound_report.calls": ("count", "leakage.bound_report", "calls"),
    "leakage.minmax_curves.s": ("s", "leakage.minmax_curves", "total"),
    "cipher.measure_security.s": ("s", "cipher.measure_security", "total"),
    "cipher.measure_security.calls": ("count", "cipher.measure_security", "calls"),
    "cipher.key_cells": ("count", "cipher.measure_security", "key_cells"),
}
for _cmd in ALL_COMMANDS:
    # Front-end self time: every span of the cli module, minus the layers below.
    LAYER_METRICS[f"cli.{_cmd}.self_s"] = ("s", "cli.main", "cli_self")


def layer_metrics(records: dict[str, dict]) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics from ``{command: spans record}`` of one traced pass.

    Returns ``({metric: (value, unit)}, absent)``.  A metric whose entry point
    was not installed, or whose count could not be read, is absent; a layer
    installed but not called by this workload reads 0.
    """
    installed = set().union(*(r["installed"] for r in records.values())) if records else set()
    spans_of = {cmd: r["spans"] for cmd, r in records.items()}
    all_spans = []  # spans of all commands; parents re-indexed
    for spans in spans_of.values():
        base = len(all_spans)
        all_spans += [dict(s, parent=s["parent"] + base if s["parent"] >= 0 else -1) for s in spans]
    out, absent = {}, []
    for metric, (unit, span, how) in LAYER_METRICS.items():
        if span not in installed:
            value = None
        elif how == "total":
            value = _total(all_spans, span)
        elif how == "self":
            value = _self(all_spans, lambda name: name == span)
        elif how == "calls":
            value = _count(all_spans, span)
        elif how == "key_cells":
            value = _key_cells(all_spans)
        elif how == "cli_self":
            cmd = metric.split(".")[1]
            value = _self(spans_of[cmd], lambda name: name.startswith("cli.")) if cmd in spans_of else 0.0
        else:
            value = _attr(all_spans, span, how)
        if value is None:
            absent.append(metric)
            value = 0
        out[metric] = (value, unit)
    return out, absent


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
