"""In-memory spans around pervchow's public functions, and per-layer metrics.

``Tracer.install`` replaces each wrapped function in every pervchow module
that binds it (and the CLI handler table) with a wrapper that records a span:
name, start, end, parent, the exception type if one escaped, and optional
attributes computed after the clock stops.  ``uninstall`` puts the originals
back, so untraced runs execute unmodified code.  Each wrapper also times its
own bookkeeping outside the span, so the tracer's cost is measured directly.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter_ns

# span record fields
NAME, START, END, PARENT, ERROR, ATTRS = range(6)

# smith_normal_form inputs are bucketed by their larger side
SNF_BUCKETS = ((4, "le4"), (8, "le8"), (16, "le16"), (24, "le24"), (None, "gt24"))

# the outermost calls of these count as cone product requests
CONE_PRODUCTS = ("cones.intersect", "cones.degree_pairing", "cones.cartier")


def snf_bucket(size):
    for limit, name in SNF_BUCKETS:
        if limit is None or size <= limit:
            return name
    raise AssertionError("unreachable")


def _bits(rows):
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


class Tracer:
    def __init__(self):
        self.spans = []
        self.snf_inputs = set()
        self.active = False  # wrappers record only while this is set
        self.cost_ns = 0  # time the wrappers spent outside the spans they recorded
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """``fn`` recording a span per call; ``after(args, kwargs, result)`` gives attributes."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            entered = perf_counter_ns()
            record = [name, 0, 0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[END] = perf_counter_ns()
                record[ERROR] = type(exc).__name__
                self.cost_ns += record[START] - entered
                raise
            finally:
                stack.pop()
            record[END] = perf_counter_ns()
            if after is not None:
                record[ATTRS] = after(args, kwargs, result)
            self.cost_ns += record[START] - entered + perf_counter_ns() - record[END]
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value):
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def _patch_function(self, fn, name, after=None):
        """Replace ``fn`` wherever a pervchow module binds it."""
        traced = self.wrap(name, fn, after)
        for modname, module in list(sys.modules.items()):
            if modname == "pervchow" or modname.startswith("pervchow."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, traced)

    def _public_functions(self, module):
        return [
            fn
            for attr, fn in vars(module).items()
            if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__
        ]

    # -- installation --------------------------------------------------------

    def install(self):
        from pervchow import abgroup, chow, cli, cocycles, cones, cycles, serialize

        def snf_after(args, kwargs, form):
            matrix = args[0]
            ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
            key = (tuple(tuple(row) for row in matrix), ncols)
            self.snf_inputs.add(key)
            rows = len(form.U)
            cols = len(form.V)
            return {"n": max(rows, cols), "bits_U": _bits(form.U), "bits_V": _bits(form.V)}

        self._patch_function(abgroup.smith_normal_form, "abgroup.snf", snf_after)
        self._patch_function(abgroup.lattice_solve, "abgroup.lattice_solve")
        self._patch_function(abgroup.is_exact_at_middle, "abgroup.exact")

        ring_cls = chow.ChowRingPresentation
        self._patch(
            ring_cls,
            "__init__",
            self.wrap(
                "chow.build",
                ring_cls.__init__,
                lambda args, kwargs, _: {"basis": sum(len(level) for level in args[0].basis)},
            ),
        )
        self._patch_function(chow.mul, "chow.mul")

        self._patch_function(
            cones.intersect, "cones.intersect", lambda args, kwargs, _: {"base": args[0].cone.base.name}
        )
        for fn, name in (
            (cones.degree_pairing, "cones.degree_pairing"),
            (cones.cartier_coherence_check, "cones.cartier"),
            (cones.comparison_map, "cones.comparison_map"),
            (cones.chow_group, "cones.chow_group"),
            (cones.class_to_pattern, "cones.class_to_pattern"),
        ):
            self._patch_function(fn, name)

        for fn in self._public_functions(serialize):
            if fn.__name__.startswith("parse_"):
                self._patch_function(fn, "serialize.parse")
            elif fn.__name__.endswith("_to_json"):
                self._patch_function(fn, "serialize.to_json")
        for fn in self._public_functions(cycles):
            self._patch_function(fn, "cycles.report")
        for fn in self._public_functions(cocycles):
            self._patch_function(fn, "cocycles.op")

        self._patch_function(cli.run, "cli.run")
        for command, handler in list(cli._HANDLERS.items()):
            self._patch(cli._HANDLERS, command, self.wrap("cli.handler", handler))
        self._patch(
            cli.Report,
            "render",
            self.wrap("cli.render", cli.Report.render, lambda a, k, text: {"bytes": len(text.encode())}),
        )

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def dump(self, path, header):
        """Write the spans as one JSON document."""
        fields = ["name", "start_ns", "end_ns", "parent", "error", "attrs"]
        with open(path, "w") as fh:
            json.dump({**header, "fields": fields, "spans": self.spans}, fh)


# -- analysis ----------------------------------------------------------------


def self_times(spans):
    """Per span: its duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append(rec)
    out = []
    for rec, kids in zip(spans, children):
        start, end = rec[START], rec[END]
        covered = 0
        cursor = start
        for kid in sorted(kids, key=lambda k: k[START]):
            lo, hi = max(kid[START], cursor), min(kid[END], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def layer_metrics(spans, snf_inputs):
    """Per-layer metrics from one traced replay (times are self time per call)."""
    selfs = self_times(spans)
    calls, self_ns = {}, {}
    for rec, own in zip(spans, selfs):
        calls[rec[NAME]] = calls.get(rec[NAME], 0) + 1
        self_ns[rec[NAME]] = self_ns.get(rec[NAME], 0) + own

    def per_call(name, scale):
        n = calls.get(name, 0)
        return self_ns[name] / n / scale if n else 0.0

    ms = lambda name: per_call(name, 1e6)  # noqa: E731
    us = lambda name: per_call(name, 1e3)  # noqa: E731

    snf = [rec[ATTRS] for rec in spans if rec[NAME] == "abgroup.snf"]
    renders = [rec[ATTRS]["bytes"] for rec in spans if rec[NAME] == "cli.render" and rec[ATTRS]]
    builds = [rec[ATTRS]["basis"] for rec in spans if rec[NAME] == "chow.build" and rec[ATTRS]]
    products = [
        rec for rec in spans
        if rec[NAME] in CONE_PRODUCTS and (rec[PARENT] < 0 or spans[rec[PARENT]][NAME] not in CONE_PRODUCTS)
    ]
    rejected = sum(1 for rec in products if rec[ERROR] == "ConeProductError")

    out = {
        "cli.parse_args_ms": (ms("cli.run"), "ms"),
        "cli.handler_ms": (ms("cli.handler"), "ms"),
        "cli.render_ms": (ms("cli.render"), "ms"),
        "cli.render_bytes": (sum(renders) / len(renders) if renders else 0.0, "bytes"),
        "serialize.parse_ms": (ms("serialize.parse"), "ms"),
        "serialize.to_json_ms": (ms("serialize.to_json"), "ms"),
        "abgroup.snf_calls": (len(snf), "count"),
        "abgroup.snf_ms": (ms("abgroup.snf"), "ms"),
        "abgroup.snf_max_bits_U": (max((a["bits_U"] for a in snf if a), default=0), "bits"),
        "abgroup.snf_max_bits_V": (max((a["bits_V"] for a in snf if a), default=0), "bits"),
    }
    for _, bucket in SNF_BUCKETS:
        inside = [a for a in snf if a and snf_bucket(a["n"]) == bucket]
        out[f"abgroup.snf_max_bits_U.{bucket}"] = (max((a["bits_U"] for a in inside), default=0), "bits")
        out[f"abgroup.snf_max_bits_V.{bucket}"] = (max((a["bits_V"] for a in inside), default=0), "bits")
    out.update(
        {
            "abgroup.lattice_solve_calls": (calls.get("abgroup.lattice_solve", 0), "count"),
            "abgroup.lattice_solve_ms": (ms("abgroup.lattice_solve"), "ms"),
            "abgroup.exact_ms": (ms("abgroup.exact"), "ms"),
            "abgroup.snf_distinct_ratio": (len(snf_inputs) / len(snf) if snf else 0.0, "ratio"),
            "chow.build_calls": (calls.get("chow.build", 0), "count"),
            "chow.build_ms": (ms("chow.build"), "ms"),
            "chow.basis_size_sum": (sum(builds), "count"),
            "chow.mul_calls": (calls.get("chow.mul", 0), "count"),
            "chow.mul_us": (us("chow.mul"), "us"),
            "cones.intersect_calls": (calls.get("cones.intersect", 0), "count"),
            "cones.intersect_us": (us("cones.intersect"), "us"),
            "cones.comparison_map_us": (us("cones.comparison_map"), "us"),
            "cones.chow_group_us": (us("cones.chow_group"), "us"),
            "cones.rejected_ratio": (rejected / len(products) if products else 0.0, "ratio"),
            "cycles.report_us": (us("cycles.report"), "us"),
            "cocycles.op_us": (us("cocycles.op"), "us"),
            "trace.spans": (len(spans), "count"),
        }
    )
    return out
