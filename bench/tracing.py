"""In-memory span tracer that wraps cfrenewal's public functions from outside.

Modules in the package bind each other's functions by name
(``from .gauss import sample_digit_given_state``), so a function is
wrapped in every namespace that looks it up, not only where it is
defined.  Methods and the two cached coordinates of NaturalExtPoint are
wrapped on their classes.  Nothing under ``src/`` is edited: ``install``
swaps the attributes and ``uninstall`` puts the originals back.

A span records its layer name, start, end, parent span and op id.
Spans stay in memory until ``write`` saves them once, at the end of the
run.  ``summary`` turns them into per-layer busy time (outermost spans
of a layer only), self time (busy time minus the time of child spans)
and call counts; ``counters`` hold the work counts that are measured at
the same boundaries.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from functools import cached_property
from pathlib import Path
from time import perf_counter

import numpy as np
from cfrenewal import cli, fixedreal, flow, gauss, limitlaw, mixing, quadrature
from cfrenewal.errors import OutOfChart

OP_SPAN = "bench.op"


class Tracer:
    """Span recorder plus the table of wrap points it installs."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_op: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._stack: list[int] = []
        self.op_id = -1
        self.counters: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def enter(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op_id)
        now = perf_counter()
        self.span_start.append(now)
        self.span_end.append(now)
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] += amount

    def op_span(self) -> int:
        """Open the root span of the next op."""
        self.op_id += 1
        return self.enter(self._id(OP_SPAN))

    # -- wrapping ------------------------------------------------------

    def _wrap(self, func, name: str, observe=None):
        tracer = self
        name_id = self._id(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = tracer.enter(name_id)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                if observe is not None:
                    observe(args, kwargs, None, exc)
                raise
            finally:
                tracer.exit(idx)
            if observe is not None:
                observe(args, kwargs, result, None)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_function(self, modules, attr: str, name: str, observe=None) -> None:
        for module in modules:
            self._patch(module, attr, self._wrap(module.__dict__[attr], name, observe))

    def _patch_method(self, cls, attr: str, name: str, observe=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, name, observe))
        elif isinstance(raw, cached_property):
            wrapped = cached_property(self._wrap(raw.func, name, observe))
            wrapped.__set_name__(cls, attr)
        else:
            wrapped = self._wrap(raw, name, observe)
        self._patch(cls, attr, wrapped)

    def install(self) -> None:
        """Wrap every traced layer boundary; ``uninstall`` restores the originals."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        count = self.count

        def chain_lanes(args, kwargs, result, exc):
            count("gauss.chain.lanes", int(np.size(args[1])))

        def pn_samples(args, kwargs, result, exc):
            if result is not None:
                count("limitlaw.empirical_pn.samples", result.sample_count)
                count("limitlaw.empirical_pn.accepted", result.sample_count - result.rejected)

        def table_cells(args, kwargs, result, exc):
            if result is not None:
                count("limitlaw.theoretical_table.cells", result.mass.size)

        def corr_samples(args, kwargs, result, exc):
            if result is not None:
                count("mixing.correlation_estimate.samples", result.samples)

        def leaf_chart(args, kwargs, result, exc):
            count("mixing.leaf_attempts")
            if not isinstance(exc, OutOfChart):
                count("mixing.leaf_in_chart")

        def window_digits(side):
            def observe(args, kwargs, result, exc):
                count("gauss.alpha_eval.digits", len(getattr(args[0], side)))
            return observe

        self._patch_function((cli,), "main", "cli")
        self._patch_function((cli,), "empirical_pn", "limitlaw.empirical_pn", pn_samples)
        self._patch_function(
            (cli,), "theoretical_table", "limitlaw.theoretical_table", table_cells
        )
        self._patch_function((cli,), "ks_distance", "limitlaw.ks_distance")
        table = limitlaw.DistributionTable
        self._patch_method(table, "to_csv", "limitlaw.csv_write")
        self._patch_method(table, "from_csv", "limitlaw.csv_read")
        self._patch_method(table, "to_json_dict", "limitlaw.json_write")
        self._patch_method(table, "from_json_dict", "limitlaw.json_read")
        self._patch_function((limitlaw, quadrature), "mapped_nodes", "quadrature.mapped_nodes")
        self._patch_function(
            (limitlaw, gauss), "sample_digit_given_state", "gauss.chain", chain_lanes
        )
        self._patch_function((limitlaw, mixing, cli), "substream", "streams.substream")
        self._patch_function(
            (mixing,), "correlation_estimate", "mixing.correlation_estimate", corr_samples
        )
        self._patch_function((mixing, gauss, cli), "sample_mu2", "gauss.sample_mu2")
        point = gauss.NaturalExtPoint
        self._patch_method(point, "step", "gauss.step")
        self._patch_method(point, "inverse", "gauss.inverse")
        self._patch_method(point, "alpha_minus", "gauss.alpha_eval", window_digits("bwd"))
        self._patch_method(point, "alpha_plus", "gauss.alpha_eval", window_digits("fwd"))
        self._patch_function((flow, cli), "flow_evolve", "flow.flow_evolve")
        self._patch_function((flow,), "renewal_vs_flow_check", "flow.renewal_vs_flow_check")
        self._patch_function(
            (mixing,), "stable_leaf_point", "mixing.stable_leaf_point", leaf_chart
        )
        self._patch_function((mixing,), "flow_pair_distance", "mixing.flow_pair_distance")
        self._patch_function((flow, cli), "renewal_index", "cf.renewal_index")
        self._patch_function((gauss, cli), "convergents", "cf.convergents")
        real = fixedreal.FixedReal
        self._patch_method(real, "from_fraction", "fixedreal.from_fraction")
        self._patch_method(real, "floor_recip", "fixedreal.floor_recip")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results -------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: call count, busy time of outermost spans, self time."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names
        }
        for i in range(n):
            name_id = self.span_name[i]
            row = out[self.names[name_id]]
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] != name_id:
                p = self.span_parent[p]
            if p < 0:
                row["busy_s"] += dur[i]
        return out

    def crossings(self) -> int:
        """Shift steps taken directly by flow_evolve (its roof crossings)."""
        evolve = self._name_id.get("flow.flow_evolve")
        moves = {self._name_id.get("gauss.step"), self._name_id.get("gauss.inverse")}
        if evolve is None:
            return 0
        return sum(
            1
            for i, name_id in enumerate(self.span_name)
            if name_id in moves
            and self.span_parent[i] >= 0
            and self.span_name[self.span_parent[i]] == evolve
        )

    def write(self, path: Path) -> None:
        """Save every span as one CSV row; called once, after the run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min(self.span_start, default=0.0)
        with path.open("w") as fh:
            fh.write("span,op,name,parent,start_s,end_s\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i},{self.span_op[i]},{self.names[self.span_name[i]]},"
                    f"{self.span_parent[i]},{self.span_start[i] - origin:.9f},"
                    f"{self.span_end[i] - origin:.9f}\n"
                )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-op layer numbers for every per-layer metric the benchmark names.

    A layer the workload never enters reports 0, and so does a ratio
    with no attempts behind it.
    """
    s = tracer.summary()
    c = tracer.counters

    def calls(name):
        return s.get(name, {}).get("calls", 0) / ops

    def busy(*names):
        return sum(s.get(n, {}).get("busy_s", 0.0) for n in names) / ops

    def self_time(name):
        return s.get(name, {}).get("self_s", 0.0) / ops

    def per_op(key):
        return c.get(key, 0) / ops

    pn_samples = c.get("limitlaw.empirical_pn.samples", 0)
    out = {
        "limitlaw.empirical_pn.busy_s": busy("limitlaw.empirical_pn"),
        "limitlaw.empirical_pn.samples": per_op("limitlaw.empirical_pn.samples"),
        "limitlaw.empirical_pn.accept_ratio": _ratio(
            c.get("limitlaw.empirical_pn.accepted", 0), pn_samples
        ),
        "gauss.chain.busy_s": busy("gauss.chain"),
        "gauss.chain.calls": calls("gauss.chain"),
        "gauss.chain.lanes": per_op("gauss.chain.lanes"),
        "limitlaw.csv_read_s": busy("limitlaw.csv_read"),
        "limitlaw.csv_write_s": busy("limitlaw.csv_write"),
        "limitlaw.json_read_s": busy("limitlaw.json_read"),
        "limitlaw.json_write_s": busy("limitlaw.json_write"),
        "limitlaw.table_bytes": per_op("limitlaw.table_bytes"),
        "limitlaw.theoretical_table.busy_s": busy("limitlaw.theoretical_table"),
        "limitlaw.theoretical_table.cells": per_op("limitlaw.theoretical_table.cells"),
        "quadrature.mapped_nodes.calls": calls("quadrature.mapped_nodes"),
        "quadrature.mapped_nodes.busy_s": busy("quadrature.mapped_nodes"),
        "limitlaw.ks_distance.busy_s": busy("limitlaw.ks_distance"),
        "cli.self_s": self_time("cli"),
        "mixing.correlation_estimate.busy_s": busy("mixing.correlation_estimate"),
        "mixing.correlation_estimate.self_s": self_time("mixing.correlation_estimate"),
        "mixing.correlation_estimate.samples": per_op("mixing.correlation_estimate.samples"),
        "gauss.sample_mu2.busy_s": busy("gauss.sample_mu2"),
        "gauss.sample_mu2.calls": calls("gauss.sample_mu2"),
        "streams.substream.calls": calls("streams.substream"),
        "streams.substream.busy_s": busy("streams.substream"),
        "gauss.step.calls": calls("gauss.step"),
        "gauss.inverse.calls": calls("gauss.inverse"),
        "gauss.step.busy_s": busy("gauss.step"),
        "gauss.inverse.busy_s": busy("gauss.inverse"),
        "gauss.alpha_eval.calls": calls("gauss.alpha_eval"),
        "gauss.alpha_eval.busy_s": busy("gauss.alpha_eval"),
        "gauss.alpha_eval.digits": per_op("gauss.alpha_eval.digits"),
        "flow.flow_evolve.busy_s": busy("flow.flow_evolve"),
        "flow.flow_evolve.calls": calls("flow.flow_evolve"),
        "flow.crossings": tracer.crossings() / ops,
        "flow.renewal_vs_flow_check.busy_s": busy("flow.renewal_vs_flow_check"),
        "mixing.stable_leaf_point.busy_s": busy("mixing.stable_leaf_point"),
        "mixing.flow_pair_distance.busy_s": busy("mixing.flow_pair_distance"),
        "mixing.leaf_in_chart_ratio": _ratio(
            c.get("mixing.leaf_in_chart", 0), c.get("mixing.leaf_attempts", 0)
        ),
        "cf.renewal_index.calls": calls("cf.renewal_index"),
        "cf.renewal_index.busy_s": busy("cf.renewal_index"),
        "cf.convergents.calls": calls("cf.convergents"),
        "fixedreal.from_fraction.calls": calls("fixedreal.from_fraction"),
        "fixedreal.floor_recip.calls": calls("fixedreal.floor_recip"),
        "fixedreal.busy_s": busy("fixedreal.from_fraction", "fixedreal.floor_recip"),
    }
    return out
