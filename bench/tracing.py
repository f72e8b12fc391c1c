"""Spans and counters recorded around the calls into each library module.

The tracer patches the public functions of ``cover``, ``structure`` and
``nullset`` in their defining modules, so calls between library
functions are seen too, and the methods of the ``groups`` classes.
Module functions get one span per call (name, start, end, parent); a
call that re-enters the span it is already inside (recursion, or
``measure_upper`` calling ``bound_product``) stays part of that span.
``groups`` methods run millions of times, so they only add to counters:
calls, busy time of the outermost group call, and elements yielded by
``elements()``.  Group time is subtracted from the enclosing span's self
time, so the self times of all spans plus the group time add up to the
traced wall time of the benchmark's own root spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
from array import array
from collections import defaultdict
from math import prod
from time import perf_counter_ns

# span name -> public functions recorded under it
SPANS = {
    "cover": {
        "cover.plan": ("plan_blocks_product", "plan_blocks_padic"),
        "cover.build": ("build_nullset",),
        "cover.slalom": ("random_slalom",),
        "cover.assemble": ("cover_product_slalom", "cover_padic_slalom"),
        "cover.translate": ("find_translator",),
        "cover.verify": ("verify_cover",),
        "cover.measure": ("measure_upper", "bound_product", "first_bound_below"),
    },
    "structure": {
        "structure.enumerate": ("enumerate_descriptors",),
        "structure.pipeline": ("niceness_pipeline",),
        "structure.dual": ("dual",),
        "structure.classify": ("classify_subgroup",),
        "structure.json": ("descriptor_to_json", "descriptor_from_json"),
        "structure.chain": ("divisible_chain",),
    },
    "nullset": {
        "nullset.outer_measure": ("ek_outer_measure",),
        "nullset.sup": ("ek_sup",),
        "nullset.membership": ("ek_membership",),
    },
}

GROUP_CLASSES = ("FiniteAbelianGroup", "PadicContext", "BlockGroup")
# the arithmetic entry points; ``check`` and the order properties run
# inside them and are left unwrapped to keep the tracing overhead down
GROUP_METHODS = ("zero", "add", "neg", "sub", "scalar_mul", "element_at",
                 "index_of", "value", "from_int", "carry_unit")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self.stack: list[list[int]] = []   # [span index, name id, child ns]
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.min_slack: int | None = None
        self.in_groups = False
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> None:
        index = len(self.span_name)
        self.span_name.append(self._id(name))
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_end.append(0)
        self.stack.append([index, self._ids[name], 0])
        self.span_start.append(perf_counter_ns())

    def close(self) -> int:
        end = perf_counter_ns()
        index, name_id, child = self.stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        name = self.names[name_id]
        self.self_ns[name] += duration - child
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += duration
        return duration

    def _span_fn(self, name, layer, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.stack and tracer.names[tracer.stack[-1][1]] == name:
                return fn(*args, **kwargs)
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counters[layer + ".errors"] += 1
                raise
            finally:
                tracer.close()
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return traced

    def _span_gen(self, name, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(name)
            count = 0
            try:
                for item in fn(*args, **kwargs):
                    count += 1
                    yield item
            except GeneratorExit:
                raise
            except BaseException:
                tracer.counters[layer + ".errors"] += 1
                raise
            finally:
                tracer.counters[name + ".count"] += count
                tracer.close()

        return traced

    # -- groups counters -----------------------------------------------------

    def _group_fn(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.counters["groups.calls"] += 1
            if tracer.in_groups:
                return fn(*args, **kwargs)
            tracer.in_groups = True
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.counters["groups.errors"] += 1
                raise
            finally:
                elapsed = perf_counter_ns() - start
                tracer.in_groups = False
                tracer.counters["groups.busy_ns"] += elapsed
                if tracer.stack:
                    tracer.stack[-1][2] += elapsed

        return traced

    def _group_gen(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.counters["groups.calls"] += 1
            count = 0
            try:
                for item in fn(*args, **kwargs):
                    count += 1
                    yield item
            except GeneratorExit:
                # the caller stopped early, as find_translator does
                raise
            except BaseException:
                tracer.counters["groups.errors"] += 1
                raise
            finally:
                tracer.counters["groups.elements_enumerated"] += count

        return traced

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, lib) -> None:
        """Wrap the library modules held by ``lib`` (attributes cover,
        structure, nullset, groups)."""
        for layer, spans in SPANS.items():
            module = getattr(lib, layer)
            for name, functions in spans.items():
                for fn_name in functions:
                    fn = getattr(module, fn_name)
                    if inspect.isgeneratorfunction(fn):
                        wrapped = self._span_gen(name, layer, fn)
                    else:
                        wrapped = self._span_fn(name, layer, fn, OBSERVERS.get(name))
                    self._patch(module, fn_name, wrapped)
        is_prime = self._group_fn(lib.groups.is_prime)
        for module in (lib.groups, lib.cover, lib.structure):
            self._patch(module, "is_prime", is_prime)
        for cls_name in GROUP_CLASSES:
            cls = getattr(lib.groups, cls_name)
            for attr in GROUP_METHODS:
                if attr in cls.__dict__:
                    self._patch(cls, attr, self._group_fn(cls.__dict__[attr]))
            if "elements" in cls.__dict__:
                self._patch(cls, "elements", self._group_gen(cls.__dict__["elements"]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output --------------------------------------------------------------

    def seconds(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def write(self, path) -> None:
        spans = [
            [self.span_name[i], self.span_start[i], self.span_end[i], self.span_parent[i]]
            for i in range(len(self.span_name))
        ]
        payload = {
            "columns": ["name", "start_ns", "end_ns", "parent"],
            "names": self.names,
            "spans": spans,
            "counters": dict(self.counters),
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


# -- per-span counters taken from arguments and results ------------------------


def _observe_verify(tracer, args, kwargs, result):
    tracer.counters["cover.verify.elements"] += result.checked_count
    if not result.ok:
        tracer.counters["cover.verify.rejects"] += 1
    if result.carry_cases is not None:
        tracer.counters["cover.verify.carry_plain"] += result.carry_cases[0]
        tracer.counters["cover.verify.carry_carried"] += result.carry_cases[1]


def _observe_translate(tracer, args, kwargs, result):
    group, kept, targets = args[0], args[1], args[2]
    # read the order from the group's fields, not through a traced method
    if hasattr(group, "orders"):
        order = prod(group.orders)
    else:
        order = group.p ** (group.stop - group.start)
    slack = order - len(set(targets)) * (order - len(set(kept)))
    tracer.counters["cover.translate.order_sum"] += order
    tracer.min_slack = slack if tracer.min_slack is None else min(tracer.min_slack, slack)


def _observe_pipeline(tracer, args, kwargs, result):
    tracer.counters["structure.pipeline.steps"] += len(result.steps)


OBSERVERS = {
    "cover.verify": _observe_verify,
    "cover.translate": _observe_translate,
    "structure.pipeline": _observe_pipeline,
}
