"""Spans around the calls into each majsphere module, recorded from outside.

A :class:`Tracer` replaces names in the library's module namespaces with
timing wrappers and puts every original back on exit.  ``classify``,
``canonical`` and ``symstate`` bind the functions they import when they are
imported, so a span is named after the namespace the call resolved in:
``classify.from_three_points`` is a call that ``classify`` code made through
its own binding, ``canonical.from_three_points`` one that ``canonical`` made.
Modules that reach a dependency through a module object (``symstate`` uses
``np.roots``, ``cli`` uses ``_symstate.majorana_roots`` and so on) get a
proxy object in place of that module, whose listed attributes are wrapped.

Spans are kept in memory in flat arrays: name, parent span, operation id,
start and end.  Self time is a span's duration minus that of its child spans.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

import numpy as np

#: (module, attribute, span name): functions wrapped in a module namespace
WRAPPED = (
    ("classify", "slocc_equivalent", "classify.decide"),
    ("classify", "locc_equivalent", "classify.decide"),
    ("classify", "from_three_points", "classify.from_three_points"),
    ("classify", "chordal_distance", "classify.chordal_distance"),
    ("classify", "is_projective_unitary", "classify.is_projective_unitary"),
    ("classify", "degeneracy_configuration", "classify.degeneracy_configuration"),
    ("classify", "single_linkage", "classify.single_linkage"),
    ("classify", "majorana_roots", "classify.majorana_roots"),
    ("symstate", "majorana_roots", "symstate.majorana_roots"),
    ("symstate", "single_linkage", "symstate.single_linkage"),
    ("symstate", "apply_symmetric", "symstate.apply_symmetric"),
    ("symstate", "state_from_roots", "symstate.state_from_roots"),
    ("canonical", "canonicalize", "canonical.canonicalize"),
    ("canonical", "majorana_roots", "canonical.majorana_roots"),
    ("canonical", "degeneracy_configuration", "canonical.degeneracy_configuration"),
    ("canonical", "from_three_points", "canonical.from_three_points"),
    ("cli", "main", "cli.main"),
)

#: (module, attribute holding a module object, {attribute: span name})
PROXIED = (
    ("symstate", "np", {"roots": "symstate.np_roots"}),
    ("cli", "_symstate", {
        "majorana_roots": "cli.majorana_roots",
        "state_to_doc": "cli.to_doc",
        "roots_to_doc": "cli.to_doc",
    }),
    ("cli", "_classify", {"cocircularity_witness": "cli.cocircularity_witness"}),
    ("cli", "_canonical", {"form_to_doc": "cli.to_doc"}),
    ("cli", "_moebius", {"map_to_doc": "cli.to_doc"}),
)


class _Proxy:
    """Stands in for a module object; unlisted attributes are the module's own."""

    def __init__(self, real, wrapped: dict):
        self._real = real
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Context manager that records spans while the library names are patched."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, span_name: str, fn):
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self._name_ids[span_name]
        name_id, parent, op, start, end = (
            self.name_id, self.parent, self.op, self.start, self.end
        )
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, module, attr: str, value):
        self._saved.append((module, attr, module.__dict__[attr]))
        setattr(module, attr, value)

    def __enter__(self):
        for mod_name, attr, span_name in WRAPPED:
            module = importlib.import_module(f"majsphere.{mod_name}")
            self._patch(module, attr, self._span(span_name, module.__dict__[attr]))
        for mod_name, attr, members in PROXIED:
            module = importlib.import_module(f"majsphere.{mod_name}")
            real = module.__dict__[attr]
            wrapped = {
                name: self._span(span_name, _late(real, name))
                for name, span_name in members.items()
            }
            self._patch(module, attr, _Proxy(real, wrapped))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-operation ``<span>.calls``, ``.ms`` and ``.self_ms`` of every
        span name, plus ``classify.enumerated_frac``."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child
        out = {}
        for nid, span_name in enumerate(self.names):
            mask = name_id == nid
            out[f"{span_name}.calls"] = int(mask.sum()) / ops
            out[f"{span_name}.ms"] = float(dur[mask].sum()) * 1e3 / ops
            out[f"{span_name}.self_ms"] = float(own[mask].sum()) * 1e3 / ops
        out["classify.enumerated_frac"] = self._enumerated_frac(name_id, parent)
        return out

    def _enumerated_frac(self, name_id: np.ndarray, parent: np.ndarray) -> float:
        # a decision enumerated when a candidate map was built directly under it
        decide = self._name_ids.get("classify.decide")
        build = self._name_ids.get("classify.from_three_points")
        decisions = np.flatnonzero(name_id == decide)
        if decisions.size == 0:
            return 0.0
        builders = parent[(name_id == build) & (parent >= 0)]
        return float(np.isin(decisions, builders).sum()) / decisions.size

    def save(self, path: str) -> None:
        """Write the raw spans as arrays, with the span-name table."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def _late(real, name: str):
    # resolve at call time, so a wrapper installed on the real module is seen
    def call(*args, **kwargs):
        return getattr(real, name)(*args, **kwargs)

    return call
