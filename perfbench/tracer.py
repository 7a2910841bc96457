"""Outside-in span tracer for the trunclat modules.

The tracer lives entirely in the benchmark: it edits no program file.  While
installed it replaces

* every public function of each trunclat module, in every ``trunclat.*``
  namespace that binds it (``engine`` and ``sampling`` import names directly,
  and ``spaces`` binds ``coerce_rational`` as ``_coerce``);
* the public methods of ``SampleGen``;
* ``engine.REGISTRY`` with copies of the laws whose ``run`` callables are
  wrapped, which works because ``run_suite`` reads the module global.

Each wrapped call is one span.  A span's self time is its duration minus the
durations of the spans it directly contains.  Spans of the coarse layers
(``cli``, ``engine``, ``report``) and the per-command spans are kept whole in
memory; the fine layers, which see hundreds of thousands of calls per pass,
are rolled up per (command, layer, function).  Nothing is written until
:meth:`Tracer.dump` is called at the end of the run.

Modules are resolved through ``importlib.import_module``, which returns the
``sys.modules`` entry: after ``import trunclat.truncation`` the package
attribute ``truncation`` is the exported *function* of that name, which
shadows the submodule.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
import types
from dataclasses import replace

LAYERS = (
    "rational",
    "spaces",
    "truncation",
    "unitization",
    "sampling",
    "engine",
    "dsl",
    "report",
    "cli",
)
FULL_SPAN_LAYERS = frozenset({"command", "cli", "engine", "report"})
SPACE_NAMES = ("sparse_seq", "lex_plane", "identity_line", "finite_pointwise")


class Tracer:
    """Records spans and exact counts while installed; restores everything on uninstall."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # open frames: [span_id, layer, child_seconds]
        self.span_count = 0
        self.command = ""
        self.spans: list[tuple] = []  # (id, parent_id, command, layer, name, start, end)
        # (command, layer, name) -> [calls, seconds, self_seconds, inner_spans]
        self.rollup: dict[tuple[str, str, str], list] = {}
        self.counts: dict[str, int] = {}
        self.space_self: dict[str, list] = {name: [0, 0.0] for name in SPACE_NAMES}
        self.max_support = 0
        self.max_bits = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping ----------------------------------------------------

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _close(self, frame: list, layer: str, name: str, start: float, end: float) -> float:
        duration = end - start
        own = duration - frame[2]
        stack = self.stack
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        if layer == "sampling" and (parent is None or parent[1] != "sampling"):
            self._count("sampling.draws")
        inner = self.span_count - frame[0]  # span ids are handed out in call order
        key = (self.command, layer, name)
        row = self.rollup.get(key)
        if row is None:
            self.rollup[key] = [1, duration, own, inner]
        else:
            row[0] += 1
            row[1] += duration
            row[2] += own
            row[3] += inner
        if layer in FULL_SPAN_LAYERS:
            self.spans.append(
                (frame[0], parent[0] if parent else 0, self.command, layer, name, start, end)
            )
        return own

    def _wrap(self, layer: str, name: str, fn, after=None):
        stack = self.stack
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            tracer.span_count += 1
            frame = [tracer.span_count, layer, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                own = tracer._close(frame, layer, name, start, end)
            if after is not None:
                after(args, result, own)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def command_span(self, command_id: str):
        """One benchmark command: a root span, and the id every span inside it is tagged with."""
        self.command = command_id
        self.span_count += 1
        frame = [self.span_count, "command", 0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self._close(frame, "command", command_id, start, end)
            self.command = ""

    # -- exact counts derived from arguments and returns ----------------------

    def _scan_element(self, x) -> None:
        payload = x.payload
        kind = type(x.space).__name__
        if kind == "SparseSeq":
            support = len(payload)
            values = [v for _, v in payload]
        elif kind == "IdentityLine":
            values = (payload,)
            support = 1 if payload else 0
        else:
            values = payload
            support = sum(1 for v in payload if v)
        if support > self.max_support:
            self.max_support = support
        for v in values:
            bits = max(v.numerator.bit_length(), v.denominator.bit_length())
            if bits > self.max_bits:
                self.max_bits = bits

    def _after_spaces(self, args, result, own) -> None:
        element_type = self._element_type
        space_types = self._space_types
        kind = None
        for a in args:
            if isinstance(a, element_type):
                self._scan_element(a)
                if kind is None:
                    kind = type(a.space)
            elif kind is None and isinstance(a, space_types):
                kind = type(a)
        if isinstance(result, element_type):
            self._scan_element(result)
            if kind is None:
                kind = type(result.space)
        elif kind is None and isinstance(result, space_types):
            kind = type(result)
        if kind is not None:
            row = self.space_self[self._space_name[kind]]
            row[0] += 1
            row[1] += own

    def _after_oracle(self, args, result, own) -> None:
        self._count("engine.band_oracle.corners", 2 ** len(args[1].coords))

    def _counting_cauchy(self, fn):
        tracer = self

        def uniform_cauchy_prefix(ctx, seq, *rest, **kwargs):
            def counted(n):
                tracer._count("engine.uniform_cauchy.evals")
                return seq(n)

            return fn(ctx, counted, *rest, **kwargs)

        return uniform_cauchy_prefix

    def _law_verdicts(self, expected_violations):
        def after(args, report, own) -> None:
            verdict = report.verdict
            if verdict == "refuted":
                expected = report.law_id in expected_violations(args[0])
                verdict = "refuted_expected" if expected else "refuted_unexpected"
            self._count("engine.verdict." + verdict)

        return after

    # -- install / uninstall -------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module("trunclat." + layer) for layer in LAYERS}
        spaces = modules["spaces"]
        engine = modules["engine"]
        self._element_type = spaces.Element
        self._space_name = {
            spaces.SparseSeq: "sparse_seq",
            spaces.LexPlane: "lex_plane",
            spaces.IdentityLine: "identity_line",
            spaces.FinitePointwise: "finite_pointwise",
        }
        self._space_types = tuple(self._space_name)
        verdicts = self._law_verdicts(engine.expected_violations)  # the original, never traced

        wrappers: dict[int, tuple[object, object]] = {}
        for layer, module in modules.items():
            for value in list(vars(module).values()):
                if not _is_public_function(value, module.__name__) or id(value) in wrappers:
                    continue
                name, fn, after = value.__name__, value, None
                if layer == "spaces":
                    after = self._after_spaces
                elif name == "band_component_oracle":
                    after = self._after_oracle
                elif name == "uniform_cauchy_prefix":
                    fn = self._counting_cauchy(value)
                wrappers[id(value)] = (value, self._wrap(layer, name, fn, after))

        namespaces = [
            module
            for key, module in list(sys.modules.items())
            if (key == "trunclat" or key.startswith("trunclat.")) and isinstance(module, types.ModuleType)
        ]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._set(module, attr, entry[1])

        sample_gen = modules["sampling"].SampleGen
        for attr, value in list(vars(sample_gen).items()):
            if isinstance(value, types.FunctionType) and not attr.startswith("_"):
                self._set(sample_gen, attr, self._wrap("sampling", "SampleGen." + attr, value))

        laws = tuple(
            replace(law, run=self._wrap("engine", "law:" + law.law_id, law.run, verdicts))
            for law in engine.REGISTRY
        )
        self._set(engine, "REGISTRY", laws)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------------

    def layer_totals(self) -> dict[str, list]:
        """layer -> [calls, self_seconds], summed over commands and functions."""
        totals = {layer: [0, 0.0] for layer in LAYERS + ("command",)}
        for (_, layer, _), (calls, _, own, _) in self.rollup.items():
            row = totals[layer]
            row[0] += calls
            row[1] += own
        return totals

    def function_totals(self, layer: str) -> dict[str, list]:
        """function name -> [calls, seconds, self_seconds, inner_spans] within one layer."""
        out: dict[str, list] = {}
        for (_, lay, name), values in self.rollup.items():
            if lay == layer:
                row = out.setdefault(name, [0, 0.0, 0.0, 0])
                for i, value in enumerate(values):
                    row[i] += value
        return out

    def dump(self, path, meta: dict) -> None:
        """Write the kept spans, the roll-ups and the counts as one JSON document."""
        doc = {
            "meta": meta,
            "span_fields": ["id", "parent", "command", "layer", "name", "start", "end"],
            "spans": self.spans,
            "rollup_fields": ["command", "layer", "name", "calls", "seconds", "self_seconds", "inner_spans"],
            "rollup": [list(key) + row for key, row in sorted(self.rollup.items())],
            "counts": dict(sorted(self.counts.items())),
            "spaces": {
                "max_support": self.max_support,
                "max_bits": self.max_bits,
                "by_space": self.space_self,
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def _is_public_function(value, module_name: str) -> bool:
    return (
        isinstance(value, types.FunctionType)
        and value.__module__ == module_name
        and value.__name__.isidentifier()
        and not value.__name__.startswith("_")
    )
