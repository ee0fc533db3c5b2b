"""Per-layer tracing of jacobsthal3 from outside the package.

One layer per module: cli, identities, sequences, closed_forms,
eisenstein, series and sums.  `Tracer.install` wraps the public functions
each layer exposes, under every name a jacobsthal3 module binds them to
(`from .sequences import term` gives identities and sums their own name
for `term`), plus the arithmetic methods of `Eisenstein`.

Every wrapped call adds to its counter's call count and busy time, and to
its layer's self time: the call's duration minus the time spent in
wrapped calls it made.  Coarse boundaries (a request, `cli.main`,
`verify_range`, `term_range`, the generating-function expansion) also
record a span (name, start, end, parent span, request) kept in memory
until `write_spans`.  Hot leaves such as `term`, `companions` and
`Eisenstein.__mul__` only aggregate, so the trace stays small.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "identities", "sequences", "closed_forms", "eisenstein", "series", "sums")

# (module, function, counter, records a span)
_FUNCTIONS = (
    ("cli", "main", "cli.main", True),
    ("identities", "verify_range", "identities.verify_range", True),
    ("sequences", "term", "sequences.term", False),
    ("sequences", "term_range", "sequences.term_range", True),
    ("sequences", "companions", "sequences.companions", False),
    ("closed_forms", "binet_term", "closed_forms.binet_term", False),
    ("closed_forms", "decomposed_term", "closed_forms.decomposed_term", False),
    ("series", "gf_coefficients", "series.gf_coefficients", True),
    ("series", "series_div", "series.series_div", True),
    ("sums", "sum_oracle", "sums.sum_oracle", False),
    ("sums", "weighted_sum_closed", "sums.closed", False),
    ("sums", "strided_sum_closed", "sums.closed", False),
)

#: Only multiplication and powers are reported on their own; the other
#: methods share a counter and count toward the layer's busy and self time.
_EISENSTEIN_METHODS = {
    "__mul__": "eisenstein.mul",
    "__rmul__": "eisenstein.mul",
    "__pow__": "eisenstein.pow",
    **{
        method: "eisenstein.other"
        for method in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__truediv__",
                       "__rtruediv__", "conj", "norm", "rational_part")
    },
}


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        #: time with at least one call of the layer in progress
        self.layer_busy: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        #: identity -> [seconds in verify_range, instances checked]
        self.per_identity: dict[str, list] = defaultdict(lambda: [0.0, 0])
        self.spans: list[tuple] = []
        self.request = 0
        #: bytes of the files the CLI wrote
        self.bytes_out = 0
        self._binet_cache = None
        #: (namespace, attribute, original value) of every wrapped name
        self._patched: list[tuple] = []
        self._child_s: list[float] = []
        self._open_spans: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._next_span = 0

    def wrap(self, fn, counter: str, span: bool = False):
        layer = counter.split(".")[0]
        clock = time.perf_counter
        child_s, open_spans, depth = self._child_s, self._open_spans, self._depth

        def traced(*args, **kwargs):
            if span:
                span_id = self._next_span
                self._next_span += 1
                parent = open_spans[-1] if open_spans else None
                open_spans.append(span_id)
            child_s.append(0.0)
            depth[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[layer] -= 1
                inner = child_s.pop()
                if child_s:
                    child_s[-1] += elapsed
                self.calls[counter] += 1
                self.busy[counter] += elapsed
                self.self_s[layer] += elapsed - inner
                if not depth[layer]:
                    self.layer_busy[layer] += elapsed
                if span:
                    open_spans.pop()
                    self.spans.append((span_id, counter, start, start + elapsed, parent, self.request))
            return result

        return traced

    def _count_instances(self, verify_range):
        """Wrap `verify_range` to add its time and instances to its identity."""
        clock = time.perf_counter

        def counted(identity, *args, **kwargs):
            start = clock()
            report = verify_range(identity, *args, **kwargs)
            entry = self.per_identity[identity.value]
            entry[0] += clock() - start
            entry[1] += report.total
            return report

        return counted

    def install(self, package_modules: dict) -> None:
        """Wrap the traced functions under every name the package binds them to."""
        for module, name, counter, span in _FUNCTIONS:
            original = getattr(package_modules[module], name)
            inner = self._count_instances(original) if name == "verify_range" else original
            wrapper = self.wrap(inner, counter, span)
            for namespace in package_modules.values():
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, attr, wrapper)
        eisenstein = package_modules["eisenstein"].Eisenstein
        for method, counter in _EISENSTEIN_METHODS.items():
            self._patch(eisenstein, method, self.wrap(vars(eisenstein)[method], counter))
        # lru_cache statistics are public; count only lookups made from here on
        self._binet_cache = package_modules["closed_forms"].binet_coefficients
        self._binet_start = self._binet_cache.cache_info()

    def _patch(self, namespace, attr: str, value) -> None:
        self._patched.append((namespace, attr, vars(namespace)[attr]))
        setattr(namespace, attr, value)

    def uninstall(self) -> None:
        """Put back every name `install` wrapped."""
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def metrics(self, catalog: list[str]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}

        def counter(name: str) -> None:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.busy_s"] = (self.busy[name], "s")

        counter("cli.main")
        out["cli.bytes_out"] = (self.bytes_out, "B")
        out["identities.verify_range.calls"] = (self.calls["identities.verify_range"], "count")
        out["identities.instances"] = (sum(n for _, n in self.per_identity.values()), "count")
        for name in catalog:
            seconds, instances = self.per_identity.get(name, (0.0, 0))
            out[f"identities.{name}.us_per_check"] = (
                seconds / instances * 1e6 if instances else 0.0,
                "us",
            )
        for name in ("sequences.term", "sequences.term_range", "sequences.companions",
                     "closed_forms.binet_term", "closed_forms.decomposed_term",
                     "series.series_div", "sums.sum_oracle", "sums.closed"):
            counter(name)
        out["eisenstein.mul.calls"] = (self.calls["eisenstein.mul"], "count")
        out["eisenstein.pow.calls"] = (self.calls["eisenstein.pow"], "count")
        out["eisenstein.busy_s"] = (self.layer_busy["eisenstein"], "s")
        info = self._binet_cache.cache_info()
        hits = info.hits - self._binet_start.hits
        lookups = hits + info.misses - self._binet_start.misses
        out["closed_forms.binet_coefficients.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        return out

    def write_spans(self, path: Path) -> None:
        fields = ("id", "name", "start", "end", "parent", "request")
        path.write_text(
            json.dumps([dict(zip(fields, span)) for span in self.spans]) + "\n", encoding="utf-8"
        )
