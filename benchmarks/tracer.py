"""In-memory spans around qtoric's layer boundaries, and the layer metrics.

:func:`install` replaces each traced function at the name through which its
caller reaches it (``qtoric.analyzer.extract_factors`` is what ``analyze``
calls) with a wrapper that records a span while the tracer is enabled. A span
is ``(name, start_ns, end_ns, parent, ok, tag)``: ``parent`` is the index of
the enclosing span or -1, ``ok`` is false when the call raised, and ``tag``
is a small fact about the result (the verdict of ``analyze``). Spans stay in
memory until the run writes them out.

The stack of open spans is shared by all threads. The CLI analyzes a
directory in a one-worker thread pool while the calling thread waits, so
calls never overlap.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

# (module path, attribute, span name). Classes are given as "module:Class".
TRACED = [
    ("qtoric.cli", "_load_json", "cli.read"),
    ("qtoric.cli", "_emit_json", "cli.emit"),
    ("qtoric.cli", "_relation_dict", "cli.relation_row"),
    ("qtoric.cli", "state_from_dict", "states.parse"),
    ("qtoric.cli", "analyze", "analyzer.analyze"),
    ("qtoric.cli", "segre_relations", "toric.segre_relations"),
    ("qtoric.cli", "relation_residual", "toric.relation_residual"),
    ("qtoric.cli", "max_segre_residual", "toric.max_segre_residual"),
    ("qtoric", "analyze", "analyzer.analyze"),
    ("qtoric", "segre_relations", "toric.segre_relations"),
    ("qtoric", "relation_residual", "toric.relation_residual"),
    ("qtoric", "max_segre_residual", "toric.max_segre_residual"),
    ("qtoric.analyzer", "max_segre_residual", "toric.max_segre_residual"),
    ("qtoric.analyzer", "extract_factors", "analyzer.extract_factors"),
    ("qtoric.analyzer", "segre_embed", "states.segre_embed"),
    ("qtoric.analyzer", "moment_product", "moment.moment_product"),
    ("qtoric.analyzer", "concurrence", "measures.concurrence"),
    ("qtoric.analyzer", "three_tangle", "measures.three_tangle"),
    ("qtoric.analyzer", "m_tangle", "measures.m_tangle"),
    ("qtoric.analyzer", "check_tau4_identities", "measures.tau4_identities"),
    ("qtoric.analyzer:AnalysisReport", "to_dict", "analyzer.to_dict"),
    ("qtoric.measures", "m_tangle", "measures.m_tangle"),
    ("qtoric.measures", "tau4_epsilon_oracle", "measures.tau4_epsilon"),
    ("qtoric.states:MultiQubitState", "__post_init__", "states.validate"),
]

TAGS = {"analyzer.analyze": lambda report: bool(report.separable)}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.enabled = False
        self._stack: list[int] = []
        self._patched: list = []

    def wrap(self, name: str, fn):
        tag = TAGS.get(name)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            ok, label = False, None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                if ok and tag is not None:
                    label = tag(result)
                self.spans[index] = (name, start, end, parent, ok, label)

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of the benchmark's own."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self) -> None:
        import importlib

        for target, attribute, name in TRACED:
            module_name, _, class_name = target.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            original = getattr(owner, attribute)
            self._patched.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()


# ---------------------------------------------------------------------------
# Layer metrics from a list of spans
# ---------------------------------------------------------------------------

# The benchmark's own spans: a section at the root, then one span per CLI
# invocation ("bench.cli.<role>") or per library operation ("bench.lib").
WORKLOAD_SECTION = "section.workload"
PROBE_SECTION = "section.probe"
LIST_INVOCATION = "bench.cli.list"


class SpanSet:
    """Spans indexed by section and name, with their self times."""

    def __init__(self, spans: list) -> None:
        self.spans = spans
        child_ns = [0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.self_us = [(sp[2] - sp[1] - child_ns[i]) / 1e3 for i, sp in enumerate(spans)]
        # Parents precede children, so one forward pass finds every span's
        # section and its enclosing benchmark span.
        self.section: list[str] = []
        self.owner: list[str] = []
        for name, _, _, parent, _, _ in spans:
            if parent < 0:
                self.section.append(name)
                self.owner.append(name)
            else:
                self.section.append(self.section[parent])
                self.owner.append(name if name.startswith("bench.") else self.owner[parent])
        self.index = defaultdict(list)
        for i, span in enumerate(spans):
            self.index[self.section[i], span[0]].append(i)

    def pick(self, section: str, name: str) -> list[int]:
        """Spans of ``name`` in ``section`` whose call returned."""
        return [i for i in self.index.get((section, name), ()) if self.spans[i][4]]

    def section_for(self, name: str) -> str:
        # The workload's own spans when it reaches the layer, else the probe's.
        return WORKLOAD_SECTION if self.pick(WORKLOAD_SECTION, name) else PROBE_SECTION

    def us(self, i: int) -> float:
        return (self.spans[i][2] - self.spans[i][1]) / 1e3

    def under(self, i: int, name: str) -> bool:
        """Whether span ``i`` runs inside a returned call of ``name``."""
        parent = self.spans[i][3]
        while parent >= 0 and self.spans[parent][0] != name:
            parent = self.spans[parent][3]
        return parent >= 0 and self.spans[parent][4]


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer figures of the traced workload, keyed by metric name.

    Per-state figures are a layer's total time over the states it handled;
    per-call figures are medians. A layer the workload never reaches is
    measured on the probe section instead.
    """
    s = SpanSet(spans)
    out: dict[str, float] = {}

    sec = s.section_for("cli.read")
    reads = s.pick(sec, "cli.read")
    out["cli.read_us"] = sum(map(s.us, reads)) / len(reads)
    # Report serialisation: the report dicts, the relation rows and the JSON
    # text, of the invocations that read a state.
    emitted = [
        i
        for name in ("cli.emit", "analyzer.to_dict", "cli.relation_row")
        for i in s.pick(sec, name)
        if s.owner[i].startswith("bench.cli.") and s.owner[i] != LIST_INVOCATION
    ]
    out["cli.emit_us"] = sum(map(s.us, emitted)) / len(reads)

    sec = s.section_for("states.parse")
    parses = s.pick(sec, "states.parse")
    out["states.parse_us"] = sum(map(s.us, parses)) / len(parses)

    sec = s.section_for("states.segre_embed")
    embeds = s.pick(sec, "states.segre_embed")
    out["states.segre_embed_us"] = sum(s.self_us[i] for i in embeds) / len(embeds)

    sec = s.section_for("analyzer.analyze")
    analyses = s.pick(sec, "analyzer.analyze")
    validations = [i for i in s.pick(sec, "states.validate") if s.under(i, "analyzer.analyze")]
    out["states.constructions_per_state"] = len(validations) / len(analyses)
    durations = [s.us(i) for i in analyses]
    out["analyzer.analyze_us"] = statistics.median(durations)
    out["analyzer.analyze_p99_us"] = _quantile(durations, 0.99)
    extracts = s.pick(sec, "analyzer.extract_factors")
    out["analyzer.extract_us"] = statistics.median(map(s.us, extracts))
    separable = sum(1 for i in analyses if s.spans[i][5])
    out["analyzer.extract_useful_ratio"] = separable / len(extracts)

    sec = s.section_for("toric.max_segre_residual")
    out["toric.certificate_us"] = statistics.median(map(s.us, s.pick(sec, "toric.max_segre_residual")))

    sec = s.section_for("toric.relation_residual")
    tables = [i for i in s.pick(sec, "toric.segre_relations") if s.owner[i] != LIST_INVOCATION]
    residuals = s.pick(sec, "toric.relation_residual")
    out["toric.relation_table_us"] = sum(map(s.us, tables + residuals)) / len(tables)
    out["toric.relations_per_state"] = len(residuals) / len(tables)

    for name in ("concurrence", "three_tangle", "m_tangle", "tau4_identities", "tau4_epsilon"):
        sec = s.section_for(f"measures.{name}")
        out[f"measures.{name}_us"] = statistics.median(map(s.us, s.pick(sec, f"measures.{name}")))
    sec = s.section_for("moment.moment_product")
    out["moment.product_us"] = statistics.median(map(s.us, s.pick(sec, "moment.moment_product")))
    return out
