"""Spans around the engine's layer boundaries, installed from outside.

`Tracer.install` replaces each traced function by a wrapper under the name
through which its callers reach it (the module that imported it), and
`Tracer.remove` puts the originals back.  A span is (name, start, end,
parent, op id, caller); spans stay in memory until `write` dumps them.

The finder is called from three modules, so the wrapper in each module
names the caller: `extractor` -> fallback, `_work` -> certify (composite
certification), `wheel` -> find_w4 or improve_once by the enclosing span.
`improve_once` reached through `_work.certify_shorter` is certification too.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter_ns

from checks import label_family

# (span name, [(module attribute on the api, attribute name, caller tag)])
PATCHES = [
    ("graphs.parse_graph6", [("graphs", "parse_graph6", None)]),
    ("generator.generate_4connected", [("generator", "generate_4connected", None)]),
    ("generator.random_graph", [("generator", "random_graph", None)]),
    ("connectivity.vertex_connectivity",
     [("generator", "vertex_connectivity", None), ("connectivity", "vertex_connectivity", None)]),
    ("connectivity.find_separator", [("extractor", "find_separator", None)]),
    ("connectivity.disjoint_paths",
     [("_work", "disjoint_paths", None), ("connectivity", "disjoint_paths", None)]),
    ("connectivity.verify_separator", [("extractor", "verify_separator", None)]),
    ("extractor.extract", [("extractor", "extract", None)]),
    ("wheel.find_w4", [("extractor", "find_w4", None)]),
    ("wheel.make_short", [("extractor", "make_short", None)]),
    ("wheel.improve_once",
     [("wheel", "improve_once", "make_short"), ("_work", "improve_once", "certify"),
      ("case_c", "improve_once", "case"), ("case_d", "improve_once", "case"),
      ("case_e", "improve_once", "case")]),
    ("finder.find_subdivision",
     [("wheel", "find_subdivision", "wheel"), ("_work", "find_subdivision", "certify"),
      ("extractor", "find_subdivision", "fallback")]),
    ("bridges.compute_bridges",
     [(m, "compute_bridges", None) for m in ("extractor", "case_c", "case_d", "case_e")]),
    ("bridges.bridge_path",
     [(m, "bridge_path", None) for m in ("extractor", "case_c", "case_d", "case_e")]),
    ("patterns.verify_embedding",
     [(m, "verify_embedding", None) for m in ("extractor", "_work", "wheel")]),
    ("case_c.run", [("case_c", "run", None)]),
    ("case_d.run", [("case_d", "run", None)]),
    ("case_e.run", [("case_e", "run", None)]),
]

FINDER_CALLERS = ("find_w4", "improve_once", "certify", "fallback")

# Trace label families: the 18 literal labels the engine emits, plus "a",
# "c_ii" and "d_ii", which only occur as prefixes of composed labels.
CASE_FAMILIES = (
    "start", "degree", "no_w4", "driver", "a", "b", "c", "c_i", "c_ii", "c_ii_1",
    "c_ii_2", "d", "d_i", "d_ii", "d_ii_1", "d_ii_2", "e", "e_1", "e_2",
    "escalate", "fallback",
)
OUTCOMES = ("found", "not_four_connected", "gave_up")

# span record fields
NAME, START, END, PARENT, OP, CALLER, INFO = range(7)


class Tracer:
    def __init__(self, api):
        self.api = api
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        for name, sites in PATCHES:
            for module_name, attr, caller in sites:
                module = getattr(self.api, module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, caller))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn, caller):
        spans, stack = self.spans, self.stack
        info = self._info_for(name)
        finder = name == "finder.find_subdivision"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            tag = caller
            if tag == "wheel":  # finder called from wheel: by enclosing span
                up = spans[parent] if parent >= 0 else None
                if up is not None and up[NAME] == "wheel.find_w4":
                    tag = "find_w4"
                elif up is not None and up[CALLER] == "certify":
                    tag = "certify"
                else:
                    tag = "improve_once"
            rec = [name, 0, 0, parent, self.op, tag, None]
            stack.append(len(spans))
            spans.append(rec)
            tracker = kwargs.get("tracker") if finder else None
            used = tracker.used if tracker is not None else 0
            rec[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter_ns()
                stack.pop()
            if info is not None:
                rec[INFO] = info(result, tracker.used - used if tracker is not None else None)
            return result

        return traced

    def _info_for(self, name):
        """What a span keeps of its result: a small value, never the result."""
        api = self.api
        if name == "finder.find_subdivision":
            def finder_info(result, nodes):
                if isinstance(result, api.finder.BudgetExceeded):
                    return (result.nodes_used if nodes is None else nodes, "budget")
                kind = "hit" if isinstance(result, api.patterns.Embedding) else "none"
                return (nodes or 0, kind)
            return finder_info
        if name == "wheel.make_short":
            return lambda result, _: len(result[1])
        if name == "wheel.improve_once":
            return lambda result, _: isinstance(result, api.wheel.ShorterWitness)
        if name == "generator.generate_4connected":
            return lambda result, _: True  # stays None when it raised
        return None

    # -- output ----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i, s[NAME], s[START], s[END], s[PARENT], s[OP], s[CALLER]]))
                fh.write("\n")

    def self_times(self) -> list[int]:
        """Span duration minus the time its direct children cover, in ns."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def layer_metrics(self) -> tuple[dict[str, float], dict]:
        """Per-layer counts, self times and ratios, plus the additivity check."""
        own = self.self_times()
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        nodes: Counter = Counter()
        hits: Counter = Counter()
        budget_exceeded = 0
        steps = 0
        improve_hits = 0
        gen_ok = 0
        root: list[int] = []  # index of the outermost extract span, or -1
        extract_wall = 0
        for i, s in enumerate(self.spans):
            name = s[NAME]
            calls[name] += 1
            self_ns[name] += own[i]
            p = s[PARENT]
            root.append(root[p] if p >= 0 and root[p] >= 0 else (i if name == "extractor.extract" else -1))
            if name == "extractor.extract" and root[i] == i:
                extract_wall += s[END] - s[START]
            # INFO stays None when the call raised
            if name == "finder.find_subdivision":
                n, kind = s[INFO] or (0, "raised")
                key = "finder." + s[CALLER]
                calls[key] += 1
                self_ns[key] += own[i]
                nodes[key] += n
                nodes[name] += n
                hits[key] += kind == "hit"
                budget_exceeded += kind == "budget"
            elif name == "wheel.make_short":
                steps += s[INFO] or 0
            elif name == "wheel.improve_once":
                improve_hits += s[INFO] is True
            elif name == "generator.generate_4connected":
                gen_ok += s[INFO] is True

        in_extract = sum(own[i] for i in range(len(own)) if root[i] >= 0)

        def ratio(a, b):
            return a / b if b else 0.0

        m: dict[str, float] = {}
        for name, _ in PATCHES:
            if name in ("generator.random_graph", "extractor.extract"):
                continue
            m[name + ".calls"] = calls[name]
            m[name + ".self_s"] = self_ns[name] / 1e9
        m["generator.random_graph.calls"] = calls["generator.random_graph"]
        m["generator.accept_ratio"] = ratio(gen_ok, calls["generator.random_graph"])
        m["finder.find_subdivision.nodes"] = nodes["finder.find_subdivision"]
        for caller in FINDER_CALLERS:
            key = "finder." + caller
            m[key + ".calls"] = calls[key]
            m[key + ".self_s"] = self_ns[key] / 1e9
            m[key + ".nodes"] = nodes[key]
            if caller in ("improve_once", "certify"):
                m[key + ".hit_ratio"] = ratio(hits[key], calls[key])
        m["finder.budget_exceeded"] = budget_exceeded
        m["wheel.make_short.steps"] = steps
        m["wheel.improve_once.hit_ratio"] = ratio(improve_hits, calls["wheel.improve_once"])
        m["extractor.extract.calls"] = calls["extractor.extract"]
        m["extractor.extract.self_s"] = self_ns["extractor.extract"] / 1e9
        m["trace.extract_wall_s"] = extract_wall / 1e9
        m["trace.spans"] = len(self.spans)
        check = {"extract_wall_ns": extract_wall, "self_sum_ns": in_extract}
        return m, check


def outcome_metrics(results) -> dict[str, float]:
    """Trace-label family and outcome counts over a pass's extract results."""
    fam: Counter = Counter()
    outs: Counter = Counter()
    for res in results:
        outs[res.outcome] += 1
        fam.update(label_family(ev["case_label"]) for ev in res.trace)
    m: dict[str, float] = {}
    for f in CASE_FAMILIES:
        m["extractor.case." + f] = fam.pop(f, 0)
    m["extractor.case.other"] = sum(fam.values())
    for o in OUTCOMES:
        m["extractor.outcome." + o] = outs[o]
    return m


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name, _ in PATCHES:
        if name not in ("generator.random_graph", "extractor.extract"):
            units[name + ".calls"] = "count"
            units[name + ".self_s"] = "s"
    units["generator.random_graph.calls"] = "count"
    units["generator.accept_ratio"] = "ratio"
    units["finder.find_subdivision.nodes"] = "count"
    for caller in FINDER_CALLERS:
        units[f"finder.{caller}.calls"] = "count"
        units[f"finder.{caller}.self_s"] = "s"
        units[f"finder.{caller}.nodes"] = "count"
        if caller in ("improve_once", "certify"):
            units[f"finder.{caller}.hit_ratio"] = "ratio"
    units["finder.budget_exceeded"] = "count"
    units["wheel.make_short.steps"] = "count"
    units["wheel.improve_once.hit_ratio"] = "ratio"
    units["extractor.extract.calls"] = "count"
    units["extractor.extract.self_s"] = "s"
    for fam in CASE_FAMILIES + ("other",):
        units["extractor.case." + fam] = "count"
    for outcome in OUTCOMES:
        units["extractor.outcome." + outcome] = "count"
    units["failed_share"] = "ratio"
    units["fallback_share"] = "ratio"
    units["trace.extract_wall_s"] = "s"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units
