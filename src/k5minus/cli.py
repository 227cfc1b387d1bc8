"""Command-line surface: detect / extract / verify / gen / audit / bench.

Graph inputs are graph6 (one graph per line) or plain edge-list text; the
format is picked by file extension (.g6 / .edges) unless --format overrides.
Analysis commands emit one JSON object per input graph on stdout.  Exit
codes: 0 success, 1 negative result (not found / not 4-connected / audit
failure / invalid certificate), 2 usage error or malformed certificate file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .audit import audit_tables
from .extractor import Found, NotFourConnected, extract, used_fallback
from .finder import BudgetExceeded, SearchBudget, find_subdivision
from .generator import BadSpec, FamilySpec, generate
from .graphs import Graph, GraphError, parse_edge_list, parse_graph6, write_graph6
from .patterns import Embedding, NAMED_PATTERNS, verify_embedding


def _read_graphs(path: str, fmt: str | None) -> list[Graph]:
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    if fmt is None:
        fmt = "edges" if path.endswith(".edges") else "g6"
    if fmt == "edges":
        return [parse_edge_list(text)]
    return [parse_graph6(line) for line in text.splitlines() if line.strip()]


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _cmd_detect(args) -> int:
    pattern = NAMED_PATTERNS[args.pattern]
    budget = SearchBudget(args.budget)
    worst = 0
    for g in _read_graphs(args.infile, args.format):
        res = find_subdivision(g, pattern, budget=budget)
        if isinstance(res, BudgetExceeded):
            _emit({"contains": None, "budget_exceeded": True,
                   "nodes_used": res.nodes_used})
            worst = max(worst, 1)
        elif res is None:
            _emit({"contains": False})
            worst = max(worst, 1)
        else:
            _emit({"contains": True, "certificate": res.to_json()})
    return worst


def _cmd_extract(args) -> int:
    budget = SearchBudget(args.budget)
    worst = 0
    for g in _read_graphs(args.infile, args.format):
        res = extract(g, budget)
        out: dict = {"outcome": res.outcome, "nodes_used": res.nodes_used}
        if isinstance(res, Found):
            out["certificate"] = res.embedding.to_json()
        elif isinstance(res, NotFourConnected):
            out["witness"] = res.witness.to_json()
            worst = max(worst, 1)
        else:
            out["reason"] = res.reason
            worst = max(worst, 1)
        if args.trace:
            out["trace"] = res.trace
        _emit(out)
    return worst


def _cmd_verify(args) -> int:
    graphs = _read_graphs(args.infile, args.format)
    with open(args.cert, "r", encoding="ascii") as fh:
        try:
            cert = json.load(fh)
            if not isinstance(cert, dict):
                raise ValueError("not a JSON object")
            emb = Embedding.from_json(cert.get("certificate", cert))
        except (KeyError, TypeError, ValueError) as exc:
            print(f"error: malformed certificate {args.cert}: {exc}", file=sys.stderr)
            return 2
    worst = 0
    for g in graphs:
        violations = verify_embedding(g, emb)
        _emit({"valid": not violations, "violations": violations})
        if violations:
            worst = 1
    return worst


def _cmd_gen(args) -> int:
    try:
        spec = FamilySpec.parse(args.family)
        # rejection-sampled families scan seed, seed+1, ... internally, so
        # successive corpus entries need well-separated seed blocks
        stride = 1000 if spec.family == "fourconnected" else 1
        for i in range(args.count):
            g = generate(spec, seed=args.seed + i * stride)
            sys.stdout.write(write_graph6(g) + "\n")
    except BadSpec as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_audit(args) -> int:
    report = audit_tables(SearchBudget(args.budget))
    _emit(report.to_json())
    return 0 if report.all_pass else 1


def _cmd_bench(args) -> int:
    from .finder import compiled_available

    budget = SearchBudget(args.budget)
    graphs = _read_graphs(args.infile, args.format)
    if args.backend == "both":
        backends = ["c", "py"] if compiled_available() else ["py"]
    elif args.backend == "c" and not compiled_available():
        print("error: compiled backend not built", file=sys.stderr)
        return 2
    else:
        backends = [args.backend]
    result: dict = {"graphs": len(graphs), "backends": {}}
    import os

    for backend in backends:
        os.environ["K5MINUS_BACKEND"] = backend
        wall = 0.0
        nodes = 0
        fallbacks = 0
        outcomes: dict[str, int] = {}
        try:
            for g in graphs:
                t0 = time.perf_counter()
                res = extract(g, budget)
                wall += time.perf_counter() - t0
                nodes += res.nodes_used
                fallbacks += 1 if used_fallback(res.trace) else 0
                outcomes[res.outcome] = outcomes.get(res.outcome, 0) + 1
        finally:
            os.environ.pop("K5MINUS_BACKEND", None)
        result["backends"][backend] = {
            "wall_time_s": round(wall, 4),
            "nodes": nodes,
            "fallback_rate": round(fallbacks / max(1, len(graphs)), 4),
            "outcomes": outcomes,
        }
    if args.backend == "both" and "c" in result["backends"]:
        c_t = result["backends"]["c"]["wall_time_s"]
        py_t = result["backends"]["py"]["wall_time_s"]
        result["speedup_c_over_py"] = round(py_t / c_t, 2) if c_t > 0 else None
    _emit(result)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="k5minus",
        description="Detect wheel and K5-minus subdivisions; extract "
        "certificates or 4-connectivity witnesses.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="search for a pattern subdivision")
    p.add_argument("--pattern", choices=sorted(NAMED_PATTERNS), required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=["g6", "edges"], default=None)
    p.add_argument("--budget", type=int, default=SearchBudget().node_limit)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("extract", help="K5-minus certificate or small cut")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=["g6", "edges"], default=None)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--budget", type=int, default=SearchBudget().node_limit)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("verify", help="recheck a certificate")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=["g6", "edges"], default=None)
    p.add_argument("--cert", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="emit graph6 corpus lines")
    p.add_argument("--family", required=True,
                   help="complete:N | multipartite:A,B,... | torus:M,N | "
                        "circulant:N:o1,o2 | random:N:P | fourconnected:N:P")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("audit", help="re-derive every table row and figure claim")
    p.add_argument("--budget", type=int, default=SearchBudget().node_limit)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("bench", help="extraction wall time and node counts")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=["g6", "edges"], default=None)
    p.add_argument("--budget", type=int, default=SearchBudget().node_limit)
    p.add_argument("--backend", choices=["auto", "c", "py", "both"], default="auto")
    p.set_defaults(func=_cmd_bench)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (GraphError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
