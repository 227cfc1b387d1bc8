"""Golden guard: the engine's answers, node counts and traces stay fixed.

The inputs and the recorder live in golden_cases.py; regenerate the files
with `PYTHONPATH=src python tests/golden_cases.py` only when a change to the
engine's observable behaviour is intended.
"""

import pytest

import golden_cases as gc
from k5minus.graphs import parse_graph6


def _diff(got: dict, want: dict) -> str:
    keys = [k for k in want if got.get(k) != want[k]]
    return f"{want['name']}: differs in {keys}"


def test_golden_extract():
    records = gc.read_jsonl(gc.GOLDEN / "extract.jsonl")
    assert len(records) == 223 + 168  # acceptance corpus + sparse4 inputs
    bad = []
    for want in records:
        got = gc.extract_record(want["name"], parse_graph6(want["graph6"]))
        if got != want:
            bad.append(_diff(got, want))
    assert not bad, bad[:10]


@pytest.fixture(scope="module")
def handler_cases():
    return {name: (g, call) for name, g, call in gc.handler_cases()}


def test_golden_handlers(handler_cases):
    records = gc.read_jsonl(gc.GOLDEN / "handlers.jsonl")
    assert [r["name"] for r in records] == list(handler_cases)
    bad = []
    for want in records:
        g, call = handler_cases[want["name"]]
        got = gc.handler_record(want["name"], g, call)
        if got != want:
            bad.append(_diff(got, want))
    assert not bad, bad[:10]


def test_golden_flow():
    records = gc.read_jsonl(gc.GOLDEN / "flow.jsonl")
    assert [r["name"] for r in records] == [name for name, _ in gc.flow_inputs()]
    bad = []
    for want in records:
        got = gc.flow_record(want["name"], parse_graph6(want["graph6"]))
        if got != want:
            bad.append(_diff(got, want))
    assert not bad, bad[:10]
