"""Soundness checks that do not rest on `assert`.

A search that hands back a certificate failing verification may only cost
the claim it was meant to certify; the extractor still returns a verified
answer, also under `python -O`, which strips `assert` statements.  A
shortening step whose rim fails verification raises instead of handing back
an invalid wheel.
"""

import os
import subprocess
import sys
from pathlib import Path

from k5minus import _work, extractor, wheel
from k5minus._work import StepFound, StepImprove
from k5minus.extractor import Found, extract
from k5minus.generator import circulant
from k5minus.patterns import Embedding, verify_embedding
from k5minus.wheel import ShorterWitness

SRC = Path(__file__).resolve().parents[1] / "src"


def tampering(find, calls):
    """find_subdivision whose embeddings lose the last vertex of one path."""

    def tampered(*args, **kwargs):
        emb = find(*args, **kwargs)
        if isinstance(emb, Embedding):
            calls.append(emb)
            return Embedding(emb.pattern, emb.branch_map, (emb.paths[0][:-1],) + emb.paths[1:])
        return emb

    return tampered


def tampered_wheel_step_raises() -> bool:
    """improve_once on C_9(1,2) with a rim search whose result is damaged."""
    g = circulant(9, (1, 2))
    w = wheel.find_w4(g)
    find = wheel.find_subdivision
    wheel.find_subdivision = tampering(find, [])
    try:
        wheel.improve_once(g, w)
    except AssertionError as exc:
        return "invalid wheel" in str(exc)
    finally:
        wheel.find_subdivision = find
    return False


def test_tampered_wheel_step_raises():
    assert tampered_wheel_step_raises()


def test_tampered_claim_search_gives_verified_answer(monkeypatch):
    calls = []
    monkeypatch.setattr(_work, "find_subdivision", tampering(_work.find_subdivision, calls))
    g = circulant(9, (1, 2))  # reaches case (c), whose K5-minus claim is certified
    res = extract(g)
    assert calls
    assert isinstance(res, Found)
    assert verify_embedding(g, res.embedding) == []


def test_invalid_found_step_falls_back(monkeypatch):
    g = circulant(9, (1, 2))
    good = extract(g).embedding
    bad = Embedding(good.pattern, good.branch_map, (good.paths[0][:-1],) + good.paths[1:])
    monkeypatch.setattr(extractor, "_analyze", lambda ctx, wheel, depth: StepFound(bad))
    res = extract(g)
    assert isinstance(res, Found)
    assert verify_embedding(g, res.embedding) == []
    assert res.trace[-1]["case_label"] == "fallback"


def test_improve_step_not_shorter_falls_back(monkeypatch):
    """The driver's progress guard: a wheel no shorter than the current one
    is not taken, so the case loop cannot cycle."""

    def same_wheel(ctx, wheel, depth):
        return StepImprove(ShorterWitness(wheel, tuple(len(s) - 1 for s in wheel.spokes)))

    g = circulant(9, (1, 2))
    monkeypatch.setattr(extractor, "_analyze", same_wheel)
    res = extract(g)
    assert isinstance(res, Found)
    assert verify_embedding(g, res.embedding) == []
    fallbacks = [ev["action"] for ev in res.trace if ev["case_label"] == "fallback"]
    assert fallbacks == ["search:improve_guard"]


def test_tampered_claim_search_under_optimize():
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import test_soundness as t\n"
        "from k5minus import _work\n"
        "from k5minus.extractor import Found, extract\n"
        "from k5minus.generator import circulant\n"
        "from k5minus.patterns import verify_embedding\n"
        "calls = []\n"
        "_work.find_subdivision = t.tampering(_work.find_subdivision, calls)\n"
        "g = circulant(9, (1, 2))\n"
        "res = extract(g)\n"
        "ok = sys.flags.optimize and calls and isinstance(res, Found) \\\n"
        "    and verify_embedding(g, res.embedding) == [] \\\n"
        "    and t.tampered_wheel_step_raises()\n"
        "print('verified' if ok else 'unverified')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script, str(Path(__file__).resolve().parent)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "verified"
