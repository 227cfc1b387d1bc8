import json

import pytest

from k5minus.cli import main
from k5minus.generator import complete, random_graph
from k5minus.graphs import write_edge_list, write_graph6


@pytest.fixture
def k5_file(tmp_path):
    path = tmp_path / "k5.g6"
    path.write_text(write_graph6(complete(5)) + "\n")
    return str(path)


@pytest.fixture
def c5_file(tmp_path):
    from k5minus.graphs import Graph

    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    path = tmp_path / "c5.g6"
    path.write_text(write_graph6(g) + "\n")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    lines = [json.loads(line) for line in out.splitlines() if line.strip()]
    return code, lines


def test_detect_k5minus_in_k5(capsys, k5_file):
    code, lines = run(capsys, ["detect", "--pattern", "k5minus", "--in", k5_file])
    assert code == 0
    assert lines[0]["contains"] is True
    assert "certificate" in lines[0]


def test_detect_deep_subdivision(capsys, tmp_path):
    from k5minus.patterns import K5_MINUS, Embedding, verify_embedding
    from test_finder import subdivided

    g = subdivided(K5_MINUS, 120)  # n = 1085
    path = tmp_path / "deep.g6"
    path.write_text(write_graph6(g) + "\n")
    code, lines = run(capsys, ["detect", "--pattern", "k5minus", "--in", str(path)])
    assert code == 0 and lines[0]["contains"] is True
    assert verify_embedding(g, Embedding.from_json(lines[0]["certificate"])) == []


def test_detect_negative_exit(capsys, c5_file):
    code, lines = run(capsys, ["detect", "--pattern", "k5minus", "--in", c5_file])
    assert code == 1
    assert lines[0]["contains"] is False


def test_extract_not_four_connected(capsys, c5_file):
    code, lines = run(capsys, ["extract", "--in", c5_file])
    assert code == 1
    assert lines[0]["outcome"] == "not_four_connected"
    assert len(lines[0]["witness"]["cut"]) <= 3


def test_extract_trace_flag(capsys, k5_file):
    code, lines = run(capsys, ["extract", "--in", k5_file, "--trace"])
    assert code == 0
    assert lines[0]["outcome"] == "found"
    assert isinstance(lines[0]["trace"], list)


def test_extract_verify_roundtrip(capsys, tmp_path, k5_file):
    code, lines = run(capsys, ["extract", "--in", k5_file])
    assert code == 0
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(lines[0]))
    code, lines = run(capsys, ["verify", "--in", k5_file, "--cert", str(cert)])
    assert code == 0
    assert lines[0]["valid"] is True


def test_verify_rejects_bad_certificate(capsys, tmp_path, k5_file, c5_file):
    code, lines = run(capsys, ["extract", "--in", k5_file])
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(lines[0]))
    code, lines = run(capsys, ["verify", "--in", c5_file, "--cert", str(cert)])
    assert code == 1
    assert lines[0]["valid"] is False
    assert lines[0]["violations"]


def test_verify_malformed_certificate_exit_2(capsys, tmp_path, k5_file):
    code, lines = run(capsys, ["extract", "--in", k5_file])
    cert = lines[0]["certificate"]
    bad_map = tmp_path / "bad_map.json"
    bad_map.write_text(json.dumps(dict(cert, branch_map=["x"] + cert["branch_map"][1:])))
    as_list = tmp_path / "list.json"
    as_list.write_text(json.dumps([cert]))
    for path in (bad_map, as_list):
        assert main(["verify", "--in", k5_file, "--cert", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: malformed certificate")


def test_streaming_multiple_lines(capsys, tmp_path):
    path = tmp_path / "corpus.g6"
    lines_in = [write_graph6(random_graph(7, 0.6, s)) for s in range(4)]
    path.write_text("\n".join(lines_in) + "\n")
    code, lines = run(capsys, ["extract", "--in", str(path)])
    assert len(lines) == 4


def test_edge_list_input(capsys, tmp_path):
    path = tmp_path / "k5.edges"
    path.write_text(write_edge_list(complete(5)))
    code, lines = run(capsys, ["detect", "--pattern", "w4", "--in", str(path)])
    assert code == 0 and lines[0]["contains"] is True


def test_gen_roundtrip(capsys, tmp_path):
    code = main(["gen", "--family", "complete:5", "--seed", "0", "--count", "1"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == write_graph6(complete(5))


def test_gen_random_count(capsys):
    code = main(["gen", "--family", "random:8:0.5", "--seed", "3", "--count", "5"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0 and len(out) == 5
    assert len(set(out)) == 5  # distinct seeds, distinct graphs


def test_gen_bad_spec(capsys):
    assert main(["gen", "--family", "nonsense:1"]) == 2


def test_audit_command(capsys):
    code, lines = run(capsys, ["audit"])
    assert code == 0
    assert lines[0]["all_pass"] is True


def test_bench_both_backends(capsys, k5_file):
    code, lines = run(capsys, ["bench", "--in", k5_file, "--backend", "both"])
    assert code == 0
    data = lines[0]
    assert "py" in data["backends"]
    assert data["backends"]["py"]["outcomes"] == {"found": 1}


def test_usage_error_exit_2(capsys, tmp_path):
    assert main(["detect", "--pattern", "k5minus"]) == 2
    assert main(["extract", "--in", "/nonexistent/file.g6"]) == 2
    non_ascii = tmp_path / "bad.g6"
    non_ascii.write_bytes(b"D\xc3\xa9\n")
    assert main(["extract", "--in", str(non_ascii)]) == 2
    bad_token = tmp_path / "bad.edges"
    bad_token.write_text("3 x\n")
    assert main(["extract", "--in", str(bad_token)]) == 2
    assert main(["extract", "--in", str(tmp_path)]) == 2
