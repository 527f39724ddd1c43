"""End-to-end runs through the argument parser; nothing here shells out."""

import importlib
import io
from pathlib import Path

import pytest

from ptpig import (
    canonical_sequence,
    graph,
    parse_tagged_graph,
    probe_subgraph,
    recognize_proper_interval,
    serialize_tagged_graph,
    tagged_graph,
)
from ptpig import cli, proper
from ptpig.cli import main
from ptpig.recognize import MissingWindow

from .conftest import (
    BAD_WIRE_TEXTS,
    C4_CERT,
    C4_EDGES,
    EX33_EDGES,
    EX36_EDGES,
    G1_EDGES,
    TABLE_CERT,
    no_line_scan,
)

# the module itself: the package's ``recognize`` attribute is the function
REC = importlib.import_module("ptpig.recognize")

TABLE_CERT_TEXT = "".join(f"{v} {lo} {hi}\n" for v, (lo, hi) in sorted(TABLE_CERT.items()))


def write_graph(tmp_path, name, p, q, edges):
    path = tmp_path / name
    path.write_text(serialize_tagged_graph(tagged_graph(p, q, edges)), encoding="utf-8")
    return str(path)


def test_recognize_accept(tmp_path, capsys):
    path = write_graph(tmp_path, "a.txt", 8, 6, EX36_EDGES)
    assert main(["recognize", path]) == 0
    assert capsys.readouterr().out == "ACCEPT\n"


def test_recognize_reject_with_witness(tmp_path, capsys):
    path = write_graph(tmp_path, "r.txt", 6, 2, EX33_EDGES)
    assert main(["recognize", path]) == 1
    assert capsys.readouterr().out == "REJECT A1_FAIL n1\n"


def test_recognize_reject_probe_part(tmp_path, capsys):
    path = write_graph(tmp_path, "g1.txt", 4, 3, G1_EDGES)
    assert main(["recognize", path]) == 1
    assert capsys.readouterr().out == "REJECT PROBE_NOT_PROPER\n"


def test_recognize_missing_file(tmp_path, capsys):
    assert main(["recognize", str(tmp_path / "absent.txt")]) == 2
    assert "error" in capsys.readouterr().err


def test_recognize_bad_header(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("graph 2 1\ne 1 2\n", encoding="utf-8")
    assert main(["recognize", str(bad)]) == 2
    # input errors, not internal ones, however the text is read
    for text, message in BAD_WIRE_TEXTS:
        capsys.readouterr()
        bad.write_text(text, encoding="utf-8")
        assert main(["recognize", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_recognize_hostile_header(tmp_path, capsys):
    # one line asking for 10^8 vertices: refused before any allocation
    big = tmp_path / "big.txt"
    big.write_text("ptpig 100000000 0\n", encoding="utf-8")
    assert main(["recognize", str(big)]) == 2
    assert "error" in capsys.readouterr().err


def test_recognize_oversized_input(tmp_path, capsys, monkeypatch):
    # past the cap the file is refused after reading one byte more than it
    path = write_graph(tmp_path, "a.txt", 8, 6, EX36_EDGES)
    size = Path(path).stat().st_size
    reads = []

    class Recording(io.BytesIO):
        def read(self, n=-1):
            reads.append(n)
            return super().read(n)

    monkeypatch.setattr(cli, "open", lambda path, mode: Recording(Path(path).read_bytes()),
                        raising=False)
    monkeypatch.setattr(cli, "MAX_INPUT_BYTES", size - 1)
    assert main(["recognize", path]) == 2
    assert reads == [size]
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {path}: longer than {size - 1} bytes"]
    monkeypatch.setattr(cli, "MAX_INPUT_BYTES", size)
    assert main(["recognize", path]) == 0
    assert capsys.readouterr().out == "ACCEPT\n"


def test_certify_stdout_golden(tmp_path, capsys):
    path = write_graph(tmp_path, "a.txt", 8, 6, EX36_EDGES)
    assert main(["certify", path]) == 0
    assert capsys.readouterr().out == TABLE_CERT_TEXT


def test_certify_k2(tmp_path, capsys):
    path = write_graph(tmp_path, "k2.txt", 2, 0, [(1, 2)])
    assert main(["certify", path]) == 0
    assert capsys.readouterr().out == "1 1 3\n2 2 4\n"


def test_certify_reject_writes_nothing(tmp_path, capsys):
    path = write_graph(tmp_path, "r.txt", 6, 2, EX33_EDGES)
    out = tmp_path / "cert.txt"
    assert main(["certify", path, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "REJECT A1_FAIL n1" in captured.err
    assert not out.exists()


def test_certify_then_verify(tmp_path, capsys):
    path = write_graph(tmp_path, "a.txt", 8, 6, EX36_EDGES)
    cert = tmp_path / "cert.txt"
    assert main(["certify", path, "--out", str(cert)]) == 0
    assert main(["verify", path, str(cert)]) == 0
    assert capsys.readouterr().out == "VALID\n"


def test_verify_explicit_representation(tmp_path, capsys):
    path = write_graph(tmp_path, "c4.txt", 3, 1, C4_EDGES)
    cert = tmp_path / "c4cert.txt"
    lines = [f"{v} {lo} {hi}\n" for v, (lo, hi) in sorted(C4_CERT.items())]
    # comments and blank lines are skipped
    cert.write_text("# C4\n" + "".join(lines[:2]) + "\n   \n" + "".join(lines[2:]) + "# end")
    assert main(["verify", path, str(cert)]) == 0


def test_verify_tampered(tmp_path, capsys):
    path = write_graph(tmp_path, "a.txt", 8, 6, EX36_EDGES)
    tampered = dict(TABLE_CERT)
    tampered[1] = (1, 20)
    cert = tmp_path / "bad.txt"
    cert.write_text("".join(f"{v} {lo} {hi}\n" for v, (lo, hi) in sorted(tampered.items())))
    assert main(["verify", path, str(cert)]) == 1
    assert capsys.readouterr().out == "INVALID containment 1 2\n"


def test_verify_unknown_vertex(tmp_path, capsys):
    path = write_graph(tmp_path, "a.txt", 8, 6, EX36_EDGES)
    cert = tmp_path / "extra.txt"
    cert.write_text(TABLE_CERT_TEXT + "99 5 6\n")
    assert main(["verify", path, str(cert)]) == 1
    assert capsys.readouterr().out == "INVALID unknown-vertex 99 99\n"


def test_verify_duplicate_cert_line(tmp_path, capsys):
    path = write_graph(tmp_path, "k2.txt", 2, 0, [(1, 2)])
    cert = tmp_path / "dup.txt"
    for text, message in [
        ("1 1 3\n1 1 3\n2 2 4\n", "line 2: duplicate vertex 1"),
        ("1 1 3\n2 2\n", "line 2: expected '<vertex> <lo> <hi>'"),
        ("# a\n1 a 3\n", "line 2: invalid literal for int() with base 10: 'a'"),
        ("1 +1 3\n", "line 1: invalid literal for int() with base 10: '+1'"),
        ("1 1 1_0\n", "line 1: invalid literal for int() with base 10: '1_0'"),
        ("\u0661 1 3\n", "line 1: invalid literal for int() with base 10: '\u0661'"),
    ]:
        cert.write_text(text)
        assert main(["verify", path, str(cert)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


# the cases of test_verify_duplicate_cert_line, then texts outside
# _cert_lines' form
CERT_TEXTS = [
    "1 1 3\n1 1 3\n2 2 4\n", "1 1 3\n2 2\n", "# a\n1 a 3\n", "1 +1 3\n", "1 1 1_0\n",
    "\u0661 1 3\n",
    "# comment\n1 1 3  # trailing\n\n2 2 4\n", "1 1 3\r\n2 2 4\r\n", "1\t1 3\n2 2\t4\n",
    "1 1 3\n2 2 4", "1 1 3 4\n", "1 1 " + "9" * 5000 + "\n", " 1 1 3\n", "1  1 3\n",
    "-1 -2 -3\n0 007 -0\n", "", "\n",
]


def _read_cert_both(text: str) -> list:
    """What _parse_cert and the line scanner each return, or their error."""
    out = []
    for read in (cli._parse_cert, cli._scan_cert):
        try:
            out.append(read(text))
        except graph.GraphFormatError as exc:
            out.append(f"error: {exc}")
    return out


def test_bulk_cert_reader_matches_the_line_scanner(monkeypatch):
    for text in CERT_TEXTS:
        bulk, scanned = _read_cert_both(text)
        assert bulk == scanned, text
    # the writer's output over three chunks, read without the scanner
    cert = {v: (2 * v - 1, 2 * v) for v in range(1, 120_001)}
    text = cli._cert_lines(cert)
    assert len(text) > 2 * cli._CHUNK
    with monkeypatch.context() as mp:
        mp.setattr(cli, "_scan_cert", no_line_scan)
        assert cli._parse_cert(text) == cert
    # a repeat in a later chunk, and the texts above, over small chunks
    monkeypatch.setattr(cli, "_CHUNK", 7)
    small = cli._cert_lines({v: (v, -v) for v in range(1, 40)})
    for text in [small, small + "3 1 1\n", small.replace("\n", "\r\n", 1)] + CERT_TEXTS:
        bulk, scanned = _read_cert_both(text)
        assert bulk == scanned, text
    assert _read_cert_both(small + "3 1 1\n")[0] == "error: line 40: duplicate vertex 3"


def test_canonical_golden(tmp_path, capsys):
    from .conftest import EX22_EDGES

    path = write_graph(tmp_path, "p.txt", 8, 0, EX22_EDGES)
    assert main(["canonical", path]) == 0
    line = capsys.readouterr().out.strip()
    assert line in (
        "1 2 1 3 4 5 2 6 3 4 7 5 6 8 7 8",
        "8 7 8 6 5 7 4 3 6 5 2 4 3 1 2 1",
    )


def test_canonical_checks_the_ordering_once(tmp_path, capsys, monkeypatch):
    # the block check alone decides: no second pass over vertex spans, and
    # the output is the stair sequence of the checked vertex ordering
    spans = proper._umbrella_spans
    calls = []

    def spy(*args):
        calls.append(args)
        return spans(*args)

    monkeypatch.setattr(proper, "_umbrella_spans", spy)
    # twins {3, 4} and {6, 7}, a second component 9-10 and nonprobes
    g = tagged_graph(10, 2, [(1, 2), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5), (5, 6), (5, 7),
                             (6, 7), (6, 8), (7, 8), (9, 10), (2, 11), (3, 11), (10, 12)])
    path = tmp_path / "g.txt"
    path.write_text(serialize_tagged_graph(g), encoding="utf-8")
    assert main(["canonical", str(path)]) == 0
    assert calls == []
    pg = probe_subgraph(g)
    want = canonical_sequence(pg, recognize_proper_interval(pg)).seq
    assert capsys.readouterr().out == " ".join(map(str, want)) + "\n"


def test_canonical_rejects_claw(tmp_path, capsys):
    path = write_graph(tmp_path, "g1.txt", 4, 3, G1_EDGES)
    assert main(["canonical", path]) == 1
    assert "PROBE_NOT_PROPER" in capsys.readouterr().err


def test_oracle_command(tmp_path, capsys):
    good = write_graph(tmp_path, "a.txt", 8, 6, EX36_EDGES)
    assert main(["oracle", good]) == 0
    bad = write_graph(tmp_path, "r.txt", 6, 2, EX33_EDGES)
    assert main(["oracle", bad]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["ACCEPT", "REJECT"]


def test_oracle_command_over_budget(tmp_path, capsys):
    path = write_graph(tmp_path, "big.txt", 9, 0, [(i, i + 1) for i in range(1, 9)])
    assert main(["oracle", path]) == 2


def test_gen_roundtrip(tmp_path, capsys):
    g = str(tmp_path / "g.txt")
    c = str(tmp_path / "c.txt")
    assert main(["gen", "12", "4", "--seed", "3", "--out", g, "--cert", c]) == 0
    assert main(["recognize", g]) == 0
    assert main(["verify", g, c]) == 0


def test_gen_to_stdout_parses(tmp_path, capsys, monkeypatch):
    assert main(["gen", "5", "2", "--seed", "9"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("ptpig 5 2\n")
    # what gen writes is read in bulk
    assert main(["gen", "60", "20", "--seed", "4"]) == 0
    text = capsys.readouterr().out
    monkeypatch.setattr(graph, "_scan_lines", no_line_scan)
    g = parse_tagged_graph(text)
    assert (g.p, g.q) == (60, 20) and g.edge_count == text.count("\ne ")


def test_gen_cert_needs_unperturbed(tmp_path, capsys):
    assert main(["gen", "5", "2", "--perturb", "1", "--cert", str(tmp_path / "c.txt")]) == 2


def _no_planting(spec):
    raise AssertionError("generate reached")


def test_gen_bad_counts_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "generate", _no_planting)
    assert main(["gen", "-1", "0"]) == 2
    assert capsys.readouterr().err == "error: counts must be non-negative\n"
    assert main(["gen", "3", "1", "--overlap", "1.5"]) == 2
    # over the vertex limit: refused before anything is planted
    assert main(["gen", "1000000", "1"]) == 2
    assert capsys.readouterr().err.endswith("error: more than 1000000 vertices\n")


def test_gen_numerals_are_ascii_digits(capsys, monkeypatch):
    # the command line reads numbers as the wire format does: '1_0', '+2'
    # and non-ASCII digits are usage errors, before anything is planted
    monkeypatch.setattr(cli, "generate", _no_planting)
    for argv in (["gen", "1_0", "2"], ["gen", "10", "+2"], ["gen", "5", "2", "--seed", "١"],
                 ["gen", "5", "2", "--perturb", "+1"], ["bench", "--seed", "1_0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err


def test_recognize_undecodable_file(tmp_path, capsys):
    bad = tmp_path / "bin.txt"
    bad.write_bytes(b"ptpig 2 0\n\xff\xfe\n")
    assert main(["recognize", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_bench_single_size(capsys):
    assert main(["bench", "--sizes", "400", "--seed", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    # row reports realized |V|+|E|, which tops the requested floor
    size, seconds = out[0].split()
    assert int(size) >= 400 and float(seconds) > 0
    assert out[1] == "slope undefined (single size)"


def test_bench_two_sizes_print_a_slope(capsys):
    assert main(["bench", "--sizes", "200,400", "--seed", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3
    assert [len(row.split()) for row in out[:2]] == [2, 2]
    label, slope = out[2].split()
    assert label == "slope" and float(slope) > 0


def test_bench_plants_every_size_then_times_them_in_turn(monkeypatch):
    # a load change part way through should reach every size alike, so no
    # size is timed twice before every size is timed once
    events = []
    generate, recognize = cli.generate, cli.recognize

    def planting(spec):
        events.append(("plant", spec.probes + spec.nonprobes))
        return generate(spec)

    def timing(g):
        events.append(("time", g.n))
        return recognize(g)

    monkeypatch.setattr(cli, "generate", planting)
    monkeypatch.setattr(cli, "recognize", timing)
    sizes = (300, 400, 500)
    rep = cli.run_bench(sizes, seed=1)
    assert events == [("plant", n) for n in sizes] + [("time", n) for n in sizes] * 5
    assert len(rep.rows) == 3 and rep.slope is not None


def test_bench_rejects_unsorted_sizes(capsys):
    assert main(["bench", "--sizes", "400,300"]) == 2


def test_bench_rejects_malformed_sizes(capsys, monkeypatch):
    # argparse handles the type error itself and exits with usage status 2
    monkeypatch.setattr(cli, "generate", _no_planting)
    for sizes, message in [("4x0", "expected comma-separated integers"),
                           ("1_0,+2_0", "expected comma-separated integers"),
                           ("٤00", "expected comma-separated integers"),
                           ("400,1000001", "sizes must not exceed 1000000"),
                           ("0", "sizes must be positive")]:
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--sizes", sizes])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    def boom(g):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("ptpig.cli.recognize", boom)
    path = write_graph(tmp_path, "a.txt", 8, 6, EX36_EDGES)
    assert main(["recognize", path]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["internal error: RecursionError: maximum recursion depth exceeded"]


def test_internal_value_error_exits_3(tmp_path, capsys, monkeypatch):
    # sequence_from_iterable and PQTree raise ValueError on broken
    # invariants; that is a fault of the program, not bad input
    def boom(g):
        raise ValueError("every element must occur exactly twice")

    monkeypatch.setattr("ptpig.cli.recognize", boom)
    path = write_graph(tmp_path, "a.txt", 8, 6, EX36_EDGES)
    assert main(["recognize", path]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["internal error: ValueError: every element must occur exactly twice"]


def test_missing_window_after_arrangement_exits_3(tmp_path, capsys, monkeypatch):
    # once the components are arranged every window exists, so a missing
    # one is a fault of the program and must not read as REJECT
    def lost(g, cs, windows=None):
        raise MissingWindow(g.p + 1)

    monkeypatch.setattr(REC, "build_certificate", lost)
    with pytest.raises(MissingWindow):
        REC.recognize(tagged_graph(8, 6, EX36_EDGES))
    path = write_graph(tmp_path, "a.txt", 8, 6, EX36_EDGES)
    assert main(["recognize", path]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["internal error: MissingWindow: sequence admits no window for nonprobe 9"]
