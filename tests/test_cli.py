"""End-to-end runs through the argument parser; nothing here shells out."""

import io
from pathlib import Path

import pytest

from ptpig import serialize_tagged_graph, tagged_graph
from ptpig import cli
from ptpig.cli import main

from .conftest import C4_CERT, C4_EDGES, EX33_EDGES, EX36_EDGES, G1_EDGES, TABLE_CERT

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
    cert.write_text("".join(f"{v} {lo} {hi}\n" for v, (lo, hi) in sorted(C4_CERT.items())))
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
    cert.write_text("1 1 3\n1 1 3\n2 2 4\n")
    assert main(["verify", path, str(cert)]) == 2


def test_canonical_golden(tmp_path, capsys):
    from .conftest import EX22_EDGES

    path = write_graph(tmp_path, "p.txt", 8, 0, EX22_EDGES)
    assert main(["canonical", path]) == 0
    line = capsys.readouterr().out.strip()
    assert line in (
        "1 2 1 3 4 5 2 6 3 4 7 5 6 8 7 8",
        "8 7 8 6 5 7 4 3 6 5 2 4 3 1 2 1",
    )


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


def test_gen_to_stdout_parses(tmp_path, capsys):
    assert main(["gen", "5", "2", "--seed", "9"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("ptpig 5 2\n")


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
    for sizes in ("4x0", "400,1000001"):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--sizes", sizes])
        assert exc.value.code == 2
    assert "sizes must not exceed 1000000" in capsys.readouterr().err


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
