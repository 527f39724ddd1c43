"""Command-line front end.

Subcommands: recognize, certify, verify, canonical, oracle, gen, bench.
Exit codes: 0 accept/valid, 1 reject/invalid, 2 input or usage errors,
3 internal errors (any other exception, so that one never reads as REJECT).
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .generate import GenSpec, generate
from .graph import (
    _CHUNK,
    MAX_INPUT_BYTES,
    MAX_VERTICES,
    GraphFormatError,
    TaggedGraph,
    parse_int,
    parse_tagged_graph,
    probe_subgraph,
    serialize_tagged_graph,
)
from .oracle import OracleBudgetExceeded, oracle_recognize
from .proper import stair_sequence
from .recognize import RecognitionResult, recognize
from .verify import verify_certificate

_BENCH_SIZES = (10_000, 20_000, 40_000, 80_000)
_SLOPE_WARN = 1.25


@dataclass(frozen=True)
class BenchRow:
    size: int  # |V| + |E|
    seconds: float


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]
    slope: float | None  # log-log fit; None for a single size


def _read_text(path: str) -> str:
    """A file's text, refused once it runs past MAX_INPUT_BYTES: one byte
    more than the cap is all that is read of a longer file."""
    with open(path, "rb") as f:
        data = f.read(MAX_INPUT_BYTES + 1)
    if len(data) > MAX_INPUT_BYTES:
        raise GraphFormatError(f"{path}: longer than {MAX_INPUT_BYTES} bytes")
    return data.decode("utf-8")


def _load_graph(path: str) -> TaggedGraph:
    return parse_tagged_graph(_read_text(path))


def _verdict_line(res: RecognitionResult, p: int) -> str:
    if res.accepted:
        return "ACCEPT"
    if res.witness is None:
        return f"REJECT {res.reason}"
    return f"REJECT {res.reason} n{res.witness - p}"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cert_lines(cert: dict) -> str:
    return "".join(f"{v} {lo} {hi}\n" for v, (lo, hi) in sorted(cert.items()))


def _parse_cert(text: str) -> dict:
    """Vertex -> (lo, hi) from certificate text, ``#`` comments and blank
    lines ignored.  Text in _cert_lines' form is read in bulk; any other
    text, or one that fails a check of the bulk reader (a duplicate vertex,
    a numeral int() refuses), goes through a line scanner, which alone
    raises, naming the line.  Both give the same map."""
    cert = _read_cert_lines(text)
    return cert if cert is not None else _scan_cert(text)


_NUMERAL_CHARS = dict.fromkeys(map(ord, "-0123456789"))  # deleted by translate


def _read_cert_lines(text: str) -> dict | None:
    """The map of a text in _cert_lines' form, "<v> <lo> <hi>" lines of
    numerals -?[0-9]+, or None if the text is not in that form or fails a
    check.  Each chunk of about _CHUNK characters, cut after a newline, is
    checked whole before it is split into tokens, as parse_tagged_graph's
    bulk reader does.  With its numerals' characters deleted, a chunk of k
    lines in that form reads two spaces and a newline k times, and it splits
    into 3k tokens, none empty; int() then refuses a minus sign anywhere but
    first.  Deleting characters is several times cheaper than matching a
    regular expression of that form."""
    cert: dict = {}
    lines = pos = 0
    while pos < len(text):
        cut = text.find("\n", pos + _CHUNK) + 1 or len(text)
        chunk = text[pos:cut]
        pos = cut
        k = chunk.count("\n")
        if chunk.translate(_NUMERAL_CHARS) != "  \n" * k:
            return None
        tokens = chunk.split()  # v lo hi v lo hi ...
        if len(tokens) != 3 * k:
            return None
        try:
            cert.update(zip(map(int, tokens[0::3]),
                            zip(map(int, tokens[1::3]), map(int, tokens[2::3]))))
        except ValueError:  # a misplaced minus, or more digits than int() takes
            return None
        lines += k
    return cert if len(cert) == lines else None  # else a vertex repeats


def _scan_cert(text: str) -> dict:
    """_parse_cert for any text, line by line."""
    cert: dict = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise GraphFormatError(f"line {ln}: expected '<vertex> <lo> <hi>'")
        try:
            v, lo, hi = map(parse_int, parts)
        except ValueError as exc:
            raise GraphFormatError(f"line {ln}: {exc}") from None
        if v in cert:
            raise GraphFormatError(f"line {ln}: duplicate vertex {v}")
        cert[v] = (lo, hi)
    return cert


def _cmd_recognize(args) -> int:
    g = _load_graph(args.path)
    res = recognize(g)
    print(_verdict_line(res, g.p))
    return 0 if res.accepted else 1


def _cmd_certify(args) -> int:
    g = _load_graph(args.path)
    res = recognize(g)
    if not res.accepted:
        print(_verdict_line(res, g.p), file=sys.stderr)
        return 1
    _emit(_cert_lines(res.certificate), args.out)
    return 0


def _cmd_verify(args) -> int:
    g = _load_graph(args.path)
    cert = _parse_cert(_read_text(args.cert))
    bad = verify_certificate(g, cert)
    if bad is None:
        print("VALID")
        return 0
    kind, u, v = bad
    print(f"INVALID {kind} {u} {v}")
    return 1


def _cmd_canonical(args) -> int:
    g = _load_graph(args.path)
    cs = stair_sequence(probe_subgraph(g))
    if cs is None:
        print("REJECT PROBE_NOT_PROPER", file=sys.stderr)
        return 1
    print(" ".join(map(str, cs.seq)))
    return 0


def _cmd_oracle(args) -> int:
    g = _load_graph(args.path)
    try:
        ok = oracle_recognize(g)
    except OracleBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("ACCEPT" if ok else "REJECT")
    return 0 if ok else 1


def _cmd_gen(args) -> int:
    try:  # GenSpec raises ValueError on bad counts or densities
        if args.cert is not None and args.perturb:
            raise ValueError("--cert requires perturb=0")
        spec = GenSpec(probes=args.probes, nonprobes=args.nonprobes, seed=args.seed,
                       overlap=args.overlap, span=args.span, perturb=args.perturb)
    except ValueError as exc:  # a usage error, not an internal one
        print(f"error: {exc}", file=sys.stderr)
        return 2
    g, cert = generate(spec)
    _emit(serialize_tagged_graph(g), args.out)
    if args.cert is not None:
        Path(args.cert).write_text(_cert_lines(cert), encoding="utf-8")
    return 0


def run_bench(sizes, seed: int) -> BenchReport:
    """Plant one instance per size, then time recognize on every size in
    turn, 5 rounds, and take each size's median.  Interleaved rounds spread
    a change in the machine's load over every size alike, where timing one
    size after another would tilt the slope."""
    graphs = []
    for n in sizes:
        q = n // 6
        p = n - q
        g, _ = generate(
            GenSpec(probes=p, nonprobes=q, seed=seed + n, overlap=0.3,
                    span=min(1.0, 3.5 / (2 * p)))
        )
        graphs.append(g)
    samples = [[] for _ in graphs]
    for _ in range(5):
        for n, g, times in zip(sizes, graphs, samples):
            t0 = time.perf_counter()
            res = recognize(g)
            times.append(time.perf_counter() - t0)
            if not res.accepted:  # planted instances are yes-instances
                raise RuntimeError(f"bench instance of size {n} rejected: {res.reason}")
    rows = [BenchRow(size=g.n + g.edge_count, seconds=statistics.median(times))
            for g, times in zip(graphs, samples)]
    slope = None
    if len(rows) > 1:
        slope = statistics.linear_regression([math.log(r.size) for r in rows],
                                             [math.log(r.seconds) for r in rows]).slope
    return BenchReport(rows=tuple(rows), slope=slope)


def _cmd_bench(args) -> int:
    sizes = args.sizes
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        print("error: sizes must be strictly ascending", file=sys.stderr)
        return 2
    report = run_bench(sizes, args.seed)
    for row in report.rows:
        print(f"{row.size} {row.seconds:.6f}")
    if report.slope is None:
        print("slope undefined (single size)")
    else:
        print(f"slope {report.slope:.3f}")
        if report.slope > _SLOPE_WARN:
            print(
                f"warning: slope {report.slope:.3f} exceeds {_SLOPE_WARN}"
                " (shared machine?)",
                file=sys.stderr,
            )
    return 0


def _int_arg(text: str) -> int:
    """A command-line integer, read as the wire format reads one."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _sizes_arg(text: str):
    try:
        sizes = tuple(map(parse_int, text.split(",")))
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers")
    if not sizes or any(n <= 0 for n in sizes):
        raise argparse.ArgumentTypeError("sizes must be positive")
    if max(sizes) > MAX_VERTICES:
        raise argparse.ArgumentTypeError(f"sizes must not exceed {MAX_VERTICES}")
    return sizes


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptpig",
        description="Tagged probe interval graphs with proper probe part:"
        " recognition, certificates, and tooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("recognize", help="print ACCEPT or REJECT <reason> [witness]")
    sp.add_argument("path")
    sp.set_defaults(func=_cmd_recognize)

    sp = sub.add_parser("certify", help="write an interval certificate for a yes-instance")
    sp.add_argument("path")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_certify)

    sp = sub.add_parser("verify", help="check a certificate against a graph")
    sp.add_argument("path")
    sp.add_argument("cert")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("canonical", help="canonical sequence of the probe subgraph")
    sp.add_argument("path")
    sp.set_defaults(func=_cmd_canonical)

    sp = sub.add_parser("oracle", help="brute-force verdict (small instances only)")
    sp.add_argument("path")
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("gen", help="emit a planted (or perturbed) instance")
    sp.add_argument("probes", type=_int_arg)
    sp.add_argument("nonprobes", type=_int_arg)
    sp.add_argument("--seed", type=_int_arg, default=0)
    sp.add_argument("--perturb", type=_int_arg, default=0)
    sp.add_argument("--overlap", type=float, default=0.5)
    sp.add_argument("--span", type=float, default=0.05)
    sp.add_argument("--out", default=None)
    sp.add_argument("--cert", default=None, help="also write the planted certificate")
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("bench", help="time recognition on planted instances")
    sp.add_argument("--sizes", type=_sizes_arg, default=_BENCH_SIZES)
    sp.add_argument("--seed", type=_int_arg, default=0)
    sp.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, GraphFormatError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
