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
    MAX_INPUT_BYTES,
    MAX_VERTICES,
    GraphFormatError,
    TaggedGraph,
    connected_components,
    parse_tagged_graph,
    probe_subgraph,
    serialize_tagged_graph,
)
from .oracle import OracleBudgetExceeded, oracle_recognize
from .proper import _proper_order, _stair
from .recognize import RecognitionResult, recognize, verify_certificate

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
    cert: dict = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise GraphFormatError(f"line {ln}: expected '<vertex> <lo> <hi>'")
        try:
            v, lo, hi = (int(x) for x in parts)
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
    pg = probe_subgraph(g)
    got = _proper_order(pg, connected_components(pg))  # one umbrella check
    if got is None:
        print("REJECT PROBE_NOT_PROPER", file=sys.stderr)
        return 1
    print(" ".join(map(str, _stair(*got).seq)))
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
        xs = [math.log(r.size) for r in rows]
        ys = [math.log(r.seconds) for r in rows]
        mx = sum(xs) / len(xs)
        my = sum(ys) / len(ys)
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
            (x - mx) ** 2 for x in xs
        )
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


def _sizes_arg(text: str):
    try:
        sizes = tuple(int(x) for x in text.split(","))
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
    sp.add_argument("probes", type=int)
    sp.add_argument("nonprobes", type=int)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--perturb", type=int, default=0)
    sp.add_argument("--overlap", type=float, default=0.5)
    sp.add_argument("--span", type=float, default=0.05)
    sp.add_argument("--out", default=None)
    sp.add_argument("--cert", default=None, help="also write the planted certificate")
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("bench", help="time recognition on planted instances")
    sp.add_argument("--sizes", type=_sizes_arg, default=_BENCH_SIZES)
    sp.add_argument("--seed", type=int, default=0)
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
