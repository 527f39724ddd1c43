"""Benchmark of ptpig's recognizer: four workloads, checked outputs, per-layer trace.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --sweep [--seed <n>]
    python3 bench/run.py --make-oracle-cache

Run from the repository root.  The program is imported from ``src/`` next to
this directory; nothing under ``src/`` is changed.  With ``--trace 0`` the
last line of output is a JSON object with the end-to-end metrics, with
``--trace 1`` one with the per-layer metrics.  Times are reported at a
reference machine speed (see CALIBRATION_S and README.md).
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import math
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
ORACLE_CACHE = HERE / "oracle_cache.json"
WORKLOADS = ("planted-sparse", "nested-clique", "multi-comp", "batch-small")
MIN_ROUNDS = 3
ORACLE_SAMPLE = 300  # relabelled batch instances re-checked by the oracle when tracing

sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from checker import check_certificate  # noqa: E402


def load_program():
    """Import ptpig from this checkout's src/, or stop with exit code 2."""
    if not (SRC / "ptpig" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'ptpig'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import ptpig

    if Path(ptpig.__file__).resolve().parent != SRC / "ptpig":
        print(f"error: ptpig imported from {ptpig.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return ptpig


# -- inputs --------------------------------------------------------------------


def pool_digest(pool) -> str:
    h = hashlib.sha256()
    for inst in pool:
        h.update(inst.text().encode())
    return h.hexdigest()


def make_oracle_cache() -> None:
    """Oracle verdicts for the batch pool; the pool depends only on POOL_SEED."""
    ptpig = load_program()
    pool = W.batch_pool()
    t0 = time.perf_counter()
    verdicts = "".join(
        "1" if ptpig.oracle_recognize(ptpig.parse_tagged_graph(inst.text())) else "0"
        for inst in pool
    )
    ORACLE_CACHE.write_text(json.dumps({
        "pool_seed": W.POOL_SEED,
        "pool_size": W.POOL_SIZE,
        "pool_sha256": pool_digest(pool),
        "verdicts": verdicts,
    }, indent=1) + "\n", encoding="utf-8")
    print(f"{verdicts.count('1')} of {len(pool)} accepted by the oracle"
          f" in {time.perf_counter() - t0:.1f} s; wrote {ORACLE_CACHE.name}")


def batch_small(seed: int):
    """The pool in seeded order under seeded renumberings, oracle verdicts
    attached, and ROADMAP item 2's instance last (the same in every run)."""
    pool = W.batch_pool()
    cache = json.loads(ORACLE_CACHE.read_text(encoding="utf-8"))
    if cache["pool_sha256"] != pool_digest(pool):
        sys.exit("error: oracle cache does not match the pool;"
                 " run python3 bench/run.py --make-oracle-cache")
    for inst, bit in zip(pool, cache["verdicts"]):
        inst.expect = bit == "1"
    rng = random.Random(seed)
    order = list(range(len(pool)))
    rng.shuffle(order)
    return [W.relabel(pool[k], rng) for k in order] + [W.item2_instance()]


def make_inputs(workload: str, seed: int):
    if workload == "planted-sparse":
        return W.planted_sparse(seed)
    if workload == "nested-clique":
        return W.nested_clique(seed)
    if workload == "multi-comp":
        return W.multi_comp(seed)
    return batch_small(seed)


def tamper(cert: dict, inst) -> dict:
    """Move one probe that has a neighbour past every endpoint."""
    top = max(hi for _, hi in cert.values())
    v = min(u for edge in inst.edges for u in edge if u <= inst.p)
    bad = dict(cert)
    bad[v] = (top + 1, top + 2)
    return bad


# -- measurement ---------------------------------------------------------------


def timed(fn):
    """Seconds fn takes, and its result.  A full collection first, so that
    garbage left by earlier work is not charged to fn."""
    gc.collect()
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


# Machine speed on a shared host drifts by up to 2x over tens of seconds, for
# any work.  So every timed step is framed by a fixed piece of pure-Python
# work that does not touch the program (the benchmark's checker on a fixed
# planted instance), and reported at reference speed: its time scaled by
# CALIBRATION_S over the calibration's mean time.  CALIBRATION_S is about the
# calibration's time on the machine the reference figures come from.
CALIBRATION_S = 0.02


@functools.cache
def calibration_instance():
    return W.planted_components(random.Random(0), [4] * 700, local=0.5, cross=0.6)


def calibrated(fn):
    """(raw seconds of fn, mean seconds of the calibration just before and
    just after, fn's result)."""
    ref = calibration_instance()

    def calibration() -> float:
        return timed(lambda: check_certificate(ref.p, ref.q, ref.edges, ref.cert))[0]

    before = calibration()
    secs, out = timed(fn)
    return secs, (before + calibration()) / 2, out


def peak_rss_mb(texts, tag: str) -> float:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"inputs-{tag}.json"
    path.write_text(json.dumps(texts), encoding="utf-8")
    try:
        out = subprocess.run(
            [sys.executable, str(HERE / "rss_probe.py"), str(SRC), str(path)],
            capture_output=True, text=True, timeout=170, check=True,
        ).stdout.split()
    finally:
        path.unlink()
    return int(out[1]) / 1024


PHASES = ("setup_s", "recognize_s", "verify_s")


class Run:
    """One workload, one seed: inputs, checks and measurements.

    The load is measured in rounds.  A round parses every text, recognizes
    every graph and verifies every certificate accepted in the first round,
    so each phase is sampled across the whole run rather than in one burst.
    """

    def __init__(self, ptpig, workload: str, seed: int):
        self.api = ptpig
        self.workload = workload
        self.seed = seed
        self.insts = make_inputs(workload, seed)
        self.texts = [inst.text() for inst in self.insts]
        self.faults: list = []
        for inst in self.insts:
            if inst.cert is not None:
                self.fault(check_certificate(inst.p, inst.q, inst.edges, inst.cert),
                           "planted certificate")
        self.graphs: list = []
        self.first: list = []  # results of the first recognize pass
        self.first_verdicts: list = []
        self.accepted: list = []  # indices of the instances accepted then
        self.passes = 0
        self.failed_per_pass = 0
        self.samples: dict = {}  # raw timings, kept in the results file

    def fault(self, why, what: str) -> None:
        if why is not None:
            self.faults.append(f"{what}: {why}")

    # .. the three phases of a round ..

    def parse_all(self) -> None:
        parse = self.api.parse_tagged_graph
        self.graphs = [parse(t) for t in self.texts]

    def recognize_all(self) -> None:
        recognize = self.api.recognize
        results = [recognize(g) for g in self.graphs]
        self.passes += 1
        verdicts = [(r.accepted, r.reason, r.witness) for r in results]
        if not self.first:
            self.first, self.first_verdicts = results, verdicts
        elif verdicts != self.first_verdicts:
            self.faults.append("verdicts differ between passes")

    def verify_all(self) -> None:
        verify = self.api.verify_certificate
        graphs, first = self.graphs, self.first
        if any(verify(graphs[k], first[k].certificate) is not None for k in self.accepted):
            self.faults.append("verify_certificate rejects an accepted certificate")

    def rounds(self, seconds: float, after=None) -> dict:
        """Whole rounds until the time is up (at least MIN_ROUNDS); per phase
        the list of its times at reference speed.  The raw and calibration
        times go to self.samples.  after(phase, scale) runs outside the
        timings; scale turns that phase's raw seconds into reference ones."""
        out: dict = {ph: [] for ph in PHASES}
        raw: dict = {ph: [] for ph in PHASES}
        cal: dict = {ph: [] for ph in PHASES}
        steps = (("setup_s", self.parse_all), ("recognize_s", self.recognize_all),
                 ("verify_s", self.verify_all))
        deadline = time.perf_counter() + seconds
        while len(out["setup_s"]) < MIN_ROUNDS or time.perf_counter() < deadline:
            for phase, step in steps:
                secs, c, _ = calibrated(step)
                raw[phase].append(secs)
                cal[phase].append(c)
                out[phase].append(secs * CALIBRATION_S / c)
                if after is not None:
                    after(phase, CALIBRATION_S / c)
                if phase == "recognize_s" and self.passes == 1:
                    self.check_first_pass()
        self.samples.setdefault("rounds", []).append({"raw_s": raw, "calibration_s": cal})
        return out

    # .. checks ..

    def check_first_pass(self) -> None:
        """Accepted certificates against the checker; verdicts against what
        is known; a false REJECT is a failed operation.  Then the program's
        verifier: it must accept planted certificates and reject a tampered
        one that the checker rejects too."""
        for k, (inst, res) in enumerate(zip(self.insts, self.first)):
            if res.accepted:
                self.accepted.append(k)
                self.fault(check_certificate(inst.p, inst.q, inst.edges, res.certificate),
                           "accepted certificate")
            elif inst.expect:
                self.failed_per_pass += 1
            if inst.expect is False and res.accepted:
                self.faults.append("accepted an instance the oracle rejects")
        verify = self.api.verify_certificate
        if any(verify(g, inst.cert) is not None
               for g, inst in zip(self.graphs, self.insts) if inst.cert is not None):
            self.faults.append("verify_certificate rejects a planted certificate")
        k = next(k for k in self.accepted if self.insts[k].edges)
        inst = self.insts[k]
        bad = tamper(self.first[k].certificate, inst)
        if check_certificate(inst.p, inst.q, inst.edges, bad) is None:
            self.faults.append("tampered certificate passes the benchmark's checker")
        if verify(self.graphs[k], bad) is None:
            self.faults.append("verify_certificate accepts a tampered certificate")

    def reference_check(self) -> int:
        """Re-check verdicts against a reference; returns how many instances.

        Batch instances go to the oracle (a seeded sample, under their
        renumbering); the others are too large for it and go to the
        benchmark's certificate checker.
        """
        if self.workload == "batch-small":
            rng = random.Random(self.seed)
            idx = rng.sample(range(len(self.insts) - 1), ORACLE_SAMPLE)
            for k in idx:
                if self.api.oracle_recognize(self.graphs[k]) != self.insts[k].expect:
                    self.faults.append("oracle cache disagrees with the oracle")
            return len(idx)
        for k in self.accepted:
            inst = self.insts[k]
            self.fault(check_certificate(inst.p, inst.q, inst.edges, self.first[k].certificate),
                       "accepted certificate")
        return len(self.accepted)

    def result(self, metrics: dict) -> dict:
        if self.faults:
            print("\n".join(self.faults[:20]), file=sys.stderr)
        return {
            "correct": not self.faults,
            "attempted": self.passes * len(self.insts),
            "failed": self.passes * self.failed_per_pass,
            "metrics": metrics,
        }


def measure(run: Run, seconds: float) -> dict:
    """End-to-end metrics, with no wrappers installed: medians over rounds
    at reference speed."""
    rss = peak_rss_mb(run.texts, f"{run.workload}-{run.seed}")
    out = {ph: {"value": statistics.median(ts), "unit": "s"}
           for ph, ts in run.rounds(seconds).items()}
    out["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    return out


def measure_traced(run: Run, seconds: float) -> dict:
    """Per-layer metrics from traced rounds (medians over rounds), and the
    tracing overhead against untraced rounds of the same run."""
    from spans import Tracer

    untraced = run.rounds(seconds / 2)
    tracer = Tracer()
    per_phase: dict = {ph: [] for ph in PHASES}

    def take(phase, scale):
        figures, spans = tracer.take()
        per_phase[phase].append((
            {k: v * scale if k.endswith("_s") else v for k, v in figures.items()}, spans))

    tracer.install()
    try:
        traced = run.rounds(seconds / 2, after=take)
    finally:
        tracer.uninstall()

    def phase_of(key: str) -> str:
        if key.startswith("graph.parse"):
            return "setup_s"
        return "verify_s" if key.startswith("verify.") else "recognize_s"

    layers = {key: statistics.median(m[key] for m, _ in per_phase[phase_of(key)])
              for key in per_phase["recognize_s"][0][0]}
    secs, c, layers["oracle.check_calls"] = calibrated(run.reference_check)
    layers["oracle.check_s"] = secs * CALIBRATION_S / c
    layers["trace.untraced_recognize_s"] = statistics.median(untraced["recognize_s"])
    layers["trace.traced_recognize_s"] = statistics.median(traced["recognize_s"])
    layers["trace.overhead"] = layers["trace.traced_recognize_s"] / layers["trace.untraced_recognize_s"]
    spans = per_phase["recognize_s"][0][1]
    t_first = spans[0][2] if spans else 0
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"trace-{run.workload}-{run.seed}.json").write_text(json.dumps({
        "workload": run.workload,
        "seed": run.seed,
        "layers": layers,
        "span_fields": ["id", "name", "start_ns", "end_ns", "parent"],
        "spans": [(i, n, a - t_first, b - t_first, par) for i, n, a, b, par in spans],
    }), encoding="utf-8")
    return {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(layers.items())}


def unit_of(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key == "trace.overhead":
        return "x"
    return "count"


# -- scaling sweep ---------------------------------------------------------------

SWEEP = {
    "planted-sparse": (W.planted_sparse, (10_000, 20_000, 40_000)),
    "nested-clique": (W.nested_clique, (150, 250, 350)),
    "multi-comp": (W.multi_comp, (750, 1_500, 3_000)),
}


def slope(points) -> float:
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def sweep(seed: int) -> dict:
    """Log-log slope of recognize time against |V|+|E| per family (median
    of three passes per size, at reference speed).  A reference figure, not
    a gated metric."""
    ptpig = load_program()
    out = {}
    for family, (make, sizes) in SWEEP.items():
        points = []
        for size in sizes:
            inst = make(seed, size)[0]
            g = ptpig.parse_tagged_graph(inst.text())
            t = statistics.median(secs * CALIBRATION_S / c for secs, c, _ in
                                  (calibrated(lambda: ptpig.recognize(g)) for _ in range(3)))
            points.append((inst.size, t))
            print(f"{family} {inst.size} {t:.4f}", flush=True)
        out[family] = slope(points)
        print(f"{family} slope {out[family]:.3f}", flush=True)
    return out


# -- entry point -----------------------------------------------------------------


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ptpig = load_program()
    run = Run(ptpig, workload, seed)
    metrics = measure_traced(run, seconds) if trace else measure(run, seconds)
    out = run.result(metrics)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"result-{workload}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps({**out, "samples": run.samples}, indent=1) + "\n", encoding="utf-8")
    return out


def run_all(args) -> dict:
    """Each workload in a fresh process, one after another."""
    out = {}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"error: workload {w} exited with {proc.returncode}")
        out[w] = json.loads(proc.stdout.strip().splitlines()[-1])
        res = out[w]
        cols = "  ".join(f"{k} {m['value']:.4g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"{w}: correct {res['correct']} attempted {res['attempted']}"
              f" failed {res['failed']}" + ("" if args.trace else f"  {cols}"), flush=True)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sweep", action="store_true", help="print scaling slopes and exit")
    ap.add_argument("--make-oracle-cache", action="store_true",
                    help="recompute the oracle verdicts of the batch pool")
    args = ap.parse_args(argv)
    if args.make_oracle_cache:
        make_oracle_cache()
        return 0
    if args.sweep:
        print(json.dumps({"slopes": sweep(args.seed)}))
        return 0
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    out = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
