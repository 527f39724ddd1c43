"""Recognition of tagged probe interval graphs with a proper probe part.

Accepts exactly the graphs whose probe subgraph admits a canonical ordering
(a proper interval layout) such that every nonprobe has a *perfect
substring* in the doubled stair sequence: a contiguous stretch containing
only its neighbors and each neighbor at least once.  One pipeline:

  1. nonprobe independence, the probe subgraph and its components;
  2. twin blocks, the block ordering and the block stair sequence, once for
     the whole probe graph; each component works on its own slice of them;
  3. per component, constrain each block's internal order with one PQ-tree
     (end markers included), driven by a window analysis of the block stair
     sequence per nonprobe, then settle the component's vertex sequence;
  4. components are then arranged and oriented via a small
     consecutive-ones instance over per-component end markers;
  5. one final pass finds every nonprobe's window and builds the interval
     certificate from them.

Rejections carry a machine-readable reason code and, where meaningful, a
witness nonprobe.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .graph import (
    ReducedGraph,
    TaggedGraph,
    compute_blocks,
    connected_components,
    probe_subgraph,
    validate_nonprobe_independence,
)
from .pqtree import MARK_LEFT, MARK_RIGHT, PQTree, strip_markers
from .proper import (
    CanonicalSequence,
    _proper_order,
    canonical_sequence,
    sequence_from_iterable,
)

NONPROBE_EDGE = "NONPROBE_EDGE"
PROBE_NOT_PROPER = "PROBE_NOT_PROPER"
A1_FAIL = "A1_FAIL"
B1_FAIL = "B1_FAIL"
CASE3 = "CASE3"
CASE4 = "CASE4"
MARKER_PQ_INFEASIBLE = "MARKER_PQ_INFEASIBLE"
FINAL_CHECK_FAIL = "FINAL_CHECK_FAIL"


@dataclass(frozen=True)
class RecognitionResult:
    accepted: bool
    reason: str | None = None
    witness: int | None = None  # nonprobe vertex, when one exists
    edge: tuple | None = None  # offending nonprobe pair for NONPROBE_EDGE
    sequence: CanonicalSequence | None = None
    certificate: dict | None = None


def _reject(reason: str, witness=None, edge=None) -> RecognitionResult:
    return RecognitionResult(False, reason=reason, witness=witness, edge=edge)


# -- window primitives -------------------------------------------------------


def perfect_substring_bounds(cs: CanonicalSequence, nbrs):
    """Leftmost maximal all-neighbor stretch covering every neighbor, or None.

    The 2d positions of the d = |nbrs| neighbors split into runs of
    consecutive positions, and these runs are exactly the maximal
    all-neighbor stretches.  The first run that holds every neighbor is the
    answer.  Cost: one sort of the 2d positions, O(d log d), and O(d) more.
    """
    d = len(nbrs)
    if d == 0:
        return None
    seq = cs.seq
    pos = sorted([cs.L[u] for u in nbrs] + [cs.R[u] for u in nbrs])
    start = 0
    for i in range(1, 2 * d + 1):
        if i == 2 * d or pos[i] != pos[i - 1] + 1:
            lo, hi = pos[start], pos[i - 1]
            if i - start >= d and len(set(seq[lo - 1:hi])) == d:
                return lo, hi
            start = i
    return None


def check_perfect_substrings(g: TaggedGraph, cs: CanonicalSequence):
    """First nonprobe lacking a perfect substring in cs, or None.

    Nonprobes without neighbors pass vacuously.
    """
    for w in range(g.p + 1, g.n + 1):
        nbrs = g.adj[w]
        if not nbrs:
            continue
        if perfect_substring_bounds(cs, frozenset(nbrs)) is None:
            return w
    return None


# -- block-level analysis ----------------------------------------------------


def block_classes(rg: ReducedGraph, nbrs):
    """(ngb, fw) for a nonprobe's neighbors: ngb maps each block they touch
    to the neighbors inside it, fw maps it to 1 (every vertex adjacent) or 2
    (some but not all).  Blocks without neighbors are absent (implicitly 0).
    Cost is proportional to |nbrs|.
    """
    ngb: dict = {}
    for u in nbrs:
        ngb.setdefault(rg.block_of[u], set()).add(u)
    fw = {k: (1 if len(s) == len(rg.blocks[k - 1]) else 2) for k, s in ngb.items()}
    return ngb, fw


def block_window_candidates(bcs: CanonicalSequence, fw: dict):
    """All (k1, k2, a, b): block substring [a, b] realizing a window for w.

    Qualifying substrings contain only block-neighbors (by f-value), cover
    every block-neighbor, and any *interior* partial block must be one of
    the two end blocks k1, k2.  fw must name a partial block: a window over
    whole blocks is a perfect substring of bcs.  Every partial block is then
    an end block, so each window starts or ends at one of the at most four
    occurrences of the partial blocks, and one scan out from each of them in
    each direction finds every window: O(deg) per nonprobe.
    """
    partials = [k for k, f in fw.items() if f == 2]
    if len(partials) > 2:
        return []  # at most two of them can be end blocks
    seq = bcs.seq
    total = len(seq)
    out = set()
    for k in partials:
        for o in (bcs.L[k], bcs.R[k]):
            for step in (1, -1):
                covered = set()
                stray = None  # interior partial block other than k, if any
                e = o
                while 1 <= e <= total and seq[e - 1] in fw:
                    ke = seq[e - 1]
                    covered.add(ke)
                    if (stray is None or stray == ke) and len(covered) == len(fw):
                        a, b = (o, e) if step == 1 else (e, o)
                        out.add((seq[a - 1], seq[b - 1], a, b))
                    if ke != k and fw[ke] == 2:  # interior from the next step on
                        if stray not in (None, ke):
                            break  # two distinct interior partials: hopeless
                        stray = ke
                    e += step
    return sorted(out)


# -- per-component layout ----------------------------------------------------


class _CompState:
    """Block trees and bookkeeping for laying out one probe component.

    The component owns a run of the global block ordering, border, and the
    matching run of the block stair sequence bcs, positions first..last:
    components never share a block, and their stair sequences follow one
    another in the order of their blocks.
    """

    def __init__(self, rg: ReducedGraph, bcs: CanonicalSequence, border, lo: int, size: int):
        self.rg = rg
        self.bcs = bcs
        self.border = border
        self.t = len(border)
        self.first = 2 * lo + 1
        self.last = 2 * (lo + self.t)
        self.size = size  # number of probes
        self.trees: dict = {}  # block -> its PQ-tree, built by _tree on first use
        self.deferred: list = []  # (w, block, ngb) either-end flushes
        self.circ: list = []  # (w, ngb) wrap-capable sets on a complete component
        self.window_ws: list = []  # (w, nbrs) local, with a partial block
        self.boundary_ws: list = []  # (w, ngb-in-component) needing an end window
        self.cut: tuple | None = None  # block order of a complete component
        self.vcs: CanonicalSequence | None = None
        self.sides: dict = {}  # w -> the end of the settled sequence it eats

    def _tree(self, k: int) -> PQTree:
        """Block k's tree: its vertices between the two end markers."""
        tree = self.trees.get(k)
        if tree is None:
            members = self.rg.blocks[k - 1]
            tree = PQTree((*members, MARK_LEFT, MARK_RIGHT))
            tree.restrict({*members, MARK_LEFT})
            tree.restrict({*members, MARK_RIGHT})
            self.trees[k] = tree
        return tree

    def _flush(self, k: int, s, mark) -> bool:
        return self._tree(k).restrict(frozenset(s) | {mark})

    # .. in-component nonprobes ..

    def constrain_local(self, w: int, nbrs) -> str | None:
        """Record/apply the constraints for a nonprobe confined to this
        component; returns a reject code on impossibility."""
        ngb, fw = block_classes(self.rg, nbrs)
        partials = sorted(k for k in fw if fw[k] == 2)
        if not partials:
            # a window over whole blocks is a perfect substring of the block
            # sequence, whatever the orders inside the blocks
            if self.t > 1 and perfect_substring_bounds(self.bcs, frozenset(fw)) is None:
                return B1_FAIL
            return None
        # the window depends on the orders inside blocks; settle checks it
        self.window_ws.append((w, nbrs))
        if self.t == 1:
            self.circ.append((w, frozenset(ngb[partials[0]])))
            return None
        # every partial block of a window is one of its two end blocks
        if len(partials) > 2:
            return B1_FAIL
        pairs = block_window_candidates(self.bcs, fw)
        if not pairs:
            return B1_FAIL
        if len(partials) == 1:
            k = partials[0]
            s = ngb[k]
            if len(fw) == 1:
                # window sits inside a single occurrence of the block
                return None if self._tree(k).restrict(s) else FINAL_CHECK_FAIL
            if any(k1 == k == k2 and a < b for (k1, k2, a, b) in pairs):
                # window spans from one occurrence of k to the other, eating
                # the complement from the middle
                rest = set(self.rg.blocks[k - 1]) - s
                return None if self._tree(k).restrict(rest) else FINAL_CHECK_FAIL
            starts = any(k1 == k != k2 for (k1, k2, _, _) in pairs)
            ends = any(k2 == k != k1 for (k1, k2, _, _) in pairs)
            if starts and ends:
                self.deferred.append((w, k, frozenset(s)))
                return None
            if starts:  # neighbors form a suffix of the block's ordering
                return None if self._flush(k, s, MARK_RIGHT) else FINAL_CHECK_FAIL
            if ends:  # neighbors form a prefix
                return None if self._flush(k, s, MARK_LEFT) else FINAL_CHECK_FAIL
            return B1_FAIL
        ka, kb = partials
        fwd = any((k1, k2) == (ka, kb) for (k1, k2, _, _) in pairs)
        bwd = any((k1, k2) == (kb, ka) for (k1, k2, _, _) in pairs)
        if fwd and bwd:
            self.deferred.append((w, ka, frozenset(ngb[ka])))
            self.deferred.append((w, kb, frozenset(ngb[kb])))
            return None
        if fwd:
            ok = self._flush(ka, ngb[ka], MARK_RIGHT) and self._flush(kb, ngb[kb], MARK_LEFT)
            return None if ok else FINAL_CHECK_FAIL
        if bwd:
            ok = self._flush(kb, ngb[kb], MARK_RIGHT) and self._flush(ka, ngb[ka], MARK_LEFT)
            return None if ok else FINAL_CHECK_FAIL
        return B1_FAIL

    # .. nonprobes shared with other components ..

    def constrain_boundary(self, w: int, nbrs) -> str | None:
        """A nonprobe reaching other components must eat a whole end here."""
        ngb, fw = block_classes(self.rg, nbrs)
        partials = sorted(k for k in fw if fw[k] == 2)
        if len(partials) >= 2:
            return CASE4
        # past the eaten blocks at an end, c is the only partial allowed here
        seq = self.bcs.seq
        ends = []  # (marker, c) for each end this nonprobe can eat
        for mark, z, step, pos in ((MARK_LEFT, self.first, 1, self.bcs.L),
                                   (MARK_RIGHT, self.last, -1, self.bcs.R)):
            while fw.get(seq[z - 1], 0) == 1:
                z += step
            c = seq[z - 1] if seq[z - 1] in fw else None
            if set(partials) <= {c} and all(k == c or (pos[k] - z) * step < 0 for k in fw):
                ends.append((mark, c))
        if not ends:
            return FINAL_CHECK_FAIL
        self.boundary_ws.append((w, frozenset(nbrs)))
        mark, c = ends[0]
        if c is None or len(self.rg.blocks[c - 1]) == 1:
            return None
        if len(ends) == 1:
            return None if self._flush(c, ngb[c], mark) else FINAL_CHECK_FAIL
        # both ends admissible: c delimits both, and its flush direction is a
        # real choice; resolve_circular makes it for all the boundary sets of
        # a complete component at once
        if self.t > 1:
            self.deferred.append((w, c, frozenset(ngb[c])))
        return None

    # .. choice resolution ..

    def resolve_deferred(self):
        """Apply queued either-end flushes; first stuck nonprobe or None.

        For ∅ ≠ s ⊊ U, s is a prefix or a suffix of the block's order σ iff s
        and U − s are both consecutive in σ; the markers pin σ between the
        tree's ends, so two plain restricts state each flush exactly, and the
        queue's order only picks which failure is reported.
        """
        for w, k, s in self.deferred:
            tree = self._tree(k)
            if not (tree.restrict(s) and tree.restrict(set(self.rg.blocks[k - 1]) - s)):
                return w
        return None

    def resolve_circular(self):
        """Orient every nonprobe set of a complete component in one pass.

        The component is one block with order σ and sequence σσ, so a local
        window is a circular arc of σ, and a boundary set is a prefix or a
        suffix of σ: the set or its complement U - s is a prefix.  Reversal
        is free, so the first boundary set is read as a prefix; every later
        one then nests with the chain of prefixes as s or as U - s, never as
        both (else a prefix, s or U - s would be empty or U).  The prefixes
        P_i, the differences P_max - P_i (so that all prefixes share one
        end) and the local sets form one circular-ones instance, which the
        anchor transform turns into plain consecutivity: replace every set
        holding the anchor by its complement.  The frontier, read as a
        circle, is cut at the end of P_min whose other neighbour lies
        outside P_max.  Returns the first nonprobe whose set fails, or None.
        """
        if self.t > 1 or not (self.circ or self.boundary_ws):
            return None
        k = self.border[0]
        members = self.rg.blocks[k - 1]
        tree = PQTree(members)  # a circle has no ends: no markers
        full = frozenset(members)
        chain: list = []  # (w, prefix of σ), by size
        for w, s in self.boundary_ws:
            if chain and not _nests(s, chain[0][1]):
                s = full - s
            i = bisect_left(chain, len(s), key=lambda e: len(e[1]))
            if not all(_nests(s, p) for _, p in chain[max(i - 1, 0):i + 1]):
                return w
            chain.insert(i, (w, s))
        pmax = chain[-1][1] if chain else full
        anchor = members[0]
        for w, s in chain + [(w, pmax - p) for w, p in chain] + self.circ:
            if not tree.restrict(s if anchor not in s else full - s):
                return w
        order = tuple(tree.frontier())
        if chain:
            pmin, n = chain[0][1], len(order)
            i, step = next((i, d) for i, x in enumerate(order) if x in pmin
                           for d in (1, -1) if order[(i - d) % n] not in pmax)
            order = tuple(order[(i + step * j) % n] for j in range(n))
        self.cut = order
        return None

    # .. final intra-component search ..

    def _sigma(self) -> dict:
        if self.cut is not None:
            return {self.border[0]: self.cut}
        out = {}
        for k in self.border:
            tree = self.trees.get(k)  # an untouched tree reads the block in order
            out[k] = self.rg.blocks[k - 1] if tree is None else tuple(strip_markers(tree.frontier()))
        return out

    def settle(self):
        """Fix the component's vertex sequence.

        The trees pin everything except possibly the reading direction of
        the blocks at the two ends of the block ordering; try reversing any
        subset of those with more than one vertex (at most 16 combinations),
        validating the window of every local nonprobe that meets a block
        partially, and every boundary nonprobe end, against the expanded
        sequence.  Returns None on success, else a witness.
        """
        sigma = self._sigma()
        t = self.t
        special: list = []
        for k in (self.border[pos - 1] for pos in (1, 2, t - 1, t) if 1 <= pos <= t):
            if len(self.rg.blocks[k - 1]) > 1 and k not in special:
                special.append(k)
        witness = None
        for mask in range(1 << len(special)):
            perms = dict(sigma)
            for i, k in enumerate(special):
                if mask >> i & 1:
                    perms[k] = tuple(reversed(sigma[k]))
            seq: list = []
            for k in self.bcs.seq[self.first - 1:self.last]:
                seq.extend(perms[k])
            vcs = sequence_from_iterable(seq)
            ok = True
            for w, nbrs in self.window_ws:
                if perfect_substring_bounds(vcs, nbrs) is None:
                    ok = False
                    if witness is None:
                        witness = w
                    break
            sides: dict = {}
            if ok:
                for w, nbrs in self.boundary_ws:
                    v = _vertex_side(vcs, nbrs)
                    if v is None:
                        ok = False
                        if witness is None:
                            witness = w
                        break
                    sides[w] = v
            if ok:
                self.vcs = vcs
                self.sides = sides
                return None
        return witness


def _vertex_side(vcs: CanonicalSequence, nbrs) -> str | None:
    """The end of the sequence ("L" or "R") whose all-neighbor stretch
    covers nbrs, or None.

    nbrs misses some vertex of the component, so at most one end qualifies:
    the last vertex of the sequence is last in L order, so a prefix that
    reaches it has covered the whole component.
    """
    for side, seq in (("L", vcs.seq), ("R", reversed(vcs.seq))):
        seen = set()
        for x in seq:
            if x not in nbrs:
                break
            seen.add(x)
        if seen == nbrs:
            return side
    return None


def _nests(a, b) -> bool:
    return a <= b or b <= a


# -- the pipeline ------------------------------------------------------------


def recognize(g: TaggedGraph) -> RecognitionResult:
    """Decide g; an accepting result carries the sequence and certificate."""
    bad = validate_nonprobe_independence(g)
    if bad is not None:
        return _reject(NONPROBE_EDGE, witness=bad[0], edge=bad)
    pg = probe_subgraph(g)
    rg = compute_blocks(pg)
    # twins are adjacent and blocks are numbered by their smallest vertex, so
    # the quotient's components are the probe graph's, in the same order
    qc = connected_components(rg.quotient)
    # the quotient is proper interval iff the probe graph is: twins expand
    # into staggered copies of their block's interval
    border = _proper_order(rg.quotient, qc)
    if border is None:
        return _reject(PROBE_NOT_PROPER)
    bcs = canonical_sequence(rg.quotient, border, validate=False)
    states: dict = {}
    lo = 0
    for ci, ks in enumerate(qc.components, 1):
        size = sum(len(rg.blocks[k - 1]) for k in ks)
        states[ci] = _CompState(rg, bcs, border[lo:lo + len(ks)], lo, size)
        lo += len(ks)
    # a connected, twin-free probe part has one stair sequence up to
    # reversal; a nonprobe without a window there is reported as A1_FAIL
    missing = A1_FAIL if qc.r == 1 and rg.t == g.p else B1_FAIL

    local_ws = {ci: [] for ci in states}
    multi_ws = []
    # a twin of an earlier nonprobe repeats its constraints: no-op restricts
    seen_nbrs = set()
    for w in range(g.p + 1, g.n + 1):
        nbrs = g.adj[w]
        if not nbrs or nbrs in seen_nbrs:
            continue
        seen_nbrs.add(nbrs)
        touched: dict = {}
        for u in nbrs:
            touched.setdefault(qc.component_of[rg.block_of[u]], []).append(u)
        if len(touched) == 1:
            ci = next(iter(touched))
            local_ws[ci].append((w, frozenset(nbrs)))
        else:
            multi_ws.append((w, touched))

    for ci, state in states.items():
        for w, nbrs in local_ws[ci]:
            code = state.constrain_local(w, nbrs)
            if code is not None:
                return _reject(missing if code == B1_FAIL else code, witness=w)

    for w, touched in multi_ws:
        partial_cis = [ci for ci, us in touched.items() if len(us) < states[ci].size]
        if len(partial_cis) > 2:
            return _reject(CASE3, witness=w)
        for ci in partial_cis:
            code = states[ci].constrain_boundary(w, touched[ci])
            if code is not None:
                return _reject(code, witness=w)

    for ci, state in states.items():
        bad = state.resolve_deferred()
        if bad is None:
            bad = state.resolve_circular()
        if bad is not None:
            return _reject(FINAL_CHECK_FAIL, witness=bad)
        bad = state.settle()
        if bad is not None:
            return _reject(FINAL_CHECK_FAIL, witness=bad)

    got = _arrange_components(states, multi_ws)
    if isinstance(got, int):
        return _reject(MARKER_PQ_INFEASIBLE, witness=got)
    seq: list = []
    for ci, flipped in got:
        s = states[ci].vcs.seq
        seq.extend(reversed(s) if flipped else s)
    cs = sequence_from_iterable(seq)
    try:
        cert = build_certificate(g, cs)
    except MissingWindow as exc:
        return _reject(FINAL_CHECK_FAIL, witness=exc.witness)
    return RecognitionResult(True, sequence=cs, certificate=cert)


def _arrange_components(states: dict, multi_ws: list):
    """Order and orient the components.

    One consecutive-ones instance over {L, R} end markers per component:
    each marker pair stays together, and every cross-component nonprobe's
    marker set (both markers of fully-eaten components plus the eaten-end
    marker of partially-eaten ones) must come out consecutive.  A partially
    eaten component has exactly one eaten end, fixed by settle, so the
    instance has no choices left.  Returns [(component, flipped)] or a
    witness nonprobe.
    """
    if not multi_ws:
        return [(ci, False) for ci in states]
    tree = PQTree(tuple((side, ci) for ci in states for side in ("L", "R")))
    for ci in states:
        tree.restrict({("L", ci), ("R", ci)})
    for w, touched in multi_ws:
        tset = set()
        for ci, us in touched.items():
            state = states[ci]
            if len(us) == state.size:
                tset.add(("L", ci))
                tset.add(("R", ci))
            else:
                tset.add((state.sides[w], ci))
        if not tree.restrict(tset):
            return w
    layout = []
    seen = set()
    for side, ci in tree.frontier():
        if ci not in seen:
            seen.add(ci)
            layout.append((ci, side == "R"))
    return layout


# -- certificates ------------------------------------------------------------


class MissingWindow(ValueError):
    """A nonprobe has no perfect substring in the sequence."""

    def __init__(self, w: int):
        super().__init__(f"sequence admits no window for nonprobe {w}")
        self.witness = w


def build_certificate(g: TaggedGraph, cs: CanonicalSequence) -> dict:
    """Vertex -> (lo, hi) intervals realizing g from a perfect sequence.

    Probes read their two positions straight off the sequence; nonprobes get
    their (leftmost maximal) perfect substring, and isolated nonprobes park
    one point each past every probe endpoint.  Raises MissingWindow for the
    first nonprobe without a perfect substring in cs.
    """
    cert: dict = {}
    for v in range(1, g.p + 1):
        cert[v] = (cs.L[v], cs.R[v])
    spare = 2 * g.p + 1
    for w in range(g.p + 1, g.n + 1):
        nbrs = g.adj[w]
        if not nbrs:
            cert[w] = (spare, spare)
            spare += 1
            continue
        got = perfect_substring_bounds(cs, frozenset(nbrs))
        if got is None:
            raise MissingWindow(w)
        cert[w] = got
    return cert


def verify_certificate(g: TaggedGraph, cert: dict):
    """Independent check of an interval certificate against the graph.

    Returns None when valid, else (kind, u, v) for the first violation:
    a missing or inverted interval, an interval for no vertex of g,
    nonprobe independence, probe-probe adjacency vs intersection, tagged
    adjacency vs endpoint containment, and probe properness (equal
    intervals are tolerated, strict containment is not).
    """
    for v in range(1, g.n + 1):
        iv = cert.get(v)
        if iv is None or iv[0] > iv[1]:
            return ("missing-interval", v, v)
    if len(cert) != g.n:  # every vertex is present, so some key is not one
        v = next(v for v in sorted(cert) if v not in range(1, g.n + 1))
        return ("unknown-vertex", v, v)
    bad = validate_nonprobe_independence(g)
    if bad is not None:
        return ("independence", bad[0], bad[1])
    p = g.p

    keyed = sorted(range(1, p + 1), key=lambda v: (cert[v][0], -cert[v][1]))
    widest = None
    for v in keyed:
        lo, hi = cert[v]
        if widest is not None and hi <= cert[widest][1]:
            if (lo, hi) != cert[widest]:
                return ("containment", widest, v)
        if widest is None or hi > cert[widest][1]:
            widest = v

    order = sorted(range(1, p + 1), key=lambda v: cert[v])
    los = [cert[v][0] for v in order]
    for idx, u in enumerate(order):
        hi_u = cert[u][1]
        jdx = idx + 1
        while jdx < p and los[jdx] <= hi_u:
            v = order[jdx]
            if not g.has_edge(u, v):
                return ("probe-adjacency", u, v)
            jdx += 1
    for u in range(1, p + 1):
        for v in g.adj[u]:
            if u < v <= p:
                if max(cert[u][0], cert[v][0]) > min(cert[u][1], cert[v][1]):
                    return ("probe-adjacency", u, v)

    endpoints = sorted((cert[v][side], v) for v in range(1, p + 1) for side in (0, 1))
    values = [x for x, _ in endpoints]
    for w in range(p + 1, g.n + 1):
        lo, hi = cert[w]
        i = bisect_left(values, lo)
        j = bisect_right(values, hi)
        inside = {v for _, v in endpoints[i:j]}
        actual = set(g.adj[w])
        if inside != actual:
            off = min(inside.symmetric_difference(actual))
            return ("tag-adjacency", w, off)
    return None
