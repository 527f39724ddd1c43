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
  5. the components' settled sequences, each reversed when its component
     is flipped, are laid end to end and read once for positions (a lone
     component's settled sequence is final as it is); every nonprobe
     confined to one component keeps the window found for it while
     deciding, offset or mirrored into the final sequence, and only
     nonprobes that cross components are searched for once more, to build
     the interval certificate.

Rejections carry a machine-readable reason code and, where meaningful, a
witness nonprobe.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import repeat
from operator import lt

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
    _stair,
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


def _last_run(cs: CanonicalSequence, nbrs, lo: int, hi: int):
    """The last perfect run of nbrs in cs, given the first, (lo, hi).

    A perfect run holds all d = |nbrs| neighbours, so it takes at least d of
    their 2d positions and there are at most two runs.  A second one exists
    only when the first takes exactly d positions; it is then made of the
    other occurrences, when those are consecutive.  O(d), no sort.
    """
    d = len(nbrs)
    if hi - lo + 1 > d:
        return lo, hi
    L, R = cs.L, cs.R
    rest = [R[u] if L[u] >= lo else L[u] for u in nbrs]
    a, b = min(rest), max(rest)
    return (a, b) if b - a == d - 1 else (lo, hi)


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


def block_window_candidates(bcs: CanonicalSequence, fw: dict) -> set:
    """Every (first block, last block) of a block substring realizing a
    window for w.

    Qualifying substrings contain only block-neighbors (by f-value), cover
    every block-neighbor, and any *interior* partial block must be one of
    the two end blocks.  fw must name a partial block: a window over whole
    blocks is a perfect substring of bcs.  Every partial block is then an
    end block, so each window starts or ends at one of the at most four
    occurrences of the partial blocks, and one scan out from each of them in
    each direction finds every window: O(deg) per nonprobe.
    """
    partials = [k for k, f in fw.items() if f == 2]
    if len(partials) > 2:
        return set()  # at most two of them can be end blocks
    seq = bcs.seq
    total = len(seq)
    out = set()
    for k in partials:
        for o in (bcs.L[k], bcs.R[k]):
            for step in (1, -1):
                covered = set()
                stray = None  # the other partial block, once it is interior
                e = o
                while 1 <= e <= total and seq[e - 1] in fw:
                    ke = seq[e - 1]
                    covered.add(ke)
                    if (stray is None or stray == ke) and len(covered) == len(fw):
                        out.add((k, ke) if step == 1 else (ke, k))
                    if ke != k and fw[ke] == 2:  # interior from the next step on
                        stray = ke
                    e += step
    return out


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
        # nbrs -> leftmost window of a local nonprobe: in bcs for whole-block
        # ones until settle, then in vcs for every one; place maps them into
        # the final sequence, which a lone component's vcs already is
        self.windows: dict = {}

    def _tree(self, k: int) -> PQTree:
        """Block k's tree: its vertices between the two end markers."""
        tree = self.trees.get(k)
        if tree is None:
            tree = self.trees[k] = PQTree.pinned(self.rg.blocks[k - 1])
        return tree

    def _role_constraint(self, w: int, k: int, s, first: bool, last: bool) -> str | None:
        """Constrain partial block k by the roles it can take in w's window.

        s, w's neighbours in k, is a suffix of k's order when k can only be
        the window's first block, and a prefix when it can only be the last.
        When it can be either, s is flushed to one end or the other: the
        choice waits for resolve_deferred, or, on a complete component, for
        resolve_circular, which reads w's boundary set itself.
        """
        if first and last:
            if self.t > 1:
                self.deferred.append((w, k, frozenset(s)))
            return None
        mark = MARK_RIGHT if first else MARK_LEFT
        return None if self._tree(k).restrict(frozenset(s) | {mark}) else FINAL_CHECK_FAIL

    # .. in-component nonprobes ..

    def constrain_local(self, w: int, nbrs) -> str | None:
        """Record/apply the constraints for a nonprobe confined to this
        component; returns a reject code on impossibility."""
        if self.t == 1:
            # a complete component: seeing the whole block, the window is
            # the whole component; else nbrs is a partial block, an arc of
            # the block's order that resolve_circular places and settle checks
            if len(nbrs) == self.size:
                self.windows[nbrs] = (self.first, self.last)
            else:
                self.window_ws.append((w, nbrs))
                self.circ.append((w, nbrs))
            return None
        ngb, fw = block_classes(self.rg, nbrs)
        partials = sorted(k for k in fw if fw[k] == 2)
        if not partials:
            # a window over whole blocks is a perfect substring of the block
            # sequence, whatever the orders inside the blocks
            got = perfect_substring_bounds(self.bcs, frozenset(fw))
            if got is None:
                return B1_FAIL
            self.windows[nbrs] = got
            return None
        # the window depends on the orders inside blocks; settle checks it
        self.window_ws.append((w, nbrs))
        # every partial block of a window is one of its two end blocks
        pairs = block_window_candidates(self.bcs, fw)
        if not pairs:
            return B1_FAIL
        k = partials[0]
        if (k, k) in pairs:  # only a lone partial block can end both sides
            # the window sits inside one occurrence of k, or spans from one
            # occurrence to the other, eating the complement from the middle
            s = ngb[k] if len(fw) == 1 else set(self.rg.blocks[k - 1]) - ngb[k]
            return None if self._tree(k).restrict(s) else FINAL_CHECK_FAIL
        for k in partials:
            code = self._role_constraint(w, k, ngb[k], any(k1 == k for k1, _ in pairs),
                                         any(k2 == k for _, k2 in pairs))
            if code is not None:
                return code
        return None

    # .. nonprobes shared with other components ..

    def constrain_boundary(self, w: int, nbrs) -> str | None:
        """A nonprobe reaching other components must eat a whole end here."""
        ngb, fw = block_classes(self.rg, nbrs)
        partials = sorted(k for k in fw if fw[k] == 2)
        if len(partials) >= 2:
            return CASE4
        # past the eaten blocks at an end, c is the only partial allowed here
        seq = self.bcs.seq
        fits = []  # can w eat the left end, the right end?
        for z, step, pos in ((self.first, 1, self.bcs.L), (self.last, -1, self.bcs.R)):
            while fw.get(seq[z - 1], 0) == 1:
                z += step
            c = seq[z - 1] if seq[z - 1] in fw else None
            fits.append(set(partials) <= {c} and all(k == c or (pos[k] - z) * step < 0 for k in fw))
        left, right = fits
        if not (left or right):
            return FINAL_CHECK_FAIL
        self.boundary_ws.append((w, frozenset(nbrs)))
        if not partials:
            return None
        # eating the left end, the partial block is the window's last block
        # here; eating the right end, its first
        c = partials[0]
        return self._role_constraint(w, c, ngb[c], first=right, last=left)

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
        chain: list = []  # the distinct prefixes of σ, by size
        latest: dict = {}  # prefix -> the last nonprobe read as it
        for w, s in self.boundary_ws:
            if chain and not _nests(s, chain[0]):
                s = full - s
            if s not in latest:
                i = bisect_left(chain, len(s), key=len)
                if not all(_nests(s, p) for p in chain[max(i - 1, 0):i + 1]):
                    return w
                chain.insert(i, s)
            latest[s] = w
        pmax = chain[-1] if chain else full
        anchor = members[0]
        sets = [(latest[p], p) for p in chain] + [(latest[p], pmax - p) for p in chain]
        for w, s in sets + self.circ:
            if not tree.restrict(s if anchor not in s else full - s):
                return w
        order = tuple(tree.frontier())
        if chain:
            pmin, n = chain[0], len(order)
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

        The settled sequence keeps every local nonprobe's leftmost window:
        the one found here, or its block window expanded through the block
        orders.  A run of whole neighbour blocks is a run of neighbour
        vertices, and the leftmost at block level is the leftmost at vertex
        level.
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
            found: dict = {}  # windows of the nonprobes in window_ws
            ok = True
            for w, nbrs in self.window_ws:
                got = perfect_substring_bounds(vcs, nbrs)
                if got is None:
                    ok = False
                    if witness is None:
                        witness = w
                    break
                found[nbrs] = got
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
                # an occurrence of block k holds perms[k] at the vertices'
                # first positions when it is k's first occurrence, else at
                # their second ones
                bseq, bL = self.bcs.seq, self.bcs.L
                windows = self.windows
                for nbrs, (lo, hi) in windows.items():
                    k, k2 = bseq[lo - 1], bseq[hi - 1]
                    windows[nbrs] = ((vcs.L if lo == bL[k] else vcs.R)[perms[k][0]],
                                     (vcs.L if hi == bL[k2] else vcs.R)[perms[k2][-1]])
                windows.update(found)
                self.vcs = vcs
                self.sides = sides
                return None
        return witness

    def place(self, flipped: bool, seq: list, windows: dict) -> None:
        """Append the settled sequence to the final one, seq, reversed when
        the component is flipped, and the windows of its local nonprobes,
        by neighbourhood, to windows.  Mirroring makes the last perfect run
        the leftmost, so a flipped component gives each nonprobe its last
        run.

        self.windows is rewritten in final positions rather than copied, so
        the settled windows are freed here and the cyclic collector, which
        counts live objects, runs no more often than without them.
        """
        vcs = self.vcs
        off = len(seq)
        own = self.windows
        if flipped:
            e = off + len(vcs.seq) + 1
            seq.extend(reversed(vcs.seq))
            for nbrs, (lo, hi) in own.items():
                lo, hi = _last_run(vcs, nbrs, lo, hi)
                own[nbrs] = (e - hi, e - lo)
        else:
            seq.extend(vcs.seq)
            for nbrs, (lo, hi) in own.items():
                own[nbrs] = (off + lo, off + hi)
        windows.update(own)


def _vertex_side(vcs: CanonicalSequence, nbrs) -> str | None:
    """The end of the sequence ("L" or "R") that a perfect run of nbrs
    reaches, or None.

    nbrs misses some vertex of the component, so at most one end qualifies:
    the last vertex of the sequence is last in L order, so a run from the
    left end that reaches it has covered the whole component.
    """
    got = perfect_substring_bounds(vcs, nbrs)
    if got is None:
        return None
    if got[0] == 1:
        return "L"
    return "R" if _last_run(vcs, nbrs, *got)[1] == len(vcs.seq) else None


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
    got = _proper_order(rg.quotient, qc)
    if got is None:
        return _reject(PROBE_NOT_PROPER)
    border, upper = got
    bcs = _stair(border, upper)
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
        if qc.r == 1:  # every neighbour lies in the one component
            local_ws[1].append((w, frozenset(nbrs)))
            continue
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
    if len(got) == 1:  # a lone component is never flipped
        state = states[got[0][0]]
        cs, windows = state.vcs, state.windows
    else:
        seq: list = []
        windows = {}  # neighbourhood -> window in the final sequence
        for ci, flipped in got:
            states[ci].place(flipped, seq, windows)
        cs = sequence_from_iterable(seq)
    # every cross nonprobe's window is its eaten components and the ends that
    # settle checked, so a MissingWindow here is a fault, not a REJECT
    cert = build_certificate(g, cs, windows)
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
    # component ci's L marker is 2ci - 1 and its R marker 2ci
    tree = PQTree.paired([(2 * ci - 1, 2 * ci) for ci in states])
    for w, touched in multi_ws:
        tset = set()
        for ci, us in touched.items():
            state = states[ci]
            if len(us) == state.size:
                tset.add(2 * ci - 1)
                tset.add(2 * ci)
            else:
                tset.add(2 * ci if state.sides[w] == "R" else 2 * ci - 1)
        if not tree.restrict(tset):
            return w
    # each component's markers are adjacent, so the first of each pair
    # tells its orientation
    return [((x + 1) // 2, x % 2 == 0) for x in tree.frontier()[::2]]


# -- certificates ------------------------------------------------------------


class MissingWindow(ValueError):
    """A nonprobe has no perfect substring in the sequence."""

    def __init__(self, w: int):
        super().__init__(f"sequence admits no window for nonprobe {w}")
        self.witness = w


def build_certificate(g: TaggedGraph, cs: CanonicalSequence, windows=None) -> dict:
    """Vertex -> (lo, hi) intervals realizing g from a perfect sequence.

    Probes read their two positions straight off the sequence; nonprobes get
    their (leftmost maximal) perfect substring, and isolated nonprobes park
    one point each past every probe endpoint.  windows maps a neighbourhood,
    as a frozenset, to its leftmost perfect substring in cs where the
    caller has found it already (recognize: every nonprobe confined to one
    component); every other neighbourhood is searched for once, and twin
    nonprobes share the result.  Raises MissingWindow for the first nonprobe
    without a perfect substring in cs.
    """
    cert: dict = {}
    for v in range(1, g.p + 1):
        cert[v] = (cs.L[v], cs.R[v])
    found = {} if windows is None else dict(windows)
    spare = 2 * g.p + 1
    for w in range(g.p + 1, g.n + 1):
        nbrs = g.adj[w]
        if not nbrs:
            cert[w] = (spare, spare)
            spare += 1
            continue
        nbrs = frozenset(nbrs)
        got = found.get(nbrs)
        if got is None:
            got = perfect_substring_bounds(cs, nbrs)
            if got is None:
                raise MissingWindow(w)
            found[nbrs] = got
        cert[w] = got
    return cert


def verify_certificate(g: TaggedGraph, cert: dict):
    """Independent check of an interval certificate against the graph.

    Returns None when valid, else (kind, u, v) for the first violation, the
    checks running in this order:
    - a missing or inverted interval, the smallest such vertex;
    - an interval for no vertex of g, the smallest such number, else the
      first such key;
    - an edge between nonprobes, as validate_nonprobe_independence finds it;
    - probe properness (equal intervals are tolerated, strict containment
      is not): the first probe, by (lo, -hi), inside a wider one before it;
    - probe adjacency vs intersection: first a non-edge between intersecting
      probes, scanning probes by (lo, hi), then an edge between disjoint
      ones, by smaller and then larger vertex number;
    - tagged adjacency vs endpoint containment: the smallest nonprobe, with
      the smallest probe on which its neighbours and its interval disagree.

    Probes are sorted once by (lo, hi), so each probe's later intersecting
    probes are one slice of that order; apart from two sorts the checks are
    O(n + m) set and bisect operations, most of them inside builtins.  The
    containment and edge-count checks only tell whether a violation exists;
    when one fails, a scan in the order above names its witness.
    """
    for v in range(1, g.n + 1):
        iv = cert.get(v)
        if iv is None or iv[0] > iv[1]:
            return ("missing-interval", v, v)
    if len(cert) != g.n:  # every vertex is present, so some key is not one
        stray = [v for v in cert if v not in range(1, g.n + 1)]
        v = min((v for v in stray if isinstance(v, int)), default=stray[0])
        return ("unknown-vertex", v, v)
    bad = validate_nonprobe_independence(g)
    if bad is not None:
        return ("independence", bad[0], bad[1])
    p, adj = g.p, g.adj

    order = sorted(range(1, p + 1), key=cert.__getitem__)
    los = [cert[v][0] for v in order]
    his = [cert[v][1] for v in order]
    # read by (lo, hi), no interval strictly holds another iff lo and hi
    # grow at the same steps: an equal lo needs an equal hi, a larger lo a
    # larger hi
    if list(map(lt, los, los[1:])) != list(map(lt, his, his[1:])):
        return _first_containment(cert, p)

    # the probes after u = order[i] that meet it are the slice up to the
    # first lo past u's hi; they must all be its neighbours, and then the
    # number of such pairs must be the number of probe edges, or some edge
    # joins disjoint intervals
    pairs = 0
    for i, (u, hi) in enumerate(zip(order, his)):
        later = order[i + 1:bisect_right(los, hi, i)]
        if later:
            nb = set(adj[u])
            if not nb.issuperset(later):
                return ("probe-adjacency", u, next(v for v in later if v not in nb))
            pairs += len(later)
    if 2 * pairs != sum(map(bisect_right, adj[1:p + 1], repeat(p))):  # nonprobes follow p
        return _first_disjoint_edge(adj, cert, p)

    # his is sorted too now, so every endpoint sorts by one merge
    points = los + his
    ends = sorted(range(2 * p), key=points.__getitem__)
    values = list(map(points.__getitem__, ends))
    owners = list(map((order + order).__getitem__, ends))
    for w in range(p + 1, g.n + 1):
        lo, hi = cert[w]
        inside = set(owners[bisect_left(values, lo):bisect_right(values, hi)])
        actual = adj[w]
        if len(inside) != len(actual) or not inside.issuperset(actual):
            return ("tag-adjacency", w, min(inside.symmetric_difference(actual)))
    return None


def _first_containment(cert: dict, p: int):
    """The first probe, by (lo, -hi), whose interval lies strictly inside
    the widest one before it, as ("containment", wider, inner)."""
    keyed = sorted(range(1, p + 1), key=lambda v: (cert[v][0], -cert[v][1]))
    widest = None
    for v in keyed:
        lo, hi = cert[v]
        if widest is not None and hi <= cert[widest][1]:
            if (lo, hi) != cert[widest]:
                return ("containment", widest, v)
        if widest is None or hi > cert[widest][1]:
            widest = v
    return None


def _first_disjoint_edge(adj, cert: dict, p: int):
    """The first probe edge uv, u < v, whose intervals are disjoint."""
    for u in range(1, p + 1):
        lo, hi = cert[u]
        for v in adj[u]:
            if u < v <= p and max(lo, cert[v][0]) > min(hi, cert[v][1]):
                return ("probe-adjacency", u, v)
    return None
