"""Recognition of tagged probe interval graphs with a proper probe part.

Accepts exactly the graphs whose probe subgraph admits a canonical ordering
(a proper interval layout) such that every nonprobe has a *perfect
substring* in the doubled stair sequence: a contiguous stretch containing
only its neighbors and each neighbor at least once.  One pipeline:

  1. nonprobe independence and the probe subgraph;
  2. once for the whole probe graph: the twin blocks, the block ordering
     with its components (two BFS passes over the blocks' smallest
     vertices) and the block stair sequence; each component works on its
     own slice of them;
  3. a window over whole blocks is a run of the block stair sequence,
     whatever the orders inside the blocks: a local nonprobe that takes
     every block it meets whole keeps its leftmost perfect run of blocks.
     So is every end a cross nonprobe eats: on a chain only one end fits,
     and the end scan decides it once, keeping one record of the run, the
     members of a block met in part included.  Only a component that a
     nonprobe meets a block of in part (a complete component is one block)
     gets a state, which constrains each block's internal order, driven by
     a window analysis of the block stair sequence per nonprobe, every
     constraint through one door: a first one is only recorded, and a block
     gets a PQ-tree (end markers included) at its second; then settle:
     apply the deferred either-end flushes through that door, try the
     readings that reverse flushed blocks, checking each eaten end's
     partial block with no search, and fix the component's vertex
     sequence.  A complete component has no block analysis: settle cuts
     the circular order its sets allow, reads every window off the runs
     its sets were restricted as, and records each eaten end at the
     block's first or second occurrence;
  4. components are then arranged and oriented via a small
     consecutive-ones instance over per-component end markers;
  5. the components' sequences, each reversed when its component is
     flipped, are laid end to end and read once for positions (a lone
     component's settled sequence is final as it is); a component without
     a state is written straight off the stair sequence.  Every window
     comes out of recognition, with no search: a local nonprobe that meets
     a block in part keeps the window found for it while deciding, offset
     or mirrored into the final sequence; one reader takes a run of whole
     blocks, and an end record, off the final positions of its end blocks'
     members; a cross nonprobe's window runs from its first piece to its
     last, a component eaten whole giving its whole span; one neighbour u
     gets (L(u), R(u)) when those are adjacent, else (L(u), L(u)).

Rejections carry a machine-readable reason code and, where meaningful, a
witness nonprobe.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

from .graph import (
    ReducedGraph,
    TaggedGraph,
    compute_blocks,
    probe_subgraph,
    validate_nonprobe_independence,
)
from .pqtree import MARK_LEFT, MARK_RIGHT, PQTree
from .proper import (
    CanonicalSequence,
    _stair,
    order_blocks,
    sequence_from_iterable,
)

# bench/spans.py's TRACED, and test_every_traced_name_resolves, look the
# verifier up as ptpig.recognize.verify_certificate, so the name stays bound
# here until the benchmark reads it from ptpig.verify
from .verify import verify_certificate  # noqa: F401

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
    fw = {k: (1 if len(s) == rg.block_size[k] else 2) for k, s in ngb.items()}
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
    """Block orders and bookkeeping for laying out one probe component
    that a nonprobe meets a block of in part.

    Every constraint on a block goes through _restrict, and an either-end
    flush waits in deferred for settle.  The component owns a run of the
    global block ordering, border, and the matching run of the block stair
    sequence bcs, positions first..last: components never share a block,
    and their stair sequences follow one another in the order of their
    blocks.  Windows over whole blocks are not its business, and every end
    is a record over bcs in recognize's one map: on a chain recognize
    writes it and settle checks the partial block's order against it; on
    a complete component settle writes it.
    """

    def __init__(self, rg: ReducedGraph, bcs: CanonicalSequence, border, lo: int):
        self.rg = rg
        self.bcs = bcs
        self.border = border
        self.t = len(border)
        self.first = 2 * lo + 1
        self.last = 2 * (lo + self.t)
        self.trees: dict = {}  # block -> its PQ-tree, or its one recorded constraint
        self.deferred: list = []  # (w, block, ngb) either-end flushes
        self.window_ws: list = []  # (w, nbrs) local, with a partial block
        # the ends cross nonprobes eat: on a chain (w, c, s, left), s the
        # members of partial block c that w takes at the left end, or at the
        # right one; on a complete component (w, s), the end left to settle
        self.boundary_ws: list = []
        self.vcs: CanonicalSequence | None = None
        # g.adj[w] -> leftmost window in vcs of a nonprobe of window_ws;
        # place maps these into the final sequence, which a lone
        # component's vcs already is
        self.windows: dict = {}

    def _restrict(self, k: int, s) -> str | None:
        """Constrain block k's order by s, the one door for every constraint.
        A set of fewer than two labels constrains nothing.  A first one is
        only recorded, as a first restrict of ∅ ≠ s ⊊ U always succeeds; the
        second builds the block's pinned tree and replays the first."""
        if len(s) < 2:
            return None
        tree = self.trees.get(k)
        if tree is None:
            self.trees[k] = s
            return None
        if not isinstance(tree, PQTree):
            recorded, tree = tree, PQTree.pinned(self.rg.blocks[k - 1])
            self.trees[k] = tree
            tree.restrict(recorded)
        return None if tree.restrict(s) else FINAL_CHECK_FAIL

    # .. in-component nonprobes ..

    def constrain_local(self, w: int, nbrs) -> str | None:
        """Record/apply the constraints for a nonprobe confined to this
        component that meets a block in part; returns a reject code on
        impossibility."""
        if self.t == 1:
            # a complete component: nbrs is an arc of the block's order that
            # settle places and reads
            self.window_ws.append((w, nbrs))
            return None
        ngb, fw = block_classes(self.rg, nbrs)
        partials = sorted(k for k in fw if fw[k] == 2)
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
            return self._restrict(k, s)
        # w's neighbours in a partial block that can be only the first block
        # are a suffix (toward ⊣), only the last a prefix (toward ⊢), and
        # either, at one end or the other: a flush queued for settle
        firsts, lasts = {k1 for k1, _ in pairs}, {k2 for _, k2 in pairs}
        for k in partials:
            s = frozenset(ngb[k])
            if k in firsts and k in lasts:
                self.deferred.append((w, k, s))
            elif code := self._restrict(k, s | {MARK_RIGHT if k in firsts else MARK_LEFT}):
                return code
        return None

    # .. choice resolution and the vertex sequence ..

    def _readings(self):
        """Each reading of the block orders settle may try, as block -> order.

        The constraints' own reading comes first: a tree's frontier between
        its end markers, or a recorded constraint's by _recorded_order.
        Then the blocks that carry a queued flush, which sit at border
        positions 1, 2, t - 1 or t, are reversed in every combination (at
        most 16), in border order, found only when settle asks.  Reversing
        any other block never passes first: one pinned toward ⊢ or ⊣ fails
        that nonprobe's window or end, and one with no such pin changes no
        check, so the reading that keeps it passes earlier.
        """
        sigma = {}
        for k in self.border:
            tree, members = self.trees.get(k), self.rg.blocks[k - 1]
            if tree is None:
                sigma[k] = members
            elif isinstance(tree, PQTree):
                sigma[k] = tuple(tree.frontier()[1:-1])
            else:
                sigma[k] = _recorded_order(members, tree)
        yield sigma
        # first occurrences in the stair sequence follow the border order
        flushed = sorted({k for _, k, _ in self.deferred}, key=self.bcs.L.__getitem__)
        for mask in range(1, 1 << len(flushed)):
            perms = dict(sigma)
            for i, k in enumerate(flushed):
                if mask >> i & 1:
                    perms[k] = tuple(reversed(sigma[k]))
            yield perms

    def settle(self, ends: dict, ci: int):
        """Make the choices left open and fix the component's vertex
        sequence, component ci's.  Returns None on success, else a witness:
        the first nonprobe whose constraint fails, else the first local
        nonprobe without a window, else the first boundary nonprobe at
        neither end.

        A complete component is one block with order σ and sequence σσ, so a
        local window is a circular arc of σ, and a boundary set is a prefix
        or a suffix of σ: the set or its complement U - s is a prefix.
        Reversal is free, so the first boundary set is read as a prefix;
        every later one then nests with the chain of prefixes as s or as
        U - s, never as both (else a prefix, s or U - s would be empty or
        U).  The prefixes P_i, the differences P_max - P_i (so that all
        prefixes share one end) and the local sets form one circular-ones
        instance, which the anchor transform turns into plain
        consecutivity: replace every set holding the anchor by its
        complement.  Any member may be the anchor, and the first set that
        fails is the same for each.  _cheapest_anchor takes the member of
        the fewest restricted leaves; that cost averages at most 2·Σ|s| over
        the members, so the restricts together take O(Σ|s|) leaves.  The
        frontier, read as a circle, is cut at the end of P_min whose other
        neighbour lies outside P_max, so every P_i starts σ.  Reversing σ
        turns arcs into arcs and prefixes into suffixes, so σσ is the one
        reading.  Nothing is searched or re-read: a boundary set s read as
        a prefix is the end record (first, first, s, s) in ends, at the
        block's first occurrence, and one read as the suffix a prefix
        leaves is (last, last, s, s), at its second; a local set's arc
        starts at its restricted run's first frontier index, or one past
        its complement's last, mapped through the cut: (start + 1,
        start + d).

        On a chain of blocks, the queued either-end flushes come first,
        each as _restrict(k, s) and then _restrict(k, U - s).  For
        ∅ ≠ s ⊊ U, s is a prefix or a suffix of the block's order iff s and
        U - s are both consecutive in it; the markers pin the order between
        the tree's ends, so two plain restricts state each flush exactly,
        and the queue's order only picks which failure is reported.  Then
        each reading of the block orders is expanded into a vertex sequence,
        and the window of every local nonprobe meeting a block in part is
        searched in it.  A boundary nonprobe's end was decided at block
        level, so it is checked with no search: its members s of partial
        block c must be the first |s| of c's order when it eats the left
        end, the last |s| when it eats the right (_at_end).  A failure names
        its witness on the first reading; the reading that passes keeps each
        window found, in windows.  Nonprobes that meet only whole blocks are
        not checked: their runs of blocks hold in every reading.
        """
        if self.t == 1:
            members = order = self.rg.blocks[self.border[0] - 1]
            if self.window_ws or self.boundary_ws:
                tree = PQTree(members)  # a circle has no ends: no markers
                full = frozenset(members)
                n = len(members)
                chain: list = []  # the distinct prefixes of σ, by size
                latest: dict = {}  # prefix -> the last nonprobe read as it
                for w, s in self.boundary_ws:
                    # w eats a prefix of σ, or the suffix a prefix leaves
                    if chain and not _nests(s, chain[0]):
                        ends[w, ci] = (self.last, self.last, s, s)
                        s = full - s
                    else:
                        ends[w, ci] = (self.first, self.first, s, s)
                    if s not in latest:
                        i = bisect_left(chain, len(s), key=len)
                        if not all(_nests(s, p) for p in chain[max(i - 1, 0):i + 1]):
                            return w
                        chain.insert(i, s)
                    latest[s] = w
                pmax = chain[-1] if chain else full
                sets = [(latest[p], p) for p in chain] + [(latest[p], pmax - p) for p in chain]
                sets += self.window_ws
                anchor, sides = _cheapest_anchor(members, full, sets)
                runs = []  # each set as restricted: s, or U - s when s holds the anchor
                for (w, s), t in zip(sets, sides):
                    r = t if anchor not in t else s if t is not s else full.difference(s)
                    if not tree.restrict(r):
                        return w
                    runs.append(r)
                frontier = tree.frontier()
                i, step = 0, 1
                if chain:
                    pmin = chain[0]
                    i, step = next((i, d) for i, x in enumerate(frontier) if x in pmin
                                   for d in (1, -1) if frontier[(i - d) % n] not in pmax)
                order = tuple(frontier[i:] + frontier[:i] if step == 1
                              else frontier[i::-1] + frontier[:i:-1])
                # s's arc starts at its run's first frontier index, or one past
                # its complement's last; σ[j] is frontier[(i + step·j) % n]
                pos = dict(zip(frontier, range(n)))
                for (w, s), r in zip(self.window_ws, runs[2 * len(chain):]):
                    d = len(s)
                    first = min(map(pos.__getitem__, r)) + (0 if r is s else n - d)
                    start = (first - i if step == 1 else i - first - d + 1) % n
                    self.windows[s] = (start + 1, start + d)
            self.vcs = sequence_from_iterable(order + order)
            return None
        for w, k, s in self.deferred:
            if self._restrict(k, s) or self._restrict(k, frozenset(self.rg.blocks[k - 1]) - s):
                return w
        witness = None
        for perms in self._readings():
            seq: list = []
            for k in self.bcs.seq[self.first - 1:self.last]:
                seq.extend(perms[k])
            vcs = sequence_from_iterable(seq)
            bad = None
            found: dict = {}  # windows of the nonprobes in window_ws
            for w, nbrs in self.window_ws:
                if (got := perfect_substring_bounds(vcs, nbrs)) is None:
                    bad = w
                    break
                found[nbrs] = got
            if bad is None:
                for w, c, s, left in self.boundary_ws:
                    if not _at_end(perms[c], s, left):
                        bad = w
                        break
            if bad is None:
                self.vcs = vcs
                self.windows = found
                return None
            if witness is None:
                witness = bad
        return witness

    def place(self, flipped: bool, seq: list, windows: dict) -> None:
        """Append the settled sequence to the final one, seq, reversed when
        the component is flipped, and the windows of its local nonprobes, by
        neighbourhood, to windows.  Mirroring makes the last perfect run the
        leftmost, so a flipped component gives each local nonprobe its last
        run.  The ends cross nonprobes eat are records over bcs, which
        recognize reads off seq once it is complete.

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


def _recorded_order(members: tuple, s) -> tuple:
    """PQTree.pinned(members).frontier()[1:-1] after its one restrict(s),
    |s| >= 2: the members outside s, then those in s, each in block order,
    s first when it holds ⊢."""
    inside = [x for x in members if x in s]
    outside = [x for x in members if x not in s]
    return tuple(inside + outside if MARK_LEFT in s else outside + inside)


def _cheapest_anchor(members: tuple, full: frozenset, sets: list):
    """The anchor for the sets [(w, s)], the member x of the fewest leaves
    Σ|s| + Σ_{s∋x}(n - 2|s|), the earliest on a tie, and each set's smaller
    side, s or U - s.  A set with |s| > n/2 adds 2|s| - n to each member of
    U - s instead of n - 2|s| to each of s: every total moves by that one
    constant, so the same member wins for Σ min(|s|, n - |s|) additions."""
    n = len(members)
    extra = dict.fromkeys(members, 0)
    sides = []
    for _, s in sets:
        c = n - 2 * len(s)
        if c < 0:
            s, c = full.difference(s), -c
        for x in s:
            extra[x] += c
        sides.append(s)
    return min(members, key=extra.__getitem__), sides


def _at_end(order: tuple, s, left: bool) -> bool:
    """Whether s is the first |s| members of a block's order, when left,
    else the last |s|: where a nonprobe that eats that end of a chain must
    hold its partial block's members."""
    return s.issuperset(order[:len(s)] if left else order[-len(s):])


def _end_runs(bcs: CanonicalSequence, first: int, last: int, fw: dict, c, s):
    """The end records (lo, hi, head, tail) of the runs that a nonprobe eats
    at the left end and at the right end of bcs's positions first..last,
    each None where it cannot eat that end.  fw maps every block it meets
    to 1 (whole) or 2 (in part); c is the one block it meets in part, and s
    its neighbours there, or both are None.  Past the blocks eaten whole at
    an end, the run stops before a block it does not meet, or takes s of
    c's occurrence there and stops; every other block met must have an
    occurrence among the ones eaten whole.  The record names s where it
    cuts that occurrence: as tail at the left end, as head at the right."""
    seq = bcs.seq
    runs = []
    for z, step, pos in ((first, 1, bcs.L), (last, -1, bcs.R)):
        while fw.get(seq[z - 1], 0) == 1:
            z += step
        fits = (c is None or seq[z - 1] == c) and all(k == c or (pos[k] - z) * step < 0 for k in fw)
        if c is None:
            z -= step  # the run ends on the last block eaten whole
        runs.append(((first, z, None, s) if step == 1 else (z, last, s, None)) if fits else None)
    return runs


def _block_span(bcs: CanonicalSequence, blocks, cs: CanonicalSequence, lo: int, hi: int,
                head, tail, flipped: bool):
    """The positions in the final sequence cs of the run lo..hi of bcs, in a
    component that cs holds reversed when flipped: the one reader of every
    end record (lo, hi, head, tail) and every window of whole blocks.  An
    occurrence of a block holds all its members, at their first positions
    for the block's first occurrence, else at their second ones.  The run
    starts at the least of these over head, the members of its first
    block that bound it there, and ends at the greatest over tail, those of
    its last block; None stands for all of the block's members, whatever
    the order inside it.  Reversal swaps the run's ends, head and tail, and
    first and second positions."""
    if flipped:
        lo, hi, head, tail, first, second = hi, lo, tail, head, cs.R, cs.L
    else:
        first, second = cs.L, cs.R
    seq, bL = bcs.seq, bcs.L
    k, k2 = seq[lo - 1], seq[hi - 1]
    return (min(map((first if lo == bL[k] else second).__getitem__, head or blocks[k - 1])),
            max(map((first if hi == bL[k2] else second).__getitem__, tail or blocks[k2 - 1])))


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
    # the block graph is proper interval iff the probe graph is: twins
    # expand into staggered copies of their block's interval
    bo = order_blocks(pg, rg)
    if bo is None:
        return _reject(PROBE_NOT_PROPER)
    border = bo.order
    bcs = _stair(border, bo.upper)
    r = len(bo.ends)
    bounds = [0, *bo.ends]  # component ci takes border[bounds[ci - 1]:bounds[ci]]
    acc = list(accumulate(map(rg.block_size.__getitem__, border), initial=0))
    sizes = [0] + [acc[hi] - acc[lo] for lo, hi in zip(bounds, bo.ends)]  # probes per component
    # only a component that a nonprobe meets a block of in part gets a state
    states: list = [None] * (r + 1)

    def new_state(ci: int) -> _CompState:
        lo = bounds[ci - 1]
        state = states[ci] = _CompState(rg, bcs, border[lo:bounds[ci]], lo)
        return state

    # a connected, twin-free probe part has one stair sequence up to
    # reversal; a nonprobe without a window there is reported as A1_FAIL
    missing = A1_FAIL if r == 1 and rg.t == g.p else B1_FAIL

    local_ws: dict = {}  # component -> [(w, nbrs)] confined to it
    multi_ws = []
    singles = []  # neighbourhoods of one probe
    component_of, block_of, block_size = bo.component_of, rg.block_of, rg.block_size
    # a twin of an earlier nonprobe repeats its constraints: no-op restricts;
    # one neighbour always has a window in its own component and constrains
    # no tree, so its window is read off the final sequence.  Neighbourhoods
    # are the adjacency tuples themselves: they key every window
    seen_nbrs = set()
    for w in range(g.p + 1, g.n + 1):
        nbrs = g.adj[w]
        if len(nbrs) < 2:
            if nbrs:
                singles.append(nbrs)
            continue
        if nbrs in seen_nbrs:
            continue
        seen_nbrs.add(nbrs)
        if r == 1:  # every neighbour lies in the one component
            ci = 1
        else:
            touched: dict = {}
            for u in nbrs:
                touched.setdefault(component_of[block_of[u]], []).append(u)
            if len(touched) > 1:
                multi_ws.append((w, touched))
                continue
            ci = next(iter(touched))
        local_ws.setdefault(ci, []).append((w, nbrs))

    def whole(ci: int, nbrs):
        """The blocks of component ci that nbrs meets, if it takes each of
        them whole, else None; a complete component needs no block set."""
        lo = bounds[ci - 1]
        if bounds[ci] - lo == 1:
            return {border[lo]} if len(nbrs) == sizes[ci] else None
        ks = set(map(block_of.__getitem__, nbrs))
        return ks if sum(map(block_size.__getitem__, ks)) == len(nbrs) else None

    # a window over whole blocks is a run of bcs, whatever the orders inside
    # the blocks, and so is every end; each is read off the final sequence
    block_windows: dict = {}  # neighbourhood -> leftmost perfect run in bcs
    ends: dict = {}  # (w, component) -> the record of the end w eats there
    for ci in sorted(local_ws):
        for w, nbrs in local_ws[ci]:
            ks = whole(ci, nbrs)
            if ks is None:
                code = (states[ci] or new_state(ci)).constrain_local(w, nbrs)
            else:
                got = block_windows[nbrs] = perfect_substring_bounds(bcs, ks)
                code = B1_FAIL if got is None else None
            if code is not None:
                return _reject(missing if code == B1_FAIL else code, witness=w)

    for w, touched in multi_ws:
        partial_cis = [ci for ci, us in touched.items() if len(us) < sizes[ci]]
        if len(partial_cis) > 2:
            return _reject(CASE3, witness=w)
        for ci in partial_cis:
            us, first, last = touched[ci], 2 * bounds[ci - 1] + 1, 2 * bounds[ci]
            if last - first == 1:
                # a complete component: either end fits, and settle picks it
                (states[ci] or new_state(ci)).boundary_ws.append((w, frozenset(us)))
                continue
            ks = whole(ci, us)
            if ks is None:
                ngb, fw = block_classes(rg, us)
                partials = [k for k in fw if fw[k] == 2]
                if len(partials) >= 2:
                    return _reject(CASE4, witness=w)
                c = partials[0]
                s = frozenset(ngb[c])
            else:
                fw, c, s = dict.fromkeys(ks, 1), None, None
            left, right = _end_runs(bcs, first, last, fw, c, s)
            if not (left or right):
                return _reject(FINAL_CHECK_FAIL, witness=w)
            ends[w, ci] = left or right
            if c is not None:
                # both ends never fit a chain: c would lie strictly inside
                # the set's other blocks, or be both ends.  Eating the left
                # end, s must be a prefix of c's order, eating the right a
                # suffix: pinned here, and checked by settle in each reading
                state = states[ci] or new_state(ci)
                state.boundary_ws.append((w, c, s, bool(left)))
                if code := state._restrict(c, s | {MARK_LEFT if left else MARK_RIGHT}):
                    return _reject(code, witness=w)

    for ci, state in enumerate(states):
        if state is not None and (bad := state.settle(ends, ci)) is not None:
            return _reject(FINAL_CHECK_FAIL, witness=bad)

    got = _arrange_components(sizes, bounds, multi_ws, ends)
    if isinstance(got, int):
        return _reject(MARKER_PQ_INFEASIBLE, witness=got)
    flips = [False] * (r + 1)  # component -> flipped
    if r == 1 and states[1] is not None:  # a lone component is never flipped
        cs, windows = states[1].vcs, states[1].windows
    else:
        seq: list = []
        windows = {}  # neighbourhood -> window in the final sequence
        start = [0] * (r + 1)  # component -> its offset in seq
        for ci, flipped in got:
            start[ci], flips[ci] = len(seq), flipped
            state = states[ci]
            if state is not None:
                state.place(flipped, seq, windows)
                continue
            # no state: the sequence settle would build, each block in its
            # own order, reversed when flipped
            step = -1 if flipped else 1
            for k in bcs.seq[2 * bounds[ci - 1]:2 * bounds[ci]][::step]:
                seq.extend(rg.blocks[k - 1][::step])
        cs = sequence_from_iterable(seq)
    # mirroring makes a local nonprobe's last perfect run its leftmost
    for nbrs, (lo, hi) in block_windows.items():
        flipped = flips[component_of[bcs.seq[lo - 1]]]
        if flipped:
            lo, hi = _last_run(bcs, set(map(block_of.__getitem__, nbrs)), lo, hi)
        windows[nbrs] = _block_span(bcs, rg.blocks, cs, lo, hi, None, None, flipped)
    # the arrangement keeps a cross nonprobe's components together, with
    # each partly eaten one's eaten end inward, so its pieces make one run
    for w, touched in multi_ws:
        lo, hi = len(cs.seq), 0
        for ci, us in touched.items():
            if len(us) == sizes[ci]:
                a, b = start[ci] + 1, start[ci] + 2 * sizes[ci]
            else:
                a, b = _block_span(bcs, rg.blocks, cs, *ends[w, ci], flips[ci])
            lo, hi = min(lo, a), max(hi, b)
        windows[g.adj[w]] = (lo, hi)
    L, R = cs.L, cs.R
    for nbrs in singles:
        lo, hi = L[nbrs[0]], R[nbrs[0]]
        windows[nbrs] = (lo, hi if hi == lo + 1 else lo)
    # every window is read, none searched, so a MissingWindow here is a
    # fault, not a REJECT
    cert = build_certificate(g, cs, windows)
    return RecognitionResult(True, sequence=cs, certificate=cert)


def _arrange_components(sizes: list, bounds: list, multi_ws: list, ends: dict):
    """Order and orient the components, sizes[ci] probes in component ci,
    whose blocks are border[bounds[ci - 1]:bounds[ci]].

    One consecutive-ones instance over {L, R} end markers per component:
    each marker pair stays together, and every cross-component nonprobe's
    marker set (both markers of fully-eaten components plus the eaten-end
    marker of partially-eaten ones) must come out consecutive.  A partially
    eaten component has exactly one eaten end, its record ends[w, ci]: the
    left one when the record starts at the component's first position of
    the block stair sequence.  So the instance has no choices left.  Returns
    [(component, flipped)] or a witness nonprobe.
    """
    cis = range(1, len(sizes))
    if not multi_ws:
        return [(ci, False) for ci in cis]
    # component ci's L marker is 2ci - 1 and its R marker 2ci
    tree = PQTree.paired([(2 * ci - 1, 2 * ci) for ci in cis])
    for w, touched in multi_ws:
        tset = set()
        for ci, us in touched.items():
            if len(us) == sizes[ci]:
                tset.add(2 * ci - 1)
                tset.add(2 * ci)
            else:
                tset.add(2 * ci - 1 if ends[w, ci][0] == 2 * bounds[ci - 1] + 1 else 2 * ci)
        if not tree.restrict(tset):
            return w
    # each component's markers are adjacent, so the first of each pair
    # tells its orientation
    return [((x + 1) // 2, x % 2 == 0) for x in tree.frontier()[::2]]


# -- certificates ------------------------------------------------------------


class MissingWindow(ValueError):
    """windows holds no window for a nonprobe: a fault of the recognizer."""

    def __init__(self, w: int):
        super().__init__(f"no window recorded for nonprobe {w}")
        self.witness = w


def build_certificate(g: TaggedGraph, cs: CanonicalSequence, windows: dict) -> dict:
    """Vertex -> (lo, hi) intervals realizing g from a perfect sequence.

    Probes read their two positions straight off the sequence, and each
    nonprobe its perfect substring from windows, keyed by the adjacency
    tuple g.adj[w]; nothing is searched.  Isolated nonprobes park one point
    each past every probe endpoint.  Raises MissingWindow for the first
    nonprobe with neighbours and no window.
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
        elif (got := windows.get(nbrs)) is None:
            raise MissingWindow(w)
        else:
            cert[w] = got
    return cert
