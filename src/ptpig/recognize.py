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
  3. per component, constrain each block's internal order, driven by a
     window analysis of the block stair sequence per nonprobe, every
     constraint through one door: a first one is only recorded, and a
     block gets a PQ-tree (end markers included) at its second; then
     settle: apply the deferred either-end flushes through that door, try
     the readings that reverse flushed blocks, and fix the component's
     vertex sequence.  A complete component (one block) has no block
     analysis: settle cuts the circular order its sets allow and reads
     every window and end off the runs its sets were restricted as;
  4. components are then arranged and oriented via a small
     consecutive-ones instance over per-component end markers;
  5. the components' settled sequences, each reversed when its component
     is flipped, are laid end to end and read once for positions (a lone
     component's settled sequence is final as it is); a component that no
     local nonprobe of two or more neighbours reaches and every cross
     nonprobe eats whole has nothing to decide, gets no state and is
     written straight off the stair sequence.  Every window comes out of
     recognition, with no search: a local nonprobe keeps the window found
     for it while deciding, and a boundary nonprobe the run at the end it
     eats, both offset or mirrored into the final sequence; a cross
     nonprobe's window runs from its first piece to its last, a component
     eaten whole giving its whole span; one neighbour u gets (L(u), R(u))
     when those are adjacent, else (L(u), L(u)).

Rejections carry a machine-readable reason code and, where meaningful, a
witness nonprobe.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import lt

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
    """Block orders and bookkeeping for laying out one probe component.

    Every constraint on a block goes through _restrict, and an either-end
    flush waits in deferred for settle.  The component owns a run of the
    global block ordering, border, and the matching run of the block stair
    sequence bcs, positions first..last: components never share a block,
    and their stair sequences follow one another in the order of their
    blocks.
    """

    def __init__(self, rg: ReducedGraph, bcs: CanonicalSequence, border, lo: int, size: int):
        self.rg = rg
        self.bcs = bcs
        self.border = border
        self.t = len(border)
        self.first = 2 * lo + 1
        self.last = 2 * (lo + self.t)
        self.size = size  # number of probes
        self.trees: dict = {}  # block -> its PQ-tree, or its one recorded constraint
        self.deferred: list = []  # (w, block, ngb) either-end flushes
        self.window_ws: list = []  # (w, nbrs) local, with a partial block
        self.boundary_ws: list = []  # (w, ngb-in-component) needing an end window
        self.vcs: CanonicalSequence | None = None
        # w -> a boundary nonprobe's perfect run at the end of vcs it eats
        self.ends: dict = {}
        # g.adj[w] -> leftmost window of a local nonprobe: on a chain, in
        # bcs for whole-block ones until settle, then in vcs for every one;
        # place maps these and ends into the final sequence, which a lone
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

    def _whole_blocks(self, nbrs):
        """The blocks nbrs touches, if it takes each of them whole, else None."""
        ks = set(map(self.rg.block_of.__getitem__, nbrs))
        return ks if sum(map(self.rg.block_size.__getitem__, ks)) == len(nbrs) else None

    # .. in-component nonprobes ..

    def constrain_local(self, w: int, nbrs) -> str | None:
        """Record/apply the constraints for a nonprobe confined to this
        component; returns a reject code on impossibility."""
        if self.t == 1:
            # a complete component: seeing the whole block, the window is
            # the whole of σσ; else nbrs is a partial block, an arc of the
            # block's order that settle places and reads
            if len(nbrs) == self.size:
                self.windows[nbrs] = (1, 2 * self.size)
            else:
                self.window_ws.append((w, nbrs))
            return None
        ks = self._whole_blocks(nbrs)
        if ks is not None:
            # a window over whole blocks is a perfect substring of the block
            # sequence, whatever the orders inside the blocks
            got = perfect_substring_bounds(self.bcs, ks)
            if got is None:
                return B1_FAIL
            self.windows[nbrs] = got
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

    # .. nonprobes shared with other components ..

    def constrain_boundary(self, w: int, nbrs) -> str | None:
        """A nonprobe reaching other components must eat a whole end here.
        Either end fits a complete component: settle reads the set there."""
        self.boundary_ws.append((w, frozenset(nbrs)))
        if self.t == 1:
            return None
        ks = self._whole_blocks(nbrs)
        if ks is not None:
            fw, partials = dict.fromkeys(ks, 1), []
        else:
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
        if not partials:
            return None
        # eating the left end, the partial block is the window's last block
        # here; eating the right end, its first.  Both never fit a chain: c
        # would lie strictly inside the set's other blocks, or be both ends
        c = partials[0]
        return self._restrict(c, frozenset(ngb[c]) | {MARK_RIGHT if right else MARK_LEFT})

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

    def settle(self):
        """Make the choices left open and fix the component's vertex
        sequence.  Returns None on success, else a witness: the first
        nonprobe whose constraint fails, else the first local nonprobe
        without a window, else the first boundary nonprobe at neither end.

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
        reading.  Nothing is searched or re-read: a boundary set read as a
        prefix eats (1, d), one read as the suffix a prefix leaves
        (2n - d + 1, 2n), and a local set's arc starts at its restricted
        run's first frontier index, or one past its complement's last,
        mapped through the cut: (start + 1, start + d).

        On a chain of blocks, the queued either-end flushes come first,
        each as _restrict(k, s) and then _restrict(k, U - s).  For
        ∅ ≠ s ⊊ U, s is a prefix or a suffix of the block's order iff s and
        U - s are both consecutive in it; the markers pin the order between
        the tree's ends, so two plain restricts state each flush exactly,
        and the queue's order only picks which failure is reported.  Then
        each reading of the block orders is expanded into a vertex sequence,
        and the window of every local nonprobe that meets a block partially,
        and every boundary nonprobe's end, is checked in it; a failure
        names its witness on the first reading.

        The settled sequence keeps every local nonprobe's leftmost window:
        the one found here, or its block window expanded through the block
        orders.  A run of whole neighbour blocks is a run of neighbour
        vertices, and the leftmost at block level is the leftmost at vertex
        level.  It keeps every boundary nonprobe's run at the end it eats,
        in ends.
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
                    d = len(s)
                    if chain and not _nests(s, chain[0]):
                        s = full - s
                        self.ends[w] = (2 * n - d + 1, 2 * n)
                    else:
                        self.ends[w] = (1, d)
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
            ends: dict = {}
            if bad is None:
                for w, nbrs in self.boundary_ws:
                    if (got := _vertex_side(vcs, nbrs)) is None:
                        bad = w
                        break
                    ends[w] = got
            if bad is None:
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
                self.ends = ends
                return None
            if witness is None:
                witness = bad
        return witness

    def place(self, flipped: bool, seq: list, windows: dict) -> None:
        """Append the settled sequence to the final one, seq, reversed when
        the component is flipped, the windows of its local nonprobes, by
        neighbourhood, to windows, and map its boundary runs, in ends, into
        seq.  Mirroring makes the last perfect run the leftmost, so a
        flipped component gives each local nonprobe its last run; a
        boundary run is the one at its end, so it is mirrored as it is.

        self.windows and self.ends are rewritten in final positions rather
        than copied, so the settled ones are freed here and the cyclic
        collector, which counts live objects, runs no more often than
        without them.
        """
        vcs = self.vcs
        off = len(seq)
        own, ends = self.windows, self.ends
        if flipped:
            e = off + len(vcs.seq) + 1
            seq.extend(reversed(vcs.seq))
            for nbrs, (lo, hi) in own.items():
                lo, hi = _last_run(vcs, nbrs, lo, hi)
                own[nbrs] = (e - hi, e - lo)
            for w, (lo, hi) in ends.items():
                ends[w] = (e - hi, e - lo)
        else:
            seq.extend(vcs.seq)
            for nbrs, (lo, hi) in own.items():
                own[nbrs] = (off + lo, off + hi)
            for w, (lo, hi) in ends.items():
                ends[w] = (off + lo, off + hi)
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


def _vertex_side(vcs: CanonicalSequence, nbrs):
    """The perfect run (lo, hi) of nbrs at an end of the sequence, or None.

    nbrs misses some vertex of the component, so at most one end qualifies:
    the last vertex of the sequence is last in L order, so a run from the
    left end that reaches it has covered the whole component.  A run at the
    left end is the first run, and one at the right end the last.
    """
    got = perfect_substring_bounds(vcs, nbrs)
    if got is None or got[0] == 1:
        return got
    got = _last_run(vcs, nbrs, *got)
    return got if got[1] == len(vcs.seq) else None


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
    # only a component with something to decide gets a state
    states: list = [None] * (r + 1)

    def new_state(ci: int) -> _CompState:
        lo = bounds[ci - 1]
        state = states[ci] = _CompState(rg, bcs, border[lo:bounds[ci]], lo, sizes[ci])
        return state

    # a connected, twin-free probe part has one stair sequence up to
    # reversal; a nonprobe without a window there is reported as A1_FAIL
    missing = A1_FAIL if r == 1 and rg.t == g.p else B1_FAIL

    local_ws: dict = {}  # component -> [(w, nbrs)] confined to it
    multi_ws = []
    singles = []  # neighbourhoods of one probe
    component_of, block_of = bo.component_of, rg.block_of
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

    for ci in sorted(local_ws):
        state = new_state(ci)
        for w, nbrs in local_ws[ci]:
            code = state.constrain_local(w, nbrs)
            if code is not None:
                return _reject(missing if code == B1_FAIL else code, witness=w)

    for w, touched in multi_ws:
        partial_cis = [ci for ci, us in touched.items() if len(us) < sizes[ci]]
        if len(partial_cis) > 2:
            return _reject(CASE3, witness=w)
        for ci in partial_cis:
            code = (states[ci] or new_state(ci)).constrain_boundary(w, touched[ci])
            if code is not None:
                return _reject(code, witness=w)

    for state in filter(None, states):
        bad = state.settle()
        if bad is not None:
            return _reject(FINAL_CHECK_FAIL, witness=bad)

    got = _arrange_components(sizes, states, multi_ws)
    if isinstance(got, int):
        return _reject(MARKER_PQ_INFEASIBLE, witness=got)
    if r == 1 and states[1] is not None:  # a lone component is never flipped
        cs, windows = states[1].vcs, states[1].windows
    else:
        seq: list = []
        windows = {}  # neighbourhood -> window in the final sequence
        start = [0] * (r + 1)  # component -> its offset in seq
        for ci, flipped in got:
            start[ci] = len(seq)
            state = states[ci]
            if state is not None:
                state.place(flipped, seq, windows)
                continue
            # nothing to decide: the sequence settle would build, each block
            # in its own order; every nonprobe that reaches the component
            # eats it whole, so either orientation serves
            for k in bcs.seq[2 * bounds[ci - 1]:2 * bounds[ci]]:
                seq.extend(rg.blocks[k - 1])
        cs = sequence_from_iterable(seq)
        # the arrangement keeps a cross nonprobe's components together, with
        # each partly eaten one's eaten end inward, so its pieces make one run
        for w, touched in multi_ws:
            lo, hi = len(seq), 0
            for ci, us in touched.items():
                if len(us) == sizes[ci]:
                    a, b = start[ci] + 1, start[ci] + 2 * sizes[ci]
                else:
                    a, b = states[ci].ends[w]
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


def _arrange_components(sizes: list, states: list, multi_ws: list):
    """Order and orient the components, sizes[ci] probes in component ci.

    One consecutive-ones instance over {L, R} end markers per component:
    each marker pair stays together, and every cross-component nonprobe's
    marker set (both markers of fully-eaten components plus the eaten-end
    marker of partially-eaten ones) must come out consecutive.  A partially
    eaten component has exactly one eaten end, fixed by settle: its state's
    run for the nonprobe starts at 1 on the left end.  So the instance has
    no choices left.  Returns [(component, flipped)] or a witness nonprobe.
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
                tset.add(2 * ci - 1 if states[ci].ends[w][0] == 1 else 2 * ci)
        if not tree.restrict(tset):
            return w
    # each component's markers are adjacent, so the first of each pair
    # tells its orientation
    return [((x + 1) // 2, x % 2 == 0) for x in tree.frontier()[::2]]


# -- certificates ------------------------------------------------------------


class MissingWindow(ValueError):
    """windows holds no window for a nonprobe: a fault of the recognizer."""

    def __init__(self, w: int):
        super().__init__(f"sequence admits no window for nonprobe {w}")
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
