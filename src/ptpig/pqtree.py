"""PQ-trees: a constraint store over orderings of a finite universe.

A tree's frontier set is all leaf orders reachable by permuting children of
P-nodes and reversing children of Q-nodes.  ``restrict`` narrows that set to
the orders where a given subset is consecutive (classic template reduction);
``orestrict`` and ``oriented_consecutive_ones`` add end-flush variants using
two reserved marker leaves pinned to the ends.

A failed ``restrict`` leaves the tree partially rewritten.  Callers either
abandon the tree (rejection paths) or probe on a clone (``orestrict`` does).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import factorial

MARK_LEFT = "⊢"
MARK_RIGHT = "⊣"

_FULL = "F"


class FrontierCapExceeded(RuntimeError):
    """enumerate_frontiers would produce more orderings than the cap."""


@dataclass(frozen=True)
class Restriction:
    """A subset plus orientation: 0 consecutive, -1/+1 consecutive and
    flushed to the left/right end, 2 flushed to either end."""

    members: frozenset
    orient: int

    def __post_init__(self):
        if self.orient not in (-1, 0, 1, 2):
            raise ValueError(f"bad orientation {self.orient}")
        if not self.members:
            raise ValueError("empty restriction set")


class _Node:
    __slots__ = (
        "kind",  # "L" leaf, "P", "Q"
        "label",
        "parent",
        "pchildren",  # ordered dict of children (P-nodes)
        "first",  # linked child list (Q-nodes)
        "last",
        "lsib",
        "rsib",
        "child_count",
    )

    def __init__(self, kind, label=None):
        self.kind = kind
        self.label = label
        self.parent = None
        self.pchildren = None
        self.first = None
        self.last = None
        self.lsib = None
        self.rsib = None
        self.child_count = 0

    def children(self) -> list["_Node"]:
        if self.kind == "L":
            return []
        if self.kind == "P":
            return list(self.pchildren)
        out = []
        c = self.first
        while c is not None:
            out.append(c)
            c = c.rsib
        return out


def _make_p(children) -> _Node:
    n = _Node("P")
    n.pchildren = {}
    for c in children:
        n.pchildren[c] = None
        c.parent = n
    n.child_count = len(n.pchildren)
    return n


def _make_q(children) -> _Node:
    n = _Node("Q")
    prev = None
    for c in children:
        c.parent = n
        c.lsib = prev
        c.rsib = None
        if prev is None:
            n.first = c
        else:
            prev.rsib = c
        prev = c
    n.last = prev
    n.child_count = len(children)
    return n


def _group(children) -> _Node:
    return children[0] if len(children) == 1 else _make_p(children)


def _p_remove(parent: _Node, child: _Node) -> None:
    del parent.pchildren[child]
    parent.child_count -= 1
    child.parent = None


def _p_add(parent: _Node, child: _Node) -> None:
    parent.pchildren[child] = None
    parent.child_count += 1
    child.parent = parent


def _q_append(parent: _Node, child: _Node) -> None:
    child.parent = parent
    child.lsib = parent.last
    child.rsib = None
    if parent.last is None:
        parent.first = child
    else:
        parent.last.rsib = child
    parent.last = child
    parent.child_count += 1


def _q_prepend(parent: _Node, child: _Node) -> None:
    child.parent = parent
    child.rsib = parent.first
    child.lsib = None
    if parent.first is None:
        parent.last = child
    else:
        parent.first.lsib = child
    parent.first = child
    parent.child_count += 1


def _q_orient_full_last(q: _Node, side: int) -> None:
    """Reverse q's child list in place when its full end is not last."""
    if side == 1:
        return
    c = q.first
    while c is not None:
        c.lsib, c.rsib = c.rsib, c.lsib
        c = c.lsib
    q.first, q.last = q.last, q.first


class PQTree:
    """Mutable PQ-tree over distinct hashable labels."""

    def __init__(self, universe):
        labels = list(universe)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels in universe")
        self._universe = tuple(labels)
        self._labels = frozenset(labels)
        self._rank = {x: i for i, x in enumerate(labels)}
        self._leaf: dict = {}
        for x in labels:
            lf = _Node("L", x)
            self._leaf[x] = lf
        if not labels:
            self._root = None
        elif len(labels) == 1:
            self._root = self._leaf[labels[0]]
        else:
            self._root = _make_p([self._leaf[x] for x in labels])

    @property
    def universe(self):
        return self._universe

    # -- structural edits ------------------------------------------------

    def _replace_child(self, parent, old: _Node, new: _Node) -> None:
        if parent is None:
            self._root = new
            new.parent = None
            new.lsib = new.rsib = None
            return
        if parent.kind == "P":
            del parent.pchildren[old]
            parent.pchildren[new] = None
            new.parent = parent
            new.lsib = new.rsib = None
            old.parent = None
            return
        new.lsib = old.lsib
        new.rsib = old.rsib
        if old.lsib is not None:
            old.lsib.rsib = new
        else:
            parent.first = new
        if old.rsib is not None:
            old.rsib.lsib = new
        else:
            parent.last = new
        new.parent = parent
        old.parent = None

    def _q_dissolve(self, parent: _Node, cp: _Node, fulls_right: bool, side: int) -> None:
        """Replace Q-child cp of Q-node parent by cp's own children, oriented
        so cp's full end points right (or left)."""
        kids = cp.children()
        if (side == 1) != fulls_right:
            kids.reverse()
        left, right = cp.lsib, cp.rsib
        prev = left
        for k in kids:
            k.parent = parent
            k.lsib = prev
            if prev is None:
                parent.first = k
            else:
                prev.rsib = k
            prev = k
        prev.rsib = right
        if right is None:
            parent.last = prev
        else:
            right.lsib = prev
        parent.child_count += len(kids) - 1
        cp.parent = None

    # -- restrict --------------------------------------------------------

    def restrict(self, s) -> bool:
        """Narrow the frontier set to orders where s is consecutive.

        Returns False when no such order exists (tree is then spent).
        """
        sset = frozenset(s)
        if not sset <= self._labels:
            raise ValueError("restriction set outside universe")
        size = len(sset)
        if size <= 1 or size == len(self._labels):
            return True

        # count pertinent leaves under every ancestor, remembering each
        # node's pertinent children
        count: dict[_Node, int] = {}
        pert_children: dict[_Node, list[_Node]] = {}
        registered: set[int] = set()
        # Stable leaf order: frozenset iteration follows hash order, which is
        # randomized per process for str labels and would leak into layouts.
        leaves = [self._leaf[x] for x in sorted(sset, key=self._rank.__getitem__)]
        for lf in leaves:
            node = lf
            while node is not None:
                count[node] = count.get(node, 0) + 1
                par = node.parent
                if par is not None and id(node) not in registered:
                    registered.add(id(node))
                    pert_children.setdefault(par, []).append(node)
                node = par

        node = leaves[0]
        while count[node] != size:
            node = node.parent
        pert_root = node

        depth: dict[_Node, int] = {}

        def node_depth(n: _Node) -> int:
            chain = []
            while n is not None and n not in depth:
                chain.append(n)
                n = n.parent
            d = depth[n] if n is not None else -1
            for x in reversed(chain):
                d += 1
                depth[x] = d
            return d

        root_depth = node_depth(pert_root)
        agenda = [
            n
            for n in count
            if n.kind != "L" and node_depth(n) >= root_depth
        ]
        agenda.sort(key=lambda n: depth[n], reverse=True)

        labels: dict[_Node, object] = {lf: _FULL for lf in leaves}
        replaced: dict[_Node, _Node] = {}
        pseudos: list[_Node] = []

        for node in agenda:
            is_root = node is pert_root
            fulls: list[_Node] = []
            partials: list[_Node] = []
            for c in pert_children[node]:
                c = replaced.get(c, c)
                if labels[c] is _FULL:
                    fulls.append(c)
                else:
                    partials.append(c)

            if node.kind == "P":
                if not partials and len(fulls) == node.child_count:
                    labels[node] = _FULL  # wholly pertinent subtree
                    continue
                if not is_root:
                    if len(partials) > 1:
                        return False
                    if not partials:
                        # split into a transient 2-child Q: empties | fulls
                        for f in fulls:
                            _p_remove(node, f)
                        fgrp = _group(fulls)
                        par = node.parent
                        if node.child_count == 1:
                            egrp = next(iter(node.pchildren))
                            _p_remove(node, egrp)
                        else:
                            egrp = node
                        q = _Node("Q")
                        self._replace_child(par, node, q)
                        for k in (egrp, fgrp):
                            k.parent = q
                        egrp.lsib = None
                        egrp.rsib = fgrp
                        fgrp.lsib = egrp
                        fgrp.rsib = None
                        q.first = egrp
                        q.last = fgrp
                        q.child_count = 2
                        labels[q] = ("P", 1)
                        replaced[node] = q
                        pseudos.append(q)
                        continue
                    # one partial child absorbs the groups
                    c = partials[0]
                    _, side = labels[c]
                    for f in fulls:
                        _p_remove(node, f)
                    _p_remove(node, c)
                    _q_orient_full_last(c, side)
                    if fulls:
                        _q_append(c, _group(fulls))
                    par = node.parent
                    if node.child_count == 0:
                        egrp = None
                    elif node.child_count == 1:
                        egrp = next(iter(node.pchildren))
                        _p_remove(node, egrp)
                    else:
                        egrp = node
                    self._replace_child(par, node, c)
                    if egrp is not None:
                        _q_prepend(c, egrp)
                    labels[c] = ("P", 1)
                    replaced[node] = c
                    continue
                # pertinent root, P kind
                if len(partials) > 2:
                    return False
                if not partials:
                    if len(fulls) >= 2:
                        for f in fulls:
                            _p_remove(node, f)
                        _p_add(node, _make_p(fulls))
                    continue
                if len(partials) == 1:
                    c = partials[0]
                    _, side = labels[c]
                    _q_orient_full_last(c, side)
                    for f in fulls:
                        _p_remove(node, f)
                    if fulls:
                        _q_append(c, _group(fulls))
                    if node.child_count == 1:
                        _p_remove(node, c)
                        self._replace_child(node.parent, node, c)
                    continue
                c1, c2 = partials
                _, side1 = labels[c1]
                _, side2 = labels[c2]
                _q_orient_full_last(c1, side1)
                for f in fulls:
                    _p_remove(node, f)
                _p_remove(node, c2)
                if fulls:
                    _q_append(c1, _group(fulls))
                # attach c2's children full-end first
                _q_orient_full_last(c2, side2)
                kids = c2.children()
                kids.reverse()
                for k in kids:
                    _q_append(c1, k)
                c2.parent = None
                if node.child_count == 1:
                    _p_remove(node, c1)
                    self._replace_child(node.parent, node, c1)
                continue

            # Q-node: pertinent children must form one contiguous run
            pert = [replaced.get(c, c) for c in pert_children[node]]
            pset = set(map(id, pert))
            c0 = pert[0]
            left = c0
            while left.lsib is not None and id(left.lsib) in pset:
                left = left.lsib
            right = c0
            while right.rsib is not None and id(right.rsib) in pset:
                right = right.rsib
            run = []
            c = left
            while True:
                run.append(c)
                if c is right:
                    break
                c = c.rsib
            if len(run) != len(pert):
                return False
            run_partial = [i for i, c in enumerate(run) if labels[c] is not _FULL]

            if not is_root:
                if not run_partial and len(run) == node.child_count:
                    labels[node] = _FULL
                    continue
                if len(run_partial) > 1:
                    return False
                at_head = left is node.first
                at_tail = right is node.last
                if run_partial:
                    i = run_partial[0]
                    cp = run[i]
                    if at_tail and i == 0:
                        self._q_dissolve(node, cp, True, labels[cp][1])
                        labels[node] = ("P", 1)
                    elif at_head and i == len(run) - 1:
                        self._q_dissolve(node, cp, False, labels[cp][1])
                        labels[node] = ("P", 0)
                    else:
                        return False
                else:
                    if at_tail:
                        labels[node] = ("P", 1)
                    elif at_head:
                        labels[node] = ("P", 0)
                    else:
                        return False
                continue
            # pertinent root, Q kind: partials only at the run's two ends
            if len(run_partial) > 2:
                return False
            last_i = len(run) - 1
            for i in run_partial:
                if i != 0 and i != last_i:
                    return False
            if last_i in run_partial and last_i != 0:
                cp = run[last_i]
                self._q_dissolve(node, cp, False, labels[cp][1])
            if 0 in run_partial:
                cp = run[0]
                self._q_dissolve(node, cp, True, labels[cp][1])

        # transient 2-child Q-nodes that survived become P-nodes
        for q in pseudos:
            if q.parent is None and q is not self._root:
                continue
            if q.kind == "Q" and q.child_count == 2:
                kids = q.children()
                q.kind = "P"
                q.first = q.last = None
                q.pchildren = {}
                for k in kids:
                    k.lsib = k.rsib = None
                    q.pchildren[k] = None
        return True

    # -- oriented variants -------------------------------------------------

    def orestrict(self, s, a, b) -> int:
        """Make s∪{a} consecutive if possible, else s∪{b}.

        Probes the first branch on a clone so a failed probe cannot corrupt
        this tree; adopts the clone on success.  Returns 1 if the a-branch
        was taken, 2 for the b-branch, 0 if neither is feasible.
        """
        sset = frozenset(s)
        if a in sset or b in sset:
            raise ValueError("markers must lie outside the restriction set")
        probe = self.clone()
        if probe.restrict(sset | {a}):
            self._root = probe._root
            self._leaf = probe._leaf
            return 1
        return 2 if self.restrict(sset | {b}) else 0

    # -- reading ----------------------------------------------------------

    def frontier(self) -> list:
        if self._root is None:
            return []
        out = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.kind == "L":
                out.append(node.label)
            else:
                stack.extend(reversed(node.children()))
        return out

    def _count_frontiers(self, node: _Node) -> int:
        if node.kind == "L":
            return 1
        total = 1
        for c in node.children():
            total *= self._count_frontiers(c)
        if node.kind == "P":
            total *= factorial(node.child_count)
        elif node.child_count >= 2:
            total *= 2
        return total

    def enumerate_frontiers(self, cap: int) -> list[tuple]:
        """Every admissible ordering; raises FrontierCapExceeded past cap."""
        if self._root is None:
            return [()]
        if self._count_frontiers(self._root) > cap:
            raise FrontierCapExceeded(f"more than {cap} admissible orderings")

        def expand(node: _Node) -> list[tuple]:
            if node.kind == "L":
                return [(node.label,)]
            kid_sets = [expand(c) for c in node.children()]
            out = []
            if node.kind == "P":
                for order in permutations(range(len(kid_sets))):
                    out.extend(_cross([kid_sets[i] for i in order]))
            else:
                out.extend(_cross(kid_sets))
                if node.child_count >= 2:
                    out.extend(_cross(list(reversed(kid_sets))))
            return out

        return expand(self._root)

    def clone(self) -> "PQTree":
        t = PQTree.__new__(PQTree)
        t._universe = self._universe
        t._labels = self._labels
        t._rank = self._rank
        t._leaf = {}
        if self._root is None:
            t._root = None
            return t

        # preorder with an explicit stack, then copy it backwards so that
        # every node's children are copied before the node itself
        order = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(node.children())
        copies: dict = {}
        for node in reversed(order):
            if node.kind == "L":
                copies[node] = t._leaf[node.label] = _Node("L", node.label)
            else:
                kids = [copies[c] for c in node.children()]
                copies[node] = _make_p(kids) if node.kind == "P" else _make_q(kids)
        t._root = copies[self._root]
        return t

    def serialize(self) -> str:
        """Nested-parentheses debug form, e.g. ``P(1 Q(2 3 4) 5)``."""
        if self._root is None:
            return "()"

        def render(node: _Node) -> str:
            if node.kind == "L":
                return str(node.label)
            inner = " ".join(render(c) for c in node.children())
            return f"{node.kind}({inner})"

        return render(self._root)


def _cross(kid_sets: list[list[tuple]]) -> list[tuple]:
    acc: list[tuple] = [()]
    for ks in kid_sets:
        acc = [a + k for a in acc for k in ks]
    return acc


def oriented_consecutive_ones(universe, rs) -> PQTree | None:
    """Solve a batch of oriented consecutiveness restrictions.

    Returns a tree over universe plus the two end markers (pinned to the
    ends), or None when unsatisfiable.  All either-oriented restrictions
    must come after the rest; greedy resolution is only exact under that
    ordering.
    """
    elems = list(universe)
    if MARK_LEFT in elems or MARK_RIGHT in elems:
        raise ValueError("end markers are reserved labels")
    seen_either = False
    for r in rs:
        if r.orient == 2:
            seen_either = True
        elif seen_either:
            raise ValueError("either-oriented restrictions must come last")
        if not r.members <= set(elems):
            raise ValueError("restriction outside universe")

    tree = PQTree(elems + [MARK_LEFT, MARK_RIGHT])
    base = frozenset(elems)
    if not tree.restrict(base | {MARK_LEFT}):
        return None
    if not tree.restrict(base | {MARK_RIGHT}):
        return None
    for r in rs:
        if r.orient == 0:
            ok = tree.restrict(r.members)
        elif r.orient == -1:
            ok = tree.restrict(r.members | {MARK_LEFT})
        elif r.orient == 1:
            ok = tree.restrict(r.members | {MARK_RIGHT})
        else:
            ok = tree.orestrict(r.members, MARK_LEFT, MARK_RIGHT)
        if not ok:
            return None
    return tree


def strip_markers(order) -> tuple:
    """Read an ordering of universe∪markers with the left marker first."""
    xs = list(order)
    if xs and xs[-1] == MARK_LEFT:
        xs.reverse()
    return tuple(x for x in xs if x != MARK_LEFT and x != MARK_RIGHT)
