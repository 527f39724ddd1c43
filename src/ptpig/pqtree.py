"""PQ-trees: a constraint store over orderings of a finite universe.

A tree's frontier set is all leaf orders reachable by permuting children of
P-nodes and reversing children of Q-nodes.  Every internal node keeps its
children in one doubly linked list; in a P-node it is just the order the
frontier reads, and a child added there goes to the right end.  ``restrict``
narrows the frontier set to the orders where a given subset is consecutive,
by the templates of Booth and Lueker (JCSS 13, 1976), one for each node
kind, serving the pertinent root and the nodes below it alike.  New children
go in at the full end of a partial Q-node, so no Q-node is ever reversed,
and a P root builds no transient Q-node.  Two reserved marker leaves, pinned
to the ends, let a plain ``restrict`` flush a set to one end or, with its
complement, to either end; ``PQTree.pinned`` builds such a tree in that
shape at once.  ``PQTree.paired`` builds the tree in which pairs of leaves
are each consecutive, P(P(a₁ b₁) … P(aᵣ bᵣ)), at once too.

A reduction keeps its state on the nodes, as Booth and Lueker's does: each
pertinent node's pertinent children, its count of pertinent leaves, the
children still to be counted and its full or partial mark are fields of
the node, valid only under the stamp that the call wrote there.  Stamps
come from one counter for every tree, so a field that an earlier or failed
call left behind, in this tree or in a clone it adopted, is never read.
``restrict`` first sorts s by the labels' ranks, O(|s| log |s|), so that
the order in which it meets the leaves, and with it every layout, does not
depend on hash order.  The rest of a successful ``restrict`` costs
O(|s| + depth), plus the length of each partial Q-node dissolved into its
parent.  A failed ``restrict`` leaves the tree partially rewritten, and
recognition never retries after one: it rejects.  ``orestrict`` and
``clone`` have no caller in recognition; they stay only because the
benchmark's tracer wraps them by name.
"""

from __future__ import annotations

from itertools import count

MARK_LEFT = "⊢"
MARK_RIGHT = "⊣"

_FULL = "F"

# restrict stamps: one sequence shared by every tree, because orestrict
# adopts the nodes of a clone that another stamp has already touched
_stamps = count(1)


class _Node:
    __slots__ = (
        "kind",  # "L" leaf, "P", "Q"
        "label",
        "parent",
        "first",  # doubly linked child list
        "last",
        "lsib",
        "rsib",
        "child_count",
        # a restrict's state, read only under the stamp of the call that
        # wrote it
        "stamp",  # the last restrict that reached this node
        "pert",  # pertinent children, in order of first reach
        "count",  # pertinent leaves below
        "waiting",  # pertinent children not yet counted
        "mark",  # _FULL, or (side of the full end, node standing in the tree)
    )

    def __init__(self, kind, label=None):
        self.kind = kind
        self.label = label
        self.parent = None
        self.first = None
        self.last = None
        self.lsib = None
        self.rsib = None
        self.child_count = 0
        self.stamp = 0
        # a pertinent leaf is always one full leaf, so its fields never change
        self.count = 1 if kind == "L" else 0
        self.mark = _FULL if kind == "L" else None

    def children(self) -> list["_Node"]:
        out = []
        c = self.first
        while c is not None:
            out.append(c)
            c = c.rsib
        return out


def _attach(parent: _Node, child: _Node, right) -> None:
    """Add child at the right end of parent's child list, or at its left end."""
    child.parent = parent
    if right:
        child.lsib, child.rsib = parent.last, None
        if parent.last is None:
            parent.first = child
        else:
            parent.last.rsib = child
        parent.last = child
    else:
        child.lsib, child.rsib = None, parent.first
        if parent.first is None:
            parent.last = child
        else:
            parent.first.lsib = child
        parent.first = child
    parent.child_count += 1


def _unlink(parent: _Node, child: _Node) -> None:
    if child.lsib is None:
        parent.first = child.rsib
    else:
        child.lsib.rsib = child.rsib
    if child.rsib is None:
        parent.last = child.lsib
    else:
        child.rsib.lsib = child.lsib
    parent.child_count -= 1
    child.parent = child.lsib = child.rsib = None


def _make(kind, children) -> _Node:
    n = _Node(kind)
    for c in children:
        _attach(n, c, True)
    return n


def _group(children) -> _Node:
    return children[0] if len(children) == 1 else _make("P", children)


def _preorder(root: _Node):
    """Every node under root, parents first, children left to right."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


class PQTree:
    """Mutable PQ-tree over distinct hashable labels."""

    def __init__(self, universe):
        self._index(list(universe))
        self._root = _group(list(self._leaf.values())) if self._leaf else None

    def _index(self, labels: list) -> None:
        """The universe, each label's rank and its leaf; no root yet."""
        self._labels = frozenset(labels)
        if len(self._labels) != len(labels):
            raise ValueError("duplicate labels in universe")
        self._rank = {x: i for i, x in enumerate(labels)}
        self._leaf = {x: _Node("L", x) for x in labels}

    @classmethod
    def pinned(cls, members) -> "PQTree":
        """Q(⊢ P(members) ⊣): PQTree((*members, ⊢, ⊣)) after restricting
        members ∪ {⊢} and then members ∪ {⊣}, built at once."""
        tree = cls.__new__(cls)
        tree._index([*members, MARK_LEFT, MARK_RIGHT])
        leaf = tree._leaf
        tree._root = _make("Q", [leaf[MARK_LEFT], _group([leaf[x] for x in members]), leaf[MARK_RIGHT]])
        return tree

    @classmethod
    def paired(cls, pairs) -> "PQTree":
        """P(P(a₁ b₁) … P(aᵣ bᵣ)), or P(a₁ b₁) for one pair:
        PQTree((a₁, b₁, …, aᵣ, bᵣ)) after restricting each pair in turn,
        built at once."""
        tree = cls.__new__(cls)
        tree._index([x for pair in pairs for x in pair])
        leaf = tree._leaf
        tree._root = _group([_make("P", [leaf[a], leaf[b]]) for a, b in pairs])
        return tree

    # -- structural edits ------------------------------------------------

    def _replace_child(self, parent, old: _Node, new: _Node) -> None:
        if parent is None:
            self._root = new
            new.parent = None
            new.lsib = new.rsib = None
            return
        if parent.kind == "P":
            # to the right end, like every child added to a P-node: the old
            # child's slot admits the same orders but reads another frontier,
            # and certificates are read off the frontier
            _unlink(parent, old)
            _attach(parent, new, True)
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

    def _q_dissolve(self, parent: _Node, cp: _Node, fulls_right) -> None:
        """Replace Q-child cp of Q-node parent by cp's own children, oriented
        so cp's full end, read from cp.mark, points right (or left)."""
        kids = cp.children()
        if cp.mark[0] != fulls_right:
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
        # Stable leaf order: frozenset iteration follows hash order, which is
        # randomized per process for str labels and would leak into layouts.
        # A label outside the universe has no rank.
        try:
            ordered = sorted(sset, key=self._rank.__getitem__)
        except KeyError:
            raise ValueError("restriction set outside universe") from None
        size = len(ordered)
        if size <= 1 or size == len(self._labels):
            return True

        # Bubble up: each node joins its parent's list of pertinent children
        # when first reached, and a walk stops at the first parent already
        # reached, so only the first walk goes on to the root.
        stamp = next(_stamps)
        leaves = list(map(self._leaf.__getitem__, ordered))
        for node in leaves:
            node.stamp = stamp
            while (par := node.parent) is not None:
                if par.stamp == stamp:
                    par.pert.append(node)
                    par.waiting += 1
                    break
                par.stamp = stamp
                par.pert = [node]
                par.count = 0
                par.waiting = 1
                node = par

        # Children before parents: a node is ready once all its pertinent
        # children are; the first to hold all of s is the pertinent root.
        agenda = list(leaves)
        for node in agenda:
            if node.count == size:
                break
            par = node.parent
            par.count += node.count
            par.waiting -= 1
            if not par.waiting:
                agenda.append(par)
        pert_root = node
        del agenda[: len(leaves)]

        pseudos: list[_Node] = []

        for node in agenda:
            is_root = node is pert_root
            if node.kind == "P":
                fulls: list[_Node] = []
                partials: list[tuple] = []  # their marks
                for c in node.pert:
                    if c.mark is _FULL:
                        fulls.append(c)
                    else:
                        partials.append(c.mark)
                if not partials and len(fulls) == node.child_count:
                    node.mark = _FULL  # wholly pertinent subtree
                    continue
                if len(partials) > 1 + is_root:
                    return False
                for f in fulls:
                    _unlink(node, f)
                if is_root and not partials:  # the fulls' group goes right
                    _attach(node, _group(fulls), True)
                    continue
                # the longer partial Q absorbs the rest at its full end, so
                # only the shorter one is walked; with none, a transient Q
                if len(partials) == 2 and partials[1][1].child_count > partials[0][1].child_count:
                    partials.reverse()
                if partials:
                    side, c = partials[0]
                else:
                    c = _Node("Q")
                    c.stamp = stamp  # it stands in for node
                    side = 1
                    pseudos.append(c)
                if fulls:
                    _attach(c, _group(fulls), side)
                if len(partials) == 2:
                    c2 = partials[1][1]
                    _unlink(node, c2)
                    _attach(c, c2, side)
                    self._q_dissolve(c, c2, not side)
                if is_root:
                    if node.child_count == 1:
                        _unlink(node, c)
                        self._replace_child(node.parent, node, c)
                    continue
                if partials:
                    _unlink(node, c)
                if node.child_count == 0:
                    egrp = None
                elif node.child_count == 1:
                    egrp = node.first
                    _unlink(node, egrp)
                else:
                    egrp = node
                self._replace_child(node.parent, node, c)
                if egrp is not None:
                    _attach(c, egrp, not side)
                # c stands in the tree for node, and its parent reads node
                node.mark = c.mark = (side, c)
                continue

            # Q-node: pertinent children must form one contiguous run; a
            # child is pertinent iff this call reached it or stands in for one
            c0 = node.pert[0]
            if c0.mark is not _FULL:
                c0 = c0.mark[1]
            left = c0
            while left.lsib is not None and left.lsib.stamp == stamp:
                left = left.lsib
            right = c0
            while right.rsib is not None and right.rsib.stamp == stamp:
                right = right.rsib
            run = []
            c = left
            while True:
                run.append(c)
                if c is right:
                    break
                c = c.rsib
            if len(run) != len(node.pert):
                return False
            # partial children only at the ends of the run: one below the
            # pertinent root, two at it
            last = len(run) - 1
            run_partial = [i for i, c in enumerate(run) if c.mark is not _FULL]
            if len(run_partial) > 1 + is_root or any(0 < i < last for i in run_partial):
                return False
            if not is_root:
                if not run_partial and len(run) == node.child_count:
                    node.mark = _FULL
                    continue
                # the run reaches one end of the node, its partial child
                # sits at the run's other end, and the full end is the one
                # the run reaches
                if right is node.last and run_partial in ([], [0]):
                    side = 1
                elif left is node.first and run_partial in ([], [last]):
                    side = 0
                else:
                    return False
                node.mark = (side, node)
            # each partial child opens toward the inside of the run; a lone
            # one, which only a node below the root holds, toward the end of
            # the node that the run reaches
            for i in run_partial:
                self._q_dissolve(node, run[i], i == 0 if last else side)

        # transient Q-nodes left with two children become P-nodes; one that
        # was dissolved is out of the tree, so its kind is never read
        for q in pseudos:
            if q.child_count == 2:
                q.kind = "P"
        return True

    # -- oriented variants -------------------------------------------------

    def orestrict(self, s, a, b) -> int:
        """Make s∪{a} consecutive if possible, else s∪{b}.

        Probes the first branch on a clone so a failed probe cannot corrupt
        this tree; adopts the clone on success.  Returns 1 if the a-branch
        was taken, 2 for the b-branch, 0 if neither is feasible.  Recognition
        does not call it: an either-end flush there is ``restrict(s)`` and
        ``restrict(U - s)``.  It stays while the benchmark's tracer wraps it
        by name, and goes with that tracer.
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
        """The leaves' labels, left to right: one admissible order.

        The stack holds, for each node on the way down, the sibling to go on
        with, so its depth is the tree's and no child list is built.
        """
        out: list = []
        if self._root is None:
            return out
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.rsib is not None:
                stack.append(node.rsib)
            if node.first is None:
                out.append(node.label)
            else:
                stack.append(node.first)
        return out

    def clone(self) -> "PQTree":
        """An independent copy.  Only ``orestrict`` calls it; it stays while
        the benchmark's tracer wraps it by name, and goes with that tracer."""
        t = PQTree.__new__(PQTree)
        t._labels = self._labels
        t._rank = self._rank
        t._leaf = {}
        if self._root is None:
            t._root = None
            return t

        # copy the preorder backwards, so that every node's children are
        # copied before the node itself
        copies: dict = {}
        for node in reversed(list(_preorder(self._root))):
            if node.kind == "L":
                copies[node] = t._leaf[node.label] = _Node("L", node.label)
            else:
                kids = [copies[c] for c in node.children()]
                copies[node] = _make(node.kind, kids)
        t._root = copies[self._root]
        return t

    def serialize(self) -> str:
        """Nested-parentheses debug form, e.g. ``P(1 Q(2 3 4) 5)``."""
        if self._root is None:
            return "()"

        # the stack holds nodes still to render and the text between them
        out = []
        stack = [self._root]
        while stack:
            item = stack.pop()
            if not isinstance(item, _Node):
                out.append(item)
            elif item.kind == "L":
                out.append(str(item.label))
            else:
                out.append(f"{item.kind}(")
                stack.append(")")
                for i, c in enumerate(reversed(item.children())):
                    stack.extend((" ", c) if i else (c,))
        return "".join(out)


def strip_markers(order) -> tuple:
    """Read an ordering of universe∪markers with the left marker first."""
    xs = list(order)
    if xs and xs[-1] == MARK_LEFT:
        xs.reverse()
    return tuple(x for x in xs if x != MARK_LEFT and x != MARK_RIGHT)
