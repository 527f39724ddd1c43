"""PQ-trees: a constraint store over orderings of a finite universe.

A tree's frontier set is all leaf orders reachable by permuting children of
P-nodes and reversing children of Q-nodes.  ``restrict`` narrows that set to
the orders where a given subset is consecutive, by the templates of Booth
and Lueker (JCSS 13, 1976): one template serves every pertinent P-node, root
or not, and adds new children at the full end of a partial Q-node, so no
Q-node is ever reversed.  Two reserved marker leaves, pinned to the ends,
let a plain ``restrict`` flush a set to one end or, with its complement, to
either end.

A successful ``restrict`` costs O(|s| + depth), plus the length of the
shorter partial child spliced into the longer at a P-node root and of each
partial Q-node dissolved into its Q-node parent.  A failed ``restrict``
leaves the tree partially rewritten, and recognition never retries after
one: it rejects.  ``orestrict`` and ``clone`` have no caller in
recognition; they stay only because the benchmark's tracer wraps them by
name.
"""

from __future__ import annotations

MARK_LEFT = "⊢"
MARK_RIGHT = "⊣"

_FULL = "F"


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


def _q_attach(parent: _Node, child: _Node, right) -> None:
    """Add child at the right end of Q-node parent, or at its left end."""
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
        labels = list(universe)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels in universe")
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

        # Bubble up: each node joins its parent's list of pertinent children
        # when first reached, and a walk stops at the first parent already
        # reached, so only the first walk goes on to the root.  Stable leaf
        # order: frozenset iteration follows hash order, which is randomized
        # per process for str labels and would leak into layouts.
        leaves = [self._leaf[x] for x in sorted(sset, key=self._rank.__getitem__)]
        pert_children: dict[_Node, list[_Node]] = {}
        for node in leaves:
            while (par := node.parent) is not None:
                if par in pert_children:
                    pert_children[par].append(node)
                    break
                pert_children[par] = [node]
                node = par

        # Children before parents: a node is ready once all its pertinent
        # children are; the first to hold all of s is the pertinent root.
        count = dict.fromkeys(leaves, 1)
        waiting = {n: len(kids) for n, kids in pert_children.items()}
        agenda = list(leaves)
        for node in agenda:
            if count[node] == size:
                break
            par = node.parent
            count[par] = count.get(par, 0) + count[node]
            waiting[par] -= 1
            if not waiting[par]:
                agenda.append(par)
        pert_root = node
        del agenda[: len(leaves)]

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
                if len(partials) > 1 + is_root:
                    return False
                # the longer partial Q absorbs the rest at its full end, so
                # only the shorter one is walked; with none, a transient Q
                for f in fulls:
                    _p_remove(node, f)
                if len(partials) == 2 and partials[1].child_count > partials[0].child_count:
                    partials.reverse()
                if partials:
                    c = partials[0]
                    side = labels[c][1]
                else:
                    c = _Node("Q")
                    side = 1
                    pseudos.append(c)
                if fulls:
                    _q_attach(c, _group(fulls), side)
                if len(partials) == 2:
                    c2 = partials[1]
                    _p_remove(node, c2)
                    kids = c2.children()
                    if labels[c2][1]:  # full end first
                        kids.reverse()
                    for k in kids:
                        _q_attach(c, k, side)
                if is_root:
                    if c.parent is None:
                        _p_add(node, c)
                    if node.child_count == 1:
                        _p_remove(node, c)
                        self._replace_child(node.parent, node, c)
                    continue
                if partials:
                    _p_remove(node, c)
                if node.child_count == 0:
                    egrp = None
                elif node.child_count == 1:
                    egrp = next(iter(node.pchildren))
                    _p_remove(node, egrp)
                else:
                    egrp = node
                self._replace_child(node.parent, node, c)
                if egrp is not None:
                    _q_attach(c, egrp, not side)
                labels[c] = ("P", side)
                replaced[node] = c
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

        # transient Q-nodes that survived with two children become P-nodes;
        # one child is the root's group of fulls, which stands for itself
        for q in pseudos:
            if q.parent is None and q is not self._root:
                continue
            if q.child_count == 1:
                self._replace_child(q.parent, q, q.first)
            elif q.child_count == 2:
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
        if self._root is None:
            return []
        return [node.label for node in _preorder(self._root) if node.kind == "L"]

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
                copies[node] = _make_p(kids) if node.kind == "P" else _make_q(kids)
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
