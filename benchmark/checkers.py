"""Output checkers that share no code with the library.

They read only plain data: vertex lists, arc lists with their class flags,
and the vertex sequences of paths.  A bug in the library's own balance test
or witness verifier therefore cannot vouch for the library's output here.
"""

from __future__ import annotations


class Graph:
    """Plain copy of a labeled digraph: arc weights and adjacency lists."""

    def __init__(self, vertices, arcs, z1, z2):
        self.vertices = set(vertices)
        z1, z2 = set(z1), set(z2)
        self.weight = {a: (a in z1) - (a in z2) for a in arcs}
        self.z1 = z1
        self.z2 = z2
        self.out = {v: [] for v in self.vertices}
        for u, v in arcs:
            self.out[u].append(v)

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        """Read instance file text ('n <count>' and 'a <u> <v> <z1> <z2>'
        records) without the library's parser."""
        n, arcs, z1, z2 = 0, [], [], []
        for line in text.splitlines():
            f = line.split()
            if f and f[0] == "n":
                n = int(f[1])
            elif f and f[0] == "a":
                a = (int(f[1]), int(f[2]))
                arcs.append(a)
                if f[3] == "1":
                    z1.append(a)
                if f[4] == "1":
                    z2.append(a)
        return cls(range(n), arcs, z1, z2)


def _components(g: Graph, part: set) -> list[set]:
    """Strong components of g restricted to ``part`` (Kosaraju, iterative)."""
    order, seen = [], set()
    for root in sorted(part):
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(g.out[root]))]
        while stack:
            v, it = stack[-1]
            nxt = next((w for w in it if w in part and w not in seen), None)
            if nxt is None:
                order.append(v)
                stack.pop()
            else:
                seen.add(nxt)
                stack.append((nxt, iter(g.out[nxt])))
    rev = {v: [] for v in part}
    for u in part:
        for w in g.out[u]:
            if w in part:
                rev[w].append(u)
    comps, done = [], set()
    for root in reversed(order):
        if root in done:
            continue
        comp, stack = {root}, [root]
        done.add(root)
        while stack:
            for w in rev[stack.pop()]:
                if w not in done:
                    done.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def block_is_balanced(g: Graph, block: set) -> bool:
    """True iff D[block] has no directed cycle of nonzero weight.

    Inside each strong component every arc lies on a directed cycle, and the
    cycle space is spanned by directed cycles, so the component is balanced
    exactly when some potential p has p(w) - p(u) = weight(u, w) on each of
    its arcs.  Potentials are spread over the arcs in both directions.
    """
    for comp in _components(g, block):
        nbrs = {v: [] for v in comp}
        for u in comp:
            for w in g.out[u]:
                if w in comp:
                    wt = g.weight[(u, w)]
                    nbrs[u].append((w, wt))
                    nbrs[w].append((u, -wt))
        root = min(comp)
        pot = {root: 0}
        stack = [root]
        while stack:
            u = stack.pop()
            for w, wt in nbrs[u]:
                if w not in pot:
                    pot[w] = pot[u] + wt
                    stack.append(w)
                elif pot[w] != pot[u] + wt:
                    return False
    return True


def check_mu(g: Graph, value: int, blocks) -> str | None:
    """Upper-bound certificate check: ``value`` nonempty blocks that
    partition the vertex set, each balanced.  Returns a reason or None."""
    blocks = [set(b) for b in blocks]
    if len(blocks) != value:
        return f"{len(blocks)} certificate blocks for value {value}"
    if any(not b for b in blocks):
        return "empty certificate block"
    union = set()
    for b in blocks:
        if union & b:
            return "certificate blocks overlap"
        union |= b
    if union != g.vertices:
        return "certificate blocks do not cover the vertex set"
    for i, b in enumerate(blocks):
        if not block_is_balanced(g, b):
            return f"certificate block {i} induces an unbalanced cycle"
    return None


def check_witness(g: Graph, arcs, branch, paths) -> str | None:
    """Subdivision witness check.

    ``arcs`` holds pattern arcs as (tail, head, a, b, r, q); ``branch`` maps
    pattern vertices to digraph vertices; ``paths`` maps (tail, head) to a
    vertex sequence.  Returns a reason or None.
    """
    branch = list(branch)
    if len(set(branch)) != len(branch):
        return "branch map is not injective"
    if not set(branch) <= g.vertices:
        return "branch vertex outside the digraph"
    keys = {(t, h) for t, h, *_ in arcs}
    if set(paths) != keys:
        return "witness paths do not match the pattern arcs"
    branch_set = set(branch)
    used = set()
    for t, h, a, b, r, q in arcs:
        seq = list(paths[(t, h)])
        if len(seq) < 2 or len(set(seq)) != len(seq):
            return f"path {(t, h)} is not a simple path with an arc"
        if seq[0] != branch[t] or seq[-1] != branch[h]:
            return f"path {(t, h)} does not join its branch vertices"
        steps = list(zip(seq, seq[1:]))
        if any(s not in g.weight for s in steps):
            return f"path {(t, h)} uses a non-arc"
        for v in seq[1:-1]:
            if v in branch_set or v in used:
                return f"path {(t, h)} is not internally disjoint at {v}"
            used.add(v)
        c1 = sum(1 for s in steps if s in g.z1)
        c2 = sum(1 for s in steps if s in g.z2)
        if (a * c1 + b * c2 - r) % q:
            return f"path {(t, h)} has residue {(a * c1 + b * c2) % q}, not {r % q}"
    return None
