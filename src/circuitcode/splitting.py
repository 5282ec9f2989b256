"""Symmetric splitting: replace dual vertex pairs by symmetric trees.

Each dual pair (bit v, check a) of a symmetric Tanner graph is replaced by a
bit tree and a check tree built from one template tree; neighbourhood subsets
decide where the original edges attach. The transformation preserves the
bit-check symmetry and the code, and can only shrink the circuit code
distance by a factor bounded by half the maximum input degree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .gf2 import BitMatrix
from .tanner import CodeMaps, SymmetryWitness, TannerGraph, VertexLabel, verify_symmetry


@dataclass
class PairPlan:
    bit: int
    check: int
    subsets: list[list[int]]  # partition of the check's bit neighbourhood
    tree: list[tuple[int, int]]  # template-tree edges on subset indices

    @property
    def order(self) -> int:
        return len(self.subsets)


@dataclass
class SplitPlan:
    pairs: dict[int, PairPlan]  # keyed by check index

    def validate(self, g: TannerGraph, w: SymmetryWitness) -> None:
        if set(self.pairs) != set(w.dual):
            raise ValueError("plan must cover every dual pair exactly once")
        for a, pp in self.pairs.items():
            if w.dual[a] != pp.bit or pp.check != a:
                raise ValueError("plan pair does not match the witness pairing")
            neigh = set(g.checks[a])
            seen: set[int] = set()
            for sub in pp.subsets:
                for u in sub:
                    if u in seen:
                        raise ValueError(f"subset partition of check {a} overlaps")
                    seen.add(u)
            if seen != neigh:
                raise ValueError(f"subsets of check {a} must cover its neighbourhood")
            r = pp.order
            if len(pp.tree) != r - 1:
                raise ValueError(f"template of pair {a} is not a tree")
            for i, j in pp.tree:
                if not (0 <= i < r and 0 <= j < r) or i == j:
                    raise ValueError(f"bad template edge ({i},{j})")
            if len(_tree_order(pp)[0]) != r:
                raise ValueError(f"template of pair {a} is disconnected")


def _tree_order(pp: PairPlan) -> tuple[dict[int, int | None], list[int]]:
    """Parent map and visiting order of a search of the template tree from 0."""
    adj: dict[int, list[int]] = {i: [] for i in range(pp.order)}
    for i, j in pp.tree:
        adj[i].append(j)
        adj[j].append(i)
    parent: dict[int, int | None] = {0: None}
    order = [0]
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
                stack.append(y)
    return parent, order


def trivial_plan(g: TannerGraph, w: SymmetryWitness) -> SplitPlan:
    pairs = {
        a: PairPlan(v, a, [sorted(g.checks[a])], [])
        for a, v in w.dual.items()
    }
    return SplitPlan(pairs)


_MAX_SPLIT_ORDER = 4  # most parts a random plan splits one check's edges into


def random_plan(g: TannerGraph, w: SymmetryWitness, rng: random.Random) -> SplitPlan:
    pairs = {}
    for a, v in w.dual.items():
        neigh = sorted(g.checks[a])
        r = rng.randrange(1, max(2, min(_MAX_SPLIT_ORDER, max(1, len(neigh))) + 1))
        members = neigh[:]
        rng.shuffle(members)
        subsets: list[list[int]] = [[] for _ in range(r)]
        for i, u in enumerate(members):
            subsets[i % r].append(u)
        for sub in subsets:
            sub.sort()
        tree = [(rng.randrange(i), i) for i in range(1, r)]
        pairs[a] = PairPlan(v, a, subsets, tree)
    return SplitPlan(pairs)


def symmetric_split(
    g: TannerGraph, w: SymmetryWitness, plan: SplitPlan
) -> tuple[TannerGraph, SymmetryWitness, CodeMaps]:
    """Apply the plan; returns the new graph, its witness, and the maps."""
    problems = verify_symmetry(g, w)
    if problems:
        raise ValueError("input graph is not symmetric: " + problems[0])
    plan.validate(g, w)
    check_of_bit = w.check_of_bit()

    new_bits: list[VertexLabel] = []
    bit_rows: list[int] = []  # codeword-map row per new bit (over old coords)
    err_rows: list[int] = []
    bit_tree_pos: dict[tuple[int, int], int] = {}
    edge_bit_pos: dict[tuple[int, tuple[int, int]], int] = {}
    long_pos: dict[int, int] = {}

    pair_order = sorted(plan.pairs.values(), key=lambda p: p.bit)

    # subtree loads: value carried by a check-tree edge bit, over old coords
    def edge_vectors(pp: PairPlan) -> dict[tuple[int, int], int]:
        total = [sum(1 << u for u in sub) for sub in pp.subsets]  # distinct bits
        parent, order = _tree_order(pp)
        # accumulate subtree loads bottom-up: an edge bit carries the sum of
        # every leaf value hanging below it
        for x in reversed(order):
            p = parent[x]
            if p is not None:
                total[p] ^= total[x]
        return {(i, j): total[j if parent[j] == i else i] for i, j in pp.tree}

    for pp in pair_order:
        v = pp.bit
        for i in range(pp.order):
            bit_tree_pos[(v, i)] = len(new_bits)
            new_bits.append(VertexLabel("s", 0, -1, len(new_bits)))
            bit_rows.append(1 << v)
            err_rows.append((1 << v) if i == 0 else 0)
        vectors = edge_vectors(pp)
        for e in pp.tree:
            edge_bit_pos[(pp.check, e)] = len(new_bits)
            new_bits.append(VertexLabel("s", 0, -1, len(new_bits)))
            bit_rows.append(vectors[e])
            err_rows.append(0)
    for t in sorted(w.long_terminals):
        long_pos[t] = len(new_bits)
        new_bits.append(g.bits[t])
        bit_rows.append(1 << t)
        err_rows.append(1 << t)

    checks: list[tuple[int, ...]] = []
    dual: dict[int, int] = {}

    # (check, bit) -> index of the plan subset of the check that holds the bit
    subset_of = {
        (pp.check, u): i
        for pp in pair_order
        for i, sub in enumerate(pp.subsets)
        for u in sub
    }
    for pp in pair_order:
        a, v = pp.check, pp.bit
        members_by_vertex: dict[int, list[int]] = {i: [] for i in range(pp.order)}
        for u in g.checks[a]:
            i = subset_of[(a, u)]
            if u in w.long_terminals:
                members_by_vertex[i].append(long_pos[u])
            else:
                # inter-tree edge: the bit tree of u attaches at the subset of
                # u's own partition that contains the dual bit of this check
                j = subset_of[(check_of_bit[u], v)]
                members_by_vertex[i].append(bit_tree_pos[(u, j)])
        for i in range(pp.order):
            cid = len(checks)
            members = list(members_by_vertex[i])
            for e in pp.tree:
                if i in e:
                    members.append(edge_bit_pos[(pp.check, e)])
            checks.append(tuple(sorted(members)))
            dual[cid] = bit_tree_pos[(v, i)]
        for e in pp.tree:
            cid = len(checks)
            i, j = e
            checks.append(
                tuple(sorted((bit_tree_pos[(v, i)], bit_tree_pos[(v, j)])))
            )
            dual[cid] = edge_bit_pos[(pp.check, e)]

    g2 = TannerGraph(new_bits, checks)
    w2 = SymmetryWitness(dual, frozenset(long_pos.values()))
    maps = CodeMaps(
        BitMatrix(len(new_bits), g.n_bits, bit_rows),
        BitMatrix(len(new_bits), g.n_bits, err_rows),
    )
    return g2, w2, maps


def distance_bound_holds(before, after, g_max: int) -> tuple[bool, bool]:
    """(lower, upper) halves of d' in [d / floor(g_max/2), d].

    Only genuine refutations fail: a search that stopped at its cap bounds
    the distance from below and is compared through that bound.
    """
    factor = max(1, g_max // 2)
    if before.exact and after.exact:
        return after.value * factor >= before.value, after.value <= before.value
    if before.exact:
        # the true d' exceeds its cap, so d' <= d fails when d is within it
        return True, before.value > after.max_weight
    if after.exact:
        # the true d exceeds its cap, so the factor bound needs d'*factor past it
        return after.value * factor >= before.lower_bound, True
    return True, True


# ---------------------------------------------------------------------------
# Plan files


def write_plan(g: TannerGraph, plan: SplitPlan) -> str:
    lines = []
    for a in sorted(plan.pairs):
        pp = plan.pairs[a]
        subs = ";".join(
            " ".join(g.bits[u].name for u in sub) for sub in pp.subsets
        )
        tree = " ".join(f"{i}-{j}" for i, j in pp.tree)
        lines.append(
            f"pair {g.bits[pp.bit].name} c{a} : subsets {subs} ; tree {tree}"
        )
    return "\n".join(lines) + "\n"


def read_plan(g: TannerGraph, text: str) -> SplitPlan:
    name_to_bit = {lab.name: i for i, lab in enumerate(g.bits)}

    def bit_of(name: str) -> int:
        if name not in name_to_bit:
            raise ValueError(f"plan names bit {name!r}, which the graph does not have")
        return name_to_bit[name]

    pairs = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(":")
        fields = head.split()
        if len(fields) != 3 or fields[0] != "pair":
            raise ValueError(f"bad plan line {line!r}")
        bit = bit_of(fields[1])
        try:
            check = int(fields[2].lstrip("c"))
        except ValueError:
            raise ValueError(f"bad plan line {line!r}") from None
        if check in pairs:
            raise ValueError(f"plan pairs check c{check} twice: {line!r}")
        # subset separators carry no spaces; " ; " separates the tree part
        subs_part, _, tree_part = rest.partition(" ; ")
        subs_tokens = subs_part.split(None, 1)
        if not subs_tokens or subs_tokens[0] != "subsets":
            raise ValueError(f"bad plan line {line!r}")
        subs_text = subs_tokens[1] if len(subs_tokens) > 1 else ""
        subsets = []
        for chunk in subs_text.split(";"):
            names = chunk.split()
            subsets.append([bit_of(nm) for nm in names])
        tree_tokens = tree_part.split()
        if not tree_tokens or tree_tokens[0] != "tree":
            raise ValueError(f"bad plan line {line!r}")
        tree = []
        for tok in tree_tokens[1:]:
            i, _, j = tok.partition("-")
            try:
                tree.append((int(i), int(j)))
            except ValueError:
                raise ValueError(f"bad plan line {line!r}") from None
        pairs[check] = PairPlan(bit, check, subsets, tree)
    return SplitPlan(pairs)
