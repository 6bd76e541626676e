"""Strategy sets and the lcm-sized path construction.

The constructed set lives on a layered graph whose nodes are the weight
classes and whose edges join each symbol to the symbols one flipped bit
above it. Integer edge weights spread each node's multiplicity evenly over
its edges; peeling the weights into root-to-top paths yields exactly L
minimal multisymbols that cover every weight-s symbol the same number of
times.
"""

import functools
from dataclasses import dataclass
from math import comb, fsum, lcm

import numpy as np

from .frame_space import (
    check_frame_len,
    check_table_bytes,
    enumerate_weight_class,
    state_pmf,
    weight_table,
)
from .multisymbol import Multisymbol

PMF_TOL = 1e-12
# Bytes the graph build and the path peel hold per strategy of the constructed
# set. The tracemalloc peak of build_weighted_graph plus decompose_paths is 293
# bytes per strategy at F = 12, 925 at F = 14, 1 077 at F = 15 and 300 at F = 16
# (numpy 2.4); at F = 14 and 15 the graph's F * 2^(F-1) edges outnumber the L
# strategies fivefold. The built set keeps its (F+1) x 8-byte row and pmf entry.
# L x STRATEGY_BYTES goes through check_table_bytes before the graph is built,
# which refuses F = 18..20
STRATEGY_BYTES = 2048


def lcm_binomials(F):
    """Least common multiple of the binomial coefficients C(F, 0..F)."""
    if F < 1:
        raise ValueError("F must be at least 1")
    return lcm(*(comb(F, s) for s in range(F + 1)))


def representative_multiplicity(F, s):
    """How often each weight-s symbol appears across the constructed set."""
    if not 0 <= s <= F:
        raise ValueError(f"state must be in 0..{F}")
    L = lcm_binomials(F)
    return L // comb(F, s)


class StrategySet:
    """A finite menu of strategies with a probability mass over them.

    reps is the L x (F+1) int64 table whose row t holds strategy t's
    representative for each state 0..F, and pmf the law over the L rows;
    both are read-only. reps may also be given as a sequence of Multisymbol.
    An int64 array is not copied, so its owner must leave it unchanged.
    """

    def __init__(self, reps, pmf):
        if not isinstance(reps, np.ndarray):
            reps = [m.reps if isinstance(m, Multisymbol) else m for m in reps]
        try:
            reps = np.asarray(reps)
        except ValueError:
            raise ValueError("strategies must share one frame length") from None
        if reps.ndim != 2 or not len(reps) or reps.dtype.kind not in "iu":
            raise ValueError("need a nonempty integer table, one row per strategy")
        F = reps.shape[1] - 1
        check_frame_len(F)
        if int(reps.min()) < 0 or int(reps.max()) >= 1 << F:
            raise ValueError("representative out of range")
        self.reps = reps.astype(np.int64, copy=False).view()
        wrong = weight_table(F)[self.reps] != np.arange(F + 1, dtype=np.uint8)
        if wrong.any():
            s = int(np.argmax(wrong.any(axis=0)))  # the first state whose column fails
            raise ValueError(f"representative for state {s} must have weight {s}")
        self.pmf = np.array(pmf, dtype=np.float64)
        if self.pmf.shape != (len(reps),):
            raise ValueError("need one probability per strategy")
        # written so that NaN fails both comparisons
        if not (np.all(self.pmf >= 0.0) and abs(fsum(self.pmf.tolist()) - 1.0) <= PMF_TOL):
            raise ValueError("pmf must be nonnegative and sum to 1")
        self.reps.flags.writeable = False
        self.pmf.flags.writeable = False

    @property
    def F(self):
        return self.reps.shape[1] - 1

    def __len__(self):
        return len(self.reps)

    @property
    def multisymbols(self):
        """The rows as Multisymbol objects, built on each access."""
        return tuple(Multisymbol(self.F, row) for row in self.reps.tolist())


@dataclass(frozen=True)
class LayeredGraph:
    """Weight classes joined by covering edges, each carrying an integer weight.

    weights[s] maps an edge (x, x2), with x2 one flipped bit above x, to its
    weight. Outgoing weights at every node sum to that node's multiplicity;
    incoming weights at every next-layer node do the same.
    """

    F: int
    layers: tuple
    weights: tuple


def covering_successors(F, x):
    """Symbols one flipped bit above x, ascending."""
    return [x | (1 << i) for i in range(F) if not (x >> i) & 1]


def build_weighted_graph(F):
    """Assign covering-edge weights so in/out totals hit each node's multiplicity.

    Per layer, every outgoing weight is the floor or ceil of the average
    m_s / (F - s); the nodes needing a ceil edge on the two sides are matched
    by a small augmenting-path flow, so the result is deterministic. The L
    strategies go through `check_table_bytes` before any of it is built.
    """
    L = lcm_binomials(F)
    need = f"the F = {F} set of {L} strategies x {STRATEGY_BYTES} bytes"
    check_table_bytes(L * STRATEGY_BYTES, need)
    layers = tuple(tuple(enumerate_weight_class(F, s)) for s in range(F + 1))
    weights = []
    for s in range(F):
        m_out = representative_multiplicity(F, s)
        m_in = representative_multiplicity(F, s + 1)
        out_deg = F - s
        in_deg = s + 1
        w1, b = divmod(m_out, out_deg)
        w1_in, d = divmod(m_in, in_deg)
        if w1 != w1_in or b * comb(F, s) != d * comb(F, s + 1):
            raise RuntimeError(
                f"inconsistent edge weight split at layer {s}: "
                f"{m_out}/{out_deg} vs {m_in}/{in_deg}"
            )
        layer = {}
        for x in layers[s]:
            for x2 in covering_successors(F, x):
                layer[(x, x2)] = w1
        if b:
            for edge in _ceil_edges(F, layers[s], layers[s + 1], b, d):
                layer[edge] += 1
        weights.append(layer)
    return LayeredGraph(F, layers, tuple(weights))


def _ceil_edges(F, left, right, b, d):
    """Covering edges forming a subgraph with out-degree b and in-degree d."""
    need = dict.fromkeys(left, b)
    room = dict.fromkeys(right, d)
    chosen = {x: set() for x in left}
    owners = {x2: set() for x2 in right}
    for x in left:
        for x2 in covering_successors(F, x):
            if need[x] == 0:
                break
            if room[x2] > 0 and x2 not in chosen[x]:
                chosen[x].add(x2)
                owners[x2].add(x)
                need[x] -= 1
                room[x2] -= 1
    for x in left:
        while need[x] > 0:
            if not _augment(F, x, chosen, owners, room):
                raise RuntimeError(
                    f"no degree-({b},{d}) covering subgraph found on {len(left)} nodes"
                )
            need[x] -= 1
    return [(x, x2) for x in left for x2 in sorted(chosen[x])]


def _augment(F, start, chosen, owners, room):
    """Grow the chosen subgraph by one edge at start, rerouting if needed."""
    parent = {}
    seen_left = {start}
    seen_right = set()
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for x2 in covering_successors(F, x):
                if x2 in seen_right or x2 in chosen[x]:
                    continue
                seen_right.add(x2)
                parent[x2] = x
                if room[x2] > 0:
                    room[x2] -= 1
                    _flip_path(x2, parent, chosen, owners)
                    return True
                for x1 in sorted(owners[x2]):
                    if x1 not in seen_left:
                        seen_left.add(x1)
                        parent[x1] = x2
                        nxt.append(x1)
        frontier = nxt
    return False


def _flip_path(end, parent, chosen, owners):
    node = end
    while True:
        x = parent[node]
        chosen[x].add(node)
        owners[node].add(x)
        if x not in parent:
            return
        released = parent[x]
        chosen[x].remove(released)
        owners[released].remove(x)
        node = released


def decompose_paths(graph):
    """Peel the weighted graph into L root-to-top paths, one multisymbol each.

    Path k takes, at each layer, the smallest next symbol with weight left
    after paths 0..k-1. So the paths through a node, in path order, take its
    out-edges in ascending successor order, each edge as often as its weight,
    and one stable sort per layer gives every path its next symbol.
    """
    F = graph.F
    L = lcm_binomials(F)
    reps = np.zeros((L, F + 1), dtype=np.int64)
    for s, layer in enumerate(graph.weights):
        edges = sorted(layer.items())
        src, dst = np.array([edge for edge, _ in edges], dtype=np.int64).T
        w = [count for _, count in edges]
        order = np.argsort(reps[:, s], kind="stable")
        if not np.array_equal(np.repeat(src, w), reps[order, s]):
            raise RuntimeError(f"edge weights at layer {s} do not match the paths reaching it")
        reps[order, s + 1] = np.repeat(dst, w)
    return StrategySet(reps, np.full(L, 1.0 / L))


def constructed_set(F):
    """The constructed set of frame length F, built once per process and then shared.

    Its arrays are read-only, so one object serves every caller. F is made a
    plain int first, so every integer type finds the same set. A set not yet
    built goes through `build_weighted_graph`'s byte rule first; a built one
    stays for the life of the process, about 104 MB at F = 16.
    """
    return _built_set(check_frame_len(F))


@functools.cache
def _built_set(F):
    return decompose_paths(build_weighted_graph(F))


def strategy_table(sset):
    """(used, rep_idx): the distinct symbols of the set's table and its rows as indexes.

    used lists the symbols any strategy sends, ascending, and rep_idx indexes
    into it, so used[rep_idx] == sset.reps. Both come from a presence table
    of the 2^F symbols, with no sort, and equal np.unique's arrays and dtypes.
    """
    seen = np.bincount(sset.reps.ravel(), minlength=1 << sset.F) > 0
    used = np.flatnonzero(seen).astype(sset.reps.dtype)
    return used, (np.cumsum(seen) - 1)[sset.reps]


def induced_input_pmf(sset, config):
    """Input law the set induces: each strategy sends its state-s representative."""
    if sset.F != config.F:
        raise ValueError("strategy set and frame config disagree on F")
    # bincount adds in input order: strategy by strategy, states ascending
    mass = sset.pmf[:, None] * state_pmf(config)
    return np.bincount(sset.reps.ravel(), weights=mass.ravel(), minlength=1 << config.F)
