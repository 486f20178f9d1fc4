"""The exact optimum placement, from one s-t minimum cut.

``exhaustive_oracle`` is the exact answer for up to ``cap`` unplaced slices:
``optimum`` reads the fewest remote calls and the lexicographically smallest
genome that has them off one s-t minimum cut.  Nothing here imports numpy,
so the ``oracle`` command never loads it.

Write a tier mask as a client bit c and a server bit s, and put t = 1 - s.
By ``model.call_rule`` a call a -> b is remote iff c_a > c_b or s_a > s_b
(not both, or b's mask would be empty), so it adds the arc c_a -> c_b of
weight 1 and t_b -> t_a, of weight 1 with @reply or @broadcast and else
``inf = n_calls + 1``, the cost of violating validity (Kolmogorov & Zabih,
TPAMI 26(2), 2004).  The arc t_g -> c_g of weight ``inf`` keeps gene g's mask
nonempty; a fixed bit is the source if 1 and the sink if 0.  So a minimum
cut below ``inf`` is the fewest remote calls of a valid placement, and none
is valid otherwise.  The minimum cuts are the sets that hold the source, not
the sink, and every head of a residual arc out of them (Picard & Queyranne,
Math. Prog. Study 13, 1980), so the smallest optimum fixes genes 0, 1, ...
in turn to the smallest mask whose bits spread without a conflict, ones
forward along residual arcs and zeros backward.  Nothing recurses.
"""

from __future__ import annotations

from .errors import AllInvalidError, TooManySlicesError
from .model import ORACLE_CAP, SHARED, TIER_FROM_MASK, PlacementProblem, Tier
from .placement import Placement

SOURCE, SINK = 0, 1


def _arcs(problem: PlacementProblem) -> tuple:
    """``({(tail, head): weight}, inf)``; gene g's bits are the nodes
    c_g = 2g + 2 and t_g = 2g + 3."""
    genes, inf = problem.unplaced, len(problem.calls) + 1
    side = {name: SOURCE if tier.mask == 1 else SINK for name, tier in problem.fixed.items()}
    c = {SHARED: SOURCE, **side, **{name: 2 * g + 2 for g, name in enumerate(genes)}}
    t = {SHARED: SINK, **side, **{name: 2 * g + 3 for g, name in enumerate(genes)}}
    weight = {(t[name], c[name]): inf for name in genes}
    for call in problem.calls:
        a, b = call.caller, call.callee
        for arc, w in (((c[a], c[b]), 1), ((t[b], t[a]), 1 if call.annotated else inf)):
            if arc[0] != arc[1] and arc[0] != SINK and arc[1] != SOURCE:
                weight[arc] = weight.get(arc, 0) + w
    return weight, inf


class _Residual:
    """A flow network as paired arcs: arc e runs to ``head[e]`` with residual
    capacity ``cap[e]``, and arc ``e ^ 1`` is its reverse."""

    def __init__(self, n_nodes: int, weight: dict):
        self.out = [[] for _ in range(n_nodes)]
        self.head, self.cap = [], []
        for (u, v), w in weight.items():
            self.out[u].append(len(self.head))
            self.out[v].append(len(self.head) + 1)
            self.head += [v, u]
            self.cap += [w, 0]

    def max_flow(self) -> int:
        """Dinic's algorithm: per level graph, augment along paths found by an
        explicit-stack search that skips each node's dead arcs."""
        out, head, cap = self.out, self.head, self.cap
        flow = 0
        while True:
            level = [-1] * len(out)
            level[SOURCE] = 0
            queue = [SOURCE]
            for u in queue:  # breadth first: the loop reads what it appends
                for e in out[u]:
                    if cap[e] and level[head[e]] < 0:
                        level[head[e]] = level[u] + 1
                        queue.append(head[e])
            if level[SINK] < 0:
                return flow
            nxt = [0] * len(out)  # each node's first arc not known to be dead
            path, u = [], SOURCE
            while True:
                if u == SINK:
                    push = min(cap[e] for e in path)
                    for e in path:
                        cap[e] -= push
                        cap[e ^ 1] += push
                    flow += push
                    path, u = [], SOURCE
                arcs, i = out[u], nxt[u]
                while i < len(arcs) and not (cap[arcs[i]] and level[head[arcs[i]]] == level[u] + 1):
                    i += 1
                nxt[u] = i
                if i < len(arcs):
                    path.append(arcs[i])
                    u = head[arcs[i]]
                elif path:  # a dead end: retreat past its arc
                    u = head[path.pop() ^ 1]
                    nxt[u] += 1
                else:
                    break

    def settle(self, value: list, seeds) -> bool:
        """Set the bits that ``seeds``, ``(node, bit)`` pairs, force on the
        nodes that ``value`` leaves unset: a 1 forces the head of each residual
        arc out of its node, a 0 the tail of each residual arc into it.  On a
        conflict, set none and return False."""
        out, head, cap = self.out, self.head, self.cap
        forced, stack = {}, list(seeds)
        while stack:
            u, bit = stack.pop()
            known = forced.get(u, value[u])
            if known is None:
                forced[u] = bit
                stack += [(head[e], bit) for e in out[u] if cap[e if bit else e ^ 1]]
            elif known != bit:
                return False
        for u, bit in forced.items():
            value[u] = bit
        return True


def server_closure(problem: PlacementProblem) -> set:
    """The slices that every valid placement puts on the server.

    By ``call_rule`` a call violates iff it is unannotated, its caller holds
    the server and its callee does not.  So the slices that hold the server
    are closed forward along unannotated calls, and the least such set is the
    closure of the fixed server slices and of shared code, which runs on
    both tiers.  If that closure reaches a slice fixed on the client, no
    placement is valid, and ``AllInvalidError`` names the slice.
    """
    on_server = {SHARED: True, **{s: t is Tier.SERVER for s, t in problem.fixed.items()}}
    callees = {}
    for call in problem.calls:
        if not call.annotated:
            callees.setdefault(call.caller, []).append(call.callee)
    stack = [s for s, on in on_server.items() if on]
    reached = set(stack)
    while stack:
        for callee in callees.get(stack.pop(), ()):
            if not on_server.get(callee, True):
                raise AllInvalidError(
                    f"no placement is valid: the client slice {callee!r} is reached "
                    "from the server by calls without @reply or @broadcast")
            if callee not in reached:
                reached.add(callee)
                stack.append(callee)
    return reached


def optimum(problem: PlacementProblem) -> tuple:
    """``(remote calls, genome)`` of the lexicographically smallest valid
    genome with the fewest remote calls, its masks in ``problem.unplaced``
    order.  When no placement is valid, ``server_closure`` raises."""
    weight, inf = _arcs(problem)
    n_genes = len(problem.unplaced)
    graph = _Residual(2 * n_genes + 2, weight)
    remote = graph.max_flow()
    if remote >= inf:
        server_closure(problem)  # no placement is valid, so this raises
    value = [None] * len(graph.out)
    graph.settle(value, [(SOURCE, 1), (SINK, 0)])
    genome = [next(mask for mask in (1, 2, 3)
                   if graph.settle(value, [(2 * g + 2, mask & 1), (2 * g + 3, 1 - (mask >> 1))]))
              for g in range(n_genes)]
    return remote, genome


def genome_to_placement(problem: PlacementProblem, genome) -> Placement:
    searched = {
        name: TIER_FROM_MASK[int(mask)]
        for name, mask in zip(problem.unplaced, genome)
    }
    return Placement(fixed=dict(problem.fixed), searched=searched)


def exhaustive_oracle(problem: PlacementProblem, cap: int = ORACLE_CAP):
    """The valid placement of the searched slices with the highest fitness.

    Ties break toward the genome-lexicographically smallest placement.
    Returns (best Placement, best fitness).  A negative ``cap`` raises
    ValueError, and no valid placement ``AllInvalidError``.
    """
    if cap < 0:
        raise ValueError(f"oracle cap must be >= 0, not {cap}")
    n = len(problem.unplaced)
    if n > cap:
        raise TooManySlicesError(f"{n} unplaced slices exceed the oracle cap {cap}")
    remote, genome = optimum(problem)
    n_calls = len(problem.calls)
    fitness = (n_calls - remote) / n_calls if n_calls else 1.0
    return genome_to_placement(problem, genome), fitness
