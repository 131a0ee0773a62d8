"""Reference Dhar burner, used only as an oracle by the tests.

This is the burner that firing by moving chips replaced. The graph is
subdivided at the divisor's support and at q into nodes keyed
("v", vertex) and ("p", edge id, offset); fire spreads by sweeping every
node until nothing changes; and each round fires the unburnt set by
building the firing function as a checked `PLFunction` (0 on the unburnt
set, slope 1 along each arm, flat at l* beyond) and adding its divisor.
The library must return exactly what these return.
"""

from fractions import Fraction

from tropkit import CertificateError, ClosedSubset, Divisor, GraphPoint, MetricGraph, PLFunction


def _node(p: GraphPoint) -> tuple:
    return ("v", p.vertex) if p.is_vertex else ("p", p.edge, p.offset)


def subdivide(graph: MetricGraph, points) -> tuple[list, dict, list]:
    """Nodes, their index, and the segments (tail node, head node, length,
    edge id, start offset) of the graph cut at the interior points."""
    cuts: dict[str, set] = {}
    for p in points:
        if not p.is_vertex:
            cuts.setdefault(p.edge, set()).add(p.offset)
    nodes = [("v", v) for v in graph.vertices]
    nodes += [("p", eid, o) for eid in sorted(cuts) for o in sorted(cuts[eid])]
    index = {node: i for i, node in enumerate(nodes)}
    segments = []
    for e in graph.edges:
        stops = [(Fraction(0), ("v", e.tail))]
        stops += [(o, ("p", e.id, o)) for o in sorted(cuts.get(e.id, ()))]
        stops += [(e.length, ("v", e.head))]
        for (o1, n1), (o2, n2) in zip(stops, stops[1:]):
            segments.append((index[n1], index[n2], o2 - o1, e.id, o1))
    return nodes, index, segments


def burn_once(graph: MetricGraph, d: Divisor, q: GraphPoint):
    """(nodes, segments, burnt, unburnt ClosedSubset), or None when the fire
    from q consumes the whole graph."""
    nodes, index, segments = subdivide(graph, d.support() + [q])
    chips = [Fraction(0)] * len(nodes)
    for p, c in d.items():
        chips[index[_node(p)]] = c
    inc: list[list[int]] = [[] for _ in nodes]
    for a, b, _, _, _ in segments:
        inc[a].append(b)
        inc[b].append(a)
    burnt = [False] * len(nodes)
    burnt[index[_node(q)]] = True
    changed = True
    while changed:
        changed = False
        for i in range(len(nodes)):
            if not burnt[i] and sum(1 for j in inc[i] if burnt[j]) > chips[i]:
                burnt[i] = changed = True
    if all(burnt):
        return None
    vertices, intervals = set(), {}
    for node, is_burnt in zip(nodes, burnt):
        if is_burnt:
            continue
        if node[0] == "v":
            vertices.add(node[1])
        else:
            intervals.setdefault(node[1], []).append((node[2], node[2]))
    for a, b, length, eid, off in segments:
        if not burnt[a] and not burnt[b]:
            intervals.setdefault(eid, []).append((off, off + length))
    return nodes, segments, burnt, ClosedSubset(graph, vertices, intervals)


def fire(graph: MetricGraph, d: Divisor, nodes, segments, burnt) -> tuple[Divisor, Fraction]:
    """d plus the divisor of the firing function, and its plateau l*."""
    l_star = min(length for a, b, length, _, _ in segments if burnt[a] != burnt[b])
    at_vertex = {}
    cuts: dict[str, list] = {}
    for node, is_burnt in zip(nodes, burnt):
        val = l_star if is_burnt else Fraction(0)
        if node[0] == "v":
            at_vertex[node[1]] = val
        else:
            cuts.setdefault(node[1], []).append((node[2], val))
    for a, b, length, eid, off in segments:
        if burnt[a] != burnt[b] and length > l_star:
            plateau = off + l_star if burnt[b] else off + length - l_star
            cuts.setdefault(eid, []).append((plateau, l_star))
    data = {e.id: [(Fraction(0), at_vertex[e.tail]), *sorted(cuts.get(e.id, ())),
                   (e.length, at_vertex[e.head])] for e in graph.edges}
    fired = d.add(PLFunction(graph, data).divisor())
    if not (fired.is_effective() and fired.is_integral()):
        raise CertificateError("chip-firing produced an invalid divisor", {"divisor": str(fired)})
    return fired, l_star


def trace(graph: MetricGraph, d: Divisor, q: GraphPoint):
    """The q-reduced divisor of d and one {"fired_set", "distance"} step per
    round, as dv_dhar_trace returns them."""
    steps = []
    while (state := burn_once(graph, d, q)) is not None:
        nodes, segments, burnt, unburnt = state
        d, l_star = fire(graph, d, nodes, segments, burnt)
        steps.append({"fired_set": unburnt, "distance": l_star})
    return d, steps


def certificate(graph: MetricGraph, d: Divisor, q: GraphPoint):
    """(consumed, unburnt set or None), as dv_dhar_certificate returns them."""
    state = burn_once(graph, d, q)
    return state is None, None if state is None else state[3]
