"""Reference extremals of a linear system, used only as an oracle by the
tests.

This is the greedy loop that the one-pass filter of `ls_extremals`
replaced: find the first generator whose potentials toward the others have
minimizer sets covering the graph, drop it, and test every survivor again,
until no generator is redundant. The library must return exactly what this
returns, in the same order.
"""

from tropkit import Divisor, LinearSystem


def extremals(T: LinearSystem) -> list[Divisor]:
    gens = list(dict.fromkeys(T.generators))
    changed = True
    while changed and len(gens) > 1:
        changed = False
        for i, g in enumerate(gens):
            fns = [T.pair_function(g, h) for h in gens[:i] + gens[i + 1:]]
            union = fns[0].extremum_set("min").union(
                *(f.extremum_set("min") for f in fns[1:]))
            if union.covers_graph():
                gens.pop(i)
                changed = True
                break
    return gens
