#!/usr/bin/env python3
"""Stable gonality witness walkthrough on the two-banana graph.

The bundled fixture glues two theta-shaped banana components along a
bridge. A degree 3 segment of divisors forms a tropical tree but fails to
dominate the graph, while a degree 4 system passes every stage: tree
recognition, dominance, the reduced-divisor morphism, harmonization, and
the final witness verification. The script narrates each stage and
exits nonzero when a verdict differs from the expected one.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tropkit import (
    load_workspace,
    tt_harmonize,
    tt_is_dominant,
    tt_is_tree,
    tt_morphism,
    tt_verify_witness,
)

FIXTURE = Path(__file__).resolve().parents[1] / "tests" / "fixtures" / \
    "banana.json"


def banner(text: str) -> None:
    print()
    print(text)
    print("-" * len(text))


def describe_failure(ws, name: str) -> list[str]:
    """Narrate the system; return the verdicts that are wrong for it."""
    banner(f"stage 1: the degree 3 system {name!r}")
    system = ws.system(name)
    print(f"generators: {[str(d) for d in system.generators]}")
    print(f"degree:     {system.degree}")
    ok, _ = tt_is_tree(system)
    print(f"tropical tree: {ok}")
    dominant, report = tt_is_dominant(system)
    print(f"dominant:      {dominant}")
    if not dominant:
        print(f"reason:        {report['reason']}")
        for component in report["uncovered"]:
            print(f"missed component with vertices "
                  f"{component['vertices']} and "
                  f"{len(component['gaps'])} open edge gaps")
    return [wrong for wrong, bad in [("not a tropical tree", not ok),
                                     ("dominant", dominant)] if bad]


def describe_witness(ws, name: str, degree: int) -> list[str]:
    """Narrate the system; return the verdicts that are wrong for it."""
    system = ws.system(name)
    banner(f"stage 2: the degree {degree} system {name!r}")
    print(f"generators: {[str(d) for d in system.generators]}")
    dominant, report = tt_is_dominant(system)
    print(f"dominant tropical tree: {dominant} ({report['method']})")

    banner("stage 3: reduced-divisor morphism")
    morphism = tt_morphism(system)
    print(f"skeleton nodes: {[str(d) for d in morphism.skeleton.nodes]}")
    by_edge: dict[str, set[int]] = {}
    for sub in morphism.sub_arcs:
        by_edge.setdefault(sub.edge, set()).add(sub.expansion)
    for edge in sorted(by_edge):
        factors = ", ".join(str(e) for e in sorted(by_edge[edge]))
        print(f"  edge {edge:<16} expansion factors {{{factors}}}")

    banner("stage 4: harmonization")
    modification, _, total = tt_harmonize(system)
    if modification.is_trivial:
        print("the map is already harmonic; no attachments needed")
    else:
        for att in modification.attachments:
            print(f"  attach multiplicity {att.multiplicity} branch at "
                  f"{att.point}")
    print(f"harmonic degree: {total}")

    banner("stage 5: witness verification")
    ok, verdict = tt_verify_witness(system, degree)
    print(f"verified: {ok} ({verdict.get('method', verdict.get('reason'))})")
    if ok:
        print(f"stable gonality is at most {verdict['stably_gonal']}")
    return [wrong for wrong, bad in [("not dominant", not dominant),
                                     (f"harmonic degree {total}", total != degree),
                                     ("witness rejected", not ok)] if bad]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fixture", type=Path, default=FIXTURE)
    args = parser.parse_args()

    ws = load_workspace(str(args.fixture))
    graph = ws.need_graph()
    report = ws.graph_report
    print(f"graph: {report['vertices']} vertices, {report['edges']} edges, "
          f"genus {report['genus']}, total length {graph.total_length}")

    wrong = [f"seg_E1_E3: {w}" for w in describe_failure(ws, "seg_E1_E3")]
    wrong += [f"witness4: {w}" for w in describe_witness(ws, "witness4", 4)]
    if wrong:
        sys.exit("wrong verdicts: " + "; ".join(wrong))


if __name__ == "__main__":
    main()
