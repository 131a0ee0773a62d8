"""Command-line front-end.

Reads workspace files, dispatches to the library, and prints one
deterministic JSON report per invocation (CSV and DOT for the exports
that have a tabular or graph shape).  Exit codes: 0 for success or a true
predicate, 1 for a false predicate, 2 for input errors, 3 for internal
certificate failures.  Identical invocations produce byte-identical
output: keys are sorted and all rationals use canonical strings.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .divisors import (
    dv_b1,
    dv_dhar_trace,
    dv_lin_equiv,
    dv_path,
    dv_rho,
    ls_extremals,
    ls_member,
    ls_project,
    ls_reduced,
)
from .errors import CertificateError, InputError
from .graphs import MetricGraph
from .trees import (
    tt_harmonize,
    tt_is_dominant,
    tt_is_tree,
    tt_morphism,
    tt_preimage,
    tt_reduced_map,
    tt_support,
    tt_verify_witness,
)
from .tropical import (
    TropPoint,
    as_fraction,
    tp_extremals,
    tp_independence,
    tp_member,
    tp_norm,
    tp_project,
    tp_pseudonorm,
)
from .workspace import (
    Workspace,
    _reject_float,
    divisor_from_json,
    dumps_canonical,
    load_workspace,
    point_from_json,
    rational_str,
    to_jsonable,
)

__all__ = ["main"]


# ---------------------------------------------------------------------------
# input plumbing


def _loads_strict(text: str, location: str):
    try:
        return json.loads(
            text, parse_float=lambda raw: _reject_float(raw, location))
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc.msg}", location) from None


def _resolve_divisor(ws: Workspace, text: str, location: str):
    s = text.strip()
    if s.startswith("["):
        return divisor_from_json(ws.need_graph(), _loads_strict(s, location),
                                 location)
    return ws.divisor(s)


def _resolve_graph_point(ws: Workspace, text: str, location: str):
    return point_from_json(ws.need_graph(), _loads_strict(text, location),
                           location)


def _resolve_trop_point(ws: Workspace, text: str, location: str) -> TropPoint:
    s = text.strip()
    if s.startswith("["):
        data = _loads_strict(s, location)
        if not isinstance(data, list):
            raise InputError("a point is a JSON array of rationals",
                             location)
        return TropPoint.of([as_fraction(c, f"{location}[{i}]")
                             for i, c in enumerate(data)])
    return ws.point(s)


def _two_divisors(ws: Workspace, args):
    given = args.divisor or []
    if len(given) != 2:
        raise InputError("this operation needs exactly two --divisor "
                         "arguments", "--divisor")
    return (_resolve_divisor(ws, given[0], "--divisor"),
            _resolve_divisor(ws, given[1], "--divisor"))


def _one_divisor(ws: Workspace, args):
    given = args.divisor or []
    if len(given) != 1:
        raise InputError("this operation needs exactly one --divisor "
                         "argument", "--divisor")
    return _resolve_divisor(ws, given[0], "--divisor")


def _sample_points(graph: MetricGraph, per_edge: int):
    if per_edge < 0:
        raise InputError("--samples must be nonnegative", "--samples")
    points = [graph.vertex_point(v) for v in graph.vertices]
    for e in graph.edges:
        for k in range(1, per_edge + 1):
            points.append(graph.point(
                edge=e.id, offset=e.length * k / (per_edge + 1)))
    return points


def _component_label(component: dict) -> str:
    """Short name for an uncovered component, from its edge ids."""
    ids = sorted({gap["edge"] for gap in component["gaps"]})
    if ids:
        split = [eid.split("-") for eid in ids]
        prefix = []
        for tokens in zip(*split):
            if any(t != tokens[0] for t in tokens):
                break
            prefix.append(tokens[0])
        if prefix:
            return "-".join(prefix)
        return ids[0]
    if component["vertices"]:
        return component["vertices"][0]
    return "(empty)"


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit code, payload, kind)
# where kind is "json" (payload is a jsonable object) or "raw" (text).


def _cmd_graph_validate(args):
    ws = load_workspace(args.file)
    ws.need_graph()
    payload = dict(ws.graph_report)
    payload["valid"] = True
    payload["divisors"] = sorted(ws.divisors)
    payload["systems"] = sorted(ws.systems)
    return 0, payload, "json"


def _cmd_tp_project(args):
    ws = load_workspace(args.space)
    S = ws.generator_set(args.generators, args.mode)
    gamma = _resolve_trop_point(ws, args.point, "--point")
    projection, cert = tp_project(S, gamma, ws.need_space())
    payload = {"mode": args.mode, "point": gamma,
               "projection": projection, "certificate": cert}
    return 0, payload, "json"


def _cmd_tp_member(args):
    ws = load_workspace(args.space)
    S = ws.generator_set(args.generators, args.mode)
    gamma = _resolve_trop_point(ws, args.point, "--point")
    ok, cert = tp_member(S, gamma)
    payload = {"mode": args.mode, "point": gamma, "member": ok,
               "certificate": cert}
    return 0 if ok else 1, payload, "json"


def _cmd_tp_extremals(args):
    ws = load_workspace(args.space)
    S = ws.generator_set(args.generators, args.mode)
    kept = tp_extremals(S)
    by_coords = {}
    for name in ws.sets[args.generators]:
        by_coords.setdefault(ws.points[name].coords, name)
    names = [by_coords[p.coords] for p in kept.points]
    payload = {"mode": args.mode, "extremals": names,
               "points": list(kept.points)}
    return 0, payload, "json"


def _cmd_tp_independence(args):
    ws = load_workspace(args.space)
    S = ws.generator_set(args.generators, args.mode)
    result = tp_independence(S, args.kind)
    code = {"independent": 0, "dependent": 1, "undecided": 3}[result["status"]]
    return code, result, "json"


def _cmd_tp_norm(args):
    ws = load_workspace(args.space)
    ws.need_space()
    gamma = _resolve_trop_point(ws, args.point, "--point")
    payload = {"point": gamma, "norm": tp_norm(gamma)}
    if args.p is not None:
        p = args.p if args.p == "inf" else int(args.p)
        payload["pseudonorm"] = {
            "p": args.p, "mode": args.mode,
            "value": tp_pseudonorm(gamma, p, args.mode, ws.space)}
    return 0, payload, "json"


def _cmd_div_equiv(args):
    ws = load_workspace(args.graph)
    d1, d2 = _two_divisors(ws, args)
    ok = dv_lin_equiv(ws.need_graph(), d1, d2)
    return 0 if ok else 1, {"equivalent": ok}, "json"


def _cmd_div_rho(args):
    ws = load_workspace(args.graph)
    d1, d2 = _two_divisors(ws, args)
    value = dv_rho(ws.need_graph(), d1, d2)
    return 0, {"rho": value}, "json"


def _cmd_div_path(args):
    ws = load_workspace(args.graph)
    d1, d2 = _two_divisors(ws, args)
    if args.t is None:
        raise InputError("div path needs --t", "--t")
    t = as_fraction(args.t, "--t")
    divisor = dv_path(ws.need_graph(), d1, d2, t)
    return 0, {"t": t, "divisor": divisor}, "json"


def _cmd_div_b1(args):
    ws = load_workspace(args.graph)
    d, e = _two_divisors(ws, args)
    value = dv_b1(ws.need_graph(), d, e)
    return 0, {"b1": value}, "json"


def _cmd_div_reduce(args):
    ws = load_workspace(args.graph)
    d = _one_divisor(ws, args)
    if args.at is None:
        raise InputError("div reduce needs --at", "--at")
    q = _resolve_graph_point(ws, args.at, "--at")
    reduced, steps = dv_dhar_trace(ws.need_graph(), d, q)
    payload = {"point": q, "reduced": reduced, "steps": steps,
               "rounds": len(steps)}
    return 0, payload, "json"


def _cmd_sys_member(args):
    ws = load_workspace(args.graph)
    T = ws.system(args.system)
    target = _one_divisor(ws, args)
    ok, cert = ls_member(T, target)
    return 0 if ok else 1, {"member": ok, "certificate": cert}, "json"


def _cmd_sys_project(args):
    ws = load_workspace(args.graph)
    T = ws.system(args.system)
    target = _one_divisor(ws, args)
    projection, cert = ls_project(T, target)
    payload = {"projection": projection, "certificate": cert}
    return 0, payload, "json"


def _cmd_sys_reduced(args):
    ws = load_workspace(args.graph)
    T = ws.system(args.system)
    if args.at is None:
        raise InputError("sys reduced needs --at", "--at")
    q = _resolve_graph_point(ws, args.at, "--at")
    reduced, cert = ls_reduced(T, q)
    payload = {"point": q, "reduced": reduced, "certificate": cert}
    return 0, payload, "json"


def _cmd_sys_extremals(args):
    ws = load_workspace(args.graph)
    T = ws.system(args.system)
    kept = ls_extremals(T)
    names = []
    by_key = {}
    for name in ws.systems[args.system]:
        by_key.setdefault(ws.divisors[name].key(), name)
    for d in kept:
        names.append(by_key.get(d.key(), str(d)))
    payload = {"extremals": names, "divisors": kept}
    return 0, payload, "json"


def _cmd_tree_check(args):
    ws = load_workspace(args.graph)
    T = ws.system(args.system)
    ok, report = tt_is_tree(T)
    return 0 if ok else 1, {"tree": ok, "report": report}, "json"


def _cmd_tree_support(args):
    ws = load_workspace(args.graph)
    T = ws.system(args.system)
    support = tt_support(T)
    payload = {"covers_graph": support.covers_graph(), "support": support}
    if not support.covers_graph():
        payload["uncovered"] = support.complement_components()
    return 0, payload, "json"


def _cmd_tree_dominant(args):
    ws = load_workspace(args.graph)
    T = ws.system(args.system)
    ok, report = tt_is_dominant(T)
    payload = dict(report)
    if not ok and "uncovered" in report:
        labels = [_component_label(c) for c in report["uncovered"]]
        noun = "component" if len(labels) == 1 else "components"
        payload["reason"] = f"support misses {noun} " + ", ".join(labels)
    return 0 if ok else 1, payload, "json"


def _cmd_tree_preimage(args):
    ws = load_workspace(args.graph)
    T = ws.system(args.system)
    d = _one_divisor(ws, args)
    region = tt_preimage(T, d)
    payload = {"divisor": d, "preimage": region,
               "points": region.finite_points()}
    return 0, payload, "json"


def _cmd_tree_redmap(args):
    ws = load_workspace(args.graph)
    T = ws.system(args.system)
    per_edge = 3 if args.samples is None else args.samples
    samples = _sample_points(ws.need_graph(), per_edge)
    rows = tt_reduced_map(T, samples)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["point_id", "edge", "offset", "image_divisor"])
        for point, reduced in rows:
            writer.writerow([
                str(point),
                "" if point.is_vertex else point.edge,
                "" if point.is_vertex else rational_str(point.offset),
                json.dumps(to_jsonable(reduced), sort_keys=True,
                           separators=(",", ":")),
            ])
        return 0, buf.getvalue(), "raw"
    payload = {"samples": [{"point": p, "reduced": r} for p, r in rows]}
    return 0, payload, "json"


def _skeleton_dot(morphism) -> str:
    lines = ["graph skeleton {"]
    for i, node in enumerate(morphism.skeleton.nodes):
        lines.append(f'  n{i} [label="{node}"];')
    expansions: dict[int, set[int]] = {}
    for sa in morphism.sub_arcs:
        expansions.setdefault(sa.arc, set()).add(sa.expansion)
    for ai, arc in enumerate(morphism.skeleton.arcs):
        exps = ",".join(str(x) for x in sorted(expansions.get(ai, ())))
        lines.append(f'  n{arc.a} -- n{arc.b} '
                     f'[label="length {arc.length}; expansion {exps}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_tree_morphism(args):
    ws = load_workspace(args.graph)
    T = ws.system(args.system)
    morphism = tt_morphism(T)
    if args.format == "dot":
        return 0, _skeleton_dot(morphism), "raw"
    return 0, morphism, "json"


def _cmd_tree_harmonize(args):
    ws = load_workspace(args.graph)
    T = ws.system(args.system)
    modification, morphism, degree = tt_harmonize(T)
    payload = {
        "degree": degree,
        "trivial": modification.is_trivial,
        "attachments": modification.attachments,
        "skeleton": morphism.skeleton,
    }
    return 0, payload, "json"


def _cmd_tree_witness(args):
    ws = load_workspace(args.graph)
    T = ws.system(args.system)
    if args.degree is None:
        raise InputError("tree witness needs --degree", "--degree")
    ok, report = tt_verify_witness(T, args.degree)
    return 0 if ok else 1, report, "json"


_HANDLERS = {
    ("graph", "validate"): _cmd_graph_validate,
    ("tp", "project"): _cmd_tp_project,
    ("tp", "member"): _cmd_tp_member,
    ("tp", "extremals"): _cmd_tp_extremals,
    ("tp", "independence"): _cmd_tp_independence,
    ("tp", "norm"): _cmd_tp_norm,
    ("div", "equiv"): _cmd_div_equiv,
    ("div", "rho"): _cmd_div_rho,
    ("div", "path"): _cmd_div_path,
    ("div", "b1"): _cmd_div_b1,
    ("div", "reduce"): _cmd_div_reduce,
    ("sys", "member"): _cmd_sys_member,
    ("sys", "project"): _cmd_sys_project,
    ("sys", "reduced"): _cmd_sys_reduced,
    ("sys", "extremals"): _cmd_sys_extremals,
    ("tree", "check"): _cmd_tree_check,
    ("tree", "support"): _cmd_tree_support,
    ("tree", "dominant"): _cmd_tree_dominant,
    ("tree", "preimage"): _cmd_tree_preimage,
    ("tree", "redmap"): _cmd_tree_redmap,
    ("tree", "morphism"): _cmd_tree_morphism,
    ("tree", "harmonize"): _cmd_tree_harmonize,
    ("tree", "witness"): _cmd_tree_witness,
}


# ---------------------------------------------------------------------------
# parser


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="PATH",
                        help="write the report to this file instead of "
                             "stdout")
    parser.add_argument("--format", choices=["json", "csv", "dot"],
                        default="json",
                        help="output format (csv: tree redmap; dot: tree "
                             "morphism)")


def _graph_flags(parser: argparse.ArgumentParser,
                 system: bool = False) -> None:
    parser.add_argument("--graph", required=True, metavar="FILE",
                        help="workspace file with the graph block")
    if system:
        parser.add_argument("--system", required=True, metavar="NAME",
                            help="system name from the workspace")


def _space_flags(parser: argparse.ArgumentParser,
                 generators: bool = True) -> None:
    parser.add_argument("--space", required=True, metavar="FILE",
                        help="workspace file with the point block")
    if generators:
        parser.add_argument("--generators", required=True, metavar="NAME",
                            help="point-set name from the workspace")
    parser.add_argument("--mode", choices=["lower", "upper"],
                        default="lower")


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="tropkit",
        description="Exact toolkit for tropical convexity and divisor "
                    "theory on metric graphs.")
    top = root.add_subparsers(dest="group", required=True)

    graph = top.add_parser("graph", help="workspace file checks")
    graph_sub = graph.add_subparsers(dest="action", required=True)
    validate = graph_sub.add_parser("validate",
                                    help="parse and validate a workspace")
    validate.add_argument("file", metavar="FILE")
    _common_flags(validate)

    tp = top.add_parser("tp", help="tropical projective space operations")
    tp_sub = tp.add_subparsers(dest="action", required=True)
    for name, hint in [
            ("project", "nearest hull point with certificates"),
            ("member", "hull membership with a covering certificate"),
            ("extremals", "minimal generating subset"),
            ("independence", "independence of the generators"),
            ("norm", "tropical norm and pseudonorms of a point")]:
        p = tp_sub.add_parser(name, help=hint)
        _space_flags(p, generators=(name != "norm"))
        if name in ("project", "member", "norm"):
            p.add_argument("--point", required=True,
                           help="point name or inline JSON array")
        if name == "independence":
            p.add_argument("--kind",
                           choices=["weak", "gondran_minoux", "tropical"],
                           default="weak")
        if name == "norm":
            p.add_argument("--p", choices=["1", "2", "inf"], default=None)
        _common_flags(p)

    div = top.add_parser("div", help="divisors on a metric graph")
    div_sub = div.add_subparsers(dest="action", required=True)
    for name, hint in [
            ("equiv", "linear equivalence of two divisors"),
            ("rho", "chip-firing distance between two divisors"),
            ("path", "divisor at parameter --t between two divisors"),
            ("b1", "one-sided linear pseudonorm of first minus second"),
            ("reduce", "reduced divisor at --at by metric burning")]:
        p = div_sub.add_parser(name, help=hint)
        _graph_flags(p)
        p.add_argument("--divisor", action="append", metavar="NAME|JSON",
                       help="divisor name or inline JSON (repeat for "
                            "two-divisor operations)")
        if name == "path":
            p.add_argument("--t", metavar="RATIONAL")
        if name == "reduce":
            p.add_argument("--at", metavar="POINT",
                           help="JSON point, e.g. '{\"vertex\":\"v1\"}'")
        _common_flags(p)

    sys_cmd = top.add_parser("sys", help="linear systems from generators")
    sys_sub = sys_cmd.add_subparsers(dest="action", required=True)
    for name, hint in [
            ("member", "membership of --divisor in the system"),
            ("project", "nearest member to --divisor"),
            ("reduced", "reduced divisor of the system at --at"),
            ("extremals", "minimal generating subset of the system")]:
        p = sys_sub.add_parser(name, help=hint)
        _graph_flags(p, system=True)
        if name in ("member", "project"):
            p.add_argument("--divisor", action="append",
                           metavar="NAME|JSON")
        if name == "reduced":
            p.add_argument("--at", metavar="POINT")
        _common_flags(p)

    tree = top.add_parser("tree", help="tropical trees and morphisms")
    tree_sub = tree.add_subparsers(dest="action", required=True)
    for name, hint in [
            ("check", "whether the system is a tropical tree"),
            ("support", "union of member supports"),
            ("dominant", "whether the tree covers the whole graph"),
            ("preimage", "points reducing to --divisor"),
            ("redmap", "reduced divisors on a sample grid"),
            ("morphism", "reduced-divisor map as a verified morphism"),
            ("harmonize", "branch attachments making the map harmonic"),
            ("witness", "verify a stable gonality witness of --degree")]:
        p = tree_sub.add_parser(name, help=hint)
        _graph_flags(p, system=True)
        if name == "preimage":
            p.add_argument("--divisor", action="append",
                           metavar="NAME|JSON")
        if name == "redmap":
            p.add_argument("--samples", type=int, default=None, metavar="N",
                           help="interior sample points per edge "
                                "(default 3)")
        if name == "witness":
            p.add_argument("--degree", type=int, default=None, metavar="N")
        _common_flags(p)

    return root


# ---------------------------------------------------------------------------
# entry point


def _write_output(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = _HANDLERS[(args.group, args.action)]
    try:
        code, payload, kind = handler(args)
    except InputError as exc:
        sys.stdout.write(dumps_canonical({
            "code": "input-error",
            "message": str(exc),
            "location": exc.location,
        }))
        return 2
    except CertificateError as exc:
        sys.stdout.write(dumps_canonical({
            "code": "certificate-failure",
            "message": str(exc),
            "detail": exc.detail,
        }))
        return 3
    if kind == "raw":
        _write_output(args, payload)
    else:
        _write_output(args, dumps_canonical(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
