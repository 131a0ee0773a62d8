"""Command-line front-end.

Reads workspace files, dispatches to the library, and prints one
deterministic JSON report per invocation (CSV and DOT for the exports
that have a tabular or graph shape).  Exit codes: 0 for success or a true
predicate, 1 for a false predicate, 2 for input errors, 3 for internal
certificate failures.  Identical invocations produce byte-identical
output: keys are sorted and all rationals use canonical strings.

Every subcommand is one entry of ``_COMMANDS``: its help text, its flags
(named from ``_FLAGS``) and its handler.  ``build_parser`` and ``main``
both read that table; given the arguments of one valid-looking command,
``build_parser`` builds only that command's parser.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import tropkit as tk

from .errors import CertificateError, InputError
from .rational import as_fraction, rational_str
from .workspace import (
    Workspace,
    _exact_int,
    _located,
    _reject_float,
    _trop_point,
    divisor_from_json,
    dumps_canonical,
    load_workspace,
    point_from_json,
    to_jsonable,
)

__all__ = ["main"]


# ---------------------------------------------------------------------------
# input plumbing


def _loads_strict(text: str, location: str):
    try:
        return json.loads(
            text, parse_float=lambda raw: _reject_float(raw, location),
            parse_int=lambda raw: _exact_int(raw, location))
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc.msg}", location) from None


def _resolve_divisor(ws: Workspace, text: str, location: str):
    s = text.strip()
    if s.startswith("["):
        return divisor_from_json(ws.need_graph(), _loads_strict(s, location),
                                 location)
    return ws.divisor(s)


def _point_at(ws: Workspace, args):
    text = _required(args, "at")
    return point_from_json(ws.need_graph(), _loads_strict(text, "--at"),
                           "--at")


def _resolve_trop_point(ws: Workspace, text: str, location: str):
    s = text.strip()
    if s.startswith("["):
        return _trop_point(ws.need_space(), _loads_strict(s, location), location)
    return ws.point(s)


def _divisors(ws: Workspace, args, count: int) -> list:
    given = args.divisor or []
    if len(given) != count:
        noun = "one --divisor argument" if count == 1 \
            else "two --divisor arguments"
        raise InputError(f"this operation needs exactly {noun}", "--divisor")
    return [_resolve_divisor(ws, text, "--divisor") for text in given]


def _required(args, flag: str):
    value = getattr(args, flag)
    if value is None:
        raise InputError(f"{args.group} {args.action} needs --{flag}",
                         f"--{flag}")
    return value


def _first_names(table: dict, members, kept) -> list[str]:
    """The name in members of each kept value: the first name of a repeated
    value wins."""
    by_value = {table[name]: name for name in reversed(members)}
    return [by_value[value] for value in kept]


def _component_label(component: dict) -> str:
    """Short name for an uncovered component, from its edge ids: every
    uncovered vertex has a gap on each edge at it, so each component has one."""
    ids = sorted({gap["edge"] for gap in component["gaps"]})
    prefix = os.path.commonprefix([eid.split("-") for eid in ids])
    return "-".join(prefix) if prefix else ids[0]


# ---------------------------------------------------------------------------
# subcommand handlers: handler(workspace, args) -> (exit code, payload); a
# str payload is printed as is (CSV, DOT), anything else as canonical JSON.
# The order in which a handler resolves its inputs decides which error a bad
# invocation reports.  Handlers call the library through the package
# namespace, which loads a layer on first use of one of its names, so a
# command loads only the layers it needs; and each call reads the name at
# call time, so a tracer that rebinds those names sees every call.


def _graph_validate(ws: Workspace, args):
    ws.need_graph()
    payload = dict(ws.graph_report)
    payload["valid"] = True
    payload["divisors"] = sorted(ws.divisors)
    payload["systems"] = sorted(ws.systems)
    return 0, payload


def _tp_project(ws: Workspace, args):
    S = ws.generator_set(args.generators, args.mode)
    gamma = _resolve_trop_point(ws, args.point, "--point")
    projection, cert = tk.tp_project(S, gamma, ws.need_space())
    return 0, {"mode": args.mode, "point": gamma,
               "projection": projection, "certificate": cert}


def _tp_member(ws: Workspace, args):
    S = ws.generator_set(args.generators, args.mode)
    gamma = _resolve_trop_point(ws, args.point, "--point")
    ok, cert = tk.tp_member(S, gamma)
    return 0 if ok else 1, {"mode": args.mode, "point": gamma, "member": ok,
                            "certificate": cert}


def _tp_extremals(ws: Workspace, args):
    kept = tk.tp_extremals(ws.generator_set(args.generators, args.mode))
    return 0, {"mode": args.mode, "points": list(kept.points),
               "extremals": _first_names(ws.points, ws.sets[args.generators], kept.points)}


def _tp_independence(ws: Workspace, args):
    result = tk.tp_independence(ws.generator_set(args.generators, args.mode),
                                args.kind)
    code = {"independent": 0, "dependent": 1, "undecided": 3}[result["status"]]
    return code, result


def _tp_norm(ws: Workspace, args):
    ws.need_space()
    gamma = _resolve_trop_point(ws, args.point, "--point")
    payload = {"point": gamma, "norm": tk.tp_norm(gamma)}
    if args.p is not None:
        p = args.p if args.p == "inf" else int(args.p)
        payload["pseudonorm"] = {
            "p": args.p, "mode": args.mode,
            "value": tk.tp_pseudonorm(gamma, p, args.mode, ws.space)}
    return 0, payload


def _div_equiv(ws: Workspace, args):
    d1, d2 = _divisors(ws, args, 2)
    with _located("--divisor"):
        ok = tk.dv_lin_equiv(ws.need_graph(), d1, d2)
    return 0 if ok else 1, {"equivalent": ok}


def _div_rho(ws: Workspace, args):
    d1, d2 = _divisors(ws, args, 2)
    with _located("--divisor"):
        return 0, {"rho": tk.dv_rho(ws.need_graph(), d1, d2)}


def _div_path(ws: Workspace, args):
    d1, d2 = _divisors(ws, args, 2)
    t = as_fraction(_required(args, "t"), "--t")
    return 0, {"t": t, "divisor": tk.dv_path(ws.need_graph(), d1, d2, t)}


def _div_b1(ws: Workspace, args):
    d, e = _divisors(ws, args, 2)
    with _located("--divisor"):
        return 0, {"b1": tk.dv_b1(ws.need_graph(), d, e)}


def _div_reduce(ws: Workspace, args):
    d, = _divisors(ws, args, 1)
    q = _point_at(ws, args)
    with _located("--divisor"):
        reduced, steps = tk.dv_dhar_trace(ws.need_graph(), d, q)
    return 0, {"point": q, "reduced": reduced, "steps": steps,
               "rounds": len(steps)}


def _sys_member(ws: Workspace, args):
    T, (d,) = ws.system(args.system), _divisors(ws, args, 1)
    with _located("--divisor"):
        ok, cert = tk.ls_member(T, d)
    return 0 if ok else 1, {"member": ok, "certificate": cert}


def _sys_project(ws: Workspace, args):
    T, (d,) = ws.system(args.system), _divisors(ws, args, 1)
    with _located("--divisor"):
        projection, cert = tk.ls_project(T, d)
    return 0, {"projection": projection, "certificate": cert}


def _sys_reduced(ws: Workspace, args):
    T, q = ws.system(args.system), _point_at(ws, args)
    reduced, cert = tk.ls_reduced(T, q)
    return 0, {"point": q, "reduced": reduced, "certificate": cert}


def _sys_extremals(ws: Workspace, args):
    kept = tk.ls_extremals(ws.system(args.system))
    return 0, {"divisors": kept,
               "extremals": _first_names(ws.divisors, ws.systems[args.system], kept)}


def _tree_check(ws: Workspace, args):
    ok, report = tk.tt_is_tree(ws.system(args.system))
    return 0 if ok else 1, {"tree": ok, "report": report}


def _tree_support(ws: Workspace, args):
    support = tk.tt_support(ws.system(args.system))
    payload = {"covers_graph": support.covers_graph(), "support": support}
    if not support.covers_graph():
        payload["uncovered"] = support.complement_components()
    return 0, payload


def _tree_dominant(ws: Workspace, args):
    ok, report = tk.tt_is_dominant(ws.system(args.system))
    payload = dict(report)
    if not ok and "uncovered" in report:
        labels = [_component_label(c) for c in report["uncovered"]]
        noun = "component" if len(labels) == 1 else "components"
        payload["reason"] = f"support misses {noun} " + ", ".join(labels)
    return 0 if ok else 1, payload


def _tree_preimage(ws: Workspace, args):
    T = ws.system(args.system)
    d, = _divisors(ws, args, 1)
    with _located("--divisor"):
        region = tk.tt_preimage(T, d)
    return 0, {"divisor": d, "preimage": region,
               "points": region.finite_points()}


def _tree_redmap(ws: Workspace, args):
    T = ws.system(args.system)
    graph = ws.need_graph()
    per_edge = 3 if args.samples is None else as_fraction(args.samples, "--samples")
    if per_edge < 0:
        raise InputError("--samples must be nonnegative", "--samples")
    if per_edge.denominator != 1:
        raise InputError("--samples must be an integer", "--samples")
    rows = tk.tt_reduced_map(T, tk.trees._sample_points(graph, int(per_edge)))
    if args.format != "csv":
        return 0, {"samples": [{"point": p, "reduced": r} for p, r in rows]}
    import csv
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["point_id", "edge", "offset", "image_divisor"])
    for point, reduced in rows:
        # rational_str first: it reports an unprintable offset, str(point) crashes
        offset = "" if point.is_vertex else rational_str(point.offset)
        writer.writerow([
            str(point),
            "" if point.is_vertex else point.edge,
            offset,
            json.dumps(to_jsonable(reduced), sort_keys=True,
                       separators=(",", ":")),
        ])
    return 0, buf.getvalue()


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


def _tree_morphism(ws: Workspace, args):
    morphism = tk.tt_morphism(ws.system(args.system))
    return 0, _skeleton_dot(morphism) if args.format == "dot" else morphism


def _tree_harmonize(ws: Workspace, args):
    modification, morphism, degree = tk.tt_harmonize(ws.system(args.system))
    return 0, {"degree": degree, "trivial": modification.is_trivial,
               "attachments": modification.attachments,
               "skeleton": morphism.skeleton}


def _tree_witness(ws: Workspace, args):
    T = ws.system(args.system)
    degree = as_fraction(_required(args, "degree"), "--degree")
    with _located("--degree"):
        ok, report = tk.tt_verify_witness(T, degree)
    return 0 if ok else 1, report


# ---------------------------------------------------------------------------
# command table and parser

_FLAGS = {
    "file": dict(metavar="FILE"),
    "--space": dict(required=True, metavar="FILE",
                    help="workspace file with the point block"),
    "--graph": dict(required=True, metavar="FILE",
                    help="workspace file with the graph block"),
    "--generators": dict(required=True, metavar="NAME",
                         help="point-set name from the workspace"),
    "--system": dict(required=True, metavar="NAME",
                     help="system name from the workspace"),
    "--mode": dict(choices=["lower", "upper"], default="lower"),
    "--point": dict(required=True, help="point name or inline JSON array"),
    "--kind": dict(choices=["weak", "gondran_minoux", "tropical"],
                   default="weak"),
    "--p": dict(choices=["1", "2", "inf"], default=None),
    "--divisor": dict(action="append", metavar="NAME|JSON",
                      help="divisor name or inline JSON; repeat for two"),
    "--t": dict(metavar="RATIONAL"),
    "--at": dict(metavar="POINT",
                 help="JSON point, e.g. '{\"vertex\":\"v1\"}'"),
    "--samples": dict(default=None, metavar="N",
                      help="interior sample points per edge (default 3)"),
    "--degree": dict(default=None, metavar="N"),
    "--out": dict(metavar="PATH",
                  help="write the report to this file instead of stdout"),
    "--format": dict(choices=["json", "csv", "dot"], default="json",
                     help="output format (csv: tree redmap; dot: tree "
                          "morphism)"),
}

# group -> (help, flags of every action, {action: (help, flags, handler)}).
# The first group flag names the workspace file that main loads.
_COMMANDS = {
    "graph": ("workspace file checks", ("file",), {
        "validate": ("parse and validate a workspace", (), _graph_validate),
    }),
    "tp": ("tropical projective space operations", ("--space",), {
        "project": ("nearest hull point with certificates",
                    ("--generators", "--mode", "--point"), _tp_project),
        "member": ("hull membership with a covering certificate",
                   ("--generators", "--mode", "--point"), _tp_member),
        "extremals": ("minimal generating subset",
                      ("--generators", "--mode"), _tp_extremals),
        "independence": ("independence of the generators",
                         ("--generators", "--mode", "--kind"),
                         _tp_independence),
        "norm": ("tropical norm and pseudonorms of a point",
                 ("--mode", "--point", "--p"), _tp_norm),
    }),
    "div": ("divisors on a metric graph", ("--graph", "--divisor"), {
        "equiv": ("linear equivalence of two divisors", (), _div_equiv),
        "rho": ("chip-firing distance between two divisors", (), _div_rho),
        "path": ("divisor at parameter --t between two divisors",
                 ("--t",), _div_path),
        "b1": ("one-sided linear pseudonorm of first minus second", (),
               _div_b1),
        "reduce": ("reduced divisor at --at by metric burning", ("--at",),
                   _div_reduce),
    }),
    "sys": ("linear systems from generators", ("--graph", "--system"), {
        "member": ("membership of --divisor in the system", ("--divisor",),
                   _sys_member),
        "project": ("nearest member to --divisor", ("--divisor",),
                    _sys_project),
        "reduced": ("reduced divisor of the system at --at", ("--at",),
                    _sys_reduced),
        "extremals": ("minimal generating subset of the system", (),
                      _sys_extremals),
    }),
    "tree": ("tropical trees and morphisms", ("--graph", "--system"), {
        "check": ("whether the system is a tropical tree", (), _tree_check),
        "support": ("union of member supports", (), _tree_support),
        "dominant": ("whether the tree covers the whole graph", (),
                     _tree_dominant),
        "preimage": ("points reducing to --divisor", ("--divisor",),
                     _tree_preimage),
        "redmap": ("reduced divisors on a sample grid", ("--samples",),
                   _tree_redmap),
        "morphism": ("reduced-divisor map as a verified morphism", (),
                     _tree_morphism),
        "harmonize": ("branch attachments making the map harmonic", (),
                      _tree_harmonize),
        "witness": ("verify a stable gonality witness of --degree",
                    ("--degree",), _tree_witness),
    }),
}


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The command line's parser; for an argv that names a known group and
    action and asks no help, only that action's chain, which acts as the full one."""
    # usage names every group, however many are built; prog keeps it out of sub-usages
    root = argparse.ArgumentParser(
        prog="tropkit", usage="%(prog)s [-h] {" + ",".join(_COMMANDS) + "} ...",
        description="Exact toolkit for tropical convexity and divisor "
                    "theory on metric graphs.")
    top = root.add_subparsers(dest="group", required=True, prog="tropkit")
    commands = _COMMANDS
    group, action, *_ = [*(argv or ()), None, None]
    if action in _COMMANDS.get(group, ("", (), {}))[2] and not {"-h", "--help"} & set(argv):
        group_help, group_flags, actions = _COMMANDS[group]
        commands = {group: (group_help, group_flags, {action: actions[action]})}
    for group, (group_help, group_flags, actions) in commands.items():
        sub = top.add_parser(group, help=group_help) \
            .add_subparsers(dest="action", required=True)
        for action, (action_help, flags, handler) in actions.items():
            p = sub.add_parser(action, help=action_help)
            for flag in group_flags + flags + ("--out", "--format"):
                p.add_argument(flag, **_FLAGS[flag])
            p.set_defaults(handler=handler,
                           workspace=group_flags[0].lstrip("-"))
    return root


# ---------------------------------------------------------------------------
# entry point


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        ws = load_workspace(getattr(args, args.workspace))
        code, payload = args.handler(ws, args)
        text = payload if isinstance(payload, str) else dumps_canonical(payload)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise InputError(f"cannot write {args.out}: {exc.strerror}", "--out") from None
        else:
            sys.stdout.write(text)
    except InputError as exc:
        sys.stdout.write(dumps_canonical({
            "code": "input-error", "message": str(exc),
            "location": exc.location}))
        return 2
    except CertificateError as exc:
        sys.stdout.write(dumps_canonical({
            "code": "certificate-failure", "message": str(exc),
            "detail": exc.detail}))
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
