"""Workspace files, canonical serialization and the command-line front end."""

import csv
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropkit import (
    CertificateError,
    Divisor,
    GraphPoint,
    InputError,
    MetricGraph,
    TropGeneratorSet,
    TropPoint,
    Workspace,
    as_fraction,
    dumps_canonical,
    dv_lin_equiv,
    load_workspace,
    parse_workspace,
    rational_str,
    serialize_workspace,
    to_jsonable,
    tp_argext,
)
from tropkit import cli
from tropkit.cli import main
from tropkit.workspace import _located

from conftest import FIXTURES, random_graph

C6 = str(FIXTURES / "c6.json")
BANANA = str(FIXTURES / "banana.json")
TP3 = str(FIXTURES / "tp3.json")
SEGMENT = {"vertices": ["a", "b"], "edges": [{"id": "e", "tail": "a", "head": "b", "length": 1}]}
LOOP = {"schema_version": 1, "vertices": ["a", "b"],
        "edges": [{"id": "e", "tail": "a", "head": "b", "length": 1},
                  {"id": "L", "tail": "a", "head": "a", "length": 2}],
        "divisors": {"D": [[{"vertex": "a"}, 1]]}}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestRoundTrip:
    @pytest.mark.parametrize("path", [C6, BANANA, TP3])
    def test_parse_serialize_parse_is_identity(self, path):
        ws = load_workspace(path)
        first = serialize_workspace(ws)
        again = serialize_workspace(parse_workspace(first, "round-trip"))
        assert first == again
        assert dumps_canonical(first) == dumps_canonical(again)

    def test_loops_round_trip_as_one_edge(self):
        ws = parse_workspace({
            "schema_version": 1, "vertices": ["a", "b"],
            "edges": [{"id": "e", "tail": "a", "head": "b", "length": 1},
                      {"id": "L", "tail": "a", "head": "a", "length": "3"}],
            "divisors": {"D": [[{"edge": "L", "offset": 1}, 1],
                               [{"edge": "L", "offset": "5/2"}, 2]]}})
        first = serialize_workspace(ws)
        assert first["vertices"] == ["a", "b"]
        assert first["edges"] == [
            {"id": "e", "tail": "a", "head": "b", "length": "1"},
            {"id": "L", "tail": "a", "head": "a", "length": "3"},
        ]
        again = serialize_workspace(parse_workspace(first, "round-trip"))
        assert dumps_canonical(first) == dumps_canonical(again)

    @pytest.mark.thorough
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_random_graphs_serialize_their_record(self, seed):
        """random_graph draws loops; the file holds the graph's record of
        its vertices and edges as given, loops whole, the record rebuilds
        the graph, and serialize -> parse -> serialize keeps every byte."""
        g = random_graph(random.Random(seed))
        ws = Workspace()
        ws.graph = g
        first = serialize_workspace(ws)
        vertices, edges = g.given
        assert first["vertices"] == list(vertices)
        assert first["edges"] == [{"id": e.id, "tail": e.tail, "head": e.head,
                                   "length": rational_str(e.length)} for e in edges]
        assert {e.id for e in edges if e.tail == e.head} == set(g.loop_aliases)
        rebuilt = MetricGraph.of(vertices, edges)
        assert (rebuilt.vertices, rebuilt.edges) == (g.vertices, g.edges)
        again = serialize_workspace(parse_workspace(first, "round-trip"))
        assert dumps_canonical(again) == dumps_canonical(first)

    def test_tropical_values_serialize(self):
        S = TropGeneratorSet.of([(0, "1/2"), (1, 0)], "upper")
        assert to_jsonable(S) == {"mode": "upper", "points": [["0", "1/2"], ["1", "0"]]}
        assert to_jsonable(tp_argext(TropPoint.of((0, 2, 0)))) == [0, 2]

    def test_canonical_rationals_survive(self, banana):
        data = serialize_workspace(banana)
        lengths = {e["length"] for e in data["edges"]}
        assert "1/2" in lengths and "1" in lengths


class TestErrorHandling:
    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, payload = run_json(capsys, "graph", "validate", str(bad))
        assert code == 2
        assert payload["code"] == "input-error"
        assert payload["location"]

    def test_floats_are_rejected(self, tmp_path, capsys):
        bad = tmp_path / "float.json"
        bad.write_text(json.dumps({
            "schema_version": 1,
            "vertices": ["a", "b"],
            "edges": [{"id": "e", "tail": "a", "head": "b", "length": 1.5}],
        }))
        code, payload = run_json(capsys, "graph", "validate", str(bad))
        assert code == 2
        assert payload["location"] == "number"
        assert payload["message"] == \
            "floats are not accepted; write '1.5' as a \"p/q\" string"

    def test_inline_floats_are_rejected_at_the_flag(self, capsys):
        code, payload = run_json(capsys, "div", "rho", "--graph", C6,
                                 "--divisor", '[[{"vertex":"v1"}, 1.5]]',
                                 "--divisor", "D1")
        assert code == 2
        assert payload == {
            "code": "input-error",
            "location": "--divisor",
            "message": "floats are not accepted; write '1.5' as a \"p/q\" string",
        }

    def test_long_integers_are_rejected_at_the_path(self, tmp_path, capsys):
        bad = tmp_path / "long.json"
        bad.write_text('{"schema_version": 1, "ground": ["a"], "points": {"A": [%s]}}'
                       % ("9" * 5000))
        code, payload = run_json(capsys, "tp", "norm", "--space", str(bad), "--point", "A")
        assert code == 2
        assert payload == {
            "code": "input-error",
            "location": str(bad),
            "message": "integer literal of 5000 digits is past the 4300-digit limit",
        }

    @pytest.mark.parametrize("flag, argv", [
        ("--point", ("tp", "norm", "--space", TP3, "--point", "[%s, 0, 0]")),
        ("--divisor", ("div", "rho", "--graph", C6, "--divisor", '[[{"vertex":"v1"}, %s]]',
                       "--divisor", "D1")),
        ("--at", ("div", "reduce", "--graph", C6, "--divisor", "D1", "--at",
                  '{"edge": "e1", "offset": %s}')),
    ])
    def test_inline_long_integers_are_rejected_at_the_flag(self, capsys, flag, argv):
        code, payload = run_json(capsys, *[a.replace("%s", "-" + "1" * 5000) for a in argv])
        assert code == 2
        assert payload == {
            "code": "input-error",
            "location": flag,
            "message": "integer literal of 5000 digits is past the 4300-digit limit",
        }

    def test_unprintable_workspace_values_are_located(self, tmp_path, capsys):
        bad = tmp_path / "exponent.json"
        bad.write_text('{"schema_version": 1, "ground": ["a", "b"], '
                       '"points": {"A": ["0", "1e5000"]}}')
        code, payload = run_json(capsys, "tp", "norm", "--space", str(bad), "--point", "A")
        assert code == 2
        assert payload == {
            "code": "input-error",
            "location": f"{bad}.points.A[1]",
            "message": "past the 4300-digit limit: '1e5000'",
        }

    def test_results_past_the_digit_limit_are_located(self, capsys):
        # each coordinate's denominator has 4,300 digits, inside the limit; the
        # canonical point shifts by -1/Q2, and its first coordinate's
        # denominator Q1*Q2 has 8,599
        q1, q2 = 10 ** 4299 + 1, 10 ** 4299 + 3
        point = json.dumps([f"1/{q1}", f"-1/{q2}", "0"])
        code = main(["tp", "norm", "--space", TP3, "--point", point])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == dumps_canonical({
            "code": "input-error",
            "location": "output",
            "message": "a result has a rational past the 4300-digit limit",
        })
        assert err == ""

    @pytest.mark.parametrize("point", ['["0", "1e155", "0"]', '["0", "1e400", "0"]'])
    def test_quadratic_pseudonorms_past_the_float_range_are_located(self, capsys, point):
        code = main(["tp", "norm", "--space", TP3, "--point", point, "--p", "2"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == dumps_canonical({
            "code": "input-error",
            "location": "output",
            "message": "the p=2 pseudonorm is past the float range",
        })
        assert err == ""

    def test_infinite_quadratic_pseudonorms_are_located(self, tmp_path, capsys):
        # each term is finite, but the weight times the square is not
        ws = tmp_path / "heavy.json"
        ws.write_text(json.dumps({"schema_version": 1, "ground": ["a", "b"],
                                  "weights": ["1e300", "1"], "points": {"P": ["1e100", "0"]}}))
        code = main(["tp", "norm", "--space", str(ws), "--point", "P", "--p", "2"])
        out, err = capsys.readouterr()
        assert code == 2
        assert json.loads(out) == {
            "code": "input-error",
            "location": "output",
            "message": "the p=2 pseudonorm is past the float range",
        }
        assert err == ""

    def test_vanishing_quadratic_pseudonorms_are_located(self, tmp_path, capsys):
        # the class is not zero, but its weight rounds to 0.0 as a float
        ws = tmp_path / "light.json"
        ws.write_text(json.dumps({"schema_version": 1, "ground": ["a", "b"],
                                  "weights": ["1e-400", "1"], "points": {"P": ["1", "0"]}}))
        code = main(["tp", "norm", "--space", str(ws), "--point", "P", "--p", "2"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == dumps_canonical({
            "code": "input-error",
            "location": "output",
            "message": "the p=2 pseudonorm is past the float range",
        })
        assert err == ""

    def test_quadratic_pseudonorms_inside_the_float_range_print(self, capsys):
        code, payload = run_json(capsys, "tp", "norm", "--space", TP3,
                                 "--point", '["0", "1e154", "0"]', "--p", "2")
        assert code == 0
        assert payload["pseudonorm"]["value"] == "5.7735026918962576e+153"

    def test_unprintable_csv_offsets_are_located(self, tmp_path, capsys):
        # with 9 samples, the first point on an edge of length 1/Q, Q of 4,300
        # digits, sits at offset 1/(10*Q), whose denominator has 4,301
        ws = tmp_path / "short_edge.json"
        ws.write_text(json.dumps({
            "schema_version": 1, "vertices": ["a", "b"],
            "edges": [{"id": "e1", "tail": "a", "head": "b", "length": f"1/{10 ** 4299 + 1}"},
                      {"id": "e2", "tail": "a", "head": "b", "length": "1"}],
            "divisors": {"D": [[{"vertex": "a"}, 1]]}, "systems": {"S": ["D"]}}))
        for fmt in ("json", "csv"):
            code, out = run(capsys, "tree", "redmap", "--graph", str(ws), "--system", "S",
                            "--samples", "9", "--format", fmt)
            assert code == 2
            assert json.loads(out)["location"] == "output"

    @pytest.mark.parametrize("offset", ["3", "5/2", "-1"])
    def test_loop_offsets_past_the_loop_name_it_as_given(self, tmp_path, capsys, offset):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(LOOP))
        code = main(["div", "reduce", "--graph", str(path), "--divisor", "D",
                     "--at", json.dumps({"edge": "L", "offset": offset})])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == dumps_canonical({
            "code": "input-error",
            "location": "--at",
            "message": f"offset {offset} outside [0, 2] on edge 'L'",
        })
        assert err == ""

    def test_a_loop_on_an_unknown_vertex_is_named_as_given(self, tmp_path, capsys):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps({**LOOP, "divisors": {}, "edges": [
            *LOOP["edges"][:1], {"id": "L", "tail": "x", "head": "x", "length": 2}]}))
        code = main(["graph", "validate", str(path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == dumps_canonical({
            "code": "input-error",
            "location": str(path),
            "message": "edge 'L' references an unknown vertex",
        })
        assert err == ""

    @pytest.mark.parametrize("edges, message", [
        ([{"id": "L", "tail": "a", "head": "b", "length": 1},
          {"id": "L", "tail": "a", "head": "a", "length": 2}], "edge ids must be distinct"),
        ([*LOOP["edges"], {"id": "f", "tail": "b", "head": "L:mid", "length": 1}],
         "edge 'f' references an unknown vertex"),
    ], ids=["loop beside an edge of its id", "end at an undeclared midpoint"])
    def test_records_the_loop_split_would_hide_are_refused(self, tmp_path, capsys, edges,
                                                           message):
        path = tmp_path / "clash.json"
        path.write_text(json.dumps({**LOOP, "divisors": {}, "edges": edges}))
        code = main(["graph", "validate", str(path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == dumps_canonical({
            "code": "input-error", "location": str(path), "message": message})
        assert err == ""

    @pytest.mark.parametrize("target, reason", [
        ("missing/report.json", "No such file or directory"),
        ("reports", "Is a directory"),
    ], ids=["missing parent", "a directory"])
    def test_unwritable_out_paths_are_input_errors(self, tmp_path, capsys, target, reason):
        (tmp_path / "reports").mkdir()
        path = str(tmp_path / target)
        code = main(["graph", "validate", C6, "--out", path])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == dumps_canonical({
            "code": "input-error", "location": "--out",
            "message": f"cannot write {path}: {reason}"})
        assert err == ""
        assert [p.name for p in tmp_path.rglob("*")] == ["reports"]

    def test_missing_schema_version(self, tmp_path, capsys):
        bad = tmp_path / "nover.json"
        bad.write_text(json.dumps({
            "vertices": ["a", "b"],
            "edges": [{"id": "e", "tail": "a", "head": "b", "length": 1}],
        }))
        code, payload = run_json(capsys, "graph", "validate", str(bad))
        assert code == 2
        assert "schema_version" in payload["message"]

    def test_unknown_fields_are_rejected(self, tmp_path, capsys):
        bad = tmp_path / "extra.json"
        bad.write_text(json.dumps({
            "schema_version": 1,
            "vertices": ["a", "b"],
            "edges": [{"id": "e", "tail": "a", "head": "b", "length": 1}],
            "surprise": True,
        }))
        code, payload = run_json(capsys, "graph", "validate", str(bad))
        assert code == 2

    def test_unknown_divisor_name(self, capsys):
        code, payload = run_json(capsys, "div", "rho", "--graph", C6,
                                 "--divisor", "D1", "--divisor", "nope")
        assert code == 2
        assert payload["code"] == "input-error"

    @pytest.mark.parametrize("block, member", [
        ("systems", ["D"]), ("systems", {"d": "D"}), ("sets", ["A"]), ("sets", {"p": "A"}),
    ], ids=["system array", "system object", "set array", "set object"])
    def test_non_string_members_are_located(self, tmp_path, capsys, block, member):
        """An array or object where a system or point set names a member is
        an input error at that entry, not a crash."""
        path = str(tmp_path / "ws.json")
        if block == "systems":
            data = {"vertices": ["a", "b"],
                    "edges": [{"id": "e", "tail": "a", "head": "b", "length": 1}],
                    "divisors": {"D": [[{"vertex": "a"}, 1]]}, "systems": {"S": ["D", member]}}
            argv, kind = ("sys", "member", "--graph", path, "--system", "S", "--divisor", "D"), \
                "divisor"
        else:
            data = {"ground": ["x", "y"], "points": {"A": ["0", "1"]}, "sets": {"S": ["A", member]}}
            argv, kind = ("tp", "member", "--space", path, "--generators", "S", "--point", "A"), \
                "point"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema_version": 1, **data}, fh)
        code, payload = run_json(capsys, *argv)
        assert code == 2
        assert payload == {
            "code": "input-error",
            "location": f"{path}.{block}.S",
            "message": f"a {kind} name must be a str, got {type(member).__name__}",
        }

    def test_unknown_system_name(self, capsys):
        code, payload = run_json(capsys, "sys", "member", "--graph", C6,
                                 "--system", "missing", "--divisor", "D0")
        assert code == 2

    @pytest.mark.parametrize("action", [["norm"], ["project", "--generators", "rect"]])
    @pytest.mark.parametrize("point", ["[1,2,3,4,5]", "[1]", "[]"])
    def test_inline_points_of_another_dimension_are_located(self, capsys, action, point):
        code = main(["tp", action[0], "--space", TP3, *action[1:], "--point", point])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == dumps_canonical({
            "code": "input-error",
            "location": "--point",
            "message": "point dimension does not match the ground set",
        })
        assert err == ""

    @pytest.mark.parametrize("argv, message", [
        (["witness", "--system", "triangle_mid", "--degree", "x"], "not a rational: 'x'"),
        (["witness", "--system", "triangle_mid", "--degree", "1.5x"], "not a rational: '1.5x'"),
        (["witness", "--system", "triangle_mid", "--degree", "0"],
         "the witness degree must be a positive integer"),
        (["witness", "--system", "triangle_mid", "--degree", "3/2"],
         "the witness degree must be a positive integer"),
        (["redmap", "--system", "triangle_mid", "--samples", "x"], "not a rational: 'x'"),
        (["redmap", "--system", "triangle_mid", "--samples", "1/2"],
         "--samples must be an integer"),
        (["redmap", "--system", "triangle_mid", "--samples", "-1"],
         "--samples must be nonnegative"),
        (["redmap", "--system", "triangle_mid", "--samples", "1e400"],
         "--samples must give at most 1000 sample points, vertices included"),
    ])
    def test_malformed_degrees_and_sample_counts_are_located(self, capsys, argv, message):
        flag = argv[-2]
        code = main(["tree", argv[0], "--graph", C6, *argv[1:]])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == dumps_canonical({"code": "input-error", "location": flag,
                                       "message": message})
        assert err == ""

    @pytest.mark.parametrize("data, location, message", [
        ({**SEGMENT, "divisors": {"D": [[{"vertex": "a"}, 1]]}, "systems": {"S": ["X"]}},
         ".systems.S", "system 'S' references unknown divisor 'X'"),
        ({**SEGMENT, "divisors": {"D": [[{"vertex": "a", "colour": 1}, 1]]}},
         ".divisors.D[0]", "unknown point fields: ['colour']"),
        ({**SEGMENT, "divisors": {"D": [[{"edge": "e"}, 1]]}},
         ".divisors.D[0]", 'a point needs either "vertex" or both "edge" and "offset"'),
        ({**SEGMENT, "divisors": {"D": [[{"vertex": "a"}]]}},
         ".divisors.D[0]", "a divisor entry is a [point, coefficient] pair"),
        ({**SEGMENT, "schema_version": 2}, ".schema_version", "unsupported schema_version 2"),
        ({**SEGMENT, "edges": [{"id": "e", "tail": "a", "head": "b"}]},
         ".edges[0]", "edge missing fields ['length']"),
        ({**SEGMENT, "edges": [{"id": "e", "tail": "a", "head": "b", "length": 1,
                                "colour": "red"}]},
         ".edges[0]", "unknown edge fields ['colour']"),
        ({"ground": ["x"], "divisors": {}}, "", "divisors and systems need a graph block"),
        ({"ground": ["x", "y"], "weights": ["1"]},
         ".weights", "need exactly one weight per ground element"),
        ({**SEGMENT, "weights": ["1"]}, "", "weights and sets need a ground block"),
        ({}, "", "a workspace needs a graph block or a point block"),
    ], ids=["unknown member", "point fields", "point without place", "entry length",
            "schema version", "edge missing fields", "edge fields", "divisors without graph",
            "weight count", "weights without ground", "no block"])
    def test_refused_files_are_located(self, tmp_path, capsys, data, location, message):
        path = tmp_path / "ws.json"
        path.write_text(json.dumps({"schema_version": 1, **data}))
        code = main(["graph", "validate", str(path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == dumps_canonical({"code": "input-error", "location": f"{path}{location}",
                                       "message": message})
        assert err == ""

    def test_malformed_inline_json_is_located_at_the_flag(self, capsys):
        code = main(["div", "rho", "--graph", C6, "--divisor", "[", "--divisor", "D1"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == dumps_canonical({"code": "input-error", "location": "--divisor",
                                       "message": "invalid JSON: Expecting value"})
        assert err == ""

    def test_a_location_the_library_names_is_kept(self, c6):
        g = c6.need_graph()
        stray = Divisor(g, {GraphPoint(vertex="x"): 1})
        with pytest.raises(InputError) as refused:
            with _located("--divisor"):
                dv_lin_equiv(g, stray, c6.divisor("D1"))
        assert (str(refused.value), refused.value.location) == ("unknown vertex 'x'", "d1")

    @pytest.mark.parametrize("argv, message", [
        (["div", "equiv", "--divisor", "D1", "--divisor", '[[{"vertex":"v1"},"2"]]'],
         "divisors must have equal degree"),
        (["div", "rho", "--divisor", "D1",
          "--divisor", '[[{"vertex":"v1"},"4"],[{"vertex":"v2"},"-1"]]'],
         "the second divisor must be effective"),
        (["div", "path", "--divisor", "D1",
          "--divisor", '[[{"vertex":"v1"},"4"],[{"vertex":"v2"},"-1"]]', "--t", "1"],
         "the second divisor must be effective"),
        (["div", "b1", "--divisor", "D1", "--divisor", '[[{"vertex":"v1"},"2"]]'],
         "divisors must have equal degree"),
        (["div", "reduce", "--divisor", '[[{"vertex":"v1"},"1/2"]]', "--at", '{"vertex":"v2"}'],
         "the divisor must be effective with integer coefficients"),
        (["sys", "member", "--system", "complete",
          "--divisor", '[[{"vertex":"v1"},"1/2"],[{"vertex":"v2"},"3/2"]]'],
         "divisor degree does not match the system"),
        (["sys", "project", "--system", "complete",
          "--divisor", '[[{"vertex":"v1"},"4"],[{"vertex":"v2"},"-1"]]'],
         "the target divisor must be effective"),
        (["tree", "preimage", "--system", "seg_D1_D3", "--divisor", "D2"],
         "the divisor is not a member of the system"),
    ], ids=["div equiv", "div rho", "div path", "div b1", "div reduce", "sys member",
            "sys project", "tree preimage"])
    def test_library_errors_on_a_divisor_are_located_at_the_flag(self, capsys, argv, message):
        code = main([*argv[:2], "--graph", C6, *argv[2:]])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == dumps_canonical({"code": "input-error", "location": "--divisor",
                                       "message": message})
        assert err == ""

    def test_a_t_off_the_segment_is_located_at_the_flag(self, capsys):
        code = main(["div", "path", "--graph", C6, "--divisor", "D1", "--divisor", "D3",
                     "--t", "9"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == dumps_canonical({"code": "input-error", "location": "--t",
                                       "message": "t must lie in [0, 4]"})
        assert err == ""

    def test_integral_degrees_and_sample_counts_are_read_as_rationals(self, capsys):
        code, payload = run_json(capsys, "tree", "witness", "--graph", C6,
                                 "--system", "triangle_mid", "--degree", "6/2")
        assert (code, payload["stably_gonal"]) == (0, 3)
        code, payload = run_json(capsys, "tree", "redmap", "--graph", C6,
                                 "--system", "triangle_mid", "--samples", "2/2")
        g = load_workspace(C6).need_graph()
        assert (code, len(payload["samples"])) == (0, len(g.vertices) + len(g.edges))


class TestRationalParsing:
    """The library entry points parse outside values like workspace files."""

    ENTRY_POINTS = [
        lambda x: MetricGraph.of(["a", "b"], [("e", "a", "b", x)]),
        lambda x: Divisor.of(MetricGraph.of(["a", "b"], [("e", "a", "b", 1)]),
                             [(GraphPoint(vertex="a"), x)]),
        lambda x: TropPoint.of([x, 0]),
    ]

    @pytest.mark.parametrize("build", ENTRY_POINTS,
                             ids=["MetricGraph.of", "Divisor.of", "TropPoint.of"])
    @pytest.mark.parametrize("value, message", [
        (True, "expected a rational, got a boolean"),
        ("x/y", "not a rational: 'x/y'"),
        (None, "expected a rational, got NoneType"),
        (1.5, 'floats are not accepted; write rationals as "p/q" strings'),
    ], ids=["bool", "junk", "None", "float"])
    def test_rejected_values(self, build, value, message):
        with pytest.raises(InputError) as exc:
            build(value)
        assert str(exc.value) == message

    def test_accepted_forms(self):
        assert [as_fraction(x) for x in (3, "-3", "5/3", "1.5", "1e3")] == \
            [3, -3, Fraction(5, 3), Fraction(3, 2), 1000]

    # at the default limit of 4300 digits: 10**4299 has 4300 digits and
    # 1.5e-4299 is 3 / (2 * 10**4299), whose denominator has 4300
    @pytest.mark.parametrize("text, value", [
        ("1e4299", Fraction(10 ** 4299)),
        ("-1.5e-4299", Fraction(-3, 2 * 10 ** 4299)),
    ])
    def test_exponents_at_the_digit_limit_are_accepted(self, text, value):
        assert str(as_fraction(text)) == str(value)  # and it can be printed

    @pytest.mark.parametrize("text", ["1e4300", "1.5e-4300", "1e5000", "-1.5e-5000",
                                      "1e1000000", "1" * 3000 + "." + "1" * 3000],
                             ids=lambda text: text if len(text) < 20 else "long decimal")
    def test_values_past_the_digit_limit_are_located(self, text):
        with pytest.raises(InputError) as exc:
            as_fraction(text, "here")
        assert str(exc.value) == f"past the 4300-digit limit: {text!r}"
        assert exc.value.location == "here"


class TestExamples:
    def test_reduced_command(self, capsys):
        code, payload = run_json(
            capsys, "sys", "reduced", "--graph", C6,
            "--system", "triangle_mid", "--at", '{"vertex":"v1"}')
        assert code == 0
        assert payload["reduced"] == [
            [{"vertex": "v1"}, "1"],
            [{"vertex": "v2"}, "1"],
            [{"vertex": "v3"}, "1"],
        ]

    def test_non_dominant_report(self, capsys):
        code, payload = run_json(
            capsys, "tree", "dominant", "--graph", BANANA,
            "--system", "seg_E1_E3")
        assert code == 1
        assert payload["reason"] == "support misses component banana-2"

    def test_lower_projection(self, capsys):
        code, payload = run_json(
            capsys, "tp", "project", "--space", TP3,
            "--generators", "rect", "--point", '["0","0","0"]',
            "--mode", "lower")
        assert code == 0
        assert payload["projection"] == ["0", "1", "0"]


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("graph", "validate", C6),
        ("sys", "reduced", "--graph", C6, "--system", "triangle_mid",
         "--at", '{"vertex":"v1"}'),
        ("tree", "harmonize", "--graph", C6, "--system", "triangle_mid"),
        ("tp", "project", "--space", TP3, "--generators", "rect",
         "--point", '["0","0","0"]'),
    ])
    def test_repeat_runs_are_byte_identical(self, capsys, argv):
        code1, out1 = run(capsys, *argv)
        code2, out2 = run(capsys, *argv)
        assert (code1, out1) == (code2, out2)
        assert out1.endswith("\n")

    def test_sorted_keys(self, capsys):
        _, out = run(capsys, "graph", "validate", C6)
        payload = json.loads(out)
        assert list(payload) == sorted(payload)


class TestPredicateExitCodes:
    def test_member_true_false(self, capsys):
        code, _ = run_json(capsys, "sys", "member", "--graph", C6,
                           "--system", "triangle_bad", "--divisor", "D0")
        assert code == 0
        code, payload = run_json(capsys, "sys", "member", "--graph", C6,
                                 "--system", "triangle_bad",
                                 "--divisor", "D23")
        assert code == 1
        assert payload["member"] is False
        assert payload["certificate"]["uncovered"]
        code, payload = run_json(capsys, "sys", "member", "--graph", C6, "--system", "complete",
                                 "--divisor", '[[{"vertex":"v1"},"3/2"],[{"vertex":"v2"},"3/2"]]')
        assert code == 1
        assert payload["certificate"]["reason"] == "coefficients are not integers"

    def test_tree_check_codes(self, capsys):
        code, _ = run_json(capsys, "tree", "check", "--graph", C6,
                           "--system", "triangle_mid")
        assert code == 0
        code, _ = run_json(capsys, "tree", "check", "--graph", C6,
                           "--system", "triangle_bad")
        assert code == 1

    def test_tp_member_codes(self, capsys):
        code, _ = run_json(capsys, "tp", "member", "--space", TP3,
                           "--generators", "rect", "--point", "B")
        assert code == 0
        code, _ = run_json(capsys, "tp", "member", "--space", TP3,
                           "--generators", "rect", "--point",
                           '["0","0","10"]')
        assert code == 1

    def test_independence_codes(self, capsys):
        code, payload = run_json(capsys, "tp", "independence", "--space", TP3,
                                 "--generators", "rect", "--kind", "weak")
        assert code == 1
        assert payload["status"] == "dependent"

    @pytest.mark.parametrize("kind, rows, code", [
        ("gondran_minoux", [[0 if i == x else 10 for x in range(30)] for i in range(30)], 2),
        ("tropical", [[(3 * i + 5 * x) % 7 for x in range(7)] for i in range(5)], 2),
        ("tropical", [[(7 * i * x + i + 2 * x) % 11 for x in range(6)] for i in range(9)], 1),
    ], ids=["gm-past-its-round-limit", "tropical-refused", "tropical-decided"])
    def test_oversized_independence_checks_are_decided_or_refused(self, tmp_path, capsys,
                                                                  kind, rows, code):
        """Past its limit a check is refused at the generators, unless a
        tropical check finds a Gondran-Minoux meeting to decide it."""
        ws = tmp_path / "big.json"
        ws.write_text(json.dumps({
            "schema_version": 1, "ground": [f"x{x}" for x in range(len(rows[0]))],
            "points": {f"P{i}": [str(c) for c in r] for i, r in enumerate(rows)},
            "sets": {"S": [f"P{i}" for i in range(len(rows))]}}))
        exit_code = main(["tp", "independence", "--space", str(ws), "--generators", "S",
                          "--kind", kind])
        out, err = capsys.readouterr()
        assert exit_code == code
        payload = json.loads(out)
        if code == 2:
            assert payload["location"] == "generators"
        else:
            assert payload["status"] == "dependent"
        assert err == ""

    def test_equiv_codes(self, capsys):
        code, _ = run_json(capsys, "div", "equiv", "--graph", C6,
                           "--divisor", "D1", "--divisor", "D3")
        assert code == 0
        code, _ = run_json(
            capsys, "div", "equiv", "--graph", C6, "--divisor", "D1",
            "--divisor", '[[{"vertex":"w12"},"3"]]')
        assert code == 1

    def test_equiv_of_unequal_degrees_is_an_input_error(self, capsys):
        code, payload = run_json(
            capsys, "div", "equiv", "--graph", C6, "--divisor", "D1",
            "--divisor", '[[{"vertex":"v1"},"2"]]')
        assert code == 2
        assert payload["message"] == "divisors must have equal degree"

    def test_certificate_failures_exit_3(self, capsys, monkeypatch):
        import tropkit

        def failing(system):
            raise CertificateError("probe", {"k": "v"})

        # handlers read library names from the package at call time
        monkeypatch.setattr(tropkit, "tt_is_tree", failing)
        code = main(["tree", "check", "--graph", C6, "--system", "triangle_mid"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == dumps_canonical({"code": "certificate-failure", "message": "probe",
                                       "detail": {"k": "v"}})
        assert err == ""

    def test_witness_codes(self, capsys):
        code, _ = run_json(capsys, "tree", "witness", "--graph", BANANA,
                           "--system", "witness4", "--degree", "4")
        assert code == 0
        code, _ = run_json(capsys, "tree", "witness", "--graph", BANANA,
                           "--system", "seg_E1_E3", "--degree", "3")
        assert code == 1


class TestComputedPayloads:
    def test_div_rho_and_b1(self, capsys):
        code, payload = run_json(capsys, "div", "rho", "--graph", C6,
                                 "--divisor", "D1", "--divisor", "D3")
        assert code == 0 and payload["rho"] == "4"
        code, payload = run_json(capsys, "div", "b1", "--graph", C6,
                                 "--divisor", "D3", "--divisor", "D1")
        assert code == 0 and payload["b1"] == "12"

    def test_div_path_midpoint(self, capsys):
        code, payload = run_json(capsys, "div", "path", "--graph", C6,
                                 "--divisor", "D1", "--divisor", "D3",
                                 "--t", "2")
        assert code == 0
        assert payload["divisor"] == [
            [{"vertex": "v2"}, "1"], [{"vertex": "w13"}, "2"],
        ]

    def test_div_reduce_trace(self, capsys):
        code, payload = run_json(capsys, "div", "reduce", "--graph", C6,
                                 "--divisor", "D13",
                                 "--at", '{"vertex":"v1"}')
        assert code == 0
        assert payload["reduced"] == [[{"vertex": "v1"}, "3"]]
        assert payload["rounds"] == 2
        assert len(payload["steps"]) == 2

    def test_sys_extremals_names(self, capsys):
        code, payload = run_json(capsys, "sys", "extremals", "--graph", C6,
                                 "--system", "triangle_mid")
        assert code == 0
        assert sorted(payload["extremals"]) == ["D12", "D13", "D23"]

    @pytest.mark.parametrize("mode", ["lower", "upper"])
    def test_tp_extremals_of_two_names_for_one_point(self, tmp_path, capsys, mode):
        data = json.loads((FIXTURES / "tp3.json").read_text())
        data["points"]["A2"] = data["points"]["A"]
        data["sets"]["twins"] = ["A", "A2"]
        space = tmp_path / "twins.json"
        space.write_text(json.dumps(data))
        code, payload = run_json(capsys, "tp", "extremals", "--space", str(space),
                                 "--generators", "twins", "--mode", mode)
        assert code == 0
        assert payload == {"extremals": ["A"], "mode": mode, "points": [["0", "4", "1"]]}

    @pytest.mark.parametrize("names", [["D1", "D1"], ["D1", "E1"]])
    def test_sys_extremals_of_one_repeated_divisor(self, tmp_path, capsys, names):
        data = json.loads((FIXTURES / "c6.json").read_text())
        data["divisors"]["E1"] = data["divisors"]["D1"]
        data["systems"]["twins"] = names
        graph = tmp_path / "twins.json"
        graph.write_text(json.dumps(data))
        code, payload = run_json(capsys, "sys", "extremals", "--graph", str(graph),
                                 "--system", "twins")
        assert code == 0
        assert payload == {"divisors": [[[{"vertex": "v1"}, "3"]]], "extremals": ["D1"]}

    def test_tree_preimage_points(self, capsys):
        code, payload = run_json(capsys, "tree", "preimage", "--graph", C6,
                                 "--system", "triangle_mid",
                                 "--divisor", "D0")
        assert code == 0
        assert payload["points"] == [{"vertex": "v1"}, {"vertex": "v2"},
                                     {"vertex": "v3"}]

    def test_tp_norm(self, capsys):
        code, payload = run_json(capsys, "tp", "norm", "--space", TP3,
                                 "--point", "A", "--p", "1")
        assert code == 0
        assert payload["norm"] == "4"
        assert payload["pseudonorm"]["value"] == "5/3"


class TestFormats:
    def test_redmap_csv(self, capsys):
        code, out = run(capsys, "tree", "redmap", "--graph", C6,
                        "--system", "triangle_mid", "--samples", "1",
                        "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["point_id", "edge", "offset", "image_divisor"]
        assert len(rows) == 1 + 6 + 6
        by_id = {r[0]: r for r in rows[1:]}
        assert by_id["v1"][1] == "" and by_id["v1"][2] == ""
        assert by_id["e1@1/2"][1] == "e1" and by_id["e1@1/2"][2] == "1/2"
        for r in rows[1:]:
            image = json.loads(r[3])
            assert sum(int(c) for _, c in image) == 3

    def test_morphism_dot(self, capsys):
        code, out = run(capsys, "tree", "morphism", "--graph", C6,
                        "--system", "seg_D1_D3", "--format", "dot")
        assert code == 0
        assert out.startswith("graph skeleton {")
        assert out.rstrip().endswith("}")
        assert out.count(" -- ") == 4
        assert 'label="3(v1)"' in out
        assert "expansion 1,2" in out

    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out = run(capsys, "graph", "validate", C6,
                        "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["valid"] is True


# a value for every flag in cli._FLAGS, to build each command's valid argv
FLAG_VALUES = {"file": "w.json", "--space": "w.json", "--graph": "w.json", "--generators": "S",
               "--system": "T", "--mode": "upper", "--point": "P", "--kind": "tropical",
               "--p": "inf", "--divisor": "D", "--t": "1/2", "--at": '{"vertex":"v1"}',
               "--samples": "2", "--degree": "2"}


def _valid_argv(group: str, action: str) -> list[str]:
    _, group_flags, actions = cli._COMMANDS[group]
    argv = [group, action]
    for flag in group_flags + actions[action][1]:
        argv += [FLAG_VALUES[flag]] if flag == "file" else [flag, FLAG_VALUES[flag]]
    return argv


COMMANDS = [(group, action) for group, (_, _, actions) in cli._COMMANDS.items()
            for action in actions]
COMMAND_IDS = [" ".join(command) for command in COMMANDS]


class TestParser:
    """The parser build_parser narrows to the invoked command parses every
    command line as the full parser does, and fails with the same exit code,
    usage line and message."""

    @staticmethod
    def _parse(capsys, parser, argv):
        try:
            return parser.parse_args(argv)
        except SystemExit as exc:
            out = capsys.readouterr()
            return exc.code, out.out, out.err

    @pytest.mark.parametrize("case", ["valid", "missing required", "bad choice",
                                      "unknown flag", "help"])
    @pytest.mark.parametrize("group, action", COMMANDS, ids=COMMAND_IDS)
    def test_narrowed_parser_matches_the_full_one(self, capsys, group, action, case):
        argv = _valid_argv(group, action)
        argv = {"valid": argv,
                "missing required": argv[:2] + argv[3 if group == "graph" else 4:],
                "bad choice": argv + ["--format", "xml"],
                "unknown flag": argv + ["--bogus", "1"],
                "help": argv + ["--help"]}[case]
        narrowed = self._parse(capsys, cli.build_parser(argv), argv)
        full = self._parse(capsys, cli.build_parser(), argv)
        assert narrowed == full
        if case == "valid":
            assert vars(full)["handler"] is cli._COMMANDS[group][2][action][2]
        else:
            code, out, err = full
            assert code == (0 if case == "help" else 2)
            usage = "[-h] {graph,tp,div,sys,tree} ..." if case == "unknown flag" \
                else f"{group} {action} [-h]"
            assert (out + err).startswith(f"usage: tropkit {usage}")

    @pytest.mark.parametrize("group, action", COMMANDS, ids=COMMAND_IDS)
    def test_narrowed_parser_knows_only_its_command(self, capsys, group, action):
        other = _valid_argv(*COMMANDS[COMMANDS.index((group, action)) - 1])
        code, _, err = self._parse(capsys, cli.build_parser(_valid_argv(group, action)), other)
        assert code == 2 and "invalid choice" in err
