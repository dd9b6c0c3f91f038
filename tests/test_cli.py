import json

import pytest

from probe_chroma.cli import (
    EXIT_CAPABILITY,
    EXIT_COLOURABLE,
    EXIT_INPUT_ERROR,
    EXIT_NOT_COLOURABLE,
    EXIT_NOT_PROBE,
    emit_result,
    format_instance,
    main,
    parse_instance,
)
from probe_chroma.errors import InstanceParseError
from probe_chroma.generators import gen_probe_instance
from probe_chroma.graphs import cycle_graph, validate_probe_instance
from probe_chroma.solver import solve_3col

C5_TEXT = """\
# tiny example
probe-graph 5
v 0 P
v 1 P
v 2 P
v 3 P
v 4 P
e 0 1
e 1 2
e 2 3
e 3 4
e 4 0
"""

P3_TEXT = "probe-graph 3\nv 0 P\nv 1 P\nv 2 P\ne 0 1\ne 1 2\n"

C7_TEXT = "probe-graph 7\n" + "".join(
    f"v {i} P\n" for i in range(7)
) + "".join(f"e {i} {(i + 1) % 7}\n" for i in range(7))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParse:
    def test_round_trip(self):
        inst = parse_instance(C5_TEXT)
        assert inst.graph == cycle_graph(5)
        assert inst.nonprobes == frozenset()
        again = parse_instance(format_instance(inst))
        assert again.graph == inst.graph and again.probes == inst.probes

    def test_roles_and_comments(self):
        text = "# c\nprobe-graph 2\nv 0 P\nv 1 N\ne 0 1\n"
        inst = parse_instance(text)
        assert inst.nonprobes == frozenset({1})

    @pytest.mark.parametrize(
        "text,line",
        [
            ("graph 3\n", 1),
            ("probe-graph x\n", 1),
            ("probe-graph 2\nv 0 Q\n", 2),
            ("probe-graph 2\nv 5 P\n", 2),
            ("probe-graph 2\nv 0 P\nv 0 N\n", 3),
            ("probe-graph 2\nv 0 P\nv 1 P\ne 0 0\n", 4),
            ("probe-graph 2\nv 0 P\nv 1 P\ne 0 9\n", 4),
            ("probe-graph 2\nv 0 P\nv 1 P\nx 1 2\n", 4),
            ("probe-graph 2\nv 0 P\n", 2),
            ("", 1),
        ],
    )
    def test_error_lines(self, text, line):
        with pytest.raises(InstanceParseError) as e:
            parse_instance(text)
        assert e.value.line == line

    def test_format_emits_comments(self):
        inst = parse_instance(C5_TEXT)
        out = format_instance(inst, ["alpha", "beta 7"])
        assert out.startswith("# alpha\n# beta 7\nprobe-graph 5\n")


class TestEmit:
    def test_colourable_payload(self):
        inst = parse_instance(C5_TEXT)
        obj = json.loads(emit_result(solve_3col(inst)))
        assert obj["status"] == "colourable"
        assert len(obj["colouring"]) == 5
        assert set(obj["stats"]) == {"branches", "two_sat_calls", "time_ms"}
        assert "diagnostic" not in obj

    def test_uncolourable_omits_colouring(self):
        text = "probe-graph 4\n" + "".join(f"v {i} P\n" for i in range(4)) + "".join(
            f"e {u} {v}\n" for u in range(4) for v in range(u + 1, 4)
        )
        obj = json.loads(emit_result(solve_3col(parse_instance(text))))
        assert obj["status"] == "not_colourable"
        assert "colouring" not in obj


class TestSolveCommand:
    def test_colourable_exit(self, tmp_path, capsys):
        rc = main(["solve", write(tmp_path, "c5.txt", C5_TEXT)])
        out = json.loads(capsys.readouterr().out)
        assert rc == EXIT_COLOURABLE
        assert out["status"] == "colourable"

    def test_not_probe_exit(self, tmp_path, capsys):
        rc = main(["solve", write(tmp_path, "c7.txt", C7_TEXT)])
        out = json.loads(capsys.readouterr().out)
        assert rc == EXIT_NOT_PROBE
        assert out["diagnostic"]["claim"] == "long-induced-odd-cycle"

    def test_fallback_oracle(self, tmp_path, capsys):
        rc = main(["solve", "--fallback-oracle", write(tmp_path, "c7.txt", C7_TEXT)])
        assert rc == EXIT_COLOURABLE
        assert json.loads(capsys.readouterr().out)["status"] == "colourable"

    def test_not_colourable_exit(self, tmp_path, capsys):
        text = "probe-graph 4\n" + "".join(f"v {i} P\n" for i in range(4)) + "".join(
            f"e {u} {v}\n" for u in range(4) for v in range(u + 1, 4)
        )
        rc = main(["solve", write(tmp_path, "k4.txt", text)])
        capsys.readouterr()
        assert rc == EXIT_NOT_COLOURABLE

    def test_parse_error_reports_line(self, tmp_path, capsys):
        rc = main(["solve", write(tmp_path, "bad.txt", "probe-graph 2\nv 0 Q\n")])
        out = json.loads(capsys.readouterr().out)
        assert rc == EXIT_INPUT_ERROR
        assert out["status"] == "error"
        assert out["diagnostic"]["kind"] == "parse"
        assert out["diagnostic"]["line"] == 2

    def test_dependent_nonprobes_rejected(self, tmp_path, capsys):
        text = "probe-graph 2\nv 0 N\nv 1 N\ne 0 1\n"
        rc = main(["solve", write(tmp_path, "dep.txt", text)])
        out = json.loads(capsys.readouterr().out)
        assert rc == EXIT_INPUT_ERROR
        assert out["diagnostic"]["kind"] == "input"

    def test_unknown_flag_exits_three(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["solve", "--frobnicate"])
        capsys.readouterr()
        assert e.value.code == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("command", [["solve"], ["solve-p3sp1", "--s", "1"]])
    def test_seed_flag_is_gone(self, command, tmp_path, capsys):
        # the solvers draw no random numbers; only gen takes a seed
        with pytest.raises(SystemExit) as e:
            main(command + ["--seed", "7", write(tmp_path, "c5.txt", C5_TEXT)])
        capsys.readouterr()
        assert e.value.code == EXIT_INPUT_ERROR


class TestVerifyCommand:
    def test_pipe_from_solve(self, tmp_path, capsys):
        inst_path = write(tmp_path, "c5.txt", C5_TEXT)
        main(["solve", inst_path])
        solved = capsys.readouterr().out
        rc = main(["verify", write(tmp_path, "out.json", solved), inst_path])
        out = json.loads(capsys.readouterr().out)
        assert rc == EXIT_COLOURABLE
        assert out == {"ok": True, "violation": None}

    def test_bare_array_with_violation(self, tmp_path, capsys):
        inst_path = write(tmp_path, "c5.txt", C5_TEXT)
        bad = write(tmp_path, "bad.json", "[1, 2, 1, 2, 1]")
        rc = main(["verify", bad, inst_path])
        out = json.loads(capsys.readouterr().out)
        assert rc == EXIT_NOT_COLOURABLE
        assert out["ok"] is False
        assert out["violation"] == ["edge", [0, 4]]

    def test_json_without_array(self, tmp_path, capsys):
        inst_path = write(tmp_path, "c5.txt", C5_TEXT)
        rc = main(["verify", write(tmp_path, "x.json", '{"status": "x"}'), inst_path])
        capsys.readouterr()
        assert rc == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("colouring", [
        "[1, 2, 1, 3]", "[1, 2]", "[1.5, 2, 1]", '["a", 2, 1]', "[true, 2, 1]",
    ])
    def test_wrong_length_or_non_integer_is_an_input_error(
            self, tmp_path, capsys, colouring):
        inst_path = write(tmp_path, "p3.txt", P3_TEXT)
        rc = main(["verify", write(tmp_path, "c.json", colouring), inst_path])
        out = json.loads(capsys.readouterr().out)
        assert rc == EXIT_INPUT_ERROR
        assert out["diagnostic"]["kind"] == "input"

    def test_integer_out_of_range_is_a_violation(self, tmp_path, capsys):
        inst_path = write(tmp_path, "p3.txt", P3_TEXT)
        rc = main(["verify", write(tmp_path, "c.json", "[1, 2, 4]"), inst_path])
        out = json.loads(capsys.readouterr().out)
        assert rc == EXIT_NOT_COLOURABLE
        assert out == {"ok": False, "violation": ["range", 2]}


class TestGenCommand:
    @pytest.mark.parametrize(
        "family", ["probe-p5", "path-split", "pentagon", "split-pure", "union"]
    )
    def test_output_reparses(self, family, capsys):
        rc = main(["gen", "--family", family, "--n", "12", "--seed", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        inst = parse_instance(out)
        assert inst.graph.n >= 12
        assert "# family" in out and "# seed 5" in out

    def test_gen_then_solve(self, tmp_path, capsys):
        main(["gen", "--family", "pentagon", "--n", "10", "--seed", "1"])
        text = capsys.readouterr().out
        rc = main(["solve", write(tmp_path, "g.txt", text)])
        capsys.readouterr()
        assert rc == EXIT_COLOURABLE

    def test_p3sp1_family_uses_s(self, capsys):
        rc = main(["gen", "--family", "probe-p3sp1", "--n", "9", "--s", "2",
                   "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        parse_instance(out)

    def test_trianglefree_family(self, capsys):
        rc = main(["gen", "--family", "trianglefree-probe-p5", "--n", "14",
                   "--seed", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        inst = parse_instance(out)
        from probe_chroma.graphs import find_induced_subgraph, pattern_graph
        assert find_induced_subgraph(inst.graph, pattern_graph("c3")) is None

    def test_bad_family_exits_three(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["gen", "--family", "nope", "--n", "8"])
        capsys.readouterr()
        assert e.value.code == EXIT_INPUT_ERROR


class TestRecognizeCommand:
    def test_seven_cycle_not_probe_p5(self, tmp_path, capsys):
        rc = main(["recognize", "--pattern", "p5",
                   write(tmp_path, "c7.txt", C7_TEXT)])
        out = json.loads(capsys.readouterr().out)
        assert rc == EXIT_NOT_PROBE
        assert out == {"probe_free": False, "pattern": "p5"}

    def test_seven_cycle_probe_p6(self, tmp_path, capsys):
        rc = main(["recognize", "--pattern", "p6",
                   write(tmp_path, "c7.txt", C7_TEXT)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["probe_free"] is True
        assert out["nonprobes"] and out["fill_edges"]

    def test_fixed_partition(self, tmp_path, capsys):
        text = "probe-graph 8\n" + "".join(
            f"v {i} {'P' if i % 2 == 0 else 'N'}\n" for i in range(8)
        ) + "".join(f"e {i} {(i + 1) % 8}\n" for i in range(8))
        rc = main(["recognize", "--pattern", "2p2", "--fixed-partition",
                   write(tmp_path, "c8.txt", text)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["nonprobes"] == [1, 3, 5, 7]

    def test_order_cap_exits_four(self, tmp_path, capsys):
        big = "probe-graph 15\n" + "".join(f"v {i} P\n" for i in range(15))
        rc = main(["recognize", "--pattern", "p5",
                   write(tmp_path, "big.txt", big)])
        out = json.loads(capsys.readouterr().out)
        assert rc == EXIT_CAPABILITY
        assert out["diagnostic"]["kind"] == "capability"


class TestReduceCommand:
    def test_x3c_roundtrip(self, tmp_path, capsys):
        payload = {
            "universe": [1, 2, 3, 4, 5, 6],
            "collection": [[1, 2, 3], [2, 3, 5], [4, 5, 6]],
        }
        rc = main(["reduce", "x3c",
                   write(tmp_path, "x.json", json.dumps(payload))])
        out = capsys.readouterr().out
        assert rc == 0
        assert "# target-s 3" in out
        inst = parse_instance(out)
        assert inst.nonprobes == frozenset(range(6))

    def test_precol_roundtrip(self, tmp_path, capsys):
        payload = {
            "n": 6,
            "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]],
            "side_a": [0, 2, 4],
            "side_b": [1, 3, 5],
            "marked": [0, 2, 4],
        }
        rc = main(["reduce", "precol",
                   write(tmp_path, "p.json", json.dumps(payload))])
        out = capsys.readouterr().out
        assert rc == 0
        inst = parse_instance(out)
        assert inst.graph.has_edge(0, 2) and inst.graph.has_edge(0, 4)

    def test_malformed_json_exits_three(self, tmp_path, capsys):
        rc = main(["reduce", "x3c", write(tmp_path, "bad.json", "{nope")])
        capsys.readouterr()
        assert rc == EXIT_INPUT_ERROR

    def test_bad_precol_marked_exits_three(self, tmp_path, capsys):
        payload = {"n": 4, "edges": [[0, 2], [1, 3]], "side_a": [0, 1],
                   "side_b": [2, 3], "marked": [0, 0, 1]}
        rc = main(["reduce", "precol",
                   write(tmp_path, "p.json", json.dumps(payload))])
        capsys.readouterr()
        assert rc == EXIT_INPUT_ERROR


class TestSolveP3sp1Command:
    def test_path_instance(self, tmp_path, capsys):
        text = "probe-graph 4\n" + "".join(f"v {i} P\n" for i in range(4)) \
            + "e 0 1\ne 1 2\ne 2 3\n"
        rc = main(["solve-p3sp1", "--s", "1", write(tmp_path, "p4.txt", text)])
        out = json.loads(capsys.readouterr().out)
        assert rc == EXIT_COLOURABLE
        assert out["status"] == "colourable"

    def test_probe_violation_exit(self, tmp_path, capsys):
        text = "probe-graph 6\n" + "".join(f"v {i} P\n" for i in range(6)) \
            + "".join(f"e {i} {i + 1}\n" for i in range(5))
        rc = main(["solve-p3sp1", "--s", "1", write(tmp_path, "p6.txt", text)])
        out = json.loads(capsys.readouterr().out)
        assert rc == EXIT_NOT_PROBE
        assert out["diagnostic"]["claim"] == "induced-pattern-among-probes"

    def test_negative_s_is_an_input_error(self, tmp_path, capsys):
        text = "probe-graph 4\n" + "".join(f"v {i} P\n" for i in range(4)) \
            + "e 0 1\ne 1 2\ne 2 3\n"
        rc = main(["solve-p3sp1", "--s", "-1", write(tmp_path, "p4.txt", text)])
        out = json.loads(capsys.readouterr().out)
        assert rc == EXIT_INPUT_ERROR
        assert out["diagnostic"]["kind"] == "input"


class TestSeedEnv:
    def test_solve_ignores_the_env_seed(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "c5.txt", C5_TEXT)
        main(["solve", path])
        plain = json.loads(capsys.readouterr().out)
        monkeypatch.setenv("PROBE_CHROMA_SEED", "42")
        main(["solve", path])
        seeded = json.loads(capsys.readouterr().out)
        assert "seed" not in seeded["stats"]
        assert seeded["colouring"] == plain["colouring"]

    def test_gen_determinism_through_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PROBE_CHROMA_SEED", "13")
        main(["gen", "--family", "probe-p5", "--n", "10"])
        first = capsys.readouterr().out
        main(["gen", "--family", "probe-p5", "--n", "10"])
        second = capsys.readouterr().out
        assert first == second and "# seed 13" in first
