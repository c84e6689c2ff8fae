import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from docalc import fileio
from docalc.cli import main, parse_query
from docalc.dcn import trajectory
from docalc.errors import InvalidInputError
from docalc.graphs import Admg, Var
from docalc.scm import random_scm
from conftest import T1_ROWS, T2_ROWS


@pytest.fixture
def chain_graph_file(tmp_path):
    g = Admg([Var("X"), Var("Z"), Var("Y")], [("X", "Z"), ("Z", "Y")])
    path = tmp_path / "chain.json"
    fileio.save_graph(g, path)
    return path


@pytest.fixture
def fig32_files(tmp_path, fig32_trio):
    g1, g2, g3 = fig32_trio
    for name, g in [("g1", g1), ("g2", g2), ("g3", g3)]:
        fileio.save_graph(g, tmp_path / f"{name}.json")
    (tmp_path / "candidates.json").write_text(json.dumps(
        {"graphs": ["g1.json", "g2.json", "g3.json"]}), encoding="utf-8")
    m = random_scm(np.random.default_rng(0), g3)
    (tmp_path / "model.json").write_text(
        fileio.canonical_json(fileio.model_to_dict(m)), encoding="utf-8")
    return tmp_path


def _traffic_matrix(rows):
    return {"state_vars": [{"name": "tr1"}, {"name": "tr2"}, {"name": "d"}],
            "orientation": "row",
            "entries": [[float(x) for x in row] for row in rows]}


TRAFFIC_SPEC = {
    "slice_vars": [{"name": "tr1"}, {"name": "tr2"}, {"name": "d"}],
    "intra_edges": [["tr1", "d"], ["tr2", "d"]],
    "cross_edges": [["d", "tr1", 1], ["d", "tr2", 1]],
    "intra_confounders": [["tr1", "tr2"]],
    "schedule": {
        "matrices": {"T1": _traffic_matrix(T1_ROWS), "T2": _traffic_matrix(T2_ROWS)},
        # transitions into each weekday; entries t -> t+1 with
        # Saturday and Sunday reached via T2
        "pattern": ["T1", "T1", "T1", "T1", "T2", "T2", "T1"],
    },
}


@pytest.fixture
def traffic_spec_file(tmp_path):
    path = tmp_path / "traffic.json"
    path.write_text(json.dumps(TRAFFIC_SPEC), encoding="utf-8")
    return path


class TestQueryGrammar:
    def test_static(self):
        outcomes, targets = parse_query("P(Z|do(X,Y))")
        assert outcomes == [("Z", None)]
        assert targets == {("X", None): 0, ("Y", None): 0}

    def test_timed_values(self):
        outcomes, targets = parse_query("P(d@8|do(tr1@3=1))")
        assert outcomes == [("d", 8)]
        assert targets == {("tr1", 3): 1}

    def test_rejects_garbage(self):
        with pytest.raises(InvalidInputError):
            parse_query("expected value of Z")


class TestIdentifyCommand:
    def test_chain_prints_expression(self, chain_graph_file, capsys):
        code = main(["identify", "--graph", str(chain_graph_file),
                     "--query", "P(Z|do(X))"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "P(Z|X)"

    def test_hedge_exit_code(self, tmp_path, fig32_trio, capsys):
        fileio.save_graph(fig32_trio[2], tmp_path / "g3.json")
        code = main(["identify", "--graph", str(tmp_path / "g3.json"),
                     "--query", "P(X4|do(X1))"])
        assert code == 2
        assert "hedge" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        code = main(["identify", "--graph", str(tmp_path / "nope.json"),
                     "--query", "P(Z|do(X))"])
        assert code == 1

    def test_double_dash_query_is_input_error(self, chain_graph_file, capsys):
        # argparse hands "--query=--" over as an empty list
        code = main(["identify", "--graph", str(chain_graph_file), "--query=--"])
        assert code == 1
        assert "--query needs a value" in capsys.readouterr().err

    @pytest.mark.parametrize("query", ["P(Z|do(X@3))", "P(Z@4|do(X))", "P(Z@4|do(X@3=1))"])
    def test_timed_query_rejected(self, chain_graph_file, capsys, query):
        code = main(["identify", "--graph", str(chain_graph_file), "--query", query])
        assert code == 1
        out = capsys.readouterr().out
        assert "docalc dcn" in out and "P(Z|X)" not in out


class TestDsepCommand:
    def test_blocked_chain(self, chain_graph_file, capsys):
        code = main(["dsep", "--graph", str(chain_graph_file),
                     "--x", "X", "--y", "Y", "--z", "Z"])
        assert code == 0
        assert "d-separated" in capsys.readouterr().out


class TestDiscoverCommand:
    def test_end_to_end_and_determinism(self, fig32_files, capsys):
        out1 = fig32_files / "report1.json"
        out2 = fig32_files / "report2.json"
        for out in (out1, out2):
            code = main(["discover",
                         "--candidates", str(fig32_files / "candidates.json"),
                         "--model", str(fig32_files / "model.json"),
                         "--out", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["bound_satisfied"]
        assert report["final_graph"]["confounders"] == [["X1", "X2"], ["X1", "X3"]]

    def test_costs_file_sets_total_cost(self, fig32_files):
        weights = {"intervention": {"X1": 5.0}, "observation": {"X4": 3.0},
                   "default_intervention": 2.0, "default_observation": 0.25}
        (fig32_files / "costs.json").write_text(json.dumps(weights), encoding="utf-8")
        out = fig32_files / "report.json"
        code = main(["discover", "--candidates", str(fig32_files / "candidates.json"),
                     "--model", str(fig32_files / "model.json"),
                     "--costs", str(fig32_files / "costs.json"), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        # under unit costs discovery does (X1=0 -> X3) for 2.0; with X1
        # made dear, the cheapest splitting experiment is (X2=0 -> X3)
        assert [it["intervention"] for it in report["iterations"]] == ["({X2=0} -> {X3})"]
        assert report["ci_tests"] == []
        assert report["total_cost"] == 2.0 + 0.25

    @pytest.mark.parametrize("costs,expected", [
        ({"default_intervention": "x"}, "default_intervention must be a number"),
        ({"default_observation": [1]}, "default_observation must be a number"),
        ({"observation": {"X4": "dear"}}, "observation weight of 'X4'"),
        ({"intervention": [5.0]}, "intervention must be an object"),
        ({"default_intervention": "nan"}, "default_intervention must be a finite number"),
        ({"default_observation": -1}, "default_observation must be a finite number"),
        ({"intervention": {"X1": "inf"}}, "intervention weight of 'X1' must be a finite"),
        ({"observation": {"X4": -5}}, "observation weight of 'X4' must be a finite"),
    ])
    def test_malformed_costs_file(self, fig32_files, capsys, costs, expected):
        (fig32_files / "costs.json").write_text(json.dumps(costs), encoding="utf-8")
        code = main(["discover", "--candidates", str(fig32_files / "candidates.json"),
                     "--model", str(fig32_files / "model.json"),
                     "--costs", str(fig32_files / "costs.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("input error:") and expected in err

    @pytest.mark.parametrize("caps,expected", [
        ("a", "--caps takes two bounds"),
        ("1,2,3", "--caps takes two bounds"),
        ("", "--caps takes two bounds"),
        ("2,x", "--caps bound must be an integer"),
        ("1.5,2", "--caps bound must be an integer"),
        ("0,2", "max_targets must be an integer >= 1"),
        ("2,-1", "max_observed must be an integer >= 1"),
    ])
    def test_malformed_caps(self, fig32_files, capsys, caps, expected):
        code = main(["discover", "--candidates", str(fig32_files / "candidates.json"),
                     "--model", str(fig32_files / "model.json"), f"--caps={caps}"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("input error:") and expected in err

    def test_promise_violation_exit(self, tmp_path, capsys):
        variables = [Var("X"), Var("Z")]
        bow = Admg(variables, [("X", "Z")], [("X", "Z")])
        plain = Admg(variables, [("X", "Z")])
        isolated = Admg(variables)
        fileio.save_graph(plain, tmp_path / "a.json")
        fileio.save_graph(isolated, tmp_path / "b.json")
        (tmp_path / "cands.json").write_text(
            json.dumps({"graphs": ["a.json", "b.json"]}), encoding="utf-8")
        m = random_scm(np.random.default_rng(3), bow)
        (tmp_path / "truth.json").write_text(
            fileio.canonical_json(fileio.model_to_dict(m)), encoding="utf-8")
        code = main(["discover", "--candidates", str(tmp_path / "cands.json"),
                     "--model", str(tmp_path / "truth.json")])
        assert code == 3


class TestDcnCommand:
    def test_trajectory_csv_and_determinism(self, traffic_spec_file, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            code = main(["dcn", "--spec", str(traffic_spec_file),
                         "--query", "P(d@13|do(tr1@3=0))",
                         "--horizon", "13", "--out", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().splitlines()
        assert lines[0] == "t,P(tr1=1),P(tr2=1),P(d=1)"
        assert len(lines) == 15

    def test_horizon_zero_single_row(self, traffic_spec_file, tmp_path):
        out = tmp_path / "one.csv"
        code = main(["dcn", "--spec", str(traffic_spec_file),
                     "--horizon", "0", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 2

    def test_matrix_file_replaces_schedule(self, traffic_spec_file, tmp_path, traffic):
        spec, _t1, t2, _ts = traffic
        matrix = tmp_path / "t2.json"
        matrix.write_text(json.dumps({
            "state_vars": [{"name": "tr1"}, {"name": "tr2"}, {"name": "d"}],
            "entries": [[float(x) for x in row] for row in T2_ROWS],
        }), encoding="utf-8")
        out = tmp_path / "t2.csv"
        code = main(["dcn", "--spec", str(traffic_spec_file), "--matrix", str(matrix),
                     "--query", "P(d@8|do(tr2@4=1))", "--horizon", "8", "--out", str(out)])
        assert code == 0
        series = trajectory(spec, t2, None, ({"tr2": 1}, 4), 8)
        assert out.read_text() == fileio.trajectory_csv(series)

    def test_infinite_span_exit(self, tmp_path):
        spec = {
            "slice_vars": [{"name": "a"}],
            "cross_edges": [["a", "a", 1]],
            "cross_confounders": [["a", "a", 1]],
        }
        path = tmp_path / "selfconf.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code = main(["dcn", "--spec", str(path),
                     "--query", "P(a@5|do(a@2=0))", "--horizon", "6"])
        assert code == 4

    def test_window_cell_cap_is_input_error(self, tmp_path, capsys):
        # one slice of 2049 x 2048 states is just over the 2^22-cell cap
        doms = {"a": 2049, "b": 2048}
        spec = {
            "slice_vars": [{"name": n, "domain": d} for n, d in doms.items()],
            "mechanism": {"cpts": {n: {"table": [1.0 / d] * d} for n, d in doms.items()}},
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code = main(["dcn", "--spec", str(path), "--horizon", "0"])
        assert code == 1
        assert "4196352 cells" in capsys.readouterr().out


    def test_lag_two_cross_edge_is_input_error(self, tmp_path, capsys):
        spec = {
            "slice_vars": [{"name": "a"}, {"name": "b"}],
            "intra_edges": [["a", "b"]],
            "cross_edges": [["b", "a", 2], ["a", "a", 1]],
        }
        path = tmp_path / "lag2.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code = main(["dcn", "--spec", str(path), "--query", "P(b@6|do(a@3=1))",
                     "--horizon", "6"])
        assert code == 1
        assert "lag > 1" in capsys.readouterr().out


class TestMalformedFiles:
    GRAPH = {"vars": [{"name": "X"}, {"name": "Y"}], "edges": [["X", "Y"]]}
    MODEL = {**GRAPH, "cpts": {"X": {"table": [0.5, 0.5]},
                               "Y": {"parents": ["X"], "table": [0.9, 0.1, 0.2, 0.8]}}}
    SPEC = {"slice_vars": [{"name": "a"}, {"name": "b"}], "intra_edges": [["a", "b"]]}
    # DCN spec cases: the fields that replace SPEC's
    BAD_SPECS = {
        "slice_vars_string": {"slice_vars": "abc"},
        "cross_edge_pair": {"cross_edges": [["a", "b"]]},
        "intra_edge_single": {"intra_edges": [["a"]]},
        "exo_prior_word": {"mechanism": {"exos": [{"name": "w", "prior": ["half", 0.5],
                                                   "earlier": "a", "later": "b"}]}},
        "schedule_undefined_matrix": {"schedule": {"matrices": {}, "pattern": ["a"]}},
        "cpt_table_word": {"mechanism": {"cpts": {"a": {"table": ["half", 0.5]},
                                                  "b": {"table": [0.5, 0.5]}}}},
        "cpt_table_shape": {"mechanism": {"cpts": {
            "a": {"table": [0.5, 0.5]}, "b": {"intra_parents": ["a"], "table": [0.5, 0.5]}}}},
        "exo_parent_unknown": {"mechanism": {"cpts": {
            "a": {"exo_parents": ["w"], "table": [[0.5, 0.5], [0.5, 0.5]]},
            "b": {"intra_parents": ["a"], "table": [[0.5, 0.5], [0.5, 0.5]]}}}},
        "matrix_other_state_vars": {},
        "lag_fraction": {"cross_edges": [["a", "b", 1.5]]},
    }
    EXPECTED = {"domain_word": "domain of 'X'", "list_root": "JSON object",
                "cpt_length": "cpt table of 'Y'", "directory": "directory",
                "slice_vars_string": "slice_vars", "cross_edge_pair": "cross_edges",
                "intra_edge_single": "intra_edges", "exo_prior_word": "prior of 'w'",
                "schedule_undefined_matrix": "undefined matrices ['a']",
                "cpt_table_word": "cpt table of 'a'",
                "cpt_table_shape": "cpt table of 'b' has shape (2,), expected (2, 2)",
                "exo_parent_unknown": "exo parent 'w' of 'a'",
                "matrix_other_state_vars": "must be the slice variables",
                "domain_fraction": "domain of 'X' must be an integer, got 2.9",
                "domain_bool": "domain of 'X' must be an integer, got True",
                "lag_fraction": "lag of (a,b) must be an integer, got 1.5"}

    @pytest.mark.parametrize("case", ["domain_word", "domain_fraction", "domain_bool",
                                      "list_root", "cpt_length", "directory", *BAD_SPECS])
    def test_exit_one_without_traceback(self, tmp_path, capsys, case):
        graph = tmp_path / "graph.json"
        model = tmp_path / "model.json"
        graph.write_text(json.dumps(self.GRAPH), encoding="utf-8")
        model.write_text(json.dumps(self.MODEL), encoding="utf-8")
        (tmp_path / "cands.json").write_text(json.dumps({"graphs": ["graph.json"]}),
                                             encoding="utf-8")
        domains = {"domain_word": "two", "domain_fraction": 2.9, "domain_bool": True}
        if case in domains:
            bad = {"vars": [{"name": "X", "domain": domains[case]}, {"name": "Y"}]}
            graph.write_text(json.dumps(bad), encoding="utf-8")
        elif case == "list_root":
            graph.write_text(json.dumps([self.GRAPH]), encoding="utf-8")
        elif case == "cpt_length":
            bad = json.loads(json.dumps(self.MODEL))
            bad["cpts"]["Y"]["table"] = [0.9, 0.1, 0.2]
            model.write_text(json.dumps(bad), encoding="utf-8")
        if case in self.BAD_SPECS:
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({**self.SPEC, **self.BAD_SPECS[case]}), encoding="utf-8")
            argv = ["dcn", "--spec", str(spec), "--horizon", "2"]
            if case == "matrix_other_state_vars":
                # a chain over x, y instead of the slice variables a, b
                matrix = tmp_path / "matrix.json"
                matrix.write_text(json.dumps({"state_vars": [{"name": "x"}, {"name": "y"}],
                                              "entries": [[0.25] * 4] * 4}), encoding="utf-8")
                argv += ["--matrix", str(matrix)]
        elif case == "cpt_length":
            argv = ["discover", "--candidates", str(tmp_path / "cands.json"),
                    "--model", str(model)]
        else:
            target = tmp_path if case == "directory" else graph
            argv = ["identify", "--graph", str(target), "--query", "P(Y|do(X))"]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("input error:") and "Traceback" not in err
        assert self.EXPECTED[case] in err


class TestTransportCommand:
    @staticmethod
    def _mech_dict(tilt=0.0):
        return {
            "cpts": {
                "tr1": {"cross_parents": [["d", 1]], "exo_parents": ["w"],
                        "table": [[[0.8 - tilt, 0.2 + tilt], [0.5, 0.5]],
                                  [[0.3, 0.7], [0.1, 0.9]]]},
                "tr2": {"cross_parents": [["d", 1]], "exo_parents": ["w"],
                        "table": [[[0.7, 0.3], [0.4, 0.6]],
                                  [[0.45, 0.55], [0.15, 0.85]]]},
                "d": {"intra_parents": ["tr1", "tr2"],
                      "table": [[[0.9, 0.1], [0.6, 0.4]],
                                [[0.5, 0.5], [0.2, 0.8]]]},
            },
            "exos": [{"name": "w", "prior": [0.4, 0.6],
                      "earlier": "tr1", "later": "tr2", "lag": 0}],
        }

    def _spec_dict(self, tilt=0.0):
        return {
            "slice_vars": [{"name": "tr1"}, {"name": "tr2"}, {"name": "d"}],
            "intra_edges": [["tr1", "d"], ["tr2", "d"]],
            "cross_edges": [["d", "tr1", 1], ["d", "tr2", 1]],
            "intra_confounders": [["tr1", "tr2"]],
            "mechanism": self._mech_dict(tilt),
        }

    def test_end_to_end(self, tmp_path):
        (tmp_path / "target.json").write_text(json.dumps(self._spec_dict(0.0)),
                                              encoding="utf-8")
        (tmp_path / "source.json").write_text(json.dumps(self._spec_dict(0.1)),
                                              encoding="utf-8")
        (tmp_path / "transport.json").write_text(json.dumps({
            "selection_vars": [{"name": "s", "points_at": [["tr1", 0]]}],
            "source_experiments": [["tr1"]],
            "source_spec": "source.json",
        }), encoding="utf-8")
        out = tmp_path / "effect.json"
        code = main(["transport", "--spec", str(tmp_path / "target.json"),
                     "--transport", str(tmp_path / "transport.json"),
                     "--query", "P(d@6|do(tr1@3=1))", "--out", str(out)])
        assert code == 0
        effect = json.loads(out.read_text())
        assert effect["outcome"] == ["d"]
        assert abs(sum(effect["table"]) - 1.0) < 1e-9

    TRANSPORT = {"selection_vars": [{"name": "s", "points_at": [["tr1", 0]]}],
                 "source_experiments": [["tr1"]], "source_spec": "source.json"}

    # each case: the fields that replace TRANSPORT's (None: a list root),
    # and the text the error message must contain
    BAD_TRANSPORT = {
        "list_root": (None, "JSON object"),
        "offset_word": ({"selection_vars": [{"name": "s", "points_at": [["tr1", "zero"]]}]},
                        "points_at offset of selection variable 's'"),
        "points_at_triple": ({"selection_vars": [{"name": "s", "points_at": [["tr1", 0, 1]]}]},
                             "points_at must be a list of 2-item lists"),
        "selection_vars_number": ({"selection_vars": 3}, "selection_vars must be a list"),
        "source_experiments_number": ({"source_experiments": 5},
                                      "source_experiments must be a list"),
        "source_spec_number": ({"source_spec": 3}, "source_spec must be a file name"),
        "selection_without_name": ({"selection_vars": [{"points_at": [["tr1", 0]]}]},
                                   "selection_vars entry needs a name"),
        "selection_at_unknown_var": ({"selection_vars": [{"name": "s", "points_at": [["zz", 0]]}]},
                                     "unknown slice variable 'zz'"),
        "experiment_on_unknown_var": ({"source_experiments": [["zz"]]},
                                      "['zz'] names an unknown slice variable"),
    }

    @pytest.mark.parametrize("case", BAD_TRANSPORT)
    def test_malformed_transport_file(self, tmp_path, capsys, case):
        fields, expected = self.BAD_TRANSPORT[case]
        (tmp_path / "target.json").write_text(json.dumps(self._spec_dict(0.0)),
                                              encoding="utf-8")
        (tmp_path / "source.json").write_text(json.dumps(self._spec_dict(0.1)),
                                              encoding="utf-8")
        body = [self.TRANSPORT] if fields is None else {**self.TRANSPORT, **fields}
        (tmp_path / "transport.json").write_text(json.dumps(body), encoding="utf-8")
        code = main(["transport", "--spec", str(tmp_path / "target.json"),
                     "--transport", str(tmp_path / "transport.json"),
                     "--query", "P(d@6|do(tr1@3=1))"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("input error:") and expected in err

    @pytest.mark.parametrize("query", ["P(d|do(tr1=1))", "P(d@6|do(tr1=1))",
                                       "P(d|do(tr1@3=1))", "P(d@6,tr1@5|do(tr1@3=1))"])
    def test_query_without_single_slices_is_input_error(self, tmp_path, capsys, query):
        (tmp_path / "target.json").write_text(json.dumps(self._spec_dict(0.0)),
                                              encoding="utf-8")
        (tmp_path / "transport.json").write_text(json.dumps({"selection_vars": []}),
                                                 encoding="utf-8")
        code = main(["transport", "--spec", str(tmp_path / "target.json"),
                     "--transport", str(tmp_path / "transport.json"), "--query", query])
        assert code == 1
        assert "one time slice" in capsys.readouterr().out

    def test_intervention_after_outcome_exit(self, tmp_path, capsys):
        (tmp_path / "target.json").write_text(json.dumps(self._spec_dict(0.0)),
                                              encoding="utf-8")
        (tmp_path / "transport.json").write_text(json.dumps({"selection_vars": []}),
                                                 encoding="utf-8")
        code = main(["transport", "--spec", str(tmp_path / "target.json"),
                     "--transport", str(tmp_path / "transport.json"),
                     "--query", "P(d@3|do(tr1@6=1))"])
        assert code == 2
        assert "must precede the outcome" in capsys.readouterr().out

    def test_unsupported_placement_is_input_error(self, tmp_path):
        (tmp_path / "target.json").write_text(json.dumps(self._spec_dict(0.0)),
                                              encoding="utf-8")
        (tmp_path / "transport.json").write_text(json.dumps({
            "selection_vars": [{"name": "s", "points_at": [["tr2", 0]]}],
        }), encoding="utf-8")
        code = main(["transport", "--spec", str(tmp_path / "target.json"),
                     "--transport", str(tmp_path / "transport.json"),
                     "--query", "P(d@6|do(tr1@3=1))"])
        assert code == 1


# -- fuzzing the input files and queries -------------------------------------

# values a mutation puts in place of a field: wrong types, empty and
# out-of-range values, names nothing defines
JUNK = [None, True, -1, 0, 3, 0.5, "x", "", [], {}, [0], ["x", "y"], {"name": "q"}]
QUERY_CHARS = "()|,=@-0123456789XYZdo tr"


def _scenarios(fig32_trio):
    """Each CLI command with valid input files (name -> JSON document)
    and arguments; an argument ``{name}`` is the path of that file."""
    g1, g2, g3 = fig32_trio
    model = fileio.model_to_dict(random_scm(np.random.default_rng(0), g3))
    transport = TestTransportCommand()
    return {
        "identify": ({"graph.json": fileio.graph_to_dict(g3)},
                     ["identify", "--graph", "{graph.json}", "--query=P(X4|do(X2))"]),
        "dsep": ({"graph.json": fileio.graph_to_dict(g1)},
                 ["dsep", "--graph", "{graph.json}", "--x", "X1", "--y", "X4", "--z", "X2"]),
        "discover": ({"candidates.json": {"graphs": ["g1.json", fileio.graph_to_dict(g2),
                                                     "g3.json"]},
                      "g1.json": fileio.graph_to_dict(g1), "g3.json": fileio.graph_to_dict(g3),
                      "model.json": model,
                      "costs.json": {"intervention": {"X1": 5.0}, "observation": {"X4": 3.0},
                                     "default_intervention": 2.0}},
                     ["discover", "--candidates", "{candidates.json}", "--model",
                      "{model.json}", "--costs", "{costs.json}", "--out", "{out}"]),
        "dcn": ({"spec.json": TRAFFIC_SPEC},
                ["dcn", "--spec", "{spec.json}", "--query=P(d@8|do(tr1@3=0))",
                 "--horizon", "8", "--out", "{out}"]),
        "transport": ({"target.json": transport._spec_dict(0.0),
                       "source.json": transport._spec_dict(0.1),
                       "transport.json": transport.TRANSPORT},
                      ["transport", "--spec", "{target.json}", "--transport",
                       "{transport.json}", "--query=P(d@6|do(tr1@3=1))", "--out", "{out}"]),
    }


def _paths(doc, at=()):
    """Every position inside a JSON document, as a key/index path."""
    yield at
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _paths(v, at + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _paths(v, at + (i,))


def _mutate(doc, data):
    """One drawn defect: a list root, or a dropped, retyped or extra item."""
    paths = list(_paths(doc))[1:]
    op = data.draw(st.sampled_from(["list_root", "drop", "retype", "extend"]))
    if op == "list_root" or not paths:
        return [doc]
    *parent_path, last = data.draw(st.sampled_from(paths))
    doc = json.loads(json.dumps(doc))
    parent = doc
    for k in parent_path:
        parent = parent[k]
    if op == "drop":
        del parent[last]
    elif op == "retype":
        parent[last] = data.draw(st.sampled_from(JUNK))
    elif isinstance(parent[last], list):
        items = parent[last]
        items.append(data.draw(st.sampled_from(JUNK + items[-1:])))
    else:
        parent[last] = [parent[last]]
    return doc


def _mutate_query(query, data):
    if data.draw(st.booleans()):
        return data.draw(st.text(QUERY_CHARS, max_size=24))
    i = data.draw(st.integers(0, len(query)))
    if data.draw(st.booleans()):
        return query[:i] + query[i + 1:]
    return query[:i] + data.draw(st.sampled_from(QUERY_CHARS)) + query[i:]


@given(data=st.data())
@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_inputs_exit_with_a_documented_code(fig32_trio, data):
    """Every command, fed one defect in one input file or its query,
    ends with a documented exit code (0-4) and prints no traceback."""
    files, argv = _scenarios(fig32_trio)[data.draw(st.sampled_from(
        ["identify", "dsep", "discover", "dcn", "transport"]))]
    target = data.draw(st.sampled_from(sorted(files) + ["query"]))
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in files.items():
            if name == target:
                doc = _mutate(doc, data)
            Path(tmp, name).write_text(json.dumps(doc), encoding="utf-8")
        args = [str(Path(tmp, a[1:-1])) if a.startswith("{") else a for a in argv]
        if target == "query":
            args = [f"--query={_mutate_query(a[len('--query='):], data)}"
                    if a.startswith("--query=") else a for a in args]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    assert code in range(5), (args, out.getvalue(), err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
