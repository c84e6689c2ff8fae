import contextlib
import csv
import dataclasses
import io
import itertools
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from docalc import fileio
from docalc.alcam import CandidateSet, alcam_run
from docalc.cli import EXIT_INPUT, main, parse_query
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

    def test_rejects_a_repeated_target(self, traffic_spec_file, capsys):
        """A target named twice is refused rather than set to its last
        value; ``identify``, ``dcn`` and ``transport`` share the parser."""
        with pytest.raises(InvalidInputError, match="'tr1@3=1' is named twice"):
            parse_query("P(d@8|do(tr1@3=0,tr1@3=1))")
        code = main(["dcn", "--spec", str(traffic_spec_file),
                     "--query", "P(d@8|do(tr1@3=0,tr1@3=1))", "--horizon", "10"])
        assert code == 1
        assert "input error: target 'tr1@3=1' is named twice" in capsys.readouterr().err


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
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("input error: identify works on a static graph and takes no @slice "
                       "suffixes; use docalc dcn for queries on time slices\n")


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

    def test_eps_is_not_an_option(self, fig32_files, capsys):
        """Discovery compares at ``factors.EPS_CMP``; no option changes
        the tolerance, so ``--eps`` is refused by the parser, as an input
        error (exit 1), not with argparse's 2 ("not identifiable")."""
        with pytest.raises(SystemExit) as exc:
            main(["discover", "--candidates", str(fig32_files / "candidates.json"),
                  "--model", str(fig32_files / "model.json"), "--eps", "0.5"])
        assert exc.value.code == EXIT_INPUT
        assert "unrecognized arguments: --eps 0.5" in capsys.readouterr().err

    def test_missing_required_option_is_input_error(self, fig32_files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["discover", "--candidates", str(fig32_files / "candidates.json")])
        assert exc.value.code == EXIT_INPUT
        assert "the following arguments are required: --model" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["discover", "--help"])
        assert exc.value.code == 0
        assert "--candidates" in capsys.readouterr().out

    def test_report_on_stdout_lists_the_ci_records(self, tmp_path, capsys):
        """Without ``--out`` the report is printed before the summary line,
        and two runs print the same bytes.  Its ``ci_tests`` are the run's
        ``DiscoveryResult.ci_records``, field by field: the eight chains
        X1 -> M -> X2, with or without X1 -> X2, X1 <-> X2 and X1 <-> M,
        leave an edge test and two confounder tests to the CI phase."""
        variables = (Var("X1"), Var("M"), Var("X2"))
        chain = [("X1", "M"), ("M", "X2")]
        graphs = [Admg(variables, chain + [("X1", "X2")] * edge,
                       [("X1", "X2")] * far + [("X1", "M")] * near)
                  for edge, far, near in itertools.product((0, 1), repeat=3)]
        for i, g in enumerate(graphs):
            fileio.save_graph(g, tmp_path / f"g{i}.json")
        cands, truth = tmp_path / "cands.json", tmp_path / "truth.json"
        cands.write_text(json.dumps({"graphs": [f"g{i}.json" for i in range(8)]}),
                         encoding="utf-8")
        m = random_scm(np.random.default_rng(0), graphs[5])  # X1 -> X2, X1 <-> M
        truth.write_text(fileio.canonical_json(fileio.model_to_dict(m)), encoding="utf-8")
        printed = []
        for _ in range(2):
            assert main(["discover", "--candidates", str(cands), "--model", str(truth)]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        text, summary = printed[0].rstrip("\n").rsplit("\n", 1)
        assert summary == "discovered graph after 2 interventions, 3 CI tests (bound 2 <= 4)"
        report = json.loads(text)
        assert fileio.graph_from_dict(report["final_graph"]) == graphs[5]
        res = alcam_run(CandidateSet(tuple(fileio.load_candidates(cands))),
                        fileio.load_model(truth))
        want = [{f.name: list(v) if isinstance(v, tuple) else v
                 for f in dataclasses.fields(r) for v in [getattr(r, f.name)]}
                for r in res.ci_records]
        assert report["ci_tests"] == want
        assert [(r["kind"], r["multi_value"], r["dependent"]) for r in want] == [
            ("edge", True, True), ("hidden", True, True), ("hidden", True, False)]

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

    @staticmethod
    def _discover(tmp_path, graphs, cpts):
        """``docalc discover`` on the candidate ``graphs`` (graph documents)
        with the true model: the first graph with the CPTs ``cpts``."""
        for i, g in enumerate(graphs):
            (tmp_path / f"g{i}.json").write_text(json.dumps(g), encoding="utf-8")
        (tmp_path / "cands.json").write_text(
            json.dumps({"graphs": [f"g{i}.json" for i in range(len(graphs))]}), encoding="utf-8")
        (tmp_path / "truth.json").write_text(json.dumps({**graphs[0], "cpts": cpts}),
                                             encoding="utf-8")
        return main(["discover", "--candidates", str(tmp_path / "cands.json"),
                     "--model", str(tmp_path / "truth.json")])

    def test_model_over_the_cell_cap_is_input_error(self, tmp_path, capsys):
        # 23 binary variables: a joint of 2^23 cells, over the 2^22-cell cap
        names = [f"V{i}" for i in range(23)]
        graph = {"vars": [{"name": n} for n in names], "edges": []}
        code = self._discover(tmp_path, [graph], {n: {"table": [0.5, 0.5]} for n in names})
        assert code == 1
        assert capsys.readouterr().out.startswith("unsupported model: ")

    def test_zero_probability_context_is_input_error(self, tmp_path, capsys):
        # X=1 never occurs, so neither phase 1 nor the confounder test on
        # the pair X, Y can compare anything at X=1
        plain = {"vars": [{"name": "X"}, {"name": "Y"}], "edges": [["X", "Y"]]}
        code = self._discover(tmp_path, [plain, {**plain, "confounders": [["X", "Y"]]}],
                              {"X": {"table": [1.0, 0.0]},
                               "Y": {"parents": ["X"], "table": [0.9, 0.1, 0.2, 0.8]}})
        assert code == 1
        assert capsys.readouterr().out.startswith("partial support: ")


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

    @pytest.mark.parametrize("orientation", ["row", "col"])
    def test_schedule_names_a_matrix_file(self, tmp_path, traffic, orientation):
        """A schedule's matrix may be the path of a matrix file, relative to
        the spec, with its entries by rows or by columns."""
        spec, _t1, t2, _ts = traffic
        entries = T2_ROWS if orientation == "row" else T2_ROWS.T
        (tmp_path / "t2.json").write_text(json.dumps({
            "state_vars": [{"name": "tr1"}, {"name": "tr2"}, {"name": "d"}],
            "orientation": orientation, "entries": entries.tolist()}), encoding="utf-8")
        (tmp_path / "spec.json").write_text(json.dumps(
            {**TRAFFIC_SPEC, "schedule": {"matrices": {"T2": "t2.json"}, "default": "T2"}}),
            encoding="utf-8")
        out = tmp_path / "t2.csv"
        code = main(["dcn", "--spec", str(tmp_path / "spec.json"),
                     "--query", "P(d@8|do(tr2@4=1))", "--horizon", "8", "--out", str(out)])
        assert code == 0
        series = trajectory(spec, t2, None, ({"tr2": 1}, 4), 8)
        assert out.read_text() == fileio.trajectory_csv(series)

    def test_bad_matrix_orientation_is_input_error(self, traffic_spec_file, tmp_path, capsys):
        matrix = tmp_path / "m.json"
        matrix.write_text(json.dumps({
            "state_vars": [{"name": "tr1"}, {"name": "tr2"}, {"name": "d"}],
            "orientation": "diag", "entries": T2_ROWS.tolist()}), encoding="utf-8")
        code = main(["dcn", "--spec", str(traffic_spec_file), "--matrix", str(matrix),
                     "--horizon", "2"])
        assert code == 1
        assert "orientation must be 'row' or 'col', got 'diag'" in capsys.readouterr().err

    def test_full_joint_columns(self, traffic_spec_file, tmp_path):
        out = tmp_path / "full.csv"
        code = main(["dcn", "--spec", str(traffic_spec_file), "--horizon", "2",
                     "--full-joint", "--out", str(out)])
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out.read_text()))
        cells = [f"P(tr1={a},tr2={b},d={c})" for a, b, c in itertools.product(range(2), repeat=3)]
        assert header == ["t", "P(tr1=1)", "P(tr2=1)", "P(d=1)"] + cells
        spec, schedule = fileio.load_dcn_spec(traffic_spec_file)
        series = trajectory(spec, schedule, None, None, 2)
        assert len(rows) == len(series) == 3
        for row, f in zip(rows, series):
            assert row[4:] == [f"{x:.12g}" for x in np.ravel(f.table)]

    @pytest.mark.parametrize("query,reason", [
        ("P(zz@8|do(tr1@3=0))", "outcome 'zz' is not a slice variable"),
        ("P(d@99|do(tr1@3=0))", "outcome d@99 lies outside slices 2..10"),
        ("P(d@1|do(tr1@3=0))", "outcome d@1 lies outside slices 2..10"),
    ], ids=["unknown_variable", "past_horizon", "before_t0"])
    def test_outcome_must_be_a_slice_variable_within_the_slices(self, traffic_spec_file,
                                                                query, reason, capsys):
        code = main(["dcn", "--spec", str(traffic_spec_file), "--query", query,
                     "--horizon", "10", "--t0", "2"])
        assert code == 1
        assert f"input error: {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize("query", ["P(d@8|do(tr1@3=0,tr2@4=1))", "P(d@8|do(tr1=0))"],
                             ids=["two_slices", "no_slice"])
    def test_targets_need_one_slice(self, traffic_spec_file, query, capsys):
        code = main(["dcn", "--spec", str(traffic_spec_file), "--query", query,
                     "--horizon", "10"])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "input error: dcn interventions need a single time slice, e.g. do(tr1@3=0)\n"

    def test_outcome_without_a_slice_is_allowed(self, traffic_spec_file, tmp_path):
        out = tmp_path / "series.csv"
        code = main(["dcn", "--spec", str(traffic_spec_file), "--query", "P(d|do(tr1@3=0))",
                     "--horizon", "10", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 12

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


class TestModelRefusals:
    """Each ``Exogenous`` and ``Scm`` refusal that a model file can reach
    ends ``docalc discover --model`` with exit 1 and the refusal on stderr."""

    GRAPH = {"vars": [{"name": "X"}, {"name": "Y"}], "edges": [["X", "Y"]],
             "confounders": [["X", "Y"]]}
    U = {"name": "U", "prior": [0.5, 0.5], "feeds": ["X", "Y"]}
    MODEL = {**GRAPH, "exogenous": [U],
             "cpts": {"X": {"exo_parents": ["U"], "table": [0.5] * 4},
                      "Y": {"parents": ["X"], "exo_parents": ["U"], "table": [0.5] * 8}}}
    # (case, the model's fields that change, the refusal)
    CASES = [
        ("no_feeds", {"exogenous": [{**U, "feeds": []}]}, "feeds one or two"),
        ("three_feeds", {"exogenous": [{**U, "feeds": ["X", "Y", "Z"]}]}, "feeds one or two"),
        ("prior_not_a_distribution", {"exogenous": [{**U, "prior": [0.5, 0.6]}]},
         "prior of 'U' is not a distribution"),
        ("cpt_missing", {"cpts": {"X": MODEL["cpts"]["X"]}},
         "cpts must cover exactly the observed variables"),
        ("exo_names_repeat", {"exogenous": [U, U],
                              "cpts": {"X": {"exo_parents": ["U"], "table": [0.5] * 4},
                                       "Y": {"parents": ["X"], "exo_parents": ["U"],
                                             "table": [0.5] * 8}}},
         "exogenous names must be unique"),
        ("exo_name_is_observed", {"exogenous": [U, {**U, "name": "X", "feeds": ["X"]}]},
         "exogenous names collide with observed variables"),
        ("cpt_parents", {"cpts": {**MODEL["cpts"], "Y": {"exo_parents": ["U"], "table": [0.5] * 4}}},
         "cpt parents of 'Y' disagree with the graph"),
        ("exo_parent_unknown", {"cpts": {**MODEL["cpts"],
                                         "X": {"exo_parents": ["U", "W"], "table": [0.5] * 4}}},
         "unknown exogenous variable 'W'"),
        ("exo_parent_not_fed", {"exogenous": [U, {**U, "name": "W", "feeds": ["Y"]}],
                                "cpts": {**MODEL["cpts"],
                                         "X": {"exo_parents": ["U", "W"], "table": [0.5] * 8}}},
         "exo parent 'W' of 'X' does not feed it"),
        ("pair_fed_twice", {"exogenous": [U, {**U, "name": "U1"}]},
         "two exogenous variables feed the same pair"),
        ("confounder_without_edge", {"confounders": []},
         "bidirected edges and confounder variables disagree"),
        ("feed_not_an_exo_parent", {"cpts": {**MODEL["cpts"], "X": {"table": [0.5, 0.5]}}},
         "'U' feeds 'X' but is not among its exo parents"),
    ]

    @pytest.mark.parametrize("change, message", [c[1:] for c in CASES],
                             ids=[c[0] for c in CASES])
    def test_exit_one_with_the_refusal(self, tmp_path, capsys, change, message):
        (tmp_path / "cands.json").write_text(json.dumps({"graphs": [self.GRAPH]}),
                                             encoding="utf-8")
        model = tmp_path / "model.json"
        model.write_text(json.dumps(self.MODEL), encoding="utf-8")
        argv = ["discover", "--candidates", str(tmp_path / "cands.json"), "--model", str(model)]
        assert fileio.load_model(model).exogenous  # the unchanged model loads
        model.write_text(json.dumps({**self.MODEL, **change}), encoding="utf-8")
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("input error:") and "Traceback" not in captured.err
        assert message in captured.err


class TestDcnSpecRefusals:
    """Each refusal of ``DcnSpec`` and of its mechanism check raises
    ``InvalidInputError`` from the library, and a spec file that carries it
    ends ``docalc dcn --spec`` with exit 1, the refusal on stderr and
    nothing on stdout."""

    HALF = np.full((2, 2, 2, 2), 0.5).tolist()  # a cpt over 3 parents
    U = {"name": "U", "prior": [0.5, 0.5], "earlier": "a", "later": "b", "lag": 0}
    W = {"name": "W", "prior": [0.5, 0.5], "earlier": "a", "later": "b", "lag": 1}
    A = {"cross_parents": [["b", 1]], "exo_parents": ["U", "W"], "table": HALF}
    B = {"intra_parents": ["a"], "exo_parents": ["U", "W"], "table": HALF}
    SPEC = {"slice_vars": [{"name": "a"}, {"name": "b"}],
            "intra_edges": [["a", "b"]], "cross_edges": [["b", "a", 1]],
            "intra_confounders": [["a", "b"]], "cross_confounders": [["a", "b", 1]],
            "mechanism": {"exos": [U, W], "cpts": {"a": A, "b": B}}}
    U2 = {**U, "name": "U2"}
    HALF5 = np.full((2,) * 5, 0.5).tolist()
    # (case, the spec's fields that change, the refusal)
    CASES = [
        ("names_repeat", {"slice_vars": [{"name": "a"}, {"name": "a"}]},
         "slice variable names must be unique"),
        ("intra_edge_unknown", {"intra_edges": [["a", "z"]]}, "bad intra edge (a,z)"),
        ("intra_edge_loop", {"intra_edges": [["a", "a"]]}, "bad intra edge (a,a)"),
        ("cross_edge_lag_0", {"cross_edges": [["b", "a", 0]]}, "bad cross edge (b,a,0)"),
        ("intra_confounder_one_name", {"intra_confounders": [["a"]]},
         "bad intra confounder {'a'}"),
        ("cross_confounder_unknown", {"cross_confounders": [["a", "z", 1]]},
         "bad cross confounder (a,z,1)"),
        ("mechanism_misses_b", {"mechanism": {"exos": [U, W], "cpts": {"a": A}}},
         "mechanism must cover exactly the slice variables"),
        ("exo_names_repeat", {"mechanism": {"exos": [U, U], "cpts": {"a": A, "b": B}}},
         "exo templates need unique names and lags >= 0"),
        ("exo_lag_negative", {"mechanism": {"exos": [U, {**W, "lag": -1}],
                                            "cpts": {"a": A, "b": B}}},
         "exo templates need unique names and lags >= 0"),
        ("exo_named_as_slice_variable", {"mechanism": {"exos": [{**U, "name": "b"}, W],
                                                       "cpts": {"a": A, "b": B}}},
         "exo template names must differ from slice variable names"),
        ("exo_feeds_one_child", {"mechanism": {"exos": [U, W], "cpts": {
            "a": A, "b": {**B, "exo_parents": ["W"]}}}},
         "exo template 'U' must be an exo parent of 'a' and of 'b', once each"),
        ("intra_parents", {"mechanism": {"exos": [U, W], "cpts": {
            "a": A, "b": {**B, "intra_parents": []}}}},
         "intra parents of 'b' disagree with edges"),
        ("cross_parents", {"mechanism": {"exos": [U, W], "cpts": {
            "a": {**A, "cross_parents": []}, "b": B}}},
         "cross parents of 'a' disagree with edges"),
        ("exo_parent_unknown", {"mechanism": {"exos": [U, W], "cpts": {
            "a": {**A, "exo_parents": ["U", "W", "V"]}, "b": B}}},
         "exo parent 'V' of 'a' is not an exo template feeding it"),
        ("cpt_shape", {"mechanism": {"exos": [U, W], "cpts": {
            "a": {**A, "table": [[0.5, 0.5], [0.5, 0.5]]}, "b": B}}},
         "cpt table of 'a' has shape (2, 2), expected (2, 2, 2, 2)"),
        ("intra_confounder_without_exo", {"intra_confounders": []},
         "intra confounders and lag-0 exo templates disagree"),
        ("cross_confounder_without_exo", {"cross_confounders": []},
         "cross confounders and lagged exo templates disagree"),
        ("pair_confounded_twice", {
            "intra_confounders": [["a", "b"], ["a", "b"]],
            "mechanism": {"exos": [U, U2, W], "cpts": {
                "a": {**A, "exo_parents": ["U", "U2", "W"], "table": HALF5},
                "b": {**B, "exo_parents": ["U", "U2", "W"], "table": HALF5}}}},
         "two exo templates confound the same pair"),
    ]

    @pytest.mark.parametrize("change, message", [c[1:] for c in CASES],
                             ids=[c[0] for c in CASES])
    def test_refused_by_the_library_and_the_cli(self, tmp_path, capsys, change, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(self.SPEC), encoding="utf-8")
        argv = ["dcn", "--spec", str(spec), "--horizon", "2"]
        assert main(argv) == 0  # the unchanged spec runs
        assert "trajectory over slices 0..2" in capsys.readouterr().out
        changed = {**self.SPEC, **change}
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            fileio.dcn_spec_from_dict(changed)
        spec.write_text(json.dumps(changed), encoding="utf-8")
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("input error:") and "Traceback" not in captured.err
        assert message in captured.err


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
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("input error: transport queries need one time slice")

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

    def test_intervention_without_a_slice_before_exit(self, tmp_path, capsys):
        # do() at t0 leaves no observational slice before it, as in ``docalc dcn``
        (tmp_path / "target.json").write_text(json.dumps(self._spec_dict(0.0)),
                                              encoding="utf-8")
        (tmp_path / "transport.json").write_text(json.dumps({"selection_vars": []}),
                                                 encoding="utf-8")
        code = main(["transport", "--spec", str(tmp_path / "target.json"),
                     "--transport", str(tmp_path / "transport.json"),
                     "--query", "P(d@6|do(tr1@0=1))"])
        assert code == 2
        assert "one observational slice before" in capsys.readouterr().out

    @staticmethod
    def _bow_spec_dict(c_table):
        """a <-> b and a -> b within a slice: the step query of do(a) is
        hedged, so its kernel can come only from a source experiment."""
        return {
            "slice_vars": [{"name": "a"}, {"name": "b"}, {"name": "c"}],
            "intra_edges": [["a", "b"], ["a", "c"]],
            "cross_edges": [["b", "b", 1]],
            "intra_confounders": [["a", "b"]],
            "mechanism": {
                "cpts": {
                    "a": {"exo_parents": ["w"], "table": [[0.7, 0.3], [0.2, 0.8]]},
                    # axes: intra parent a, cross parent b(t-1), exo w, var
                    "b": {"intra_parents": ["a"], "cross_parents": [["b", 1]],
                          "exo_parents": ["w"],
                          "table": [[[[0.9, 0.1], [0.4, 0.6]], [[0.6, 0.4], [0.3, 0.7]]],
                                    [[[0.2, 0.8], [0.5, 0.5]], [[0.1, 0.9], [0.35, 0.65]]]]},
                    "c": {"intra_parents": ["a"], "table": c_table},
                },
                "exos": [{"name": "w", "prior": [0.4, 0.6],
                          "earlier": "a", "later": "b", "lag": 0}],
            },
        }

    def test_selection_reaching_the_step_outcome_fails(self, tmp_path, capsys):
        (tmp_path / "target.json").write_text(
            json.dumps(self._bow_spec_dict([[0.9, 0.1], [0.3, 0.7]])), encoding="utf-8")
        (tmp_path / "source.json").write_text(
            json.dumps(self._bow_spec_dict([[0.5, 0.5], [0.8, 0.2]])), encoding="utf-8")
        (tmp_path / "transport.json").write_text(json.dumps({
            "selection_vars": [{"name": "s", "points_at": [["b", 1]]}],
            "source_experiments": [["a"]], "source_spec": "source.json",
        }), encoding="utf-8")
        code = main(["transport", "--spec", str(tmp_path / "target.json"),
                     "--transport", str(tmp_path / "transport.json"),
                     "--query", "P(b@4|do(a@2=1))"])
        assert code == 2
        assert capsys.readouterr().out.startswith("FAIL: not transportable")

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
