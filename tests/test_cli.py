import argparse
import json
import subprocess
import sys
from fractions import Fraction as F

import pytest

from rcfold import suites
from rcfold.association import _certify, is_na, is_pa
from rcfold.cli import build_parser, main
from rcfold.errors import InvariantViolated
from rcfold.folding import ConvergenceCheck
from rcfold.occurrence import DisjointClusterReport
from rcfold.serialize import base_to_json, dumps_canonical, measure_to_json
from rcfold.suites import RunConfig, run_suite, render_report
from rcfold.generators import binary_space
from rcfold import Event, IsingSpec, Measure, ising_build


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(dumps_canonical(obj) if not isinstance(obj, str) else obj)
    return str(path)


class TestGen:
    def test_ising_edge(self, capsys):
        code, out = run_cli(["gen", "ising", "--edges", "1-2:2"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["weights"] == ["1/3", "1/6", "1/6", "1/3"]

    def test_exchangeable(self, capsys):
        code, out = run_cli(
            ["gen", "exchangeable", "--sites", "2", "--levels", "1,2,1"], capsys
        )
        assert code == 0
        assert json.loads(out)["weights"] == ["1/6", "1/3", "1/3", "1/6"]

    def test_uniform_subset(self, capsys):
        code, out = run_cli(
            ["gen", "uniform_subset", "--sites", "2", "--configs", "00,11"], capsys
        )
        assert code == 0
        assert json.loads(out)["weights"] == ["1/2", "0/1", "0/1", "1/2"]

    @pytest.mark.parametrize(
        "argv, missing",
        [
            (["gen", "exchangeable"], "--sites, --levels"),
            (["gen", "exchangeable", "--sites", "2"], "--levels"),
            (["gen", "exchangeable", "--levels", "1,2,1"], "--sites"),
            (["gen", "uniform_subset", "--sites", "2"], "--configs"),
        ],
    )
    def test_kind_options_without_a_default_are_required(self, argv, missing, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        prog = " ".join(["rcfold"] + argv[:2])
        assert captured.err == f"error: {prog}: the following arguments are required: {missing}\n"

    def test_random_kinds_deterministic(self, capsys):
        code1, out1 = run_cli(["gen", "random_fkg", "--sites", "3", "--seed", "3"], capsys)
        code2, out2 = run_cli(["gen", "random_fkg", "--sites", "3", "--seed", "3"], capsys)
        assert code1 == code2 == 0 and out1 == out2

    def test_random_kinds_pass_their_checks(self, tmp_path, capsys):
        for kind, sites, predicate in (("random_fkg", "5", "fkg"), ("random_nfkg", "4", "nfkg")):
            code, out = run_cli(["gen", kind, "--sites", sites], capsys)
            assert code == 0
            path = write_json(tmp_path, f"{kind}.json", out)
            code, out = run_cli(["check", predicate, path], capsys)
            assert code == 0 and json.loads(out)["verdict"] is True


class TestFoldAndLimit:
    def test_fold_file_round_trip(self, tmp_path, capsys):
        measure = write_json(
            tmp_path,
            "m.json",
            {
                "sites": [1, 2],
                "alphabets": [[0, 1], [0, 1]],
                "weights": ["2/5", "1/10", "1/5", "3/10"],
            },
        )
        path = write_json(tmp_path, "p.json", [{"K": [], "alpha": [], "beta": None}])
        code, out = run_cli(["fold", measure, path], capsys)
        assert code == 0
        assert json.loads(out)["weights"] == ["3/7", "1/14", "1/14", "3/7"]

    def test_limit(self, tmp_path, capsys):
        measure = write_json(
            tmp_path,
            "m.json",
            {
                "sites": [1, 2],
                "alphabets": [[0, 1], [0, 1]],
                "weights": ["3/7", "1/14", "1/14", "3/7"],
            },
        )
        path = write_json(tmp_path, "p.json", [])
        code, out = run_cli(["limit", measure, path], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["weights"] == ["1/2", "0/1", "0/1", "1/2"]
        assert obj["a"] == "1/6"
        assert obj["L"] == 1


class TestRcrCommands:
    def test_ising_and_verify(self, tmp_path, capsys):
        spec = write_json(
            tmp_path,
            "spec.json",
            {"vertices": [1, 2], "edges": [[1, 2, "2/1"]], "fields": None},
        )
        code, out = run_cli(["rcr", "ising", spec], capsys)
        assert code == 0
        bundle = json.loads(out)
        measure = write_json(tmp_path, "m.json", dumps_canonical(bundle["measure"]))
        base = write_json(tmp_path, "b.json", dumps_canonical(bundle["base"]))
        code, out = run_cli(["rcr", "verify", measure, base, "--eps", "0"], capsys)
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_construct(self, tmp_path, capsys):
        event = write_json(
            tmp_path,
            "d.json",
            {
                "sites": [1, 2],
                "alphabets": [[0, 1], [0, 1]],
                "configs": [[0, 0], [1, 1]],
            },
        )
        code, out = run_cli(["rcr", "construct", event], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["bonds"] == [[1, 2]]
        assert obj["atoms"][0]["states"] == [[[0, 0], [1, 1]]]


class TestOccurrenceCommands:
    def test_box(self, tmp_path, capsys):
        space = {"sites": [1, 2], "alphabets": [[0, 1], [0, 1]]}
        a = write_json(tmp_path, "a.json", {**space, "configs": [[1, 0], [1, 1]]})
        b = write_json(tmp_path, "b.json", {**space, "configs": [[0, 1], [1, 1]]})
        code, out = run_cli(["occurrence", "box", "--a", a, "--b", b], capsys)
        assert code == 0
        assert json.loads(out)["configs"] == [[1, 1]]
        down = write_json(tmp_path, "d.json", {**space, "configs": [[0, 0], [1, 0]]})
        args = ["occurrence", "box", "--a", a, "--b", down, "--rule", "increasing_decreasing"]
        code, out = run_cli(args, capsys)
        assert code == 0
        assert json.loads(out)["configs"] == [[1, 0]]
        code = main(["occurrence", "box", "--a", a, "--b", b, "--rule", "no_such_rule"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_check_232(self, tmp_path, capsys):
        spec_path = write_json(
            tmp_path,
            "spec.json",
            {"vertices": [1, 2], "edges": [[1, 2, "2/1"]], "fields": None},
        )
        code, out = run_cli(["rcr", "ising", spec_path], capsys)
        bundle = json.loads(out)
        measure = write_json(tmp_path, "m.json", dumps_canonical(bundle["measure"]))
        base = write_json(tmp_path, "b.json", dumps_canonical(bundle["base"]))
        space = {"sites": [1, 2], "alphabets": [[0, 1], [0, 1]]}
        a = write_json(tmp_path, "a.json", {**space, "configs": [[1, 0], [1, 1]]})
        bev = write_json(tmp_path, "bev.json", {**space, "configs": [[0, 0], [1, 0]]})
        code, out = run_cli(
            [
                "occurrence",
                "check-232",
                "--measure",
                measure,
                "--base",
                base,
                "--a",
                a,
                "--b",
                bev,
            ],
            capsys,
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["lhs"] == "1/6" and obj["rhs"] == "1/3" and obj["ok"] is True

    def test_check_232_base_on_another_space_exits_2(self, tmp_path, capsys):
        bundles = {}
        for n, edges in ((2, [[1, 2, "2/1"]]), (3, [[1, 2, "2/1"], [2, 3, "2/1"]])):
            spec = {"vertices": list(range(1, n + 1)), "edges": edges, "fields": None}
            path = write_json(tmp_path, f"s{n}.json", spec)
            bundles[n] = json.loads(run_cli(["rcr", "ising", path], capsys)[1])
        measure = write_json(tmp_path, "m.json", dumps_canonical(bundles[2]["measure"]))
        base = write_json(tmp_path, "b.json", dumps_canonical(bundles[3]["base"]))
        space = {"sites": [1, 2], "alphabets": [[0, 1], [0, 1]]}
        a = write_json(tmp_path, "a.json", {**space, "configs": [[0, 1], [1, 1]]})
        b = write_json(tmp_path, "bev.json", {**space, "configs": [[0, 0], [0, 1]]})
        args = ["--measure", measure, "--base", base, "--a", a, "--b", b]
        code = main(["occurrence", "check-232"] + args)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: measure and base on different spaces\n"

    def test_check_233_exit_code(self, tmp_path, capsys):
        spec_path = write_json(
            tmp_path,
            "spec.json",
            {"vertices": [1, 2], "edges": [[1, 2, "2/1"]], "fields": None},
        )
        code, out = run_cli(["rcr", "ising", spec_path], capsys)
        measure = write_json(
            tmp_path, "m.json", dumps_canonical(json.loads(out)["measure"])
        )
        space = {"sites": [1, 2], "alphabets": [[0, 1], [0, 1]]}
        a = write_json(tmp_path, "a.json", {**space, "configs": [[1, 0], [1, 1]]})
        b = write_json(tmp_path, "b.json", {**space, "configs": [[0, 1], [1, 1]]})
        code, out = run_cli(
            [
                "occurrence",
                "check-233",
                "--measure",
                measure,
                "--a",
                a,
                "--b",
                b,
                "--rule",
                "increasing_only",
            ],
            capsys,
        )
        obj = json.loads(out)
        assert obj["hypothesis_ok"] is False and obj["conclusion_ok"] is False
        assert obj["consistent"] is True and code == 0


    @pytest.mark.parametrize("command", ["box", "check-232", "check-233"])
    def test_an_event_declaring_another_space_exits_2(self, command, tmp_path, capsys):
        spec = {"vertices": [1, 2, 3, 4], "edges": [[1, 2, "2/1"]], "fields": None}
        code, out = run_cli(["rcr", "ising", write_json(tmp_path, "spec.json", spec)], capsys)
        bundle = json.loads(out)
        m4 = write_json(tmp_path, "m4.json", dumps_canonical(bundle["measure"]))
        base = write_json(tmp_path, "b4.json", dumps_canonical(bundle["base"]))
        four = {"sites": [1, 2, 3, 4], "alphabets": [[0, 1]] * 4}
        three = {"sites": [1, 2, 3], "alphabets": [[0, 1]] * 3}
        a4 = write_json(tmp_path, "a4.json", {**four, "mask_hex": "0xff00"})
        a3 = write_json(tmp_path, "a3.json", {**three, "mask_hex": "0xf0"})
        args = {
            "box": ["occurrence", "box", "--a", a4, "--b", a3],
            "check-232": ["occurrence", "check-232", "--measure", m4, "--base", base],
            "check-233": ["occurrence", "check-233", "--measure", m4],
        }[command]
        if command != "box":
            args += ["--a", a3, "--b", a3]
        code = main(args)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: event file declares another space")

    def test_an_event_without_a_space_reads_on_the_measure_space(self, tmp_path, capsys):
        spec = {"vertices": [1, 2], "edges": [[1, 2, "2/1"]], "fields": None}
        code, out = run_cli(["rcr", "ising", write_json(tmp_path, "spec.json", spec)], capsys)
        m = write_json(tmp_path, "m.json", dumps_canonical(json.loads(out)["measure"]))
        a = write_json(tmp_path, "a.json", {"mask_hex": "0xc"})
        b = write_json(tmp_path, "b.json", {"configs": [[0, 1], [1, 1]]})
        args = ["occurrence", "check-233", "--measure", m, "--a", a, "--b", b]
        code, out = run_cli(args + ["--rule", "increasing_only"], capsys)
        assert code == 0 and json.loads(out)["conclusion_ok"] is False

    @pytest.mark.parametrize(
        "eps", ["x", "1/0", "-1"], ids=["malformed", "zero-denominator", "negative"]
    )
    @pytest.mark.parametrize("command", ["rcr-verify", "check-232", "check-233"])
    def test_bad_eps_is_usage_error(self, command, eps, tmp_path, capsys):
        spec = {"vertices": [1, 2], "edges": [[1, 2, "2/1"]], "fields": None}
        code, out = run_cli(["rcr", "ising", write_json(tmp_path, "spec.json", spec)], capsys)
        bundle = json.loads(out)
        m = write_json(tmp_path, "m.json", dumps_canonical(bundle["measure"]))
        base = write_json(tmp_path, "b.json", dumps_canonical(bundle["base"]))
        space = {"sites": [1, 2], "alphabets": [[0, 1], [0, 1]]}
        a = write_json(tmp_path, "a.json", {**space, "configs": [[1, 0], [1, 1]]})
        args = {
            "rcr-verify": ["rcr", "verify", m, base],
            "check-232": ["occurrence", "check-232", "--measure", m, "--base", base],
            "check-233": ["occurrence", "check-233", "--measure", m],
        }[command]
        if command != "rcr-verify":
            args += ["--a", a, "--b", a]
        TestSuiteCommand.assert_one_error_line(args + ["--eps", eps], capsys)


class TestCheckAndPipeline:
    def test_check_fkg_exit_codes(self, tmp_path, capsys):
        good = write_json(
            tmp_path,
            "good.json",
            measure_to_json(
                Measure(binary_space(2), ("1/3", "1/6", "1/6", "1/3"))
            ),
        )
        code, out = run_cli(["check", "fkg", good], capsys)
        assert code == 0 and json.loads(out)["verdict"] is True
        bad = write_json(
            tmp_path,
            "bad.json",
            measure_to_json(Measure(binary_space(2), ("0/1", "1/2", "1/2", "0/1"))),
        )
        code, out = run_cli(["check", "fkg", bad], capsys)
        assert code == 1 and json.loads(out)["verdict"] is False

    @staticmethod
    def assert_usage_error(path, capsys):
        code = main(["check", "fkg", path])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: cannot read ")
        assert captured.err.count("\n") == 1

    def test_missing_input_file_is_usage_error(self, tmp_path, capsys):
        self.assert_usage_error(str(tmp_path / "missing.json"), capsys)

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        self.assert_usage_error(write_json(tmp_path, "broken.json", "{"), capsys)

    def test_measure_without_alphabets_is_usage_error(self, tmp_path, capsys):
        obj = measure_to_json(Measure(binary_space(1), ("1/2", "1/2")))
        del obj["alphabets"]
        self.assert_usage_error(write_json(tmp_path, "m.json", obj), capsys)

    @staticmethod
    def assert_one_line_error(argv, code, capsys):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_zero_denominator_weight_is_usage_error(self, tmp_path, capsys):
        obj = measure_to_json(Measure.uniform(binary_space(1)))
        obj["weights"][0] = "1/0"
        self.assert_one_line_error(["check", "fkg", write_json(tmp_path, "m.json", obj)], 2, capsys)

    def test_zero_denominator_atom_weight_is_usage_error(self, tmp_path, capsys):
        build = ising_build(IsingSpec((1, 2), ((1, 2, 2),)))
        base = base_to_json(build.base)
        base["atoms"][0]["weight"] = "1/0"
        measure = write_json(tmp_path, "m.json", measure_to_json(build.measure))
        argv = ["rcr", "verify", measure, write_json(tmp_path, "b.json", base)]
        self.assert_one_line_error(argv, 2, capsys)

    @pytest.mark.parametrize("row", [[0], [0, 0, 1]], ids=["short", "long"])
    def test_state_row_off_its_bond_is_usage_error(self, row, tmp_path, capsys):
        build = ising_build(IsingSpec((1, 2), ((1, 2, 2),)))
        base = base_to_json(build.base)
        base["atoms"][0]["states"][0] = [[0, 0], row]
        measure = write_json(tmp_path, "m.json", measure_to_json(build.measure))
        argv = ["rcr", "verify", measure, write_json(tmp_path, "b.json", base)]
        self.assert_one_line_error(argv, 2, capsys)

    def test_zero_denominator_edge_weight_is_usage_error(self, tmp_path, capsys):
        spec = {"vertices": [1, 2], "edges": [[1, 2, "2/0"]], "fields": None}
        argv = ["rcr", "ising", write_json(tmp_path, "spec.json", spec)]
        self.assert_one_line_error(argv, 2, capsys)

    def test_empty_field_list_is_usage_error(self, tmp_path, capsys):
        spec = {"vertices": [1, 2], "edges": [[1, 2, "2/1"]], "fields": []}
        argv = ["rcr", "ising", write_json(tmp_path, "spec.json", spec)]
        self.assert_one_line_error(argv, 2, capsys)

    def test_failed_self_check_exits_3(self, tmp_path, capsys, monkeypatch):
        from rcfold import association

        monkeypatch.setattr(association, "_nfkg_violation", lambda folds: {"fold": "stub"})
        snfkg = Measure.uniform_on(Event.from_indices(binary_space(2), [1, 2]))
        m = write_json(tmp_path, "m.json", measure_to_json(snfkg))
        self.assert_one_line_error(["check", "snfkg", m], 3, capsys)

    def test_check_ulc(self, tmp_path, capsys):
        m = write_json(
            tmp_path,
            "m.json",
            measure_to_json(Measure(binary_space(2), ("1/6", "1/3", "1/3", "1/6"))),
        )
        code, out = run_cli(["check", "ulc", m], capsys)
        assert code == 0 and json.loads(out)["verdict"] is True

    def test_pipeline_commands(self, tmp_path, capsys):
        ising = write_json(
            tmp_path,
            "i.json",
            measure_to_json(Measure(binary_space(2), ("1/3", "1/6", "1/6", "1/3"))),
        )
        code, out = run_cli(["pipeline", "fkg-theorem", ising], capsys)
        assert code == 0 and json.loads(out)["ok"] is True
        anti = write_json(
            tmp_path,
            "a.json",
            measure_to_json(Measure(binary_space(2), ("0/1", "1/2", "1/2", "0/1"))),
        )
        code, out = run_cli(["pipeline", "snfkg-rcr", anti], capsys)
        assert code == 0 and json.loads(out)["ok"] is True


class TestSuiteCommand:
    def test_small_suite_runs_and_writes(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code, _ = run_cli(
            [
                "suite",
                "bk-sanity",
                "--seed",
                "7",
                "--instances",
                "1",
                "--out",
                str(out_file),
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["ok"] is True
        assert report["suite"] == "bk-sanity"

    def test_suite_prints_its_wall_time_but_run_suite_does_not(self, capsys):
        code = main(["suite", "bk-sanity", "--seed", "7", "--instances", "1"])
        assert code == 0
        assert capsys.readouterr().err.startswith("[bk-sanity] 2 instances in ")
        run_suite("bk-sanity", RunConfig(seed=7, jobs=1, instances=1))
        assert capsys.readouterr().err == ""

    @staticmethod
    def assert_unwritable_out(args, tmp_path, capsys):
        target = str(tmp_path / "nodir" / "out.json")
        code = main(args + ["--out", target])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith(f"error: cannot write {target}")
        assert "Traceback" not in captured.err

    def test_gen_unwritable_out_is_usage_error(self, tmp_path, capsys):
        self.assert_unwritable_out(["gen", "random_fkg", "--sites", "2"], tmp_path, capsys)

    def test_suite_unwritable_out_is_usage_error(self, tmp_path, capsys):
        args = ["suite", "bk-sanity", "--instances", "1"]
        self.assert_unwritable_out(args, tmp_path, capsys)

    @staticmethod
    def assert_one_error_line(args, capsys):
        code = main(args)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "name, args",
        [
            ("RCFOLD_SEED", ["gen", "random_fkg", "--sites", "2"]),
            ("RCFOLD_JOBS", ["suite", "bk-sanity"]),
            ("RCFOLD_CAP_SITES", ["gen", "random_fkg", "--sites", "2"]),
        ],
        ids=["RCFOLD_SEED", "RCFOLD_JOBS", "RCFOLD_CAP_SITES"],
    )
    def test_non_integer_env_is_usage_error(self, name, args, capsys, monkeypatch):
        monkeypatch.setenv(name, "abc")
        self.assert_one_error_line(args, capsys)

    def test_negative_instances_is_usage_error(self, capsys):
        self.assert_one_error_line(["suite", "bk-sanity", "--instances", "-3"], capsys)

    def test_only_naming_no_row_is_usage_error(self, capsys):
        self.assert_one_error_line(["suite", "bk-sanity", "--only", "99"], capsys)

    @pytest.mark.parametrize(
        "args",
        [
            ["gen", "exchangeable", "--sites", "2", "--levels", "1,x"],
            ["gen", "exchangeable", "--sites", "2", "--levels", "1,1/0"],
            ["gen", "ising", "--edges", "1-2:x"],
            ["gen", "ising", "--edges", "a"],
            ["gen", "ising", "--edges", "1-2-3:2"],
            ["gen", "ising", "--edges", "-2"],
            ["gen", "ising", "--edges", ""],
            ["gen", "exchangeable", "--sites", "2", "--levels=-1,-1,-1"],
        ],
        ids=[
            "levels",
            "zero-denominator",
            "edges",
            "no-dash",
            "two-dashes",
            "empty-vertex",
            "no-edge",
            "negative-levels",
        ],
    )
    def test_malformed_gen_number_is_usage_error(self, args, capsys):
        self.assert_one_error_line(args, capsys)

    @pytest.mark.parametrize("kind", ["random_fkg", "random_nfkg", "exchangeable", "uniform_subset"])
    def test_gen_sites_over_the_cap_is_usage_error(self, kind, capsys):
        required = {"exchangeable": ["--levels", "1"], "uniform_subset": ["--configs", "0"]}
        code = main(["gen", kind, "--sites", "40", *required.get(kind, [])])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: --sites 40 exceeds cap 5\n"

    def test_gen_sites_cap_is_the_cap_sites_flag(self, capsys):
        code, out = run_cli(["gen", "random_fkg", "--sites", "6", "--cap-sites", "6"], capsys)
        assert code == 0 and len(json.loads(out)["weights"]) == 64

    @pytest.mark.parametrize("predicate", ["pa", "na"])
    def test_cap_sites_cannot_raise_the_check_cap(self, predicate, tmp_path, capsys):
        gen = ["gen", "exchangeable", "--sites", "6", "--levels", "1,1,1,1,1,1,1"]
        code, out = run_cli(gen + ["--cap-sites", "6"], capsys)
        assert code == 0
        path = write_json(tmp_path, "u6.json", out)
        code = main(["check", predicate, path, "--cap-sites", "6"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: |sites|=6 exceeds cap 5\n"

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RCFOLD_SEED", "12")
        code, out = run_cli(["gen", "random_fkg", "--sites", "2"], capsys)
        monkeypatch.delenv("RCFOLD_SEED")
        code2, out2 = run_cli(["gen", "random_fkg", "--sites", "2", "--seed", "12"], capsys)
        assert out == out2

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rcfold.cli", "suite", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "fkg-pa" in proc.stdout


# The shared options and the gen kind options that each leaf command reads;
# every leaf not named here reads --out alone.
SHARED = ("--out", "--seed", "--jobs", "--cap-sites")
GEN_OPTIONS = ("--sites", "--edges", "--levels", "--configs")
READS = {
    "gen ising": {"--out", "--edges"},
    "gen exchangeable": {"--out", "--cap-sites", "--sites", "--levels"},
    "gen random_fkg": {"--out", "--cap-sites", "--sites", "--seed"},
    "gen random_nfkg": {"--out", "--cap-sites", "--sites", "--seed"},
    "gen uniform_subset": {"--out", "--cap-sites", "--sites", "--configs"},
    "check pa": {"--out", "--cap-sites"},
    "check na": {"--out", "--cap-sites"},
    "suite": {"--out", "--seed", "--jobs"},
}


def leaves(parser, argv=()):
    """(argv, parser) per leaf command, each gen kind, check predicate and
    pipeline a leaf; argv fills in the leaf's positionals and required options."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from leaves(child, argv + (name,))
            return
    filled = list(argv)
    for action in parser._actions:
        if not action.option_strings:
            filled.append(next(iter(action.choices)) if action.choices else "in.json")
        elif action.required:
            filled += [action.option_strings[0], "1" if action.type is int else "in.json"]
    yield filled, parser


class TestOptions:
    def test_each_command_takes_only_the_options_it_reads(self, capsys):
        rejected = 0
        for argv, leaf in leaves(build_parser()):
            name = leaf.prog.removeprefix("rcfold ")
            offered = set(SHARED + GEN_OPTIONS) if name.startswith("gen ") else set(SHARED)
            takes = {s for action in leaf._actions for s in action.option_strings}
            assert takes & offered == READS.get(name, {"--out"}), name
            for option in sorted(offered - takes):
                code = main(argv + [option, "1"])
                captured = capsys.readouterr()
                assert code == 2 and captured.out == "", (name, option)
                assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
                assert option in captured.err
                rejected += 1
        # every leaf took the four shared options and every gen kind the four
        # kind options; these are the pairs it did not read
        assert rejected == 69

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["gen"],
            ["check", "fkg"],
            ["check", "pa"],
            ["check", "nope", "m.json"],
            ["pipeline", "nope", "m.json"],
            ["suite", "nope"],
            ["gen", "random_fkg", "--sites", "x"],
            ["--seed", "3", "gen", "random_fkg"],
        ],
        ids=[
            "no-command",
            "no-kind",
            "missing-positional",
            "missing-positional-capped",
            "unknown-predicate",
            "unknown-pipeline",
            "unknown-suite",
            "non-integer",
            "option-before-command",
        ],
    )
    def test_parse_errors_are_one_line(self, argv, capsys):
        TestSuiteCommand.assert_one_error_line(argv, capsys)

    @pytest.mark.parametrize("argv", [["--jobs", "4", "suite", "bk-sanity"], ["--jobs=4", "suite", "bk-sanity"]])
    def test_an_option_before_the_command_is_named(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: rcfold: --jobs is before the command; options go after the command\n"

    @pytest.mark.parametrize("argv", [["--help"], ["gen", "ising", "--help"], ["check", "pa", "-h"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: rcfold")

    def test_a_variable_is_read_only_by_the_commands_taking_its_option(
        self, tmp_path, capsys, monkeypatch
    ):
        m = write_json(tmp_path, "m.json", measure_to_json(Measure.uniform(binary_space(2))))
        for name in ("RCFOLD_SEED", "RCFOLD_JOBS", "RCFOLD_CAP_SITES"):
            monkeypatch.setenv(name, "abc")
        code, out = run_cli(["check", "fkg", m], capsys)
        assert code == 0 and json.loads(out)["verdict"] is True
        code, out = run_cli(["gen", "ising", "--edges", "1-2:2"], capsys)
        assert code == 0


class TestDeterminismSmoke:
    def test_report_bytes_equal_across_jobs(self):
        cfg1 = RunConfig(seed=5, jobs=1, instances=4)
        cfg2 = RunConfig(seed=5, jobs=2, instances=4)
        r1 = render_report(run_suite("folding-convergence", cfg1))
        r2 = render_report(run_suite("folding-convergence", cfg2))
        assert r1 == r2

    def test_only_filter_isolates_one_instance(self):
        cfg = RunConfig(seed=5, instances=4, only=2)
        rep = run_suite("folding-convergence", cfg)
        assert rep["summary"]["total"] == 1
        assert rep["instances"][0]["id"] == 2

    def test_cap_sites_flag_enforced(self, tmp_path, capsys):
        from rcfold.generators import random_measure

        m = write_json(
            tmp_path, "m.json", measure_to_json(random_measure(3, 1))
        )
        code, out = run_cli(["check", "pa", m, "--cap-sites", "2"], capsys)
        assert code == 2  # cap exceeded is a usage error

    def test_failing_row_embeds_repro_command(self):
        from rcfold.suites import _assemble

        def stub(ok):
            return {"kind": "stub", "ok": ok}

        cfg = RunConfig(seed=9, instances=2)
        report = _assemble("bk-sanity", cfg, {}, [(stub, (True,)), (stub, (False,))])
        assert report["ok"] is False
        failing = report["instances"][1]
        assert failing["repro"] == "rcfold suite bk-sanity --seed 9 --only 1 --instances 2"


# Each row kind with a failure field, forced to fail by replacing the
# predicate it reads in ``rcfold.suites``: (suite, --instances, row kind,
# predicate, replacement of the predicate, failure fields).


def _refused(argmax):
    return "forced", "every limit is refused"


def _certifying_with(final):
    return lambda real: lambda m: _certify(m, _refused, final)


def _scanning_a_positive_measure(real):
    positive = Measure(binary_space(2), (F(1, 3), F(1, 6), F(1, 6), F(1, 3)))
    return lambda m: real(positive)


def _failing_checks(real):
    def checks(m, steps):
        limit, stream = real(m, steps)
        return limit, (ConvergenceCheck(c.distance, c.bound, False) for c in stream)

    return checks


def _failing_report(real):
    def check(*args):
        rep = real(*args)
        fields = (rep.lhs, rep.rhs, rep.slack, rep.max_dev, rep.base_within_eps)
        return DisjointClusterReport(*fields, False)

    return check


def _raising(real):
    def check(event):
        raise InvariantViolated("forced")

    return check


FAILING_ROWS = [
    ("fkg-pa", 1, "fkg-pipeline", "fkg_theorem_pipeline", _certifying_with(is_na),
     ("failures", "pa_witness")),
    ("snfkg-na", 1, "snfkg-perturbed", "snfkg_limit_rcr", _certifying_with(is_pa), ("failures",)),
    ("nfkg-na", 1, "nfkg-na", "is_na", _scanning_a_positive_measure, ("na_witness",)),
    ("folding-convergence", 2, "convergence", "_convergence_checks", _failing_checks, ("detail",)),
    ("lemma-232", None, "cluster-bound", "check_disjoint_cluster_bound", _failing_report,
     ("witness",)),
    ("sublattice", 3, "sublattice-sweep", "check_sublattice", _raising, ("exceptions",)),
    ("nfkg-na", 1, "ulc-na", "is_na", _scanning_a_positive_measure, ("failures",)),
]


@pytest.mark.parametrize(
    "suite, instances, kind, name, force, fields", FAILING_ROWS, ids=[c[2] for c in FAILING_ROWS]
)
def test_a_failing_row_keeps_its_failure_and_its_repro(
    suite, instances, kind, name, force, fields, monkeypatch, capsys
):
    monkeypatch.setattr(suites, name, force(getattr(suites, name)))
    report = run_suite(suite, RunConfig(seed=3, instances=instances))
    row = next(r for r in report["instances"] if r["kind"] == kind)
    assert row["ok"] is False and all(row[f] for f in fields)
    repro = f"rcfold suite {suite} --seed 3 --only {row['id']}"
    assert row["repro"] == repro + ("" if instances is None else f" --instances {instances}")
    rendered = json.loads(render_report(report))
    assert main(row["repro"].split()[1:]) == 1
    assert json.loads(capsys.readouterr().out)["instances"] == [rendered["instances"][row["id"]]]
