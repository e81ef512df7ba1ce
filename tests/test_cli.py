import importlib.util
import json
import os
from pathlib import Path

import pytest

from diffmod import cli
from diffmod.corpus import corpus_dir, run_case


def corpus_path(name):
    return str(corpus_dir() / f"{name}.dms")


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def strip_timing(report):
    report = dict(report)
    report.pop("elapsed_ms", None)
    return report


def test_cc_command(capsys):
    code, report = run_json(capsys, ["cc", corpus_path("unexpected_cc_pair")])
    assert code == 0
    assert report["schema"] == 1
    assert report["payload"]["cc"]["row_strings"] == ["d22(v) - d12(u) + u"]
    assert report["payload"]["composition_zero"]


def test_complete_command_boards(capsys):
    code, report = run_json(capsys, [
        "complete", corpus_path("unimodular_oneform"), "--order-vars", "2,3,1"])
    assert code == 0
    board = report["payload"]["board"]
    assert len(board) == 6
    assert report["payload"]["involutive"]


def test_rank_and_adjoint(capsys):
    code, report = run_json(capsys, ["rank", corpus_path("contact_pfaffian")])
    assert code == 0
    assert report["payload"] == {"rank": 2, "adjoint_rank": 2, "equal": True}
    code, report = run_json(capsys, ["adjoint", corpus_path("single_input_ode")])
    assert code == 0
    assert report["payload"]["involution_check"]


# A and B agree only where c = 1: there the rank drops from 2 to 1.
RANK_PROVISO_SYSTEM = """system t; vars x1, x2; unknowns u, v; params c;
A: d1(u) + d2(v) = e1; B: c*d1(u) + d2(v) = e2;
"""


def test_rank_reports_the_provisos_it_relies_on(capsys, tmp_path):
    path = tmp_path / "t.dms"
    path.write_text(RANK_PROVISO_SYSTEM)
    code, report = run_json(capsys, ["rank", str(path)])
    assert code == 0
    assert report["payload"]["rank"] == 2
    assert report["provisos"] == ["c - 1"]
    code, report = run_json(capsys, ["rank", str(path), "--assume", "c=1"])
    assert code == 0
    assert report["payload"] == {"rank": 1, "adjoint_rank": 1, "equal": True}
    assert report["provisos"] == []


def test_corpus_rank_check_reports_its_provisos(tmp_path):
    (tmp_path / "t.dms").write_text(RANK_PROVISO_SYSTEM)
    (tmp_path / "t.expected.json").write_text(json.dumps({"checks": [
        {"op": "rank", "expect": {"value": 2, "adjoint_equal": True}}]}))
    [result] = run_case("t", tmp_path)
    assert result.passed, result.details
    assert result.provisos == ["c - 1"]


# One wrong claim each for the membership checks of the corpus runner.
WRONG_FIXTURES = {
    "cc-not-generating": ("unexpected_cc_pair", {
        "op": "cc", "expect": {"mutual_rows": ["d12(u) - u"]}}),
    "cc-too-large": ("unexpected_cc_pair", {
        "op": "cc", "expect": {"mutual_rows": ["d12(u) - u - d22(v)", "u"]}}),
    "torsion-wrong-annihilator": ("contact_flat", {
        "op": "torsion",
        "expect": {"elements": [{"element": "xi1", "annihilator": "z0"}]}}),
    "torsion-element-reduces": ("contact_flat", {
        "op": "torsion",
        "expect": {"elements": [{"element": "d2(xi1)",
                                 "annihilator": "d2(z0)"}]}}),
    "parametrize-wrong-candidate": ("contact_density", {
        "op": "parametrize",
        "expect": {"candidate_rows": ["-x3*d3(phi) + phi", "-d3(phi)",
                                      "0"]}}),
    "ext-generator-in-image": ("od_lie_pair", {
        "op": "ext", "i": 1, "expect": {"generated_by": ["0"]}}),
}


@pytest.mark.parametrize("wrong", WRONG_FIXTURES)
def test_corpus_runner_rejects_a_wrong_fixture(tmp_path, wrong):
    name, check = WRONG_FIXTURES[wrong]
    (tmp_path / f"{name}.dms").write_text(
        (corpus_dir() / f"{name}.dms").read_text())
    (tmp_path / f"{name}.expected.json").write_text(
        json.dumps({"checks": [check]}))
    [result] = run_case(name, tmp_path)
    assert not result.passed
    assert result.details


@pytest.mark.parametrize("text", [
    '{"checks": [', "{}", '{"checks": [{"expect": {}}]}'])
def test_a_malformed_fixture_is_an_error_not_a_traceback(capsys, tmp_path,
                                                         text):
    (tmp_path / "k.dms").write_text(
        (corpus_dir() / "killing_flat_n2.dms").read_text())
    fixture = tmp_path / "k.expected.json"
    fixture.write_text(text)
    assert cli.main(["corpus", "--dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(fixture) in err
    assert "Traceback" not in err


def test_ext_command_with_assumption(capsys):
    code, report = run_json(capsys, [
        "ext", corpus_path("oneform_area_lie"), "--i", "1",
        "--assume", "c!=0"])
    assert code == 0
    payload = report["payload"]
    assert payload["vanishing"] is False
    assert payload["surviving_generators"]


def test_ext_requires_case_decision(capsys):
    code = cli.main(["ext", corpus_path("oneform_area_lie"), "--i", "1"])
    capsys.readouterr()
    assert code == 2


def test_ext_split_runs_both_branches(capsys):
    code, report = run_json(capsys, [
        "ext", corpus_path("oneform_area_lie"), "--i", "2", "--split"])
    assert code == 0
    branches = report["branches"]
    assert len(branches) == 2
    flags = {tuple(b["branch"]): b["vanishing"] for b in branches}
    assert flags[("c=0",)] is False
    assert flags[("c!=0",)] is True


def test_spencer_command(capsys):
    code, report = run_json(capsys, ["spencer", "--family", "killing",
                                     "--n", "4"])
    assert code == 0
    assert report["payload"]["H2"] == 20
    assert report["payload"]["H3"] == 20
    code, report = run_json(capsys, ["spencer", "--diagram", "--n", "5"])
    assert report["payload"]["diagram"]["h3_conformal"] == 35


def test_exit_codes(capsys, tmp_path):
    assert cli.main(["cc", str(tmp_path / "missing.dms")]) == 1
    capsys.readouterr()
    bad = tmp_path / "bad.dms"
    bad.write_text("vars x; unknowns y; P: d1(y = u;")
    assert cli.main(["cc", str(bad)]) == 1
    capsys.readouterr()


def test_determinism(capsys):
    _, first = run_json(capsys, ["cc", corpus_path("unexpected_cc_pair")])
    _, second = run_json(capsys, ["cc", corpus_path("unexpected_cc_pair")])
    assert strip_timing(first) == strip_timing(second)


def test_corpus_output_is_the_same_with_warm_tables(capsys):
    """The second corpus run in one process finds every term order's
    packed terms and Janet data already made by the first; its output is
    byte-identical."""
    outs = []
    for _ in range(2):
        assert cli.main(["corpus", "--verbose"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[-1] == "58/58 checks passed"


def test_report_roundtrip_and_markdown(capsys, tmp_path):
    out = tmp_path / "report"
    code = cli.main(["cc", corpus_path("unexpected_cc_pair"),
                     "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    data = json.loads((out / "report.json").read_text())
    assert json.loads(json.dumps(data)) == data
    md = (out / "report.md").read_text()
    assert md.startswith("# cc")


def test_corpus_runner_empty_dir(tmp_path, capsys):
    assert cli.main(["corpus", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "0/0" in out


def test_corpus_filter(capsys):
    code = cli.main(["corpus", "--filter", "double_pendulum"])
    out = capsys.readouterr().out
    assert code == 0
    assert "double_pendulum" in out


def test_corpus_case_split_branches():
    results = run_case("oneform_area_lie")
    branch_checks = [r for r in results if "case" in r.check]
    assert len(branch_checks) >= 2
    assert all(r.passed for r in results)


@pytest.mark.parametrize("argv", [
    ["spencer", "--family", "conformal", "--n", "2"],
    ["spencer", "--n", "4"],
    ["spencer", "--family", "killing"],
    ["spencer", "--family", "killing", "--n", "100000"],
])
def test_spencer_bad_input_is_an_error_not_a_traceback(capsys, argv):
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("n,pinned", [
    (3, (0, 0, False)), (4, (0, 0, True)), (5, (0, 35, True)),
    (6, (0, 140, True)),
])
def test_spencer_conformal_payload(capsys, n, pinned):
    code, report = run_json(capsys, ["spencer", "--family", "conformal",
                                     "--n", str(n)])
    assert code == 0
    payload = report["payload"]
    assert (payload["ghat3_dim"], payload["H3_ghat1"],
            payload["ghat2_2acyclic"]) == pinned


def test_spencer_diagram_n0_is_an_error_not_the_n5_diagram(capsys):
    assert cli.main(["spencer", "--diagram", "--n", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_spencer_conformal_n6(capsys):
    code, report = run_json(capsys, ["spencer", "--family", "conformal",
                                     "--n", "6"])
    assert code == 0
    assert report["payload"]["dims"] == [6, 20, 84, 140, 84, 20, 6]


@pytest.mark.parametrize("extra", [
    ["--assume", "q*x1"],
    ["--assume", "c=x1"],
    ["--assume", "q=0"],
    ["--assume", "c+"],
    ["--order-vars", "1,2,3"],
    ["--order-vars", "a,b"],
    ["--order-vars", "1,1"],
])
def test_bad_assume_and_order_are_errors_not_tracebacks(capsys, extra):
    argv = ["complete", corpus_path("oneform_area_lie"), *extra]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command, options", [
    ("sequence", ["--max-steps", "0"]),
    ("sequence", ["--max-steps", "-1"]),
    ("ext", ["--i", "-1"]),
])
def test_bad_step_count_and_ext_index_are_errors_not_tracebacks(
        capsys, command, options):
    argv = [command, corpus_path("unexpected_cc_pair"), *options]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_unknown_term_order_is_an_error_not_a_traceback(capsys, tmp_path):
    src = tmp_path / "grevlex.dms"
    src.write_text((corpus_dir() / "mixed_wave_pair.dms").read_text()
                   + "order grevlex;\n")
    assert cli.main(["complete", str(src)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "grevlex" in err
    assert "Traceback" not in err


ENVELOPE_PAYLOADS = {
    "sequence": {"shape": [1, 2, 1], "orders": [2, 2]},
    "duality": {"torsion_free": True},
    "torsion": {"generators": []},
    "parametrize": {"certified": True, "minimal_rank_bound": 0},
}


@pytest.mark.parametrize("command", [
    "complete", "cc", "sequence", "adjoint", "rank", "duality", "torsion",
    "ext", "parametrize"])
def test_file_command_envelope(capsys, command):
    extra = ["--i", "1"] if command == "ext" else []
    code, report = run_json(capsys, [
        command, corpus_path("unexpected_cc_pair"), *extra])
    assert code == 0
    assert set(report) == {"command", "input", "case", "payload", "provisos",
                           "schema", "elapsed_ms"}
    assert report["command"] == command
    assert set(report["input"]) == {"path", "sha256"}
    assert report["case"] == {} and report["provisos"] == []
    for key, value in ENVELOPE_PAYLOADS.get(command, {}).items():
        assert report["payload"][key] == value


def test_cyclic_relations_are_an_error_not_a_traceback(capsys, tmp_path):
    src = tmp_path / "cyclic.dms"
    src.write_text("vars x1, x2; unknowns y; funcparams a, b; "
                   "rel d1(a) = d1(b); rel d1(b) = d1(a); "
                   "E: d1(a)*d2(y) + y = u;\n")
    assert cli.main(["complete", str(src)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "did not terminate" in err
    assert "Traceback" not in err


def test_assumption_dividing_by_a_parameter_is_refused(capsys, tmp_path):
    assert cli.main(["rank", corpus_path("od_lie_pair"),
                     "--assume", "1/c"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "1/c" in err
    src = tmp_path / "inverse.dms"
    src.write_text((corpus_dir() / "od_lie_pair.dms").read_text()
                   .replace("assume alpha != 0;", "assume 1/c != 0;"))
    assert cli.main(["rank", str(src)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "1/c" in err



def test_a_file_that_is_not_utf8_is_an_error_not_a_traceback(capsys,
                                                              tmp_path):
    """A .dms file with a byte that is not UTF-8, read by a file command
    and by the corpus runner."""
    (tmp_path / "bad.dms").write_bytes(b"system bad;\xff\n")
    (tmp_path / "bad.expected.json").write_text('{"checks": []}')
    for argv in (["complete", str(tmp_path / "bad.dms")],
                 ["corpus", "--dir", str(tmp_path)]):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bad.dms is not UTF-8" in err


def _cli_sweep():
    """scripts/cli_sweep.py as a module."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "cli_sweep.py"
    spec = importlib.util.spec_from_file_location("cli_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("args, code", [
    (["rank", "src/diffmod/corpus/unexpected_cc_pair.dms"], 0),
    (["spencer", "--family", "killing"], 1),
    (["ext", "--i", "1"], 2),
])
def test_cli_sweep_in_process_run_matches_a_process_run(args, code,
                                                        monkeypatch):
    """The sweep's in-process run of cli.main gives the exit status,
    standard output and standard error of `python -m diffmod.cli`: on a
    success, on a refused `spencer` input and on an argparse error."""
    sweep = _cli_sweep()
    monkeypatch.chdir(sweep.ROOT)
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=str(sweep.ROOT / "src"))

    def untimed(run):
        status, out, err = run
        return status, [line for line in out.splitlines()
                        if '"elapsed_ms":' not in line], err

    got = untimed(sweep.run_in_process(args))
    assert got == untimed(sweep.run_process(args, env))
    assert got[0] == code
