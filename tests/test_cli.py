"""Command-line interface: golden examples, exit codes, deterministic JSON."""

import hashlib
import json
import subprocess
import sys

import pytest

from unavoidable import contains_clique, is_admissible, parse_scx
from unavoidable.cli import build_parser, run
from unavoidable.errors import BudgetExceededError


def _capture(capsys):
    out = capsys.readouterr()
    return out.out, out.err


def _strip_timings(json_text: str) -> str:
    obj = json.loads(json_text)
    obj.pop("timings", None)
    return json.dumps(obj, sort_keys=True)


@pytest.fixture
def points5(tmp_path, capsys):
    path = tmp_path / "points5.scx"
    assert run(["gen", "points", "--m", "5", "-o", str(path)]) == 0
    capsys.readouterr()
    return str(path)


@pytest.fixture
def skel15(tmp_path, capsys):
    path = tmp_path / "skel15.scx"
    assert run(["gen", "skeleton", "--k", "1", "--m", "5", "-o", str(path)]) == 0
    capsys.readouterr()
    return str(path)


def test_pi_command(points5, capsys):
    assert run(["pi", points5]) == 0
    out, _ = _capture(capsys)
    assert out.splitlines()[0] == "pi = 3"

    assert run(["pi", points5, "--check", "3", "--check", "3:2"]) == 0
    out, _ = _capture(capsys)
    assert "3-unavoidable = true" in out
    assert "(3,2)-unavoidable = false" in out

    # pi = 3 (D = 2): the check at r = D = 2 fails, with the least witness.
    assert run(["--json", "pi", points5, "--check", "2"]) == 0
    (check,) = json.loads(_capture(capsys)[0])["results"]["r_checks"]
    assert check["verdict"] is False
    assert check["witness"] == {"blocks": [[1, 2, 5], [3, 4]], "offending": [True, True]}


def test_pi_json_report(points5, capsys):
    assert run(["--json", "pi", points5]) == 0
    out, _ = _capture(capsys)
    report = json.loads(out)
    assert report["command"] == "pi"
    assert report["results"]["pi"] == 3
    assert report["results"]["D"] == 2
    assert report["results"]["witness_blocks"] == [[1, 2], [3, 4]]
    assert report["results"]["leftover"] == [5]
    assert list(report["inputs"].values())[0].startswith("sha256:")


def test_pi_on_one_large_facet(tmp_path, capsys):
    # 2^39 faces: the minimal non-faces must come without visiting them.
    text = "m 40\n" + " ".join(str(v) for v in range(1, 40)) + "\n"
    assert parse_scx(text).min_nonfaces == (1 << 39,)
    path = tmp_path / "m40.scx"
    path.write_text(text)
    assert run(["pi", str(path), "--json"]) == 0
    out, _ = _capture(capsys)
    assert json.loads(out)["results"]["pi"] == 2


def test_analyze_command(skel15, points5, capsys):
    assert run(["analyze", skel15, "--r", "2"]) == 0
    out, _ = _capture(capsys)
    assert "self_dual = true" in out
    assert "unavoidable = true" in out
    assert "minimally_unavoidable = true" in out
    assert "pi = 2" in out
    # points(5) packs two disjoint pairs, so the witness search runs.
    assert run(["--json", "analyze", points5, "--r", "2"]) == 0
    results = json.loads(_capture(capsys)[0])["results"]
    assert (results["pi"], results["unavoidable"], results["minimally_unavoidable"]) == (3, False, False)
    assert results["witness"] == {"blocks": [[1, 2, 5], [3, 4]], "offending": [True, True]}


def test_analyze_rejects_r_below_two(skel15, tmp_path, capsys):
    full = tmp_path / "full.scx"
    full.write_text("m 3\n1 2 3\n")
    for path in (skel15, str(full)):
        for r in ("1", "0"):
            assert run(["analyze", path, "--r", r]) == 2
            assert "r must be at least 2" in capsys.readouterr().err


def test_pi_check_rejects_r_below_two(skel15, tmp_path, capsys):
    full = tmp_path / "full.scx"
    full.write_text("m 3\n1 2 3\n")
    for path in (skel15, str(full)):
        for r in ("1", "0"):
            assert run(["pi", path, "--check", r]) == 2
            assert "r must be at least 2" in capsys.readouterr().err


def test_dual_self_dual_complex(skel15, capsys):
    assert run(["dual", skel15]) == 0
    out, _ = _capture(capsys)
    with open(skel15) as fh:
        assert out.strip() == fh.read().strip()


def test_dual_void(tmp_path, capsys):
    path = tmp_path / "full.scx"
    path.write_text("m 3\n1 2 3\n")
    assert run(["dual", str(path)]) == 0
    out, _ = _capture(capsys)
    assert out.strip() == "void"
    assert run(["--json", "dual", str(path)]) == 0
    out, _ = _capture(capsys)
    assert json.loads(out)["results"] == {"void": True, "scx": None}
    # The void family has no .scx form: with -o, say so and write nothing.
    target = tmp_path / "out.scx"
    for argv in (["dual", str(path), "-o", str(target)],
                 ["--json", "dual", str(path), "-o", str(target)]):
        assert run(argv) == 2
        out, err = _capture(capsys)
        assert out == ""
        assert err == (f"error: {path}: the Alexander dual is void and has no .scx form; "
                       f"{target} not written\n")
        assert not target.exists()


def test_realize_command(points5, capsys):
    assert run(["realize", points5, "--r", "3"]) == 0
    out, _ = _capture(capsys)
    assert "feasible = true" in out
    assert "margin = 1/15" in out


def test_realize_with_a_huge_r(points5, capsys):
    # points(5) is r-unavoidable for every r >= 3, but no probability puts
    # all five singleton facets at or below 1/r.
    assert run(["realize", points5, "--r", "1000000000000"]) == 0
    out, _ = _capture(capsys)
    assert out.splitlines()[0] == "feasible = false"


def test_wh_canonical_and_check(skel15, tmp_path, capsys):
    assert run(["--json", "wh", skel15, "--canonical"]) == 0
    out, _ = _capture(capsys)
    weights = json.loads(out)["results"]
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps(weights))
    assert run(["wh", skel15, "--r", "2", "--weights", str(wfile)]) == 0
    out, _ = _capture(capsys)
    assert "verdict = true" in out


def test_wh_weights_zero_denominator_is_input_error(skel15, tmp_path, capsys):
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"m": 5, "family": [[1]], "omega": ["1/0"]}))
    assert run(["wh", skel15, "--r", "2", "--weights", str(wfile)]) == 2
    _, err = _capture(capsys)
    assert err.startswith("error: ") and "Traceback" not in err


def test_wh_weights_bare_int_members_are_input_errors(tmp_path, capsys):
    # 5 and 10 are not vertex lists; read as masks they would be {1,3} and {2,4}.
    path = tmp_path / "p4.scx"
    assert run(["gen", "points", "--m", "4", "-o", str(path)]) == 0
    wfile = tmp_path / "w.json"
    for family in ([5, 10], [[1, 3], True]):
        wfile.write_text(json.dumps({"m": 4, "family": family, "omega": ["1", "1"]}))
        capsys.readouterr()
        assert run(["wh", str(path), "--weights", str(wfile)]) == 2
        _, err = _capture(capsys)
        assert err.startswith("error: ") and "vertex lists" in err
    wfile.write_text(json.dumps({"m": 4, "family": [[1, 3], [2, 4]], "omega": ["1", "1"]}))
    assert run(["wh", str(path), "--weights", str(wfile)]) == 0
    assert "verdict = false" in _capture(capsys)[0]


def test_wh_weights_not_an_object_is_input_error(tmp_path, capsys):
    path = tmp_path / "p2.scx"
    assert run(["gen", "points", "--m", "2", "-o", str(path)]) == 0
    wfile = tmp_path / "w.json"
    wfile.write_text("[1, 2]")
    capsys.readouterr()
    assert run(["wh", str(path), "--weights", str(wfile)]) == 2
    out, err = _capture(capsys)
    assert out == "" and err == (f'error: {wfile}: weights must be a JSON object with keys '
                                 f'"m", "family" and "omega"\n')


def test_wh_weights_string_omega_is_input_error(tmp_path, capsys):
    # "11" is not a weight list; read per character it would be the weights 1 and 1.
    path = tmp_path / "p2.scx"
    assert run(["gen", "points", "--m", "2", "-o", str(path)]) == 0
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"m": 2, "family": [[1], [2]], "omega": "11"}))
    capsys.readouterr()
    assert run(["wh", str(path), "--weights", str(wfile)]) == 2
    _, err = _capture(capsys)
    assert err.startswith(f"error: {wfile}: ") and "omega" in err
    wfile.write_text(json.dumps({"m": 2, "family": [[1], [2]], "omega": ["1", "1"]}))
    assert run(["wh", str(path), "--weights", str(wfile)]) == 0
    assert "verdict = true" in _capture(capsys)[0]


def test_wh_canonical_rejects_non_selfdual(points5, capsys):
    assert run(["wh", points5, "--canonical"]) == 2
    _, err = _capture(capsys)
    assert "self-dual" in err


def test_gen_ramsey_with_admissibility(tmp_path, capsys):
    path = tmp_path / "r5.scx"
    code = run(["gen", "ramsey", "--n", "5", "--clique", "3", "--r", "2",
                "--check-admissible", "-o", str(path)])
    assert code == 0
    out, _ = _capture(capsys)
    assert "admissible = false" in out
    assert path.read_text().startswith("m 10\n")


def test_gen_ramsey_admissibility_past_the_coloring_scan(capsys):
    # 3^21 colorings are past the reference scan's budget; the packing search
    # decides 3-unavoidability of the 21-vertex complex at once.
    with pytest.raises(BudgetExceededError):
        is_admissible(7, contains_clique(3), 3)
    assert run(["gen", "ramsey", "--n", "7", "--clique", "3", "--r", "3",
                "--check-admissible"]) == 0
    assert _capture(capsys)[0].splitlines()[0] == "admissible = true"
    # A "no" answer comes from the same search: none of the 2^10 colorings
    # of K_5's edges is scanned.
    assert run(["gen", "ramsey", "--n", "5", "--clique", "3", "--r", "2",
                "--check-admissible"]) == 0
    assert _capture(capsys)[0].splitlines()[0] == "admissible = false"


def test_gen_ramsey_no_empty_classes(capsys):
    # An empty coloring class is the empty face: no flag turns that off or on.
    argv = ["gen", "ramsey", "--n", "5", "--clique", "3", "--r", "3", "--check-admissible"]
    assert run(argv) == 0
    assert _capture(capsys)[0].splitlines()[0] == "admissible = true"
    for flag in ("--no-empty-classes", "--allow-empty-classes"):
        assert run(argv + [flag]) == 1
        assert _capture(capsys)[1] == f"error: unrecognized arguments: {flag}\n"


def test_join_command(points5, capsys):
    assert run(["join", points5, points5]) == 0
    out, _ = _capture(capsys)
    assert out.startswith("m 10\n")


def test_deljoin_command(points5, capsys):
    assert run(["deljoin", points5, "--r", "2"]) == 0
    out, _ = _capture(capsys)
    assert "f_vector = [10, 20]" in out


def test_certify_exit_codes(points5, capsys):
    assert run(["certify", "--r", "3", "--d", "3", points5, points5, points5]) == 0
    capsys.readouterr()
    assert run(["certify", "--r", "3", "--d", "4", points5, points5, points5]) == 3
    capsys.readouterr()
    assert run(["certify", "--r", "6", "--d", "3", points5, points5, points5]) == 4
    capsys.readouterr()
    assert run(["certify", "--single", "--r", "3", "--d", "1", points5]) == 3
    capsys.readouterr()


def test_usage_and_parse_errors(tmp_path, capsys):
    assert run(["frobnicate"]) == 1
    capsys.readouterr()
    assert run([]) == 1
    capsys.readouterr()
    assert run(["pi"]) == 1
    capsys.readouterr()
    bad = tmp_path / "bad.scx"
    bad.write_text("m 3\n2 1\n")
    assert run(["pi", str(bad)]) == 2
    capsys.readouterr()
    missing = tmp_path / "missing.scx"
    assert run(["pi", str(missing)]) == 2
    capsys.readouterr()
    good = tmp_path / "good.scx"
    good.write_text("m 3\n1\n2\n3\n")
    # Usage errors are found before any input is read, so a missing file
    # does not turn them into input errors.
    for path in (good, missing):
        assert run(["pi", str(path), "--check", "3:2:9"]) == 1
        assert "use R or R:S" in capsys.readouterr().err
        assert run(["pi", str(path), "--check", "x"]) == 1
        assert capsys.readouterr().err == "error: argument --check: bad value 'x'; use R or R:S\n"
        assert run(["certify", "--single", "--r", "3", "--d", "1", str(good), str(path)]) == 1
        assert "exactly one complex" in capsys.readouterr().err
    ramsey = ["gen", "ramsey", "--n", "5", "--clique", "3", "--check-admissible"]
    for flag in (["--budget", "10"], ["--no-empty-classes"]):
        assert run(ramsey + flag) == 1
        out, err = _capture(capsys)
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_unwritable_output_is_a_usage_error(points5, tmp_path, capsys):
    target = str(tmp_path / "missing" / "x.scx")
    for argv in (["dual", points5], ["gen", "points", "--m", "5"], ["join", points5, points5]):
        assert run(argv + ["-o", target]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {target}: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_non_utf8_input_names_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.scx"
    bad.write_bytes(b"m 3\n1 \xff\n")
    assert run(["pi", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "utf-8" in err


def test_budget_exit_code(tmp_path, capsys):
    path = tmp_path / "p10.scx"
    run(["gen", "points", "--m", "10", "-o", str(path)])
    capsys.readouterr()
    assert run(["deljoin", str(path), "--r", "3", "--budget", "1000"]) == 5
    capsys.readouterr()
    skel = tmp_path / "skel.scx"
    run(["gen", "skeleton", "--k", "1", "--m", "5", "-o", str(skel)])
    capsys.readouterr()
    assert run(["realize", str(skel), "--r", "2", "--lp-cap", "3"]) == 5
    capsys.readouterr()


def test_gen_selfdual_sweep_cap_exit_code(capsys):
    assert run(["gen", "selfdual", "--m", "23", "--seed", "0"]) == 5
    _, err = _capture(capsys)
    assert "m <= 22" in err


@pytest.mark.parametrize("argv, message", [
    (["deljoin", "{points5}", "--r", "1000000000"], "bits"),
    (["gen", "skeleton", "--k", "5", "--m", "40"], "skeleton(5, 40)"),
])
def test_size_caps_exit_code(points5, capsys, argv, message):
    # Refused before anything is built: a one-line error and exit code 5.
    assert run([arg.format(points5=points5) for arg in argv]) == 5
    out, err = _capture(capsys)
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_global_flags_accepted_after_subcommand(points5, capsys):
    assert run(["pi", points5, "--json"]) == 0
    report = json.loads(_capture(capsys)[0])
    assert report["results"]["pi"] == 3
    assert run(["wh", points5, "--canonical", "--json"]) == 2  # still exit 2, parsed fine
    capsys.readouterr()
    assert run(["gen", "points", "--m", "3", "--json"]) == 0
    assert json.loads(_capture(capsys)[0])["results"]["scx"].startswith("m 3")


def test_repeat_runs_in_one_process_leave_no_state(points5, capsys):
    assert run(["pi", points5, "--check", "3", "--json"]) == 0
    assert len(json.loads(_capture(capsys)[0])["results"]["r_checks"]) == 1
    assert run(["pi", points5, "--json"]) == 0
    assert json.loads(_capture(capsys)[0])["results"]["r_checks"] == []
    assert run(["pi", points5]) == 0  # --json is not remembered either
    assert _capture(capsys)[0].splitlines()[0] == "pi = 3"
    for _ in range(2):
        assert run(["--help"]) == 0
        assert _capture(capsys)[0].startswith("usage: unavoidable")
        assert run(["pi", points5, "--frobnicate"]) == 1
        assert _capture(capsys)[1].startswith("error: unrecognized arguments")


def test_parser_is_built_once_per_process(points5, capsys):
    build_parser.cache_clear()
    assert run(["pi", points5, "--check", "3"]) == 0
    assert run(["--json", "pi", points5]) == 0
    capsys.readouterr()
    assert build_parser.cache_info().misses == 1


def test_import_does_not_load_openssl():
    # Input digests use the interpreter's built-in SHA-256; hashlib would load OpenSSL.
    code = "import sys, unavoidable.cli; sys.exit('_hashlib' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_closed_stdout_ends_quietly_with_exit_141():
    # About 185 kB of output: far more than a pipe buffers after one line is read.
    argv = [sys.executable, "-c", "from unavoidable.cli import main; main()",
            "gen", "skeleton", "--k", "5", "--m", "17"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"m 17\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == 141
    assert err == b""


def test_schema_flag(capsys):
    assert run(["--schema"]) == 0
    out, _ = _capture(capsys)
    schemas = json.loads(out)
    assert "report" in schemas and "certify" in schemas


GOLDEN = [
    ["--json", "pi", "{points5}"],
    ["--json", "pi", "{points5}", "--check", "3", "--check", "3:2"],
    ["--json", "analyze", "{skel15}", "--r", "2"],
    ["--json", "dual", "{skel15}"],
    ["--json", "realize", "{points5}", "--r", "3"],
    ["--json", "realize", "{skel15}", "--r", "2", "--relaxed"],
    ["--json", "wh", "{skel15}", "--canonical"],
    ["--json", "gen", "ramsey", "--n", "5", "--clique", "3", "--check-admissible"],
    ["--json", "gen", "selfdual", "--m", "6", "--seed", "11"],
    ["--json", "join", "{points5}", "{points5}"],
    ["--json", "deljoin", "{points5}", "--r", "2"],
    ["--json", "certify", "--r", "3", "--d", "3", "{points5}", "{points5}", "{points5}"],
]


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def test_report_inputs_are_file_digests_in_argument_order(points5, skel15, tmp_path, capsys):
    assert run(["--json", "join", points5, points5, skel15]) == 0
    report = json.loads(_capture(capsys)[0])
    assert list(report["inputs"].items()) == [(points5, _sha256(points5)),
                                              (skel15, _sha256(skel15))]

    wfile = tmp_path / "w.json"
    wfile.write_text('{"m": 5, "family": [[1, 2], [3, 4, 5]], "omega": ["1", "1/2"]}')
    assert run(["--json", "wh", skel15, "--r", "2", "--weights", str(wfile)]) == 0
    report = json.loads(_capture(capsys)[0])
    assert list(report["inputs"].items()) == [(skel15, _sha256(skel15)),
                                              (str(wfile), _sha256(wfile))]


def test_report_timings_keys(points5, skel15, capsys):
    for template in GOLDEN:
        argv = [a.format(points5=points5, skel15=skel15) for a in template]
        run(argv)
        timings = json.loads(_capture(capsys)[0])["timings"]
        expected = {"total_ms"} if argv[1] == "gen" else {"parse_ms", "total_ms"}
        assert set(timings) == expected, argv
        assert all(t >= 0 for t in timings.values()), argv


def test_json_identical_across_processes_and_hash_seeds(points5, tmp_path):
    # set-iteration order inside the library must never leak into output:
    # fresh interpreters with different hash seeds must emit identical bytes.
    import os

    argv = [sys.executable, "-m", "unavoidable.cli", "--json", "analyze", points5, "--r", "3"]
    outputs = set()
    for seed in ("0", "42", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
        obj = json.loads(proc.stdout)
        obj.pop("timings", None)
        outputs.add(json.dumps(obj))
    assert len(outputs) == 1


def test_json_reports_are_deterministic(points5, skel15, capsys):
    for template in GOLDEN:
        argv = [a.format(points5=points5, skel15=skel15) for a in template]
        outs = []
        for _ in range(2):
            run(argv)
            out, _ = _capture(capsys)
            outs.append(_strip_timings(out))
        assert len(set(outs)) == 1, argv
