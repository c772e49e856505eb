from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from steklov_trees import harmonic
from steklov_trees.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

BALL32 = '{"family":"BALL","D":3,"r":2}'

# sha256 of reports past the dense limit, recorded with the scalar
# one-vertex-at-a-time pencil count; the level-by-level count must keep
# every byte
PENCIL_REPORT_DIGESTS = [
    (["bounds", "--family", '{"family":"BALL","D":3,"r":8}', "--k", "3,5"],
     "6256cab8adb12e2651bee5f42e99d0f30d2395e05659e8f36373bcc7aee59761"),
    (["bounds", "--family",
      '{"family":"RANDOM_INTERIOR3","n_target":600,"max_degree":5,"seed":3}',
      "--k", "3,5"],
     "eace55bf1dbbac7e55ae8590d3e8388e867b232137a274cbb6ec39056096b46a"),
    (["sweep", "--family", '{"family":"BALL","D":3,"r":[1,8]}', "--format", "json"],
     "de0e8687d4d5b25482f4f29696f699fe334201fda2613856291f071a1bbcfe64"),
    # recorded with the plain bisection loop, before the replay from
    # count-certified brackets: lambda_1 = 0 and the ball's multiple
    # eigenvalues (m = 384, k = 1..12), and lambda_2 of 199 paths
    (["spectrum", "--family", '{"family":"BALL","D":3,"r":8}'],
     "a7c9568895b4bc54b23c2950142d76d533ceb91a0c238d8f34ce9808949493d0"),
    (["sweep", "--family", '{"family":"PATH","L":[2,200]}'],
     "98e60365f0e5fb0af6921e527441c712dc8eae138e29b895753e4f73fbae1303"),
]

# sha256 of reports within the dense limit (boundary sizes 108, 151, 199
# and 24).  The ball's spectrum pin was recorded with the one-vertex-at-a-time
# interior elimination and the np.add.at Laplacian, the two trees' without
# symmetry with the level rounds before the ordered scatter-add replaced
# them; the harmonic layer must keep every byte, eigenfunctions included.
# The bounds pins were recorded once bounds bisected every lambda_k at every
# size; against the dense route's reports only measured and tightness moved
_BALL44 = '{"family":"BALL","D":4,"r":4}'
_INTERIOR3_M151 = '{"family":"RANDOM_INTERIOR3","n_target":250,"max_degree":4,"seed":7}'
_INTERIOR3_M199 = '{"family":"RANDOM_INTERIOR3","n_target":333,"max_degree":4,"seed":2}'
DENSE_REPORT_DIGESTS = [
    (["bounds", "--family", _BALL44, "--k", "3,5", "--format", "json"],
     "b24b43c9c2cf26ffc221785614247325807f38ca8c32da7cf5072dea2179783d"),
    (["bounds", "--family", _BALL44, "--k", "3,5", "--format", "csv"],
     "3d90a0c6283291c5c153bd28ae2f5ef4c7058a18933f057843d734b407e5fe90"),
    (["bounds", "--family", _INTERIOR3_M151, "--k", "3,5", "--format", "json"],
     "63605a72978e2ff974424bc1ee17d187db99b87f0122931f58fc0c0cf9debfdc"),
    (["bounds", "--family", _INTERIOR3_M151, "--k", "3,5", "--format", "csv"],
     "c1a5b2fb900a9ad5c879a82f6e00b18a4e767b87f83a5236903a2133bd9baf63"),
    (["bounds", "--family", _INTERIOR3_M199, "--k", "3,5", "--format", "json"],
     "482e3f66b2e8b169c38e6e714e16a38df22c586990335fae32b2f7df67c16ece"),
    (["bounds", "--family", _INTERIOR3_M199, "--k", "3,5", "--format", "csv"],
     "db5a27020f5fa89859a7e33fd570d2348d339f9e42c09276fe2948c9e720dd26"),
    (["spectrum", "--family", '{"family":"BALL","D":3,"r":4}', "--eigenfunctions"],
     "f5aeb6a1a446c6f4b4d9d7f547e2187827e7c5f3594455174c92e4e9f308517f"),
    (["spectrum", "--family", _INTERIOR3_M151, "--eigenfunctions"],
     "eca40ff291b0d54ed43111b3d91712690b416fea8250d06b02dd7a12eedca5e5"),
    (["spectrum", "--family", _INTERIOR3_M199, "--format", "csv"],
     "9b6e2487475500958e3695f9dca8061e6fc06fefdea83cc4434a69325baee27b"),
]


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- spectrum ---------------------------------------------------------------------

def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--family", BALL32)
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == "steklov-trees/1"
    assert obj["command"] == "spectrum"
    assert obj["tree_id"] == "BALL(D=3,r=2)"
    assert obj["n"] == 10 and obj["boundary_size"] == 6
    assert obj["partial"] is False
    assert obj["eigenvalues"][1] == pytest.approx(1 / 3, abs=1e-9)
    assert "boundary_eigenvectors" not in obj


def test_spectrum_eigenfunctions(capsys):
    code, out, _ = run(capsys, "spectrum", "--family", BALL32, "--eigenfunctions")
    assert code == 0
    obj = json.loads(out)
    assert obj["boundary_vertices"] == [4, 5, 6, 7, 8, 9]
    assert len(obj["boundary_eigenvectors"]) == 6


def test_spectrum_csv(capsys):
    code, out, _ = run(capsys, "spectrum", "--family", BALL32, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 7
    assert float(lines[2].split(",")[1]) == pytest.approx(1 / 3, abs=1e-9)


def test_spectrum_from_files(tmp_path, capsys):
    edge_file = tmp_path / "t.txt"
    edge_file.write_text("0 1\n1 2\n# comment\n2 3\n")
    code, out, _ = run(capsys, "spectrum", "--input", str(edge_file))
    assert code == 0
    assert json.loads(out)["n"] == 4

    json_file = tmp_path / "t.json"
    json_file.write_text('{"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}')
    code, out, _ = run(capsys, "spectrum", "--input", str(json_file))
    assert code == 0
    assert json.loads(out)["boundary_size"] == 2


def test_spectrum_out_file(tmp_path, capsys):
    target = tmp_path / "spec.json"
    code, out, _ = run(capsys, "spectrum", "--family", BALL32, "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["n"] == 10


# -- bounds -----------------------------------------------------------------------

def test_bounds_json(capsys):
    code, out, _ = run(capsys, "bounds", "--family", BALL32)
    assert code == 0
    obj = json.loads(out)
    ids = [r["bound_id"] for r in obj["reports"]]
    assert ids == ["LAM2_BOUNDARY", "LAM2_VOLUME", "LAM2_DIAMETER",
                   "LAMK_BOUNDARY", "LAMK_VOLUME", "LAMK_BOUNDARY", "LAMK_VOLUME",
                   "LEMMA_DV", "PROP_L"]
    assert all(r["holds"] in (True, None) for r in obj["reports"])


def test_bounds_csv_k_selection(capsys):
    code, out, _ = run(capsys, "bounds", "--family", BALL32, "--k", "3",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "tree_id,bound_id,bound,measured,tightness,holds"
    assert len(lines) == 1 + 7  # three lam2 + one k pair + two structural
    assert lines[1].startswith("BALL(D=3,r=2),LAM2_BOUNDARY,")
    assert lines[1].endswith(",true")


def test_bounds_k_validation(capsys):
    code, _, err = run(capsys, "bounds", "--family", BALL32, "--k", "2,x")
    assert code == 2 and "bad --k" in err
    code, _, err = run(capsys, "bounds", "--family", BALL32, "--k", "1")
    assert code == 2


def test_bounds_k_past_the_float_range_is_reported_outside_the_boundary(capsys):
    # 8 (D-1)^2 (k-1) / |boundary| does not fit a float: no traceback, the
    # usual out-of-range entry with a null bound
    huge = "1" + "0" * 330
    code, out, err = run(capsys, "bounds", "--family", BALL32, "--k", huge)
    assert (code, err) == (0, "")
    lamk = [r for r in json.loads(out)["reports"] if r["bound_id"].startswith("LAMK")]
    assert [r["bound_id"] for r in lamk] == ["LAMK_BOUNDARY", "LAMK_VOLUME"]
    for r in lamk:
        assert r["note"] == f"k={huge} outside 3..6"
        assert (r["bound_value"], r["measured"], r["holds"], r["preconditions_met"]) == (
            None, None, None, False)
    code, out, _ = run(capsys, "bounds", "--family", BALL32, "--k", huge, "--format", "csv")
    assert code == 0
    assert [line for line in out.splitlines() if ",LAMK_" in line] == [
        "BALL(D=3,r=2),LAMK_BOUNDARY,,,,", "BALL(D=3,r=2),LAMK_VOLUME,,,,"]
    # an index past the boundary whose bound is a float keeps its value
    code, out, _ = run(capsys, "bounds", "--family", BALL32, "--k", "9")
    lamk = [r for r in json.loads(out)["reports"] if r["bound_id"] == "LAMK_BOUNDARY"]
    assert lamk[0]["bound_value"] == 8 * 2**2 * 8 / 6 and lamk[0]["note"] == "k=9 outside 3..6"


def test_bounds_tol_flag(capsys):
    code, out, _ = run(capsys, "bounds", "--family", BALL32, "--tol", "0.5")
    assert code == 0
    code, _, err = run(capsys, "bounds", "--family", BALL32, "--tol", "-1")
    assert code == 2
    # a non-finite slack is a usage error, not a report of all-false or
    # all-true bounds (or a NaN in the JSON)
    for bad in ("nan", "inf", "-inf"):
        code, out, err = run(capsys, "bounds", "--family", BALL32, f"--tol={bad}")
        assert (code, out) == (2, "") and "--tol must be finite and positive" in err
        code, out, err = run(capsys, "verify", "--trials", "2", "--max-n", "10", f"--tol={bad}")
        assert (code, out) == (2, "") and "--tol must be finite and positive" in err


def test_tol_env_override(capsys, monkeypatch):
    monkeypatch.setenv("STEKLOV_TOL", "0.125")
    code, out, _ = run(capsys, "bounds", "--family", BALL32)
    assert code == 0
    monkeypatch.setenv("STEKLOV_TOL", "banana")
    code, _, err = run(capsys, "bounds", "--family", BALL32)
    assert code == 2
    for bad in ("nan", "inf", "0", "-1e-8"):
        monkeypatch.setenv("STEKLOV_TOL", bad)
        code, out, err = run(capsys, "bounds", "--family", BALL32)
        assert (code, out) == (2, "")
        assert "STEKLOV_TOL must be finite and positive" in err


def test_repeated_calls_share_one_parser(capsys, monkeypatch):
    # the parser is built once per process; each call still parses its own
    # argv, reads STEKLOV_TOL afresh and keeps the exit-code contract
    from steklov_trees import cli

    def slack(*argv):
        code, out, _ = run(capsys, "verify", "--trials", "2", "--max-n", "10", *argv)
        assert code == 0
        return json.loads(out)["config"]["bound_slack"]

    monkeypatch.delenv("STEKLOV_TOL", raising=False)
    code, first, _ = run(capsys, "bounds", "--family", BALL32, "--format", "csv")
    assert code == 0
    assert run(capsys, "bounds", "--family", BALL32, "--k", "2,x")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "bounds", "--family", BALL32, "--format", "csv") == (0, first, "")
    # lambda_2 of BALL(3,3) is 1/7, far above the threshold
    unreached = ["sweep", "--family", '{"family":"BALL","D":3,"r":[1,3]}',
                 "--threshold", "0.001"]
    assert run(capsys, *unreached)[0] == 1
    assert run(capsys, "bounds", "--family", BALL32, "--format", "csv") == (0, first, "")
    assert slack() == 1e-8
    monkeypatch.setenv("STEKLOV_TOL", "0.125")
    assert slack() == 0.125
    assert slack("--tol", "0.5") == 0.5
    monkeypatch.setenv("STEKLOV_TOL", "banana")
    assert run(capsys, "bounds", "--family", BALL32)[0] == 2
    monkeypatch.delenv("STEKLOV_TOL")
    assert slack() == 1e-8
    assert cli._parser() is cli._parser()


def test_subcommands_dispatch_through_the_module_binding(capsys, monkeypatch):
    from steklov_trees import cli

    calls = []
    monkeypatch.setattr(cli, "cmd_generate", lambda args: calls.append(args.family) or 0)
    assert run(capsys, "generate", "--family", BALL32) == (0, "", "")
    assert calls == [BALL32]


# -- generate ---------------------------------------------------------------------

def test_generate_edges(capsys):
    code, out, err = run(capsys, "generate", "--family", BALL32)
    assert code == 0
    assert out.splitlines()[0] == "0 1"
    assert len(out.strip().splitlines()) == 9
    assert "n=10 boundary=6 max_degree=3 diameter=4" in err


def test_generate_json(capsys):
    code, out, _ = run(capsys, "generate", "--family", BALL32, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 10
    assert obj["edges"][0] == [0, 1]


def test_generate_to_file_stats_on_stdout(tmp_path, capsys):
    target = tmp_path / "tree.txt"
    code, out, _ = run(capsys, "generate", "--family", BALL32, "--out", str(target))
    assert code == 0
    assert "n=10" in out  # stats move to stdout when the tree goes to a file
    assert target.read_text().startswith("0 1\n")


def test_generate_bad_family(capsys):
    code, _, err = run(capsys, "generate", "--family", '{"family":"NOPE"}')
    assert code == 2
    code, _, err = run(capsys, "generate", "--family", "{not json")
    assert code == 2


# -- verify -----------------------------------------------------------------------

def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--trials", "10", "--max-n", "20",
                       "--seed", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["overall_pass"] is True
    assert obj["config"]["trials"] == 10
    assert obj["config"]["interior3_trials"] == 3  # 3/10 of the trial count


def test_verify_csv_and_determinism(capsys):
    args = ("verify", "--trials", "8", "--max-n", "18", "--seed", "5",
            "--format", "csv")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "check,passed,failed,skipped"


def test_verify_rejects_bad_params(capsys):
    code, _, _ = run(capsys, "verify", "--trials", "0")
    assert code == 2


# -- sweep ------------------------------------------------------------------------

def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--family", '{"family":"PATH","L":[2,40]}',
                       "--threshold", "0.05")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("tree_id,n,boundary,D,L,lambda2,")
    assert len(lines) == 40
    first = lines[1].split(",")
    assert first[0] == "PATH(L=2)" and first[4] == "2"
    # paths have an interior degree-2 vertex: volume columns stay empty
    assert first[8] == "" and first[9] == ""


def test_sweep_json_pass_fail(capsys):
    code, out, _ = run(capsys, "sweep", "--family", '{"family":"BALL","D":3,"r":[1,8]}',
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["passed"] is True

    code, out, _ = run(capsys, "sweep", "--family", '{"family":"BALL","D":3,"r":[1,4]}',
                       "--format", "json")
    assert code == 1  # lambda_2(r=4) = 1/15 is still above the 0.01 threshold
    assert json.loads(out)["passed"] is False


def test_sweep_range_validation(capsys):
    code, _, err = run(capsys, "sweep", "--family", '{"family":"PATH","L":4}')
    assert code == 2 and "exactly one parameter" in err
    code, _, _ = run(capsys, "sweep", "--family",
                     '{"family":"PATH","L":[4,2]}')
    assert code == 2
    code, _, _ = run(capsys, "sweep", "--family",
                     '{"family":"BALL","D":[3,4],"r":[1,2]}')
    assert code == 2
    for bad in ("nan", "inf", "-inf"):
        code, out, err = run(capsys, "sweep", "--family", '{"family":"PATH","L":[2,8]}',
                             f"--threshold={bad}")
        assert (code, out) == (2, "") and "--threshold must be finite" in err


@pytest.mark.parametrize("argv,message", [
    (["bounds", "--family", '{"family":"PATH","L":40,"seed":false}'],
     "parameter seed=False must be an integer"),
    (["bounds", "--family", '{"family":"RANDOM","n":true,"max_degree":3,"seed":1}'],
     "parameter n=True must be an integer"),
    (["sweep", "--family", '{"family":"PATH","L":[2,8],"seed":true}'],
     "parameter seed=True must be an integer"),
    (["sweep", "--family", '{"family":"PATH","L":[true,8]}'], "range for L must be"),
    (["sweep", "--family", '{"family":"PATH","L":[2,true]}'], "range for L must be"),
])
def test_family_booleans_are_usage_errors(argv, message, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_sweep_extremal_middle_ranges_even_lengths(capsys):
    code, out, _ = run(capsys, "sweep", "--family",
                       '{"family":"EXTREMAL_MIDDLE","L":[4,12],"variant":"A"}',
                       "--threshold", "0.2")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert [r.split("),")[0] for r in rows] == [
        f"EXTREMAL_MIDDLE(L={ell},variant=A" for ell in (4, 6, 8, 10, 12)]


def test_sweep_extremal_middle_rejects_a_range_without_even_lengths(capsys):
    code, out, err = run(capsys, "sweep", "--family",
                         '{"family":"EXTREMAL_MIDDLE","L":[5,5],"variant":"A"}')
    assert code == 2 and out == ""
    assert "needs an even L" in err and "[5, 5] holds no even value" in err


def test_sweep_skips_members_whose_size_repeats(capsys):
    # interior-3 trees overshoot n_target, so neighbouring targets repeat sizes
    spec = '{"family":"RANDOM_INTERIOR3","n_target":[20,40],"max_degree":4,"seed":1}'
    code, out, err = run(capsys, "sweep", "--family", spec, "--threshold", "0.5")
    assert code == 0
    sizes = [int(row.split("),")[1].split(",")[0]) for row in out.strip().splitlines()[1:]]
    assert sizes == [21, 23, 26, 28, 31, 33, 35, 37, 39, 41]
    assert "n_target=21" not in out
    assert len(err.splitlines()) == 1
    assert err.startswith("sweep: skipped 11 member(s)")
    assert "RANDOM_INTERIOR3(max_degree=4,n_target=21,seed=1) (n=21)" in err
    code, out, err = run(capsys, "sweep", "--family", spec, "--threshold", "0.5",
                         "--format", "json")
    assert [row["n"] for row in json.loads(out)["rows"]] == sizes
    assert "skipped" not in out


def test_sweep_refuses_a_range_of_one_size(capsys):
    code, out, err = run(capsys, "sweep", "--family",
                         '{"family":"RANDOM_INTERIOR3","n_target":[20,21],"max_degree":4,'
                         '"seed":1}')
    assert (code, out) == (2, "")
    assert "sweep needs two members of growing vertex count" in err
    assert "more than its 21 vertices" in err


# -- top-level dispatch --------------------------------------------------------------

def test_missing_tree_source(capsys):
    code, _, err = run(capsys, "spectrum")
    assert code == 2 and "required" in err


def test_malformed_input_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n1\n")
    code, _, err = run(capsys, "spectrum", "--input", str(bad))
    assert code == 2 and "expected 'u v'" in err


def test_a_stray_large_id_in_an_input_file_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "stray.txt"
    bad.write_text("0 1\n1 1000000000000000\n")
    code, out, err = run(capsys, "bounds", "--input", str(bad))
    assert code == 2 and out == ""
    assert err == ("error: vertex ids not contiguous; missing 999999999999998 ids, "
                   "the first ten [2, 3, 4, 5, 6, 7, 8, 9, 10, 11]\n")


@pytest.mark.parametrize("text,message", [
    ('{"n":3,"edges":[1,2]}', "edge 1 is not a pair"),
    ('{"n":3,"edges":5}', "'edges' must be a list"),
    ('{"n":[3],"edges":[[0,1],[1,2]]}', "'n' must be an integer"),
], ids=["edge-not-a-pair", "edges-not-a-list", "n-not-a-number"])
def test_malformed_json_tree_is_a_usage_error(text, message, tmp_path, capsys):
    bad = tmp_path / "t.json"
    bad.write_text(text)
    code, out, err = run(capsys, "bounds", "--input", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("spec", ["[1,2]", '"PATH"'])
def test_sweep_family_that_is_not_an_object_is_a_usage_error(spec, capsys):
    code, out, err = run(capsys, "sweep", "--family", spec)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "family spec must be a dict" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "spectrum", "--input", "no-such-file.txt")
    assert code == 2


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


# -- report bytes on the pencil route -----------------------------------------------

@pytest.mark.parametrize("argv,digest", PENCIL_REPORT_DIGESTS,
                         ids=["bounds-ball38", "bounds-interior3-m402", "sweep-ball3",
                              "spectrum-ball38", "sweep-path"])
def test_pencil_route_report_bytes_match_recorded_digests(argv, digest, capsys):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", DENSE_REPORT_DIGESTS,
                         ids=["bounds-ball44-json", "bounds-ball44-csv",
                              "bounds-interior3-m151-json", "bounds-interior3-m151-csv",
                              "bounds-interior3-m199-json", "bounds-interior3-m199-csv",
                              "spectrum-ball34-eigenfunctions",
                              "spectrum-interior3-m151-eigenfunctions",
                              "spectrum-interior3-m199-csv"])
def test_dense_route_report_bytes_match_recorded_digests(argv, digest, capsys):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- one route for the eigenvalues of bounds and sweep ------------------------------

def test_bounds_and_sweep_run_without_the_dense_route(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise RuntimeError("bounds and sweep must not reach the dense route")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(harmonic, "dtn_matrices", refuse)
    assert run(capsys, "bounds", "--family", _BALL44, "--k", "3,5")[0] == 0
    # lambda_2 of BALL(3,6) is 1/63, under the threshold
    assert run(capsys, "sweep", "--family", '{"family":"BALL","D":3,"r":[1,6]}',
               "--threshold", "0.02")[0] == 0


# the first tree's report differed between one BLAS thread and two while
# bounds read lambda_k off eigh for boundary sizes up to the dense limit
_BLAS_PINNED_BOUNDS = [
    '{"family":"RANDOM_INTERIOR3","n_target":300,"max_degree":4,"seed":3}',
    _BALL44, _INTERIOR3_M151, _INTERIOR3_M199,
]


def test_bounds_bytes_do_not_depend_on_the_blas_thread_count():
    code = ("from steklov_trees.cli import main\n"
            f"for family in {_BLAS_PINNED_BOUNDS!r}:\n"
            "    assert main(['bounds', '--family', family, '--k', '3,5']) == 0\n")
    outs = []
    for threads in ("1", "2", "4"):
        env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        env.pop("STEKLOV_TOL", None)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] == outs[2]
    assert outs[0].count('"command": "bounds"') == len(_BLAS_PINNED_BOUNDS)
