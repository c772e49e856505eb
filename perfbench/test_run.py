"""Fast tests of the benchmark itself, on tiny inputs (``--smoke``).

Run from the repository root:  python3 -m pytest perfbench -q
"""
from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(*args, cwd=ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


def _record(proc) -> dict:
    path = re.search(r"record in (\S+)", proc.stderr).group(1)
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_emits_every_metric(workload, trace):
    proc, res = _run("--workload", workload, "--seed", "7", "--seconds", "0.5",
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 2
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in res["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in res["metrics"].values())
    rec = _record(proc)
    assert rec["failed_ratio"] == 0
    assert {"python", "numpy", "blas", "blas_threads", "nproc", "loadavg_start"} \
        <= set(rec["fingerprint"])


def _smoke_runner(workload: str, corrupt: bool):
    """A Runner on the smoke inputs, with every expected value perturbed if ``corrupt``."""
    import run
    from steklov_trees import cli

    d = os.path.join(ROOT, ".perfbench", "test-corrupt", workload)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    man = workloads.write_inputs(workload, 7, True, d)
    expect = run.expected_digests(man, smoke=True)
    if corrupt:
        expect = {name: "0" * 64 for name in expect}
        for op in man["passes"][0]:
            if op.get("lambda2") is not None:
                op["lambda2"] *= 1 + 1e-6
            if op.get("lambda2_rows"):
                op["lambda2_rows"] = [x * (1 + 1e-6) for x in op["lambda2_rows"]]
    runner = run.Runner(cli, man, expect)
    for _ in range(2):
        runner.run_pass(man["passes"][0])
    return runner


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_expectation_fails_every_op(workload):
    clean = _smoke_runner(workload, corrupt=False)
    assert clean.failures == [] and clean.op_count >= 2
    runner = _smoke_runner(workload, corrupt=True)
    assert {(f["op"], f["pass"]) for f in runner.failures} == \
        {(r["op"], i) for i, p in enumerate(runner.passes) for r in p["ops"]}
    assert len(runner.failures) == runner.op_count  # failed_ratio 1
    assert all(f["kind"] == "check" for f in runner.failures)


def test_failed_op_replays_from_its_record():
    runner = _smoke_runner("dense-bounds", corrupt=True)
    failure = runner.failures[0]
    op_sha = next(o["sha256"] for o in runner.passes[0]["ops"] if o["op"] == failure["op"])
    assert failure["family"]["family"] == "BALL"
    env = {**os.environ, "PYTHONPATH": "src"}
    env.pop("STEKLOV_TOL", None)
    replay = subprocess.run(failure["replay"], shell=True, cwd=ROOT, env=env,
                            capture_output=True, timeout=120)
    assert replay.returncode == 0
    assert hashlib.sha256(replay.stdout).hexdigest() == op_sha


@pytest.mark.parametrize("workload", ["dense-bounds", "pencil-large"])
def test_inputs_follow_the_seed(workload):
    d = os.path.join(ROOT, ".perfbench", "test-inputs", workload)
    digests = []
    for seed in (3, 3, 4):
        os.makedirs(d)
        man = workloads.write_inputs(workload, seed, False, d)
        digests.append(workloads.inputs_digest(d, man))
        shutil.rmtree(d)
    assert digests[0] == digests[1] != digests[2]


def test_verify_passes_cycle_through_recorded_seeds():
    d = os.path.join(ROOT, ".perfbench", "test-inputs", "verify")
    os.makedirs(d)
    man = workloads.write_inputs("verify-harness", 97, False, d)
    shutil.rmtree(d)
    seeds = [int(ops[0]["argv"][-1]) for ops in man["passes"]]
    assert seeds[:4] == [97, 98, 99, 0]
    assert sorted(seeds) == list(range(workloads.VERIFY_SEEDS))


def test_dense_inputs_stay_dense():
    from steklov_trees.spectra import DENSE_BOUNDARY_LIMIT

    d = os.path.join(ROOT, ".perfbench", "test-inputs", "dense-sizes")
    os.makedirs(d)
    man = workloads.write_inputs("dense-bounds", 11, False, d)
    shutil.rmtree(d)
    sizes = sorted(op["boundary"] for op in man["passes"][0])
    assert sizes == [60, 108, 150, 200]
    assert sizes[-1] <= DENSE_BOUNDARY_LIMIT


def test_bare_directory_fails_without_result():
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dense-bounds",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_crash_is_recorded_apart_from_failed_check():
    import run

    class Crashing:
        @staticmethod
        def main(argv):
            raise TypeError("boom")

    op = {"name": "crash", "kind": "bounds", "argv": ["bounds"], "trees": 1}
    runner = run.Runner(Crashing, {"passes": [[op]]}, {})
    runner.run_pass([op])
    assert [f["kind"] for f in runner.failures] == ["raised"]
    assert "TypeError: boom" in runner.failures[0]["detail"]
