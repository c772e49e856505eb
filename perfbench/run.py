#!/usr/bin/env python3
"""Benchmark of the steklov-trees package, driven through its CLI in-process.

Run from the repository root:

    python3 perfbench/run.py --workload dense-bounds --seed 7 --seconds 40 --trace 0

One process, one client, closed loop: each op (one ``steklov-trees``
invocation through ``steklov_trees.cli.main``) starts when the previous
one returns.  Inputs come from ``--seed`` alone.  Every op passes a
correctness gate (see ``workloads.gate``); an op that fails it, or raises,
counts in ``failed`` and is recorded with a command that replays it.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` runs every op untraced and traced, back to back, and
reports the per-layer metrics (see ``tracing.py``) and the tracing
overhead.  The last line of standard output is the JSON result; a fuller
record, with the machine fingerprint and every op's time, goes to
``.perfbench/<run>/result.json``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = ".perfbench"

# one BLAS thread: the dense matrices here are at most 220 wide, and a
# single thread keeps a 2-core machine steady
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

# Machine-speed probe.  On a shared 2-core machine, speed drifts by a
# fifth or more over minutes (other programs share its caches), which no
# run length averages out.  A fixed pure-Python loop, timed before and
# after every op, tracks that drift, so every reported time is scaled to
# the speed at which the probe takes PROBE_NOMINAL_S.  Over 10 seeds per
# workload the scaling narrowed the run-to-run IQR/median of trees_per_s
# from 0.13-0.22 to 0.02-0.09, and of slowest_op_s from 0.12-0.24 to
# 0.02-0.11, on each of the three workloads (see baseline.json).  The
# record keeps the measured times and the end-to-end values computed from
# them (``raw_metrics``).
PROBE_ITERATIONS = 100_000
PROBE_REPEATS = 3
PROBE_NOMINAL_S = 0.0085

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from tracing import LAYERS, Tracer, span_cost_s  # noqa: E402


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--setup-only", metavar="WORKDIR",
                    help=argparse.SUPPRESS)  # set-up child: write inputs, print digest
    return ap.parse_args(argv)


def _fingerprint() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def probe_s() -> float:
    """Median time of a fixed pure-Python loop: the machine's speed right now."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_ITERATIONS):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _at_nominal(t: float, before: float, after: float) -> float:
    """A measured time at nominal machine speed, by the probes on either side of it."""
    return t * 2 * PROBE_NOMINAL_S / (before + after)


def _setup(args, workdir: str) -> tuple[list[float], list[float], set[str]]:
    """Time SETUP_REPEATS fresh processes that import the package and write the inputs.

    Returns (normalized seconds, raw seconds, input digests).
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", workdir]
    if args.smoke:
        cmd.append("--smoke")
    samples, digests, probes = [], set(), [probe_s()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - t0)
        probes.append(probe_s())
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        digests.add(proc.stdout.split()[-1])
    return ([_at_nominal(t, a, b) for t, a, b in zip(samples, probes, probes[1:])],
            samples, digests)


def _run_op(cli, op: dict) -> tuple[float, int | None, str, str]:
    """(seconds, exit code or None if it raised, stdout, stderr or traceback)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(op["argv"])
        except Exception:  # a crash is recorded apart from a failed check
            dt = time.perf_counter() - t0
            return dt, None, out.getvalue(), traceback.format_exc()
        dt = time.perf_counter() - t0
    return dt, rc, out.getvalue(), err.getvalue().strip()


class Runner:
    """Runs a workload's passes in a closed loop and judges every op's output."""

    def __init__(self, cli, manifest: dict, expect: dict, tracer=None):
        self.cli = cli
        self.pass_ops = manifest["passes"]
        self.expect = expect          # op name -> recorded verify digest
        self.tracer = tracer
        self.passes: list[dict] = []
        self.failures: list[dict] = []
        self.first_digest: dict[str, str] = {}
        self.op_count = 0
        self.peak_rss_mb = 0.0

    def run_pass(self, ops: list[dict], modes: tuple[bool, ...] = (False,)) -> None:
        """Run every op once per trace mode in ``modes`` (False: untraced).

        Each op's runs follow one another, in an order that alternates from
        op to op, so the untraced and traced pass time the same work moments
        apart and slow drift of the machine's speed cancels between them.
        """
        base = len(self.passes)
        records = [[] for _ in modes]
        checks = [{"passed": 0, "skipped": 0} for _ in modes]
        before = probe_s()
        for op in ops:
            order = list(enumerate(modes))
            if self.op_count // len(modes) % 2:
                order.reverse()
            for i, traced in order:
                if traced:
                    self.tracer.op, self.tracer.op_kind = self.op_count, op["kind"]
                    self.tracer.install()
                try:
                    dt, rc, text, stderr = _run_op(self.cli, op)
                finally:
                    if traced:
                        self.tracer.restore()
                after = probe_s()
                self.op_count += 1
                rec = self._judge(op, base + i, dt, rc, text, stderr, checks[i])
                rec["norm_s"] = _at_nominal(dt, before, after)
                records[i].append(rec)
                before = after
        for traced, recs, chk in zip(modes, records, checks):
            self.passes.append({
                "traced": traced, "s": sum(r["s"] for r in recs),
                "norm_s": sum(r["norm_s"] for r in recs),
                "trees": sum(op["trees"] for op in ops), "ops": recs, "verify_checks": chk})

    def _judge(self, op, pass_no, dt, rc, text, stderr, checks) -> dict:
        digest = hashlib.sha256(text.encode()).hexdigest()
        rec = {"op": op["name"], "kind": op["kind"], "s": dt, "rc": rc, "sha256": digest}
        if rc is None:
            self._fail(op, pass_no, "raised", stderr)
            rec["ok"] = False
            return rec
        problems = workloads.gate(op, rc, text, self.expect.get(op["name"]))
        first = self.first_digest.setdefault(op["name"], digest)
        if digest != first:
            problems.append(f"report bytes differ from the first pass ({digest} != {first})")
        if rc != 0 and stderr:
            problems.append(f"stderr: {stderr}")
        if op["kind"] == "verify" and not problems:
            for c in json.loads(text)["checks"].values():
                checks["passed"] += c["passed"]
                checks["skipped"] += c["skipped"]
        if problems:
            self._fail(op, pass_no, "check", "; ".join(problems))
        rec["ok"] = not problems
        return rec

    def _fail(self, op: dict, pass_no: int, kind: str, detail: str) -> None:
        self.failures.append({
            "op": op["name"], "pass": pass_no, "kind": kind, "detail": detail,
            "replay": workloads.replay_command(op), "family": op.get("family"),
        })


def _pace(runner: Runner, seconds: float, paired: bool) -> None:
    """Closed loop of passes; stops before the next would overrun ``seconds``.

    With ``paired``, each input set gives an untraced and a traced pass.
    """
    modes = (False, True) if paired else (False,)
    start = time.perf_counter()
    group_s = []
    while True:
        ops = runner.pass_ops[len(group_s) % len(runner.pass_ops)]
        t0 = time.perf_counter()
        gc.collect()  # start every pass from the same heap state
        runner.run_pass(ops, modes)
        group_s.append(time.perf_counter() - t0)
        if not runner.peak_rss_mb and len(runner.passes) >= 2:
            # the package's tree caches grow with every pass, so peak memory
            # is read after a fixed amount of work, not at the end of the run
            runner.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if (len(runner.passes) >= 2
                and time.perf_counter() - start + max(group_s[-2:]) > seconds):
            return


def _end_to_end(runner: Runner, setup_samples: list[float], key: str = "norm_s") -> dict:
    """End-to-end metrics from each op's time under ``key``: ``norm_s``, at
    nominal machine speed (the reported values), or ``s``, as measured."""
    passes = runner.passes
    slowest = [max(r[key] for r in p["ops"] if r["kind"] in ("bounds", "verify"))
               for p in passes]
    return {
        "trees_per_s": sum(p["trees"] for p in passes) / sum(p[key] for p in passes),
        "slowest_op_s": statistics.median(slowest),
        "peak_rss_mb": runner.peak_rss_mb,
        "setup_s": statistics.median(setup_samples),
    }


def _per_layer(runner: Runner) -> tuple[dict, dict]:
    """(per-layer metric values per traced pass, full per-function table)."""
    tr = runner.tracer
    # every traced pass has an untraced twin on the same inputs (see run_pass)
    untraced = [p for p in runner.passes if not p["traced"]]
    traced = [p for p in runner.passes if p["traced"]]
    k = len(traced)
    table = tr.table()
    out = {}
    for name, row in table.items():
        for key, val in row.items():
            out[f"{name}.{key}"] = val / k
    for layer in LAYERS:
        rows = [r for n, r in table.items() if n.split(".")[0] == layer]
        out[f"{layer}.calls"] = sum(r["calls"] for r in rows) / k
        out[f"{layer}.self_s"] = sum(r["self_s"] for r in rows) / k
    trees = sum(p["trees"] for p in traced) / k
    bisect_calls = tr.bisect_calls_bounds
    dtn_calls = out["harmonic.dtn_matrix.calls"]
    pass_t = statistics.fmean(p["s"] for p in traced)
    pass_u = statistics.fmean(p["s"] for p in untraced)
    self_sum = sum(out[f"{layer}.self_s"] for layer in LAYERS)
    span_cost = len(tr.spans) / k * span_cost_s()
    out.update({
        "spectra.eigendecompose_symmetric.m3": tr.m3 / k,
        "spectra.steklov_eigenvalue_bisect.vertex_passes": tr.vertex_passes / k,
        "spectra.steklov_eigenvalue_bisect.distinct_ratio":
            len(tr.bisect_pairs) / bisect_calls if bisect_calls else 0.0,
        "harmonic.dtn_matrix.entries": tr.dtn_entries / k,
        "harmonic.dtn_matrix.reuse_ratio": trees / dtn_calls if dtn_calls else 0.0,
        "graph_core.diameter.calls_per_tree": out["graph_core.diameter.calls"] / trees,
        "verify.checks_passed": sum(p["verify_checks"]["passed"] for p in traced) / k,
        "verify.checks_skipped": sum(p["verify_checks"]["skipped"] for p in traced) / k,
        "trace.pass_s": pass_t,
        "trace.untraced_pass_s": pass_u,
        "trace.overhead_s": pass_t - pass_u,
        # cli.main is the root span of every op, so the self times sum to the traced
        # pass; what the calibrated span cost does not explain is noise or a miss
        "trace.self_sum_s": self_sum,
        "trace.span_cost_s": span_cost,
        "trace.unexplained_s": self_sum - pass_u - span_cost,
        "trace.trees": trees,
        "trace.spans": len(tr.spans) / k,
    })
    return out, table


def expected_digests(manifest: dict, smoke: bool) -> dict:
    """Op name -> recorded sha256 of its report, for every verify op that has one."""
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    out = {}
    for op in (op for ops in manifest["passes"] for op in ops):
        if op["kind"] == "verify":
            digest = workloads.expected_digest(op, smoke, expected)
            if digest is not None:
                out[op["name"]] = digest
    return out


def _setup_child(args) -> int:
    import steklov_trees.cli  # noqa: F401  (import is part of set-up)

    manifest = workloads.write_inputs(args.workload, args.seed, args.smoke, args.setup_only)
    print(workloads.inputs_digest(args.setup_only, manifest))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "steklov_trees", "__init__.py")):
        print(f"perfbench: no package source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    os.environ.pop("STEKLOV_TOL", None)  # reports must use the default slack
    sys.path.insert(0, SRC)
    if args.setup_only:
        return _setup_child(args)

    loadavg = os.getloadavg()
    workdir = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}"
                                    f"{'-smoke' if args.smoke else ''}-{os.getpid()}")
    os.makedirs(workdir)
    setup_samples, setup_raw, setup_digests = _setup(args, workdir)

    from steklov_trees import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported {cli.__file__}, not the checkout's package",
              file=sys.stderr)
        return 2
    with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    tracer = Tracer() if args.trace else None
    runner = Runner(cli, manifest, expected_digests(manifest, args.smoke), tracer)
    _pace(runner, args.seconds, paired=bool(args.trace))

    table = raw_values = None
    if args.trace:
        values, table = _per_layer(runner)
        wanted = spec["per_layer"]
        tracer.write(os.path.join(workdir, "spans.csv.gz"))
    else:
        values = _end_to_end(runner, setup_samples)
        raw_values = _end_to_end(runner, setup_raw, key="s")
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted = runner.op_count
    failed = len({(f["op"], f["pass"]) for f in runner.failures})
    correct = failed == 0 and len(setup_digests) == 1
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "fingerprint": {**_fingerprint(), "loadavg_start": loadavg},
        "setup_s": setup_samples, "setup_raw_s": setup_raw,
        "setup_digests": sorted(setup_digests), "probe_nominal_s": PROBE_NOMINAL_S,
        "failed_ratio": failed / attempted,
        "raised": sum(f["kind"] == "raised" for f in runner.failures),
        "failed_checks": sum(f["kind"] == "check" for f in runner.failures),
        "failures": runner.failures,
        "passes": runner.passes, "metrics": metrics, "functions": table,
        "raw_metrics": raw_values,  # end-to-end values from the measured op times
    }
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if not runner.failures:
        # inputs are kept only when some op needs replaying
        shutil.rmtree(os.path.join(workdir, "inputs"), ignore_errors=True)
    print(f"perfbench: {attempted} ops, {failed} failed; record in "
          f"{os.path.join(workdir, 'result.json')}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
