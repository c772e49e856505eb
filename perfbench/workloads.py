"""Workload definitions: seeded inputs, the ops run on them, and the
correctness gate every op passes.

An op is one ``steklov-trees`` invocation, given as the argv list that
``steklov_trees.cli.main`` takes.  A pass runs every op of a workload
once, in order; a run repeats passes.

Why these three workloads (each exercises a different side of the spectra
layer, so per-call and asymptotic changes separate):

* ``verify-harness`` is the acceptance path: thousands of small calls into
  every layer on small random trees, so per-call Python overhead
  dominates.  Each pass is one ``verify`` op with the next seed in a cycle
  through 0-99 that starts at the workload seed: a single 260-tree draw
  varies by 17% in total eigensolve work (sum of m^3) from seed to seed,
  while a run's ~20 distinct draws average that out.
* ``dense-bounds`` audits one large tree per op on the dense route
  (assembly plus an O(m^3) eigensolve); every boundary size stays at or
  below ``DENSE_BOUNDARY_LIMIT`` (220).
* ``pencil-large`` audits trees past that limit, where no dense matrix is
  formed and time goes to the O(n) pencil inertia count; it bypasses the
  dense eigensolver entirely.  Moving the limit shifts traffic between
  this workload and ``dense-bounds``, so both are watched.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import shlex

WORKLOADS = ("verify-harness", "dense-bounds", "pencil-large")

# argv of the verify op before ``--seed``; the recorded digests belong to it
VERIFY_ARGV = ["verify", "--trials", "50", "--max-n", "60", "--max-degree", "6"]
VERIFY_ARGV_SMOKE = ["verify", "--trials", "4", "--max-n", "12", "--max-degree", "4"]
VERIFY_SEEDS = 100  # verify seeds with a recorded digest: 0 .. VERIFY_SEEDS - 1

BOUNDS_K = "3,5"
LAMBDA2_TOL = 1e-9

# dense-bounds: random interior-degree-3 trees with exactly these boundary
# sizes (cap 4), plus BALL(4,4) with 108 boundary vertices
DENSE_SIZES = (60, 150, 200)
DENSE_CAP = 4
# pencil-large: random interior-degree-3 trees of about these vertex counts
PENCIL_SIZES = (3000, 8000)
PENCIL_CAP = 5


def ball_lambda2(d: int, r: int) -> float:
    """Closed form of lambda_2 for the radius-r ball in the d-regular tree."""
    return (d - 2) / ((d - 1) ** r - 1)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _interior3_with_boundary(generate_family, rng: random.Random, m: int) -> tuple:
    """A seeded RANDOM_INTERIOR3 spec whose tree has exactly ``m`` boundary vertices.

    Each promotion with fanout f adds f vertices and f - 1 leaves, so with
    cap 4 the boundary is about 3/5 of the vertices; candidate seeds are
    drawn from ``rng`` until one lands on ``m`` exactly.
    """
    n_target = round(m * 5 / 3)
    for _ in range(1000):
        spec = {"family": "RANDOM_INTERIOR3", "n_target": n_target,
                "max_degree": DENSE_CAP, "seed": rng.getrandbits(31)}
        t = generate_family(spec)
        if t.n_boundary == m:
            return spec, t
    raise RuntimeError(f"no RANDOM_INTERIOR3 tree with boundary {m} in 1000 draws")


def _tree_sources(workload: str, seed: int, smoke: bool, generate_family) -> list:
    """(name, family spec, tree, closed-form lambda_2 or None) for each bounds op."""
    def ball(d, r):
        spec = {"family": "BALL", "D": d, "r": r}
        return f"ball-{d}-{r}", spec, generate_family(spec), ball_lambda2(d, r)

    if smoke:
        # closed forms on every op, so a corrupted one fails every op
        if workload == "dense-bounds":
            return [ball(4, 2), ball(3, 4)]
        return [ball(3, 8)]
    rng = _rng(workload, seed)
    if workload == "dense-bounds":
        out = []
        for m in DENSE_SIZES:
            spec, t = _interior3_with_boundary(generate_family, rng, m)
            out.append((f"interior3-m{m}", spec, t, None))
        out.insert(1, ball(4, 4))
        return out
    out = [ball(3, 10)]
    spec = {"family": "REFINED", "l": 8}
    out.append(("refined-8", spec, generate_family(spec), None))
    for n in PENCIL_SIZES:
        spec = {"family": "RANDOM_INTERIOR3", "n_target": n,
                "max_degree": PENCIL_CAP, "seed": rng.getrandbits(31)}
        out.append((f"interior3-n{n}", spec, generate_family(spec), None))
    return out


def write_inputs(workload: str, seed: int, smoke: bool, workdir: str) -> dict:
    """Generate a workload's inputs, write them under ``workdir``, return the manifest.

    Trees go to ``workdir/inputs`` as edge lists; ``workdir/manifest.json``
    lists the ops of each pass (``passes``; a run cycles through them).
    Paths in the manifest are relative to the current directory, which is
    the checkout root.
    """
    from steklov_trees.generators import generate_family
    from steklov_trees.graph_core import tree_to_text

    if workload == "verify-harness":
        base = VERIFY_ARGV_SMOKE if smoke else VERIFY_ARGV
        trials = int(base[2])
        passes = [[{"name": f"verify-seed{s}", "kind": "verify",
                    "argv": base + ["--seed", str(s)],
                    "trees": trials + trials * 3 // 10}]
                  for s in ((seed + j) % VERIFY_SEEDS for j in range(VERIFY_SEEDS))]
    else:
        ops = []
        indir = os.path.join(workdir, "inputs")
        os.makedirs(indir, exist_ok=True)
        for name, spec, t, lam2 in _tree_sources(workload, seed, smoke, generate_family):
            path = os.path.join(indir, f"{name}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(tree_to_text(t))
            ops.append({"name": name, "kind": "bounds",
                        "argv": ["bounds", "--input", path, "--k", BOUNDS_K],
                        "trees": 1, "family": spec, "n": t.n,
                        "boundary": t.n_boundary, "lambda2": lam2})
        if workload == "pencil-large":
            hi = 8 if smoke else 10
            fam = {"family": "BALL", "D": 3, "r": [1, hi]}
            ops.append({"name": f"sweep-ball-3-1-{hi}", "kind": "sweep",
                        "argv": ["sweep", "--family", json.dumps(fam, separators=(",", ":")),
                                 "--format", "json"],
                        "trees": hi,
                        "lambda2_rows": [ball_lambda2(3, r) for r in range(1, hi + 1)]})
        passes = [ops]
    manifest = {"workload": workload, "seed": seed, "smoke": smoke, "passes": passes}
    with open(os.path.join(workdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return manifest


def inputs_digest(workdir: str, manifest: dict) -> str:
    """sha256 over the manifest and every input file, to compare set-up repeats."""
    h = hashlib.sha256(json.dumps(manifest, sort_keys=True).encode())
    for op in manifest["passes"][0]:
        if op["kind"] == "bounds":
            with open(op["argv"][2], "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def replay_command(op: dict) -> str:
    """A shell command, run from the checkout root, that reproduces ``op``."""
    return "PYTHONPATH=src python3 -m steklov_trees.cli " + shlex.join(op["argv"])


def expected_digest(op: dict, smoke: bool, expected: dict) -> str | None:
    """Recorded sha256 of a verify op's report, or None when its seed has none."""
    table = expected["verify_smoke" if smoke else "verify"]
    if op["argv"][:-2] != table["argv"]:
        raise RuntimeError("verify argv no longer matches the recorded digests")
    return table["sha256"].get(op["argv"][-1])


def gate(op: dict, rc: int, text: str, expect_digest: str | None) -> list[str]:
    """Every reason the output of ``op`` is wrong; empty when it is right."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    try:
        rep = json.loads(text)
    except json.JSONDecodeError as exc:
        return problems + [f"report is not JSON: {exc}"]
    try:
        if rep.get("schema") != "steklov-trees/1":
            problems.append(f"schema {rep.get('schema')!r}")
        kind = op["kind"]
        if kind == "verify":
            if rep.get("overall_pass") is not True or rep.get("failures"):
                problems.append(f"verify overall_pass={rep.get('overall_pass')!r}, "
                                f"{len(rep.get('failures') or [])} failures")
            if expect_digest is not None:
                got = hashlib.sha256(text.encode()).hexdigest()
                if got != expect_digest:
                    problems.append(f"verify report sha256 {got} != recorded {expect_digest}")
        elif kind == "bounds":
            reports = rep.get("reports") or []
            if not reports:
                problems.append("no bound reports")
            for r in reports:
                if r["preconditions_met"] and r["holds"] is not True:
                    problems.append(f"{r['bound_id']} does not hold: "
                                    f"bound {r['bound_value']!r} measured {r['measured']!r}")
            if op.get("lambda2") is not None:
                lam2 = next((r["measured"] for r in reports
                             if r["bound_id"] == "LAM2_BOUNDARY"), None)
                if lam2 is None or abs(lam2 - op["lambda2"]) > LAMBDA2_TOL:
                    problems.append(f"lambda_2 {lam2!r}, closed form {op['lambda2']!r}")
        elif kind == "sweep":
            if rep.get("passed") is not True:
                problems.append("sweep decay check did not pass")
            rows = rep.get("rows") or []
            if len(rows) != len(op["lambda2_rows"]):
                problems.append(f"{len(rows)} sweep rows, expected {len(op['lambda2_rows'])}")
            for i, (row, want) in enumerate(zip(rows, op["lambda2_rows"])):
                if not row["within_bound"]:
                    problems.append(f"sweep row {i} above its diameter bound")
                if abs(row["lambda2"] - want) > LAMBDA2_TOL:
                    problems.append(f"sweep row {i}: lambda_2 {row['lambda2']!r}, "
                                    f"closed form {want!r}")
    except (AttributeError, KeyError, TypeError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems
