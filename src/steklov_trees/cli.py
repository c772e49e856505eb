"""Command-line front door: spectra, bounds, generation, verification, sweeps.

Exit codes are a stable contract: 0 success, 1 a check or numerical
failure, 2 a usage or parse error.  All reports are deterministic for a
fixed invocation (sorted keys, no timestamps), so reruns are byte
identical.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import bounds as bnd
from .config import tolerances_from_env, with_slack
from .errors import (
    BadParamsError,
    BadVertexError,
    InfeasibleDegreeCapError,
    InfeasibleKError,
    MalformedError,
    NotATreeError,
    SteklovTreeError,
    TooSmallError,
)
from .generators import family_label, generate_family
from .graph_core import BoundaryTree, diameter, tree_from_text, tree_to_json_dict, tree_to_text
from .spectra import DENSE_BOUNDARY_LIMIT, steklov_eigenvalue_bisect, steklov_spectrum
from .verify import VerifyConfig, run_verification

SCHEMA = "steklov-trees/1"

# these signal bad input rather than a failed computation
_USAGE_ERRORS = (
    MalformedError,
    TooSmallError,
    NotATreeError,
    BadVertexError,
    BadParamsError,
    InfeasibleKError,
    InfeasibleDegreeCapError,
)


def _load_tree(args: argparse.Namespace) -> tuple[BoundaryTree, str]:
    if getattr(args, "input", None):
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
        if args.input.endswith(".json"):
            from .graph_core import tree_from_json
            return tree_from_json(text), args.input
        return tree_from_text(text), args.input
    if getattr(args, "family", None):
        spec = json.loads(args.family)
        return generate_family(spec), family_label(spec)
    raise BadParamsError("one of --input or --family is required")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _tolerances(args: argparse.Namespace):
    tol = tolerances_from_env()
    return tol if args.tol is None else with_slack(tol, args.tol, "--tol")


def cmd_spectrum(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    t, tree_id = _load_tree(args)
    m = t.n_boundary
    if m <= DENSE_BOUNDARY_LIMIT:
        spec = steklov_spectrum(t, tol)
        eigenvalues = [float(w) for w in spec.eigenvalues]
        partial = False
    else:
        spec = None
        eigenvalues = [steklov_eigenvalue_bisect(t, k) for k in range(1, 13)]
        partial = True
    if args.format == "csv":
        lines = ["index,eigenvalue"]
        lines += [f"{i + 1},{v:.12e}" for i, v in enumerate(eigenvalues)]
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    payload = {
        "schema": SCHEMA,
        "command": "spectrum",
        "tree_id": tree_id,
        "n": t.n,
        "boundary_size": m,
        "max_degree": t.max_degree,
        "eigenvalues": eigenvalues,
        "partial": partial,
    }
    if args.eigenfunctions and spec is not None:
        payload["boundary_vertices"] = list(t.boundary)
        payload["boundary_eigenvectors"] = [
            [float(x) for x in spec.boundary_basis[:, j]] for j in range(m)
        ]
    _emit(_json_text(payload), args.out)
    return 0


def _parse_k_list(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        ks = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise BadParamsError(f"bad --k list {text!r}") from exc
    if any(k < 2 for k in ks):
        raise BadParamsError("eigenvalue indices start at 2")
    return ks


def _fmt(x: float) -> str:
    # empty cell for inapplicable measurements, mirroring the holds column
    return f"{x:.12g}" if math.isfinite(x) else ""


def cmd_bounds(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    t, tree_id = _load_tree(args)
    ks = _parse_k_list(args.k)
    reports = bnd.audit(t, ks, tol=tol)
    failed = any(r.holds is False for r in reports)
    if args.format == "csv":
        lines = ["tree_id,bound_id,bound,measured,tightness,holds"]
        for r in reports:
            holds = "" if r.holds is None else str(r.holds).lower()
            lines.append(f"{tree_id},{r.bound_id},{_fmt(r.bound_value)},"
                         f"{_fmt(r.measured)},{_fmt(r.tightness)},{holds}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        payload = {
            "schema": SCHEMA,
            "command": "bounds",
            "tree_id": tree_id,
            "n": t.n,
            "boundary_size": t.n_boundary,
            "reports": [r.to_json_dict() for r in reports],
        }
        _emit(_json_text(payload), args.out)
    return 1 if failed else 0


def cmd_generate(args: argparse.Namespace) -> int:
    spec = json.loads(args.family)
    t = generate_family(spec)
    if args.format == "json":
        text = _json_text({"schema": SCHEMA, "command": "generate",
                           "tree_id": family_label(spec),
                           **tree_to_json_dict(t)})
    else:
        text = tree_to_text(t)
    _emit(text, args.out)
    stats = (f"n={t.n} boundary={t.n_boundary} max_degree={t.max_degree} "
             f"diameter={diameter(t).length}")
    print(stats, file=sys.stderr if args.out is None else sys.stdout)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    cfg = VerifyConfig(
        trials=args.trials,
        interior3_trials=args.trials * 3 // 10,
        max_n=args.max_n,
        max_degree=args.max_degree,
        seed=args.seed,
        tol=tol,
    )
    rep = run_verification(cfg)  # validates the config first
    if args.format == "csv":
        # a crashed column only when some check crashed, as in the JSON report
        crashed = any(c.crashed for c in rep.counters.values())
        lines = ["check,passed,failed,skipped" + (",crashed" if crashed else "")]
        for name, c in sorted(rep.counters.items()):
            lines.append(f"{name},{c.passed},{c.failed},{c.skipped}"
                         + (f",{c.crashed}" if crashed else ""))
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_json_text(rep.to_json_dict()), args.out)
    return 0 if rep.overall_pass else 1


def _expand_family_range(spec: dict) -> list[dict]:
    if not isinstance(spec, dict):
        raise BadParamsError("family spec must be a dict with a 'family' key")
    ranged = [k for k, v in spec.items()
              if isinstance(v, list) and k != "family"]
    if len(ranged) != 1:
        raise BadParamsError("sweep needs exactly one parameter given as [lo, hi]")
    key = ranged[0]
    lo_hi = spec[key]
    ints = all(isinstance(x, int) and not isinstance(x, bool) for x in lo_hi)
    if len(lo_hi) != 2 or not ints or lo_hi[0] > lo_hi[1]:
        raise BadParamsError(f"range for {key} must be [lo, hi] with lo <= hi")
    values = range(lo_hi[0], lo_hi[1] + 1)
    if spec.get("family") == "EXTREMAL_MIDDLE" and key == "L":
        # the spine length must be even: take every second value
        values = values[values[0] % 2:][::2]
        if not values:
            raise BadParamsError(
                f"{spec['family']} needs an even {key} (the attachment sits at the"
                f" spine's midpoint); range {lo_hi} holds no even value")
    out = []
    for v in values:
        d = dict(spec)
        d[key] = v
        out.append(d)
    return out


def _growing_members(specs: list[dict]) -> tuple[list[dict], list[BoundaryTree]]:
    """The members of a sweep range whose vertex count grows, with their trees.

    A member is kept when it has more vertices than the last member kept
    (RANDOM_INTERIOR3 overshoots ``n_target``, so neighbouring targets can
    give the same tree).  The skipped members are named on stderr, never
    in the report.
    """
    kept: list[dict] = []
    trees: list[BoundaryTree] = []
    skipped: list[str] = []
    for spec in specs:
        t = generate_family(spec)
        if trees and t.n <= trees[-1].n:
            skipped.append(f"{family_label(spec)} (n={t.n})")
        else:
            kept.append(spec)
            trees.append(t)
    if skipped:
        print(f"sweep: skipped {len(skipped)} member(s) whose vertex count does not"
              f" grow: {', '.join(skipped)}", file=sys.stderr)
    if skipped and len(trees) < 2:
        raise BadParamsError(
            f"sweep needs two members of growing vertex count; no member after"
            f" {family_label(kept[0])} has more than its {trees[0].n} vertices")
    return kept, trees


def cmd_sweep(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    if not math.isfinite(args.threshold):
        raise BadParamsError(f"--threshold must be finite, got {args.threshold}")
    specs, trees = _growing_members(_expand_family_range(json.loads(args.family)))
    report = bnd.asymptotic_decay_check(trees, threshold=args.threshold, tol=tol)

    lines = ["tree_id,n,boundary,D,L,lambda2,bound_boundary,tightness_boundary,"
             "bound_volume,tightness_volume,bound_diameter,tightness_diameter"]
    for s, t, row in zip(specs, trees, report.rows):
        bb = float(bnd.bound_value(bnd.LAM2_BOUNDARY, t))
        bv = float(bnd.bound_value(bnd.LAM2_VOLUME, t))
        volume_ok = bnd._interior_degrees_ok(t)
        lines.append(",".join([
            family_label(s), str(row.n), str(row.n_boundary), str(t.max_degree),
            str(row.diameter), _fmt(row.lam2),
            _fmt(bb), _fmt(row.lam2 / bb),
            _fmt(bv) if volume_ok else "", _fmt(row.lam2 / bv) if volume_ok else "",
            _fmt(row.diameter_bound), _fmt(row.lam2 / row.diameter_bound),
        ]))
    csv_text = "\n".join(lines) + "\n"
    if args.format == "json":
        payload = {"schema": SCHEMA, "command": "sweep",
                   "family": json.loads(args.family),
                   **report.to_json_dict()}
        _emit(_json_text(payload), args.out)
    else:
        _emit(csv_text, args.out)
    return 0 if report.passed else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Each subcommand's ``cmd_<name>`` is looked up by name when it runs,
    so a rebinding of the module attribute takes effect.
    """
    ap = argparse.ArgumentParser(
        prog="steklov-trees",
        description="Steklov spectra of trees with boundary: compute, bound, verify.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, fmt_default: str = "json") -> None:
        p.add_argument("--format", choices=("json", "csv"), default=fmt_default)
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--tol", type=float, default=None,
                       help="slack for bound comparisons (default 1e-8, or STEKLOV_TOL)")

    def add_tree_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", default=None,
                       help="edge-list file ('u v' per line) or .json tree")
        p.add_argument("--family", default=None,
                       help='family JSON, e.g. {"family":"BALL","D":3,"r":2}')

    p = sub.add_parser("spectrum", help="full Steklov spectrum of one tree")
    add_tree_source(p)
    add_io(p)
    p.add_argument("--eigenfunctions", action="store_true",
                   help="include boundary eigenvectors in JSON output")

    p = sub.add_parser("bounds", help="all certified bound reports for one tree")
    add_tree_source(p)
    add_io(p)
    p.add_argument("--k", default="3,5",
                   help="comma-separated higher eigenvalue indices (default 3,5)")

    p = sub.add_parser("generate", help="emit a named family member as an edge list")
    p.add_argument("--family", required=True)
    p.add_argument("--format", choices=("edges", "json"), default="edges")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="seeded random-tree verification harness")
    add_io(p)
    p.add_argument("--trials", type=int, default=1000,
                   help="random trees to audit (plus 3/10 as many interior-3 trees)")
    p.add_argument("--max-n", type=int, default=60)
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser("sweep", help="lambda_2 decay along a growing family")
    add_io(p, fmt_default="csv")
    p.add_argument("--family", required=True,
                   help='family JSON with one ranged parameter, e.g. '
                        '{"family":"PATH","L":[2,200]}')
    p.add_argument("--threshold", type=float, default=0.01,
                   help="the largest member must bring lambda_2 to this or below")
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return globals()[f"cmd_{args.command}"](args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SteklovTreeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
