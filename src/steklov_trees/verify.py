"""Seeded end-to-end verification harness.

Generates random trees (plain and interior-degree-3), and on every tree
re-derives the whole chain of guarantees: structural invariants, the
boundary response matrix, spectra from independent routes, partition
certificates in exact arithmetic, the three test-function constructions,
and every bound report.  The result is a deterministic report object:
same config, same counters, byte for byte.

On every ``oracle_stride``-th tree the dense spectrum is cross-checked
against the tree-pencil certifier of :mod:`.spectra`, which shares no
code with it: each audited ``lambda_k`` is certified by two inertia
counts, ``count(lambda_k - delta) < k <= count(lambda_k + delta)`` with
``delta = oracle_agreement``, and ``lambda_2`` is bisected once so that
the bisection route has an end-to-end check of its own.

The trees go through the dense route in batches (see :mod:`.harmonic`):
the run draws its trees in order, and each batch of consecutive draws,
at most ``BATCH_ENTRIES`` padded entries (its vertex count times its
widest boundary), has its response matrices assembled and its spectra
computed together, each tree's bit for bit as alone.  Then every tree
of the batch is checked on its own, in draw order.  A batch that raises
is run again one tree at a time, so a fault is recorded against the
tree it belongs to, with the counters and failure entries of that tree
checked alone.

Every check on a tree goes through one runner, which counts it under its
name and hands its value to the checks that need it.  A check that
raises ``InvariantViolationError`` or ``AssertionError`` failed; one
that raises anything else crashed, and its failure entry names the
exception.  The witness chains compare each Rayleigh quotient with the
exact bound value from :func:`.bounds.bound_value`, the same value the
bound reports certify.
"""
from __future__ import annotations

import random
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from . import bounds as bnd
from .config import DEFAULT_TOL, Tolerances
from .errors import BadParamsError, InvariantViolationError, PartTooSmallError
from .generators import generate_family
from .graph_core import BoundaryTree
from .harmonic import dtn_matrices
from .partitions import (
    diameter_test_function,
    gradient_supports_disjoint,
    multiway_test_functions,
    partition_k,
    partition_two,
    partition_two_optimal,
    two_level_rayleigh_exact,
    two_level_test_function,
)
from .spectra import (
    SteklovSpectrum,
    _steklov_count_below,
    rayleigh_quotient,
    spectra_from_matrices,
    steklov_eigenvalue_bisect,
    variational_upper_check,
)

# the "schema" of every JSON report the package prints
SCHEMA = "steklov-trees/1"

# the most padded entries in one batch of the dense route: its vertices
# times its largest boundary (a tree larger than this is a batch alone)
BATCH_ENTRIES = 1 << 15


@dataclass(frozen=True)
class VerifyConfig:
    trials: int = 1000
    interior3_trials: int = 300
    max_n: int = 60
    max_degree: int = 6
    seed: int = 7
    oracle_stride: int = 25  # pencil check of the dense spectrum every this many trees
    tol: Tolerances = DEFAULT_TOL

    def validate(self) -> None:
        if self.trials < 1:
            raise BadParamsError("need at least one trial")
        if self.interior3_trials < 0:
            raise BadParamsError("interior3_trials must be >= 0")
        if self.max_n < 5:
            raise BadParamsError("max_n below 5 leaves no room to sample")
        if self.max_degree < 3:
            raise BadParamsError("harness needs max_degree >= 3")
        if self.oracle_stride < 1:
            raise BadParamsError("oracle_stride must be >= 1")


# a check that raises one of these found a violation; any other exception
# means the check itself crashed
_FINDINGS = (InvariantViolationError, AssertionError)


@dataclass
class CheckCounter:
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    crashed: int = 0

    def to_json_dict(self) -> dict:
        """The counts; ``crashed`` only when nonzero, so healthy reports keep their bytes."""
        out = {"passed": self.passed, "failed": self.failed, "skipped": self.skipped}
        if self.crashed:
            out["crashed"] = self.crashed
        return out


@dataclass
class VerificationReport:
    config: dict
    counters: dict[str, CheckCounter] = field(default_factory=dict)
    failures: list[dict] = field(default_factory=list)

    @property
    def overall_pass(self) -> bool:
        return not self.failures

    def counter(self, name: str) -> CheckCounter:
        return self.counters.setdefault(name, CheckCounter())

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "command": "verify",
            "config": self.config,
            "checks": {name: c.to_json_dict() for name, c in sorted(self.counters.items())},
            "failures": self.failures,
            "overall_pass": self.overall_pass,
        }


def _k_values(m: int) -> tuple[int, ...]:
    """Audited higher eigenvalue indices: 3 and min(5, m), deduplicated."""
    if m < 3:
        return ()
    return tuple(sorted({3, min(5, m)}))


class _BoundMissed(AssertionError):
    """A bound report that does not hold; its failure detail is the message alone."""


# returned by a check that does not apply to the tree, and by ``run`` for a
# check that did not apply, failed or crashed
_MISSING = object()


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def _structure(t: BoundaryTree) -> None:
    leaves = {v for v in range(t.n) if t.degrees[v] == 1}
    _expect(set(t.boundary) == leaves, "boundary is not the degree-1 set")
    _expect(len(t.interior) + len(t.boundary) == t.n, "interior misses vertices")


def _bound_verdict(r: bnd.BoundReport) -> object:
    if not r.preconditions_met:
        return _MISSING
    if not r.holds:
        raise _BoundMissed(f"bound {r.bound_value!r} measured {r.measured!r}")


def _oracle_indices(m: int, ks: tuple[int, ...]) -> range | list[int]:
    """Eigenvalue indices the oracle audits: all up to 12 boundary vertices, else a spread."""
    return range(1, m + 1) if m <= 12 else sorted({1, 2, m // 2, m, *ks})


def _pencil_brackets(t: BoundaryTree, spectrum: SteklovSpectrum, ks: tuple[int, ...],
                     tol: Tolerances) -> None:
    """Certify audited dense eigenvalues by pencil counts at ``x -+ delta``.

    ``count(x - delta) < k <= count(x + delta)`` puts the pencil's k-th
    eigenvalue within ``delta = tol.oracle_agreement`` of the dense
    ``x = lambda_k``, since the float count does not decrease as the shift
    grows (the lemma at :func:`.spectra.steklov_eigenvalue_bisect`): what
    a bisection compared with ``x`` would claim, without its
    ``abs_tol/2`` of slop.
    """
    delta = tol.oracle_agreement
    for k in _oracle_indices(t.n_boundary, ks):
        x = spectrum.eigenvalue(k)
        below = _steklov_count_below(t, x - delta)
        above = _steklov_count_below(t, x + delta)
        _expect(below < k <= above,
                f"eigenvalue {k}: dense {x!r} not within {delta!r} of the pencil's "
                f"(counts {below}, {above} at ∓{delta!r})")


# a tree's response matrix and spectrum, each a value or the exception that
# computing it raised; the spectrum is ``_MISSING`` when the matrix failed
_Dense = tuple[object, object]


def _dense_route(trees: Sequence[BoundaryTree], tol: Tolerances) -> list[_Dense]:
    """Assemble and diagonalize ``trees`` as one batch, each fault kept with its tree.

    When the batch raises, each tree is run again as a batch of one,
    which computes what the tree computes alone, so an exception is
    recorded against the tree that raised it, and the others get their
    values.
    """
    mats = None
    try:
        mats = dtn_matrices(trees, tol)
        return list(zip(mats, spectra_from_matrices(mats, tol)))
    except Exception as exc:
        if len(trees) > 1:
            return [d for t in trees for d in _dense_route([t], tol)]
        return [(exc, _MISSING) if mats is None else (mats[0], exc)]


def _value(outcome: object) -> object:
    """The value of a computed outcome; the exception it holds is raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _check_tree(
    t: BoundaryTree,
    label: str,
    rep: VerificationReport,
    tol: Tolerances,
    *,
    full_oracle: bool,
    dense: _Dense | None = None,
    replay: dict | None = None,
) -> None:
    """Run every check on ``t``, counting each in ``rep``.

    ``dense`` is the tree's response matrix and spectrum from a batch of
    :func:`_dense_route`; a tree checked alone computes its own, as the
    batch of one.  ``replay``, the family spec that rebuilds ``t``, goes
    into each of its failure entries.
    """
    slack = tol.bound_slack
    mat_outcome, spectrum_outcome = _dense_route([t], tol)[0] if dense is None else dense

    def run(name: str, fn, context: str = "", *, counted: bool = True) -> object:
        """Run one check, count its outcome under ``name`` and return its value.

        Returns ``_MISSING`` for a check that did not apply (it returned
        ``_MISSING``: skipped), failed (it raised a finding) or crashed
        (it raised anything else).  ``counted=False`` records failures
        and crashes only.
        """
        try:
            value = fn()
        except Exception as exc:  # recorded, and the harness goes on to the next check
            kind = type(exc).__name__
            detail = str(exc) if isinstance(exc, _BoundMissed) else f"{kind}: {exc}"
            entry = {"trial": label, "check": name, "detail": context + detail}
            if replay is not None:
                entry["replay"] = replay
            if isinstance(exc, _FINDINGS):
                rep.counter(name).failed += 1
            else:
                rep.counter(name).crashed += 1
                entry["crashed"] = kind
            rep.failures.append(entry)
            return _MISSING
        if counted:
            c = rep.counter(name)
            if value is _MISSING:
                c.skipped += 1
            else:
                c.passed += 1
        return value

    run("tree_structure", lambda: _structure(t))
    # both were validated before they were returned
    mat = run("dtn_invariants", lambda: _value(mat_outcome))
    if mat is _MISSING:
        return  # everything below needs the response matrix
    spectrum = run("spectrum_invariants", lambda: _value(spectrum_outcome))
    if spectrum is _MISSING:
        return  # everything below needs eigenvalues
    m = t.n_boundary
    lam2 = spectrum.lambda2
    ks = _k_values(m)

    def oracle() -> object:
        return _pencil_brackets(t, spectrum, ks, tol) if full_oracle else _MISSING

    def bisect() -> object:
        if not full_oracle:
            return _MISSING
        _expect(abs(steklov_eigenvalue_bisect(t, 2) - lam2) <= tol.oracle_agreement,
                "pencil bisection disagrees with dense lambda_2")

    run("oracle_agreement", oracle)
    run("bisect_agreement", bisect)

    def chain2(cert2) -> None:
        f = two_level_test_function(t, cert2, tol)
        r = rayleigh_quotient(f)
        exact = float(two_level_rayleigh_exact(cert2))
        _expect(abs(r - exact) <= slack * (1 + exact), "R(f) drifts from exact form")
        _expect(lam2 <= r + slack, "lambda_2 above R(two-level f)")
        _expect(r <= float(bnd.bound_value(bnd.LAM2_BOUNDARY, t)) + slack,
                "R(two-level f) above 4(D-1)/|boundary|")

    def chain_dia() -> None:
        r = rayleigh_quotient(diameter_test_function(t))
        _expect(lam2 <= r + slack, "lambda_2 above R(diameter f)")
        _expect(r <= float(bnd.bound_value(bnd.LAM2_DIAMETER, t)) + slack,
                "R(diameter f) above 2/L")

    def chain_k(k: int, certk) -> object:
        try:
            fns = multiway_test_functions(t, certk, tol)
        except PartTooSmallError:
            return _MISSING
        cap = float(bnd.bound_value(bnd.LAMK_BOUNDARY, t, k))
        quotients = [rayleigh_quotient(f) for f in fns]
        for r in quotients:
            _expect(lam2 <= r + slack, "lambda_2 above R(f_j)")
            _expect(r <= cap + slack, "R(f_j) above the multiway cap")
        if gradient_supports_disjoint(fns):
            _expect(spectrum.eigenvalue(k) <= max(quotients) + slack,
                    "lambda_k above max R(f_j) despite disjoint gradients")
        # disjoint vertex supports make any multiway family independent,
        # so min-max bounds lambda_k by the span maximum either way
        _expect(variational_upper_check(t, fns, k, tol=tol, spectrum=spectrum),
                "lambda_k above the exact maximum of R over the span")

    # partition certificates are validated before they are returned
    cert2 = run("partition_two_cert", lambda: partition_two(t))
    if cert2 is not _MISSING:
        run("partition_two_optimal", lambda: _expect(
            partition_two_optimal(t).fractions[0] >= cert2.fractions[0],
            "exhaustive split is worse than the descent"))
        run("two_level_chain", lambda: chain2(cert2))
    run("diameter_chain", chain_dia)
    for k in ks:
        certk = run("partition_k_cert", lambda: partition_k(t, k))
        if certk is not _MISSING:
            run("multiway_chain", lambda: chain_k(k, certk), f"k={k} ")

    # the audit is not a check of its own: only its failures are recorded
    reports = run("bound_reports", lambda: bnd.audit(
        t, ks, tol=tol, spectrum=spectrum, with_witness=False), counted=False)
    for r in () if reports is _MISSING else reports:
        run(f"bound_{r.bound_id}", lambda: _bound_verdict(r))


def run_verification(cfg: VerifyConfig = VerifyConfig()) -> VerificationReport:
    """Run the full harness; deterministic for a fixed config.

    The random trees come first, then the interior-3 trees; each tree
    draws its size, degree cap and seed from one master RNG, in that
    order, and is built by :func:`.generators.generate_family` from the
    spec that each of its failure entries carries as ``replay``.
    """
    cfg.validate()
    tol = cfg.tol
    rep = VerificationReport(config={
        "trials": cfg.trials,
        "interior3_trials": cfg.interior3_trials,
        "max_n": cfg.max_n,
        "max_degree": cfg.max_degree,
        "seed": cfg.seed,
        "oracle_stride": cfg.oracle_stride,
        "bound_slack": tol.bound_slack,
    })
    master = random.Random(cfg.seed)
    # label, family and its size parameter, the smallest degree cap, count
    families = (("random", "RANDOM", "n", 2, cfg.trials),
                ("interior3", "RANDOM_INTERIOR3", "n_target", 3, cfg.interior3_trials))
    draws = ((name, i, family, size, min_cap)
             for name, family, size, min_cap, count in families for i in range(count))

    def drawn() -> Iterator[tuple[BoundaryTree, str, bool, dict]]:
        for trial, (name, i, family, size, min_cap) in enumerate(draws):
            n = master.randint(5, cfg.max_n)
            cap = master.randint(min_cap, cfg.max_degree)
            spec = {"family": family, size: n, "max_degree": cap,
                    "seed": master.getrandbits(63)}
            # each tree is built from the spec its failures replay
            yield generate_family(spec), f"{name}[{i}]", trial % cfg.oracle_stride == 0, spec

    for batch in _batches(drawn()):
        outcomes = _dense_route([t for t, *_ in batch], tol)
        # each tree, with its caches and outcomes, is let go once checked
        while batch:
            t, label, full_oracle, spec = batch.pop(0)
            _check_tree(t, label, rep, tol, full_oracle=full_oracle, dense=outcomes.pop(0),
                        replay=spec)
    return rep


def _batches(drawn: Iterable[tuple[BoundaryTree, str, bool, dict]]) -> Iterator[list]:
    """Consecutive draws, in batches of at most ``BATCH_ENTRIES`` padded entries."""
    batch: list = []
    n = m = 0
    for item in drawn:
        t = item[0]
        if batch and (n + t.n) * max(m, t.n_boundary) > BATCH_ENTRIES:
            yield batch
            batch, n, m = [], 0, 0
        batch.append(item)
        n, m = n + t.n, max(m, t.n_boundary)
    if batch:
        yield batch
