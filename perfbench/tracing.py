"""Span recorder for the traced run, installed from outside the package.

Every public function of each layer module (and a few public methods) is
replaced, in every module of the package that binds it, by a wrapper that
records a span: name, start, end, parent span and op id.  Spans stay in
memory and are written out when the run ends.  Private helpers are left
alone, so their time shows up as the self time of their public caller.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time

PACKAGE = "steklov_trees"
LAYERS = ("cli", "verify", "generators", "graph_core", "harmonic", "spectra",
          "partitions", "bounds")
# public methods worth a span of their own: (layer, class, method)
METHODS = (("partitions", "PartitionCertificate", "validate"),
           ("harmonic", "DtnMatrix", "validate"))
# private helper counted (not timed): one call is one O(n) inertia pass
COUNT_PASSES = ("spectra", "_steklov_count_below")


class Tracer:
    """Holds the spans of one run; ``install``/``restore`` bracket each traced op.

    The runner sets ``op`` and ``op_kind`` before each op it issues.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []           # (name id, start, end, parent span, op id)
        self.stack: list[int] = []
        self.op = -1
        self.op_kind = ""
        # counts behind the derived per-layer metrics
        self.m3 = 0                      # sum of m^3 over dense eigensolves
        self.dtn_entries = 0             # sum of m^2 over response-matrix assemblies
        self.bisect_pairs: set = set()   # (op, tree, k) seen in bounds ops
        self.bisect_calls_bounds = 0
        self.vertex_passes = 0
        self._saved: list = []
        self._wrappers: dict | None = None

    # -- installation -------------------------------------------------------

    @staticmethod
    def _modules() -> list:
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _targets(self) -> list[tuple[str, object]]:
        """(span name, function) for every public function of every layer."""
        out = []
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in sorted(vars(mod).items()):
                if (not attr.startswith("_") and callable(obj)
                        and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    out.append((f"{layer}.{attr}", obj))
        return out

    def _build_wrappers(self) -> None:
        self._wrappers = {id(fn): self._wrap(name, fn) for name, fn in self._targets()}
        layer, helper = COUNT_PASSES
        counted = getattr(sys.modules[f"{PACKAGE}.{layer}"], helper, None)
        if counted is not None:
            self._wrappers[id(counted)] = self._count_passes(counted)
        self._method_wrappers = []
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            fn = cls.__dict__[meth]
            self._method_wrappers.append(
                (cls, meth, fn, self._wrap(f"{layer}.{cls_name}.{meth}", fn)))

    def install(self) -> None:
        """Replace every binding of every traced function with its wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        if self._wrappers is None:
            self._build_wrappers()
        for mod in self._modules():
            for attr, obj in list(vars(mod).items()):
                w = self._wrappers.get(id(obj))
                if w is not None:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, w)
        for cls, meth, fn, w in self._method_wrappers:
            self._saved.append((cls, meth, fn))
            setattr(cls, meth, w)

    def restore(self) -> None:
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    # -- wrappers -----------------------------------------------------------

    def _probe(self, name: str):
        """Argument hook for the computed counts, or None."""
        if name == "spectra.eigendecompose_symmetric":
            def probe(args, kwargs):
                self.m3 += len(args[0]) ** 3
        elif name == "harmonic.dtn_matrix":
            def probe(args, kwargs):
                self.dtn_entries += args[0].n_boundary ** 2
        elif name == "spectra.steklov_eigenvalue_bisect":
            def probe(args, kwargs):
                if self.op_kind == "bounds":
                    self.bisect_calls_bounds += 1
                    k = args[1] if len(args) > 1 else kwargs["k"]
                    # the audited tree lives for the whole op, so its id is stable
                    self.bisect_pairs.add((self.op, id(args[0]), k))
        else:
            probe = None
        return probe

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        probe = self._probe(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                probe(args, kwargs)
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (nid, t0, t1, parent, self.op)

        return traced

    def _count_passes(self, fn):
        @functools.wraps(fn)
        def counted(t, *args, **kwargs):
            self.vertex_passes += t.n
            return fn(t, *args, **kwargs)

        return counted

    # -- results ------------------------------------------------------------

    def table(self) -> dict[str, dict]:
        """Per span name: calls, busy seconds (outermost spans) and self seconds."""
        names = self.names
        child = [0.0] * len(self.spans)
        for nid, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in names}
        for sid, (nid, t0, t1, parent, _) in enumerate(self.spans):
            row = out[names[nid]]
            dur = t1 - t0
            row["calls"] += 1
            row["self_s"] += dur - child[sid]
            # a span nested in one of the same name is already in busy time
            p = parent
            while p >= 0 and self.spans[p][0] != nid:
                p = self.spans[p][3]
            if p < 0:
                row["busy_s"] += dur
        return out

    def write(self, path: str) -> None:
        """Write the spans as gzipped CSV: span,name,start,end,parent,op."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,name,start,end,parent,op\n")
            for sid, (nid, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(f"{sid},{self.names[nid]},{t0:.9f},{t1:.9f},{parent},{op}\n")


def span_cost_s(calls: int = 100_000) -> float:
    """Seconds one span adds to a call, measured on a function that does nothing."""
    def noop():
        return None

    traced = Tracer()._wrap("noop", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop()
    t1 = clock()
    for _ in range(calls):
        traced()
    t2 = clock()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)
