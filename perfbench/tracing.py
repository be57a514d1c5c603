"""Span tracing of braidcomm layers from outside the package.

The tracer wraps public functions at the name their caller looks them up
under (a module global such as ``braidcomm.tietze.substitute``, a class
attribute such as ``TruncatedPresentation.eliminate``, or the claim
runners in ``registry.REGISTRY``).  Nothing under ``src/`` is edited.

Spans live in flat in-memory arrays (name, start, end, parent span, unit)
and are written out once the run ends.  A span's self time is its
duration minus the durations of its child spans.  Counters (letters,
cells, bindings, ...) are taken in hooks that run outside the span, with
C-level helpers, so they add little to any layer's time.

``normalize`` is deliberately not wrapped: it runs millions of times per
workload and a wrapper would swamp it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import operator
import time
from array import array
from collections import Counter, defaultdict

_second = operator.itemgetter(1)


def word_letters(w) -> int:
    """Letter length of a Word, counting multiplicity (``len(w)`` in C)."""
    return sum(map(abs, map(_second, w.letters)))


MOVE_PREFIXES = ("eliminate ", "derive ", "rename ")

# per-layer metrics reported by a traced run, with their units; order is
# the order of BENCHMARK.json's per_layer list
LAYER_METRICS = {
    "words.substitute_calls": "count",
    "words.substitute_s": "s",
    "words.substitute_letters_out": "letters",
    "words.canonical_cyclic_calls": "count",
    "words.canonical_cyclic_s": "s",
    "tietze.eliminate_calls": "count",
    "tietze.eliminate_s": "s",
    "tietze.eliminate_self_s": "s",
    "tietze.relators_touched": "count",
    "tietze.from_schema_calls": "count",
    "tietze.from_schema_s": "s",
    "tietze.relators_built": "count",
    "tietze.final_relator_letters": "letters",
    "tietze.peak_word_letters": "letters",
    "schemas.bindings": "count",
    "schemas.enumerate_bindings_s": "s",
    "schemas.instance_set_s": "s",
    "rewriting.rewrite_calls": "count",
    "rewriting.rewrite_s": "s",
    "rewriting.expand_s": "s",
    "derived.verify_simplification_s": "s",
    "abelian.lattice_calls": "count",
    "abelian.lattice_rank_only_s": "s",
    "abelian.lattice_tracked_s": "s",
    "abelian.lattice_nnz": "count",
    "abelian.lattice_max_cells": "cells",
    "abelian.snf_calls": "count",
    "abelian.snf_s": "s",
    "abelian.snf_core_cells": "cells",
    "abelian.contains_calls": "count",
    "abelian.contains_s": "s",
    "audit.steps_verified": "count",
    "audit.checkpoints": "count",
    "audit.recompute_s": "s",
    "quotients.certificate_calls": "count",
    "quotients.certificate_distinct": "count",
    "quotients.certificate_useful_ratio": "ratio",
    "quotients.certificate_s": "s",
    "quotients.edge_calls": "count",
    "registry.claims_run": "count",
    "replays.moves": "count",
    "replays.fingen_s": "s",
    "replays.simplify_s": "s",
    "replays.quotient_s": "s",
}
MODULES = ("words", "tietze", "schemas", "rewriting", "derived", "abelian",
           "audit", "quotients", "registry", "replays", "bench")
LAYER_METRICS.update({f"{m}.self_s": "s" for m in MODULES})
LAYER_METRICS.update({
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.span_cost_s": "s",
})

UNIT_SPAN = "bench.unit"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.unit = array("i")
        self.units: list[str] = []
        self.counters: Counter = Counter()
        self.peaks: dict[str, int] = defaultdict(int)
        self.certificate_keys: set = set()
        self._stack = [-1]
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.unit.append(len(self.units) - 1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def unit_span(self, unit_name: str):
        """One root span per benchmark unit."""
        self.units.append(unit_name)
        idx = self._open(self._intern(UNIT_SPAN))
        try:
            yield
        finally:
            self._close(idx)

    # -- wrappers --------------------------------------------------------------

    def wrap(self, fn, name: str, before=None, after=None):
        """Wrap ``fn`` in a span; ``before(args, kwargs)`` and
        ``after(result)`` run outside the span."""
        nid = self._intern(name)
        opened, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = opened(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(result)
            return result

        return traced

    def wrap_generator(self, fn, name: str, counter: str):
        """One span per resume of the generator, so its time is charged to
        it and not to the loop that consumes it."""
        nid = self._intern(name)
        opened, close, counters = self._open, self._close, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = opened(nid)
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    close(idx)
                counters[counter] += 1
                yield value

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr]
        self._undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- the braidcomm layers ---------------------------------------------------

    def install(self) -> None:
        from braidcomm import (abelian, audit, derived, quotients, registry,
                               replays, rewriting, schemas, tietze, words)

        counters, peaks = self.counters, self.peaks

        def substitute_out(w):
            n = word_letters(w)
            counters["words.substitute_letters_out"] += n
            if n > peaks["tietze.peak_word_letters"]:
                peaks["tietze.peak_word_letters"] = n

        self.patch(tietze, "substitute",
                   self.wrap(words.substitute, "words.substitute", after=substitute_out))
        cyclic = self.wrap(words.canonical_cyclic, "words.canonical_cyclic")
        for mod in (tietze, quotients, schemas):
            self.patch(mod, "canonical_cyclic", cyclic)

        TP = tietze.TruncatedPresentation
        self.patch(TP, "eliminate", self.wrap(TP.eliminate, "tietze.eliminate"))

        def built(p):
            counters["tietze.relators_built"] += len(p.relators)
            if p.relators:
                n = max(map(word_letters, p.relators.values()))
                if n > peaks["tietze.peak_word_letters"]:
                    peaks["tietze.peak_word_letters"] = n

        from_schema = TP.__dict__["from_schema"].__func__
        self.patch(TP, "from_schema", classmethod(
            self.wrap(from_schema, "tietze.from_schema", after=built)))

        bindings = self.wrap_generator(schemas.enumerate_bindings,
                                       "schemas.enumerate_bindings", "schemas.bindings")
        for mod in (tietze, schemas):
            self.patch(mod, "enumerate_bindings", bindings)
        inst = self.wrap(schemas.instance_set, "schemas.instance_set")
        for mod in (schemas, replays, quotients):
            self.patch(mod, "instance_set", inst)

        self.patch(rewriting, "rewrite", self.wrap(rewriting.rewrite, "rewriting.rewrite"))
        self.patch(rewriting, "expand", self.wrap(rewriting.expand, "rewriting.expand"))
        self.patch(registry, "verify_simplification",
                   self.wrap(derived.verify_simplification, "derived.verify_simplification"))

        LR = abelian.LatticeReduction

        def lattice_in(args, kwargs):
            red = args[0]
            counters["abelian.lattice_nnz"] += sum(map(len, red.rows.values()))
            cells = len(red.rows) * red.ncols
            if cells > peaks["abelian.lattice_max_cells"]:
                peaks["abelian.lattice_max_cells"] = cells

        run_tracked = self.wrap(LR.run, "abelian.lattice_tracked", before=lattice_in)
        run_rank_only = self.wrap(LR.run, "abelian.lattice_rank_only", before=lattice_in)
        self.patch(LR, "run", lambda red: (run_tracked if red.track_v else run_rank_only)(red))
        self.patch(LR, "contains", self.wrap(LR.contains, "abelian.contains"))

        def snf_in(args, kwargs):
            counters["abelian.snf_core_cells"] += args[0].rows * args[0].cols

        self.patch(abelian, "smith_normal_form",
                   self.wrap(abelian.smith_normal_form, "abelian.snf", before=snf_in))

        def audited(report):
            counters["audit.steps_verified"] += report.steps_verified

        # the auditor runs inside eliminate as its callback
        self.patch(audit.AbelianStepAuditor, "__call__",
                   self.wrap(audit.AbelianStepAuditor.__call__, "audit.step"))
        self.patch(audit, "abelian_invariants_of_matrix",
                   self.wrap(abelian.abelian_invariants_of_matrix, "audit.recompute"))
        self.patch(audit, "audit_script",
                   self.wrap(audit.audit_script, "audit.audit_script", after=audited))

        for fname in ("sg3_abelianization_certificate", "free_quotient_certificate_gvb3",
                      "sg3_as_quotient_of_sg4"):
            def certificate_in(args, kwargs, fname=fname):
                key = (fname, args, tuple(sorted(
                    (k, repr(sorted(v)) if isinstance(v, (set, frozenset)) else repr(v))
                    for k, v in kwargs.items())))
                self.certificate_keys.add(key)

            self.patch(quotients, fname, self.wrap(
                getattr(quotients, fname), "quotients.certificate", before=certificate_in))
        self.patch(quotients, "verify_diagram_edge",
                   self.wrap(quotients.verify_diagram_edge, "quotients.edge"))

        def replayed(p):
            counters["replays.moves"] += sum(
                1 for line in p.transcript if line.startswith(MOVE_PREFIXES))
            counters["tietze.final_relator_letters"] += sum(
                map(word_letters, p.relators.values()))

        families = {"simplify": "replays.simplify", "gvb4_fingen": "replays.fingen",
                    "gvbn_fingen": "replays.fingen", "sgn_fingen": "replays.fingen",
                    "gvb3_quotient_chain": "replays.quotient",
                    "sg3_beta_elimination": "replays.quotient"}
        for fname, span in families.items():
            wrapped = self.wrap(getattr(replays, fname), span, after=replayed)
            self.patch(replays, fname, wrapped)
            if fname in quotients.__dict__:
                self.patch(quotients, fname, wrapped)

        claims = registry.REGISTRY
        original_claims = list(claims)
        claims[:] = [dataclasses.replace(c, runner=self.wrap(c.runner, "registry.claim"))
                     for c in original_claims]
        self._undo.append(lambda: claims.__setitem__(slice(None), original_claims))

    # -- reduction -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, inclusive times and self times of the spans."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        total: Counter = Counter()
        self_time: Counter = Counter()
        under: Counter = Counter()  # (child name, parent name) pairs
        names = self.names
        for i in range(n):
            name = names[self.name[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            self_time[name] += dur - child[i]
            p = self.parent[i]
            if p >= 0:
                under[(name, names[self.name[p]])] += 1
            total[name] += dur  # no wrapped function calls itself
        c = self.counters
        cert_calls = calls["quotients.certificate"]
        m = {
            "words.substitute_calls": calls["words.substitute"],
            "words.substitute_s": total["words.substitute"],
            "words.substitute_letters_out": c["words.substitute_letters_out"],
            "words.canonical_cyclic_calls": calls["words.canonical_cyclic"],
            "words.canonical_cyclic_s": total["words.canonical_cyclic"],
            "tietze.eliminate_calls": calls["tietze.eliminate"],
            "tietze.eliminate_s": total["tietze.eliminate"],
            "tietze.eliminate_self_s": self_time["tietze.eliminate"],
            "tietze.relators_touched": under[("words.substitute", "tietze.eliminate")],
            "tietze.from_schema_calls": calls["tietze.from_schema"],
            "tietze.from_schema_s": total["tietze.from_schema"],
            "tietze.relators_built": c["tietze.relators_built"],
            "tietze.final_relator_letters": c["tietze.final_relator_letters"],
            "tietze.peak_word_letters": self.peaks["tietze.peak_word_letters"],
            "schemas.bindings": c["schemas.bindings"],
            "schemas.enumerate_bindings_s": total["schemas.enumerate_bindings"],
            "schemas.instance_set_s": total["schemas.instance_set"],
            "rewriting.rewrite_calls": calls["rewriting.rewrite"],
            "rewriting.rewrite_s": total["rewriting.rewrite"],
            "rewriting.expand_s": total["rewriting.expand"],
            "derived.verify_simplification_s": total["derived.verify_simplification"],
            "abelian.lattice_calls": (calls["abelian.lattice_rank_only"]
                                      + calls["abelian.lattice_tracked"]),
            "abelian.lattice_rank_only_s": total["abelian.lattice_rank_only"],
            "abelian.lattice_tracked_s": total["abelian.lattice_tracked"],
            "abelian.lattice_nnz": c["abelian.lattice_nnz"],
            "abelian.lattice_max_cells": self.peaks["abelian.lattice_max_cells"],
            "abelian.snf_calls": calls["abelian.snf"],
            "abelian.snf_s": total["abelian.snf"],
            "abelian.snf_core_cells": c["abelian.snf_core_cells"],
            "abelian.contains_calls": calls["abelian.contains"],
            "abelian.contains_s": total["abelian.contains"],
            "audit.steps_verified": c["audit.steps_verified"],
            "audit.checkpoints": calls["audit.recompute"],
            "audit.recompute_s": total["audit.recompute"],
            "quotients.certificate_calls": cert_calls,
            "quotients.certificate_distinct": len(self.certificate_keys),
            "quotients.certificate_useful_ratio": (
                len(self.certificate_keys) / cert_calls if cert_calls else 0.0),
            "quotients.certificate_s": total["quotients.certificate"],
            "quotients.edge_calls": calls["quotients.edge"],
            "registry.claims_run": calls["registry.claim"],
            "replays.moves": c["replays.moves"],
            "replays.fingen_s": total["replays.fingen"],
            "replays.simplify_s": total["replays.simplify"],
            "replays.quotient_s": total["replays.quotient"],
        }
        for mod in MODULES:
            m[f"{mod}.self_s"] = sum(t for name, t in self_time.items()
                                     if name.split(".", 1)[0] == mod)
        m["trace.spans"] = n
        return m

    @staticmethod
    def cost_per_span(calls: int = 200_000) -> float:
        """Seconds one wrapped call adds, measured on a no-op."""
        def noop():
            return None

        wrapped = Tracer().wrap(noop, "noop")
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        return ((t2 - t1) - (t1 - t0)) / calls

    def write(self, path) -> None:
        """Spans as gzipped TSV: id, name, start, end, parent, unit."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("# units: " + "\t".join(self.units) + "\n")
            out.write("id\tname\tstart_s\tend_s\tparent\tunit\n")
            names = self.names
            for i in range(len(self.name)):
                out.write(f"{i}\t{names[self.name[i]]}\t{self.start[i] - t0:.6f}\t"
                          f"{self.end[i] - t0:.6f}\t{self.parent[i]}\t{self.unit[i]}\n")

