"""Per-layer tracing of negcurve, installed from outside the package.

The tracer replaces every module binding of the traced functions, and
the traced methods on negcurve's classes, with timing wrappers; nothing
under ``src/`` is edited.  ``homspaces.act`` is bound apart from
``groupoid.act`` and ``plus_part`` is imported into several modules, so
each module's copy is patched.  ``uninstall`` puts the originals back.

Calls into ``groupoid``, ``homspaces``, ``linalg`` and ``cli`` become
spans (name, start, end, parent, operation id) kept in memory and
written out by ``write_spans``.  ``ring``, ``extensions`` and
``sections`` calls run about a thousand times per sweep sample, so they
are only counted, with summed time, on the enclosing span and in
per-layer totals.

The self time of any wrapped call is its duration minus the duration
of the wrapped calls made directly inside it, so the self times of all
layers add up to the traced time without overlap.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import negcurve
from negcurve import cli, extensions, groupoid, homspaces, linalg, ring, sections

MODULES = (negcurve, ring, extensions, sections, groupoid, homspaces, linalg, cli)

# layer metric -> functions that become spans, as (module, name).
SPANS = {
    "groupoid.act": (groupoid, "act"),
    "groupoid.extract": (groupoid, "extract_group_elem"),
    "groupoid.induced_product": (groupoid, "induced_product"),
    "groupoid.induced_inverse": (groupoid, "induced_inverse"),
    "groupoid.cocycle_matrices": (groupoid, "cocycle_matrices"),
    "groupoid.verify_groupoid": (groupoid, "verify_groupoid"),
    "homspaces.build_linear_system": (homspaces, "build_linear_system"),
    "homspaces.spectral_differentials": (homspaces, "spectral_differentials"),
    "homspaces.isom_decide": (homspaces, "isom_decide"),
    "homspaces.hom_ext_dims": (homspaces, "hom_ext_dims"),
    "homspaces.brute_force_hom": (homspaces, "brute_force_hom"),
    "linalg.echelon": (linalg, "echelon"),
    "linalg.nullspace": (linalg, "nullspace"),
    "cli.main": (cli, "main"),
}

# layer metric -> calls that are counted, as (module, name) or (class, method).
COUNTERS = {
    "ring.mul": [(ring.RingElem, "__mul__")],
    "ring.add": [(ring.RingElem, name) for name in ("__add__", "__sub__", "__neg__", "scale", "shift")],
    "ring.project": [(ring.RingElem, "select"), (ring, "plus_part"), (ring, "sector_split"),
                     (ring, "truncate")],
    "ring.invert_unit": [(ring, "invert_unit")],
    "extensions.mat2_mul": [(extensions.Mat2, "__mul__")],
    "extensions.extclass_new": [(extensions.ExtClass, "__init__")],
    "sections.twisted_section": [(sections.TwistedSection, "__init__")],
}

MAX_SPANS = 20_000


def _coeff_bits(obj) -> int:
    """Largest numerator or denominator bit length inside a returned value."""
    if isinstance(obj, ring.RingElem):
        return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                    for c in obj.terms.values()), default=0)
    if isinstance(obj, extensions.ExtClass):
        return _coeff_bits(obj.p)
    if isinstance(obj, groupoid.GroupElem):
        return max(_coeff_bits(sec.rep) for sec in (obj.a, obj.b, obj.c, obj.d))
    if isinstance(obj, groupoid.CocyclePair):
        return max(_coeff_bits(e) for mat in (obj.A, obj.B) for e in mat.entries())
    if isinstance(obj, (tuple, list)):
        return max((_coeff_bits(x) for x in obj), default=0)
    if isinstance(obj, Fraction):
        return max(obj.numerator.bit_length(), obj.denominator.bit_length())
    return 0


class Tracer:
    """Span and counter recorder; ``on`` gates recording without unpatching."""

    def __init__(self):
        self.on = False
        self.op_id = -1
        self.ops = 0
        self.stats = {key: [0, 0.0] for key in list(SPANS) + list(COUNTERS)}
        self.spans: list[list] = []
        self.dropped_spans = 0
        self.term_pairs = 0
        self.terms_kept = 0
        self.coeff_bits_max = 0
        self.echelon_rows_in = 0
        self.echelon_pivots = 0
        self.nullspace_cols_max = 0
        self.nullspace_in_bruteforce = 0
        self._next_id = 0
        self._stack: list[list[float]] = []
        self._span_stack: list[list] = []
        self._epoch = time.perf_counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for key, (module, name) in SPANS.items():
            self._patch_function(module, name, self._wrap(key, getattr(module, name), span=True))
        for key, targets in COUNTERS.items():
            for owner, name in targets:
                if isinstance(owner, type):
                    orig = owner.__dict__[name]
                    self._restore.append((owner, name, orig))
                    setattr(owner, name, self._wrap(key, orig, span=False))
                else:
                    self._patch_function(owner, name,
                                         self._wrap(key, getattr(owner, name), span=False))

    def _patch_function(self, module, name, wrapper) -> None:
        orig = getattr(module, name)
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, key: str, fn, span: bool):
        tracer = self
        stat = self.stats[key]
        stack = self._stack
        span_stack = self._span_stack
        clock = time.perf_counter
        hook = getattr(self, "_after_" + key.replace(".", "_"), None)

        def counted(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                own = dur - frame[0]
                stat[0] += 1
                stat[1] += own
                if stack:
                    stack[-1][0] += dur
                if span_stack:
                    per_span = span_stack[-1][6].setdefault(key, [0, 0.0])
                    per_span[0] += 1
                    per_span[1] += own
            if hook is not None:
                hook(args, out)
            return out

        def spanned(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            parent = span_stack[-1][0] if span_stack else None
            rec = [tracer._next_id, key, 0.0, 0.0, parent, tracer.op_id, {}]
            tracer._next_id += 1
            frame = [0.0]
            stack.append(frame)
            span_stack.append(rec)
            nullspace_before = tracer.stats["linalg.nullspace"][0]
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span_stack.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                rec[2], rec[3] = t0 - tracer._epoch, t1 - tracer._epoch
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append(rec)
                else:
                    tracer.dropped_spans += 1
            # Inspecting the result is tracing cost: keep it out of the
            # caller's self time.
            t2 = clock()
            if key == "homspaces.brute_force_hom":
                tracer.nullspace_in_bruteforce += tracer.stats["linalg.nullspace"][0] - nullspace_before
            if hook is not None:
                hook(args, out)
            if key.startswith(("groupoid.", "homspaces.")):
                tracer.coeff_bits_max = max(tracer.coeff_bits_max, _coeff_bits(out))
            if stack:
                stack[-1][0] += clock() - t2
            return out

        return spanned if span else counted

    def _after_ring_mul(self, args, out) -> None:
        self.term_pairs += len(args[0].terms) * len(args[1].terms)
        self.terms_kept += len(out.terms)

    def _after_linalg_echelon(self, args, out) -> None:
        self.echelon_rows_in += len(args[0])
        self.echelon_pivots += len(out)

    def _after_linalg_nullspace(self, args, out) -> None:
        self.nullspace_cols_max = max(self.nullspace_cols_max, args[1])

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer totals over the traced operations, and exact per-op ratios."""
        out: dict[str, float] = {}
        for key, (calls, self_s) in self.stats.items():
            out[key + ".calls"] = calls
            out[key + ".self_ms"] = self_s * 1000.0
        out["ring.mul.term_pairs"] = self.term_pairs
        out["ring.mul.keep_ratio"] = self.terms_kept / self.term_pairs if self.term_pairs else 0.0
        out["ring.coeff_bits_max"] = self.coeff_bits_max
        out["linalg.echelon.rows_in"] = self.echelon_rows_in
        out["linalg.echelon.pivot_ratio"] = (self.echelon_pivots / self.echelon_rows_in
                                             if self.echelon_rows_in else 0.0)
        out["linalg.nullspace.cols_max"] = self.nullspace_cols_max
        ops = self.ops or 1
        out["groupoid.act_per_sample"] = self.stats["groupoid.act"][0] / ops
        out["groupoid.product_per_sample"] = self.stats["groupoid.induced_product"][0] / ops
        bf_calls = self.stats["homspaces.brute_force_hom"][0]
        out["homspaces.nullspace_per_bruteforce"] = (self.nullspace_in_bruteforce / bf_calls
                                                     if bf_calls else 0.0)
        return out

    def write_spans(self, path) -> None:
        """One JSON object per span, in completion order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op_id, counts in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start_s": start, "end_s": end, "parent": parent,
                    "op": op_id,
                    "counts": {k: {"calls": c, "self_ms": s * 1000.0} for k, (c, s) in counts.items()},
                }, separators=(",", ":")) + "\n")
