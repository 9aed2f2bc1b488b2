"""The benchmark's library workloads: the groupoid sweep and the (k, j, m) ladder.

Each workload builds its inputs from the seed in ``setup`` and then
hands out passes: lists of ``Op``s, each one timed call into negcurve's
public API plus a check of its result written in this package.  Calls
go through module attributes (``groupoid.act``, not a captured
``act``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from negcurve import extensions, groupoid, homspaces, ring


@dataclass
class Op:
    """One timed call and the check of what it returned or raised.

    ``key`` names the call when it repeats unchanged in every pass, so a
    result equal to the first pass's result reuses that verdict.
    ``check`` returns None when the outcome is right and a reason when
    it is not; ``outcome`` is the return value or the raised exception.
    """

    label: str
    key: str | None
    call: Callable[[], object]
    check: Callable[[object], str | None]


def _raised(outcome) -> str | None:
    if isinstance(outcome, BaseException):
        return f"raised {type(outcome).__name__}: {outcome}"
    return None


def moduli(k: int, j: int, m: int) -> extensions.ModuliParams:
    return extensions.ModuliParams(ring.RingParams(k, m), j)


# -- sweep ---------------------------------------------------------------------

# The acceptance grid with j >= 2 (j = 1 has an empty band): 15 tuples.
SWEEP_GRID = [(k, j, m) for k in (1, 2, 3) for j in (2, 3) for m in (2, 3, 4)
              if (2 * j - 2) // k >= 1]
# Families every sample checks; truncation is added on half the samples.
SWEEP_FAMILIES = ("identity_action", "compatibility", "associativity", "identity_laws",
                  "inverse_laws", "intertwining", "roundtrip")


def check_sweep_report(report, tup, truncation: bool) -> str | None:
    """A one-sample verify_groupoid report with every expected family passing once."""
    failure = _raised(report)
    if failure:
        return failure
    expected = set(SWEEP_FAMILIES) | ({"truncation"} if truncation else set())
    families = report["families"]
    if set(families) != expected:
        return f"families {sorted(families)} != {sorted(expected)}"
    for name, fam in families.items():
        if fam["checked"] != 1 or fam["passed"] != 1:
            return f"{name}: checked {fam['checked']}, passed {fam['passed']} of 1"
    if (report["k"], report["j"], report["m"]) != tup or report["samples"] != 1:
        return "report parameters do not echo the request"
    if report["all_passed"] is not True:
        return "all_passed is not true"
    return None


class Sweep:
    """verify_groupoid, one sample per call, over the 15 acceptance tuples.

    A pass draws two fresh samples per tuple, one with the truncation
    check and one without, so exactly half the samples check truncation.
    The sample seeds come from the workload seed, the pass and the slot.
    """

    min_passes = 1
    unit = "sample"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.params = [moduli(*t) for t in SWEEP_GRID]
        for params in self.params:
            groupoid.verify_groupoid(params, 1, seed, truncation_samples=1, workers=1)

    def ops(self, pass_index: int) -> list[Op]:
        ops = []
        for t, (tup, params) in enumerate(zip(SWEEP_GRID, self.params)):
            for slot in (0, 1):
                sample_seed = (self.seed * 1_000_003 + pass_index) * 64 + 2 * t + slot
                truncation = slot == 0
                ops.append(Op(
                    "sample", None,
                    lambda p=params, s=sample_seed, tr=truncation: groupoid.verify_groupoid(
                        p, 1, s, truncation_samples=int(tr), workers=1),
                    lambda out, tup=tup, tr=truncation: check_sweep_report(out, tup, tr)))
        return ops

    def corrupted(self) -> tuple[Op, object]:
        """An op and a wrong outcome for it that its check must flag."""
        op = self.ops(0)[0]
        report = op.call()
        report["families"]["associativity"]["passed"] = 0
        return op, report


# -- ladder --------------------------------------------------------------------

LADDER_RUNGS = [(1, 2, 3), (1, 3, 4), (1, 4, 6), (1, 6, 8), (2, 8, 10), (1, 10, 12)]
# Single dense calls past (1,6,8) take 2-34 s; brute force takes 11 s dense
# at (1,4,6), so it stops at (1,3,4) dense and (1,4,6) sparse.
DENSE_RUNGS = LADDER_RUNGS[:4]
BRUTEFORCE_RUNGS = {"sparse": LADDER_RUNGS[:3], "dense": LADDER_RUNGS[:2]}
# Passed as max_terms, this makes the library's samplers fill every
# band coefficient and every section monomial.
FULL = 1 << 40
# The default sampler's largest term count for a class.
SPARSE_TERMS = 3


def _h0_dim(s, k, m):
    return sum(max(0, k * i + s + 1) for i in range(m))


def _h1_dim(s, k, m):
    return sum(max(0, -s - 1 - k * i) for i in range(m))


def check_act(g, p, q) -> str | None:
    """q = act(g, p): the canonical cocycle pair of g must glue p to q."""
    failure = _raised(q)
    if failure:
        return failure
    try:
        pair = groupoid.cocycle_matrices(g, p, check=False)
    except ring.ConsistencyError as exc:
        return f"cocycle pair: {exc}"
    if not (pair.is_chart_regular() and pair.intertwines(p, q)):
        return "act result is not glued to p by the cocycle pair of g"
    return None


def check_product(g1, g2, p, h) -> str | None:
    """h = g1 *_p g2 must act on p as g2 followed by g1."""
    failure = _raised(h)
    if failure:
        return failure
    if groupoid.act(h, p) != groupoid.act(g1, groupoid.act(g2, p)):
        return "act(g1 *_p g2, p) != act(g1, act(g2, p))"
    return None


def check_inverse(g, p, ginv) -> str | None:
    failure = _raised(ginv)
    if failure:
        return failure
    if groupoid.act(ginv, groupoid.act(g, p)) != p:
        return "act(inverse, act(g, p)) != p"
    return None


def check_isom(p, q, witness, isomorphic: bool) -> str | None:
    """A witness must carry p to q through a chart-regular intertwining pair.

    ``isomorphic`` marks pairs built as (p, act(g, p)), which must get a
    witness; for independent pairs a None answer is not checked.
    """
    failure = _raised(witness)
    if failure:
        return failure
    if witness is None:
        return "isomorphic pair got no witness" if isomorphic else None
    if groupoid.act(witness, p) != q:
        return "act(witness, p) != q"
    try:
        pair = groupoid.cocycle_matrices(witness, p, check=False)
    except ring.ConsistencyError as exc:
        return f"witness cocycle pair: {exc}"
    if not (pair.is_chart_regular() and pair.intertwines(p, q)):
        return "witness cocycle pair is not chart regular or does not intertwine"
    return None


def check_dims(params, profile) -> str | None:
    """The Euler identity of the four-term sequence, from h0/h1 of O(s) by hand."""
    failure = _raised(profile)
    if failure:
        return failure
    k, j, m = params.k, params.j, params.m
    dim_b = _h0_dim(-2 * j, k, m)
    end_split = 2 * _h0_dim(0, k, m) + _h0_dim(2 * j, k, m) + dim_b
    if profile.dim_hom - end_split + _h1_dim(-2 * j, k, m) - profile.dim_ext1 != 0:
        return "Euler identity fails"
    if profile.dim_ext1 < 0:
        return "negative Ext dimension"
    if profile.dim_hom_L2L1 != dim_b:
        return f"dim_hom_L2L1 {profile.dim_hom_L2L1} != h0(-2j) {dim_b}"
    if profile.dim_hom != dim_b + profile.dim_ker_d1 + profile.dim_ker_d2:
        return "filtration dimensions do not add up"
    return None


def check_bruteforce(p, q, result) -> str | None:
    """The oracle's dimension must equal the filtration count of hom_ext_dims."""
    failure = _raised(result)
    if failure:
        return failure
    dim, pairs = result
    if len(pairs) != dim:
        return f"{len(pairs)} basis pairs for dimension {dim}"
    try:
        dim_hom = homspaces.hom_ext_dims(p, q).dim_hom
    except ring.ConsistencyError as exc:
        return f"hom_ext_dims raised: {exc}"
    if dim != dim_hom:
        return f"oracle mismatch: brute force {dim} vs filtration {dim_hom}"
    return None


@dataclass
class Cell:
    density: str
    rung: tuple[int, int, int]
    params: extensions.ModuliParams
    p: extensions.ExtClass
    q_iso: extensions.ExtClass
    q_ind: extensions.ExtClass
    g: groupoid.GroupElem
    h: groupoid.GroupElem

    @property
    def name(self) -> str:
        k, j, m = self.rung
        return f"{self.density}({k},{j},{m})"


def _sparse_class(params, rng):
    """A default-sampler class with the sampler's most terms (3).

    The sampler draws 0 to 3 terms; a zero class makes isom, dims and
    brute force trivial (brute force at (1,4,6): 0.08 s against 0.5 s
    or more on three terms).
    """
    while True:
        p = groupoid.sample_ext_class(params, rng)
        if len(p.p.terms) == SPARSE_TERMS:
            return p


def _draw(params, rng, density: str):
    """(p, q, g, h) from the library's samplers; dense ones are completely full."""
    if density == "sparse":
        return (_sparse_class(params, rng), _sparse_class(params, rng),
                groupoid.sample_group_elem(params, rng), groupoid.sample_group_elem(params, rng))
    width = len(extensions.basis_W(params))
    while True:
        p = groupoid.sample_ext_class(params, rng, max_terms=FULL)
        q = groupoid.sample_ext_class(params, rng, max_terms=FULL)
        g = groupoid.sample_group_elem(params, rng, max_terms=FULL)
        h = groupoid.sample_group_elem(params, rng, max_terms=FULL)
        # max_terms draws the term count uniformly in [0, FULL]; a count
        # below the basis size has probability about 1e-11 and is redrawn.
        if len(p.p.terms) == width and len(q.p.terms) == width:
            return p, q, g, h


class Ladder:
    """act, product, inverse, isom, dims and brute force on the (k, j, m) ladder.

    Every cell (density, rung) draws p, q, g, h from its own stream and
    pairs p with the isomorphic q_iso = act(g, p) and the independent q.
    Every pass repeats the same calls, so passes are comparable.
    """

    min_passes = 2
    unit = "call"

    def __init__(self, rungs=None):
        self.rungs = LADDER_RUNGS if rungs is None else rungs

    def setup(self, seed: int) -> None:
        self.cells = []
        for density in ("sparse", "dense"):
            for rung in self.rungs:
                if density == "dense" and rung not in DENSE_RUNGS:
                    continue
                k, j, m = rung
                params = moduli(k, j, m)
                # Sparse costs follow the drawn support (brute force at
                # (1,4,6) takes 0.5 to 2 s on three-term classes), so the
                # sparse draws are the same for every seed; dense costs do
                # not, and dense draws follow the seed.
                stream = f"{seed}:dense" if density == "dense" else "sparse"
                rng = random.Random(f"ladder:{stream}:{k},{j},{m}")
                p, q, g, h = _draw(params, rng, density)
                self.cells.append(Cell(density, rung, params, p, groupoid.act(g, p), q, g, h))
        for op in self._cell_ops(self.cells[0]):
            try:
                op.call()
            except Exception:  # warm-up only; the timed passes count failures
                pass

    def _cell_ops(self, cell: Cell) -> list[Op]:
        c, n = cell, cell.name
        ops = [
            Op("act", n + ":act", lambda: groupoid.act(c.g, c.p),
               lambda out: check_act(c.g, c.p, out)),
            Op("product", n + ":product", lambda: groupoid.induced_product(c.g, c.h, c.p),
               lambda out: check_product(c.g, c.h, c.p, out)),
            Op("inverse", n + ":inverse", lambda: groupoid.induced_inverse(c.g, c.p),
               lambda out: check_inverse(c.g, c.p, out)),
            Op("isom", n + ":isom_iso", lambda: homspaces.isom_decide(c.p, c.q_iso),
               lambda out: check_isom(c.p, c.q_iso, out, isomorphic=True)),
            Op("isom", n + ":isom_ind", lambda: homspaces.isom_decide(c.p, c.q_ind),
               lambda out: check_isom(c.p, c.q_ind, out, isomorphic=False)),
            Op("dims", n + ":dims_iso", lambda: homspaces.hom_ext_dims(c.p, c.q_iso),
               lambda out: check_dims(c.params, out)),
            Op("dims", n + ":dims_ind", lambda: homspaces.hom_ext_dims(c.p, c.q_ind),
               lambda out: check_dims(c.params, out)),
        ]
        if c.rung in BRUTEFORCE_RUNGS[c.density]:
            ops += [
                Op("bruteforce", n + ":bf_self", lambda: homspaces.brute_force_hom(c.p, c.p),
                   lambda out: check_bruteforce(c.p, c.p, out)),
                Op("bruteforce", n + ":bf_iso", lambda: homspaces.brute_force_hom(c.p, c.q_iso),
                   lambda out: check_bruteforce(c.p, c.q_iso, out)),
            ]
        return ops

    def ops(self, pass_index: int) -> list[Op]:
        return [op for cell in self.cells for op in self._cell_ops(cell)]

    def corrupted(self) -> tuple[Op, object]:
        """An isomorphism witness with one coefficient of a perturbed."""
        cell = next(c for c in self.cells if c.density == "dense")
        op = next(op for op in self._cell_ops(cell) if op.key.endswith(":isom_iso"))
        w = op.call()
        a = w.a.rep + ring.RingElem.constant(cell.params.ring, 1)
        if a.coeff(0, 0) == 0:
            a = w.a.rep.scale(2)
        bad = groupoid.GroupElem.from_reps(cell.params, a, w.b.rep, w.c.rep, w.d.rep)
        return op, bad
