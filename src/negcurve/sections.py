"""Global sections and first cohomology of the line bundle twists O(s).

On the truncated neighborhood with parameters (k, m), the sections of
O(s) are spanned on the first chart by the monomials z^l u^i with
0 <= l <= k*i + s and 0 <= i <= m-1; H^1(O(s)) is spanned by the
classes of z^l u^i with k*i + s < l < 0.  The ring of global functions
is a cone: it is generated by x_a = z^a u, 0 <= a <= k, subject to the
quadric relations x_a x_b = x_{a+1} x_{b-1}.
"""

from __future__ import annotations

from .ring import RingElem, RingParams, _fields, _Frozen, elem_from_dict, elem_to_dict


class TwistedSection(_Frozen):
    """A global section of O(s), stored by its first-chart representative."""

    __slots__ = ("s", "rep")

    def __init__(self, s: int, rep: RingElem):
        if type(s) is not int:
            raise ValueError("the twist s must be an integer")
        k = rep.params.k
        for (l, i) in rep.nums:
            if l < 0 or l > k * i + s:
                raise ValueError(f"term z^{l} u^{i} violates the O({s}) support bound")
        super().__init__(s, rep)

    def to_dict(self) -> dict:
        data = elem_to_dict(self.rep)
        data["s"] = self.s
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "TwistedSection":
        k, m, terms, s = _fields(data, ("k", "m", "terms", "s"), "section")
        return cls(s, elem_from_dict({"k": k, "m": m, "terms": terms}))


def h0_basis(s: int, params: RingParams) -> list[tuple[int, int]]:
    """Monomial basis (l, i) of the space of global sections of O(s)."""
    k, m = params.k, params.m
    return [(l, i) for i in range(m) for l in range(0, k * i + s + 1)]


def h0_dim(s: int, params: RingParams) -> int:
    k, m = params.k, params.m
    return sum(max(0, k * i + s + 1) for i in range(m))


def h1_dim(s: int, params: RingParams) -> int:
    """dim H^1(O(s)); the count of gap monomials k*i + s < l < 0."""
    k, m = params.k, params.m
    return sum(max(0, -s - 1 - k * i) for i in range(m))


def cone_check(k: int, m: int) -> dict:
    """Verify the quadric relations among the generators x_a = z^a u.

    Checks x_a * x_b - x_{a+1} * x_{b-1} = 0 in the truncated ring for
    all 0 <= a, a + 2 <= b <= k and reports each relation.  At m = 1,
    u = 0, so every generator is zero and every relation holds.
    """
    params = RingParams(k, m)
    gens = [RingElem(params, {(a, 1): 1} if m > 1 else {}) for a in range(k + 1)]
    relations = []
    for a in range(k - 1):
        for b in range(a + 2, k + 1):
            diff = gens[a] * gens[b] - gens[a + 1] * gens[b - 1]
            relations.append({"a": a, "b": b, "holds": diff.is_zero()})
    return {
        "k": k,
        "m": m,
        "relations": relations,
        "all_hold": all(r["holds"] for r in relations),
    }
