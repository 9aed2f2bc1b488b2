"""Command-line front end with canonical, deterministic JSON output.

Every verb prints exactly one canonical JSON document (sorted keys,
compact separators) so identical invocations are byte-identical.  Exit
codes: 0 for any computed answer (including "not isomorphic"), 1 for
malformed input, 2 for an internal consistency violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .extensions import ExtClass, ModuliParams, basis_W, reduce_cocycle, restrict_level
from .groupoid import (GroupElem, act, induced_inverse, induced_product,
                       verify_groupoid)
from .homspaces import brute_force_hom, default_degree_bound, hom_ext_dims, isom_decide
from .ring import ConsistencyError, RingParams, _fields, elem_from_dict, elem_to_dict
from .sections import cone_check, h0_basis, h0_dim, h1_dim

# The largest basis or count a command may ask for: the truncation order
# m and the h0 basis of O(2j) (the largest basis behind every verb that
# takes --j), the h0 basis of O(s) (``cohomology``), the relation count
# (``cone-check``) and the unknown count (``bruteforce``: the degree+1
# system).  These grow with --k, --j, --m, --s and --degree, so a short
# command line could otherwise allocate without bound; a larger request
# exits 1 before anything is allocated.
SIZE_CAP = 20_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _dump(obj, stream) -> None:
    stream.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _ring_params(args) -> RingParams:
    if args.m is not None:
        return RingParams(args.k, args.m)
    if args.level < 0:
        raise ValueError("--level must be a non-negative integer")
    return RingParams(args.k, args.level + 1)


def _check_size(count: int, what: str) -> None:
    if count > SIZE_CAP:
        raise ValueError(f"{what} {count} exceeds the size cap {SIZE_CAP}")


def _moduli_params(args) -> ModuliParams:
    params = ModuliParams(_ring_params(args), args.j)
    _check_size(params.m, "truncation order m")
    # h0(O(2j)) has k*i + 2j + 1 monomials at u-order i, the Ext^1 band
    # 2j - 1 - k*i, so this also bounds the band, basis_W and h0(O(-2j)).
    _check_size(h0_dim(2 * params.j, params.ring), "h0 basis size")
    return params


def _load_payload(args, *names) -> tuple:
    """The JSON payload's fields ``names``, in order; exactly those fields."""
    if args.payload in (None, "-"):
        text = sys.stdin.read()
    else:
        with open(args.payload, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"payload is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError("payload nests too deeply") from exc
    return _fields(data, names, "payload")


def _ext_class(data, params: ModuliParams) -> ExtClass:
    """Accept either the full envelope or a coefficient vector in basis order."""
    if isinstance(data, list):
        return ExtClass.from_vector(params, data)
    cls = ExtClass.from_dict(data)
    if cls.params != params:
        raise ValueError("payload parameters disagree with the flags")
    return cls


def _cmd_basis(args, params):
    basis = basis_W(params)
    return {"dim": len(basis), "indices": [[i, l] for (i, l) in basis]}


def _cmd_reduce(args, params):
    y = elem_from_dict(*_load_payload(args, "y"))
    if y.params != params.ring:
        raise ValueError("payload parameters disagree with the flags")
    p, f_u, f_v = reduce_cocycle(y, params)
    return {"p": p.to_dict(), "f_U": elem_to_dict(f_u), "f_V": elem_to_dict(f_v)}


def _cmd_act(args, params):
    g, p = _load_payload(args, "g", "p")
    return act(GroupElem.from_dict(g, params), _ext_class(p, params)).to_dict()


def _cmd_compose(args, params):
    g1, g2, p = _load_payload(args, "g1", "g2", "p")
    return induced_product(GroupElem.from_dict(g1, params), GroupElem.from_dict(g2, params),
                           _ext_class(p, params)).to_dict()


def _cmd_invert_g(args, params):
    g, p = _load_payload(args, "g", "p")
    return induced_inverse(GroupElem.from_dict(g, params), _ext_class(p, params)).to_dict()


def _cmd_isom(args, params):
    p, p_prime = _load_payload(args, "p", "p_prime")
    witness = isom_decide(_ext_class(p, params), _ext_class(p_prime, params))
    return {"isomorphic": witness is not None,
            "witness": None if witness is None else witness.to_dict()}


def _cmd_dims(args, params):
    p, p_prime = _load_payload(args, "p", "p_prime")
    return hom_ext_dims(_ext_class(p, params), _ext_class(p_prime, params)).to_dict()


def _cmd_bruteforce(args, params):
    degree = args.degree if args.degree is not None else default_degree_bound(params)
    # Four entries of A on the monomials z^l u^i, l <= degree + 1, i < m.
    _check_size(4 * params.m * (degree + 2), "brute-force unknown count")
    p, p_prime = _load_payload(args, "p", "p_prime")
    p, p_prime = _ext_class(p, params), _ext_class(p_prime, params)
    dim, _ = brute_force_hom(p, p_prime, degree)
    profile = hom_ext_dims(p, p_prime)
    if profile.dim_hom != dim:
        raise ConsistencyError(
            f"oracle mismatch: brute force {dim} vs filtration {profile.dim_hom}")
    return {"degree": degree, "dim": dim, "stabilized": True}


def _cmd_check_axioms(args, params):
    return verify_groupoid(params, args.samples, args.seed,
                           truncation_samples=args.truncation_samples)


def _cmd_cohomology(args, params):
    _check_size(params.m, "truncation order m")
    _check_size(h0_dim(args.s, params), "h0 basis size")
    basis = h0_basis(args.s, params)
    return {"s": args.s, "h0_dim": len(basis), "h0_basis": [[l, i] for (l, i) in basis],
            "h1_dim": h1_dim(args.s, params)}


def _cmd_cone_check(args, params):
    _check_size(params.k * (params.k - 1) // 2, "cone relation count")
    return cone_check(params.k, params.m)


def _cmd_restrict(args, params):
    p, = _load_payload(args, "p")
    return restrict_level(_ext_class(p, params), args.to).to_dict()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="negcurve", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_Parser)

    def add(name, fn, needs_j=True, payload=False, extra=()):
        sp = sub.add_parser(name)
        sp.add_argument("--k", type=int, required=True)
        if needs_j:
            sp.add_argument("--j", type=int, required=True)
        modulus = sp.add_mutually_exclusive_group(required=True)
        modulus.add_argument("--m", type=int)
        modulus.add_argument("--level", type=int,
                             help="neighborhood order n; equivalent to --m n+1")
        sp.add_argument("--output", default=None)
        if payload:
            sp.add_argument("payload", nargs="?", default=None,
                            help="JSON file, or '-'/omitted for stdin")
        for name_, kwargs in extra:
            sp.add_argument(name_, **kwargs)
        sp.set_defaults(fn=fn, needs_j=needs_j)
        return sp

    add("basis", _cmd_basis)
    add("reduce", _cmd_reduce, payload=True)
    add("act", _cmd_act, payload=True)
    add("compose", _cmd_compose, payload=True)
    add("invert-g", _cmd_invert_g, payload=True)
    add("isom", _cmd_isom, payload=True)
    add("dims", _cmd_dims, payload=True)
    add("bruteforce", _cmd_bruteforce, payload=True,
        extra=[("--degree", {"type": int, "default": None})])
    add("check-axioms", _cmd_check_axioms,
        extra=[("--samples", {"type": int, "default": 100}),
               ("--seed", {"type": int, "default": 0}),
               ("--truncation-samples", {"type": int, "default": 0})])
    add("cohomology", _cmd_cohomology, needs_j=False,
        extra=[("--s", {"type": int, "required": True})])
    add("cone-check", _cmd_cone_check, needs_j=False)
    add("restrict", _cmd_restrict, payload=True,
        extra=[("--to", {"type": int, "required": True})])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Every verb maps (args, params) to its answer, printed once here.
        params = _moduli_params(args) if args.needs_j else _ring_params(args)
        result = args.fn(args, params)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as out:
                _dump(result, out)
        else:
            _dump(result, sys.stdout)
    except ConsistencyError as exc:
        print(f"negcurve: internal consistency violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"negcurve: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
