"""The cli workload: one-shot ``python -m negcurve.cli`` queries.

The corpus is the criterion-8 verb corpus of the acceptance suite, the
Hom-undercount reproducer from ROADMAP item 1, malformed inputs from the
exit-code contract (0 computed, 1 malformed input, 2 internal
inconsistency, never a traceback), and four computed queries drawn from
the seed.  Expected outcomes follow the README contract: a computed verb
exits 0 and prints the canonical JSON (sorted keys, compact separators)
of the in-process library result; the reproducer and the malformed
cases are written out by hand.  Nothing is captured from the CLI.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from negcurve import cli, extensions, groupoid, homspaces, ring, sections
from workloads import Op, moduli

TRACEBACK = "Traceback (most recent call last)"


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


@dataclass
class Case:
    name: str
    argv: list[str]
    stdin: str | None
    code: int
    stdout: str | None  # exact expected stdout; None means empty on error exits


def check_cli(case: Case, outcome) -> str | None:
    if isinstance(outcome, BaseException):
        return f"runner raised {type(outcome).__name__}: {outcome}"
    code, out, err = outcome
    if TRACEBACK in err:
        return "Python traceback on stderr"
    if code != case.code:
        return f"exit {code}, expected {case.code} ({err.strip()[-160:]})"
    if case.code == 0 and out != case.stdout:
        return "stdout is not the expected canonical JSON"
    if case.code != 0 and out:
        return "error exit wrote to stdout"
    return None


def _section(s, *terms):
    return {"k": 1, "m": 3, "s": s,
            "terms": [{"l": l, "i": i, "num": n, "den": d} for (l, i, n, d) in terms]}


def _g(a, c, b=()):
    """A group element at (k, m) = (1, 3), j = 2, from term tuples (l, i, num, den)."""
    return {"a": _section(0, *a), "b": _section(-4, *b), "c": _section(4, *c),
            "d": _section(0, (0, 0, 1, 1))}


def _vec(params, coeffs):
    return extensions.ExtClass.from_vector(params, [Fraction(c) for c in coeffs])


def _fixed_cases() -> list[Case]:
    p123 = moduli(1, 2, 3)
    ge = groupoid.GroupElem.from_dict
    cases = []

    def computed(name, argv, payload, result):
        cases.append(Case(name, argv, None if payload is None else json.dumps(payload), 0,
                          canonical(result)))

    flags123 = ["--k", "1", "--j", "2", "--m", "3"]
    # The README's worked example, written out literally.
    computed("basis-1-2-3", ["basis"] + flags123, None, {"dim": 3, "indices": [[1, 0], [1, 1], [2, 1]]})
    basis = extensions.basis_W(moduli(3, 3, 4))
    computed("basis-3-3-4", ["basis", "--k", "3", "--j", "3", "--m", "4"], None,
             {"dim": len(basis), "indices": [[i, l] for (i, l) in basis]})

    y = {"k": 1, "m": 3, "terms": [{"l": 5, "i": 1, "num": 1, "den": 1},
                                   {"l": 1, "i": 1, "num": 2, "den": 3},
                                   {"l": -3, "i": 1, "num": -1, "den": 1}]}
    p, f_u, f_v = extensions.reduce_cocycle(ring.elem_from_dict(y), p123)
    computed("reduce", ["reduce"] + flags123, {"y": y},
             {"p": p.to_dict(), "f_U": ring.elem_to_dict(f_u), "f_V": ring.elem_to_dict(f_v)})

    g = _g([(0, 0, 1, 1)], [(1, 0, 1, 1)])
    computed("act", ["act"] + flags123, {"g": g, "p": [0, 1, 0]},
             groupoid.act(ge(g, p123), _vec(p123, [0, 1, 0])).to_dict())

    g1 = _g([(0, 0, 2, 1)], [])
    g2 = _g([(0, 0, 1, 3)], [(2, 1, 1, 1)])
    computed("compose", ["compose"] + flags123, {"g1": g1, "g2": g2, "p": [1, 2, 5]},
             groupoid.induced_product(ge(g1, p123), ge(g2, p123), _vec(p123, [1, 2, 5])).to_dict())

    g = _g([(0, 0, 2, 1)], [(0, 0, 1, 1)])
    computed("invert-g", ["invert-g"] + flags123, {"g": g, "p": [1, 2, 5]},
             groupoid.induced_inverse(ge(g, p123), _vec(p123, [1, 2, 5])).to_dict())

    for tag, (a, b) in (("iso", ([1, 2, 5], [3, 6, 0])), ("noniso", ([0, 0, 1], [1, 0, 0]))):
        w = homspaces.isom_decide(_vec(p123, a), _vec(p123, b))
        computed(f"isom-{tag}", ["isom"] + flags123, {"p": a, "p_prime": b},
                 {"isomorphic": w is not None, "witness": None if w is None else w.to_dict()})

    p233 = moduli(2, 3, 3)
    computed("dims", ["dims", "--k", "2", "--j", "3", "--m", "3"],
             {"p": [0, 0, 0, 0], "p_prime": [1, 0, 0, 0]},
             homspaces.hom_ext_dims(_vec(p233, [0, 0, 0, 0]), _vec(p233, [1, 0, 0, 0])).to_dict())

    dim, _ = homspaces.brute_force_hom(_vec(p123, [1, 0, 0]), _vec(p123, [1, 0, 0]), 8)
    computed("bruteforce", ["bruteforce"] + flags123 + ["--degree", "8"],
             {"p": [1, 0, 0], "p_prime": [1, 0, 0]}, {"degree": 8, "dim": dim, "stabilized": True})

    computed("check-axioms", ["check-axioms", "--k", "1", "--j", "3", "--m", "3", "--samples", "25",
                              "--seed", "14", "--truncation-samples", "10"], None,
             groupoid.verify_groupoid(moduli(1, 3, 3), 25, 14, truncation_samples=10))

    r24 = ring.RingParams(2, 4)
    h0 = sections.h0_basis(-5, r24)
    computed("cohomology", ["cohomology", "--k", "2", "--m", "4", "--s", "-5"], None,
             {"s": -5, "h0_dim": len(h0), "h0_basis": [[l, i] for (l, i) in h0],
              "h1_dim": sections.h1_dim(-5, r24)})
    computed("cone-check", ["cone-check", "--k", "6", "--m", "2"], None, sections.cone_check(6, 2))
    computed("restrict", ["restrict"] + flags123 + ["--to", "2"], {"p": [1, 2, 5]},
             extensions.restrict_level(_vec(p123, [1, 2, 5]), 2).to_dict())

    # ROADMAP item 1: p = z u + z^2 u at (1, 3, 4) has a 48-dimensional Hom
    # space; the default degree bound is k(m-1) + 2j + 1 = 10.
    repro = json.dumps({"p": [0, 0, 1, 1, 0, 0, 0, 0, 0], "p_prime": [0, 0, 1, 1, 0, 0, 0, 0, 0]})
    cases.append(Case("bruteforce-item1", ["bruteforce", "--k", "1", "--j", "3", "--m", "4"], repro, 0,
                      '{"degree":10,"dim":48,"stabilized":true}\n'))

    cases += [
        Case("invalid-json", ["isom"] + flags123, "{not json", 1, None),
        Case("unknown-field", ["isom"] + flags123, json.dumps({"p": [1, 2, 5], "q": [1, 2, 5]}), 1, None),
        Case("float-coefficient", ["restrict"] + flags123 + ["--to", "2"],
             json.dumps({"p": [1.5, 2, 5]}), 1, None),
        Case("cohomology-no-m", ["cohomology", "--k", "1", "--s", "3"], None, 1, None),
        Case("reduce-bool-l", ["reduce"] + flags123,
             json.dumps({"y": {"k": 1, "m": 3, "terms": [{"l": True, "i": 1, "num": 1, "den": 1}]}}),
             1, None),
    ]
    return cases


def _seeded_cases(seed: int) -> list[Case]:
    """Four computed queries at (1, 3, 4) from the library's default samplers."""
    params = moduli(1, 3, 4)
    rng = random.Random(f"cli:{seed}")
    p = groupoid.sample_ext_class(params, rng)
    q = groupoid.sample_ext_class(params, rng)
    g1 = groupoid.sample_group_elem(params, rng)
    g2 = groupoid.sample_group_elem(params, rng)
    flags = ["--k", "1", "--j", "3", "--m", "4"]
    w = homspaces.isom_decide(p, groupoid.act(g1, p))
    queries = [
        ("seeded-act", "act", {"g": g1.to_dict(), "p": p.to_dict()}, groupoid.act(g1, p).to_dict()),
        ("seeded-compose", "compose", {"g1": g1.to_dict(), "g2": g2.to_dict(), "p": p.to_dict()},
         groupoid.induced_product(g1, g2, p).to_dict()),
        ("seeded-isom", "isom", {"p": p.to_dict(), "p_prime": groupoid.act(g1, p).to_dict()},
         {"isomorphic": w is not None, "witness": None if w is None else w.to_dict()}),
        ("seeded-dims", "dims", {"p": p.to_dict(), "p_prime": q.to_dict()},
         homspaces.hom_ext_dims(p, q).to_dict()),
    ]
    return [Case(name, [verb] + flags, json.dumps(payload), 0, canonical(result))
            for name, verb, payload, result in queries]


def child_env(root: Path) -> dict:
    """Environment of every child interpreter: negcurve from src/, bytecode cached.

    Children write bytecode caches, as an installed package has them,
    whatever the calling environment says, so runs compare alike.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_subprocess(root: Path, case: Case):
    proc = subprocess.run([sys.executable, "-m", "negcurve.cli"] + case.argv, input=case.stdin,
                          capture_output=True, text=True, cwd=root, env=child_env(root),
                          timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def run_in_process(case: Case):
    """cli.main with redirected stdio; an escaping exception prints a traceback, as python would."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(case.stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(case.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                code = 1
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


class Cli:
    """Each invocation in a fresh interpreter (or, for the traced run, in-process).

    One caller in a closed loop: the next invocation starts when the
    previous one has exited.  The corpus order is shuffled by the seed.
    """

    min_passes = 1
    unit = "invocation"

    def __init__(self, root: Path, in_process: bool = False):
        self.root = root
        self.in_process = in_process

    def invoke(self, case: Case):
        return run_in_process(case) if self.in_process else run_subprocess(self.root, case)

    def setup(self, seed: int) -> None:
        cases = _fixed_cases() + _seeded_cases(seed)
        random.Random(f"cli-order:{seed}").shuffle(cases)
        self.cases = cases
        self.invoke(cases[0])

    def ops(self, pass_index: int) -> list[Op]:
        return [Op("cli", case.name, lambda c=case: self.invoke(c), lambda out, c=case: check_cli(c, out))
                for case in self.cases]

    def corrupted(self) -> tuple[Op, object]:
        """A computed case whose expected exit code is wrong."""
        case = next(c for c in self.cases if c.code == 0)
        wrong = Case(case.name, case.argv, case.stdin, 1, None)
        return Op("cli", None, lambda: None, lambda out: check_cli(wrong, out)), self.invoke(case)
