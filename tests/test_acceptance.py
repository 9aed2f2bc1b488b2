"""Acceptance criteria, one test per criterion, all at zero tolerance.

Every check is an exact structural identity over the rationals.  Each
test prints a single PASS/FAIL line; the shared randomized sweep behind
criteria 3, 4 and 7 runs once per session.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from negcurve.extensions import ExtClass, ModuliParams, basis_W
from negcurve.groupoid import sample_ext_class, substream, verify_groupoid
from negcurve.homspaces import brute_force_hom, hom_ext_dims, isom_decide
from negcurve.ring import RingParams
from negcurve.sections import cone_check, h0_dim, h1_dim

GRID = [(k, j, m) for k in (1, 2, 3) for j in (1, 2, 3) for m in (2, 3, 4)
        if (2 * j - 2) // k >= 1]
WORKERS = min(2, os.cpu_count() or 1)
SEED = 20240801
SWEEP_SAMPLES = 1000
SWEEP_TRUNCATION = 500


def params_of(k, j, m):
    return ModuliParams(RingParams(k, m), j)


def report_line(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def sample_nonzero_class(params, rng):
    for _ in range(100):
        p = sample_ext_class(params, rng)
        if not p.is_zero():
            return p
    raise AssertionError("could not sample a nonzero class")


def proportional(p, q):
    pv, qv = p.to_vector(), q.to_vector()
    ratio = None
    for a, b in zip(pv, qv):
        if a == 0 and b == 0:
            continue
        if a == 0 or b == 0:
            return False
        r = b / a
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return True


@pytest.fixture(scope="session")
def groupoid_sweep():
    """The shared 1000-sample exact verification across the whole grid."""
    reports = {}
    t0 = time.time()
    for (k, j, m) in GRID:
        reports[(k, j, m)] = verify_groupoid(
            params_of(k, j, m), SWEEP_SAMPLES, SEED,
            truncation_samples=SWEEP_TRUNCATION, workers=WORKERS)
    return reports, time.time() - t0


def test_criterion_1_first_level_projectivization():
    t0 = time.time()
    ok = True
    detail = ""
    for (k, j) in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        params = params_of(k, j, 2)
        dim_w = len(basis_W(params))
        if dim_w - 1 != 2 * j - k - 2:
            ok, detail = False, f"dim W - 1 != 2j-k-2 at (k={k}, j={j})"
            break
        for idx in range(100):
            rng = substream(SEED + 1, idx * 10 + k * 100 + j)
            p = sample_nonzero_class(params, rng)
            for lam in (2, -3, Fraction(1, 2)):
                scaled = ExtClass(params, p.p.scale(lam))
                if isom_decide(p, scaled) is None:
                    ok, detail = False, f"scaling by {lam} not detected at (k={k}, j={j})"
                    break
            if ok and dim_w >= 2:
                # A one-dimensional band has no non-proportional pairs.
                q = sample_nonzero_class(params, rng)
                while proportional(p, q):
                    q = sample_nonzero_class(params, rng)
                if isom_decide(p, q) is not None:
                    ok, detail = False, f"non-proportional pair called isomorphic (k={k}, j={j})"
            if not ok:
                break
        if not ok:
            break
    elapsed = time.time() - t0
    if ok and elapsed >= 10.0:
        ok, detail = False, f"runtime {elapsed:.1f}s exceeds 10s"
    report_line(1, "first-level projectivization", ok,
                detail or f"4 tuples x 100 pairs, {elapsed:.1f}s")


def test_criterion_2_example_orbits():
    t0 = time.time()
    params = params_of(1, 2, 3)

    def ec(vec):
        return ExtClass.from_vector(params, vec)

    checks = [
        (ec([1, 2, 5]), ec([3, 6, 0]), True),
        (ec([1, 2, 5]), ec([3, 6, -7]), True),
        (ec([1, 2, 5]), ec([3, 6, 13]), True),
        (ec([0, 0, 1]), ec([0, 0, 9]), True),
        (ec([1, 0, 0]), ec([0, 1, 0]), False),
        (ec([0, 0, 1]), ec([1, 0, 0]), False),
    ]
    ok = True
    detail = ""
    for p, q, expected in checks:
        witness = isom_decide(p, q)
        if (witness is not None) != expected:
            ok = False
            detail = f"{p.to_vector()} vs {q.to_vector()}: expected {expected}"
            break
    elapsed = time.time() - t0
    if ok and elapsed >= 5.0:
        ok, detail = False, f"runtime {elapsed:.1f}s exceeds 5s"
    report_line(2, "example orbits at k=1, j=2, m=3", ok,
                detail or f"6 facts, {elapsed:.1f}s")


def test_criterion_3_groupoid_axioms(groupoid_sweep):
    reports, elapsed = groupoid_sweep
    families = ("identity_action", "compatibility", "associativity",
                "identity_laws", "inverse_laws", "intertwining")
    ok = True
    detail = ""
    for key, report in reports.items():
        for fam in families:
            fr = report["families"][fam]
            if fr["passed"] != fr["checked"] or fr["checked"] != SWEEP_SAMPLES:
                ok = False
                detail = f"{fam} failed at {key} (sample {fr['first_failure_sample']})"
                break
        if not ok:
            break
    if ok and elapsed >= 120.0:
        ok, detail = False, f"sweep runtime {elapsed:.1f}s exceeds 120s"
    report_line(3, "groupoid axioms, 1000 samples per tuple", ok,
                detail or f"{len(reports)} tuples, sweep {elapsed:.1f}s")


def test_criterion_4_uniqueness_round_trip(groupoid_sweep):
    reports, _ = groupoid_sweep
    ok = True
    detail = ""
    for key, report in reports.items():
        fr = report["families"]["roundtrip"]
        if fr["passed"] != fr["checked"] or fr["checked"] != SWEEP_SAMPLES:
            ok = False
            detail = f"round trip failed at {key} (sample {fr['first_failure_sample']})"
            break
    report_line(4, "pair-to-element round trip", ok, detail or "1000 samples per tuple")


# Classes whose Hom dimension was once undercounted, beyond the sampled
# grid classes: (k, j, m) and the class vector.  The first is z u + z^2 u.
HOM_REGRESSIONS = [
    ((1, 3, 4), [0, 0, 1, 1, 0, 0, 0, 0, 0]),
    ((1, 3, 4), [-2, 3, 2, -2, 2, 1, -2, -1, 3]),
    ((1, 4, 4), [0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
]


def test_criterion_5_dimension_oracle_equivalence():
    t0 = time.time()
    ok = True
    detail = ""
    anchor = params_of(1, 2, 3)
    zero = ExtClass.zero(anchor)
    profile = hom_ext_dims(zero, zero)
    if profile.dim_hom != 30 or profile.dim_ext1 != 6:
        ok, detail = False, f"anchored instance gave {profile.to_dict()}"
    if ok and brute_force_hom(zero, zero)[0] != 30:
        ok, detail = False, "anchored brute force disagrees"
    if ok:
        for (k, j, m), vec in [(t, None) for t in GRID] + HOM_REGRESSIONS:
            params = params_of(k, j, m)
            ring = params.ring
            end_split = 2 * h0_dim(0, ring) + h0_dim(2 * j, ring) + h0_dim(-2 * j, ring)
            ext_split = h1_dim(-2 * j, ring)
            if vec is None:
                cases = [(ExtClass.zero(params), ExtClass.zero(params))]
                rng = substream(SEED + 5, k * 100 + j * 10 + m)
                cases.append((sample_ext_class(params, rng), sample_ext_class(params, rng)))
                pp = sample_ext_class(params, rng)
                # One full p and one full q: every band coefficient nonzero.
                rng = substream(SEED + 50, k * 100 + j * 10 + m)
                full_p, full_q = (ExtClass.from_vector(params, [
                    Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.choice((1, 2, 3)))
                    for _ in basis_W(params)]) for _ in range(2))
                cases += [(full_p, full_p), (full_p, full_q)]
            else:
                cases = []
                pp = ExtClass.from_vector(params, vec)
            cases.append((pp, pp))
            for p, q in cases:
                prof = hom_ext_dims(p, q)
                dim, _ = brute_force_hom(p, q)  # stabilization enforced inside
                if dim != prof.dim_hom:
                    ok, detail = False, f"oracle mismatch at {(k, j, m)}: {dim} != {prof.dim_hom}"
                    break
                if prof.dim_hom - end_split + ext_split - prof.dim_ext1 != 0:
                    ok, detail = False, f"Euler identity fails at {(k, j, m)}"
                    break
            if not ok:
                break
    elapsed = time.time() - t0
    report_line(5, "Hom dimensions vs brute force", ok,
                detail or f"grid of {len(GRID)} tuples with full classes and "
                f"{len(HOM_REGRESSIONS)} regression classes, {elapsed:.1f}s")


def test_criterion_6_cohomology():
    ok = True
    detail = ""
    for (k, j, m) in GRID:
        ring = RingParams(k, m)
        for s in range(0, 11):
            if h1_dim(s, ring) != 0:
                ok, detail = False, f"h1({s}) != 0 at (k={k}, m={m})"
                break
        if not ok:
            break
        band_count = sum(max(0, 2 * j - 1 - k * i) for i in range(m))
        if h1_dim(-2 * j, ring) != band_count:
            ok, detail = False, f"h1(-2j) != band count at {(k, j, m)}"
            break
    if ok:
        for k in range(1, 7):
            if not cone_check(k, 3)["all_hold"]:
                ok, detail = False, f"cone relations fail at k={k}"
                break
    report_line(6, "line-bundle cohomology and cone relations", ok, detail)


def test_criterion_7_inverse_system_compatibility(groupoid_sweep):
    reports, _ = groupoid_sweep
    ok = True
    detail = ""
    for key, report in reports.items():
        fr = report["families"].get("truncation")
        if fr is None or fr["checked"] != SWEEP_TRUNCATION or fr["passed"] != fr["checked"]:
            ok = False
            detail = f"truncation compatibility failed at {key}"
            break
    report_line(7, "truncation commutes with the groupoid maps", ok,
                detail or "500 samples per tuple, m -> m-1")


CLI_FIXTURES = [
    (["basis", "--k", "1", "--j", "2", "--m", "3"], None),
    (["basis", "--k", "3", "--j", "3", "--m", "4"], None),
    (["reduce", "--k", "1", "--j", "2", "--m", "3"],
     {"y": {"k": 1, "m": 3, "terms": [
         {"l": 5, "i": 1, "num": 1, "den": 1},
         {"l": 1, "i": 1, "num": 2, "den": 3},
         {"l": -3, "i": 1, "num": -1, "den": 1}]}}),
    (["act", "--k", "1", "--j", "2", "--m", "3"],
     {"g": {"a": {"k": 1, "m": 3, "s": 0, "terms": [{"l": 0, "i": 0, "num": 1, "den": 1}]},
            "b": {"k": 1, "m": 3, "s": -4, "terms": []},
            "c": {"k": 1, "m": 3, "s": 4, "terms": [{"l": 1, "i": 0, "num": 1, "den": 1}]},
            "d": {"k": 1, "m": 3, "s": 0, "terms": [{"l": 0, "i": 0, "num": 1, "den": 1}]}},
      "p": [0, 1, 0]}),
    (["compose", "--k", "1", "--j", "2", "--m", "3"],
     {"g1": {"a": {"k": 1, "m": 3, "s": 0, "terms": [{"l": 0, "i": 0, "num": 2, "den": 1}]},
             "b": {"k": 1, "m": 3, "s": -4, "terms": []},
             "c": {"k": 1, "m": 3, "s": 4, "terms": []},
             "d": {"k": 1, "m": 3, "s": 0, "terms": [{"l": 0, "i": 0, "num": 1, "den": 1}]}},
      "g2": {"a": {"k": 1, "m": 3, "s": 0, "terms": [{"l": 0, "i": 0, "num": 1, "den": 3}]},
             "b": {"k": 1, "m": 3, "s": -4, "terms": []},
             "c": {"k": 1, "m": 3, "s": 4, "terms": [{"l": 2, "i": 1, "num": 1, "den": 1}]},
             "d": {"k": 1, "m": 3, "s": 0, "terms": [{"l": 0, "i": 0, "num": 1, "den": 1}]}},
      "p": [1, 2, 5]}),
    (["invert-g", "--k", "1", "--j", "2", "--m", "3"],
     {"g": {"a": {"k": 1, "m": 3, "s": 0, "terms": [{"l": 0, "i": 0, "num": 2, "den": 1}]},
            "b": {"k": 1, "m": 3, "s": -4, "terms": []},
            "c": {"k": 1, "m": 3, "s": 4, "terms": [{"l": 0, "i": 0, "num": 1, "den": 1}]},
            "d": {"k": 1, "m": 3, "s": 0, "terms": [{"l": 0, "i": 0, "num": 1, "den": 1}]}},
      "p": [1, 2, 5]}),
    (["isom", "--k", "1", "--j", "2", "--m", "3"], {"p": [1, 2, 5], "p_prime": [3, 6, 0]}),
    (["isom", "--k", "1", "--j", "2", "--m", "3"], {"p": [0, 0, 1], "p_prime": [1, 0, 0]}),
    (["dims", "--k", "2", "--j", "3", "--m", "3"],
     {"p": [0, 0, 0, 0], "p_prime": [1, 0, 0, 0]}),
    (["bruteforce", "--k", "1", "--j", "2", "--m", "3", "--degree", "8"],
     {"p": [1, 0, 0], "p_prime": [1, 0, 0]}),
    (["check-axioms", "--k", "1", "--j", "3", "--m", "3",
      "--samples", "25", "--seed", "14", "--truncation-samples", "10"], None),
    (["cohomology", "--k", "2", "--m", "4", "--s", "-5"], None),
    (["cone-check", "--k", "6", "--m", "2"], None),
    (["restrict", "--k", "1", "--j", "2", "--m", "3", "--to", "2"], {"p": [1, 2, 5]}),
]


def test_criterion_8_cli_determinism():
    ok = True
    detail = ""
    for args, payload in CLI_FIXTURES:
        text = None if payload is None else json.dumps(payload)
        runs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-m", "negcurve.cli"] + args,
                                  input=text, capture_output=True, text=True)
            if proc.returncode != 0:
                ok, detail = False, f"{args[0]} exited {proc.returncode}: {proc.stderr}"
                break
            runs.append(proc.stdout)
        if not ok:
            break
        if runs[0] != runs[1]:
            ok, detail = False, f"{args[0]} output not byte-identical"
            break
        parsed = json.loads(runs[0])
        if json.loads(json.dumps(parsed)) != parsed:
            ok, detail = False, f"{args[0]} output does not round-trip"
            break
    report_line(8, "CLI determinism over the verb corpus", ok,
                detail or f"{len(CLI_FIXTURES)} invocations, run twice each")
