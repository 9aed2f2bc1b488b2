"""CLI verbs: JSON contracts, exit codes, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from negcurve import cli
from negcurve.extensions import ExtClass, ModuliParams
from negcurve.groupoid import GroupElem
from negcurve.ring import RingParams, elem_from_dict
from negcurve.sections import TwistedSection

CMD = [sys.executable, "-m", "negcurve.cli"]


def run_cli(args, payload=None):
    proc = subprocess.run(CMD + args, input=payload, capture_output=True, text=True)
    return proc


def run_json(args, payload_obj=None):
    payload = None if payload_obj is None else json.dumps(payload_obj)
    proc = run_cli(args, payload)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_basis_verb_golden():
    proc = run_cli(["basis", "--k", "1", "--j", "2", "--m", "3"])
    assert proc.returncode == 0
    assert proc.stdout == '{"dim":3,"indices":[[1,0],[1,1],[2,1]]}\n'


def test_level_flag_maps_to_modulus():
    a = run_cli(["basis", "--k", "1", "--j", "2", "--level", "2"])
    b = run_cli(["basis", "--k", "1", "--j", "2", "--m", "3"])
    assert a.stdout == b.stdout
    both = run_cli(["basis", "--k", "1", "--j", "2", "--m", "3", "--level", "2"])
    assert both.returncode == 1


def test_act_identity_echoes_class():
    identity = {
        "a": {"k": 1, "m": 3, "s": 0, "terms": [{"l": 0, "i": 0, "num": 1, "den": 1}]},
        "b": {"k": 1, "m": 3, "s": -4, "terms": []},
        "c": {"k": 1, "m": 3, "s": 4, "terms": []},
        "d": {"k": 1, "m": 3, "s": 0, "terms": [{"l": 0, "i": 0, "num": 1, "den": 1}]},
    }
    out = run_json(["act", "--k", "1", "--j", "2", "--m", "3"],
                   {"g": identity, "p": [1, 2, 5]})
    assert out == {"k": 1, "m": 3, "j": 2, "terms": [
        {"i": 1, "l": 0, "num": 1, "den": 1},
        {"i": 1, "l": 1, "num": 2, "den": 1},
        {"i": 2, "l": 1, "num": 5, "den": 1},
    ]}


def test_isom_verb_with_witness():
    out = run_json(["isom", "--k", "1", "--j", "2", "--m", "3"],
                   {"p": [1, 2, 5], "p_prime": [3, 6, 0]})
    assert out["isomorphic"] is True
    assert out["witness"] is not None
    out2 = run_json(["isom", "--k", "1", "--j", "2", "--m", "3"],
                    {"p": [0, 0, 1], "p_prime": [1, 0, 0]})
    assert out2 == {"isomorphic": False, "witness": None}


def test_shorthand_accepts_rational_strings():
    out = run_json(["isom", "--k", "1", "--j", "2", "--m", "2"],
                   {"p": [1, 2], "p_prime": ["1/2", 1]})
    assert out["isomorphic"] is True


def test_dims_verb():
    out = run_json(["dims", "--k", "1", "--j", "2", "--m", "3"],
                   {"p": [0, 0, 0], "p_prime": [0, 0, 0]})
    assert out["dim_hom"] == 30 and out["dim_ext1"] == 6


def test_bruteforce_verb():
    out = run_json(["bruteforce", "--k", "1", "--j", "2", "--m", "3"],
                   {"p": [0, 0, 0], "p_prime": [0, 0, 0]})
    assert out == {"degree": 7, "dim": 30, "stabilized": True}


def test_reduce_verb():
    y = {"k": 1, "m": 3, "terms": [
        {"l": 5, "i": 1, "num": 1, "den": 1},
        {"l": 1, "i": 1, "num": 1, "den": 1},
        {"l": -3, "i": 1, "num": 1, "den": 1},
    ]}
    out = run_json(["reduce", "--k", "1", "--j", "2", "--m", "3"], {"y": y})
    assert out["p"]["terms"] == [{"i": 1, "l": 1, "num": 1, "den": 1}]
    assert out["f_U"]["terms"] == [{"i": 1, "l": 3, "num": 1, "den": 1}]
    assert out["f_V"]["terms"] == [{"i": 1, "l": -1, "num": 1, "den": 1}]


def test_compose_and_invert_verbs():
    diag = lambda num: {
        "a": {"k": 1, "m": 3, "s": 0, "terms": [{"l": 0, "i": 0, "num": num, "den": 1}]},
        "b": {"k": 1, "m": 3, "s": -4, "terms": []},
        "c": {"k": 1, "m": 3, "s": 4, "terms": []},
        "d": {"k": 1, "m": 3, "s": 0, "terms": [{"l": 0, "i": 0, "num": 1, "den": 1}]},
    }
    out = run_json(["compose", "--k", "1", "--j", "2", "--m", "3"],
                   {"g1": diag(2), "g2": diag(3), "p": [1, 2, 5]})
    assert out["a"]["terms"] == [{"i": 0, "l": 0, "num": 6, "den": 1}]
    inv = run_json(["invert-g", "--k", "1", "--j", "2", "--m", "3"],
                   {"g": diag(2), "p": [1, 2, 5]})
    assert inv["a"]["terms"] == [{"i": 0, "l": 0, "num": 1, "den": 2}]


def test_restrict_verb():
    out = run_json(["restrict", "--k", "1", "--j", "2", "--m", "3", "--to", "2"],
                   {"p": [1, 2, 5]})
    assert out == {"k": 1, "m": 2, "j": 2, "terms": [
        {"i": 1, "l": 0, "num": 1, "den": 1},
        {"i": 1, "l": 1, "num": 2, "den": 1},
    ]}


def test_cohomology_and_cone_verbs():
    out = run_json(["cohomology", "--k", "1", "--m", "3", "--s", "-4"])
    assert out["h1_dim"] == 6 and out["h0_dim"] == 0
    cone = run_json(["cone-check", "--k", "2", "--m", "3"])
    assert cone["all_hold"] is True


def test_cone_check_at_level_zero_exits_0():
    cone = run_json(["cone-check", "--k", "2", "--level", "0"])
    assert cone == {"k": 2, "m": 1, "relations": [{"a": 0, "b": 2, "holds": True}],
                    "all_hold": True}


def test_output_flag_writes_file(tmp_path):
    target = tmp_path / "basis.json"
    proc = run_cli(["basis", "--k", "1", "--j", "2", "--m", "3",
                    "--output", str(target)])
    assert proc.returncode == 0 and proc.stdout == ""
    assert target.read_text() == '{"dim":3,"indices":[[1,0],[1,1],[2,1]]}\n'


def test_check_axioms_verb():
    out = run_json(["check-axioms", "--k", "1", "--j", "2", "--m", "3",
                    "--samples", "15", "--seed", "3"])
    assert out["all_passed"] is True
    assert out["seed"] == 3 and out["samples"] == 15
    assert out["families"]["associativity"]["checked"] == 15


@pytest.mark.parametrize("flags", [["--samples", "0"], ["--samples", "-3"],
                                   ["--truncation-samples", "-4"]])
def test_check_axioms_rejects_vacuous_counts(flags):
    proc = run_cli(["check-axioms", "--k", "1", "--j", "2", "--m", "3"] + flags)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr


def test_import_leaves_process_pool_unloaded():
    probe = ("import sys, negcurve.cli; "
             "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
             "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_exit_code_on_malformed_payload():
    proc = run_cli(["isom", "--k", "1", "--j", "2", "--m", "3"], "not json")
    assert proc.returncode == 1
    for p in (["1/0", 0, 0], {"k": 1, "m": 3, "j": 2, "terms": 5}):
        proc = run_cli(["isom", "--k", "1", "--j", "2", "--m", "3"],
                       json.dumps({"p": p, "p_prime": [0, 0, 0]}))
        assert proc.returncode == 1 and "Traceback" not in proc.stderr
    proc = run_cli(["isom", "--k", "1", "--j", "2", "--m", "3"],
                   json.dumps({"p": [1, 2, 5], "p_prime": [3, 6, 0], "junk": 1}))
    assert proc.returncode == 1
    assert "unknown fields" in proc.stderr


def test_exponent_coefficient_string_exits_1_quickly():
    # Fraction("1e99999999") alone would build a 330M-bit numerator.
    payload = json.dumps({"p": ["1e99999999", 0, 0], "p_prime": [0, 0, 0]})
    proc = subprocess.run(CMD + ["isom", "--k", "1", "--j", "2", "--m", "3"], input=payload,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("text", ["[" * 100_000, '{"g":' * 50_000], ids=["array", "object"])
def test_deeply_nested_payload_exits_1(text, tmp_path):
    # json.loads recurses once per level and raises RecursionError here.
    path = tmp_path / "deep.json"
    path.write_text(text)
    proc = run_cli(["act", "--k", "1", "--j", "2", "--m", "3", str(path)])
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "nests too deeply" in proc.stderr


# -- one rule for every JSON object: exactly its fields, or ValueError / exit 1 ----

_IDENTITY = {
    "a": {"k": 1, "m": 3, "s": 0, "terms": [{"l": 0, "i": 0, "num": 1, "den": 1}]},
    "b": {"k": 1, "m": 3, "s": -4, "terms": []},
    "c": {"k": 1, "m": 3, "s": 4, "terms": []},
    "d": {"k": 1, "m": 3, "s": 0, "terms": [{"l": 0, "i": 0, "num": 1, "den": 1}]},
}


def _cli_isom(data):
    proc = run_cli(["isom", "--k", "1", "--j", "2", "--m", "3"], json.dumps(data))
    assert "Traceback" not in proc.stderr
    if proc.returncode != 0:
        assert proc.returncode == 1 and proc.stdout == ""
        raise ValueError(proc.stderr)


_READERS = {
    "elem_from_dict": (elem_from_dict, {"k": 1, "m": 3, "terms": []}),
    "TwistedSection.from_dict": (TwistedSection.from_dict,
                                 {"k": 1, "m": 3, "terms": [], "s": 0}),
    "ExtClass.from_dict": (ExtClass.from_dict, {"k": 1, "m": 3, "terms": [], "j": 2}),
    "GroupElem.from_dict": (lambda data: GroupElem.from_dict(
        data, ModuliParams(RingParams(1, 3), 2)), _IDENTITY),
    "cli payload": (_cli_isom, {"p": [0, 0, 0], "p_prime": [0, 0, 0]}),
}


@pytest.mark.parametrize("case", ["list", "string", "unknown field", "missing field"])
@pytest.mark.parametrize("reader", list(_READERS))
def test_every_json_reader_takes_exactly_its_fields(reader, case):
    read, valid = _READERS[reader]
    read(valid)
    bad = {"list": list(valid), "string": "".join(valid),
           "unknown field": dict(valid, extra=0),
           "missing field": dict(list(valid.items())[:-1])}[case]
    with pytest.raises(ValueError):
        read(bad)


def test_golden_corpus_stdout_and_exit_codes():
    """Every case's stdout and exit code, byte for byte, as the CLI printed them.

    tests/data/cli_golden.json holds the criterion-8 corpus, the malformed
    inputs above and one case per JSON object and failure, each with the
    stdout and exit code captured from ``python -m negcurve.cli``.
    """
    golden = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
    changed = []
    for case in golden:
        proc = run_cli(case["argv"], case["stdin"] or "")
        if ((proc.returncode, proc.stdout) != (case["code"], case["stdout"])
                or "Traceback" in proc.stderr):
            changed.append(case["name"])
    assert len(golden) == 64 and changed == []


@pytest.mark.parametrize("field", ["l", "num"])
def test_boolean_term_field_rejected(field):
    term = {"l": 1, "i": 1, "num": 1, "den": 1}
    term[field] = True
    proc = run_cli(["reduce", "--k", "1", "--j", "2", "--m", "3"],
                   json.dumps({"y": {"k": 1, "m": 3, "terms": [term]}}))
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    proc = run_cli(["isom", "--k", "1", "--j", "2", "--m", "3"],
                   json.dumps({"p": {"k": 1, "m": 3, "j": 2, "terms": [term]},
                               "p_prime": [0, 0, 0]}))
    assert proc.returncode == 1 and "Traceback" not in proc.stderr


@pytest.mark.parametrize("verb", [["cohomology", "--s", "2"], ["cone-check"]])
def test_ring_verbs_need_exactly_one_modulus_flag(verb):
    for flags in ([], ["--m", "3", "--level", "2"]):
        proc = run_cli(verb + ["--k", "2"] + flags)
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
    assert run_cli(verb + ["--k", "2", "--level", "2"]).stdout == \
        run_cli(verb + ["--k", "2", "--m", "3"]).stdout


def test_exit_code_on_bad_flags():
    proc = run_cli(["isom", "--k", "0", "--j", "2", "--m", "3"],
                   json.dumps({"p": [], "p_prime": []}))
    assert proc.returncode == 1
    proc = run_cli(["nonsense"])
    assert proc.returncode == 1
    for to in ("0", "-2"):
        proc = run_cli(["restrict", "--k", "1", "--j", "2", "--m", "3", "--to", to],
                       json.dumps({"p": [1, 2, 5]}))
        assert proc.returncode == 1 and proc.stdout == ""
        assert f"restriction target level m must be at least 1, got {to}" in proc.stderr
    for argv in (["basis", "--k", "1", "--j", "2", "--level", "-1"],
                 ["cohomology", "--k", "1", "--level", "-3", "--s", "1"]):
        proc = run_cli(argv)
        assert proc.returncode == 1 and proc.stdout == ""
        assert "--level" in proc.stderr


def test_payload_params_must_match_flags():
    payload = {"p": {"k": 1, "m": 2, "j": 2, "terms": []},
               "p_prime": [0, 0, 0]}
    proc = run_cli(["isom", "--k", "1", "--j", "2", "--m", "3"], json.dumps(payload))
    assert proc.returncode == 1
    assert "disagree" in proc.stderr


def test_round_trip_of_emitted_values():
    out = run_json(["isom", "--k", "1", "--j", "2", "--m", "3"],
                   {"p": [1, 2, 5], "p_prime": [3, 6, 13]})
    witness = out["witness"]
    echo = run_json(["act", "--k", "1", "--j", "2", "--m", "3"],
                    {"g": witness, "p": [1, 2, 5]})
    assert echo["terms"] == [
        {"i": 1, "l": 0, "num": 3, "den": 1},
        {"i": 1, "l": 1, "num": 6, "den": 1},
        {"i": 2, "l": 1, "num": 13, "den": 1},
    ]


@pytest.mark.parametrize("args,payload", [
    (["basis", "--k", "2", "--j", "3", "--m", "4"], None),
    (["cohomology", "--k", "2", "--m", "4", "--s", "-6"], None),
    (["cone-check", "--k", "5", "--m", "2"], None),
    (["isom", "--k", "1", "--j", "2", "--m", "3"],
     {"p": [1, 2, 5], "p_prime": [3, 6, -7]}),
    (["dims", "--k", "1", "--j", "2", "--m", "3"],
     {"p": [1, 0, 0], "p_prime": [1, 0, 0]}),
    (["check-axioms", "--k", "2", "--j", "2", "--m", "3",
      "--samples", "10", "--seed", "11"], None),
])
def test_byte_identical_reruns(args, payload):
    text = None if payload is None else json.dumps(payload)
    first = run_cli(args, text)
    second = run_cli(args, text)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    json.loads(first.stdout)


# -- size cap --------------------------------------------------------------------
# In process, with the allocating call replaced by one that fails the test,
# so a request over the cap is rejected without allocating even if the
# check were missing.


def _forbidden(*args, **kwargs):
    raise AssertionError("called past the size cap")


def test_size_cap_check():
    cli._check_size(cli.SIZE_CAP, "count")
    with pytest.raises(ValueError, match="exceeds the size cap"):
        cli._check_size(cli.SIZE_CAP + 1, "count")


@pytest.mark.parametrize("flags", [
    ["--k", "1", "--m", "1", "--s", str(cli.SIZE_CAP)],
    ["--k", "1", "--m", "3", "--s", str(10 ** 12)],
    ["--k", str(10 ** 12), "--m", "3", "--s", "0"],
    ["--k", "1", "--m", str(cli.SIZE_CAP + 1), "--s", "-5"],
])
def test_cohomology_over_size_cap_exits_1(flags, monkeypatch, capsys):
    monkeypatch.setattr(cli, "h0_basis", _forbidden)
    assert cli.main(["cohomology"] + flags) == 1
    out, err = capsys.readouterr()
    assert out == "" and "exceeds the size cap" in err


def test_cohomology_at_size_cap_runs(capsys):
    assert cli.main(["cohomology", "--k", "1", "--m", "1", "--s", str(cli.SIZE_CAP - 1)]) == 0
    assert json.loads(capsys.readouterr().out)["h0_dim"] == cli.SIZE_CAP


@pytest.mark.parametrize("flags", [
    ["--k", "1", "--j", "2", "--m", "3", "--degree", str(cli.SIZE_CAP // 12 - 1)],
    ["--k", "1", "--j", "2", "--m", "3", "--degree", str(10 ** 12)],
    ["--k", "1", "--j", str(10 ** 9), "--m", "3"],
])
def test_bruteforce_over_size_cap_exits_1(flags, monkeypatch, capsys):
    # The cap is checked before the payload is read.
    monkeypatch.setattr(cli, "brute_force_hom", _forbidden)
    monkeypatch.setattr(cli, "_load_payload", _forbidden)
    assert cli.main(["bruteforce"] + flags) == 1
    out, err = capsys.readouterr()
    assert out == "" and "exceeds the size cap" in err


def test_bruteforce_just_under_size_cap_passes_the_check(monkeypatch):
    degree = cli.SIZE_CAP // 12 - 2  # 12 * (degree + 2) <= SIZE_CAP at m = 3
    monkeypatch.setattr(cli, "_load_payload", _forbidden)
    with pytest.raises(AssertionError, match="past the size cap"):
        cli.main(["bruteforce", "--k", "1", "--j", "2", "--m", "3", "--degree", str(degree)])


@pytest.mark.parametrize("verb", [
    ["basis"], ["reduce"], ["act"], ["compose"], ["invert-g"], ["isom"], ["dims"],
    ["check-axioms"], ["restrict", "--to", "1"],
], ids=lambda verb: verb[0])
def test_moduli_verbs_over_size_cap_exit_1(verb, monkeypatch, capsys):
    # Payload verbs read the payload only after the check; basis and
    # check-axioms allocate in basis_W and verify_groupoid.
    monkeypatch.setattr(cli, "_load_payload", _forbidden)
    monkeypatch.setattr(cli, "verify_groupoid", _forbidden)
    monkeypatch.setattr(cli, "basis_W", _forbidden)
    for flags in (["--k", "1", "--j", str(10 ** 9), "--m", "3"],
                  ["--k", "1", "--j", "2", "--m", str(cli.SIZE_CAP + 1)],
                  ["--k", "1", "--j", "2", "--level", str(10 ** 12)],
                  ["--k", str(10 ** 12), "--j", "2", "--m", "3"],
                  ["--k", "1", "--j", str(cli.SIZE_CAP // 2), "--m", "1"]):
        assert cli.main(verb + flags) == 1
        out, err = capsys.readouterr()
        assert out == "" and "exceeds the size cap" in err


def test_moduli_verbs_at_size_cap_run(capsys):
    # At m = 1, h0(O(2j)) has 2j + 1 monomials and the normal-form band is empty.
    j = (cli.SIZE_CAP - 1) // 2
    assert cli.main(["basis", "--k", "1", "--j", str(j), "--m", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 0


@pytest.mark.parametrize("k", [201, 10 ** 12])
def test_cone_check_over_size_cap_exits_1(k, monkeypatch, capsys):
    monkeypatch.setattr(cli, "cone_check", _forbidden)
    assert cli.main(["cone-check", "--k", str(k), "--m", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "exceeds the size cap" in err


def test_cone_check_just_under_size_cap_passes_the_check(monkeypatch):
    # k = 200 gives 200 * 199 / 2 = 19,900 relations.
    monkeypatch.setattr(cli, "cone_check", _forbidden)
    with pytest.raises(AssertionError, match="past the size cap"):
        cli.main(["cone-check", "--k", "200", "--m", "2"])
