"""CLI behaviour: the documented commands, JSON output, and exit codes."""

import contextlib
import io
import json
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffsig import (
    Signature,
    format_multivector,
    geometric_product,
    parse_multivector,
    tilt_product,
    vee_alpha,
    vee_prime,
)
from cliffsig.cli import main
from cliffsig.verify import all_gradings, signatures_up_to

from oracles import geometric_pair_op, rows


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_eval_examples(capsys):
    code, out, _ = run(capsys, "eval", "--sig", "1,3", "e1*e1")
    assert (code, out) == (0, "1")
    code, out, _ = run(capsys, "eval", "--sig", "1,3", "--product", "tilt", "e1*e1")
    assert (code, out) == (0, "-1")
    code, out, _ = run(capsys, "eval", "--sig", "2,0", "e1^e1")
    assert (code, out) == (0, "0")


def test_eval_multiple_exprs_combine_left_to_right(capsys):
    code, out, _ = run(capsys, "eval", "--sig", "2,0", "e1", "e2", "e2")
    assert (code, out) == (0, "e1")


def test_eval_json_roundtrip(capsys):
    code, out, _ = run(
        capsys, "eval", "--sig", "2,2", "--json", "(1 + e1)*(e2^e3) - 1/2"
    )
    assert code == 0
    data = json.loads(out)
    sig = Signature(*data["sig"])
    reparsed = parse_multivector(data["result"], sig)
    want = parse_multivector("(1 + e1)*(e2^e3) - 1/2", sig)
    assert reparsed == want


def test_eval_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "eval", "--sig", "2,0", "e1 +")
    assert code == 2 and "parse error" in err
    code, _, err = run(capsys, "eval", "--sig", "2,0", "e9")
    assert code == 2 and "e9" in err


def test_eval_vee_product(capsys):
    code, out, _ = run(
        capsys, "eval", "--sig", "1,3", "--product", "vee", "--odd", "e2,e3,e4",
        "--json", "e2*e2",
    )
    data = json.loads(out)
    assert code == 0
    assert data["target"] == [4, 0]
    assert data["result"] == "1"


def test_eval_matches_the_direct_products(capsys):
    # the CLI evaluates every product as ∨ or ∨′ of a grading; its output
    # must be the expression read with the package's direct product (the
    # closed-form tilt for tilt) as '*', for every odd set of every n <= 3
    for sig in signatures_up_to(3):
        n = sig.n
        exprs = [["2*(1/3 - 1)*3"], ["1/2", "3 - 1/5"]]
        if n:
            exprs += [
                [f"(1 + e1)*(e{n} - 1/2*e1)"],
                [f"(e1 + 2*e{n})*(e1 - e{n}*e1)*(3/2 + e1^e{n})"],
                ["e1 + 1", f"e{n}", f"1/3 - e1*e{n}"],
            ]
        for gr in all_gradings(sig):
            refs = {
                "geometric": geometric_product,
                "tilt": tilt_product,
                "vee": lambda a, b: vee_alpha(a, b, gr),
                "veeprime": lambda a, b: vee_prime(a, b, gr),
            }
            odd = ",".join(f"e{i}" for i in gr.odd_indices)
            for product, ref in refs.items():
                for texts in exprs:
                    want = reduce(ref, [parse_multivector(t, sig, star=ref) for t in texts])
                    code, out, _ = run(
                        capsys, "eval", "--sig", f"{sig.p},{sig.q}", "--product", product,
                        "--odd", odd, *texts,
                    )
                    assert (code, out) == (0, format_multivector(want)), (gr, product, texts)


def test_classify_outputs(capsys):
    code, out, _ = run(capsys, "classify", "--sig", "1,3")
    assert code == 0
    assert "M(2,H)" in out and "M(2,C)" in out

    code, out, _ = run(capsys, "classify", "--sig", "0,0")
    assert code == 0 and out == "Cl(0,0): R"

    code, out, _ = run(capsys, "classify", "--sig", "3,0", "--even", "2,0")
    assert code == 0 and out == "M(2,R)"


def test_classify_json_and_oracle(capsys):
    code, out, _ = run(capsys, "classify", "--sig", "1,3", "--json", "--oracle")
    data = json.loads(out)
    assert code == 0
    assert data["algebra"] == "M(2,H)"
    assert data["even_part"] == "M(2,C)"
    assert data["oracle_agrees"] is True

    code, out, _ = run(
        capsys, "classify", "--sig", "3,0", "--even", "1,0", "--json", "--oracle"
    )
    data = json.loads(out)
    assert code == 0
    assert data["even_subalgebra"] == "C (+) C"
    assert data["oracle_agrees"] is True


@pytest.fixture
def one_times_e1_flipped(monkeypatch):
    # 1 * e1 = -e1: closed and twisted, but (1 1) e1 = -e1 != 1 (1 e1) = e1;
    # verify and classify --oracle both reach the product through verify
    import cliffsig.verify as verify

    def twisted(sig):
        op = geometric_pair_op(sig)

        def blade_op(x, y):
            sign, mask = op(x, y)
            return (-sign, mask) if (x, y) == (0, 0b1) else (sign, mask)

        return rows(blade_op)

    monkeypatch.setattr(verify, "geometric_row_op", twisted)


@pytest.mark.parametrize(
    "suite, max_n, cells, violations", [("table1", "2", 6, 5), ("table4", "1", 5, 2)]
)
def test_verify_non_associative_product_exit_1(
    capsys, one_times_e1_flipped, suite, max_n, cells, violations
):
    # a violation is a failing cell naming its first blade triple, not an
    # aborted sweep; only the cells whose basis holds e1 fail
    code, out, _ = run(capsys, "verify", "--suite", suite, "--max-n", max_n)
    assert code == 1
    lines = out.splitlines()
    fails = [line for line in lines if line.startswith("FAIL ")]
    assert len(fails) == violations
    assert all("first violation (1, 1, e1)" in line for line in fails)
    assert lines[-1].startswith(
        f"suite {suite}: {cells} cells, {violations} violations"
    )


@pytest.mark.parametrize(
    "argv", [("--sig", "1,0"), ("--sig", "2,0", "--even", "1,0")]
)
def test_classify_oracle_non_associative_product_exit_1(
    capsys, one_times_e1_flipped, argv
):
    code, out, _ = run(capsys, "classify", *argv, "--oracle")
    assert code == 1
    assert out.splitlines()[-1].startswith("oracle: DISAGREES; not associative")
    assert out.endswith("first violation (1, 1, e1)")
    code, out, _ = run(capsys, "classify", *argv, "--oracle", "--json")
    data = json.loads(out)
    assert code == 1 and data["oracle_agrees"] is False
    assert data["oracle_problem"].endswith("first violation (1, 1, e1)")


def test_grading_command(capsys):
    code, out, _ = run(capsys, "grading", "--sig", "1,3", "--odd", "e2,e3,e4", "--json")
    data = json.loads(out)
    assert code == 0
    assert (data["p0"], data["q0"], data["p1"], data["q1"]) == (1, 0, 0, 3)
    assert data["target"] == [4, 0]
    assert data["dichotomy"] == "half"
    assert data["closure_ok"] is True


def test_grading_involution_file(tmp_path, capsys):
    path = tmp_path / "inv.json"
    path.write_text(json.dumps([["5/3", "-4/3"], ["4/3", "-5/3"]]))
    code, out, _ = run(
        capsys, "grading", "--sig", "1,1", "--involution", str(path), "--json"
    )
    data = json.loads(out)
    assert code == 0
    assert data["accepted"] is True
    assert (data["p0"], data["q0"], data["p1"], data["q1"]) == (1, 0, 0, 1)

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([["1", "1"], ["0", "1"]]))
    code, out, _ = run(capsys, "grading", "--sig", "2,0", "--involution", str(bad), "--json")
    assert code == 1
    assert json.loads(out)["accepted"] is False
    assert "NotInvolution" in json.loads(out)["reason"]


@pytest.mark.parametrize("payload", [5, [5], ["12"], {"rows": [[1]]}, None])
def test_grading_involution_file_not_a_matrix_exit_2(tmp_path, capsys, payload):
    path = tmp_path / "inv.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "grading", "--sig", "2,0", "--involution", str(path))
    assert code == 2
    assert out == "" and "expected a JSON list of rows" in err


@pytest.mark.parametrize(
    "data, message",
    [
        (json.dumps([["1/0", "0"], ["0", "1"]]), "an entry has a zero denominator"),
        ("[" * 100_000 + "]" * 100_000, "JSON nested too deeply"),
        (json.dumps([["abc", "0"], ["0", "1"]]), "Invalid literal for Fraction: 'abc'"),
        ("[[1e400, 0], [0, 1]]", "Invalid literal for Fraction: 'inf'"),
        ('[["1", "0"], ["0"', "Expecting ',' delimiter: line 1 column 18 (char 17)"),
        (
            "[[" + "1" * 5000 + ", 0], [0, 1]]",
            "Exceeds the limit (4300 digits) for integer string conversion: value has 5000 "
            "digits; use sys.set_int_max_str_digits() to increase the limit",
        ),
        (b"\xff[[1]]", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        *(
            (json.dumps([[x, "0"], ["0", "1"]]), f"entry {x!r} has a decimal exponent beyond ±4300")
            for x in ("1e999999999", "-1E+999999999", "1e-999999999")
        ),
    ],
    ids=["zero-denominator", "deep-nesting", "bad-literal", "overflowing-float",
         "truncated", "long-numeral", "not-utf-8", "huge-exponent", "huge-signed-exponent",
         "huge-negative-exponent"],
)
def test_grading_involution_file_malformed_exit_2(tmp_path, capsys, data, message):
    # the first two used to escape as a traceback with exit 1, the rest as an
    # error that did not name the file
    path = tmp_path / "inv.json"
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    code, out, err = run(capsys, "grading", "--sig", "2,0", "--involution", str(path))
    assert code == 2
    assert out == "" and err == f"error: {path}: {message}"


@pytest.mark.parametrize("entry", ["1e4300", "-1E-4300"])
def test_grading_involution_exponent_at_the_bound_parses(tmp_path, capsys, entry):
    # an exponent of 4300 in magnitude is read; the matrix is then no
    # involution, a violation (exit 1), not a load error (exit 2)
    path = tmp_path / "inv.json"
    path.write_text(json.dumps([[entry, "0"], ["0", "1"]]))
    code, out, err = run(capsys, "grading", "--sig", "2,0", "--involution", str(path))
    assert code == 1
    assert out == "rejected: NotInvolution: matrix squared is not the identity on V"


def test_grading_involution_agrees_with_odd_set(tmp_path, capsys):
    # a diagonal ±1 involution is the grading whose odd set is its -1 entries;
    # both paths report the same counts, even subalgebra, dichotomy and target
    keys = ("p0", "q0", "p1", "q1", "even_subalgebra", "dichotomy", "target")
    path = tmp_path / "inv.json"
    for n in range(4):
        for p in range(n + 1):
            sig = f"{p},{n - p}"
            for odd_mask in range(1 << n):
                signs = [-1 if odd_mask >> k & 1 else 1 for k in range(n)]
                path.write_text(json.dumps(
                    [[str(d) if i == j else "0" for j in range(n)] for i, d in enumerate(signs)]
                ))
                odd = ",".join(f"e{k + 1}" for k in range(n) if signs[k] == -1)
                code_a, out_a, _ = run(
                    capsys, "grading", "--sig", sig, "--involution", str(path), "--json"
                )
                code_b, out_b, _ = run(capsys, "grading", "--sig", sig, "--odd", odd, "--json")
                assert code_a == code_b == 0, (sig, odd)
                a, b = json.loads(out_a), json.loads(out_b)
                assert a["accepted"] is True
                assert {k: a[k] for k in keys} == {k: b[k] for k in keys}, (sig, odd)


def test_grading_dichotomy_violation_exit_1(monkeypatch, capsys):
    monkeypatch.setattr("cliffsig.grading.even_subalgebra_basis", lambda gr: [0])
    code, out, err = run(capsys, "grading", "--sig", "2,0", "--odd", "e1")
    assert code == 1
    assert out == "" and err.startswith("violation: DichotomyViolation")


def test_eval_deep_nesting_is_parse_error(capsys):
    expr = "(" * 5000 + "e1" + ")" * 5000
    code, out, err = run(capsys, "eval", "--sig", "1,0", expr)
    assert code == 2
    assert out == "" and err.startswith("parse error") and "nested" in err


def test_eval_over_long_numeral_is_parse_error(capsys):
    code, out, err = run(capsys, "eval", "--sig", "1,1", "1/" + "1" * 5000)
    assert code == 2
    assert out == "" and err.startswith("parse error") and "(at position 2)" in err


def test_sigchange_command(capsys):
    code, out, _ = run(
        capsys, "sigchange", "--sig", "1,3", "--odd", "e2,e3,e4", "--expr", "e1*e1",
        "--json",
    )
    data = json.loads(out)
    assert code == 0
    assert data == {
        "sig": [1, 3],
        "odd": [2, 3, 4],
        "product": "vee",
        "target": [4, 0],
        "result": "1",
    }


def test_sigchange_products(capsys):
    code, out, _ = run(
        capsys, "sigchange", "--sig", "1,3", "--product", "tilt", "--expr", "e2*e2"
    )
    assert code == 0
    assert out.splitlines() == ["target: Cl(3,1)", "1"]


def test_verify_command_and_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "table4", "--max-n", "3")
    assert code == 0
    assert "0 violations" in out

    code, out, _ = run(capsys, "verify", "--suite", "sigchange", "--max-n", "2", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["suite"] == "sigchange" and data["violations"] == 0

    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "table4", "--max-n", "99"])
    assert exc.value.code == 2


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "e1"])  # missing --sig
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])  # a subcommand is required
    assert exc.value.code == 2
    for even, reason in [
        ("1,2,3", "too many values to unpack (expected 2)"),
        ("x", "not enough values to unpack (expected 2, got 1)"),
        ("1", "not enough values to unpack (expected 2, got 1)"),
        ("1,y", "invalid literal for int() with base 10: 'y'"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--sig", "3,0", "--even", even])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert err == (
            f"cliffsig classify: error: argument --even: expected --even p0,q0 — {reason}"
        )


def test_verify_json_is_reproducible(capsys):
    # no cell draws, so two runs differ only in their timings
    code1, out1, _ = run(capsys, "verify", "--suite", "core", "--max-n", "2", "--json")
    code2, out2, _ = run(capsys, "verify", "--suite", "core", "--max-n", "2", "--json")
    assert code1 == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    for cell in a["cells"] + b["cells"]:
        del cell["seconds"]
    assert a == b


def test_verify_has_no_seed_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "core", "--max-n", "2", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err



# Exact stdout and exit code of one invocation per job and output mode; the
# JSON lines fix key order.  Verify's cell timings are pinned to 0.
_ACCEPTED = [["5/3", "-4/3"], ["4/3", "-5/3"]]
_REJECTED = [["1", "1"], ["0", "1"]]
_VERIFY_JSON = """{
  "suite": "table2",
  "cells": [
    {
      "key": "0,1",
      "pass": true,
      "detail": "Cl+(0,1) ~ R",
      "seconds": 0.0
    },
    {
      "key": "1,0",
      "pass": true,
      "detail": "Cl+(1,0) ~ R",
      "seconds": 0.0
    }
  ],
  "violations": 0
}
"""
GOLDEN = [
    (["eval", "--sig", "2,2", "(1 + e1)*(e2^e3) - 1/2"], 0, "-1/2 + e2^e3 + e1^e2^e3\n"),
    (
        ["eval", "--sig", "2,1", "--json", "e1*e2", "e3", "1/3 + e2"],
        0,
        '{"sig": [2, 1], "product": "geometric", "result": "-e1^e3 + 1/3*e1^e2^e3"}\n',
    ),
    (
        ["eval", "--sig", "2,1", "--product", "tilt", "--json", "e1*e2*e3 + e3"],
        0,
        '{"sig": [2, 1], "product": "tilt", "result": "e3 + e1^e2^e3", "target": [1, 2]}\n',
    ),
    (
        ["eval", "--sig", "1,3", "--product", "vee", "--odd", "e2,e3,e4", "--json",
         "e2*e2", "e1 + e3"],
        0,
        '{"sig": [1, 3], "product": "vee", "result": "e1 + e3", "odd": [2, 3, 4], '
        '"target": [4, 0]}\n',
    ),
    (["eval", "--sig", "2,1", "--product", "veeprime", "--odd", "e1", "e1*e2 + e2*e1"], 0, "0\n"),
    (["classify", "--sig", "1,3"], 0, "Cl(1,3): M(2,H)\neven part: M(2,C)\n"),
    (
        ["classify", "--sig", "3,0", "--even", "1,0", "--json", "--oracle"],
        0,
        '{"sig": [3, 0], "even_signature": [1, 0], "even_subalgebra": "C (+) C", '
        '"oracle_agrees": true}\n',
    ),
    (
        ["grading", "--sig", "1,3", "--odd", "e2,e3,e4"],
        0,
        "Cl(1,3) odd=e2,e3,e4\n(p0,q0,p1,q1) = (1,0,0,3)\neven subalgebra: H (+) H\n"
        "dimension class: half\nsignature change target: Cl(4,0)\n"
        "closure: ok (256 blade pairs)\n",
    ),
    (
        ["grading", "--sig", "2,1", "--odd", "e1", "--json"],
        0,
        '{"sig": [2, 1], "odd": [1], "p0": 1, "q0": 1, "p1": 1, "q1": 0, '
        '"even_subalgebra": "M(2,R)", "dichotomy": "half", "target": [1, 2], '
        '"closure_ok": true, "closure_pairs": 64}\n',
    ),
    (
        ["grading", "--sig", "1,1", "--involution", "accepted.json"],
        0,
        "accepted: (p0,q0,p1,q1) = (1,0,0,1)\neven subalgebra: R (+) R\n"
        "dimension class: half\nsignature change target: Cl(2,0)\n",
    ),
    (
        ["grading", "--sig", "1,1", "--involution", "accepted.json", "--json"],
        0,
        '{"sig": [1, 1], "accepted": true, "p0": 1, "q0": 0, "p1": 0, "q1": 1, '
        '"even_subalgebra": "R (+) R", "dichotomy": "half", "target": [2, 0]}\n',
    ),
    (
        ["grading", "--sig", "2,0", "--involution", "rejected.json"],
        1,
        "rejected: NotInvolution: matrix squared is not the identity on V\n",
    ),
    (
        ["grading", "--sig", "2,0", "--involution", "rejected.json", "--json"],
        1,
        '{"sig": [2, 0], "accepted": false, '
        '"reason": "rejected: NotInvolution: matrix squared is not the identity on V"}\n',
    ),
    (
        ["sigchange", "--sig", "1,3", "--odd", "e2,e3,e4", "--expr", "e1*e1 + e2*e3"],
        0,
        "target: Cl(4,0)\n1 + e2^e3\n",
    ),
    (
        ["sigchange", "--sig", "2,1", "--product", "veeprime", "--odd", "e1", "--expr",
         "e1*e2", "--json"],
        0,
        '{"sig": [2, 1], "odd": [1], "product": "veeprime", "target": [1, 2], '
        '"result": "-e1^e2"}\n',
    ),
    (
        ["sigchange", "--sig", "1,2", "--product", "geometric", "--expr", "e2*e2"],
        0,
        "target: Cl(1,2)\n-1\n",
    ),
    (["verify", "--suite", "table2", "--max-n", "1"], 0,
     "suite table2: 2 cells, 0 violations (0.00s)\n"),
    (["verify", "--suite", "table2", "--max-n", "1", "--json"], 0, _VERIFY_JSON),
]


@pytest.mark.parametrize(
    "argv, code, stdout", GOLDEN, ids=[" ".join(argv) for argv, _, _ in GOLDEN]
)
def test_golden_output(tmp_path, monkeypatch, capsys, argv, code, stdout):
    import types

    import cliffsig.verify as verify

    monkeypatch.setattr(verify, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
    (tmp_path / "accepted.json").write_text(json.dumps(_ACCEPTED))
    (tmp_path / "rejected.json").write_text(json.dumps(_REJECTED))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    assert capsys.readouterr().out == stdout


_FUZZ_TOKENS = st.one_of(
    st.sampled_from(
        [
            "--odd", "--product", "--json", "--expr", "--even", "--oracle",
            "--involution", "vee", "veeprime", "tilt", "geometric", "e0", "e1",
            "e2", "e4", "e1,e3", "e1^e2", "e1*e2", "1/0", "0/3", "-1", "(e1",
            "e1)", "1,1", "9,9", "-1,0", "", ",", "e",
        ]
    ),
    st.text(alphabet="e0123456789,^*+-/() ", max_size=12),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["eval", "classify", "grading", "sigchange"]),
    p=st.integers(0, 3),
    q=st.integers(0, 3),
    tokens=st.lists(_FUZZ_TOKENS, max_size=6),
)
def test_cli_exit_code_contract_fuzz(command, p, q, tokens):
    # any input ends in 0, 1 or 2 -- by return or SystemExit, never by an
    # escaping exception (a traceback would also exit 1)
    q = min(q, 3 - p)
    argv = [command, "--sig", f"{p},{q}", *tokens]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv


@pytest.mark.parametrize(
    "sig, reason",
    [
        ("1", "not enough values to unpack"),
        ("a,b", "invalid literal for int"),
        ("1,2,3", "too many values to unpack"),
        ("-1,2", "signature counts must be non-negative"),
    ],
)
def test_bad_sig_text_is_a_usage_error(capsys, sig, reason):
    with pytest.raises(SystemExit) as exc:
        main(["eval", f"--sig={sig}", "e1"])
    assert exc.value.code == 2
    assert f"expected --sig p,q — {reason}" in capsys.readouterr().err
