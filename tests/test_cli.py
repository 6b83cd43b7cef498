"""End-to-end CLI tests: golden outputs, exit codes, and format stability."""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foldcheck import algebra, catalog, characteristic, cli, decide
from foldcheck.cli import main
from foldcheck.expressions import parse_expression

from classes import replace
from test_trust_boundary import (
    RING_A6B4C6, RING_A7B3C6, manifold_document, rebased_document, ring_document,
)

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
DATA = HERE / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# golden outputs (byte-for-byte)


GOLDEN_CASES = [
    ("decide_rp4_r4.json", ["decide", "RP4", "--target", "R4", "--format", "json"]),
    ("decide_3rp4_r3_tame.txt", ["decide", "3#RP4", "--target", "R3", "--tame"]),
    ("decide_cp2_self.json", ["decide", "CP2", "--target", "self", "--format", "json"]),
    ("decide_s2xs3_r5_explain.txt", ["decide", "S2 x S3", "--target", "R5", "--explain"]),
    ("decide_rp6_r5_tame.txt", ["decide", "RP6", "--target", "R5", "--tame"]),
    ("decide_cp2_sphere2.txt", ["decide", "CP2", "--target", "sphere:2"]),
    ("decide_k3_sphere4.json", ["decide", "K3", "--target", "sphere:4", "--format", "json"]),
    ("thom_rp4_x_s1.txt", ["thom", "RP4 x S1"]),
    ("invariants_rp4.txt", ["invariants", "RP4"]),
    ("span_k3.txt", ["span", "K3"]),
    ("catalog.txt", ["catalog"]),
    ("catalog.json", ["catalog", "--format", "json"]),
]


@pytest.mark.parametrize("filename,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_stdout(capsys, filename, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert err == ""
    assert out == (GOLDEN / filename).read_text()


def test_golden_stderr_for_sum_mismatch(capsys):
    code, out, err = run(capsys, "decide", "RP4 # S3", "--target", "R3")
    assert code == 2
    assert out == ""
    assert err == (GOLDEN / "decide_sum_mismatch.stderr.txt").read_text()


def test_json_output_is_deterministic(capsys):
    first = run(capsys, "decide", "RP4 x S1", "--target", "R4", "--format", "json")
    second = run(capsys, "decide", "RP4 x S1", "--target", "R4", "--format", "json")
    assert first == second
    assert first[0] == 0


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_verdict_is_a_success(capsys):
    code, out, err = run(capsys, "decide", "K3", "--target", "R3")
    assert code == 0
    assert "UNKNOWN" in out


def test_target_larger_than_dim_is_a_usage_error(capsys):
    code, out, err = run(capsys, "decide", "RP4", "--target", "R7")
    assert code == 1
    assert "target dimension 7 exceeds dim M = 4" in err


def test_sphere_target_larger_than_dim_is_a_usage_error(capsys):
    code, out, err = run(capsys, "decide", "RP4", "--target", "sphere:9")
    assert (code, out) == (1, "")
    assert "target dimension 9 exceeds dim M = 4" in err


def test_missing_target_is_a_usage_error(capsys):
    code, out, err = run(capsys, "decide", "RP4")
    assert code == 1
    assert "required" in err


def test_unrecognized_target_is_a_usage_error(capsys):
    code, out, err = run(capsys, "decide", "RP4", "--target", "moebius")
    assert code == 1
    assert "unrecognized target" in err


@pytest.mark.parametrize(
    "target,message",
    # superscript digits pass str.isdigit but not int()
    [("R\u00b2", "unrecognized target 'R\u00b2'"), ("sphere:\u00b2", "invalid sphere target 'sphere:\u00b2'")],
    ids=["R", "sphere"],
)
def test_superscript_target_digits_are_a_usage_error(capsys, target, message):
    code, out, err = run(capsys, "decide", "S4", "--target", target)
    assert (code, out) == (1, "")
    assert message in err


@pytest.mark.parametrize(
    "target,message",
    # Arabic-Indic and fullwidth digits pass str.isdecimal and int()
    [("R٣", "unrecognized target 'R٣'"), ("sphere:４", "invalid sphere target 'sphere:４'")],
    ids=["R", "sphere"],
)
def test_non_ascii_target_digits_are_a_usage_error(capsys, target, message):
    code, out, err = run(capsys, "decide", "S4", "--target", target)
    assert (code, out) == (1, "")
    assert message in err


@pytest.mark.parametrize(
    "text,message",
    [
        ("RP٣", "unexpected character 'R' (at position 0)"),
        ("٢#RP4", "unexpected character '٢' (at position 0)"),
    ],
    ids=["atom", "count"],
)
def test_non_ascii_expression_digits_are_an_expression_error(capsys, text, message):
    code, out, err = run(capsys, "invariants", text)
    assert (code, out) == (2, "")
    assert message in err


def test_expression_error_reports_position(capsys):
    code, out, err = run(capsys, "decide", "RP4 @", "--target", "R3")
    assert code == 2
    assert "at position 4" in err


def test_deep_nesting_exits_2_without_traceback():
    nested = "(" * 3000 + "RP4" + ")" * 3000
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "foldcheck.cli", "decide", nested, "--target", "R4"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "(at position 100)" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["invariants", "{path}"], ["decide", "CP2", "--target", "pullback:{path}"]],
    ids=["document", "descriptor"],
)
def test_deeply_nested_json_exits_2_without_traceback(tmp_path, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "foldcheck.cli", *(a.format(path=path) for a in argv)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == "foldcheck: error: document nests too deeply\n"


# Runs one command, given as its arguments, through cli.main in a fresh
# interpreter and prints its exit code and the watched modules loaded by
# then.  The command comes as plain arguments: the probe imports nothing
# that it watches.
_IMPORT_PROBE = """
import contextlib, io, sys
from foldcheck import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
watched = ("numpy", "dataclasses", "inspect", "json", "foldcheck.boundary", "foldcheck.decide")
print(code, *(name for name in watched if name in sys.modules))
"""


def _cold_imports(*argv) -> tuple[int, set[str]]:
    """The exit code of one cold ``foldcheck`` call and the watched modules it loaded."""
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    return int(code), set(loaded)


def test_catalog_expressions_never_import_numpy(tmp_path):
    # the expression path runs on packed ints, and so does the battery of
    # every document, sparse or dense: numpy is for the array views alone.
    # The records are NamedTuples and plain classes, so no command loads
    # dataclasses; numpy would load inspect.  Only a document loads the
    # intake and battery module
    expression_commands = [
        ["decide", "RP4", "--target", "R4"],
        ["decide", "K3", "--target", "sphere:4", "--format", "json"],
        ["invariants", "S2 x RP3", "--format", "json"],
        ["span", "K3"],
        ["thom", "RP4 x S1"],
        ["decide", "CP2", "--target", f"pullback:{DATA / 'cp2_tangent.json'}"],
        ["decide", "CP2", "--target", "self", "--explain"],
    ]
    written = {name: manifold_document(parse_expression(name)) for name in ("N5", "24#RP4")}
    # dense documents: the doc-ingest rings and a torus in a non-monomial basis
    # the first ring is oriented of dimension 16; its signature is 0, as docgen writes it
    written["a6b4c6"] = {**ring_document(RING_A6B4C6), "signature": 0}
    written["a7b3c6"] = ring_document(RING_A7B3C6)
    torus = parse_expression(" x ".join(["S1"] * 5))
    written["T5"] = rebased_document(torus, np.random.default_rng(0))[0]
    documents = [DATA / "rp2.json"]
    for name, doc in written.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        documents.append(path)
    commands = [(argv, set()) for argv in expression_commands] + [
        (["invariants", path, "--format", "json"], {"foldcheck.boundary"}) for path in documents
    ]
    for argv, modules in commands:
        code, loaded = _cold_imports(*argv)
        assert (code, loaded - {"json", "foldcheck.decide"}) == (0, modules), argv


RP2_DOC, BAD_EULER_DOC = DATA / "rp2.json", DATA / "bad_euler.json"
COLD_IMPORT_CASES = [
    # no rule engine for invariants, catalog or an expression error
    (["invariants", "RP4"], 0, set()),
    (["catalog"], 0, set()),
    (["invariants", "RP4 @"], 2, set()),
    (["decide", "RP4 @", "--target", "R4"], 2, set()),
    # the rule engine, but no JSON module, for a text command
    (["decide", "RP4", "--target", "R4"], 0, {"foldcheck.decide"}),
    (["span", "K3"], 0, {"foldcheck.decide"}),
    (["thom", "RP4 x S1"], 0, {"foldcheck.decide"}),
    # the JSON module where JSON is written or read
    (["catalog", "--format", "json"], 0, {"json"}),
    (["invariants", "RP4", "--format", "json"], 0, {"json"}),
    (["decide", "CP2", "--target", f"pullback:{DATA / 'cp2_tangent.json'}"], 0, {"json", "foldcheck.decide"}),
    # and the intake and battery module for every document, refused or not
    (["invariants", RP2_DOC], 0, {"json", "foldcheck.boundary"}),
    (["span", RP2_DOC], 0, {"json", "foldcheck.boundary", "foldcheck.decide"}),
    (["decide", RP2_DOC, "--target", "R2"], 0, {"json", "foldcheck.boundary", "foldcheck.decide"}),
    (["invariants", BAD_EULER_DOC], 2, {"json", "foldcheck.boundary"}),
]


@pytest.mark.parametrize(
    "argv,code,loaded",
    COLD_IMPORT_CASES,
    ids=[" ".join(map(str, argv)).replace(f"{DATA}/", "") for argv, _, _ in COLD_IMPORT_CASES],
)
def test_cold_commands_load_only_what_they_run(argv, code, loaded):
    assert _cold_imports(*argv) == (code, loaded)


@pytest.mark.parametrize(
    "expression,position",
    [("2#" * 40 + "RP4", 65), ("K3 x K3 x K3", 8), ("1000#RP4", 4)],
    ids=["nested-repeats", "K3-cubed", "1000-RP4"],
)
def test_table_budget_exits_2_without_traceback(expression, position):
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "foldcheck.cli", "invariants", expression],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert f"over the budget of 33554432 bytes (at position {position})" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_contradictory_sq_rows_exit_2(capsys, tmp_path):
    doc = json.loads((DATA / "rp2.json").read_text())
    doc["sq"] = [[1, 1, 0, [1]], [1, 1, 0, [0]], [1, 1, 0, [1]]]
    path = tmp_path / "rp2.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "invariants", str(path))
    assert (code, out) == (2, "")
    assert err == "foldcheck: error: sq entry 1: conflicts with an earlier entry\n"


def test_repeated_basis_label_exits_2_naming_the_basis(capsys):
    # RP2 with its degree-1 label listed twice
    code, out, err = run(capsys, "invariants", str(DATA / "duplicate_labels.json"))
    assert (code, out) == (2, "")
    assert err == "foldcheck: error: basis: duplicate labels in degree 1\n"


def test_working_directory_does_not_shadow_catalog_atoms(tmp_path):
    # a directory named RP4 and a broken file named K3 sit in the working
    # directory; the catalog expressions win, and ./K3 still reaches the file
    (tmp_path / "RP4").mkdir()
    (tmp_path / "K3").write_text("{")
    (tmp_path / "doc.json").write_text((DATA / "rp2.json").read_text())
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "foldcheck.cli", *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
        )

    rp4 = cli("invariants", "RP4")
    assert (rp4.returncode, rp4.stderr) == (0, "")
    assert rp4.stdout == (GOLDEN / "invariants_rp4.txt").read_text()
    k3 = cli("invariants", "K3")
    assert (k3.returncode, k3.stderr) == (0, "")
    assert k3.stdout.startswith("M = K3  (dim 4)\n")
    as_file = cli("invariants", "./K3")
    assert as_file.returncode == 2
    assert "invalid JSON document" in as_file.stderr
    document = cli("invariants", "doc.json")
    assert (document.returncode, document.stderr) == (0, "")
    assert document.stdout.startswith("M = RP2  (dim 2)\n")
    missing = cli("invariants", "missing.json")
    assert missing.returncode == 2
    assert "unexpected character 'm' (at position 0)" in missing.stderr
    directory = cli("invariants", ".")
    assert directory.returncode == 2
    assert "unexpected character '.' (at position 0)" in directory.stderr


def test_invalid_document_is_a_document_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, "invariants", str(bad))
    assert code == 2
    assert err == (
        "foldcheck: error: invalid JSON document: "
        "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n"
    )


def test_non_utf8_document_exits_2_without_traceback(tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"name": "RP2 \u00e9"}'.encode("latin-1"))
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "foldcheck.cli", "invariants", str(bad)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "foldcheck: error: 'utf-8' codec can't decode byte 0xe9 in position 14: invalid continuation byte\n"
    )


@pytest.mark.parametrize("name", [5, None, ["RP2"]], ids=["int", "null", "list"])
def test_document_name_that_is_not_a_string_exits_2(capsys, tmp_path, name):
    doc = json.loads((DATA / "rp2.json").read_text())
    doc["name"] = name
    path = tmp_path / "named.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "invariants", str(path))
    assert (code, out) == (2, "")
    assert err == "foldcheck: error: field 'name' must be a string\n"


def test_inconsistent_document_is_rejected(capsys):
    code, out, err = run(capsys, "invariants", str(DATA / "bad_euler.json"))
    assert code == 2
    assert "Euler parity" in err


def test_document_with_a_wrong_signature_is_refused_for_it(capsys):
    # CP2 with sigma = 0 and p1 "unknown": sigma is settled before p_1 is
    # completed from it, so the refusal names sigma, not a p_1 of 3 sigma
    code, out, err = run(capsys, "invariants", str(DATA / "cp2_bad_signature.json"))
    assert (code, out) == (2, "")
    assert err == "foldcheck: error: signature parity: sigma = 0 and chi = 3 differ mod 2\n"


# ---------------------------------------------------------------------------
# documents and descriptors


def test_document_manifold_matches_expression(capsys):
    from_file = run(capsys, "invariants", str(DATA / "rp2.json"))
    from_expr = run(capsys, "invariants", "RP2")
    assert from_file == from_expr


def test_pullback_descriptor_matches_self_target(capsys):
    via_file = run(
        capsys, "decide", "CP2", "--target", f"pullback:{DATA / 'cp2_tangent.json'}"
    )
    via_self = run(capsys, "decide", "CP2", "--target", "self")
    assert via_file == via_self
    assert via_file[0] == 0
    assert "EXISTS" in via_file[1]


def test_descriptor_with_missing_fields_is_rejected(capsys, tmp_path):
    doc = tmp_path / "desc.json"
    doc.write_text(json.dumps({"rank": 4, "w": [], "p1": "zero"}))
    code, out, err = run(capsys, "decide", "CP2", "--target", f"pullback:{doc}")
    assert code == 2
    assert "missing fields ['orientable']" in err


def test_descriptor_with_an_odd_p1_over_a_spin_base_is_rejected(capsys, tmp_path):
    # p_1 = w_2^2 = 0 mod 2 over S4, so no bundle has p_1 = 5
    doc = tmp_path / "desc.json"
    doc.write_text(json.dumps(
        {"rank": 4, "orientable": True, "w": [[1], [], [], [], [0]], "p1": {"int": 5}}
    ))
    code, out, err = run(capsys, "decide", "S4", "--target", f"pullback:{doc}")
    assert (code, out) == (2, "")
    assert "bundle-descriptor: p_1 = 5 but <w_2^2, [M]> = 0" in err


@pytest.mark.parametrize("tame", [[], ["--tame"]], ids=["fold", "tame"])
def test_descriptor_off_wu_formula_is_rejected(capsys, tmp_path, tame):
    # no bundle over RP4 has w = 1 + a + a^3: Sq^1 w_2 = 0, but Wu's formula
    # gives w_1 w_2 + w_3 = a^3; it was decided EXISTS by Thm 3.4
    doc = tmp_path / "desc.json"
    doc.write_text(json.dumps({"rank": 4, "w": [[1], [1], [0], [1], [0]], "p1": "zero", "orientable": False}))
    code, out, err = run(capsys, "decide", "RP4", *tame, "--target", f"pullback:{doc}")
    assert (code, out) == (2, "")
    assert err == "foldcheck: error: wu-formula: Sq^1 w_2 = 0, but Wu's formula gives a^3\n"


@pytest.mark.parametrize("value", ["x", 2, 1.5])
def test_descriptor_coordinates_must_be_0_or_1(tmp_path, value):
    descriptor = json.loads((DATA / "cp2_tangent.json").read_text())
    descriptor["w"][2] = [value]
    doc = tmp_path / "desc.json"
    doc.write_text(json.dumps(descriptor))
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "foldcheck.cli", "decide", "CP2", "--target", f"pullback:{doc}"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "descriptor w[2]: coordinates must be 0 or 1" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("sq", [[True, 1, 0, [1]]], "sq entry 0: k, degree and index must be integers"),
        ("w", [[True], [1], [1]], "w[0]: coordinates must be 0 or 1"),
        ("mult", [[1, 0, 1, 0, [1.0]]], "mult entry 0: coordinates must be 0 or 1"),
        ("mult", [[1, 0, 1.0, 0, [1]]], "mult entry 0: degrees and indices must be integers"),
        ("sq", [[1, 1, False, [1]]], "sq entry 0: k, degree and index must be integers"),
        ("sq", [[2, 1, 0, [False]]], "sq entry 0: coordinates must be 0 or 1"),
    ],
    ids=["sq-k-true", "w-true", "mult-float-coordinate", "mult-float-degree",
         "sq-index-false", "sq-vanishing-false"],
)
def test_document_booleans_and_floats_are_not_integers(capsys, tmp_path, field, value, message):
    # each reads as RP2 when a boolean or float is taken for the integer it equals
    doc = json.loads((DATA / "rp2.json").read_text())
    doc[field] = value
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "invariants", str(path))
    assert (code, out) == (2, "")
    assert message in err


def test_document_over_the_table_budget_is_a_document_error(capsys, tmp_path):
    doc = json.loads((DATA / "rp2.json").read_text())
    doc["basis"][1] = [f"a{i}" for i in range(5000)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "invariants", str(path))
    assert code == 2
    assert "basis: the dense tables would take" in err


def test_each_reader_of_wbar_shares_one_inversion_per_record(capsys, monkeypatch):
    real = algebra.invert_total
    calls = []

    def counting(u):
        calls.append(u)
        return real(u)

    for module in (algebra, catalog, characteristic, cli, decide):
        if getattr(module, "invert_total", None) is real:
            monkeypatch.setattr(module, "invert_total", counting)
    fresh = replace(catalog.atom("RP4"))  # a record that has inverted nothing yet
    monkeypatch.setattr(cli, "_resolve_manifold", lambda text: fresh)
    for argv in (
        ["invariants", "RP4"],
        ["invariants", "RP4", "--format", "json"],
        ["thom", "RP4"],
        ["decide", "RP4", "--target", "R3", "--explain"],
    ):
        assert run(capsys, *argv)[0] == 0, argv
    assert [u.algebra for u in calls] == [fresh.algebra]


def test_tangent_differences_reuse_the_record_inverse(capsys, monkeypatch):
    # the tangent descriptor, and a pullback document equal to it, carry w(M)
    real = algebra.invert_total
    calls = []

    def counting(u):
        calls.append(u)
        return real(u)

    for module in (algebra, catalog, characteristic, cli, decide):
        if getattr(module, "invert_total", None) is real:
            monkeypatch.setattr(module, "invert_total", counting)
    fresh = replace(catalog.atom("CP2"))
    monkeypatch.setattr(cli, "_resolve_manifold", lambda text: fresh)
    for argv in (
        ["thom", "CP2", "--target", "self"],
        ["decide", "CP2", "--target", "self"],
        ["decide", "CP2", "--target", f"pullback:{DATA / 'cp2_tangent.json'}"],
    ):
        assert run(capsys, *argv)[0] == 0, argv
    assert [u.algebra for u in calls] == [fresh.algebra]


# ---------------------------------------------------------------------------
# output formats and options


def test_sphere_target_label(capsys):
    code, out, err = run(
        capsys, "decide", "RP4", "--target", "sphere:4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["target"] == "S^4"
    assert payload["verdict"] == "not_exists"


def test_decide_json_fields(capsys):
    code, out, err = run(capsys, "decide", "K3", "--target", "R4", "--format", "json")
    payload = json.loads(out)
    assert set(payload) == {"manifold", "dim", "target", "tame", "verdict", "trace"}
    assert payload["trace"][0]["citation"] == "Cor 3.5(i)"
    assert set(payload["trace"][0]) == {"rule", "citation", "obstruction", "value"}


def test_explain_lists_invariants(capsys):
    code, out, err = run(capsys, "decide", "RP4", "--target", "R4", "--explain")
    assert code == 0
    assert "invariants consulted:" in out
    assert "  wu = 1 + a + a^2" in out


def test_invariants_json_parses(capsys):
    code, out, err = run(capsys, "invariants", "RP4 # RP4", "--format", "json")
    payload = json.loads(out)
    assert payload["name"] == "RP4 # RP4"
    assert payload["euler"] == 0
    assert payload["w"]["components"][4] == [0]
    assert payload["w"]["components"][1] == [1, 1]
    assert payload["p1"] == "zero"


# the "zero" form is read in test_invariants_json_parses
@pytest.mark.parametrize(
    "expr,p1",
    [("K3", {"int": -48}), ("CP3", "nonzero"), ("RP2 x RP3", "unknown")],
)
def test_invariants_json_p1_forms(capsys, expr, p1):
    code, out, err = run(capsys, "invariants", expr, "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["p1"] == p1


def test_span_json_parses(capsys):
    code, out, err = run(capsys, "span", "S7", "--format", "json")
    payload = json.loads(out)
    assert (payload["lower"], payload["upper"]) == (7, 7)


def test_thom_json_parses(capsys):
    code, out, err = run(capsys, "thom", "K3", "--format", "json")
    payload = json.loads(out)
    names = [e["name"] for e in payload["entries"]]
    assert names == ["fold", "cusp", "A3", "A4", "Sigma^{2,0} mod 2", "Sigma^{2,0} integral"]
    integral = payload["entries"][-1]
    assert integral["value"] == "48"
    assert integral["vanishes"] is False


def test_catalog_json_parses(capsys):
    code, out, err = run(capsys, "catalog", "--format", "json")
    payload = json.loads(out)
    tokens = [a["token"] for a in payload["atoms"]]
    assert "K3" in tokens and "RP<n>" in tokens
    assert len(payload["operators"]) == 3


def test_thom_against_own_tangent_vanishes(capsys):
    code, out, err = run(capsys, "thom", "CP2", "--target", "self")
    assert code == 0
    assert "nonzero" not in out


def test_thom_reads_the_integral_entry_off_beta_w3(capsys, tmp_path):
    # xi = L + L' + L'' + 2 over RP2 x S1 x S1 x S1, L the line bundle of
    # w_1 = s (one per circle): w(xi) = (1 + s)(1 + s')(1 + s''), and
    # p_1(xi) = 0 as each c_1(L (x) C) = beta s vanishes (s is integral).  The
    # difference has p_1 = 0 (w_1(D) w_1(xi)^2 = 0 keeps the cross term
    # zero) and w_1 w_3 = a^2 (s s' + s s'' + s' s'') != 0, so beta(w_3)
    # certifies the entry
    doc = tmp_path / "desc.json"
    doc.write_text(json.dumps({
        "rank": 5,
        # degree 1 (s'', s', s, a); degree 2 (s's'', ss'', as'', ss', as', as, a^2)
        "w": [[1], [1, 1, 1, 0], [1, 1, 0, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0], [0]],
        "p1": "zero",
        "orientable": False,
    }))
    code, out, err = run(capsys, "thom", "RP2 x S1 x S1 x S1", "--target", f"pullback:{doc}")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == (
        "Sigma^{2,0} integral (deg 4) = nonzero class (mod-2 reduction w_1 w_3 != 0)  [nonzero]"
    )


# ---------------------------------------------------------------------------
# grammar fuzz

# Per-example time bound of both fuzz tests.  Their sampled examples take a
# few milliseconds, and the large explicit ones (S2000, 1000 # S100,
# S1 x S1000, S1000 x S1000) at most about 0.3 s on a 2-CPU host, so the
# bound trips on a runaway input, not on a loaded host.
FUZZ_DEADLINE_MS = 5000


_FUZZ_TOKENS = st.one_of(
    st.sampled_from(
        ["K3", "CP2~"] + [f"{f}{i}" for f in ("S", "RP", "CP", "Sigma", "N") for i in range(10)]
    ),
    st.sampled_from(["0", "1", "2", "3", "1001", "9" * 5000]),
    st.sampled_from(["#", "x", "(", ")"]),
)


# Tokens are joined with spaces so that neighbours never lex as one token
# (``RP3`` then ``1001`` would otherwise read as the atom ``RP31001``).
@settings(max_examples=120, deadline=FUZZ_DEADLINE_MS)
@given(st.lists(_FUZZ_TOKENS, max_size=7))
@example(["9" * 5000, "#", "RP4"])
@example(["S2000"])
@example(["1000", "#", "S100"])
@example(["S1", "x", "S1000"])
@example(["S1000", "x", "S1000"])
def test_invariants_on_grammar_tokens_exits_0_or_2_with_a_position(tokens):
    expr = " ".join(tokens)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["invariants", expr])
    assert code in (0, 2), (expr, err.getvalue())
    if code == 2:
        assert re.search(r"\(at position \d+\)\n$", err.getvalue()), (expr, err.getvalue())


# ---------------------------------------------------------------------------
# document fuzz

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
_DOCUMENT_FIELDS = [
    "name", "dim", "orientable", "euler", "signature", "basis", "mult", "sq", "w", "p1",
    "w3_twisted", "stably_parallelizable", "torsion_free",
]
# small valid documents: RP2 with products, squares and w; the torus with
# two degree-1 classes and every optional flag
_SEED_DOCUMENTS = [
    json.loads((DATA / "rp2.json").read_text()),
    {
        "name": "T2", "dim": 2, "orientable": True, "euler": 0,
        "basis": [["1"], ["a", "b"], ["t"]], "mult": [[1, 0, 1, 1, [1]]],
        "w3_twisted": "zero", "stably_parallelizable": True, "torsion_free": True, "p1": "zero",
    },
]


def _nodes(value, path=()):
    """Every (path, node) of a JSON tree, the root first."""
    yield path, value
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _nodes(child, path + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _nodes(child, path + (index,))


def _mutate(doc, mutations):
    """Apply (pick, action, value) edits: replace a node, drop it, or add a sibling."""
    doc = json.loads(json.dumps(doc))
    for pick, action, value in mutations:
        paths = [path for path, _ in _nodes(doc)]
        path = paths[pick % len(paths)]
        if not path:
            if action == "replace":
                doc = value
            continue
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if action == "replace":
            parent[path[-1]] = value
        elif action == "drop":
            del parent[path[-1]]
        elif isinstance(parent, list):
            parent.insert(path[-1], value)
        else:
            parent[_DOCUMENT_FIELDS[pick % len(_DOCUMENT_FIELDS)] if pick % 2 else "extra"] = value
    return doc


_MUTATION = st.tuples(
    st.integers(0, 10**6),
    st.sampled_from(["replace", "drop", "add"]),
    _JSON_VALUES | st.integers(-(10**6), 10**6) | st.lists(st.integers(0, 1), max_size=5),
)
_MUTATED_DOCUMENTS = st.builds(
    lambda doc, mutations: json.dumps(_mutate(doc, mutations)),
    st.sampled_from(_SEED_DOCUMENTS),
    st.lists(_MUTATION, min_size=1, max_size=3),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("document-fuzz")


@settings(max_examples=200, deadline=FUZZ_DEADLINE_MS)
@given(_MUTATED_DOCUMENTS)
@example("[" * 100_000 + "]" * 100_000)
@example(json.dumps(dict(_SEED_DOCUMENTS[0], mult=5)))
@example(json.dumps(dict(_SEED_DOCUMENTS[0], w3_twisted=[])))
def test_invariants_on_mutated_documents_exits_0_or_2(fuzz_dir, text):
    path = fuzz_dir / "doc.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["invariants", str(path)])
    assert code in (0, 2), (text, err.getvalue())
