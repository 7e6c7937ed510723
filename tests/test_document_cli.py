import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import lcm
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from echarpoly import cli
from echarpoly.document import DocumentError, TensorDocument
from echarpoly.rational import parse_rational
from echarpoly.tensor import Hypermatrix, map_forms

GOLDEN_EIGEN = Path(__file__).parent / "golden" / "eigen"
GOLDEN_REPORTS = Path(__file__).parent / "golden" / "reports"


#: The environment of every subprocess here: the repository's src first on
#: PYTHONPATH, so the tests run this checkout without an install or a set PYTHONPATH.
CLI_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")])),
)


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "echarpoly.cli", *args],
        capture_output=True,
        text=True,
        env=CLI_ENV,
    )
    return proc


def write_doc(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


DIAG4 = {"order": 4, "dim": 2, "entries": {"1,1,1,1": "1", "2,2,2,2": "1"}}
DIAG3 = {"order": 3, "dim": 2, "entries": {"1,1,1": "1", "2,2,2": "1"}}
DEFICIT = {
    "order": 3,
    "dim": 2,
    "entries": {
        "1,1,1": "2",
        "1,1,2": "2",
        "1,2,2": "1",
        "2,1,1": "1",
        "2,1,2": "1",
        "2,2,2": "3",
    },
}


def test_document_round_trip():
    doc = TensorDocument.from_json(json.dumps(DEFICIT))
    assert TensorDocument.from_json(doc.to_json()) == doc
    A = doc.to_hypermatrix()
    assert TensorDocument.from_hypermatrix(A) == doc


def test_document_canonicalizes_fractions():
    doc = TensorDocument.from_json(
        json.dumps({"order": 2, "dim": 2, "entries": {"1,1": "2/4", "2,2": "0"}})
    )
    assert doc.entries == (("1,1", "1/2"),)


def test_document_rejects_unknown_fields():
    with pytest.raises(DocumentError):
        TensorDocument.from_json(
            json.dumps({"order": 2, "dim": 2, "entries": {}, "extra": 1})
        )


@pytest.mark.parametrize(
    "payload",
    [
        {"order": 2, "dim": 2},
        {"order": 1, "dim": 2, "entries": {}},
        {"order": 2, "dim": 0, "entries": {}},
        {"order": 2, "dim": 2, "entries": {"1,1": "1.5"}},
        {"order": 2, "dim": 2, "entries": {"1,1": 1}},
        {"order": 2, "dim": 2, "entries": {"1": "1"}},
        {"order": 2, "dim": 2, "entries": {"1,3": "1"}},
        {"order": 2, "dim": 2, "entries": {"0,1": "1"}},
        {"order": "2", "dim": 2, "entries": {}},
        [1, 2],
        # int() reads "+1, 1,1_0" as (1, 1, 10): indices are ASCII digits only
        {"order": 3, "dim": 10, "entries": {"+1, 1,1_0": "1"}},
        {"order": 3, "dim": 2, "entries": {"+1,1,1": "1"}},
        {"order": 3, "dim": 2, "entries": {"1, 1,1": "1"}},
        {"order": 3, "dim": 10, "entries": {"1,1,1_0": "1"}},
        # ARABIC-INDIC DIGIT ONE as an index, THREE as a value
        {"order": 3, "dim": 2, "entries": {"\u0661,1,1": "1"}},
        {"order": 3, "dim": 2, "entries": {"1,1,1": "\u0663"}},
    ],
)
def test_document_rejects_invalid(payload):
    with pytest.raises(DocumentError):
        TensorDocument.from_mapping(payload)


@pytest.mark.parametrize(
    "text, member",
    [
        ('{"order": 2, "dim": 2, "entries": {"1,1": "2", "1,1": "3"}}', "1,1"),
        ('{"order": 2, "order": 2, "dim": 2, "entries": {}}', "order"),
        ('{"order": 2, "dim": 2, "dim": 3, "entries": {}}', "dim"),
        ('{"order": 2, "dim": 2, "entries": {}, "entries": {"1,1": "1"}}', "entries"),
    ],
    ids=["entry", "order", "dim", "entries"],
)
def test_document_refuses_a_duplicate_member(text, member, tmp_path):
    with pytest.raises(DocumentError, match=f"^duplicate member '{member}'$"):
        TensorDocument.from_json(text)
    path = tmp_path / "twice.json"
    path.write_text(text)
    proc = run_cli("echar", str(path))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"parse error: duplicate member '{member}'\n"


@pytest.mark.parametrize(
    "content",
    [
        b'{"order": 2, "dim": 2, "entries": {"1,1": "\xff"}}',
        b'{"order": ' + b"2" * 5000 + b', "dim": 2, "entries": {}}',
        b'{"order": 2, "dim": ' + b"2" * 5000 + b', "entries": {}}',
        b'{"order": 2, "dim": 2, "entries": {"1,' + b"1" * 5000 + b'": "1"}}',
        b"[" * 100_000 + b"]" * 100_000,
    ],
    ids=["not-utf8", "long-order", "long-dim", "long-index", "deep-nesting"],
)
def test_cli_malformed_file_is_a_parse_error(content, tmp_path):
    path = tmp_path / "malformed.json"
    path.write_bytes(content)
    proc = run_cli("echar", str(path))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("parse error: ") and proc.stderr.count("\n") == 1


# Document values: whitespace str.strip() removes (U+00A0, U+2003) and one it
# keeps (U+200B), signs, ASCII and other scripts' digits, and the slashes,
# decimals, exponents and underscores of the strict grammar's refusals.
_SPACES = st.text(st.sampled_from(" \t\n\x0b\x1c\u00a0\u2003\u3000\u200b"), max_size=2)
_DIGITS = st.text("0123456789", min_size=1, max_size=5) | st.text(
    "0123456789\u0663\uff11\u0967", max_size=3
)
_VALUE_TEXTS = st.builds(
    lambda lead, sign, num, tail, trail: lead + sign + num + tail + trail,
    _SPACES,
    st.sampled_from(["", "", "+", "-", "+-"]),
    _DIGITS,
    st.just("") | _DIGITS.map("/".__add__) | st.sampled_from(["/0", "/06", ".5", "e3", "_0", "/", "/-2", " /2"]),
    _SPACES,
) | st.text(max_size=6)
_VALUES = _VALUE_TEXTS | st.integers() | st.floats() | st.none() | st.booleans() | st.lists(st.integers(), max_size=2)
_KEY_PARTS = st.text("0123456789", min_size=1, max_size=3) | st.sampled_from(
    ["", "+1", " 1", "1 ", "1_0", "-0", "\u0661", "\uff11", "1\u00a0", "a"]
)
_KEYS = st.lists(_KEY_PARTS, min_size=2, max_size=4).map(",".join) | st.integers()


def _reference_or_refused(read, *args):
    try:
        return read(*args)
    except ValueError:
        return None


@settings(max_examples=400, deadline=None)
@given(_VALUES)
@example("1.5")
@example("1e3")
@example("1_0")
@example("3/0")
@example("3/06")
@example("-007/3")
@example("\u00a0+2/6\u2003")
@example("\u200b1")
@example("\u0663")
def test_parse_rational_matches_the_two_step_reference(value):
    expected = _reference_or_refused(oracles.reference_rational, value)
    if expected is None:
        with pytest.raises(ValueError):
            parse_rational(value)
    else:
        got = parse_rational(value)
        assert type(got) is Fraction and got == expected


@settings(max_examples=400, deadline=None)
@given(st.integers(2, 4), st.integers(1, 12), _KEYS, _VALUES)
@example(3, 10, "+1, 1,1_0", "1")
@example(2, 2, "01,2", "\u00a0-4/6 ")
@example(2, 2, "1,\u0661", "1")
@example(2, 10, "10,3", "0")
def test_document_entry_matches_the_two_step_reference(order, dim, key, value):
    """One entry is accepted exactly when the split-and-Fraction parser takes
    its key and value, and then with the same 0-based index and value."""
    idx = _reference_or_refused(oracles.reference_index, key, order, dim)
    rational = _reference_or_refused(oracles.reference_rational, value)
    payload = {"order": order, "dim": dim, "entries": {key: value}}
    if idx is None or rational is None:
        with pytest.raises(DocumentError):
            TensorDocument.from_mapping(payload)
        return
    doc = TensorDocument.from_mapping(payload)
    assert doc.values == ({idx: rational} if rational else {})
    assert all(type(v) is Fraction for v in doc.values.values())


@st.composite
def sparse_documents(draw):
    """A document of a few p/q entries, some unreduced, as 1-based key strings."""
    order, dim = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    keys = draw(st.lists(st.tuples(*[st.integers(1, dim)] * order), max_size=10, unique=True))
    entries = {}
    for key in keys:
        p, q = draw(st.integers(-40, 40)), draw(st.integers(1, 30))
        entries[",".join(map(str, key))] = f"{p}/{q}" if q > 1 else str(p)
    return order, dim, entries


@settings(max_examples=150, deadline=None)
@given(sparse_documents())
def test_sparse_document_gives_the_reference_tensor_and_map(document):
    """``to_hypermatrix`` and its int ``map_forms`` equal the tensor built from
    the reference's Fractions through ``Hypermatrix(...)`` and its map summed
    as Fractions."""
    order, dim, entries = document
    A = TensorDocument.from_json(json.dumps({"order": order, "dim": dim, "entries": entries})).to_hypermatrix()
    B = Hypermatrix(
        order,
        dim,
        {
            oracles.reference_index(key, order, dim): oracles.reference_rational(value)
            for key, value in entries.items()
        },
    )
    assert A == B and all(type(v) is Fraction for v in A.entries.values())
    for form, summed in zip(map_forms(A), oracles.brute_map_forms(B)):
        assert {e: Fraction(v, form.denom) for e, v in form.coeffs.items()} == summed
        assert form.denom == lcm(*(v.denominator for v in summed.values()))


def test_document_one_based_boundary():
    doc = TensorDocument.from_json(json.dumps(DIAG3))
    A = doc.to_hypermatrix()
    assert A[(0, 0, 0)] == 1 and A[(1, 1, 1)] == 1


def test_cli_echar_golden_even(tmp_path):
    path = write_doc(tmp_path, "diag4.json", DIAG4)
    proc = run_cli("echar", path)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["coefficients"] == ["1", "-6", "13", "-12", "4"]
    assert report["route"] == "sylvester-direct"
    assert report["a0_matches"] and report["leading_matches"]


def test_cli_echar_golden_odd(tmp_path):
    path = write_doc(tmp_path, "diag3.json", DIAG3)
    proc = run_cli("echar", path)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["coefficients"] == ["1", "0", "-4", "0", "5", "0", "-2"]


def test_cli_echar_zero_tensor(tmp_path):
    path = write_doc(tmp_path, "zero.json", {"order": 3, "dim": 2, "entries": {}})
    proc = run_cli("echar", path)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["identically_zero"] is True
    assert report["coefficients"] == []


def test_cli_echar_routes(tmp_path):
    path = write_doc(tmp_path, "diag4.json", DIAG4)
    for route in ("sylvester", "det", "macaulay"):
        proc = run_cli("echar", path, "--route", route)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["coefficients"] == ["1", "-6", "13", "-12", "4"]


def test_cli_echar_dimension3_diagonal_with_a_zero_entry(tmp_path):
    path = write_doc(
        tmp_path,
        "diag110.json",
        {"order": 4, "dim": 3, "entries": {"1,1,1,1": "1", "2,2,2,2": "1"}},
    )
    proc = run_cli("echar", path)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["route"] == "macaulay"
    assert report["coefficients"] == ["0"] * 9 + ["-1", "6", "-13", "12", "-4"]


def _diagonal_dim3(tmp_path, order):
    entries = {",".join([str(i)] * order): str(i) for i in (1, 2, 3)}
    return write_doc(tmp_path, f"dim3-order{order}.json", {"order": order, "dim": 3, "entries": entries})


def test_cli_dimension3_order6_takes_the_macaulay_route(tmp_path):
    proc = run_cli("echar", _diagonal_dim3(tmp_path, 6))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["route"] == "macaulay"
    assert len(report["coefficients"]) == 32


def test_cli_dimension3_order8_exit_2_fast(tmp_path):
    path = _diagonal_dim3(tmp_path, 8)
    start = time.perf_counter()
    proc = run_cli("echar", path)
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 2
    assert "resultant estimate 44,460,689 = nodes x side^3 = 59 x 91^3" in proc.stderr


def test_cli_eigen_deficit(tmp_path):
    path = write_doc(tmp_path, "deficit.json", DEFICIT)
    proc = run_cli("eigen", path)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["normalized_count"] == 1
    assert report["deficit_count"] == 2
    kinds = sorted((row["kind"], row["z_eigenpair"]) for row in report["eigenpairs"])
    assert kinds == [("deficit", False), ("deficit", False), ("normalized", True)]


def test_cli_eigen_infinitely_many(tmp_path):
    path = write_doc(
        tmp_path,
        "inf.json",
        {"order": 3, "dim": 2, "entries": {"1,1,1": "1", "2,1,2": "1"}},
    )
    proc = run_cli("eigen", path)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["infinitely_many"] is True


def test_cli_parse_error_exit_1(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run_cli("echar", str(path)).returncode == 1
    bad = write_doc(tmp_path, "bad.json", {"order": 2, "dim": 2, "entries": {"1,1": "0.5"}})
    assert run_cli("echar", bad).returncode == 1


def test_cli_unsupported_exit_2(tmp_path):
    path = write_doc(
        tmp_path, "dim5.json", {"order": 3, "dim": 5, "entries": {"1,1,1": "1"}}
    )
    assert run_cli("echar", path).returncode == 2
    proc = run_cli("echar", path, "--route", "macaulay")
    assert proc.returncode == 2
    assert "the macaulay route supports dimensions 2 and 3" in proc.stderr
    path3 = write_doc(
        tmp_path, "dim3.json", {"order": 3, "dim": 3, "entries": {"1,1,1": "1"}}
    )
    assert run_cli("eigen", path3).returncode == 2
    # the direct route is for dimension 2 only
    assert run_cli("echar", path3, "--route", "sylvester").returncode == 2
    # a degenerate odd tensor (b_m c_1 = 0) takes it after a frame change
    diag3 = write_doc(tmp_path, "diag3.json", DIAG3)
    proc = run_cli("echar", diag3, "--route", "sylvester")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["route"] == "sylvester-direct"


@pytest.mark.parametrize("command", ["eigen", "verify"])
def test_cli_value_beyond_float_range_exits_2_without_a_traceback(command, tmp_path):
    # order 23, eps = 10^-30: the non-real classes' lambda is about 2e315
    A = oracles.isotropic_family_tensor(23, Fraction(1, 10**30))
    path = tmp_path / "overflow.json"
    path.write_text(TensorDocument.from_hypermatrix(A).to_json())
    proc = run_cli(command, str(path))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("unsupported: ") and "beyond float range" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_verify_file_mode(tmp_path):
    path = write_doc(tmp_path, "deficit.json", DEFICIT)
    proc = run_cli("verify", path, "--deep")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["failures"] == []
    names = {v["check"] for v in report["verdicts"]}
    assert "constant-term" in names and "route-macaulay" in names
    assert "PASS constant-term" in proc.stderr


def test_cli_verify_fuzz_deterministic():
    a = run_cli("verify", "--fuzz", "3", "--seed", "9", "--m", "3")
    b = run_cli("verify", "--fuzz", "3", "--seed", "9", "--m", "3")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    c = run_cli("verify", "--fuzz", "3", "--seed", "10", "--m", "4")
    assert c.returncode == 0
    assert c.stdout != a.stdout


@pytest.mark.parametrize("deep", [False, True], ids=["plain", "deep"])
def test_cli_verify_reports_name_the_command_that_ran(tmp_path, monkeypatch, capsys, deep):
    # a report read alone says whether the macaulay cross-check ran, in file and fuzz mode
    monkeypatch.chdir(tmp_path)
    write_doc(tmp_path, "diag4.json", DIAG4)
    flag = ["--deep"] if deep else []
    assert cli.main(["verify", *flag, "diag4.json"]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == " ".join(["verify", *flag, "diag4.json"])
    assert cli.main(["verify", "--fuzz", "1", "--seed", "3", "--m", "4", *flag]) == 0
    command = json.loads(capsys.readouterr().out)["command"]
    assert command == " ".join(["verify", "--fuzz", "1", "--seed", "3", "--m", "4", "--n", "2", *flag])


def test_cli_verify_requires_seed():
    proc = run_cli("verify", "--fuzz", "2")
    assert proc.returncode == 1


@pytest.mark.parametrize("count", ["0", "-3"])
def test_cli_verify_fuzz_refuses_a_count_below_one(count):
    proc = run_cli("verify", "--fuzz", count, "--seed", "1", "--m", "3")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "--fuzz" in proc.stderr


@pytest.mark.parametrize("order", ["-1", "0", "1"])
def test_cli_verify_fuzz_refuses_an_order_below_two(order):
    proc = run_cli("verify", "--fuzz", "1", "--seed", "1", "--m", order)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"unsupported: order must be >= 2, got {order}" in proc.stderr


EIGEN_GOLDENS = ["deficit", "deficit-family-m5", "diag4", "repeated3", "zero-pivot5", "pq6"]


@pytest.mark.parametrize("name", EIGEN_GOLDENS)
def test_cli_eigen_report_is_pinned(name):
    """The eigen report, floats included, byte for byte.

    Each ``<name>.stdout`` is the report of ``eigen <name>.json`` run in the
    golden directory: the README order-3 tensor; an order-5 deficit tensor
    whose cross form carries (x1^2 + x2^2)^2; the order-4 diagonal; the
    repeated direction of an order-3 tensor; an order-5 draw with c_1 = 0;
    and an order-6 p/q draw with irrational real and complex directions.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "echarpoly.cli", "eigen", f"{name}.json"],
        capture_output=True,
        text=True,
        cwd=GOLDEN_EIGEN,
        env=CLI_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN_EIGEN / f"{name}.stdout").read_text()


#: Each golden's largest lambda and vector errors while its roots came from
#: numpy's companion matrix, rounded up: no golden may get further off.
COMPANION_MATRIX_ERRORS = {
    "deficit": (3.7e-17, 6.3e-17),
    "deficit-family-m5": (4.1e-17, 2.4e-17),
    "diag4": (5.6e-17, 6.3e-17),
    "repeated3": (4.9e-17, 6.3e-17),
    "zero-pivot5": (2.5e-15, 6.1e-16),
    "pq6": (2.6e-15, 7.6e-16),
}


#: Real classes with lambda = +-10^-12 / sqrt 3 or / 3 beside a map of size
#: 10^6, along the irrational (1, +-sqrt 2), at orders 3 and 4.
NEAR_ZERO_TENSORS = {
    f"sqrt2-order{order}{'+-'[sign < 0]}": (order, Fraction(sign, 10**12)) for order in (3, 4) for sign in (1, -1)
}


@pytest.mark.parametrize("name", EIGEN_GOLDENS + list(NEAR_ZERO_TENSORS))
def test_cli_eigen_report_values_are_within_2e_15_of_50_digits(name, tmp_path, capsys):
    """Every printed normalized lambda is within 2e-15 max(1, |lambda|), and every
    vector component within 2e-15, of its value to 50 digits (mpmath); pq6's
    complex lambda was 2.6e-14 off.  The near-zero tensors printed lambda
    about 1.6e-10 (order 3) or 9e-11 (order 4) along (1, +-sqrt 2) while it
    was valued at the float direction."""
    pytest.importorskip("mpmath")
    if name in NEAR_ZERO_TENSORS:
        A = oracles.sqrt2_family_tensor(*NEAR_ZERO_TENSORS[name])
        path = tmp_path / "near-zero.json"
        path.write_text(TensorDocument.from_hypermatrix(A).to_json())
        assert cli.main(["eigen", str(path)]) == 0
        rows = json.loads(capsys.readouterr().out)["eigenpairs"]
    else:
        A = TensorDocument.from_json((GOLDEN_EIGEN / f"{name}.json").read_text()).to_hypermatrix()
        rows = json.loads((GOLDEN_EIGEN / f"{name}.stdout").read_text())["eigenpairs"]
    pairs = [
        SimpleNamespace(kind=row["kind"], eigenvalue=complex(*row["lambda"]), vector=tuple(complex(*v) for v in row["vector"]))
        for row in rows
    ]
    errors = oracles.eigenpair_errors(A, pairs)
    assert len(errors) == sum(row["kind"] == "normalized" for row in rows)
    lam, vec = max(e for e, _ in errors), max(e for _, e in errors)
    assert lam <= 2e-15 and vec <= 2e-15
    if name in COMPANION_MATRIX_ERRORS:
        assert lam <= COMPANION_MATRIX_ERRORS[name][0] and vec <= COMPANION_MATRIX_ERRORS[name][1]


@pytest.mark.parametrize(
    "args",
    [
        ["echar", str(GOLDEN_REPORTS / "n3.json")],
        ["eigen", str(GOLDEN_EIGEN / "pq6.json")],
        ["verify", "--fuzz", "2", "--seed", "1"],
    ],
    ids=lambda args: args[0],
)
def test_echar_command_leaves_numpy_unimported(args):
    """numpy is a test oracle only: with its import made to fail, the
    ``echar``, ``eigen`` and ``verify`` commands still run, float roots
    included."""
    script = (
        "import sys; sys.modules['numpy'] = None; import echarpoly; from echarpoly import cli; "
        f"status = cli.main({args!r}); "
        "print(sys.modules['numpy'] is None, status)"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=CLI_ENV)
    assert proc.stdout.splitlines()[-1] == "True 0", proc.stderr


PINNED_DOCUMENTS = [GOLDEN_EIGEN / f"{name}.json" for name in EIGEN_GOLDENS] + [
    GOLDEN_REPORTS / "pq4.json",
    GOLDEN_REPORTS / "n3.json",
    GOLDEN_REPORTS / "sparse7.json",
]
PINNED_COMMANDS = [["echar", "--route", route] for route in ("auto", "sylvester", "det", "macaulay")]
PINNED_COMMANDS += [["verify", "--deep"]]


@pytest.mark.parametrize("document", PINNED_DOCUMENTS, ids=lambda path: path.stem)
def test_cli_echar_and_verify_reports_are_pinned(document, monkeypatch, capsys):
    """Every echar route and ``verify --deep``, exit code and stdout byte for byte.

    The documents are the eigen goldens, an order-4 p/q draw, an order-3
    p/q draw of dimension 3 and a two-entry order-7 tensor on which every
    node of the ``macaulay`` route is degenerate for Macaulay's ratio, each
    run in its own directory;
    ``golden/reports.json`` holds the expected reports, keyed by document
    and command.
    """
    expected = json.loads(GOLDEN_REPORTS.with_suffix(".json").read_text())
    monkeypatch.chdir(document.parent)
    for command in PINNED_COMMANDS:
        code = cli.main([command[0], document.name, *command[1:]])
        key = " ".join([document.name, *command])
        assert {"exit": code, "stdout": capsys.readouterr().out} == expected[key], key


def test_cli_verify_order2_skew_matrix_skips_the_deficit_drop_law(tmp_path):
    # an isotropic eigenvector of a matrix is an ordinary eigenpair: the
    # top coefficient stays 1 although P^2+Q^2 = 0
    skew = {"order": 2, "dim": 2, "entries": {"1,2": "1", "2,1": "-1"}}
    proc = run_cli("verify", write_doc(tmp_path, "skew.json", skew))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["failures"] == []
    verdicts = {v["check"]: v for v in report["verdicts"]}
    assert verdicts["deficit-degree-drop"]["detail"].startswith("skipped: order 2")


@pytest.mark.parametrize(
    "entries, c",
    [({"1,1": "1", "2,2": "1"}, "1"), ({"1,1": "-3/2", "2,2": "-3/2"}, "-3/2"), ({}, "0")],
    ids=["identity", "scalar", "zero"],
)
def test_cli_verify_order2_scalar_matrix_passes(tmp_path, entries, c):
    # every direction is an eigenvector of cI, and psi = (lambda - c)^2 is
    # not zero: the order-2 law replaces psi = 0
    scalar = {"order": 2, "dim": 2, "entries": entries}
    proc = run_cli("verify", write_doc(tmp_path, "scalar.json", scalar))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["failures"] == []
    verdicts = {v["check"]: v for v in report["verdicts"]}
    assert verdicts["scalar-matrix-square"]["passed"]
    assert verdicts["scalar-matrix-square"]["detail"].startswith(f"c={c} psi=")
    assert "infinite-implies-zero" not in verdicts


def test_cli_verify_rotation_invariance_line(tmp_path):
    path = write_doc(tmp_path, "diag4.json", DIAG4)
    proc = run_cli("verify", path)
    assert proc.returncode == 0
    assert "orthonormal-invariance-0" in proc.stderr


def test_cli_verify_fuzz_order4_batch():
    proc = run_cli("verify", "--fuzz", "100", "--seed", "42", "--m", "4", "--n", "2")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["failures"] == []
    assert report["verdicts"]["leading-coefficient"] == {"passed": 100, "ran": 100, "ok": True}
    assert report["verdicts"]["route-even-det"]["ok"]


def test_cli_verify_fuzz_order5_leading_law():
    # odd-order top coefficient -(P^2+Q^2)^(m-2) holds across the batch
    proc = run_cli("verify", "--fuzz", "50", "--seed", "7", "--m", "5", "--n", "2")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["verdicts"]["leading-coefficient"] == {"passed": 50, "ran": 50, "ok": True}
    assert report["failures"] == []
