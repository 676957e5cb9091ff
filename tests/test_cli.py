import ast
import json
import random
import sys
from pathlib import Path

import pytest

import blockbounds
from blockbounds.cli import run
from blockbounds.exactmat import matrix_from_record
from blockbounds.fixtures import FIXTURES, agl18_bundle, s3_subsection
from blockbounds.gendec import cyc_reduce
from conftest import (data_from_cells, dihedral_cells, gendec_record, orbit_cells,
                      reference_verify_all, run_bounded)

GOLDEN = Path(__file__).parent / "golden"


def emit(tmp_path, name):
    path = tmp_path / f"{name}.json"
    assert run(["fixtures", "emit", name, "--output", str(path)]) == 0
    return path


def test_fixtures_list(capsys):
    assert run(["fixtures", "list"]) == 0
    out = capsys.readouterr().out
    for name in FIXTURES:
        assert name in out


def test_every_fixture_round_trips(tmp_path, capsys):
    for name in FIXTURES:
        path = emit(tmp_path, name)
        rec = json.loads(path.read_text())
        # bit-exact re-emission
        assert json.dumps(rec, indent=2, sort_keys=True) + "\n" == path.read_text()


def test_bundle_fixtures_revalidate(tmp_path, capsys):
    for name in ("agl18", "a4xa4"):
        path = emit(tmp_path, name)
        assert run(["bounds", "compare", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "best k(B) bound" in out
        assert "WARNING" not in out


def test_bundle_cartan_record_is_parsed_once(tmp_path, capsys, monkeypatch):
    import blockbounds.cli as cli

    parsed = []

    def counting(rec):
        parsed.append(rec)
        return matrix_from_record(rec)

    monkeypatch.setattr(cli, "matrix_from_record", counting)
    assert run(["bounds", "compare", "--input", str(emit(tmp_path, "agl18"))]) == 0
    assert len(parsed) == 1


def test_s3_fixture_verifies(tmp_path, capsys):
    path = emit(tmp_path, "s3-subsection")
    assert run(["gendec", "verify", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_dade_fixture_recomputes(tmp_path):
    from fractions import Fraction

    from blockbounds import dade_cyclic_bound

    path = emit(tmp_path, "dade-cyclic")
    rec = json.loads(path.read_text())
    rep = dade_cyclic_bound(
        rec["d_order"], rec["u_order"], rec["ne_cu"], rec["ce_u"]
    )
    assert rep.value == Fraction(rec["expected_bound"])


def test_golden_bounds_records(tmp_path, capsys):
    # q = 1 at l = 5 and l = 9, and q = 3 with a gendec sub-record
    inputs = {
        "agl18_compare.json": emit(tmp_path, "agl18"),
        "a4xa4_compare.json": emit(tmp_path, "a4xa4"),
        "s3_block_compare.json": s3_block_bundle(tmp_path),
    }
    capsys.readouterr()
    for golden, path in inputs.items():
        assert run(["bounds", "compare", "--input", str(path), "--format", "records"]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / golden).read_text(), golden


def test_golden_verify_records(tmp_path, capsys):
    path = emit(tmp_path, "s3-subsection")
    capsys.readouterr()
    assert run(["gendec", "verify", "--input", str(path), "--format", "records"]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "s3_verify.json").read_text()


def test_records_are_stable_across_runs(tmp_path, capsys):
    path = emit(tmp_path, "a4xa4")
    capsys.readouterr()
    run(["bounds", "compare", "--input", str(path), "--format", "records"])
    first = capsys.readouterr().out
    run(["bounds", "compare", "--input", str(path), "--format", "records"])
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["best_k"]["value"] == "16"
    assert payload["best_k"]["name"] == "inverse Cartan bound"
    assert any("attains the known value 16" in n for n in payload["notes"])


def test_k0_subcommand(capsys):
    assert run(["k0", "--p", "3", "--q", "9", "--n-gen", "8"]) == 0
    assert capsys.readouterr().out.strip() == "6"
    assert run(["k0", "--p", "2", "--q", "8", "--n-gen", "5", "--format", "records"]) == 0
    assert json.loads(capsys.readouterr().out)["k0"] == 8


def test_k0_work_is_bounded_on_huge_p_and_q():
    # a 61-bit Mersenne prime is decided by Miller-Rabin, not trial division
    p = str(2**61 - 1)
    rc, seconds, _ = run_bounded(["k0", "--p", p, "--q", p])
    assert rc == 0 and seconds < 1
    # 2 generates all 2 * 3^29 units modulo 3^30: refused, not listed
    rc, seconds, err = run_bounded(["k0", "--p", "3", "--q", str(3**30), "--n-gen", "2"])
    assert rc == 2 and seconds < 1
    assert err.startswith("input error: ") and "Traceback" not in err


@pytest.mark.parametrize("defect", [20000, 2**89 - 1])
def test_huge_defect_exits_2_promptly(tmp_path, defect):
    # p^defect is neither formed nor printed: 2^20000 has more digits than
    # int() converts to text, and 2^(2^89 - 1) would not fit in memory
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps({**agl18_bundle(), "defect": defect}))
    rc, seconds, err = run_bounded(["bounds", "compare", "--input", str(path)])
    assert rc == 2 and seconds < 1
    assert err.startswith("input error: ") and "is not p^defect = 2^" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("l", [10**30, 10**9])
def test_huge_declared_l_exits_2_promptly(tmp_path, l):
    # the permutation's length is checked before range(1, l + 1) is built
    path = tmp_path / "gendec.json"
    path.write_text(json.dumps({**s3_subsection(), "l": l}))
    rc, seconds, err = run_bounded(["gendec", "verify", "--input", str(path)])
    assert rc == 2 and seconds < 1
    assert err.startswith("input error: ") and "Traceback" not in err


def test_numbers_past_the_digit_limit_exit_2(tmp_path, capsys):
    # int() converts at most sys.get_int_max_str_digits() digits: a longer
    # entry string, JSON number or powers exponent is an input error
    digits = "7" * 5000
    gram = tmp_path / "g.json"
    for entry in (digits, f"1/{digits}"):
        gram.write_text(json.dumps({"rows": 1, "cols": 1, "entries": [[entry]]}))
        assert run(["lattice", "min", "--input", str(gram)]) == 2
        assert "more digits than an exact entry may have" in capsys.readouterr().err
    gram.write_text('{"rows": 1, "cols": 1, "entries": [[' + digits + ']]}')
    assert run(["lattice", "min", "--input", str(gram)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")
    rec = s3_subsection()
    rec["q_matrix"]["powers"][0][0] = {digits: 1}
    path = tmp_path / "gendec.json"
    path.write_text(json.dumps(rec))
    assert run(["gendec", "verify", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "'powers[0][0]' has an exponent of 5000 characters" in err


def test_bad_powers_cells_are_named_in_full(tmp_path, capsys):
    # each message names the cell (and the key) at the text it has always had
    digits = "7" * 5000
    path = tmp_path / "gendec.json"
    for r, cell, message in (
        (0, [1], "'powers[0][0]' must be an object keyed by integer exponents, not [1]"),
        (1, {"x": 1}, "'powers[1][0]' must be an object keyed by integer exponents, "
                      "not {'x': 1}"),
        (2, {"0": 1, "1": 1.5}, "'powers[2][0][1]' must be an integer, not 1.5"),
        (0, {"2": True}, "'powers[0][0][2]' must be an integer, not True"),
        (1, {"0": 1, digits: 1}, "'powers[1][0]' has an exponent of 5000 characters"),
    ):
        rec = s3_subsection()
        rec["q_matrix"]["powers"][r][0] = cell
        path.write_text(json.dumps(rec))
        assert run(["gendec", "verify", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"input error: {path}: {message}\n"


def test_lattice_min_subcommand(tmp_path, capsys):
    gram = tmp_path / "id3.json"
    gram.write_text(
        json.dumps(
            {"rows": 3, "cols": 3, "entries": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
        )
    )
    assert run(["lattice", "min", "--input", str(gram), "--format", "records"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["minimum"] == "1"
    assert payload["witness"] == [1, 0, 0]


def test_approximation_beyond_the_float_range(tmp_path, capsys):
    # the exact value is printed in full; its decimal approximation is null
    # in records and a marker in tables instead of an OverflowError
    big = "1" + "0" * 400
    gram = tmp_path / "big.json"
    for entry, approx in ((big, None), (f"1/{big}", 0.0)):
        gram.write_text(json.dumps({"rows": 1, "cols": 1, "entries": [[entry]]}))
        assert run(["lattice", "min", "--input", str(gram), "--format", "records"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["minimum"] == entry and payload["approx"] == approx
        assert run(["lattice", "min", "--input", str(gram)]) == 0
        out = capsys.readouterr().out
        marker = "(beyond float range)" if approx is None else "(~0)"
        assert out == f"minimum {entry} {marker} at [1] (1 minimizers up to sign)\n"


def test_weights_build_un(capsys):
    assert run(["weights", "build", "--kind", "un", "--n", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["matrix"]["entries"] == [["1", "-1/2"], ["-1/2", "1"]]
    assert payload["minimum"] == "1"


def test_weights_build_form_and_blowup(tmp_path, capsys):
    form = tmp_path / "form.json"
    form.write_text(json.dumps([[1, 1, 1], [2, 2, 1], [1, 2, -1]]))
    assert run(["weights", "build", "--kind", "form", "--input", str(form)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["matrix"]["entries"][0] == ["1", "-1/2"]

    mat = tmp_path / "w.json"
    mat.write_text(
        json.dumps({"rows": 1, "cols": 1, "entries": [["1"]]})
    )
    assert run(
        ["weights", "build", "--kind", "blowup", "--input", str(mat), "--perm", "1",
         "--blocks", "3"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["matrix"]["rows"] == 3

    mat.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "1"]]}))
    for perm in ["a,b", "1,,2", "", "1,3", "1"]:
        assert run(
            ["weights", "build", "--kind", "blowup", "--input", str(mat), "--perm", perm,
             "--blocks", "2"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: --perm") and "Traceback" not in err


def test_weights_build_candidates(tmp_path, capsys):
    mat = tmp_path / "c.json"
    mat.write_text(json.dumps({"rows": 1, "cols": 1, "entries": [["3"]]}))
    assert run(
        ["weights", "build", "--kind", "candidates", "--input", str(mat), "--p", "3"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["candidates"][0]["trace"] == "3"


def s3_block_bundle(tmp_path):
    """A bounds bundle whose ``gendec`` sub-record is the S3 fixture."""
    s3 = json.loads(emit(tmp_path, "s3-subsection").read_text())
    bundle = {
        "label": "s3-block",
        "p": 3,
        "q": 3,
        "n_generators": [2],
        "ibr_action": [[1]],
        "cartan": {
            "normalization": "b",
            "matrix": {"rows": 1, "cols": 1, "entries": [["3"]]},
        },
        "known_kb": 3,
        "gendec": s3,
    }
    path = tmp_path / "s3-block.json"
    path.write_text(json.dumps(bundle))
    return path


def test_bundle_with_gendec_subrecord(tmp_path, capsys):
    assert run(["bounds", "compare", "--input", str(s3_block_bundle(tmp_path))]) == 0
    out = capsys.readouterr().out
    assert "gendec verification passed" in out
    assert "best k(B) bound:  3" in out


def test_bundle_gendec_c_bar_is_built_by_the_loader_only(tmp_path, capsys, monkeypatch):
    # two CartanData and two normalizations, all made by the loader: the
    # bundle's C and the gendec record's equal C, each validated, and their
    # C_bar; the bundle's C_bar serves both reports, so compare_all reads
    # it again and makes none
    from blockbounds.exactmat import CartanData

    path = s3_block_bundle(tmp_path)
    built, normalized = [], []
    init, divided = CartanData.__init__, CartanData._divided

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def counting_divided(self, q):
        c_bar = divided(self, q)
        if all(c_bar is not seen for seen in normalized):
            normalized.append(c_bar)
        return c_bar

    monkeypatch.setattr(CartanData, "__init__", counting_init)
    monkeypatch.setattr(CartanData, "_divided", counting_divided)
    assert run(["bounds", "compare", "--input", str(path)]) == 0
    assert "gendec verification passed" in capsys.readouterr().out
    assert (len(built), len(normalized)) == (2, 2)
    # a gendec record's own C and defect are validated first, then compared
    # with the bundle's
    rec = json.loads(path.read_text())
    rec["gendec"]["spec"]["defect"] = 2
    path.write_text(json.dumps(rec))
    built.clear()
    assert run(["bounds", "compare", "--input", str(path)]) == 2
    assert capsys.readouterr().err == (f"input error: {path}: bad Cartan matrix: largest "
                                       "elementary divisor 3 is not p^defect = 3^2\n")
    assert len(built) == 2
    del rec["gendec"]["spec"]["defect"]
    rec["gendec"]["spec"]["cartan"]["matrix"]["entries"] = [["2"]]
    path.write_text(json.dumps(rec))
    built.clear()
    assert run(["bounds", "compare", "--input", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"input error: {path}: gendec sub-record disagrees with the bundle\n"
    )
    assert len(built) == 2


def test_each_cartan_matrix_is_inverted_and_cleared_once(tmp_path, capsys, monkeypatch):
    # per command: one _inverse_rows per distinct matrix that some row reads;
    # C cleared to integer rows once, plus the working copy of its
    # elimination, and a C_bar made from C's rows never; a fixed number of
    # symmetry checks (C once, a gendec sub-record's own C once, and each
    # weight once: a supplied form's weight is certified once, and C^-1
    # reaches the search from CartanData, so it is never checked); no
    # GramForm validated, since the C^-1 and weight
    # forms hand the search rows already known; and no RationalMatrix C^-1
    # (exactmat.inverse): the inverse-cartan candidate is C's inverse rows
    # over their minimum, certified by the C^-1 search, not checked again
    import blockbounds.exactmat as exactmat
    from blockbounds.exactmat import CartanData, RationalMatrix
    from blockbounds.lattice import GramForm

    inverted, symmetric, cleared, validated, inverses_built = [], [], [], [], []
    inverse_rows, is_symmetric = exactmat._inverse_rows, RationalMatrix.is_symmetric
    cleared_rows, inverse = exactmat._cleared_int_rows, exactmat.inverse
    gram_init = GramForm.__init__

    def content(a):
        return tuple(map(tuple, a))

    def counting_clear(a):
        cleared.append(content(a))
        return cleared_rows(a)

    def counting_inverse(a):
        inverses_built.append(content(a.matrix if isinstance(a, CartanData) else a))
        return inverse(a)

    monkeypatch.setattr(exactmat, "_inverse_rows", lambda a: inverted.append(content(a))
                        or inverse_rows(a))
    monkeypatch.setattr(RationalMatrix, "is_symmetric", lambda a: symmetric.append(a)
                        or is_symmetric(a))
    monkeypatch.setattr(GramForm, "__init__", lambda form, a: validated.append(a)
                        or gram_init(form, a))
    for name, mod in list(sys.modules.items()):
        if name.startswith("blockbounds.") and hasattr(mod, "_cleared_int_rows"):
            monkeypatch.setattr(mod, "_cleared_int_rows", counting_clear)
        if name.startswith("blockbounds.") and getattr(mod, "inverse", None) is inverse:
            monkeypatch.setattr(mod, "inverse", counting_inverse)

    def write(name, rec):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(rec))
        return str(path)

    c = matrix_from_record(agl18_bundle()["cartan"]["matrix"])
    c2 = c.scale(2)
    at_q2 = agl18_bundle()  # C = 2 C_bar at q = 2: largest elementary divisor 16
    at_q2.update(q=2, defect=4, forms=[], cartan={"normalization": "b_bar",
                                                  "matrix": at_q2["cartan"]["matrix"]})
    s3 = json.loads(s3_block_bundle(tmp_path).read_text())
    s3_defect = json.loads(json.dumps(s3))
    s3_defect["defect"] = s3_defect["gendec"]["spec"]["defect"] = 1
    compare = ["bounds", "compare", "--input"]
    cases = [  # (argv, inverted matrices, symmetry checks, {matrix: clears},
        #          matrices built as RationalMatrix inverses)
        (compare + [str(emit(tmp_path, "agl18"))], [c], 5, {content(c): 2}, []),
        (compare + [write("agl18-q2", at_q2)], [c2], 4, {content(c2): 2, content(c): 0},
         []),
        (compare + [write("s3", s3)], [[[3]], [[1]]], 4, {}, []),
        # each declared defect is checked by an inversion of its own C
        (compare + [write("s3-defect", s3_defect)], [[[3]], [[3]]], 4, {}, []),
        (["gendec", "verify", "--input", str(emit(tmp_path, "s3-subsection"))],
         [[[1]]], 1, {}, []),
    ]
    for argv, inverses, checks, clears, built in cases:
        capsys.readouterr()
        for log in (inverted, symmetric, cleared, validated, inverses_built):
            log.clear()
        assert run(argv) == 0, argv
        assert inverted == [content(m) for m in inverses], argv
        assert len(symmetric) == checks, argv
        assert {m: cleared.count(m) for m in clears} == clears, argv
        assert validated == [], argv
        assert inverses_built == [content(m) for m in built], argv


def test_gendec_accepts_stack_format(tmp_path, capsys):
    rec = json.loads(emit(tmp_path, "s3-subsection").read_text())
    rec["q_matrix"] = {
        "stack": [
            {"rows": 3, "cols": 1, "entries": [["-1"], ["-1"], ["1"]]},
            {"rows": 3, "cols": 1, "entries": [["-1"], ["-1"], ["1"]]},
        ]
    }
    path = tmp_path / "stacked.json"
    path.write_text(json.dumps(rec))
    assert run(["gendec", "verify", "--input", str(path)]) == 0


def test_weights_build_writes_output_file(tmp_path, capsys):
    out = tmp_path / "w.json"
    assert run(["weights", "build", "--kind", "un", "--n", "4",
                "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["minimum"] == "1"
    assert "wrote" in capsys.readouterr().out


def test_exit_code_on_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["bounds", "compare", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line" in err


def test_exit_code_on_missing_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for command, record in [("bounds compare", {"p": 2}), ("bounds compare", 5),
                            ("gendec verify", [3])]:
        bad.write_text(json.dumps(record))
        assert run(command.split() + ["--input", str(bad)]) == 2
        assert "missing field" in capsys.readouterr().err

    # scalars of the wrong type, booleans included, are input errors too
    bundle = {
        "p": 2,
        "q": 1,
        "cartan": {
            "normalization": "b",
            "matrix": {"rows": 2, "cols": 2, "entries": [["2", "1"], ["1", "2"]]},
        },
    }
    for field, value in [("p", "2"), ("q", True), ("defect", "1"), ("defect", True),
                         ("known_kb", "3"), ("known_kb", False), ("partition", "x"),
                         ("partition", [[1], ["2"]]), ("ordering", [1, True]),
                         ("n_generators", "ab"), ("n_generators", [True]),
                         ("ibr_action", 5), ("forms", 5)]:
        bad.write_text(json.dumps({**bundle, field: value}))
        assert run(["bounds", "compare", "--input", str(bad)]) == 2, field
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and f"'{field}' must be" in err

    # malformed decomposition files: (field named, place in the record, value)
    s3 = json.loads(emit(tmp_path, "s3-subsection").read_text())
    for field, place, value in [
        ("powers[0][0][0]", ("q_matrix", "powers", 0, 0), {"0": 1.5}),
        ("powers[0][0][0]", ("q_matrix", "powers", 0, 0), {"0": "1"}),
        ("powers[0][0][0]", ("q_matrix", "powers", 0, 0), {"0": True}),
        ("powers[0][0]", ("q_matrix", "powers", 0, 0), 1),
        ("powers[0][0]", ("q_matrix", "powers", 0, 0), {"x": 1}),
        ("powers", ("q_matrix", "powers"), {"0": 1}),
        ("stack", ("q_matrix",), {"stack": 1}),
        ("heights", ("heights",), 0),
        ("heights", ("heights",), ["a", "b", "c"]),
        ("spec", ("spec",), [3]),
        ("ibr_action", ("spec", "ibr_action"), 7),
    ]:
        rec = json.loads(json.dumps(s3))
        target = rec
        for key in place[:-1]:
            target = target[key]
        target[place[-1]] = value
        bad.write_text(json.dumps(rec))
        assert run(["gendec", "verify", "--input", str(bad)]) == 2, (field, value)
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and f"'{field}' must be" in err, err
        assert "Traceback" not in err


def test_exit_code_on_bad_cartan(tmp_path, capsys):
    rec = {
        "p": 2,
        "q": 1,
        "cartan": {
            "normalization": "b",
            "matrix": {"rows": 2, "cols": 2, "entries": [["1", "2"], ["2", "1"]]},
        },
    }
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(rec))
    assert run(["bounds", "compare", "--input", str(bad)]) == 2
    assert "Cartan" in capsys.readouterr().err

    # a "b" Cartan matrix not divisible by q, in a gendec file and in a
    # bundle's gendec sub-record
    s3 = json.loads(emit(tmp_path, "s3-subsection").read_text())
    s3["spec"]["cartan"] = {
        "normalization": "b",
        "matrix": {"rows": 1, "cols": 1, "entries": [["2"]]},
    }
    bundle = {
        "p": 3,
        "q": 3,
        "n_generators": [2],
        "ibr_action": [[1]],
        "cartan": {
            "normalization": "b",
            "matrix": {"rows": 1, "cols": 1, "entries": [["3"]]},
        },
        "gendec": s3,
    }
    for command, record in [("gendec verify", s3), ("bounds compare", bundle)]:
        bad.write_text(json.dumps(record))
        capsys.readouterr()
        assert run(command.split() + ["--input", str(bad)]) == 2
        assert "must be divisible by q = 3" in capsys.readouterr().err


def test_exit_code_on_failing_verification(tmp_path, capsys):
    path = emit(tmp_path, "s3-subsection")
    rec = json.loads(path.read_text())
    rec["q_matrix"]["powers"][0][0] = {"0": 2}  # perturb one entry
    path.write_text(json.dumps(rec))
    assert run(["gendec", "verify", "--input", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL orthogonality" in out
    assert "entry" in out


def test_gendec_verify_of_an_order_four_action(tmp_path, capsys):
    # C_13's characters at zeta, zeta^5, zeta^12, zeta^8 with N = <5>: the
    # natural action [2, 3, 4, 1] is valid, its inverse fails the Gram and
    # the Galois check
    cells, cbar, shift = orbit_cells(13, 5)
    natural = [i + 1 for i in shift]
    inverse = [shift.index(i) + 1 for i in range(len(shift))]
    for label, perm, status in (("natural", natural, 0), ("inverse", inverse, 1)):
        path = tmp_path / f"c13-{label}.json"
        path.write_text(json.dumps(gendec_record(13, cells, cbar, [0] * 13, perm, [5])))
        assert run(["gendec", "verify", "--input", str(path), "--format", "records"]) == status
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err, label
        report = json.loads(out)
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        assert report["ok"] is (status == 0), (label, failing)
        if status:
            assert "galois-orthogonality" in failing, label
            assert any(name.startswith("gram(") for name in failing), label


def test_one_subsection_table_and_no_perm_of_per_command(tmp_path, capsys, monkeypatch):
    # `gendec verify` on an acted-on file and `bounds compare` on a bundle
    # with a refined k0(B) row each build one bounds._Expected table, and
    # read its permutations from there, not from SubsectionSpec.perm_of
    import blockbounds.bounds as bounds
    import blockbounds.gendec as gendec

    calls = {"perm_of": 0, "table": 0}
    perm_of, table = bounds.SubsectionSpec.perm_of, bounds._Expected

    def counted_perm_of(*args):
        calls["perm_of"] += 1
        return perm_of(*args)

    def counted_table(*args):
        calls["table"] += 1
        return table(*args)

    monkeypatch.setattr(bounds.SubsectionSpec, "perm_of", counted_perm_of)
    monkeypatch.setattr(bounds, "_Expected", counted_table)
    monkeypatch.setattr(gendec, "_Expected", counted_table)
    cells, cbar, shift = orbit_cells(13, 5)
    gendec_files = []
    for label, perm in (("natural", [i + 1 for i in shift]),
                        ("inverse", [shift.index(i) + 1 for i in range(len(shift))])):
        path = tmp_path / f"c13-{label}.json"
        path.write_text(json.dumps(gendec_record(13, cells, cbar, [0] * 13, perm, [5])))
        gendec_files.append((["gendec", "verify"], path))
    bundle = tmp_path / "swap.json"  # C_bar = I_2, the unit 2 swapping its columns
    bundle.write_text(json.dumps({
        "p": 3, "q": 3, "n_generators": [2], "ibr_action": [[2, 1]],
        "cartan": {"normalization": "b_bar",
                   "matrix": {"rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "1"]]}},
    }))
    for command, path in [*gendec_files, (["bounds", "compare"], bundle)]:
        calls.update(perm_of=0, table=0)
        assert run(command + ["--input", str(path), "--format", "records"]) in (0, 1)
        out = json.loads(capsys.readouterr().out)
        assert calls == {"perm_of": 0, "table": 1}, (command, path.name)
    refined = {r["name"]: r for r in out["rows"]}["refined k0(B) bound"]
    assert refined["value"] == "4"  # tr(W C P_N) + (q-1)/n tr(W C) = 2 + 2


@pytest.mark.parametrize("value", [0, False, "", {}, "x"], ids=repr)
@pytest.mark.parametrize("field", ["n_generators", "forms", "ordering", "partition",
                                   "ibr_action", "heights", "spec.n_generators",
                                   "spec.ibr_action"])
def test_list_fields_refuse_every_other_type(tmp_path, capsys, field, value):
    # only an absent field or null reads as empty; bundle fields, then the
    # fields of a gendec record
    if field == "heights" or field.startswith("spec."):
        command, rec = "gendec verify", s3_subsection()
    else:
        command, rec = "bounds compare", agl18_bundle()
    *parent, key = field.split(".")
    (rec[parent[0]] if parent else rec)[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(rec))
    assert run(command.split() + ["--input", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: ") and f"'{key}' must be" in err


FIELD_KINDS = [  # (command, base record, place, value, field, kind, value shown)
    ("bounds compare", agl18_bundle, ("p",), "2", "p", "an integer", "2"),
    ("bounds compare", agl18_bundle, ("ordering",), [1, True], "ordering",
     "a list of integers", [1, True]),
    ("bounds compare", agl18_bundle, ("cartan",), 5, "cartan", "an object", 5),
    ("bounds compare", agl18_bundle, ("forms",), 5, "forms", "a list", 5),
    ("bounds compare", agl18_bundle, ("partition",), "x", "partition", "a list", "x"),
    ("bounds compare", agl18_bundle, ("partition",), [[1], ["2"]], "partition",
     "a list of integers", ["2"]),
    ("bounds compare", agl18_bundle, ("forms",), [5], "form",
     "a list of [i, j, q_ij] integer triples", 5),
    ("weights build --kind form", agl18_bundle, (), [[1, 1]], "form",
     "a list of [i, j, q_ij] integer triples", [[1, 1]]),
    ("gendec verify", s3_subsection, ("spec",), [3], "spec", "an object", [3]),
    ("gendec verify", s3_subsection, ("heights",), ["a"], "heights", "a list of integers",
     ["a"]),
    ("gendec verify", s3_subsection, ("q_matrix", "powers", 0, 0), [1], "powers[0][0]",
     "an object keyed by integer exponents", [1]),
    ("gendec verify", s3_subsection, ("q_matrix", "powers", 0, 0), {"0": 1.5},
     "powers[0][0][0]", "an integer", 1.5),
]


@pytest.mark.parametrize("command, base, place, value, field, kind, shown", FIELD_KINDS,
                         ids=[f"{case[4]}-{case[5]}" for case in FIELD_KINDS])
def test_every_field_kind_is_refused_in_one_wording(tmp_path, capsys, command, base, place,
                                                    value, field, kind, shown):
    rec = base()
    if place:
        target = rec
        for key in place[:-1]:
            target = target[key]
        target[place[-1]] = value
    else:
        rec = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(rec))
    assert run(command.split() + ["--input", str(path)]) == 2
    assert capsys.readouterr() == ("", f"input error: {path}: '{field}' must be {kind}, "
                                       f"not {shown!r}\n")


def test_field_kinds_are_all_reached():
    from blockbounds import cli

    assert {case[5] for case in FIELD_KINDS} == set(cli._KINDS)


def test_weights_build_names_the_options_each_kind_needs(capsys):
    for kind, needs in [("un", "--n"), ("form", "--input"),
                        ("blowup", "--input, --perm and --blocks"),
                        ("candidates", "--input and --p")]:
        assert run(["weights", "build", "--kind", kind]) == 2
        assert capsys.readouterr().err == f"input error: --kind {kind} needs {needs}\n"


def test_one_indexed_permutations_keep_their_messages(tmp_path, capsys):
    w = tmp_path / "w.json"
    w.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "1"]]}))
    blowup = ["weights", "build", "--kind", "blowup", "--input", str(w), "--blocks", "2"]
    for perm, message in [("1,3", "--perm 1,3 is not 1-indexed of degree 2"),
                          ("1,x", "--perm '1,x' must be comma-separated integers")]:
        assert run(blowup + ["--perm", perm]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps({**agl18_bundle(), "n_generators": [1],
                                "ibr_action": [[1, 2, 3, 4, 4]]}))
    assert run(["bounds", "compare", "--input", str(path)]) == 2
    assert capsys.readouterr().err == (f"input error: {path}: permutation [1, 2, 3, 4, 4] "
                                       "is not 1-indexed of degree 5\n")


def test_exit_code_on_unwritable_output(tmp_path, capsys):
    for command in (["fixtures", "emit", "agl18"],
                    ["weights", "build", "--kind", "un", "--n", "3"]):
        for target in (tmp_path / "missing" / "x.json", tmp_path):
            capsys.readouterr()
            assert run(command + ["--output", str(target)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"input error: cannot write {target}: "), err


def test_exit_code_on_non_integer_form(tmp_path, capsys):
    # JSON integers only: a float, a boolean or a string was once truncated
    form = tmp_path / "form.json"
    bundle = json.loads(emit(tmp_path, "agl18").read_text())
    for triples in ([[1, 1, 2.5]], [[1, 1, True]], [[1, 1, "2"]], [["1", 1, 2]],
                    [[1, 1]], [[1, 1, 2, 3]], [5], 5):
        form.write_text(json.dumps(triples))
        capsys.readouterr()
        assert run(["weights", "build", "--kind", "form", "--input", str(form)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "'form' must be" in err, err
        form.write_text(json.dumps({**bundle, "forms": [triples]}))
        assert run(["bounds", "compare", "--input", str(form)]) == 2
        assert "'form' must be" in capsys.readouterr().err


def test_form_above_the_cap_is_refused_before_it_is_built(tmp_path, capsys):
    # index 25 under the default cap of 24: an input error (the form itself
    # is not positive definite, which used to be reported instead)
    form = tmp_path / "form.json"
    form.write_text(json.dumps([[25, 25, 1]]))
    assert run(["weights", "build", "--kind", "form", "--input", str(form)]) == 2
    assert "size 25 exceeds the enumeration cap 24" in capsys.readouterr().err
    assert run(["weights", "build", "--kind", "form", "--input", str(form),
                "--max-dim", "25"]) == 1
    assert "not positive definite" in capsys.readouterr().err
    # the same cap, before building, for path weights and blow-ups
    w = tmp_path / "w.json"
    w.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "1"]]}))
    for command, size in [
        (["--kind", "un", "--n", "25"], 25),
        (["--kind", "blowup", "--input", str(w), "--perm", "2,1", "--blocks", "13"], 26),
    ]:
        assert run(["weights", "build"] + command) == 2
        assert f"weight matrix size {size} exceeds" in capsys.readouterr().err


def test_exit_code_on_unknown_arguments():
    assert run(["no-such-command"]) == 2


def test_exit_code_on_bad_max_dim(tmp_path, capsys):
    # a cap below 1 is refused when the arguments are parsed; a dimension
    # above a valid cap is an input error that names the option
    bundle = emit(tmp_path, "agl18")
    gram = tmp_path / "id3.json"
    gram.write_text(json.dumps(
        {"rows": 3, "cols": 3, "entries": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
    ))
    commands = [
        ["bounds", "compare", "--input", str(bundle)],
        ["lattice", "min", "--input", str(gram)],
        ["weights", "build", "--kind", "un", "--n", "3"],
    ]
    for command in commands:
        for cap in ("0", "-3", "two"):
            capsys.readouterr()
            assert run(command + ["--max-dim", cap]) == 2
            assert "argument --max-dim" in capsys.readouterr().err
    capsys.readouterr()
    assert run(["lattice", "min", "--input", str(gram), "--max-dim", "2"]) == 2
    err = capsys.readouterr().err
    assert "exceeds the enumeration cap 2" in err and "--max-dim" in err


def test_exit_code_on_internal_invariant(tmp_path, capsys, monkeypatch):
    # a failed internal cross-check is a library bug: exit 3, no traceback,
    # also under python -O, which would strip an assert
    import subprocess
    import sys

    import blockbounds.cli as cli
    from blockbounds import InternalInvariantError

    gram = tmp_path / "g.json"
    gram.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [["2", "1"], ["1", "3"]]}))

    def broken(*args, **kwargs):
        raise InternalInvariantError("witness does not attain the minimum")

    monkeypatch.setattr(cli, "form_minimum", broken)
    assert run(["lattice", "min", "--input", str(gram)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and "Traceback" not in err
    assert InternalInvariantError not in cli.MATH_ERRORS
    assert AssertionError not in cli.MATH_ERRORS

    # a fresh process (empty cache) whose sign normalization is broken, so
    # the witness re-check in the search fails
    script = (
        "import sys; from blockbounds import cli, lattice; "
        "lattice._normalize_sign = lambda v: tuple(2 * x for x in v); "
        f"sys.exit(cli.run(['lattice', 'min', '--input', {str(gram)!r}]))"
    )
    src = str(Path(blockbounds.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("internal error: witness") and "Traceback" not in proc.stderr


def test_inverse_cartan_score_is_checked_against_l_over_m(tmp_path, capsys, monkeypatch):
    # a trace pairing that drops the weight's denominator breaks tr(C^-1 C) / m
    # = l/m: exit 3 with no traceback, also under python -O
    import subprocess
    import sys

    import blockbounds.weights as weights

    path = emit(tmp_path, "agl18")
    dropped = (
        "from fractions import Fraction\n"
        "from blockbounds.exactmat import _cleared_int_rows, _dot\n"
        "def dropped(a, b):\n"
        "    ints_a, _ = _cleared_int_rows(a)\n"
        "    ints_b, s_b = _cleared_int_rows(b.matrix)\n"
        "    return Fraction(sum(map(_dot, ints_a, zip(*ints_b))), s_b)\n"
    )
    namespace = {}
    exec(dropped, namespace)
    monkeypatch.setattr(weights, "trace_pairing", namespace["dropped"])
    assert run(["bounds", "compare", "--input", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: inverse-Cartan weight pairs with C to ")
    assert "not l/m = " in err and "Traceback" not in err

    script = dropped + (
        "import sys; from blockbounds import cli, weights\n"
        "weights.trace_pairing = dropped\n"
        f"sys.exit(cli.run(['bounds', 'compare', '--input', {str(path)!r}]))\n"
    )
    src = str(Path(blockbounds.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 3
    assert proc.stderr == err and "Traceback" not in proc.stderr


def test_exit_code_on_bad_entry_string(tmp_path, capsys):
    # entries are integers or a/b; decimals, exponents and booleans are not
    gram = tmp_path / "bad.json"
    for entry in ["one half", "0.1", "1.5e3", "1/0", True]:
        gram.write_text(
            json.dumps({"rows": 1, "cols": 1, "entries": [[entry]]})
        )
        assert run(["lattice", "min", "--input", str(gram)]) == 2
        assert "rational" in capsys.readouterr().err


def test_exit_code_on_ragged_matrix(tmp_path, capsys):
    gram = tmp_path / "ragged.json"
    gram.write_text(
        json.dumps({"rows": 2, "cols": 2, "entries": [["1", "0"], ["0"]]})
    )
    assert run(["lattice", "min", "--input", str(gram)]) == 2
    # records that are not shaped like a matrix at all
    for record, message in [
        ([["1", "0"], ["0", "1"]], "must be an object"),
        ({"rows": 1, "cols": 1, "entries": 5}, "list of rows"),
        ({"rows": 1, "cols": 1, "entries": ["1"]}, "list of rows"),
    ]:
        gram.write_text(json.dumps(record))
        capsys.readouterr()
        assert run(["lattice", "min", "--input", str(gram)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and message in err


def test_verify_report_size_does_not_depend_on_phi(tmp_path, capsys):
    path = tmp_path / "dihedral.json"

    def verify(q, cells, cbar, heights):
        path.write_text(json.dumps(gendec_record(q, cells, cbar, heights)))
        capsys.readouterr()
        rc = run(["gendec", "verify", "--input", str(path), "--format", "records"])
        return rc, json.loads(capsys.readouterr().out)["checks"]

    rows = {}
    for q in (27, 81):
        rc, checks = verify(q, *dihedral_cells(q))
        assert rc == 0
        rows[q] = [c["name"] for c in checks]
    assert rows[81] == rows[27]
    assert "gram" in rows[81]

    # double the value zeta^40 + zeta^41 of one character: only the four
    # products of A_40 and A_41 change, and every Galois pair fails
    cells, cbar, heights = dihedral_cells(81)
    r = cells.index([{40: 1, 41: 1}])
    cells[r] = [{40: 2, 41: 2}]
    rc, checks = verify(81, cells, cbar, heights)
    assert rc == 1
    failing = {c["name"]: c["detail"] for c in checks if not c["passed"]}
    assert sorted(failing) == sorted(
        ["orthogonality", "galois-orthogonality"]
        + [f"gram({i},{j})" for i in (40, 41) for j in (40, 41)]
    )
    assert failing["galois-orthogonality"].startswith(
        "2916 of 2916 Galois pairs fail; first (gamma=1, delta=1) entry (0, 0): "
    )


def test_library_has_no_assert_statements():
    # python -O strips assert, so internal cross-checks must raise explicitly
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(blockbounds.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def test_library_raises_no_plain_value_or_runtime_error():
    # every refusal carries a named class (DomainError, ShapeError, ...), so a
    # caller can tell bad input, inconsistent input and a library bug apart
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(blockbounds.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise) and node.exc is not None
        and getattr(getattr(node.exc, "func", node.exc), "id", None)
        in ("ValueError", "RuntimeError")
    ]
    assert offenders == []


def test_library_has_no_unused_imports():
    # every name a library, test or demo module takes with ``from ... import``
    # is referenced in it; the package __init__ imports only to re-export
    root = Path(__file__).parent.parent
    offenders = []
    for pattern in ("src/blockbounds/*.py", "tests/*.py", "demos/*.py"):
        for path in sorted(root.glob(pattern)):
            if path == root / "src" / "blockbounds" / "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            offenders.extend(
                f"{path.parent.name}/{path.name}:{node.lineno} {alias.asname or alias.name}"
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names
                if alias.name != "annotations" and (alias.asname or alias.name) not in used
            )
    assert offenders == []


def test_library_is_float_free():
    # every library result is exact; only the CLI prints decimal approximations
    offenders = []
    for path in sorted(Path(blockbounds.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            # a Name's id, an Attribute's attr, an imported alias's name
            name = next(
                (getattr(node, a) for a in ("id", "attr", "name") if hasattr(node, a)),
                None,
            )
            literal = isinstance(node, ast.Constant) and isinstance(node.value, float)
            if literal or name in ("float", "isfinite"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


@pytest.mark.parametrize("q", [9, 27, 32, 81])
def test_gendec_verify_records_match_the_reference_details(tmp_path, capsys, q):
    # every row of the records output, detail string included, against the
    # reference verifier: valid dihedral data and a copy with one nonzero
    # entry doubled, plain and Kronecker-expanded
    rng = random.Random(q)
    for expand in (False, True):
        cells, cbar, heights = dihedral_cells(q, expand)
        r, c = rng.choice([(r, c) for r, row in enumerate(cells) for c, x in enumerate(row)
                           if not cyc_reduce(x, q).is_zero()])
        doubled = [[dict(x) for x in row] for row in cells]
        doubled[r][c] = {e: 2 * a for e, a in cells[r][c].items()}
        for label, variant in (("valid", cells), ("doubled", doubled)):
            path = tmp_path / f"q{q}-{expand}-{label}.json"
            path.write_text(json.dumps(gendec_record(q, variant, cbar, heights)))
            rc = run(["gendec", "verify", "--input", str(path), "--format", "records"])
            rows = json.loads(capsys.readouterr().out)["checks"]
            ref = reference_verify_all(*data_from_cells(q, variant, cbar), heights).checks
            assert [(x["name"], x["passed"], x["detail"]) for x in rows] == \
                [(x.name, x.passed, x.detail) for x in ref], (expand, label)
            assert rc == (1 if label == "doubled" else 0), (expand, label)
