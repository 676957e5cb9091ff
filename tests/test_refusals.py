"""Every refusal in the library, pinned by its class and message, and by its
exit status where the command line reaches it; every internal cross-check,
triggered by one injected fault.

A fault is a few lines of Python that replace one helper, with ``set``
bound to ``monkeypatch.setattr`` in process and to plain ``setattr`` in a
child process.  Each faulted command must exit 3 with the check's message
and no traceback, in process and again in a fresh ``python -O`` process,
which strips asserts and starts with an empty search cache.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import blockbounds
from blockbounds import (
    CartanData,
    CyclotomicInteger,
    DomainError,
    GenDecData,
    InconsistentDataError,
    InternalInvariantError,
    PermutationAction,
    RationalMatrix,
    ShapeError,
    SubsectionSpec,
    classical_bounds,
    compare_all,
    cyc_reduce,
    dade_cyclic_bound,
    fourier_split,
    from_quadratic_form,
    height_zero_valuation_check,
    hks_bound,
    inverse,
    kw_bound,
    lll_reduce,
    subsection_k0_bound,
    subsection_k_bound,
    symmetrize,
    verify_all,
    wada_weight,
    weight_candidates,
)
from blockbounds import lattice
from blockbounds.cli import run
from blockbounds.fixtures import agl18_bundle, s3_subsection
from blockbounds.ntheory import (
    multiplicative_order,
    unit_group_closure,
    unit_of_order,
    valuation,
)
from conftest import run_bounded

C2 = CartanData(RationalMatrix([[2, 1], [1, 2]]), 3)
S3_SPEC = SubsectionSpec(3, 3, (2,), PermutationAction(1, [(0,)]))
# the unit 2 swaps the columns, which C_bar = [[2, 1], [1, 3]] does not allow
SWAP_SPEC = SubsectionSpec(3, 3, (2,), PermutationAction(2, [(1, 0)]))
UNFIXED = CartanData(RationalMatrix([[2, 1], [1, 3]]), 3)
NOT_FIXED = "the fusion action does not fix the Cartan matrix"


def _s3_data():
    one = CyclotomicInteger.from_int(3, 1)
    return fourier_split([[one], [one], [-1 * one]], S3_SPEC)


LIBRARY_REFUSALS = [  # (id, call, class, message)
    ("spec-generator-count",
     lambda: SubsectionSpec(3, 9, (2,), PermutationAction(1, [(0,), (0,)])), DomainError,
     "need exactly one action generator per unit generator (1 units, 2 permutations)"),
    ("action-degree-compare",
     lambda: compare_all(CartanData(C2.matrix.scale(3), 3), S3_SPEC), DomainError,
     "action degree 1 does not match l = 2"),
    ("action-degree-perm", lambda: S3_SPEC.perm_of(2, 2), DomainError,
     "action degree 1 does not match l = 2"),
    ("action-degree-weight", lambda: subsection_k_bound(C2, S3_SPEC, wada_weight(2)),
     DomainError, "action degree 1 does not match l = 2"),
    ("action-degree-candidates",
     lambda: weight_candidates(C2, PermutationAction(3, [(1, 2, 0)])), DomainError,
     "action degree 3 does not match l = 2"),
    ("unfixed-cartan-subsection-k", lambda: subsection_k_bound(UNFIXED, SWAP_SPEC, wada_weight(2)),
     InconsistentDataError, NOT_FIXED),
    ("unfixed-cartan-subsection-k0",
     lambda: subsection_k0_bound(UNFIXED, SWAP_SPEC, wada_weight(2)),
     InconsistentDataError, NOT_FIXED),
    ("unfixed-cartan-candidates",
     lambda: weight_candidates(UNFIXED, SWAP_SPEC.ibr_action), InconsistentDataError, NOT_FIXED),
    ("unfixed-cartan-compare",
     lambda: compare_all(CartanData(UNFIXED.matrix.scale(3), 3), SWAP_SPEC),
     InconsistentDataError, NOT_FIXED),
    ("prime-compare",
     lambda: compare_all(CartanData(RationalMatrix([[9]]), 2), SubsectionSpec(3, 3, (2,))),
     DomainError, "Cartan data has p = 2 but the subsection has p = 3"),
    ("prime-subsection-k",
     lambda: subsection_k_bound(CartanData(RationalMatrix([[3]]), 2), S3_SPEC, wada_weight(1)),
     DomainError, "Cartan data has p = 2 but the subsection has p = 3"),
    ("prime-subsection-k0",
     lambda: subsection_k0_bound(CartanData(RationalMatrix([[3]]), 2), S3_SPEC, wada_weight(1)),
     DomainError, "Cartan data has p = 2 but the subsection has p = 3"),
    ("prime-verify", lambda: verify_all(_s3_data(), CartanData(RationalMatrix([[1]]), 2)),
     DomainError, "Cartan data has p = 2 but the subsection has p = 3"),
    ("unit-outside-n-action",
     lambda: SubsectionSpec(7, 7, (2,), PermutationAction(3, [(1, 2, 0)])).perm_of(3, 3),
     DomainError, "unit 3 is not in the fusion quotient N modulo 7"),
    ("unit-outside-n", lambda: SubsectionSpec(7, 7, (2,)).perm_of(10, 3), DomainError,
     "unit 10 is not in the fusion quotient N modulo 7"),
    ("form-index", lambda: kw_bound(C2, [(1, 3, 1)]), DomainError,
     "form index (1,3) exceeds matrix size 2"),
    ("hks-prime", lambda: hks_bound(9, 9, 0, 1, 2), DomainError, "9 is not a prime"),
    ("hks-power", lambda: hks_bound(3, 10, 0, 1, 2), DomainError,
     "q = 10 is not a power of p = 3"),
    ("hks-s-r", lambda: hks_bound(3, 9, -1, 1, 2), DomainError,
     "need s >= 0 and r >= 1 coprime to p"),
    ("dade-orders", lambda: dade_cyclic_bound(9, 3, 0, 1), DomainError,
     "group orders must be positive"),
    # a = 100 exceeds |<u>| - 1 = 2, outside the hypotheses, not a library bug
    ("dade-product", lambda: dade_cyclic_bound(9, 3, 100, 1), DomainError,
     "cyclic-defect product bound exceeded |D|"),
    ("trace-shape", lambda: RationalMatrix([[1, 2]]).trace(), ShapeError,
     "trace needs a square matrix"),
    ("inverse-shape", lambda: inverse(RationalMatrix([[1, 2]])), ShapeError,
     "inverse needs a square matrix"),
    ("cyclotomic-length", lambda: CyclotomicInteger(3, [1]), DomainError,
     "conductor 3 needs 2 coefficients"),
    ("cyclotomic-conductor", lambda: CyclotomicInteger(6, [0, 0]), DomainError,
     "6 is not a prime power"),
    ("cyclotomic-conductors",
     lambda: CyclotomicInteger(3, [1, 0]) + CyclotomicInteger(4, [1, 0]), DomainError,
     "conductors differ"),
    ("cyc-reduce-length", lambda: cyc_reduce([0] * 4, 3), DomainError,
     "need at most 3 raw coefficients"),
    ("split-empty", lambda: fourier_split([[]], S3_SPEC), DomainError,
     "matrix must be at least 1x1"),
    ("split-conductors",
     lambda: fourier_split([[CyclotomicInteger.from_int(3, 1), CyclotomicInteger.from_int(4, 1)]],
                           S3_SPEC),
     DomainError, "entries must share one conductor"),
    ("split-spec", lambda: fourier_split([[CyclotomicInteger.from_int(9, 1)]], S3_SPEC),
     DomainError, "spec has q = 3 but entries have conductor 9"),
    ("verify-cartan-size", lambda: verify_all(_s3_data(), C2), DomainError,
     "Cartan size does not match the column count"),
    ("verify-heights", lambda: verify_all(_s3_data(), CartanData(RationalMatrix([[1]]), 3),
                                          [0, 0]),
     DomainError, "need one height per row"),
    ("valuation-row", lambda: height_zero_valuation_check([1], C2), DomainError,
     "row length does not match the matrix"),
    ("partition-empty-block",
     lambda: classical_bounds(C2, partition=[[0, 1], []]),
     DomainError, "partition blocks must be nonempty"),
    ("valuation-zero", lambda: valuation(0, 2), DomainError, "the valuation of 0 is infinite"),
    ("closure-unit", lambda: unit_group_closure(9, (3,)), DomainError,
     "generator 3 is not a unit modulo 9"),
    ("order-unit", lambda: multiplicative_order(3, 9), DomainError, "3 is not a unit modulo 9"),
    ("order-search-size", lambda: unit_of_order(3 ** 30, 2), DomainError,
     "more than 65536 units modulo 205891132094649 to search"),
    # phi(2^18) = 2^17 coefficient matrices: refused by both producers of
    # decomposition data, before a verifier lists them
    ("gendec-units-constructor",
     lambda: GenDecData([[[0]]] * 2**17, SubsectionSpec(2, 2**18)), DomainError,
     "more than 65536 units modulo 262144 for decomposition data"),
    ("gendec-units-split",
     lambda: fourier_split([[CyclotomicInteger.from_int(2**18, 1)]], SubsectionSpec(2, 2**18)),
     DomainError, "more than 65536 units modulo 262144 for decomposition data"),
    ("order-missing", lambda: unit_of_order(25, 3), DomainError,
     "(Z/25)^x has no element of order 3"),
    ("symmetrize-degree", lambda: symmetrize(wada_weight(2), PermutationAction(1, [(0,)])),
     DomainError, "action degree 1 does not match l = 2"),
    ("form-coefficients", lambda: from_quadratic_form({(1, 1): Fraction(3, 2)}), DomainError,
     "form coefficients must be integers"),
    ("form-coefficient-bool", lambda: from_quadratic_form({(1, 1): True}), DomainError,
     "form coefficients must be integers"),
    ("form-repeated", lambda: from_quadratic_form([(1, 1, 1), (1, 1, 1)]), DomainError,
     "form coefficient (1,1) is given twice"),
    ("form-index-type", lambda: from_quadratic_form([(1, 1.5, 1)]), DomainError,
     "form indices must be integers, not (1,1.5)"),
    ("form-index-bool", lambda: kw_bound(C2, [(True, 1, 1)]), DomainError,
     "form indices must be integers, not (True,1)"),
    ("form-index-size", lambda: from_quadratic_form([(1, 1, 1), (2, 3, 1)], size=2),
     DomainError, "form index (2,3) exceeds matrix size 2"),
    ("dade-defect-zero", lambda: dade_cyclic_bound(0, 1, 1, 1), DomainError,
     "group orders must be positive"),
    ("dade-defect-negative", lambda: dade_cyclic_bound(-9, 3, 1, 1), DomainError,
     "group orders must be positive"),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in LIBRARY_REFUSALS],
                         ids=[case[0] for case in LIBRARY_REFUSALS])
def test_library_refusal(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def _s3_bundle(**changes) -> dict:
    """b's own 1x1 Cartan matrix (3) at q = 3, with the S3 fixture as its
    gendec sub-record."""
    bundle = {"label": "s3-block", "p": 3, "q": 3, "n_generators": [2], "ibr_action": [[1]],
              "cartan": {"normalization": "b",
                         "matrix": {"rows": 1, "cols": 1, "entries": [["3"]]}},
              "known_kb": 3, "gendec": s3_subsection()}
    bundle.update(changes)
    return bundle


def _power_of_two_record(q: int) -> dict:
    """A 1x1 ``powers`` file at q = 2^k with trivial N."""
    return {"q": q, "p": 2, "k": 1, "l": 1,
            "spec": {"cartan": {"normalization": "b_bar",
                                "matrix": {"rows": 1, "cols": 1, "entries": [["1"]]}}},
            "q_matrix": {"powers": [[{"0": 1}]]}}


def _swap_bundle(sub_action) -> dict:
    """C_bar = I_2 at q = 3, the unit 2 swapping the columns, around a
    gendec sub-record whose unit 2 acts by ``sub_action``: Q has the rows
    (z, z^2), (z^2, z) and (1, 1), whose columns zeta -> zeta^2 swaps."""
    spec = {"n_generators": [2], "cartan": {
        "normalization": "b_bar",
        "matrix": {"rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "1"]]}}}
    sub = {"q": 3, "p": 3, "k": 3, "l": 2, "spec": {**spec, "ibr_action": [sub_action]},
           "q_matrix": {"powers": [[{"1": 1}, {"2": 1}], [{"2": 1}, {"1": 1}],
                                   [{"0": 1}, {"0": 1}]]}}
    return {"p": 3, "q": 3, **spec, "ibr_action": [[2, 1]], "gendec": sub}


def _s3_bundle_with(changes: dict, sub_changes: dict) -> dict:
    bundle = _s3_bundle(**changes)
    bundle["gendec"]["spec"].update(sub_changes)
    return bundle


def _stacked_s3() -> dict:
    rec = s3_subsection()
    rec["q_matrix"] = {"stack": [{"rows": 2, "cols": 1, "entries": [["-1"], ["1"]]}] * 2}
    return rec


def _failing_s3() -> dict:
    rec = s3_subsection()
    rec["q_matrix"]["powers"][0][0] = {"0": 2}
    return rec


CLI_REFUSALS = [  # (id, command, input record, exit status, stderr; {path} is the input)
    ("bad-subsection-data", "bounds compare", _s3_bundle(ibr_action=[[1], [1]]), 2,
     "input error: {path}: bad subsection data: need exactly one action generator per "
     "unit generator (1 units, 2 permutations)\n"),
    ("form-index", "bounds compare", {**agl18_bundle(), "forms": [[[1, 6, 1]]]}, 2,
     "input error: form index (1,6) exceeds matrix size 5\n"),
    # one more x1^2 term: the form is 2 x1^2 + ..., not the fixture's x1^2 + ...
    ("form-repeated", "bounds compare",
     {**agl18_bundle(), "forms": [agl18_bundle()["forms"][0] + [[1, 1, 1]]]}, 2,
     "input error: form coefficient (1,1) is given twice\n"),
    ("form-repeated-weight", "weights build --kind form", [[1, 1, 1], [1, 1, 1]], 2,
     "input error: form coefficient (1,1) is given twice\n"),
    ("stack-shape", "gendec verify", _stacked_s3(), 2,
     "input error: {path}: declared shape 3x1 does not match data 2x1\n"),
    ("gendec-disagrees", "bounds compare", _s3_bundle(q=1, n_generators=[], ibr_action=None),
     2, "input error: {path}: gendec sub-record disagrees with the bundle\n"),
    # the sub-record must be for the bundle's own subsection: N, the action,
    # a defect on one side only, and C
    ("gendec-disagrees-n", "bounds compare", _s3_bundle(n_generators=[1]), 2,
     "input error: {path}: gendec sub-record disagrees with the bundle\n"),
    ("gendec-disagrees-action", "bounds compare", _swap_bundle([1, 2]), 2,
     "input error: {path}: gendec sub-record disagrees with the bundle\n"),
    ("gendec-disagrees-defect-sub", "bounds compare", _s3_bundle_with({}, {"defect": 1}), 2,
     "input error: {path}: gendec sub-record disagrees with the bundle\n"),
    ("gendec-disagrees-defect-bundle", "bounds compare", _s3_bundle(defect=1), 2,
     "input error: {path}: gendec sub-record disagrees with the bundle\n"),
    ("gendec-disagrees-cartan", "bounds compare",
     _s3_bundle_with({}, {"cartan": {"normalization": "b",
                                     "matrix": {"rows": 1, "cols": 1, "entries": [["6"]]}}}),
     2, "input error: {path}: gendec sub-record disagrees with the bundle\n"),
    # 2^17 units, so that a regression costs seconds, not all memory
    ("gendec-units", "gendec verify", _power_of_two_record(2**18), 2,
     "input error: {path}: more than 65536 units modulo 262144 for decomposition data\n"),
    ("partition-empty-block", "bounds compare",
     {**agl18_bundle(), "partition": [[1, 2, 3, 4, 5], []]}, 2,
     "input error: partition blocks must be nonempty\n"),
    # the weighted rows pair C_bar with weights averaged over the swap, which
    # C_bar = [[2, 1], [1, 3]] does not commute with
    ("unfixed-cartan", "bounds compare",
     {"p": 3, "q": 3, "n_generators": [2], "ibr_action": [[2, 1]],
      "cartan": {"normalization": "b_bar",
                 "matrix": {"rows": 2, "cols": 2, "entries": [["2", "1"], ["1", "3"]]}}}, 1,
     f"mathematical check failed: {NOT_FIXED}\n"),
]


@pytest.mark.parametrize("command, record, status, stderr",
                         [case[1:] for case in CLI_REFUSALS],
                         ids=[case[0] for case in CLI_REFUSALS])
def test_cli_refusal(tmp_path, capsys, command, record, status, stderr):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(record))
    assert run(command.split() + ["--input", str(path)]) == status
    out, err = capsys.readouterr()
    assert err == stderr.format(path=path) and out == ""


def test_matching_subrecord_with_an_action_is_verified(tmp_path, capsys):
    # the same action on both sides passes the sub-record check
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(_swap_bundle([2, 1])))
    assert run(["bounds", "compare", "--input", str(path)]) == 0
    assert "gendec verification passed" in capsys.readouterr().out


def test_units_at_the_cap_still_get_a_report(tmp_path):
    # phi(2^17) = 2^16 units is the cap itself: a report (this data fails
    # its checks), not a refusal
    path = tmp_path / "p2_17.json"
    path.write_text(json.dumps(_power_of_two_record(2**17)))
    rc, seconds, err = run_bounded(["gendec", "verify", "--input", str(path),
                                    "--format", "records"])
    assert (rc, err) == (1, "") and seconds < 30


def test_blow_up_needs_a_block(tmp_path, capsys):
    w = tmp_path / "w.json"
    w.write_text(json.dumps({"rows": 1, "cols": 1, "entries": [["1"]]}))
    argv = ["weights", "build", "--kind", "blowup", "--input", str(w), "--perm", "1"]
    assert run(argv + ["--blocks", "0"]) == 2
    assert capsys.readouterr().err == "input error: block count must be at least 1\n"


def test_bounds_compare_exits_1_when_its_gendec_record_fails(tmp_path, capsys):
    # the report is still printed, with the first failing check's detail as
    # `gendec verify` gives it for the same record
    gendec = tmp_path / "gendec.json"
    gendec.write_text(json.dumps(_failing_s3()))
    assert run(["gendec", "verify", "--input", str(gendec), "--format", "records"]) == 1
    detail = next(c["detail"] for c in json.loads(capsys.readouterr().out)["checks"]
                  if not c["passed"])
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(_s3_bundle(gendec=_failing_s3())))
    assert run(["bounds", "compare", "--input", str(bundle), "--format", "records"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["notes"][-1] == f"gendec verification FAILED: {detail}"


def test_subsection_k_rows_are_skipped_when_p_divides_n(tmp_path, capsys):
    # N = <3> has order 2 modulo 4, so p = 2 divides n: only the k0(B) row
    # of the subsection bounds is given
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps({
        "p": 2, "q": 4, "n_generators": [3],
        "cartan": {"normalization": "b", "matrix": {"rows": 1, "cols": 1, "entries": [["4"]]}},
    }))
    assert run(["bounds", "compare", "--input", str(path), "--format", "records"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "k(B) subsection bounds skipped: fusion quotient order is divisible by p" \
        in report["notes"]
    assert [r["name"] for r in report["rows"] if r["name"].startswith("subsection")] == [
        "subsection k0(B) bound"]


def test_weight_candidates_from_the_command_line_with_an_action(tmp_path, capsys):
    # the 3-cycle fixes C but not the path weight, which gains a symmetrized
    # variant; the others commute with it and are left as they are
    paths = _inputs(tmp_path)
    argv = ["weights", "build", "--kind", "candidates", "--input", paths["c3"], "--p", "3"]
    assert run(argv) == 0
    plain = [c["provenance"] for c in json.loads(capsys.readouterr().out)["candidates"]]
    assert run(argv + ["--action", paths["action"]]) == 0
    acted = [c["provenance"] for c in json.loads(capsys.readouterr().out)["candidates"]]
    assert sorted(acted) == sorted(plain + ["symmetrized-wada-path"])


def test_weight_candidates_refuse_an_action_that_does_not_fix_c(tmp_path, capsys):
    paths = _inputs(tmp_path)
    argv = ["weights", "build", "--kind", "candidates", "--input", paths["gram"], "--p", "3"]
    assert run(argv) == 0
    capsys.readouterr()
    assert run(argv + ["--action", paths["swap"]]) == 1
    assert capsys.readouterr() == ("", f"mathematical check failed: {NOT_FIXED}\n")


def _inputs(tmp_path) -> dict:
    files = {
        "agl18": agl18_bundle(),
        "gram": {"rows": 2, "cols": 2, "entries": [["2", "1"], ["1", "3"]]},
        # 2 x^2 + 2 y^2 + 2 xy + 2 yz: leading minors 2, 3, -2
        "form": [[1, 1, 2], [2, 2, 2], [1, 2, 2], [2, 3, 2], [3, 3, 0]],
        "c3": {"rows": 3, "cols": 3,
               "entries": [["4", "1", "1"], ["1", "4", "1"], ["1", "1", "4"]]},
        "action": [[2, 3, 1]],
        "swap": [[2, 1]],
    }
    paths = {}
    for name, rec in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(rec))
    return paths


FAULTS = [  # (id, command with {name} inputs, fault, message)
    ("k0-p-prime-part", "k0 --p 3 --q 9 --n-gen 2",
     "from blockbounds.bounds import SubsectionSpec\n"
     "set(SubsectionSpec, 'n_pprime', property(lambda spec: 4))",
     "p'-part does not divide q - n_p"),
    ("form-bound-trace", "bounds compare --input {agl18}",
     "from blockbounds import bounds\nreal = bounds.trace_pairing\n"
     "set(bounds, 'trace_pairing', lambda a, b: real(a, b) + 1)",
     "form bound differs from the trace pairing tr(W C)"),
    ("inverse-cartan-bound", "bounds compare --input {agl18}",
     "from blockbounds import bounds\nreal = bounds._gram_form\n"
     "set(bounds, '_gram_form', lambda ints, s: real(ints, 8 * s))",
     "inverse Cartan bound exceeds l p^d"),
    ("back-substitution", "bounds compare --input {agl18}",
     "from blockbounds import exactmat\nreal = exactmat._bareiss\n"
     "def bareiss(m, ncols, pivoting):\n"
     "    found = real(m, ncols, pivoting)\n"
     "    if len(m[0]) > ncols:\n"
     "        m[0][0] += 1\n"
     "    return found\n"
     "set(exactmat, '_bareiss', bareiss)",
     "back substitution left a remainder in row 0: D X is not integral"),
    ("reduced-gram", "lattice min --input {gram}",
     "from blockbounds import lattice\nreal = lattice._lll_rows\n"
     "set(lattice, '_lll_rows', lambda g: (real(g)[0], [[-x for x in row] for row in g]))",
     "LLL-reduced Gram matrix is not positive definite"),
    ("integer-minimum", "lattice min --input {gram}",
     "from blockbounds import lattice\nreal = lattice.lcm\n"
     "set(lattice, 'lcm', lambda *a: 2 * real(*a) + 1)",
     "minimum 40/21 of an integer form is not an integer"),
    ("witness", "lattice min --input {gram}",
     "from blockbounds import lattice\n"
     "set(lattice, '_normalize_sign', lambda v: tuple(2 * x for x in v))",
     "witness (2, 0) does not attain the minimum 2"),
    ("refusal-witness", "weights build --kind form --input {form}",
     "from blockbounds import weights\nreal = weights._ldl_rows\n"
     "def ldl_rows(m):\n"
     "    minors, a = real(m)\n"
     "    if minors[-1] <= 0:\n"
     "        a[2][0] += 1\n"
     "    return minors, a\n"
     "set(weights, '_ldl_rows', ldl_rows)",
     "witness coordinate 0 is not integral"),
    ("group-average", "weights build --kind candidates --input {c3} --p 3 --action {action}",
     # every orbit of index pairs is the pair itself, so the "average" of the
     # path weight is the path weight, which the 3-cycle moves
     "from blockbounds import weights\n"
     "set(weights, 'closure', lambda seed, images: iter([seed]))",
     "group average does not commute with the action"),
]


@pytest.fixture
def empty_search_cache():
    lattice._form_minimum_cached.cache_clear()
    yield
    lattice._form_minimum_cached.cache_clear()


@pytest.mark.parametrize("command, fault, message", [case[1:] for case in FAULTS],
                         ids=[case[0] for case in FAULTS])
def test_injected_fault_exits_3(tmp_path, capsys, monkeypatch, empty_search_cache,
                                command, fault, message):
    argv = command.format(**_inputs(tmp_path)).split()
    exec(fault, {"set": monkeypatch.setattr})
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err == f"internal error: {message}\n"

    script = f"set = setattr\n{fault}\nimport sys\nfrom blockbounds.cli import run\n" \
             f"sys.exit(run({argv!r}))\n"
    src = str(Path(blockbounds.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert (proc.returncode, proc.stderr) == (3, err)


LIBRARY_FAULTS = [  # (id, fault, call, message): cross-checks no command reaches
    ("lll-unimodular",
     "from blockbounds import lattice\nreal = lattice._lll_rows\n"
     "set(lattice, '_lll_rows', lambda g: ([[2 * x for x in r] for r in real(g)[0]], g))",
     lambda: lll_reduce(RationalMatrix([[2, 1], [1, 3]])), "LLL transform is not unimodular"),
    ("dade-path-trace",
     "from blockbounds import bounds\nreal = bounds.trace_pairing\n"
     "set(bounds, 'trace_pairing', lambda a, b: real(a, b) + 1)",
     lambda: dade_cyclic_bound(9, 3, 2, 1), "path-weight trace pairing differs from b + m"),
    ("dade-subsection",
     "from dataclasses import replace\nfrom blockbounds import bounds\n"
     "real = bounds.subsection_k_bound\n"
     "set(bounds, 'subsection_k_bound',\n"
     "    lambda *a: replace(real(*a), value=real(*a).value + 1))",
     lambda: dade_cyclic_bound(9, 3, 2, 1), "weighted subsection bound differs from the product"),
]


@pytest.mark.parametrize("fault, call, message", [case[1:] for case in LIBRARY_FAULTS],
                         ids=[case[0] for case in LIBRARY_FAULTS])
def test_injected_library_fault_raises(monkeypatch, empty_search_cache, fault, call, message):
    exec(fault, {"set": monkeypatch.setattr})
    with pytest.raises(InternalInvariantError) as info:
        call()
    assert type(info.value) is InternalInvariantError and str(info.value) == message
