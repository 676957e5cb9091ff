"""Fuzzed command line: every input ends in exit status 0, 1, 2 or 3 and
never in a traceback.

Inputs are valid records with a few fields replaced or deleted, gendec
files at conductors with more than 2^16 units (run in bounded child
processes), freshly drawn matrices of size at most 6x6 with partitions of
their indices (empty blocks included), form files with indices up to 40,
and argument lists drawn from the real vocabulary, including unwritable
``--output`` paths.  Drawn values include huge integers (as a defect, a
declared size or anything else), digit strings longer than int()
converts, and valid matrix entries beyond the float range.  Runs are
derandomized, so the suite is deterministic.
"""

import contextlib
import copy
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockbounds.cli import run
from blockbounds.fixtures import agl18_bundle, s3_subsection
from conftest import run_bounded


def fuzz(cases):
    """Deterministic runs, no example database, no per-case deadline."""
    return settings(max_examples=cases, derandomize=True, database=None, deadline=None)


# Numbers past what the program may build or print: a defect d with p^d of
# more digits than int() converts to text (or more than memory holds), a
# declared l beyond any list, and digit strings longer than int() converts.
huge_ints = st.one_of(st.sampled_from([20000, 10**9, 10**30, 2**89 - 1]),
                      st.integers(10**4, 10**40))
long_digits = st.integers(4301, 6000).map(lambda n: "7" * n)
# Valid entries whose values lie beyond the float range (about 1.8e308), or
# so close to 0 that they round to it: the exact value prints, the decimal
# approximation cannot.
past_float = st.integers(310, 400).map(lambda n: "9" * n)
huge_valid = st.one_of(past_float, past_float.map("-{}".format),
                       past_float.map("1/{}".format), past_float.map("{}/7".format))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.floats(-4, 4, allow_nan=False, width=16),
    st.sampled_from(["", "0", "1", "-2", "3", "1/2", "-1/3", "0/0", "2/0", "x", " 1"]),
    huge_ints,
    long_digits,
    long_digits.map("1/{}".format),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["0", "1", "-1", "x", "rows", "entries"]),
                      inner, max_size=3),
    max_leaves=10,
)
entries = st.one_of(st.integers(0, 6).map(str), st.integers(-3, 9), scalars, huge_valid)


@st.composite
def matrix_records(draw, symmetric_nonnegative=False):
    """A matrix record of size at most 6x6, now and then misdeclared."""
    n = draw(st.integers(1, 6))
    if symmetric_nonnegative:
        upper = {(i, j): draw(st.integers(0, 2)) for i in range(n) for j in range(i + 1, n)}
        rows = [[str(draw(st.integers(1, 8)) if i == j else upper[min(i, j), max(i, j)])
                 for j in range(n)] for i in range(n)]
    else:
        rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    return {"rows": draw(st.sampled_from([n, n, n, n + 1])), "cols": n, "entries": rows}


def _paths(value, prefix=()):
    if prefix:
        yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, prefix + (index,))


@st.composite
def mutated(draw, base):
    """``base`` with one to three fields replaced by JSON values or deleted."""
    record = copy.deepcopy(base)
    paths = list(_paths(record))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(paths))
        delete = draw(st.integers(0, 4)) == 0
        value = draw(json_values)
        target = record
        try:
            for key in path[:-1]:
                target = target[key]
            if delete:
                del target[path[-1]]
            else:
                target[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed this path
    return record


@st.composite
def partitions(draw, n):
    """None, or the indices 1..n dealt into one to three blocks, so that a
    block may be empty."""
    if draw(st.booleans()):
        return None
    blocks = [[] for _ in range(draw(st.integers(1, 3)))]
    for i in range(1, n + 1):
        blocks[draw(st.integers(0, len(blocks) - 1))].append(i)
    return blocks


@st.composite
def bundles(draw):
    if draw(st.booleans()):
        return draw(mutated(agl18_bundle()))
    p = draw(st.sampled_from([2, 3, 5]))
    matrix = draw(matrix_records(symmetric_nonnegative=True))
    bundle = {
        "label": "fuzz",
        "p": p,
        "q": draw(st.sampled_from([1, 1, p, p * p])),
        "cartan": {"normalization": draw(st.sampled_from(["b", "b_bar"])),
                   "matrix": matrix},
        "partition": draw(partitions(matrix["cols"])),
        "forms": draw(st.lists(st.lists(
            st.lists(st.integers(0, 7), min_size=3, max_size=3), max_size=3), max_size=2)),
        "known_kb": draw(st.one_of(st.none(), st.integers(-1, 30))),
    }
    return draw(mutated(bundle)) if draw(st.booleans()) else bundle


form_files = st.one_of(
    st.lists(st.lists(st.integers(-1, 40), min_size=3, max_size=3), max_size=5),
    st.lists(st.one_of(st.lists(scalars, max_size=4), scalars), max_size=4),
    json_values,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_checked(argv):
    """Run the command line in process; return its status and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run(argv)
    assert status in (0, 1, 2, 3), (argv, status)
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
    return status, err.getvalue()


def run_on(workdir, name, record, argv):
    path = workdir / name
    path.write_text(json.dumps(record))
    return run_checked(argv + ["--input", str(path)])


@fuzz(250)
@given(record=bundles(), records=st.booleans())
def test_fuzz_bundles(workdir, record, records):
    fmt = ["--format", "records"] if records else []
    run_on(workdir, "bundle.json", record, ["bounds", "compare"] + fmt)


@st.composite
def huge_diagonal_records(draw):
    """A positive definite diagonal record of size at most 3x3 whose entries
    may lie beyond the float range, so its minimum may too."""
    n = draw(st.integers(1, 3))
    diag = [draw(st.one_of(st.integers(1, 9).map(str), past_float,
                           past_float.map("1/{}".format))) for _ in range(n)]
    return {"rows": n, "cols": n,
            "entries": [[diag[i] if i == j else "0" for j in range(n)] for i in range(n)]}


@fuzz(200)
@given(record=st.one_of(matrix_records(), matrix_records(symmetric_nonnegative=True),
                        huge_diagonal_records(), st.builds(dict), json_values),
       records=st.booleans())
def test_fuzz_gram_files(workdir, record, records):
    fmt = ["--format", "records"] if records else []
    run_on(workdir, "gram.json", record, ["lattice", "min"] + fmt)


@fuzz(200)
@given(record=mutated(s3_subsection()))
def test_fuzz_gendec_files(workdir, record):
    run_on(workdir, "gendec.json", record, ["gendec", "verify"])


@st.composite
def huge_gendec_files(draw):
    """The S3 fixture with a huge declared l, a huge defect or an exponent
    of many digits, then mutated or not."""
    record = s3_subsection()
    change = draw(st.integers(0, 2))
    if change == 0:
        record["l"] = draw(huge_ints)
    elif change == 1:
        record["spec"]["defect"] = draw(huge_ints)
    else:
        record["q_matrix"]["powers"][0][0] = {draw(long_digits): 1}
    return draw(mutated(record)) if draw(st.booleans()) else record


@fuzz(100)
@given(record=huge_gendec_files())
def test_fuzz_gendec_files_with_huge_values(workdir, record):
    run_on(workdir, "gendec.json", record, ["gendec", "verify"])


@st.composite
def large_conductor_files(draw):
    """The S3 fixture at a prime-power conductor q with phi(q) > 2^16, set in
    q, spec.q and p together, with N = <-1> and one cell redrawn."""
    p, q = draw(st.one_of(
        st.integers(18, 60).map(lambda k: (2, 2**k)),
        st.sampled_from([(3, 3**12), (5, 5**8), (65539, 65539), (2**31 - 1, 2**31 - 1)])))
    record = s3_subsection()
    record["p"] = record["spec"]["p"] = p
    record["q"] = record["spec"]["q"] = q
    record["spec"]["n_generators"] = [q - 1]
    record["q_matrix"]["powers"][0][0] = {str(draw(st.integers(0, q))): draw(st.integers(-3, 3))}
    return record


@fuzz(12)
@given(record=large_conductor_files())
def test_fuzz_large_conductors(workdir, record):
    # each in a child process held to 1 GiB and 60 s: every such file is
    # refused before a list of phi(q) units or coefficient matrices is built
    path = workdir / "conductor.json"
    path.write_text(json.dumps(record))
    rc, seconds, err = run_bounded(["gendec", "verify", "--input", str(path)])
    assert rc == 2 and f"units modulo {record['q']} " in err and "Traceback" not in err, err
    assert seconds < 10


@fuzz(200)
@given(record=form_files)
def test_fuzz_form_files(workdir, record):
    run_on(workdir, "form.json", record, ["weights", "build", "--kind", "form"])


# each command with its required options, then its optional ones
COMMANDS = [
    (["bounds", "compare"], ["--input"], ["--format", "--max-dim"]),
    (["lattice", "min"], ["--input"], ["--format", "--max-dim"]),
    (["gendec", "verify"], ["--input"], ["--format"]),
    (["k0"], ["--p", "--q"], ["--n-gen", "--format"]),
    (["fixtures", "list"], [], []),
    (["fixtures", "emit", "agl18"], [], ["--output"]),
    (["weights", "build", "--kind", "un"], ["--n"], ["--output", "--max-dim"]),
    (["weights", "build", "--kind", "blowup"], ["--input", "--perm", "--blocks"],
     ["--output", "--max-dim"]),
    (["weights", "build", "--kind", "form"], ["--input"], ["--output", "--max-dim"]),
    (["weights", "build", "--kind", "candidates"], ["--input", "--p"],
     ["--action", "--output", "--max-dim"]),
]


@pytest.fixture(scope="module")
def argv_values(workdir):
    """A strategy of values for each option, files written into ``workdir``."""
    files = {
        "cartan.json": {"rows": 2, "cols": 2, "entries": [["2", "1"], ["1", "2"]]},
        "form.json": [[1, 1, 1], [1, 2, -1], [2, 2, 1]],
        "bundle.json": {"p": 3, "q": 1, "cartan": {"normalization": "b", "matrix": {
            "rows": 2, "cols": 2, "entries": [["2", "1"], ["1", "2"]]}}},
        "gendec.json": s3_subsection(),
        "action.json": [[2, 1]],
    }
    for name, record in files.items():
        (workdir / name).write_text(json.dumps(record))
    paths = [str(workdir / name) for name in files] + [
        str(workdir / "missing.json"), str(workdir)]
    number = st.one_of(st.integers(-2, 12).map(str), st.just("x"))
    return {
        "--input": st.sampled_from(paths),
        "--action": st.sampled_from(paths),
        "--format": st.sampled_from(["records", "table", "x"]),
        "--perm": st.sampled_from(["1,2", "2,1", "1,,2", "", "x", "1"]),
        "--output": st.sampled_from(["out.json", "/nonexistent/dir/out.json",
                                     str(workdir), str(workdir / "cartan.json" / "x")]),
        "--n-gen": number, "--n": number, "--blocks": number, "--p": number,
        "--q": number, "--max-dim": number,
    }


@fuzz(250)
@given(data=st.data())
def test_fuzz_argv(workdir, argv_values, data):
    command, required, optional = data.draw(st.sampled_from(COMMANDS))
    options = [o for o in required if data.draw(st.integers(0, 7))]
    options += data.draw(st.lists(st.sampled_from(optional), unique=True)) if optional else []
    argv = list(command)
    for option in options:
        argv += [option, data.draw(argv_values[option])]
    if data.draw(st.integers(0, 9)) == 0:
        argv.insert(data.draw(st.integers(0, len(argv))), data.draw(argv_values["--n"]))
    # relative outputs (fixtures emit's default <name>.json) land in workdir
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        run_checked(argv)
    finally:
        os.chdir(cwd)
