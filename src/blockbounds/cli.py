"""Command-line front end.

Exit status: 0 success, 1 a mathematical check failed, 2 input error,
3 an internal cross-check failed (a bug in the library, not in the input).
All numeric output shows the exact rational alongside a decimal
approximation; ``--format records`` emits deterministic JSON instead.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

from . import fixtures as fixture_lib
from .bounds import (
    BoundReport,
    ComparisonReport,
    SubsectionSpec,
    _normalized_cartan,
    compare_all,
    k0_semidirect,
)
from .exactmat import (
    CartanData,
    DomainError,
    InconsistentDataError,
    InternalInvariantError,
    ShapeError,
    matrix_from_record,
    matrix_to_record,
)
from .gendec import (
    GenDecData,
    VerificationReport,
    _split_cells,
    verify_all,
)
from .lattice import DEFAULT_DIM_CAP, form_minimum
from .weights import (
    CertificationError,
    PermutationAction,
    WeightMatrix,
    block_tridiagonal_weight,
    from_quadratic_form,
    wada_weight,
    weight_candidates,
)


class InputError(ValueError):
    """Malformed input file or arguments."""


MATH_ERRORS = (CertificationError, InconsistentDataError)

_EXPONENT = re.compile(r"-?[0-9]+")


@dataclass
class BlockBundle:
    """Validated contents of a bounds bundle file."""

    label: str
    cartan_b: CartanData
    spec: SubsectionSpec
    forms: list
    ordering: tuple | None
    partition: tuple | None
    known_kb: int | None
    gendec: GenDecData | None = None
    c_bar: CartanData | None = None
    heights: list | None = None


def _approx(x: Fraction) -> float | None:
    """The nearest float, or None (``null`` in records) beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return None


def _approx_text(x: Fraction) -> str:
    """``~`` and the approximation, as tables show it."""
    f = _approx(x)
    return "beyond float range" if f is None else f"~{f:g}"


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # undecodable text, or more digits than int() converts
        raise InputError(f"{path}: {exc}") from exc


def _require(record: dict, field: str, path: str):
    if not isinstance(record, dict) or field not in record:
        raise InputError(f"{path}: missing field '{field}'")
    return record[field]


def _int_list(value) -> bool:
    return type(value) is list and all(type(x) is int for x in value)


# What a field may be, by the kind that its refusal names; JSON booleans are
# not integers.
_KINDS = {
    "an integer": lambda v: type(v) is int,
    "a list of integers": _int_list,
    "an object": lambda v: type(v) is dict,
    "a list": lambda v: type(v) is list,
    "a list of [i, j, q_ij] integer triples":
        lambda v: type(v) is list and all(_int_list(t) and len(t) == 3 for t in v),
    "an object keyed by integer exponents":
        lambda v: type(v) is dict and all(map(_EXPONENT.fullmatch, v)),
}


def _field(kind: str, value, field: str, path: str):
    """``value`` if it is ``kind``, a key of ``_KINDS``; else the one refusal."""
    if not _KINDS[kind](value):
        raise InputError(f"{path}: '{field}' must be {kind}, not {value!r}")
    return value


def _permutation(images: list, degree: int, name: str) -> tuple:
    """1-indexed ``images`` as a 0-indexed permutation of degree ``degree``, or
    a refusal headed by ``name``; a wrong length builds no range of ``degree``."""
    if len(images) != degree or sorted(images) != list(range(1, degree + 1)):
        raise InputError(f"{name} is not 1-indexed of degree {degree}")
    return tuple(x - 1 for x in images)


def _load_action(arrays, degree: int, path: str) -> PermutationAction | None:
    if arrays is None:
        return None
    return PermutationAction(degree, [
        _permutation(_field("a list of integers", arr, "ibr_action", path), degree,
                     f"{path}: permutation {arr}")
        for arr in _field("a list", arrays, "ibr_action", path)])


def _load_cartan(record: dict, matrix, p: int, q: int, defect, path: str) -> CartanData:
    """b's Cartan data from a ``cartan`` record and its parsed ``matrix``."""
    normalization = _require(record, "normalization", path)
    if normalization not in ("b", "b_bar"):
        raise InputError(f"{path}: normalization must be 'b' or 'b_bar'")
    if defect is not None:
        defect = _field("an integer", defect, "defect", path)
    if normalization == "b_bar":
        matrix = matrix.scale(q)
    try:
        return CartanData(matrix, p, defect)
    except DomainError as exc:
        raise InputError(f"{path}: bad Cartan matrix: {exc}") from exc


def _load_subsection(rec: dict, path: str, l: int | None = None) -> tuple:
    """(SubsectionSpec, b's CartanData) of a bundle or of a gendec ``spec``
    record; the action has degree ``l``, by default the Cartan matrix's size."""
    p, q = _require(rec, "p", path), _require(rec, "q", path)
    cartan_rec = _field("an object", _require(rec, "cartan", path), "cartan", path)
    matrix = matrix_from_record(_require(cartan_rec, "matrix", path))
    p, q = _field("an integer", p, "p", path), _field("an integer", q, "q", path)
    gens = rec.get("n_generators")
    gens = [] if gens is None else _field("a list of integers", gens, "n_generators", path)
    action = _load_action(rec.get("ibr_action"), matrix.rows if l is None else l, path)
    try:
        spec = SubsectionSpec(p, q, gens, action)
    except DomainError as exc:
        raise InputError(f"{path}: bad subsection data: {exc}") from exc
    return spec, _load_cartan(cartan_rec, matrix, p, q, rec.get("defect"), path)


def _powers_cell(cell, r: int, c: int, path: str) -> list:
    """The ``powers`` cell (r, c), integer-string exponents mapped to
    integers, as (exponent, coefficient) int pairs; a coefficient's field
    name is formatted only for an error."""
    _field("an object keyed by integer exponents", cell, f"powers[{r}][{c}]", path)
    pairs = []
    for e, x in cell.items():
        if type(x) is not int:
            _field("an integer", x, f"powers[{r}][{c}][{e}]", path)
        try:
            pairs.append((int(e), x))
        except ValueError:  # more digits than int() converts
            raise InputError(f"{path}: 'powers[{r}][{c}]' has an exponent of {len(e)} "
                             "characters") from None
    return pairs


def _load_gendec(record: dict, path: str) -> tuple:
    """Returns (GenDecData, CartanData of the dominated block, heights)."""
    q, p = _require(record, "q", path), _require(record, "p", path)
    k = _field("an integer", _require(record, "k", path), "k", path)
    l = _field("an integer", _require(record, "l", path), "l", path)
    spec_rec = _field("an object", _require(record, "spec", path), "spec", path)
    if spec_rec.get("p", p) != p or spec_rec.get("q", q) != q:
        raise InputError(f"{path}: spec sub-record disagrees on p or q")
    spec, cartan_b = _load_subsection({**spec_rec, "p": p, "q": q}, path, l)
    if cartan_b.l != l:
        raise InputError(f"{path}: cartan size {cartan_b.l} does not match l = {l}")
    qm = _field("an object", _require(record, "q_matrix", path), "q_matrix", path)
    try:
        if "stack" in qm:
            stack = _field("a list", qm["stack"], "stack", path)
            data = GenDecData([matrix_from_record(m) for m in stack], spec)
        elif "powers" in qm:
            rows = qm["powers"]
            if not isinstance(rows, list) or len(rows) != k or any(
                not isinstance(r, list) or len(r) != l for r in rows
            ):
                raise InputError(f"{path}: 'powers' must be a {k}x{l} list of lists")
            data = _split_cells([[_powers_cell(cell, r, c, path) for c, cell in enumerate(row)]
                                 for r, row in enumerate(rows)], spec)
        else:
            raise InputError(f"{path}: q_matrix needs 'stack' or 'powers'")
        c_bar = _normalized_cartan(cartan_b, spec)
    except DomainError as exc:
        raise InputError(f"{path}: {exc}") from exc
    if data.k != k or data.l != l:
        raise InputError(f"{path}: declared shape {k}x{l} does not match data {data.k}x{data.l}")
    heights = record.get("heights")
    if heights is not None and len(_field("a list of integers", heights, "heights", path)) != k:
        raise InputError(f"{path}: 'heights' must be a list of {k} integers, one a row")
    return data, c_bar, heights


def _load_bundle(path: str) -> BlockBundle:
    rec = _load_json(path)
    spec, cartan_b = _load_subsection(rec, path)
    ordering = rec.get("ordering")
    if ordering is not None:
        ordering = tuple(x - 1 for x in _field("a list of integers", ordering, "ordering", path))
    partition = rec.get("partition")
    if partition is not None:
        partition = tuple(
            tuple(x - 1 for x in _field("a list of integers", blk, "partition", path))
            for blk in _field("a list", partition, "partition", path)
        )
    known_kb = rec.get("known_kb")
    if known_kb is not None:
        known_kb = _field("an integer", known_kb, "known_kb", path)
    gendec = c_bar = heights = None
    if rec.get("gendec") is not None:
        gendec, c_bar, heights = _load_gendec(_field("an object", rec["gendec"], "gendec", path),
                                              path)
        # for the bundle's own subsection: the same p, q, N and action of each
        # unit of N, and an equal C_bar (the matrix first, so that q divides
        # C), defect included; the bundle's C_bar then serves both reports
        sub, l = gendec.spec, cartan_b.l
        if ((sub.p, sub.q, sub.elements) != (spec.p, spec.q, spec.elements)
                or c_bar.matrix.scale(spec.q) != cartan_b.matrix
                or c_bar.defect != _normalized_cartan(cartan_b, spec).defect
                or any(sub.perm_of(g, l) != spec.perm_of(g, l) for g in spec.elements)):
            raise InputError(f"{path}: gendec sub-record disagrees with the bundle")
        c_bar = _normalized_cartan(cartan_b, spec)
    return BlockBundle(
        label=rec.get("label", path),
        cartan_b=cartan_b,
        spec=spec,
        forms=[] if rec.get("forms") is None else _field("a list", rec["forms"], "forms", path),
        ordering=ordering,
        partition=partition,
        known_kb=known_kb,
        gendec=gendec,
        c_bar=c_bar,
        heights=heights,
    )


def _report_record(rep: BoundReport) -> dict:
    out = {
        "name": rep.name,
        "target": rep.target,
        "value": str(rep.value),
        "approx": _approx(rep.value),
        "integer_bound": rep.integer_bound,
        "citation": rep.citation,
        "inputs": {k: v for k, v in rep.inputs},
        "strict": {k: v for k, v in rep.strict},
        "notes": list(rep.notes),
    }
    if rep.weak_value is not None:
        out["weak_value"] = str(rep.weak_value)
    return out


def _comparison_record(label: str, report: ComparisonReport) -> dict:
    return {
        "label": label,
        "rows": [_report_record(r) for r in report.rows],
        "best_k": None if report.best_k is None else _report_record(report.best_k),
        "best_k0": None if report.best_k0 is None else _report_record(report.best_k0),
        "notes": list(report.notes),
    }


def _print_comparison_table(label: str, report: ComparisonReport):
    print(f"bounds for {label}")
    width = max(len(r.name) for r in report.rows)
    for r in report.rows:
        star = " *" if r in (report.best_k, report.best_k0) else "  "
        flags = " ".join(k for k, v in r.strict if v)
        extra = f"  [{flags}]" if flags else ""
        print(
            f"  {r.name:<{width}}  {r.target:<6} "
            f"{str(r.value):>10}  ({_approx_text(r.value)}, floor {r.integer_bound})"
            f"{star}{extra}"
        )
    for note in report.notes:
        print(f"  note: {note}")
    if report.best_k is not None:
        print(f"  best k(B) bound:  {report.best_k.value} ({report.best_k.name})")
    if report.best_k0 is not None:
        print(f"  best k0(B) bound: {report.best_k0.value} ({report.best_k0.name})")


def _print_verification(report: VerificationReport, as_records: bool) -> int:
    if as_records:
        payload = {
            "ok": report.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in report.checks
            ],
        }
        _emit(payload, None)
    else:
        for c in report.checks:
            mark = "PASS" if c.passed else "FAIL"
            detail = f"  {c.detail}" if c.detail else ""
            print(f"{mark} {c.name}{detail}")
        print(f"{'all checks passed' if report.ok else 'CHECKS FAILED'}")
    return 0 if report.ok else 1


def _weight_record(w: WeightMatrix) -> dict:
    return {
        "matrix": matrix_to_record(w.matrix),
        "provenance": w.provenance,
        "minimum": str(w.certificate.value),
        "witness": list(w.certificate.witness),
        "num_minimizers": w.certificate.num_minimizers,
    }


def _emit(payload: dict, output: str | None):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if not output:
        print(text)
        return
    try:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise InputError(f"cannot write {output}: {exc}") from exc
    print(f"wrote {output}")


def _dim_cap(text: str) -> int:
    """The --max-dim value: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="blockbounds")
    sub = parser.add_subparsers(dest="group", required=True)

    bounds_p = sub.add_parser("bounds", help="bound comparison reports")
    bsub = bounds_p.add_subparsers(dest="command", required=True)
    cmp_p = bsub.add_parser("compare", help="evaluate every applicable bound")
    cmp_p.add_argument("--input", required=True, help="bundle file (JSON)")
    cmp_p.add_argument("--format", choices=["table", "records"], default="table")
    cmp_p.add_argument("--max-dim", type=_dim_cap, default=DEFAULT_DIM_CAP)

    lat_p = sub.add_parser("lattice", help="quadratic form minima")
    lsub = lat_p.add_subparsers(dest="command", required=True)
    min_p = lsub.add_parser("min", help="exact minimum over nonzero integer vectors")
    min_p.add_argument("--input", required=True, help="Gram matrix file (JSON)")
    min_p.add_argument("--format", choices=["table", "records"], default="table")
    min_p.add_argument("--max-dim", type=_dim_cap, default=DEFAULT_DIM_CAP)

    w_p = sub.add_parser("weights", help="weight matrix constructions")
    wsub = w_p.add_subparsers(dest="command", required=True)
    build_p = wsub.add_parser("build")
    build_p.add_argument(
        "--kind", choices=["un", "blowup", "form", "candidates"], required=True
    )
    build_p.add_argument("--n", type=int, help="size for --kind un")
    build_p.add_argument("--input", help="input file (matrix, form triples or Cartan)")
    build_p.add_argument("--perm", help="1-indexed images, comma separated (blowup)")
    build_p.add_argument("--blocks", type=int, help="block count (blowup)")
    build_p.add_argument("--p", type=int, help="prime for --kind candidates")
    build_p.add_argument("--action", help="action file for --kind candidates")
    build_p.add_argument("--output", help="write JSON here instead of stdout")
    build_p.add_argument("--max-dim", type=_dim_cap, default=DEFAULT_DIM_CAP)

    g_p = sub.add_parser("gendec", help="decomposition data verification")
    gsub = g_p.add_subparsers(dest="command", required=True)
    ver_p = gsub.add_parser("verify", help="run all structural identity checks")
    ver_p.add_argument("--input", required=True)
    ver_p.add_argument("--format", choices=["table", "records"], default="table")

    k0_p = sub.add_parser("k0", help="height-zero count of <u> x| N")
    k0_p.add_argument("--p", type=int, required=True)
    k0_p.add_argument("--q", type=int, required=True)
    k0_p.add_argument("--n-gen", type=int, nargs="*", default=[])
    k0_p.add_argument("--format", choices=["table", "records"], default="table")

    f_p = sub.add_parser("fixtures", help="built-in data sets")
    fsub = f_p.add_subparsers(dest="command", required=True)
    fsub.add_parser("list")
    emit_p = fsub.add_parser("emit")
    emit_p.add_argument("name", choices=sorted(fixture_lib.FIXTURES))
    emit_p.add_argument("--output", help="target path (default <name>.json)")

    return parser


_PARSER = _build_parser()


def _parse_triples(data, path: str) -> list:
    """A form: a list of [i, j, q_ij] triples of integers."""
    return [tuple(t) for t in _field("a list of [i, j, q_ij] integer triples", data, "form", path)]


def _cmd_bounds_compare(args) -> int:
    bundle = _load_bundle(args.input)
    report = compare_all(
        bundle.cartan_b,
        bundle.spec,
        forms=[_parse_triples(f, args.input) for f in bundle.forms],
        ordering=bundle.ordering,
        partition=bundle.partition,
        known_kb=bundle.known_kb,
        max_dim=args.max_dim,
    )
    notes = list(report.notes)
    status = 0
    if bundle.gendec is not None:
        ver = verify_all(bundle.gendec, bundle.c_bar, bundle.heights)
        notes.append(
            "gendec verification passed"
            if ver.ok
            else f"gendec verification FAILED: {ver.failures()[0].detail}"
        )
        if not ver.ok:
            status = 1
    report = replace(report, notes=tuple(notes))
    if args.format == "records":
        _emit(_comparison_record(bundle.label, report), None)
    else:
        _print_comparison_table(bundle.label, report)
    return status


def _cmd_lattice_min(args) -> int:
    matrix = matrix_from_record(_load_json(args.input))
    try:
        result = form_minimum(matrix, max_dim=args.max_dim)
    except DomainError as exc:
        raise InputError(f"{args.input}: {exc}") from exc
    payload = {
        "minimum": str(result.value),
        "approx": _approx(result.value),
        "witness": list(result.witness),
        "num_minimizers": result.num_minimizers,
    }
    if args.format == "records":
        _emit(payload, None)
    else:
        print(f"minimum {result.value} ({_approx_text(result.value)}) "
              f"at {list(result.witness)} ({result.num_minimizers} minimizers up to sign)")
    return 0


# The options that each --kind of ``weights build`` needs.
_NEEDS = {"un": ["--n"], "form": ["--input"], "blowup": ["--input", "--perm", "--blocks"],
          "candidates": ["--input", "--p"]}


def _cmd_weights_build(args) -> int:
    kind, needs = args.kind, _NEEDS[args.kind]
    if any(getattr(args, option[2:]) is None for option in needs):
        *rest, last = needs
        listed = f"{', '.join(rest)} and {last}" if rest else last
        raise InputError(f"--kind {kind} needs {listed}")
    if kind == "un":
        w = wada_weight(args.n, max_dim=args.max_dim)
    elif kind == "form":
        triples = _parse_triples(_load_json(args.input), args.input)
        w = from_quadratic_form(triples, max_dim=args.max_dim)
    elif kind == "blowup":
        matrix = matrix_from_record(_load_json(args.input))
        try:
            images = [int(x) for x in args.perm.split(",")]
        except ValueError:
            raise InputError(f"--perm {args.perm!r} must be comma-separated integers") from None
        perm = _permutation(images, matrix.rows, f"--perm {args.perm}")
        w = block_tridiagonal_weight(matrix, perm, args.blocks, max_dim=args.max_dim)
    else:
        _emit(_candidates_record(args), args.output)
        return 0
    _emit(_weight_record(w), args.output)
    return 0


def _candidates_record(args) -> dict:
    """``weights build --kind candidates``: every ranked candidate."""
    matrix = matrix_from_record(_load_json(args.input))
    try:
        cartan = CartanData(matrix, args.p)
    except DomainError as exc:
        raise InputError(f"{args.input}: {exc}") from exc
    action = None
    if args.action:
        action = _load_action(_load_json(args.action), matrix.rows, args.action)
    ranked = weight_candidates(cartan, action, max_dim=args.max_dim)
    return {"candidates": [
        {"provenance": w.provenance, "trace": str(tr), "approx": _approx(tr),
         "minimum": str(w.certificate.value), "matrix": matrix_to_record(w.matrix)}
        for w, tr in ranked
    ]}


def _cmd_gendec_verify(args) -> int:
    data, c_bar, heights = _load_gendec(_load_json(args.input), args.input)
    report = verify_all(data, c_bar, heights)
    return _print_verification(report, args.format == "records")


def _cmd_k0(args) -> int:
    spec = SubsectionSpec(args.p, args.q, tuple(args.n_gen))
    value = k0_semidirect(spec)
    if args.format == "records":
        _emit({"k0": value, "n": spec.n, "p": args.p, "q": args.q}, None)
    else:
        print(value)
    return 0


def _cmd_fixtures(args) -> int:
    if args.command == "list":
        for name in sorted(fixture_lib.FIXTURES):
            _, desc = fixture_lib.FIXTURES[name]
            print(f"{name:<16} {desc}")
        return 0
    builder, _ = fixture_lib.FIXTURES[args.name]
    _emit(builder(), args.output or f"{args.name}.json")
    return 0


_COMMANDS = {
    "bounds": _cmd_bounds_compare,
    "lattice": _cmd_lattice_min,
    "weights": _cmd_weights_build,
    "gendec": _cmd_gendec_verify,
    "k0": _cmd_k0,
    "fixtures": _cmd_fixtures,
}


def run(argv) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.group](args)  # argparse requires a known group
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except MATH_ERRORS as exc:
        print(f"mathematical check failed: {exc}", file=sys.stderr)
        return 1
    except (DomainError, ShapeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
