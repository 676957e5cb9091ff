"""Seeded input catalogs for the three workloads, and the checks on outputs.

Each workload owns a fixed catalog of ``ROUNDS`` rounds.  A round holds one
input per slot, always in the same slot order, so any run made of whole
rounds sees the same mix of families and sizes whatever the seed; the seed
only chooses which rounds (and so which concrete matrices) a run uses.  The
input of round ``r``, slot ``s`` depends on ``(workload, r, s)`` alone, which
is what lets ``golden/<workload>.json`` hold the seed-commit answer for every
catalog entry.  Slot indices past ``SLOTS`` name the ``WARMUP`` slots: their
families or sizes appear in no timed slot, so no warm-up input is a copy,
relabelling or change of basis of a timed one.

Timed inputs are distinct as matrices, which is what the program's caches
key on, but the rounds of one slot can be the same object in another basis:
a relabelled Kronecker product or fixture, a root lattice, path form or
(I + J)^-1 under a unimodular change of basis, or dihedral rows in another
order.  A cache keyed on an isomorphism-invariant canonical form would hit
across those rounds; adding one means revising this catalog.

Every input also carries expectations derived from independent mathematics
(known k(B), lattice minima of root lattices, verdicts fixed by construction);
``check`` applies them, ``golden_fields`` extracts the exact fields that are
compared against the recorded digests, and ``wrong_answer`` spoils a correct
output for the self-test that every run makes of these checks.
"""

from __future__ import annotations

import ast
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from math import floor

# ---------------------------------------------------------------- helpers


@dataclass
class Input:
    key: str  # "<round>.<slot>"
    family: str
    text: str  # file contents handed to the program
    content: str  # the mathematical content; distinct inputs differ here
    expect: dict = field(default_factory=dict)
    path: str = ""  # where the benchmark wrote ``text``


def _record(m) -> dict:
    return {
        "rows": len(m),
        "cols": len(m[0]),
        "entries": [[str(x) for x in row] for row in m],
    }


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _kron(a, b):
    return [
        [a[i][j] * b[k][l] for j in range(len(a)) for l in range(len(b))]
        for i in range(len(a))
        for k in range(len(b))
    ]


def _relabel(m, perm):
    """Simple module i of the result is simple module perm[i] of m."""
    return [[m[perm[i]][perm[j]] for j in range(len(m))] for i in range(len(m))]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _prime_factors(n: int) -> list:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + ([n] if n > 1 else [])


def _unit_of_order(p: int, a: int, n: int) -> int:
    """A unit of order n modulo p^a, for n dividing p - 1: an element of
    order n modulo p, lifted by the power p^(a-1) (Teichmueller)."""
    for g in range(2, p):
        if pow(g, n, p) == 1 and all(pow(g, n // f, p) != 1 for f in _prime_factors(n)):
            return pow(g, p ** (a - 1), p**a)
    raise ValueError(f"no unit of order {n} modulo {p}")


def _star_prime(e: int, index: int) -> int:
    """The index-th prime p with e | p - 1."""
    p = 1
    while True:
        p += e
        if _is_prime(p):
            if index == 0:
                return p
            index -= 1


def _star(e: int, p: int, d: int):
    m = (p**d - 1) // e
    return [[m + (1 if i == j else 0) for j in range(e)] for i in range(e)]


def _random_partition(rng, l):
    idx = list(range(1, l + 1))
    rng.shuffle(idx)
    cuts = sorted(rng.sample(range(1, l), min(2, l - 1)))
    parts, prev = [], 0
    for c in cuts + [l]:
        parts.append(sorted(idx[prev:c]))
        prev = c
    return parts


def _path_form(order) -> list:
    """sum x_i^2 - sum x_a x_b along a path; positive definite, minimum 1."""
    triples = [[i, i, 1] for i in range(1, len(order) + 1)]
    for a, b in zip(order, order[1:]):
        triples.append([min(a, b), max(a, b), -1])
    return triples


# ------------------------------------------------------- bounds-compare


# Principal-block Cartan matrices: (prime, matrix, k(B), defect).
FACTORS = {
    "S3": (3, [[2, 1], [1, 2]], 3, 1),
    "A4": (2, [[2, 1, 1], [1, 2, 1], [1, 1, 2]], 4, 2),
    "S4": (2, [[4, 2], [2, 3]], 5, 3),
    "A5": (2, [[4, 2, 2], [2, 2, 1], [2, 1, 2]], 4, 2),
}

AGL18 = [
    [2, 0, 0, 1, 1],
    [0, 2, 0, 1, 1],
    [0, 0, 2, 1, 1],
    [1, 1, 1, 4, 3],
    [1, 1, 1, 3, 4],
]
AGL18_FORM = [
    [1, 1, 1], [2, 2, 1], [3, 3, 1], [4, 4, 1], [5, 5, 1],
    [1, 2, 1], [1, 5, -1], [2, 5, -1], [3, 5, -1], [4, 5, -1],
]


def _kron_factors(names):
    p, m, k, d = FACTORS[names[0]]
    for name in names[1:]:
        p2, m2, k2, d2 = FACTORS[name]
        m, k, d = _kron(m, m2), k * k2, d + d2
    return p, m, k, d


def _bundle(label, p, q, cartan_b, defect, *, gens=(), action=None, forms=(),
            ordering=None, partition=None):
    return {
        "label": label,
        "p": p,
        "q": q,
        "n_generators": list(gens),
        "ibr_action": action,
        "cartan": {"normalization": "b", "matrix": _record(cartan_b)},
        "defect": defect,
        "forms": list(forms),
        "ordering": ordering,
        "partition": partition,
        "known_kb": None,
    }


def _relabelings(m, salt: str, count: int) -> list:
    """Permutations giving distinct relabelled copies of m, the identity
    first: all of them for l <= 6, else ``count`` drawn at random."""
    ident = tuple(range(len(m)))
    seen = {tuple(map(tuple, m)): ident}
    if len(m) <= 6:
        for perm in permutations(ident):
            seen.setdefault(tuple(map(tuple, _relabel(m, perm))), perm)
        rest = [seen[k] for k in sorted(seen) if seen[k] != ident]
        random.Random(salt).shuffle(rest)
        return [ident] + rest
    rng = random.Random(salt)
    perms = [ident]
    while len(perms) < count:
        perm = rng.sample(ident, len(ident))
        if seen.setdefault(tuple(map(tuple, _relabel(m, perm))), perm) is perm:
            perms.append(perm)
    return perms


class BoundsCompare:
    name = "bounds-compare"
    argv = ["bounds", "compare"]
    # One round, in execution order, cheap and dear families interleaved.
    # Sizes, forms and subsection orders are fixed per slot (star: (e, with
    # a path form?); sub-star and sub-square: (e, a) with q = p^a; sub-kron:
    # (factors, a)), so that every round costs about the same.  Sorted by
    # cost, the 25 slots fall into clusters: ranks 11-15 (A4 x S4, S4 x A5,
    # the star with e = 6, the sub-kron and the cheaper sub-square) hold the
    # median and ranks 21-24 (the star with e = 18, the dearer sub-square,
    # the star with e = 16, S3^4) the 90th percentile, so neither quantile
    # sits in a gap between slots of different cost.
    SLOTS = [
        ("star", (2, False)),
        ("kron", ("A4", "S4")),
        ("star", (3, True)),
        ("agl18", None),
        ("sub-star", (3, 1)),
        ("kron", ("S3", "S3")),
        ("star", (4, False)),
        ("sub-kron", (("S4", "A5"), 2)),
        ("star", (6, True)),
        ("a4xa4", None),
        ("sub-square", (2, 2)),
        ("sub-star", (2, 2)),
        ("kron", ("S3", "S3", "S3")),
        ("sub-star", (6, 2)),
        ("star", (10, True)),
        ("kron", ("S4", "A5")),
        ("kron", ("A5", "A5")),
        ("kron", ("S4", "S4")),
        ("sub-square", (3, 1)),
        ("kron", ("S4", "S4", "A4")),
        ("sub-star", (3, 2)),
        ("star", (16, True)),
        ("kron", ("S3", "S3", "S3", "S3")),
        ("kron", ("S4", "A4", "A5")),
        ("star", (18, False)),
    ]
    # Warm-up only: families or sizes that no timed slot has, sharing no
    # C_bar with one (a sub-square would share its star with a timed slot).
    WARMUP = [
        ("star", (5, True)),
        ("kron", ("A4", "A5")),
        ("sub-star", (4, 1)),
    ]
    ROUNDS = 160
    TRACE_ROUNDS = 3

    def __init__(self):
        self._perms = {}

    def _relabel_for(self, name, m, r):
        """(permutation, cyclic exponent a) for round r, distinct per round:
        past the distinct relabellings of m, a factor C_{p^a} is added."""
        if name not in self._perms:
            self._perms[name] = _relabelings(m, name, self.ROUNDS)
        perms = self._perms[name]
        return perms[r % len(perms)], r // len(perms)

    def make(self, r: int, s: int) -> Input:
        family, arg = (self.SLOTS + self.WARMUP)[s]
        rng = random.Random(f"{self.name}:{r}:{s}")
        label = f"{family}-{r}-{s}"
        expect = {}
        ordering = partition = None
        forms = []
        gens, action, q = (), None, 1
        if family == "star":
            e, with_form = arg
            p, d = _star_prime(e, r), 1
            cb, defect = _star(e, p, d), d
            expect["kb"] = e + (p**d - 1) // e
            if with_form:
                forms = [_path_form(rng.sample(range(1, e + 1), e))]
        elif family in ("kron", "a4xa4"):
            names = ("A4", "A4") if family == "a4xa4" else arg
            # round 0 is unrelabelled: for a4xa4, the fixture itself
            p, cm, kb, defect = _kron_factors(names)
            perm, a = self._relabel_for(family + "*".join(names), cm, r)
            cm = [[p**a * x for x in row] for row in cm]
            kb, defect = kb * p**a, defect + a
            cb = _relabel(cm, perm)
            expect["kb"] = kb
            ordering = rng.sample(range(1, len(cb) + 1), len(cb))
            if family != "a4xa4":
                partition = _random_partition(rng, len(cb))
        elif family == "agl18":
            # round 0 is the fixture; later rounds relabel it and add C_{2^a}
            perm, a = self._relabel_for("agl18", AGL18, r)
            inv = {old: new + 1 for new, old in enumerate(perm)}
            cb = [[2**a * x for x in row] for row in _relabel(AGL18, perm)]
            forms = [[[min(inv[i - 1], inv[j - 1]), max(inv[i - 1], inv[j - 1]), v]
                      for i, j, v in AGL18_FORM]]
            p, defect = 2, 3 + a
            expect["kb"] = 8 * 2**a
        elif family == "sub-star":
            # d = 2, so no dominated Cartan matrix equals a q = 1 star's
            e, a = arg
            p, d = _star_prime(e, r), 2
            q = p**a
            n = rng.choice([x for x in range(2, p) if (p - 1) % x == 0])
            gens = (_unit_of_order(p, a, n),)
            cb = [[q * x for x in row] for row in _star(e, p, d)]
            defect = d + a
        elif family == "sub-square":
            # square of a Brauer star (S3 at p = 3 in round 0) with the
            # factor swap as the fusion action of the unit -1
            e, a = arg
            p, d = _star_prime(e, r), 1
            base = _star(e, p, d)
            q = p**a
            cm = _kron(base, base)
            perm = list(range(len(cm)))
            rng.shuffle(perm)
            pos = {old: new for new, old in enumerate(perm)}
            swap = [pos[(perm[i] % e) * e + perm[i] // e] + 1
                    for i in range(len(cm))]
            cb = [[q * x for x in row] for row in _relabel(cm, perm)]
            defect = 2 * d + a
            gens, action = (q - 1,), [swap]
        elif family == "sub-kron":
            names, a = arg
            p, cm, _, d0 = _kron_factors(names)
            perm, _ = self._relabel_for(family + "*".join(names), cm, r)
            q = p**a
            cb = [[q * x for x in row] for row in _relabel(cm, perm)]
            defect = d0 + a
        else:
            raise ValueError(family)
        bundle = _bundle(label, p, q, cb, defect, gens=gens, action=action,
                         forms=forms, ordering=ordering, partition=partition)
        l = len(cb)
        expect.update(
            trace=str(sum(cb[i][i] for i in range(l))),
            brauer_feit=str(p ** (2 * defect)),
            cartan=[[str(x) for x in row] for row in cb],
        )
        return Input(f"{r}.{s}", f"{family}-l{l}", _dumps(bundle),
                     _dumps(cb), expect)

    def check(self, inp: Input, rc: int, out: dict) -> list:
        errs = []
        if rc != 0:
            return [f"exit status {rc}, expected 0"]
        rows = out["rows"]
        k_rows = [r for r in rows if r["target"] == "k(B)"]
        k0_rows = [r for r in rows if r["target"] == "k0(B)"]
        for row in rows:
            v = Fraction(row["value"])
            if row["integer_bound"] != floor(v) or v < 1:
                errs.append(f"{row['name']}: integer_bound or value out of range")
        for best, pool in (("best_k", k_rows), ("best_k0", k0_rows)):
            want = min(pool, key=lambda r: Fraction(r["value"])) if pool else None
            got = out[best]
            if (want is None) != (got is None) or (
                want is not None
                and (got["name"], got["value"]) != (want["name"], want["value"])
            ):
                errs.append(f"{best} is not the smallest {best[5:]} row")
        kb = inp.expect.get("kb")
        if kb is not None:
            for row in k_rows:
                if Fraction(row["value"]) < kb:
                    errs.append(f"{row['name']} = {row['value']} is below k(B) = {kb}")
        by_name = {r["name"]: r for r in rows}
        checks = {"trace bound": inp.expect["trace"],
                  "Brauer-Feit bound": inp.expect["brauer_feit"]}
        for name, want in checks.items():
            if by_name.get(name, {}).get("value") != want:
                errs.append(f"{name} missing or not {want}")
        inv = by_name.get("inverse Cartan bound")
        if inv is None:
            errs.append("inverse Cartan bound missing")
        else:
            cb = [[Fraction(x) for x in row] for row in inp.expect["cartan"]]
            minimum = Fraction(inv["inputs"]["minimum"])
            witness = ast.literal_eval(inv["inputs"]["witness"])
            if not any(witness) or _form_value(_inverse(cb), witness) != minimum:
                errs.append("inverse Cartan witness does not attain its minimum")
            if Fraction(inv["value"]) != len(cb) / minimum:
                errs.append("inverse Cartan bound is not l / minimum")
        return errs

    def wrong_answer(self, out: dict) -> dict:
        row = next(r for r in out["rows"] if r["name"] == "inverse Cartan bound")
        row["value"] = str(int(row["integer_bound"]) + 7)
        return out

    def golden_fields(self, rc: int, out: dict):
        def row(r):
            if r is None:
                return None
            inputs = r["inputs"]
            return [r["name"], r["target"], r["value"], r["integer_bound"],
                    r.get("weak_value"), inputs.get("minimum"), inputs.get("witness")]

        if rc != 0:
            return [rc]
        return [rc, [row(r) for r in out["rows"]], row(out["best_k"]),
                row(out["best_k0"])]


# ------------------------------------------------------------ lattice-min


def _root_gram(kind: str, n: int):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
    if kind == "E":  # E8: path 0..6 with node 7 attached to node 4
        edges = [(i, i + 1) for i in range(6)] + [(4, 7)]
    elif kind == "D":  # path 0..n-2 with node n-1 attached to node n-3
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    else:
        edges = [(i, i + 1) for i in range(n - 1)]
    for a, b in edges:
        g[a][b] = g[b][a] = -1
    return g


def _roots_up_to_sign(kind: str, n: int) -> int:
    return {"A": n * (n + 1) // 2, "D": n * (n - 1), "E": 120}[kind]


def _direct_sum(blocks):
    n = sum(len(b) for b in blocks)
    g = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                g[at + i][at + j] = x
        at += len(b)
    return g


def _disguise(rng, g, target: int):
    """Conjugate by a random permutation, then by random elementary
    unimodular moves until some entry reaches ``target``."""
    n = len(g)
    perm = list(range(n))
    rng.shuffle(perm)
    g = [[g[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    while max(abs(x) for row in g for x in row) < target:
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
        for row in g:
            row[i] += c * row[j]
    return g


class LatticeMin:
    name = "lattice-min"
    argv = ["lattice", "min"]
    # Disguised root lattices and nearly reduced forms, fixed per slot: root
    # slots name their components as (kind, rank) pairs, the others give the
    # dimension.  Fifteen slots, so that when they are sorted by cost the
    # median falls on the eighth and the 90th percentile on the middle of
    # the three dearest; both sit in a cluster of slots of similar cost
    # (ranks 6-10 and 13-15), never in a gap between two clusters.
    SLOTS = [
        ("root", (("E", 8), ("A", 1))),
        ("path", 10),
        ("root", (("A", 9),)),
        ("ata", 9),
        ("root", (("D", 5), ("A", 6))),
        ("inv-ij", 14),
        ("root", (("E", 8), ("A", 4))),
        ("path", 16),
        ("root", (("D", 14),)),
        ("ata", 13),
        ("root", (("E", 8), ("E", 8))),
        ("inv-ij", 22),
        ("root", (("E", 8), ("D", 8))),
        ("path", 24),
        ("root", (("A", 7), ("D", 10))),
    ]
    # Warm-up only: sizes that no timed slot of the same family has.
    WARMUP = [
        ("root", (("A", 3), ("D", 4))),
        ("path", 12),
        ("ata", 8),
        ("inv-ij", 11),
    ]
    ROUNDS = 160
    TRACE_ROUNDS = 3

    def make(self, r: int, s: int) -> Input:
        family, arg = (self.SLOTS + self.WARMUP)[s]
        rng = random.Random(f"{self.name}:{r}:{s}")
        expect = {}
        n = sum(size for _, size in arg) if family == "root" else arg
        # Each round takes its own change of basis: a large one for the root
        # lattices, a small one that leaves the other forms nearly reduced.
        if family == "root":
            g = _direct_sum([_root_gram(kind, size) for kind, size in arg])
            g = _disguise(rng, g, 10**4)
            expect.update(minimum="2",
                          count=sum(_roots_up_to_sign(k, size) for k, size in arg))
        elif family == "path":
            half = Fraction(-1, 2)
            base = [[Fraction(1) if i == j else (half if abs(i - j) == 1 else 0)
                     for j in range(n)] for i in range(n)]
            g = _disguise(rng, base, 2)
            expect.update(minimum="1", count=n * (n + 1) // 2)
        elif family == "inv-ij":
            base = [[Fraction(n if i == j else -1, n + 1) for j in range(n)]
                    for i in range(n)]
            g = _disguise(rng, base, 2)
            expect.update(minimum=str(Fraction(n, n + 1)), count=n + 1)
        elif family == "ata":
            a = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
            g = [[sum(a[k][i] * a[k][j] for k in range(n)) + (i == j)
                  for j in range(n)] for i in range(n)]
        else:
            raise ValueError(family)
        rec = _record(g)
        expect["gram"] = rec["entries"]
        return Input(f"{r}.{s}", f"{family}-{n}", _dumps(rec),
                     _dumps(rec["entries"]), expect)

    def check(self, inp: Input, rc: int, out: dict) -> list:
        if rc != 0:
            return [f"exit status {rc}, expected 0"]
        errs = []
        exp = inp.expect
        if "minimum" in exp and out["minimum"] != exp["minimum"]:
            errs.append(f"minimum {out['minimum']}, expected {exp['minimum']}")
        if "count" in exp and out["num_minimizers"] != exp["count"]:
            errs.append(f"{out['num_minimizers']} minimizers, expected {exp['count']}")
        w = out["witness"]
        g = [[Fraction(x) for x in row] for row in exp["gram"]]
        first = next((x for x in w if x), 0)
        if first <= 0 or _form_value(g, w) != Fraction(out["minimum"]):
            errs.append("witness is zero, not sign-normalized, or misses the minimum")
        return errs

    def wrong_answer(self, out: dict) -> dict:
        out["num_minimizers"] += 1
        return out

    def golden_fields(self, rc: int, out: dict):
        if rc != 0:
            return [rc]
        return [rc, out["minimum"], out["witness"], out["num_minimizers"]]


# ----------------------------------------------------------- gendec-verify


# Ordinary decomposition matrices D (C = D^t D) used to expand dihedral data.
KRON_D = {3: [[1, 0], [0, 1], [1, 1]], 2: [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]}


def _dihedral(q: int, p: int):
    """Rows chi(u) for the dihedral group of order 2q, u a rotation of order
    q, as sparse zeta-exponent maps, with the heights of the characters."""
    rows = [{"0": 1}, {"0": 1}]
    heights = [0, 0]
    if p == 2:
        rows += [{"0": -1}, {"0": -1}]
        heights += [0, 0]
        top = q // 2 - 1
    else:
        top = (q - 1) // 2
    for j in range(1, top + 1):
        rows.append({str(j): 1, str(q - j): 1})
        heights.append(1 if p == 2 else 0)
    return rows, heights


class GendecVerify:
    name = "gendec-verify"
    argv = ["gendec", "verify"]
    # (q, Kronecker-expanded?, corrupted?).  Fifteen slots in five cost
    # clusters: q = 9 and 16 (ranks 1-5 when sorted by cost), q = 9 expanded
    # with S3 (ranks 6-10, where the median falls), q = 25, 27 and 32
    # (ranks 11-14, holding the 90th percentile) and q = 16 expanded with A4
    # (rank 15).  Conductors 49 and 64 are left out: one such operation takes
    # about 2.3 s, as long as a whole round.
    SLOTS = [
        (9, False, False),
        (9, True, False),
        (25, False, False),
        (16, False, True),
        (9, True, True),
        (27, False, False),
        (9, False, True),
        (9, True, False),
        (16, True, False),
        (16, False, False),
        (9, True, True),
        (32, False, False),
        (9, False, False),
        (9, True, False),
        (27, False, True),
    ]
    # Warm-up only: conductors that no timed slot has.
    WARMUP = [
        (8, False, False),
        (8, False, True),
        (11, False, False),
        (3, True, False),
        (4, True, False),
    ]
    ROUNDS = 160
    TRACE_ROUNDS = 3

    def __init__(self):
        self._cache = {}

    def _orders(self, cells):
        """Row orders giving distinct matrices, in a fixed shuffled order."""
        key = _dumps(cells)
        if key not in self._cache:
            seen = {}
            for perm in permutations(range(len(cells))):
                seen.setdefault(_dumps([cells[i] for i in perm]), list(perm))
            orders = [seen[k] for k in sorted(seen)]
            random.Random(key).shuffle(orders)
            self._cache[key] = orders
        return self._cache[key]

    def make(self, r: int, s: int) -> Input:
        slots = self.SLOTS + self.WARMUP
        q, expand, corrupt = slots[s]
        p = next(f for f in range(2, q + 1) if q % f == 0)
        rng = random.Random(f"{self.name}:{r}:{s}")
        rows, heights = _dihedral(q, p)
        cells = [[row] for row in rows]
        cbar = [[1]]
        if expand:
            d = KRON_D[p]
            cbar = [[sum(x[i] * x[j] for x in d) for j in range(len(d[0]))]
                    for i in range(len(d[0]))]
            cells = [[{e: c * x for e, c in row.items()} if x else {} for x in drow]
                     for row in rows for drow in d]
            heights = [h for h in heights for _ in d]
        # relabel Irr(B): a seeded order of the rows (and of their heights);
        # few rows have few orders, so those are dealt out without repeats
        order = list(range(len(cells)))
        if len(cells) <= 8:
            occurrence = slots[:s].count(slots[s])
            order = self._orders(cells)[occurrence * self.ROUNDS + r]
        else:
            rng.shuffle(order)
        cells = [cells[i] for i in order]
        heights = [heights[i] for i in order]
        if corrupt:
            # double a nonzero entry; zeta^j + zeta^-j vanishes at j = q/4
            vanishing = {str(q // 4), str(3 * q // 4)} if q % 4 == 0 else None
            spots = [(i, j) for i, row in enumerate(cells) for j, c in enumerate(row)
                     if c and set(c) != vanishing]
            i, j = rng.choice(spots)
            cells[i][j] = {e: 2 * c for e, c in cells[i][j].items()}
        l = len(cbar)
        data = {
            "label": f"d{2 * q}-{r}-{s}",
            "q": q,
            "p": p,
            "k": len(cells),
            "l": l,
            "spec": {
                "p": p,
                "q": q,
                "n_generators": [q - 1],
                "ibr_action": [list(range(1, l + 1))],
                "cartan": {"normalization": "b_bar", "matrix": _record(cbar)},
            },
            "q_matrix": {"powers": cells},
            "heights": heights,
        }
        family = f"q{q}-l{l}" + ("-corrupt" if corrupt else "")
        return Input(f"{r}.{s}", family, _dumps(data),
                     _dumps(cells), {"corrupt": corrupt})

    def check(self, inp: Input, rc: int, out: dict) -> list:
        corrupt = inp.expect["corrupt"]
        want_rc = 1 if corrupt else 0
        if rc != want_rc:
            return [f"exit status {rc}, expected {want_rc}"]
        passed = {c["name"]: c["passed"] for c in out["checks"]}
        errs = []
        if out["ok"] != (not corrupt):
            errs.append(f"ok is {out['ok']}")
        if passed.get("orthogonality") is not (not corrupt):
            errs.append(f"orthogonality passed = {passed.get('orthogonality')}")
        if not corrupt and not all(passed.values()):
            errs.append("a check failed on valid data")
        return errs

    def wrong_answer(self, out: dict) -> dict:
        out["ok"] = not out["ok"]
        return out

    def golden_fields(self, rc: int, out: dict):
        return [rc, out["ok"], sorted(c["name"] for c in out["checks"] if not c["passed"])]


WORKLOADS = {w.name: w for w in (BoundsCompare(), LatticeMin(), GendecVerify())}


# ------------------------------------------------- plain-Fraction arithmetic


def _form_value(g, x) -> Fraction:
    return sum(x[i] * g[i][j] * x[j] for i in range(len(x)) for j in range(len(x)) if x[i] and x[j])


def _inverse(m):
    """Gauss-Jordan inverse over Fractions, independent of the program's."""
    n = len(m)
    a = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        piv = next(i for i in range(c, n) if a[i][c])
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]
