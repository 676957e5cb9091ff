"""Layer tracing from outside the program.

``Tracer.install`` wraps the public functions of the measured modules at
every ``blockbounds.*`` module binding of the same function object (so
``bounds.form_minimum`` is wrapped as well as ``lattice.form_minimum``), plus
the constructors that validate, and the ``RationalMatrix`` methods that
build a matrix or compare two.  A wrapped call records a span
``(op, span, parent, name, start_ns, end_ns)`` in memory; spans of one
operation share ``op``.  The ``CyclotomicInteger`` arithmetic of ``gendec``
runs hundreds of thousands of times per operation, so it is counted, not
spanned; its time, like that of element access (``RationalMatrix.__getitem__``,
``row``, ``column``) and of private helpers, lands in the calling span.

A span's self time is its duration minus the durations of its direct
children, which run one after another inside it.  ``summarize`` checks that
the self times of each operation add up to the wall time measured around
the whole operation, so a missing root span or a misnested child shows.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

MEASURED = ("cli", "bounds", "weights", "lattice", "exactmat", "gendec")

# Share of an operation's wall time that its summed self times may miss: the
# call into the root wrapper and its return, a few microseconds.
SUM_TOLERANCE = 0.01

# Called too often to span; their time stays in the calling span.
_UNSPANNED = {"gendec": {"cyc_reduce", "galois_apply", "field_trace",
                         "neg_residue_index"},
              "weights": {"compose"}}

# Classes whose construction does real work (validation, closures).
_SPANNED_CLASSES = {"exactmat": ("CartanData",), "bounds": ("SubsectionSpec",),
                    "lattice": ("GramForm",), "gendec": ("GenDecData",),
                    "weights": ("PermutationAction",)}

# (module, class, method, name): spanned methods, then counted ones.
_SPANNED_METHODS = (
    ("exactmat", "RationalMatrix", "__init__", "exactmat.RationalMatrix"),
    ("exactmat", "RationalMatrix", "__matmul__", "exactmat.matmul"),
) + tuple(("exactmat", "RationalMatrix", meth, f"exactmat.RationalMatrix.{meth}")
          for meth in ("__add__", "__sub__", "__neg__", "scale", "transpose",
                       "__eq__", "__hash__"))
_COUNTED_METHODS = (
    ("gendec", "CyclotomicInteger", "__mul__", "gendec.cyclotomic_mul.calls"),
    ("gendec", "CyclotomicInteger", "__rmul__", "gendec.cyclotomic_mul.calls"),
    ("gendec", "CyclotomicInteger", "galois", "gendec.galois.calls"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.minimizers = 0
        self.op = -1
        self.active = False
        self._stack: list = []
        self._undo: list = []
        self.originals: dict = {}

    # ------------------------------------------------------------ wrapping

    def _span(self, fn, name):
        tracer = self
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[sid] = (tracer.op, sid, parent, name, t0, t1)
            if name == "lattice.form_minimum":
                tracer.minimizers += result.num_minimizers
            return result

        return wrapper

    def _count(self, fn, metric):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the measured layers of the imported ``blockbounds``."""
        mods = {name: sys.modules[f"blockbounds.{name}"] for name in MEASURED}
        targets = {}
        for name, mod in mods.items():
            public = ["run"] if name == "cli" else [
                attr for attr, obj in vars(mod).items()
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                and not attr.startswith("_")
                and attr not in _UNSPANNED.get(name, ())
            ]
            for attr in public:
                targets[id(vars(mod)[attr])] = f"{name}.{attr}"
            for cls in _SPANNED_CLASSES.get(name, ()):
                klass = vars(mod)[cls]
                self._set(klass, "__init__", self._span(klass.__init__, f"{name}.{cls}"))
        wrapped = {}
        for modname, mod in list(sys.modules.items()):
            if modname != "blockbounds" and not modname.startswith("blockbounds."):
                continue
            for attr, obj in list(vars(mod).items()):
                name = targets.get(id(obj))
                if name is None or not inspect.isfunction(obj):
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self._span(obj, name)
                    self.originals[name] = obj
                self._set(mod, attr, wrapped[id(obj)])
        for modname, cls, meth, metric in _SPANNED_METHODS:
            klass = vars(mods[modname])[cls]
            self._set(klass, meth, self._span(klass.__dict__[meth], metric))
        for modname, cls, meth, metric in _COUNTED_METHODS:
            klass = vars(mods[modname])[cls]
            self._set(klass, meth, self._count(klass.__dict__[meth], metric))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------- results

    def write(self, path: str):
        with gzip.open(path, "wt") as fh:
            fh.write("op,span,parent,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")

    def summarize(self, walls: list) -> tuple[dict, list]:
        """Per-layer figures over the traced operations, whose wall times in
        seconds are ``walls``, and a list of the operations whose self times
        do not add up to that wall time within ``SUM_TOLERANCE``."""
        child = defaultdict(int)
        for op, sid, parent, name, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_ns = Counter()
        incl_ns = Counter()
        calls = Counter()
        per_op_self = Counter()
        negative = set()
        outer_end = {}  # name -> end of its latest outermost span
        for op, sid, parent, name, t0, t1 in self.spans:
            own = t1 - t0 - child[sid]
            self_ns[name.split(".")[0]] += own
            self_ns[name] += own
            per_op_self[op] += own
            if own < 0:
                negative.add(op)
            calls[name] += 1
            if t0 >= outer_end.get(name, 0):  # not inside a span of the same name
                incl_ns[name] += t1 - t0
                outer_end[name] = t1
        gaps = [abs(1 - per_op_self[op] / (wall * 1e9)) for op, wall in enumerate(walls)]
        bad = [op for op, gap in enumerate(gaps) if op in negative or gap > SUM_TOLERANCE]
        ms = 1e-6 / len(walls)
        figures = {"self": {k: v * ms for k, v in self_ns.items()},
                   "incl": {k: v * ms for k, v in incl_ns.items()},
                   "calls": dict(calls), "max_gap": max(gaps)}
        return figures, bad
