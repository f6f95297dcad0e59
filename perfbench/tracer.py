"""In-memory span tracer for the benchmark's traced pass.

The tracer wraps the public functions of each ``toricsheaves`` layer from
the outside; the package itself is not modified.  ``from .x import f``
binds ``f`` in the importing module at import time, so patching only the
defining module would miss callers in ``moduli``, ``stability`` and ``cli``.
``install`` therefore replaces the function in every ``toricsheaves.*``
namespace that holds it, and patches class attributes for the
``SubspaceQ`` and ``RatPoly`` methods.

Each call records one span: a name, a start and end time, and the index of
the enclosing span (-1 at the root).  Spans live in flat arrays until the
run ends.  A span's self time is its duration minus the time covered by its
direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

PACKAGE = "toricsheaves"

# module -> public functions traced under "<module>.<function>"
FUNCTIONS = {
    "subspace": ["rref"],
    "fan": ["validate_fan", "fan_from_json"],
    "intersect": ["divisor_class_equal", "intersection_table", "pair", "is_ample"],
    "family": [
        "reflexive_from_filtrations", "validate_torsion_free", "is_reflexive",
        "validate_family", "family_from_json", "restrict_to_face",
        "intersect_with_subspace", "characteristic_function", "gauge_fix",
    ],
    "chern": ["chern_character", "hilbert_polynomial", "bracket_dims"],
    "stability": [
        "distinguished_subspaces", "test_subspaces", "mu_test", "gieseker_test",
        "git_test", "mu_weights", "xi_weights", "choose_r",
    ],
    "moduli": ["enumerate_gauge_fixed_chi", "rank1_fixed_point_series", "rank2_p2_series"],
    # the CLI's input loaders; their spans make up cli.decode_share
    "cli": ["_load_fan", "_load_family", "_load_ample"],
}

# (module, class) -> {method: span name}
METHODS = {
    ("subspace", "SubspaceQ"): {
        m: f"subspace.SubspaceQ.{m}" for m in ("span", "intersect", "sum", "contains_vector")
    },
    # RatPoly arithmetic is aggregated under one name
    ("polynomials", "RatPoly"): {
        m: "polynomials.RatPoly"
        for m in ("__add__", "__sub__", "__neg__", "__mul__", "scale", "__call__")
    },
}


def _intersect_trivial(args, result):
    """Label a SubspaceQ.intersect call whose operands are zero, full or equal."""
    a, b = args[0], args[1]
    if not a.rows or not b.rows or len(a.rows) == a.ambient or len(b.rows) == b.ambient:
        return "trivial"
    return "trivial" if a.rows == b.rows else None


def _class_match(args, result):
    return "match" if result else None


# span name -> function(args, result) returning an outcome label or None
OUTCOMES = {
    "subspace.SubspaceQ.intersect": _intersect_trivial,
    "intersect.divisor_class_equal": _class_match,
}


def _cli_span_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv", ())
    return f"cli.run.{argv[0]}" if argv else "cli.run"


class Tracer:
    """Records spans of wrapped calls; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.outcomes: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, outcome=None):
        """Return ``fn`` wrapped in a span.  ``name`` is a string, or a
        function of the call's (args, kwargs) giving the name per call."""
        fixed = None if callable(name) else self._id(name)
        name_of, start, end, parent, stack = (
            self.name_of, self.start, self.end, self.parent, self._stack)
        ids, clock = self._id, self.clock
        outcomes = self.outcomes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else ids(name(args, kwargs))
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if outcome is not None:
                label = outcome(args, result)
                if label is not None:
                    outcomes[(nid, label)] += 1
            return result

        traced.__wrapped_by_tracer__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def _namespaces(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def install(self) -> None:
        """Wrap every traced function in every package namespace holding it."""
        for mod in FUNCTIONS:
            importlib.import_module(f"{PACKAGE}.{mod}")
        namespaces = self._namespaces()
        for mod, fnames in FUNCTIONS.items():
            module = sys.modules[f"{PACKAGE}.{mod}"]
            for fname in fnames:
                orig = getattr(module, fname, None)
                if orig is None:
                    self.missing.append(f"{mod}.{fname}")
                    continue
                self._replace_everywhere(namespaces, orig, self.wrap(
                    f"{mod}.{fname}", orig, OUTCOMES.get(f"{mod}.{fname}")))
        cli = sys.modules[f"{PACKAGE}.cli"]
        run = cli.run
        self._replace_everywhere(namespaces, run, self.wrap(_cli_span_name, run))
        for (mod, cls_name), methods in METHODS.items():
            cls = getattr(sys.modules[f"{PACKAGE}.{mod}"], cls_name)
            for meth, span in methods.items():
                raw = cls.__dict__.get(meth)
                if raw is None:
                    self.missing.append(f"{mod}.{cls_name}.{meth}")
                    continue
                if isinstance(raw, staticmethod):
                    new = staticmethod(self.wrap(span, raw.__func__, OUTCOMES.get(span)))
                else:
                    new = self.wrap(span, raw, OUTCOMES.get(span))
                self._patched.append((cls, meth, raw))
                setattr(cls, meth, new)

    def _replace_everywhere(self, namespaces, orig, wrapped) -> None:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is orig:
                    self._patched.append((ns, attr, orig))
                    setattr(ns, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self._patched):
            setattr(holder, attr, orig)
        self._patched.clear()

    def originals(self) -> list[tuple[object, str, object]]:
        """(holder, attribute, original) for every patched attribute."""
        return list(self._patched)

    # -- reduction ---------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls and self time; per (parent, child) name pair:
        calls; per (name, label): outcome counts."""
        n = len(self.name_of)
        child = [0.0] * n
        name_of, start, end, parent = self.name_of, self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        pairs: Counter = Counter()
        names = self.names
        for i in range(n):
            name = names[name_of[i]]
            calls[name] += 1
            self_s[name] += end[i] - start[i] - child[i]
            p = parent[i]
            pairs[(names[name_of[p]] if p >= 0 else None, name)] += 1
        outcomes = {(names[nid], label): c for (nid, label), c in self.outcomes.items()}
        return {"calls": calls, "self_s": self_s, "pairs": pairs, "outcomes": outcomes}

    def inclusive_s(self, names: set[str], under_prefix: str | None = None) -> float:
        """Total duration of spans named in ``names``; with ``under_prefix``,
        only those whose parent span's name starts with it."""
        ids = {self._ids[n] for n in names if n in self._ids}
        total = 0.0
        for i in range(len(self.name_of)):
            if self.name_of[i] not in ids:
                continue
            p = self.parent[i]
            if under_prefix is None or (
                    p >= 0 and self.names[self.name_of[p]].startswith(under_prefix)):
                total += self.end[i] - self.start[i]
        return total

    def write_tsv(self, fh, pass_index: int) -> None:
        """Write every span as ``pass, index, name, start, end, parent``."""
        names = self.names
        for i in range(len(self.name_of)):
            fh.write(f"{pass_index}\t{i}\t{names[self.name_of[i]]}\t"
                     f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\n")
