"""Timing wrappers installed from outside around thhcalc's public functions.

`Tracer.install` runs inside a benchmark child, after the CLI is imported.
It wraps every public function of the traced modules and every public
method of `bar_tor.BarComplex`, then rebinds each module global that still
names an original function, so that names bound by ``from .fp_linalg import
rank`` in other modules are traced too.

Each wrapper records calls, inclusive time and self time (the call's span
minus the wrapped calls nested inside it), plus a few counters at layer
boundaries.  Everything stays in memory, aggregated per function, and is
returned by `Tracer.raw` when the child ends.  `layer_metrics` turns the
merged raw data of one operation into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import weakref
from typing import Callable, Dict, List, Optional

MODULES = (
    "cli",
    "checks",
    "bar_tor",
    "spectral_engine",
    "multifold",
    "torus_model",
    "admissible_words",
    "graded_hopf",
    "fp_linalg",
)

# lru_caches read with cache_info(): metric prefix -> (module, attribute)
CACHES = {
    "graded_hopf.basis": ("graded_hopf", "_basis_cached"),
    "admissible_words.monic_degrees": ("admissible_words", "monic_degrees"),
}

# rank calls with both dimensions below this are "small"
SMALL = 64


class Tracer:
    def __init__(self) -> None:
        self.stack: List[List[int]] = [[0]]  # per open span: nested wrapped time (ns)
        self.stats: Dict[str, List[int]] = {}  # name -> [calls, inclusive ns, self ns]
        self.counts: Dict[str, int] = {}
        self._caches: Dict[str, tuple] = {}  # prefix -> (lru_cache, (hits, misses) at install)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers: Dict[int, Callable] = {}
        modules = {short: importlib.import_module("thhcalc." + short) for short in MODULES}
        for prefix, (short, attr) in CACHES.items():
            cache = getattr(modules[short], attr)
            self._caches[prefix] = (cache, tuple(cache.cache_info()[:2]))
        observers = self._observers()
        for short, mod in modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    key = f"{short}.{name}"
                    wrappers[id(obj)] = self._wrap(key, obj, observers.get(key))
        bar = modules["bar_tor"].BarComplex
        for name, fn in list(vars(bar).items()):
            if not name.startswith("_") and inspect.isfunction(fn):
                key = f"bar_tor.{name}"
                setattr(bar, name, self._wrap(key, fn, observers.get(key)))
        for modname, mod in list(sys.modules.items()):
            if modname == "thhcalc" or modname.startswith("thhcalc."):
                for name, obj in list(vars(mod).items()):
                    wrapper = wrappers.get(id(obj))
                    if wrapper is not None:
                        setattr(mod, name, wrapper)

    def _wrap(self, key: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        stat = self.stats.setdefault(key, [0, 0, 0])
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
            if observe is not None:
                observe(args, result, elapsed - frame[0])
            return result

        return wrapper

    def _observers(self) -> Dict[str, Callable]:
        counts = self.counts

        def add(name: str, value: int) -> None:
            counts[name] = counts.get(name, 0) + value

        def rank(args, result, self_ns):
            m = args[0]
            add("fp_linalg.rank.nnz", len(m.entries))
            add("fp_linalg.rank.rows", m.rows)
            add("fp_linalg.rank.rank", result)
            if m.rows < SMALL and m.cols < SMALL:
                add("fp_linalg.rank.small_self_ns", self_ns)

        def kernel_basis(args, result, self_ns):
            m = args[0]
            add("fp_linalg.kernel_basis.rows", m.rows)
            add("fp_linalg.kernel_basis.rank", m.cols - len(result))

        def mul_monomials(args, result, self_ns):
            add("graded_hopf.mul_monomials.zero", result is None)

        def relation_matrix(args, result, self_ns):
            add("multifold.relation_matrix.rows", result.rows)
            add("multifold.relation_matrix.nnz", len(result.entries))

        # BarComplex caches bases and differentials per (s, t); count each once.
        built: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

        def first_build(complex_, kind, s, t) -> bool:
            seen = built.setdefault(complex_, set())
            if (kind, s, t) in seen:
                return False
            seen.add((kind, s, t))
            return True

        def bar_basis(args, result, self_ns):
            if first_build(args[0], "basis", args[1], args[2]):
                add("bar_tor.basis.cells", len(result))

        def bar_differential(args, result, self_ns):
            if first_build(args[0], "differential", args[1], args[2]):
                add("bar_tor.differential.nnz", len(result.entries))

        return {
            "fp_linalg.rank": rank,
            "fp_linalg.kernel_basis": kernel_basis,
            "graded_hopf.mul_monomials": mul_monomials,
            "multifold.relation_matrix": relation_matrix,
            "bar_tor.basis": bar_basis,
            "bar_tor.differential": bar_differential,
        }

    # -- results ------------------------------------------------------------

    def raw(self) -> dict:
        caches = {}
        for prefix, (cache, (start_hits, start_misses)) in self._caches.items():
            hits, misses = cache.cache_info()[:2]
            caches[prefix] = [hits - start_hits, misses - start_misses]
        return {"stats": self.stats, "counts": self.counts, "caches": caches}


# ---------------------------------------------------------------------------
# parent side: merge the children of one operation, derive the metrics
# ---------------------------------------------------------------------------


def merge(raws: List[dict]) -> dict:
    out: dict = {"stats": {}, "counts": {}, "caches": {}}
    for raw in raws:
        for section in out:
            for key, value in raw[section].items():
                if isinstance(value, list):
                    acc = out[section].setdefault(key, [0] * len(value))
                    out[section][key] = [a + b for a, b in zip(acc, value)]
                else:
                    out[section][key] = out[section].get(key, 0) + value
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict) -> Dict[str, tuple]:
    """Per-layer metrics of one traced operation: name -> (value, unit)."""
    stats, counts, caches = raw["stats"], raw["counts"], raw["caches"]

    def calls(name):
        return (stats.get(name, [0, 0, 0])[0], "count")

    def self_s(name):
        return (stats.get(name, [0, 0, 0])[2] / 1e9, "s")

    def count(name):
        return (counts.get(name, 0), "count")

    def hit_ratio(prefix):
        hits, misses = caches.get(prefix, [0, 0])
        return (_ratio(hits, hits + misses), "ratio")

    m: Dict[str, tuple] = {}
    for name in ("fp_linalg.rank", "fp_linalg.kernel_basis", "fp_linalg.solve_membership"):
        m[name + ".calls"] = calls(name)
        m[name + ".self_s"] = self_s(name)
    m["fp_linalg.rank.nnz"] = count("fp_linalg.rank.nnz")
    m["fp_linalg.rank.rank_per_row"] = (_ratio(counts.get("fp_linalg.rank.rank", 0), counts.get("fp_linalg.rank.rows", 0)), "ratio")
    m["fp_linalg.rank.small_self_s"] = (counts.get("fp_linalg.rank.small_self_ns", 0) / 1e9, "s")
    m["fp_linalg.kernel_basis.rows"] = count("fp_linalg.kernel_basis.rows")
    m["fp_linalg.kernel_basis.rank_per_row"] = (
        _ratio(counts.get("fp_linalg.kernel_basis.rank", 0), counts.get("fp_linalg.kernel_basis.rows", 0)),
        "ratio",
    )

    m["graded_hopf.mul_monomials.calls"] = calls("graded_hopf.mul_monomials")
    m["graded_hopf.mul_monomials.zero_ratio"] = (
        _ratio(counts.get("graded_hopf.mul_monomials.zero", 0), stats.get("graded_hopf.mul_monomials", [0])[0]),
        "ratio",
    )
    for name in ("mul_monomials", "multiply", "coproduct", "power", "primitive_basis", "poincare_series"):
        m[f"graded_hopf.{name}.self_s"] = self_s(f"graded_hopf.{name}")
    m["graded_hopf.coproduct.calls"] = calls("graded_hopf.coproduct")
    m["graded_hopf.basis.calls"] = calls("graded_hopf.basis")
    m["graded_hopf.basis.cache_hit_ratio"] = hit_ratio("graded_hopf.basis")

    m["admissible_words.enumerate_words.calls"] = calls("admissible_words.enumerate_words")
    m["admissible_words.enumerate_words.self_s"] = self_s("admissible_words.enumerate_words")
    m["admissible_words.word_algebra.self_s"] = self_s("admissible_words.word_algebra")
    m["admissible_words.monic_degrees.cache_hit_ratio"] = hit_ratio("admissible_words.monic_degrees")

    m["bar_tor.basis.cells"] = count("bar_tor.basis.cells")
    m["bar_tor.basis.self_s"] = self_s("bar_tor.basis")
    m["bar_tor.differential.self_s"] = self_s("bar_tor.differential")
    m["bar_tor.differential.nnz"] = count("bar_tor.differential.nnz")
    m["bar_tor.square_is_zero.self_s"] = self_s("bar_tor.square_is_zero")

    m["multifold.relation_matrix.self_s"] = self_s("multifold.relation_matrix")
    m["multifold.relation_matrix.rows"] = count("multifold.relation_matrix.rows")
    m["multifold.relation_matrix.nnz"] = count("multifold.relation_matrix.nnz")
    m["multifold.lucas.calls"] = calls("multifold.lucas")
    for name in ("relation_module", "lucas_vs_pascal", "pinch_order_report"):
        m[f"multifold.{name}.self_s"] = self_s(f"multifold.{name}")

    for name in ("page_homology", "verify_p_term", "change_basis_cycles", "rognes_check"):
        m[f"spectral_engine.{name}.self_s"] = self_s(f"spectral_engine.{name}")

    m["torus_model.sigma.calls"] = calls("torus_model.sigma")
    m["torus_model.sigma.self_s"] = self_s("torus_model.sigma")
    m["torus_model.build_torus.self_s"] = self_s("torus_model.build_torus")

    for name, (_, inclusive_ns, _) in sorted(stats.items()):
        if name.startswith("checks.") and name != "checks.run_all":
            m[name + ".wall_s"] = (inclusive_ns / 1e9, "s")

    m["cli.main.calls"] = calls("cli.main")
    m["cli.main.self_s"] = self_s("cli.main")
    m["trace.self_s_sum"] = (sum(s[2] for s in stats.values()) / 1e9, "s")
    return m


def top_self(raw: dict, n: int = 10) -> List[tuple]:
    """The n wrapped functions with the most self time: (name, calls, self seconds)."""
    ranked = sorted(raw["stats"].items(), key=lambda kv: -kv[1][2])
    return [(name, s[0], s[2] / 1e9) for name, s in ranked[:n]]
