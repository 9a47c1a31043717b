"""Outside-in tracer: wraps sgfact's public functions from the benchmark's side.

``src/`` is not modified.  ``install`` replaces each traced function in every
``sgfact`` module namespace that bound it (``presentation.factorizations``,
``catenary.graver_basis``, the names ``cli`` imports, ...), so calls made
inside the package are recorded too; ``uninstall`` puts the originals back.

Spans are kept in memory as ``(id, parent, job, function, start, end)`` and
written out by ``write``.  A function's self time is its spans' duration minus
the time their child spans cover.  Counts read from arguments and return
values are accumulated at call time.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

TRACED = {
    "core": ("affine_semigroup", "factorizations", "contains", "length_set", "delta_of_element"),
    "hilbert": (
        "integer_kernel_basis",
        "primitive_kernel_vectors",
        "graver_basis",
        "hilbert_basis",
        "minimal_solutions",
    ),
    "grobner": ("buchberger", "buchberger_extend", "normal_form", "reduce_basis", "toric_ideal"),
    "presentation": ("minimal_presentation", "betti_elements"),
    "delta": ("delta_set_hilbert", "delta_set_grobner"),
    "catenary": ("catenary_range", "catenary_dynamic", "mwst", "catenary_naive"),
    "tame": ("block_monoid", "full_semigroup", "tame_full", "tame_i_full", "minimals_principal_ideal"),
    "cli": ("run",),
}

NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _matrix_key(matrix) -> tuple:
    return tuple(tuple(int(c) for c in row) for row in matrix)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, int, float, float]] = []
        self.job = -1  # set by the caller before each job; spans of one job share it
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[tuple[int, int]] = []  # (span id, function index)
        self._next_id = 1
        self._seen_matrices: set[tuple] = set()
        self._patched: list[tuple[object, str, object]] = []
        self._mp_index = NAMES.index("presentation.minimal_presentation")

    # -- recording -------------------------------------------------------

    def _wrap(self, index: int, fn):
        name = NAMES[index]
        extra = getattr(self, "_on_" + name.replace(".", "_"), None)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            stack.append((span, index))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span, parent, self.job, index, start, end))
            if extra is not None:
                extra(args, kwargs, result)
            return result

        return traced

    def _on_core_factorizations(self, args, kwargs, result):
        self.counts["core.factorizations.fiber_total"] += len(result)
        self.counts["core.factorizations.fiber_max"] = max(
            self.counts["core.factorizations.fiber_max"], len(result)
        )
        if any(index == self._mp_index for _, index in self._stack):
            self.counts["presentation.minimal_presentation.fibers"] += 1

    def _on_hilbert_primitive_kernel_vectors(self, args, kwargs, result):
        self.counts["hilbert.primitive_kernel_vectors.out"] += len(result)
        key = _matrix_key(_first_arg(args, kwargs, "matrix"))
        if key in self._seen_matrices:
            self.counts["hilbert.primitive_kernel_vectors.repeats"] += 1
        self._seen_matrices.add(key)

    def _on_hilbert_minimal_solutions(self, args, kwargs, result):
        self.counts["hilbert.minimal_solutions.out"] += len(result)

    def _on_hilbert_hilbert_basis(self, args, kwargs, result):
        self.counts["hilbert.hilbert_basis.out"] += len(result)

    def _on_grobner_buchberger(self, args, kwargs, result):
        self.counts["grobner.buchberger.out"] += len(result.binomials)

    def _on_grobner_toric_ideal(self, args, kwargs, result):
        self.counts["grobner.toric_ideal.out"] += len(result.binomials)

    def _on_grobner_normal_form(self, args, kwargs, result):
        self.counts["grobner.normal_form.nonzero"] += not result.is_zero

    def _on_presentation_minimal_presentation(self, args, kwargs, result):
        self.counts["presentation.minimal_presentation.relations"] += len(result)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Replace every binding of a traced function in the loaded sgfact modules."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "sgfact" or n.startswith("sgfact.")]
        for index, name in enumerate(NAMES):
            mod_name, fn_name = name.split(".")
            home = sys.modules.get(f"sgfact.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(index, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, name -> (value, unit): calls and self time of each function, then extras."""
        calls: Counter = Counter()
        child_time: Counter = Counter()
        for _, parent, _, index, start, end in self.spans:
            calls[index] += 1
            if parent:
                child_time[parent] += end - start
        self_time: Counter = Counter()
        for span, _, _, index, start, end in self.spans:
            self_time[index] += (end - start) - child_time[span]
        out: dict[str, tuple[float, str]] = {}
        for index, name in enumerate(NAMES):
            out[f"{name}.calls"] = (calls[index], "count")
            out[f"{name}.self_s"] = (self_time[index], "s")

        c = self.counts

        def share(count: str, base: float) -> tuple[float, str]:
            return (c[count] / base if base else 0.0, "ratio")

        for name in (
            "core.factorizations.fiber_total",
            "core.factorizations.fiber_max",
            "hilbert.primitive_kernel_vectors.out",
            "hilbert.minimal_solutions.out",
            "hilbert.hilbert_basis.out",
            "grobner.buchberger.out",
            "grobner.toric_ideal.out",
        ):
            out[name] = (c[name], "count")
        out["hilbert.primitive_kernel_vectors.repeat_ratio"] = share(
            "hilbert.primitive_kernel_vectors.repeats", out["hilbert.primitive_kernel_vectors.calls"][0]
        )
        out["grobner.normal_form.nonzero_ratio"] = share(
            "grobner.normal_form.nonzero", out["grobner.normal_form.calls"][0]
        )
        out["presentation.minimal_presentation.hit_ratio"] = share(
            "presentation.minimal_presentation.relations", c["presentation.minimal_presentation.fibers"]
        )
        return out

    def write(self, path: str) -> None:
        """Write the spans as JSON: function names plus one row per span."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "job", "function", "start", "end"],
                    "functions": list(NAMES),
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )
