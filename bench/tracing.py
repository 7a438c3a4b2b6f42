"""Per-layer tracing from outside the engine.

`Tracer.install()` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent span, task id) or, for the
hottest operators, only bumps a counter. A function imported by name
(`from .lattice import subgroup_classes`) has a copy of its name in every
importing module, so the wrapper replaces every reference held by any
`nilweight.*` module namespace; methods, and their aliases such as
`__radd__ = __add__`, are replaced on their class. `uninstall()` puts the
originals back. Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# metric prefix -> (module, owner, attribute). `owner` is None for a module
# function, else a class in that module. Counted operators get no span.
SPANS = {
    "corpus.parse_group_file": ("corpus", None, "parse_group_file"),
    "groups.bsgs_construct": ("groups", None, "bsgs_construct"),
    "groups.Subgroup": ("groups", "Subgroup", "__init__"),
    "groups.normalizer": ("groups", "PermGroup", "normalizer"),
    "groups.find_hall_sigma_subgroup": ("groups", "PermGroup", "find_hall_sigma_subgroup"),
    "classes.conjugacy_classes": ("groups", "PermGroup", "conjugacy_classes"),
    "lattice.subgroup_classes": ("lattice", None, "subgroup_classes"),
    "lattice.subgroup_class_of": ("lattice", None, "subgroup_class_of"),
    "weights.enumerate_weights": ("pipartial", None, "enumerate_weights"),
    "weights.quotient": ("groups", "PermGroup", "quotient"),
    "chartab.character_table": ("chartab", None, "character_table"),
    "chartab.verify": ("chartab", "CharacterTable", "verify"),
    "chartab.induce_character": ("chartab", None, "induce_character"),
    "linalg.nonneg_integer_solution": ("linalg", None, "nonneg_integer_solution"),
    "linalg.solve_unique_rational": ("linalg", None, "solve_unique_rational"),
    "linalg.poly_roots_mod": ("linalg", None, "poly_roots_mod"),
    "linalg.nullspace_mod": ("linalg", None, "nullspace_mod"),
    "pipartial.sigma_partial_characters": ("pipartial", None, "sigma_partial_characters"),
    "pipartial.vertices": ("pipartial", None, "vertices"),
    "pipartial.induced_partial_values": ("pipartial", None, "induced_partial_values"),
    "verify.check_weight_count": ("verify", None, "check_weight_count"),
    "verify.check_carter_refinement": ("verify", None, "check_carter_refinement"),
    "cache.load_or_compute_table": ("cache", None, "load_or_compute_table"),
    "cache.deserialize_table": ("cache", None, "deserialize_table"),
    "cache.serialize_table": ("cache", None, "serialize_table"),
    "cli.run_command": ("cli", None, "run_command"),
}
COUNTERS = {
    "perms.mul": ("perms", "Perm", "__mul__"),
    "perms.conjugate": ("perms", "Perm", "conjugate"),
    "cyclotomic.mul": ("cyclotomic", "Cyclotomic", "__mul__"),
    "cyclotomic.add": ("cyclotomic", "Cyclotomic", "__add__"),
    # table verification does its cyclotomic arithmetic in these two
    "cyclotomic.weighted_conjugate_dot": ("cyclotomic", None, "weighted_conjugate_dot"),
    "cyclotomic.Cyclotomic": ("cyclotomic", "Cyclotomic", "__init__"),
}
# what a span keeps of its function's result, for the derived ratios
RESULT_NOTES = {
    "lattice.subgroup_classes": len,
    "cache.load_or_compute_table": lambda result: result[1],
}

NAME, START, END, PARENT, TASK, NOTE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, list[int]] = {name: [0] for name in COUNTERS}
        self.task = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # --- wrappers ------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = RESULT_NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.task, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    record[NOTE] = note(result)
                return result
            finally:
                stack.pop()
                record[END] = clock()

        return wrapper

    def _count_wrapper(self, name, fn):
        cell = self.counts[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- patching ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "nilweight"]
        for table, make in ((SPANS, self._span_wrapper), (COUNTERS, self._count_wrapper)):
            for name, (module, owner, attr) in table.items():
                mod = sys.modules[f"nilweight.{module}"]
                if owner is None:
                    original, holders = getattr(mod, attr), modules
                else:
                    cls = getattr(mod, owner)
                    original, holders = cls.__dict__[attr], [cls]
                wrapper = make(name, original)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._undo.append((holder, key, original))
                            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- results -------------------------------------------------------

    def write(self, path) -> None:
        """Write every span and counter as one JSON document."""
        doc = {
            "fields": ["name", "start", "end", "parent", "task", "note"],
            "spans": self.spans,
            "counts": {name: cell[0] for name, cell in self.counts.items()},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    def metrics(self) -> dict[str, float]:
        """Per-layer totals, self times and ratios from the recorded spans."""
        spans = self.spans
        ancestors = self._ancestor_names()
        calls = defaultdict(int)
        seconds = defaultdict(float)
        self_s = defaultdict(float)
        child_s = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child_s[rec[PARENT]] += rec[END] - rec[START]
        subgroup_made = defaultdict(int)  # subgroup_classes span -> Subgroups built in it
        cache_s = defaultdict(float)
        cache_calls = defaultdict(int)
        induced_in_vertices = vertices_found = nested_lattice = 0
        for i, rec in enumerate(spans):
            name, duration = rec[NAME], rec[END] - rec[START]
            calls[name] += 1
            if name not in ancestors[i]:  # a recursive call is not counted twice
                seconds[name] += duration
            self_s[name.split(".")[0]] += duration - child_s[i]
            in_vertices = "pipartial.vertices" in ancestors[i]
            if name == "groups.Subgroup" and "lattice.subgroup_classes" in ancestors[i]:
                subgroup_made[self._nearest(i, "lattice.subgroup_classes")] += 1
            elif name == "pipartial.induced_partial_values" and in_vertices:
                induced_in_vertices += 1
            elif name == "pipartial.vertices" and child_s[i]:
                vertices_found += 1  # a call answered from the memo has no children
            elif name == "lattice.subgroup_classes" and in_vertices:
                nested_lattice += 1
            elif name == "cache.load_or_compute_table":
                cache_s[rec[NOTE]] += duration
                cache_calls[rec[NOTE]] += 1

        out = {f"{name}.calls": float(cell[0]) for name, cell in self.counts.items()}
        for name in SPANS:
            out[f"{name}.calls"] = float(calls[name])
            out[f"{name}.s"] = seconds[name]
        for layer in ("groups", "lattice", "chartab", "pipartial", "verify", "cli"):
            out[f"{layer}.self_s"] = self_s[layer]
        # memo hits build no Subgroup, so only computed lattices are counted
        computed_classes = sum(spans[j][NOTE] for j in subgroup_made)
        out["lattice.subgroups_per_class"] = _ratio(sum(subgroup_made.values()), computed_classes)
        out["pipartial.candidates_per_vertex"] = _ratio(induced_in_vertices, vertices_found)
        out["pipartial.nested_lattice.calls"] = float(nested_lattice)
        out["cache.warm.s"] = cache_s["warm"]
        out["cache.cold.s"] = cache_s["cold"]
        out["cache.hit_ratio"] = _ratio(
            cache_calls["warm"], cache_calls["warm"] + cache_calls["cold"]
        )
        return out

    def _ancestor_names(self) -> list[frozenset]:
        """For each span, the names of all spans enclosing it."""
        shared: dict = {}
        out: list[frozenset] = []
        for rec in self.spans:
            parent = rec[PARENT]
            if parent < 0:
                out.append(frozenset())
                continue
            key = (out[parent], self.spans[parent][NAME])
            if key not in shared:
                shared[key] = key[0] | {key[1]}
            out.append(shared[key])
        return out

    def _nearest(self, i: int, name: str) -> int:
        j = self.spans[i][PARENT]
        while self.spans[j][NAME] != name:
            j = self.spans[j][PARENT]
        return j


def _ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, or 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0
