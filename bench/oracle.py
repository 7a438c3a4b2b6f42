"""Correctness oracle for the machine reports of the benchmark's tasks.

Every answer checked here is invariant under the relabelling the input
generator applies, so the expected values come from `reference.json`,
which `make_reference.py` computes from the builtin corpus. A report that
breaks an invariant, differs from the reference, or ends with exit code 2
counts as a failed task.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def parse_report(text: str):
    """(key/value pairs in order, rows) of a `nilweight-report 1` text."""
    lines = text.splitlines()
    if not lines or lines[0] != "nilweight-report 1":
        raise ValueError(f"not a machine report: {text[:80]!r}")
    pairs, rows = [], []
    for line in lines[1:]:
        key, _, value = line.partition("\t")
        if key == "row":
            rows.append(value.split("\t"))
        else:
            pairs.append((key, value))
    return pairs, rows


def pi_key(pi) -> str:
    return ",".join(map(str, pi))


def vertex_rows(rows) -> list[list[int]]:
    """Sorted (degree, vertex order, vertex class size) of `vertices` rows."""
    return sorted(
        [int(r[1]), int(r[3].split("=")[1]), int(r[4].split("=")[1])] for r in rows
    )


class Oracle:
    """Judges reports; remembers the first `chartab` report of each file."""

    def __init__(self, reference: dict):
        self.ref = reference
        self._first_table: dict[str, str] = {}

    def new_pass(self) -> None:
        """Forget earlier tables: the next pass starts with an empty cache."""
        self._first_table.clear()

    def check(self, task, code: int, text: str) -> str | None:
        """None when the report is right, else the reason it is wrong."""
        if code == 2:
            return f"exit 2: {text.strip()[:200]}"
        try:
            pairs, rows = parse_report(text)
            values = dict(pairs)  # the last value of a repeated key wins
            return getattr(self, "_" + task.command.replace("-", "_"))(
                task, code, pairs, values, rows
            )
        except (ValueError, KeyError, IndexError) as exc:
            return f"unreadable report: {exc!r}"

    def _verify_a(self, task, code, pairs, values, rows):
        want = self.ref["verify-a"][task.factors[0]][pi_key(task.pi)]
        got = {"lhs": values["lhs"], "rhs": values["rhs"], "verdict": values["verdict"]}
        if got != {k: str(want[k]) for k in got}:
            return f"verify-a gave {got}, expected {want}"
        if code != (1 if want["verdict"] == "fails" else 0):
            return f"exit {code} with verdict {got['verdict']}"
        return None

    def _verify_b(self, task, code, pairs, values, rows):
        totals = [int(values["lhs-total"]), int(values["rhs-total"])]
        if totals[0] != totals[1]:
            return f"lhs-total {totals[0]} != rhs-total {totals[1]}"
        want = self.ref["verify-b"][task.factors[0]][pi_key(task.pi)]
        if totals != want or code != 0:
            return f"verify-b totals {totals} exit {code}, expected {want} exit 0"
        return None

    def _ipi(self, task, code, pairs, values, rows):
        count = int(values["count"])
        if count != int(values["sigma-classes"]) or len(rows) != count:
            return f"{count} partial characters for {values['sigma-classes']} sigma-classes"
        want = 1
        for name in task.factors:
            # Iso of a direct product is a product; a factor of order prime
            # to pi has only its identity class
            want *= self.ref["groups"][name]["sigma_classes"].get(pi_key(task.pi), 1)
        if count != want or code != 0:
            return f"ipi count {count} exit {code}, expected {want} exit 0"
        return None

    def _vertices(self, task, code, pairs, values, rows):
        wrong = self._ipi(task, code, pairs, values, rows)
        if wrong:
            return wrong
        got = vertex_rows(rows)
        want = self.ref["vertices"][task.factors[0]][pi_key(task.pi)]
        if got != want:
            return f"(degree, vertex order, class size) {got}, expected {want}"
        return None

    def _chartab(self, task, code, pairs, values, rows):
        factors = [self.ref["groups"][name] for name in task.factors]
        order, classes = 1, 1
        degrees = Counter([1])
        for f in factors:
            order *= f["order"]
            classes *= len(f["degrees"])
            degrees = Counter(a * b for a in degrees.elements() for b in f["degrees"])
        got = [int(d) for d in values["degrees"].split(",")]
        chars = [r for r in rows if r[0] == "char"]
        if int(values["order"]) != order or sum(d * d for d in got) != order:
            return f"order {values['order']}, squared degrees sum to {sum(d * d for d in got)}"
        if int(values["classes"]) != classes or len(chars) != classes:
            return f"{len(chars)} characters, {values['classes']} classes, expected {classes}"
        if Counter(got) != degrees or [int(r[1]) for r in chars] != got:
            return f"degrees {got} are not the products of the factors' degrees"
        if code != 0:
            return f"exit {code}"
        # a warm read must reproduce the cold report apart from the cache line
        body = "\n".join(f"{k}\t{v}" for k, v in pairs if k != "cache") + repr(rows)
        first = self._first_table.get(task.path)
        if first is None:
            self._first_table[task.path] = body
        expected_source = "cold" if first is None else "warm"
        if values["cache"] != expected_source:
            return f"cache {values['cache']}, expected {expected_source}"
        if first is not None and body != first:
            return "warm report differs from the cold report"
        return None
