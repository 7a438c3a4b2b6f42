"""Seeded group files and the fixed task list of each workload.

A seed changes only the presentation of each group: its points are
relabelled at random, its generators shuffled, and one redundant random
word in the generators is added. The `order:` line is kept, so the engine
checks the order of every file it builds. Which groups, commands and prime
sets make up a workload does not depend on the seed, so every seed asks for
the same isomorphism-invariant answers and the same amount of work.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from pathlib import Path

from nilweight.corpus import builtin_corpus
from nilweight.sigma import prime_divisors

WORKLOADS = ("global-count", "vertex-search", "table-cache")

#: (left factor, right factor, prime for `ipi` or None when the product is
#: not solvable). Every product appears twice among the `chartab` tasks, so
#: half of those calls read an entry that an earlier call wrote.
TABLE_PRODUCTS = (
    ("S4", "S3", 3),
    ("A4", "D10", 5),
    ("S4", "D8", 2),
    ("C3xC3:C2", "A4", 3),
    ("S3xS3", "S3", 2),
    ("S4", "S4", 3),
    ("A4", "A4", 2),
    ("D10", "D12", 5),
    ("Q8", "S3", 3),
    ("S4", "C7:C3", 7),
    ("A5", "S3", None),
    ("A5", "C5", None),
    ("A5", "D10", None),
)


@dataclass(frozen=True)
class Task:
    """One CLI invocation and what the oracle needs to judge its report."""

    command: str
    path: str
    factors: tuple[str, ...]
    pi: tuple[int, ...] = ()

    def argv(self, cache_dir: str | None = None) -> list[str]:
        argv = [self.command, "--group", self.path, "--format", "machine"]
        if self.pi:
            argv += ["--pi", ",".join(map(str, self.pi))]
        if cache_dir is not None:
            argv += ["--cache-dir", cache_dir]
        return argv

    @property
    def label(self) -> str:
        pi = ",".join(map(str, self.pi))
        return f"{self.command} {'x'.join(self.factors)}" + (f" pi={pi}" if pi else "")


# --- presentations ---------------------------------------------------------

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _images(cycles: str, degree: int) -> list[int]:
    """0-based image list of a permutation in 1-based cycle notation."""
    images = list(range(degree))
    for body in _CYCLE_RE.findall(cycles):
        pts = [int(p) - 1 for p in body.split(",") if p.strip()]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return images


def _cycles(images: list[int]) -> str:
    seen = set()
    out = []
    for start in range(len(images)):
        if start in seen or images[start] == start:
            continue
        cycle = [start]
        seen.add(start)
        x = images[start]
        while x != start:
            cycle.append(x)
            seen.add(x)
            x = images[x]
        out.append("(" + ",".join(str(p + 1) for p in cycle) + ")")
    return "".join(out) or "()"


def _disguise(rng: random.Random, degree: int, gens: list[list[int]]) -> list[str]:
    """Relabel the points, shuffle the generators, add one redundant word."""
    word = list(range(degree))
    for _ in range(rng.randint(2, 4)):
        if gens:
            g = rng.choice(gens)
            word = [g[i] for i in word]
    gens = gens + [word]
    rng.shuffle(gens)
    relabel = list(range(degree))
    rng.shuffle(relabel)
    out = []
    for g in gens:
        moved = [0] * degree
        for i, j in enumerate(g):
            moved[relabel[i]] = relabel[j]
        out.append(_cycles(moved))
    return out


def _group_text(name: str, degree: int, order: int, gens: list[str]) -> str:
    lines = [f"name: {name}", f"degree: {degree}", f"order: {order}"]
    lines += [f"gen: {g}" for g in gens]
    return "\n".join(lines) + "\n"


def group_file_text(rng: random.Random, factors: tuple[str, ...]) -> str:
    """A disguised presentation of the direct product of builtin groups."""
    corpus = {d.name: d for d in builtin_corpus()}
    degree, order, gens = 0, 1, []
    for name in factors:
        d = corpus[name]
        for text in d.generators:
            images = _images(text, d.degree)
            gens.append(list(range(degree)) + [degree + i for i in images])
        degree += d.degree
        order *= d.expected_order
    gens = [g + list(range(len(g), degree)) for g in gens]
    return _group_text("x".join(factors), degree, order, _disguise(rng, degree, gens))


# --- task lists ------------------------------------------------------------


def task_specs(workload: str):
    """(factors, [(command, pi), ...]) pairs in the workload's fixed order.

    A run of the benchmark must stay short on a small shared host, so
    vertex-search leaves out the cyclic groups, whose searches are the
    trivial case, and stops `verify-b` at order 24.
    """
    corpus = builtin_corpus()
    solvable = [d for d in corpus if "nonsolvable" not in d.tags]
    if workload == "global-count":
        for d in corpus:
            primes = prime_divisors(d.expected_order)
            subsets = [
                s for k in range(1, len(primes)) for s in itertools.combinations(primes, k)
            ]
            if subsets:
                yield (d.name,), [("verify-a", s) for s in subsets]
    elif workload == "vertex-search":
        for command, top in (("verify-b", 24), ("vertices", 120)):
            for d in solvable:
                if 6 <= d.expected_order <= top and not re.fullmatch(r"C\d+", d.name):
                    primes = prime_divisors(d.expected_order)
                    yield (d.name,), [(command, (p,)) for p in primes]
    elif workload == "table-cache":
        for left, right, p in TABLE_PRODUCTS:
            tasks = [("chartab", ()), ("chartab", ())]
            if p is not None:
                tasks.append(("ipi", (p,)))
            yield (left, right), tasks
    else:
        raise ValueError(f"unknown workload {workload!r}")


def generate(workload: str, seed: int, directory: Path) -> list[Task]:
    """Write the workload's group files into `directory`; return its tasks.

    The same (workload, seed) always writes byte-identical files and
    returns the same task list.
    """
    rng = random.Random(f"{workload}/{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    tasks = []
    for index, (factors, specs) in enumerate(task_specs(workload)):
        path = directory / f"g{index:02d}.grp"
        path.write_text(group_file_text(rng, factors))
        tasks += [Task(command, str(path), factors, pi) for command, pi in specs]
    if workload == "table-cache":
        rng.shuffle(tasks)
    return tasks
