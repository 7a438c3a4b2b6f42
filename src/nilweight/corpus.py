"""Group definitions: the builtin corpus and the group-file format.

File grammar (one key per line, `#` starts a comment):

    name: S3
    degree: 3
    order: 6          # optional; checked against the constructed group
    gen: (1,2)
    gen: (1,2,3)

Cycle notation is 1-based, comma-separated, whitespace-insensitive, with
fixed points omitted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .groups import PermGroup, bsgs_construct
from .perms import MalformedPermError, Perm


# The largest degree a group file may declare, refused before any permutation
MAX_DEGREE = 100_000


class GroupFileError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


@dataclass(frozen=True)
class GroupDefinition:
    name: str
    degree: int
    generators: tuple[str, ...]
    expected_order: int | None = None
    tags: tuple[str, ...] = ()

    def build(self) -> PermGroup:
        perms = [Perm.parse(s, self.degree) for s in self.generators]
        G = bsgs_construct(perms, self.degree)
        if self.expected_order is not None and G.order != self.expected_order:
            raise GroupFileError(
                f"group {self.name!r} has order {G.order}, expected {self.expected_order}"
            )
        return G

    def to_text(self) -> str:
        lines = [f"name: {self.name}", f"degree: {self.degree}"]
        if self.expected_order is not None:
            lines.append(f"order: {self.expected_order}")
        lines += [f"gen: {s}" for s in self.generators]
        return "\n".join(lines) + "\n"


_NAME_RE = re.compile(r"[A-Za-z0-9_:x+.-]+")


def parse_group_file(text: str) -> GroupDefinition:
    """The definition in a group file; its group is built to check the order claim eagerly."""
    definition = parse_definition(text)
    definition.build()  # validates the order claim eagerly
    return definition


def parse_definition(text: str) -> GroupDefinition:
    """The definition in a group file, unbuilt: `build` checks its order claim."""
    name = None
    degree = None
    order = None
    gens: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise GroupFileError(f"expected 'key: value', got {line!r}", lineno)
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "name":
            if not _NAME_RE.fullmatch(value):
                raise GroupFileError(f"bad group name {value!r}", lineno)
            name = value
        elif key == "degree":
            try:
                degree = int(value)
            except ValueError:
                raise GroupFileError(f"bad degree {value!r}", lineno) from None
            if degree < 1:
                raise GroupFileError("degree must be positive", lineno)
            if degree > MAX_DEGREE:
                raise GroupFileError(f"degree {degree} exceeds the maximum {MAX_DEGREE}", lineno)
        elif key == "order":
            try:
                order = int(value)
            except ValueError:
                raise GroupFileError(f"bad order {value!r}", lineno) from None
        elif key == "gen":
            if degree is None:
                raise GroupFileError("degree must come before generators", lineno)
            try:
                Perm.parse(value, degree)
            except MalformedPermError as exc:
                raise GroupFileError(str(exc), lineno) from None
            gens.append(_normalize_cycles(value, degree))
        else:
            raise GroupFileError(f"unknown key {key!r}", lineno)
    if name is None:
        raise GroupFileError("missing 'name' line")
    if degree is None:
        raise GroupFileError("missing 'degree' line")
    return GroupDefinition(
        name=name, degree=degree, generators=tuple(gens), expected_order=order
    )


def _normalize_cycles(text: str, degree: int) -> str:
    return Perm.parse(text, degree).cycle_string()


def _d(name, degree, gens, order, tags=()) -> GroupDefinition:
    return GroupDefinition(name, degree, tuple(gens), order, tuple(tags))


def builtin_corpus() -> tuple[GroupDefinition, ...]:
    """The default corpus; every entry carries its expected order."""
    defs = [
        _d("triv", 1, [], 1),
        *[
            _d(f"C{n}", n, ["(" + ",".join(map(str, range(1, n + 1))) + ")"], n)
            for n in range(2, 13)
        ],
        _d("V4", 4, ["(1,2)(3,4)", "(1,3)(2,4)"], 4),
        _d("S3", 3, ["(1,2)", "(1,2,3)"], 6),
        _d("D8", 4, ["(1,2,3,4)", "(1,3)"], 8),
        _d("Q8", 8, ["(1,2,3,4)(5,6,7,8)", "(1,5,3,7)(2,8,4,6)"], 8),
        _d("D10", 5, ["(1,2,3,4,5)", "(2,5)(3,4)"], 10),
        _d("A4", 4, ["(1,2,3)", "(1,2)(3,4)"], 12),
        _d("D12", 6, ["(1,2,3,4,5,6)", "(2,6)(3,5)"], 12),
        _d("C3:C4", 7, ["(1,2,3)", "(2,3)(4,5,6,7)"], 12),
        _d("C3xC3:C2", 6, ["(1,2,3)", "(4,5,6)", "(1,4)(2,5)(3,6)"], 18, ["swap-action"]),
        _d("C7:C3", 7, ["(1,2,3,4,5,6,7)", "(2,3,5)(4,7,6)"], 21, ["frobenius"]),
        _d("S4", 4, ["(1,2)", "(1,2,3,4)"], 24),
        _d("S3xS3", 6, ["(1,2)", "(1,2,3)", "(4,5)", "(4,5,6)"], 36),
        _d("A4xC3", 7, ["(1,2,3)", "(1,2)(3,4)", "(5,6,7)"], 36),
        _d("A5", 5, ["(1,2,3,4,5)", "(3,4,5)"], 60, ["nonsolvable"]),
        _d("S4xC5", 9, ["(1,2)", "(1,2,3,4)", "(5,6,7,8,9)"], 120),
        _d(
            # (C3 x (C3 x C3)) : D8 with a unique normal C3; the D8 rotation
            # sends one C3xC3 axis to the other and inverts the normal C3
            "W216",
            9,
            [
                "(1,2,3)",
                "(4,5,6)",
                "(2,3)(4,7)(5,8,6,9)",
                "(2,3)(4,7)(5,8)(6,9)",
            ],
            216,
            ["clifford-vertex-example", "slow"],
        ),
    ]
    return tuple(defs)


#: entries recorded but never constructed: far beyond desk-scale bounds
SKIPPED_ENTRIES: tuple[tuple[str, str], ...] = (
    (
        "J4",
        "sporadic-scale; its known counting failure for the prime pair {5,7} "
        "(25 vs 30 against the relevant 2^(3+12).(S5xL3(2)) maximal subgroup) "
        "is documented, not recomputed",
    ),
)


def builtin_by_name(name: str) -> GroupDefinition:
    for d in builtin_corpus():
        if d.name == name:
            return d
    raise KeyError(f"no builtin group named {name!r}")
