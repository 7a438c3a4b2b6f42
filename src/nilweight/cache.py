"""Disk cache for character tables.

Entries are keyed by a content hash of the canonical generators, the class
order fingerprint and an algorithm version, so changes to the table
algorithm invalidate old entries. The fingerprint is memoized on the group,
so the key and the entry written or checked share one list. A deserialized
table is rebuilt through the CharacterTable constructor, which puts its
rows in canonical order and certifies them before the table is used.
A write encodes each value object of the table once; a read decodes and
checks each distinct raw value once, keyed by its repr, and every cell
holding that raw value shares the one decoded object. Each write goes
through its own temp file in the cache directory and an atomic replace,
so concurrent writers of one entry do not collide.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from pathlib import Path

from .chartab import Character, CharacterTable, character_table
from .cyclotomic import Cyclotomic
from .groups import PermGroup, check_bound, memoized

ALGORITHM_VERSION = 1


@memoized()
def _class_fingerprint(G: PermGroup) -> list:
    """The class order as JSON gives it back: one list per class, shared by
    the key, the entry written and the entry check."""
    return [
        [c.element_order, c.size, list(c.representative.images)]
        for c in G.conjugacy_classes()
    ]


@memoized()
def table_cache_key(G: PermGroup) -> str:
    material = {
        "version": ALGORITHM_VERSION,
        "degree": G.degree,
        "generators": [list(g.images) for g in G.generators],
        "classes": _class_fingerprint(G),
    }
    blob = json.dumps(material, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _value_to_json(v: Cyclotomic):
    """[conductor, [e, num, den], ...]: each term as a reduced fraction, by exponent."""
    out = [v.conductor]
    for e, n in sorted(v.nums.items()):
        g = math.gcd(n, v.den)
        out.append([e, n // g, v.den // g])
    return out


def _value_from_json(data, exponent: int) -> Cyclotomic:
    """The inverse of _value_to_json, for a value in Q(zeta_exponent); ValueError otherwise.

    Entries must be integers with nonzero denominators, and the conductor
    must divide the group exponent, the conductor a table is certified at.
    One pass checks the terms and keeps the last of each exponent.
    """
    if not (isinstance(data, list) and data and type(data[0]) is int):
        raise ValueError("malformed cache value")
    terms, common = {}, 1
    for t in data[1:]:
        if not (isinstance(t, list) and len(t) == 3):
            raise ValueError("malformed cache value")
        e, num, den = t
        if not (type(e) is int and type(num) is int and type(den) is int and den):
            raise ValueError("malformed cache value")
        terms[e] = num, den
        if common % den:
            common = math.lcm(common, den)
    value = Cyclotomic(
        data[0], {e: num * (common // den) for e, (num, den) in terms.items()}, common
    )
    if exponent % value.conductor:
        raise ValueError("cache value conductor does not divide the group exponent")
    return value


def serialize_table(tab: CharacterTable) -> dict:
    """The cache entry of a table; each value object is encoded once and its
    list shared by every cell that holds it."""
    distinct = {id(v): v for chi in tab.irreducibles for v in chi.values}
    encoded = {k: _value_to_json(v) for k, v in distinct.items()}
    return {
        "version": ALGORITHM_VERSION,
        "key": table_cache_key(tab.group),
        "classes": _class_fingerprint(tab.group),
        "characters": [[encoded[id(v)] for v in chi.values] for chi in tab.irreducibles],
    }


def deserialize_table(G: PermGroup, data) -> CharacterTable:
    """The table of G stored in a cache entry; ValueError on any bad entry."""
    if not isinstance(data, dict):
        raise ValueError("cache entry is not an object")
    if data.get("version") != ALGORITHM_VERSION:
        raise ValueError("stale cache version")
    if data.get("key") != table_cache_key(G):
        raise ValueError("cache key mismatch")
    if data.get("classes") != _class_fingerprint(G):
        raise ValueError("class order mismatch")
    rows = data.get("characters")
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise ValueError("cache characters are not a list of rows")
    e = G.exponent()
    # one decoded object per distinct raw value, keyed by its repr: unlike the
    # raw value, the repr tells true and 1.0 apart from 1, so no term skips
    # the checks of _value_from_json by comparing equal to a checked one
    decoded: dict[str, Cyclotomic] = {}
    chars = []
    for row in rows:
        values = []
        for raw in row:
            key = repr(raw)
            if key not in decoded:
                decoded[key] = _value_from_json(raw, e)
            values.append(decoded[key])
        chars.append(Character(G, values))
    return CharacterTable(G, chars)


def load_or_compute_table(G: PermGroup, cache_dir):
    """Return (table, source) with source "warm" on a cache hit, else "cold"."""
    if cache_dir is None:
        return character_table(G), "cold"
    # a warm read obeys the bound a cold computation does, checked before the
    # key builds a class list and before the directory is made
    check_bound("table", G.order)
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"chartab-{table_cache_key(G)}.json"
    if path.exists():
        try:
            tab = deserialize_table(G, json.loads(path.read_text()))
            character_table.remember(G, tab)
            return tab, "warm"
        except (ValueError, KeyError, AssertionError, json.JSONDecodeError):
            pass  # stale or corrupt entry: fall through and recompute
    tab = character_table(G)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            # json.dumps runs the C encoder; json.dump always runs the Python one
            f.write(json.dumps(serialize_table(tab), separators=(",", ":")))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return tab, "cold"
