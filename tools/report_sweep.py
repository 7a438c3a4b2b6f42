"""Fingerprint the machine report of every builtin and desk-scale command.

Runs each command below in this process, through `nilweight.cli.run_command`
with `--format machine`, and prints one line per command: its exit code, the
sha256 of its report and its arguments, tab-separated. Two checkouts whose
outputs are equal produce byte-identical reports, exit codes included; run
it under more than one PYTHONHASHSEED to cover set iteration order too.

On every builtin group it runs `classes`, `chartab`, `subgroups` and
`carter`; `ipi`, `weights` and `verify-a` for every nonempty set of primes
dividing the order; `vertices`, `verify-b` and `bijection` for every such
prime; and then `scan` once. The desk-scale group files in
`tools/groups` follow: `subgroups` on seven of them, `verify-a --pi 2`
and `--pi 3` on ASL(2,3), AGL(2,3), S4 wr C2 and S3 wr S3, `verify-a` on
A6 with `--pi 5` and on L2(7) with `--pi 2`, `verify-b`, `vertices` and
`bijection` on ASL(2,3) and AGL(2,3) for each prime, and `verify-b` on
S4 wr C2 and S3 wr S3 for each prime. AGL(1,16), whose normal Hall
2-subgroup C2^4 has the complement C15, gets `bijection`,
`verify-a` and `verify-b` with `--pi 2`, and `verify-a --pi 3,5`. Above
the subgroup-lattice bound, S3 wr C4 (order 5184, `--bound 6000`) and
S4 wr C2 x C3 (order 3456, `--bound 4000`) get `verify-a --pi 2` and
`--pi 3`, about 1 s each, and so does S4 wr C3 (order 41,472,
`--bound 100000`, about 1.5 and 2.5 s), whose one-prime weights come from
Sylow intersections with no p-subgroup lattice. Every group file then gets `chartab`, well
under 1 s each, under the table bound or, for S4 wr C3, with
`--bound 100000`, and S4 wr C2 x C3 gets `chartab --cache-dir` twice on
one fresh temporary directory: the first line writes the cache entry and
the second reads it, so the warm read is fingerprinted too. Group paths
are given relative to the repository root, which the sweep runs in, so
the reports that echo the group argument agree between two checkouts.
The sweep prints 505 lines; `--properties` adds a 506th,
`properties --seed 0`, which takes minutes.

    PYTHONHASHSEED=0 python3 tools/report_sweep.py > sweep.txt
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GROUPS = ROOT / "tools" / "groups"
# printed as is; `main` runs the command on a fresh temporary directory
CACHE_DIR = "<temporary-dir>"
sys.path.insert(0, str(ROOT / "src"))

from nilweight.cli import run_command  # noqa: E402
from nilweight.corpus import builtin_corpus  # noqa: E402
from nilweight.sigma import prime_divisors  # noqa: E402


def sweep_commands(properties: bool) -> list[list[str]]:
    commands = []
    for d in builtin_corpus():
        group = ["--group", d.name]
        commands += [[cmd, *group] for cmd in ("classes", "chartab", "subgroups", "carter")]
        primes = prime_divisors(d.expected_order)
        for k in range(1, len(primes) + 1):
            for subset in itertools.combinations(primes, k):
                pi = ["--pi", ",".join(map(str, subset))]
                commands += [[cmd, *group, *pi] for cmd in ("ipi", "weights", "verify-a")]
        for p in primes:
            pi = ["--pi", str(p)]
            commands += [[cmd, *group, *pi] for cmd in ("vertices", "verify-b", "bijection")]
    commands.append(["scan"])
    commands += desk_scale_commands()
    if properties:
        commands.append(["properties", "--seed", "0"])
    return commands


def desk_scale_commands() -> list[list[str]]:
    solvable = ("ASL23", "AGL23", "S4wrC2", "S3wrS3")

    def group(name):
        return ["--group", f"tools/groups/{name}.txt"]

    commands = [["subgroups", *group(n)] for n in (*solvable, "L27", "A6", "S6")]
    commands += [["verify-a", *group(n), "--pi", p] for n in solvable for p in "23"]
    commands.append(["verify-a", *group("A6"), "--pi", "5"])
    commands.append(["verify-a", *group("L27"), "--pi", "2"])
    commands += [
        [cmd, *group(n), "--pi", p]
        for n in ("ASL23", "AGL23")
        for p in "23"
        for cmd in ("verify-b", "vertices", "bijection")
    ]
    commands += [
        ["verify-b", *group(n), "--pi", p] for n in ("S4wrC2", "S3wrS3") for p in "23"
    ]
    agl116 = group("AGL116")
    commands += [
        ["bijection", *agl116, "--pi", "2"],
        ["verify-a", *agl116, "--pi", "2"],
        ["verify-a", *agl116, "--pi", "3,5"],
        ["verify-b", *agl116, "--pi", "2"],
    ]
    commands += [
        ["verify-a", *group("S3wrC4"), "--pi", p, "--bound", "6000"] for p in "23"
    ]
    commands += [
        ["verify-a", *group("S4wrC2xC3"), "--pi", p, "--bound", "4000"] for p in "23"
    ]
    commands += [
        ["verify-a", *group("S4wrC3"), "--pi", p, "--bound", "100000"] for p in "23"
    ]
    above_the_table_bound = {"S4wrC3": ["--bound", "100000"]}
    commands += [
        ["chartab", *group(path.stem), *above_the_table_bound.get(path.stem, [])]
        for path in sorted(GROUPS.glob("*.txt"))
    ]
    # cold, then warm: the second reads the entry the first wrote
    commands += [["chartab", *group("S4wrC2xC3"), "--cache-dir", CACHE_DIR]] * 2
    return commands


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--properties", action="store_true", help="also run properties --seed 0 (slow)"
    )
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as cache_dir:
        for command in sweep_commands(args.properties):
            argv = [cache_dir if a == CACHE_DIR else a for a in command]
            code, text = run_command([*argv, "--format", "machine"])
            digest = hashlib.sha256(text.encode()).hexdigest()
            print(f"{code}\t{digest}\t{' '.join(command)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
