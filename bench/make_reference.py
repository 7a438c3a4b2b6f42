"""Recompute `reference.json` from the builtin corpus.

Run from the repository root:

    python3 bench/make_reference.py

The oracle compares each generated group's report with these values, so
rerun this only when the engine's answers are meant to change. It takes
about a minute.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from nilweight.cli import run_command  # noqa: E402
from nilweight.corpus import builtin_by_name  # noqa: E402
from nilweight.sigma import prime_divisors  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402


def report(*argv):
    code, text = run_command([*argv, "--format", "machine"])
    if code == 2:
        raise SystemExit(f"{' '.join(argv)}: {text}")
    pairs, rows = oracle.parse_report(text)
    return code, dict(pairs), rows


def main() -> None:
    ref = {"groups": {}, "verify-a": {}, "verify-b": {}, "vertices": {}}
    for workload in workloads.WORKLOADS:
        for factors, specs in workloads.task_specs(workload):
            for name in factors:
                if name in ref["groups"]:
                    continue
                _, values, _ = report("chartab", "--group", name)
                order = int(values["order"])
                ref["groups"][name] = {
                    "order": order,
                    "degrees": [int(d) for d in values["degrees"].split(",")],
                    "sigma_classes": {
                        str(p): int(report("ipi", "--group", name, "--pi", str(p))[1]["count"])
                        for p in prime_divisors(order)
                        if "nonsolvable" not in builtin_by_name(name).tags
                    },
                }
            name = factors[0]
            for command, pi in specs:
                key = oracle.pi_key(pi)
                if command == "verify-a":
                    _, values, _ = report(command, "--group", name, "--pi", key)
                    met = all(v == "met" for k, v in values.items() if k.startswith("hypothesis:"))
                    if met and values["lhs"] != values["rhs"]:
                        raise SystemExit(f"{name} pi={key}: hypotheses met but lhs != rhs")
                    ref[command].setdefault(name, {})[key] = {
                        "lhs": int(values["lhs"]),
                        "rhs": int(values["rhs"]),
                        "verdict": values["verdict"],
                        "hypotheses_met": met,
                    }
                elif command == "verify-b":
                    _, values, _ = report(command, "--group", name, "--pi", key)
                    ref[command].setdefault(name, {})[key] = [
                        int(values["lhs-total"]),
                        int(values["rhs-total"]),
                    ]
                elif command == "vertices":
                    _, _, rows = report(command, "--group", name, "--pi", key)
                    ref[command].setdefault(name, {})[key] = oracle.vertex_rows(rows)
    text = json.dumps(ref, indent=1, sort_keys=True)
    # one line per list of numbers keeps the file short and diffable
    text = re.sub(r"\[[\d,\s\[\]]*\]", lambda m: re.sub(r"\s+", "", m.group()), text)
    oracle.REFERENCE.write_text(text + "\n")
    print(f"wrote {oracle.REFERENCE}")


if __name__ == "__main__":
    main()
