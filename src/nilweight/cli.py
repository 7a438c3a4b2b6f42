"""Command-line frontend.

Subcommands: classes, chartab, subgroups, carter, ipi, vertices, weights,
verify-a, verify-b, bijection, properties, scan. Groups come from builtin
names or group files. Output is human text or a machine format: the first
line is `nilweight-report 1`, then tab-separated key/value lines, with
breakdown rows prefixed `row`.

Exit codes: 0 all verdicts hold or pass, 1 some verdict fails, 2 usage or
resource errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .cache import load_or_compute_table
from .corpus import GroupFileError, builtin_by_name, builtin_corpus, parse_definition
from .groups import ResourceLimitError, resource_bound
from .lattice import (
    carter_subgroups,
    nilpotent_sigma_subgroup_classes,
    subgroup_classes,
)
from .perms import MalformedPermError, Perm
from .pipartial import enumerate_weights, sigma_partial_characters, vertices
from .properties import run_property_suite
from .sigma import PrimeSet
from .verify import (
    FAILS,
    bijection_setup,
    check_canonical_bijection,
    check_carter_refinement,
    check_weight_count,
    scan_corpus,
)

EXIT_OK = 0
EXIT_FAILED_VERDICT = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


class Output:
    """Collects key/value pairs and rows; renders human or machine text."""

    def __init__(self, command: str, machine: bool):
        self.machine = machine
        self.pairs: list[tuple[str, str]] = [("command", command)]
        self.rows: list[tuple[str, ...]] = []

    def put(self, key: str, value) -> None:
        self.pairs.append((key, str(value)))

    def row(self, *cells) -> None:
        self.rows.append(tuple(str(c) for c in cells))

    def render(self) -> str:
        if self.machine:
            lines = ["nilweight-report 1"]
            lines += [f"{k}\t{v}" for k, v in self.pairs]
            lines += ["row\t" + "\t".join(r) for r in self.rows]
            return "\n".join(lines) + "\n"
        lines = [f"{k}: {v}" for k, v in self.pairs]
        lines += ["  " + "  ".join(r) for r in self.rows]
        return "\n".join(lines) + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser every call of `run_command` shares; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="nilweight",
        description="count nilpotent weights and partial characters of finite groups",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, run, help_, flags in SUBCOMMANDS:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(run=run)
        p.add_argument("--group", help="builtin name or group file path")
        p.add_argument("--format", choices=("human", "machine"), default="human")
        p.add_argument("--bound", type=int, default=None)
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
    return parser


def _resolve_group(arg: str | None):
    """The group's definition; its callers build the group once, which checks
    a group file's order claim."""
    if not arg:
        raise UsageError("--group is required for this command")
    path = Path(arg)
    if path.exists():
        definition = parse_definition(path.read_text())
    else:
        try:
            definition = builtin_by_name(arg)
        except KeyError:
            raise UsageError(
                f"unknown group {arg!r}: not a file and not a builtin"
            ) from None
    return definition


def _parse_pi(arg: str | None) -> PrimeSet:
    if arg is None:
        raise UsageError("--pi is required for this command")
    try:
        return PrimeSet.parse(arg)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _emit_report(out: Output, rep) -> None:
    out.put("check", rep.check)
    out.put("group", rep.group_name)
    out.put("pi", rep.sigma)
    if rep.detail:
        out.put("detail", rep.detail)
    for name, ok in rep.hypotheses:
        out.put(f"hypothesis:{name}", "met" if ok else "unmet")
    out.put("lhs", "n/a" if rep.lhs is None else rep.lhs)
    out.put("rhs", "n/a" if rep.rhs is None else rep.rhs)
    out.put("verdict", rep.verdict)
    for row in rep.rows:
        out.row(row.side, row.label, row.count)


def cmd_classes(args, out: Output) -> int:
    G = _resolve_group(args.group).build()
    out.put("group", args.group)
    out.put("order", G.order)
    out.put("degree", G.degree)
    classes = G.conjugacy_classes()
    out.put("classes", len(classes))
    for c in classes:
        out.row("class", c.representative.cycle_string(), c.element_order, c.size)
    return EXIT_OK


def cmd_chartab(args, out: Output) -> int:
    G = _resolve_group(args.group).build()
    try:
        tab, source = load_or_compute_table(G, args.cache_dir)
    except OSError as exc:
        raise UsageError(
            f"cannot use cache directory {args.cache_dir}: {exc.strerror or exc}"
        ) from None
    out.put("group", args.group)
    out.put("order", G.order)
    out.put("classes", len(G.conjugacy_classes()))
    out.put("conductor", tab.conductor)
    out.put("cache", source if args.cache_dir else "off")
    out.put("degrees", ",".join(str(d) for d in tab.degrees()))
    for c in G.conjugacy_classes():
        out.row("class", c.representative.cycle_string(), c.element_order, c.size)
    for chi in tab.irreducibles:
        out.row("char", *[str(v) for v in chi.values])
    return EXIT_OK


def cmd_subgroups(args, out: Output) -> int:
    G = _resolve_group(args.group).build()
    classes = subgroup_classes(G)
    out.put("group", args.group)
    out.put("order", G.order)
    out.put("subgroup-classes", len(classes))
    out.put("total-subgroups", sum(c.class_size for c in classes))
    for cls in classes:
        out.row(
            "subgroup",
            cls.order,
            cls.class_size,
            "nilpotent" if cls.is_nilpotent() else "-",
            "solvable" if cls.is_solvable() else "-",
            cls.representative.generator_label(),
        )
    return EXIT_OK


def cmd_carter(args, out: Output) -> int:
    G = _resolve_group(args.group).build()
    if not G.is_solvable():
        raise UsageError(
            f"group {args.group} is not solvable; Carter subgroups need a solvable group"
        )
    cls = carter_subgroups(G)
    out.put("group", args.group)
    out.put("carter-order", cls.order)
    out.put("carter-class-size", cls.class_size)
    out.put("carter-generators", cls.representative.generator_label())
    return EXIT_OK


def cmd_ipi(args, out: Output, with_vertices: bool = False) -> int:
    G = _resolve_group(args.group).build()
    sigma = _parse_pi(args.pi)
    if not G.is_sigma_separable(sigma):
        raise UsageError(
            f"group {args.group} is not separable for pi={sigma}; "
            "partial characters need a pi-separable group"
        )
    out.put("group", args.group)
    out.put("pi", sigma)
    phis = sigma_partial_characters(G, sigma)
    out.put("count", len(phis))
    out.put("sigma-classes", len(G.sigma_element_classes(sigma)))
    for phi in phis:
        cells = ["phi", phi.degree, ",".join(str(v) for v in phi.values)]
        if with_vertices:
            cls = vertices(phi)
            cells += [f"vertex-order={cls.order}", f"vertex-class-size={cls.class_size}"]
        out.row(*cells)
    return EXIT_OK


def cmd_weights(args, out: Output) -> int:
    G = _resolve_group(args.group).build()
    sigma = _parse_pi(args.pi)
    ws = enumerate_weights(G, sigma)
    out.put("group", args.group)
    out.put("pi", sigma)
    out.put("count", len(ws))
    for w in ws:
        gens = w.subgroup_class.representative.generator_label()
        out.row("weight", w.q_order, w.character.degree, gens)
    return EXIT_OK


def cmd_verify_a(args, out: Output) -> int:
    definition = _resolve_group(args.group)
    G = definition.build()
    sigma = _parse_pi(args.pi)
    rep = check_weight_count(G, sigma, definition.name)
    _emit_report(out, rep)
    return EXIT_FAILED_VERDICT if rep.verdict == FAILS else EXIT_OK


def cmd_verify_b(args, out: Output) -> int:
    definition = _resolve_group(args.group)
    G = definition.build()
    sigma = _parse_pi(args.pi)
    exit_code = EXIT_OK
    if args.r is not None:
        try:
            gens = [Perm.parse(s, G.degree) for s in args.r.split(";") if s.strip()]
            Rs = [G.subgroup(gens)]
        except (MalformedPermError, ValueError) as exc:
            raise UsageError(f"bad --r value: {exc}") from None
    # the checks build G's full lattice anyway, so the Hall flag and the R's
    # are read off it
    subgroup_classes(G)
    if args.r is None:
        coprime = sigma.complement_within(G.order)
        Rs = [cls.representative for cls in nilpotent_sigma_subgroup_classes(G, coprime)]
    reports = [check_carter_refinement(G, sigma, R, definition.name) for R in Rs]
    for rep in reports:
        _emit_report(out, rep)
        if rep.verdict == FAILS:
            exit_code = EXIT_FAILED_VERDICT
    lhs_total = sum(rep.lhs or 0 for rep in reports)
    rhs_total = sum(rep.rhs or 0 for rep in reports)
    out.put("lhs-total", lhs_total)
    out.put("rhs-total", rhs_total)
    return exit_code


def cmd_bijection(args, out: Output) -> int:
    definition = _resolve_group(args.group)
    G = definition.build()
    sigma = _parse_pi(args.pi)
    out.put("group", definition.name)
    out.put("pi", sigma)
    setup = bijection_setup(G, sigma)
    if setup is None:
        out.put("verdict", "hypotheses-unmet")
        out.put("reason", "no normal Hall sigma-subgroup with solvable complement")
        return EXIT_OK
    N, H = setup
    exit_code = EXIT_OK
    for cls in subgroup_classes(H):
        if not cls.is_nilpotent():
            continue
        rep = check_canonical_bijection(G, sigma, N, H, cls.representative, definition.name)
        _emit_report(out, rep)
        if rep.verdict == FAILS:
            exit_code = EXIT_FAILED_VERDICT
    return exit_code


def cmd_properties(args, out: Output) -> int:
    corpus = _corpus_groups(args)
    report = run_property_suite(corpus, seed=args.seed)
    out.put("outcomes", len(report.outcomes))
    out.put("failures", len(report.failures()))
    for prop, (passed, failed) in sorted(report.by_property().items()):
        out.row("property", prop, passed, failed)
    for o in report.failures():
        out.row("failure", o.prop, o.instance, o.note)
    out.put("verdict", "pass" if report.ok else "fail")
    return EXIT_OK if report.ok else EXIT_FAILED_VERDICT


def _corpus_groups(args):
    if args.group:
        definition = _resolve_group(args.group)
        return [(definition.name, definition.build())]
    return [(d.name, d.build()) for d in builtin_corpus()]


def _scan_one(payload):
    # the bound travels with the task: a worker process does not share the
    # caller's context under every start method
    name, text, bound = payload
    with resource_bound(bound):
        G = parse_definition(text).build()
        reports = scan_corpus([(name, G)])
    return [
        (
            rep.group_name,
            str(rep.sigma),
            "n/a" if rep.lhs is None else rep.lhs,
            "n/a" if rep.rhs is None else rep.rhs,
            rep.verdict,
        )
        for rep in reports
    ]


def cmd_scan(args, out: Output) -> int:
    if args.jobs < 1:
        raise UsageError("--jobs must be positive")
    if args.group:
        definitions = [_resolve_group(args.group)]
    else:
        definitions = list(builtin_corpus())
    payloads = [(d.name, d.to_text(), args.bound) for d in definitions]
    if args.jobs > 1:
        # the fork start method starts every worker at the first submit
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(payloads))) as pool:
            chunks = list(pool.map(_scan_one, payloads))
    else:
        chunks = [_scan_one(p) for p in payloads]
    verdicts = {"holds": 0, "fails": 0, "hypotheses-unmet": 0}
    for chunk in chunks:
        for name, sigma, lhs, rhs, verdict in chunk:
            out.row("report", name, sigma, lhs, rhs, verdict)
            verdicts[verdict] += 1
    for key, value in verdicts.items():
        out.put(key, value)
    return EXIT_FAILED_VERDICT if verdicts["fails"] else EXIT_OK


# the flags a subcommand reads besides --group, --format and --bound
FLAGS = {
    "pi": dict(default=None, help="comma-separated primes"),
    "r": dict(default=None, help="generators of R, separated by ';'"),
    "cache-dir": dict(default=None, help="character-table cache directory"),
    "jobs": dict(type=int, default=1, help="worker processes for the scan"),
    "seed": dict(type=int, default=0, help="seed of the Frobenius samples"),
}
SUBCOMMANDS = (
    ("classes", cmd_classes, "conjugacy classes", ()),
    ("chartab", cmd_chartab, "character table", ("cache-dir",)),
    ("subgroups", cmd_subgroups, "subgroup classes", ()),
    ("carter", cmd_carter, "the Carter subgroup class", ()),
    ("ipi", cmd_ipi, "irreducible partial characters", ("pi",)),
    (
        "vertices",
        lambda args, out: cmd_ipi(args, out, with_vertices=True),
        "partial characters with their vertices",
        ("pi",),
    ),
    ("weights", cmd_weights, "nilpotent weight classes", ("pi",)),
    ("verify-a", cmd_verify_a, "global weight count identity", ("pi",)),
    ("verify-b", cmd_verify_b, "per-R Carter refinement", ("pi", "r")),
    (
        "bijection",
        cmd_bijection,
        "explicit correspondence under a normal Hall subgroup",
        ("pi",),
    ),
    ("properties", cmd_properties, "run the full property suite", ("seed",)),
    ("scan", cmd_scan, "weight-count reports over the corpus", ("jobs",)),
)


def run_command(argv) -> tuple[int, str]:
    """Run one CLI invocation; returns (exit code, rendered output)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (EXIT_USAGE if exc.code not in (0, None) else EXIT_OK), ""
    out = Output(args.cmd, machine=args.format == "machine")
    try:
        if args.bound is not None and args.bound < 1:
            raise UsageError("--bound must be positive")
        with resource_bound(args.bound):
            code = args.run(args, out)
    except UsageError as exc:
        return EXIT_USAGE, f"error: {exc}\n"
    except (GroupFileError, MalformedPermError) as exc:
        return EXIT_USAGE, f"error: {exc}\n"
    except ResourceLimitError as exc:
        return EXIT_USAGE, f"resource error: {exc}\n"
    return code, out.render()


def main(argv=None) -> int:
    code, text = run_command(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
