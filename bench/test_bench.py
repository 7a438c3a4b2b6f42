"""Tests of the benchmark itself: run with `python3 -m pytest bench -q`."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import nilweight.cli  # noqa: E402
import nilweight.lattice  # noqa: E402
import nilweight.perms  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE = oracle.load_reference()


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _small(tasks, top=72):
    """Tasks whose group has order at most `top`: cheap enough for a test."""
    out = []
    for task in tasks:
        order = 1
        for name in task.factors:
            order *= REFERENCE["groups"][name]["order"]
        if order <= top:
            out.append(task)
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_files(tmp_path, workload):
    first = workloads.generate(workload, 5, tmp_path / "a")
    second = workloads.generate(workload, 5, tmp_path / "b")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert [t.label for t in first] == [t.label for t in second]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_changes_files_but_not_answers(tmp_path, workload):
    tasks = {seed: workloads.generate(workload, seed, tmp_path / str(seed)) for seed in (5, 6)}
    a, b = _files(tmp_path / "5"), _files(tmp_path / "6")
    assert a.keys() == b.keys()
    assert sum(a[name] != b[name] for name in a) >= 0.9 * len(a)
    for seed, seed_tasks in tasks.items():
        judge = oracle.Oracle(REFERENCE)
        for task in _small(seed_tasks):
            cache = str(tmp_path / f"cache{seed}") if task.command == "chartab" else None
            code, text = nilweight.cli.run_command(task.argv(cache))
            assert judge.check(task, code, text) is None, (seed, task.label, text)


class _AlteredCli:
    """Stands in for nilweight.cli: runs a task, then changes one line."""

    def __init__(self, key, change):
        self.key, self.change = key, change

    def run_command(self, argv):
        code, text = nilweight.cli.run_command(argv)
        lines = text.splitlines()
        for i, line in enumerate(lines):
            key, _, value = line.partition("\t")
            if key == self.key:
                lines[i] = f"{key}\t{self.change(value)}"
        return code, "\n".join(lines) + "\n"


def _bump(value):
    return str(int(value) + 1)


@pytest.mark.parametrize(
    "workload, command, key, change",
    [
        ("global-count", "verify-a", "lhs", _bump),
        ("global-count", "verify-a", "rhs", _bump),
        ("vertex-search", "verify-b", "lhs-total", _bump),
        ("vertex-search", "vertices", "count", _bump),
        ("table-cache", "ipi", "sigma-classes", _bump),
        ("table-cache", "chartab", "degrees", lambda v: v.replace("2", "1", 1)),
    ],
)
def test_an_altered_count_is_a_failed_task(tmp_path, workload, command, key, change):
    tasks = [t for t in _small(workloads.generate(workload, 3, tmp_path)) if t.command == command]
    task = tasks[:1]
    judge = oracle.Oracle(REFERENCE)
    good = run.run_pass(nilweight.cli, task, str(tmp_path / "c1"), judge, run.Clock(), None)
    assert good.failures == []
    judge.new_pass()
    bad = run.run_pass(_AlteredCli(key, change), task, str(tmp_path / "c2"), judge, run.Clock(), None)
    assert len(bad.failures) == 1, bad.outputs


def test_warm_table_must_match_cold_table(tmp_path):
    task = [t for t in _small(workloads.generate("table-cache", 3, tmp_path)) if t.command == "chartab"][0]
    judge = oracle.Oracle(REFERENCE)
    cache = str(tmp_path / "cache")
    code, cold = nilweight.cli.run_command(task.argv(cache))
    assert judge.check(task, code, cold) is None
    code, warm = nilweight.cli.run_command(task.argv(cache))
    assert "cache\twarm" in warm
    altered = warm.replace("row\tchar\t1\t", "row\tchar\t1 \t", 1)
    assert judge.check(task, code, altered) is not None
    assert judge.check(task, code, warm) is None


def test_exit_2_and_exceptions_are_failures(tmp_path):
    task = _small(workloads.generate("global-count", 3, tmp_path))[0]
    judge = oracle.Oracle(REFERENCE)
    assert judge.check(task, 2, "error: boom\n") is not None

    class Crashing:
        def run_command(self, argv):
            raise RuntimeError("boom")

    p = run.run_pass(Crashing(), [task], None, judge, run.Clock(), None)
    assert len(p.failures) == 1 and "boom" in p.failures[0]


def test_reference_holds_the_identity_where_hypotheses_are_met():
    entries = [e for by_pi in REFERENCE["verify-a"].values() for e in by_pi.values()]
    assert any(e["verdict"] == "fails" for e in entries)  # the A5 boundary case
    for e in entries:
        if e["hypotheses_met"]:
            assert e["lhs"] == e["rhs"] and e["verdict"] == "holds"
    for by_pi in REFERENCE["verify-b"].values():
        for lhs, rhs in by_pi.values():
            assert lhs == rhs


def test_tracing_keeps_reports_and_restores_the_engine(tmp_path):
    tasks = _small(workloads.generate("vertex-search", 3, tmp_path), top=24)
    originals = (
        nilweight.cli.subgroup_classes,
        nilweight.lattice.subgroup_classes,
        nilweight.perms.Perm.__dict__["__mul__"],
    )
    plain = [nilweight.cli.run_command(t.argv()) for t in tasks]
    with tracing.Tracer() as tracer:
        assert nilweight.cli.subgroup_classes is not originals[0]
        assert nilweight.cli.subgroup_classes is nilweight.lattice.subgroup_classes
        traced = [nilweight.cli.run_command(t.argv()) for t in tasks]
    assert traced == plain
    assert originals == (
        nilweight.cli.subgroup_classes,
        nilweight.lattice.subgroup_classes,
        nilweight.perms.Perm.__dict__["__mul__"],
    )
    m = tracer.metrics()
    assert m["cli.run_command.calls"] == len(tasks)
    assert m["perms.mul.calls"] > 0 and m["pipartial.vertices.calls"] > 0
    assert m["lattice.subgroup_classes.s"] <= m["cli.run_command.s"]
    assert m["cache.load_or_compute_table.calls"] == 0


@pytest.mark.parametrize("n, pct", [(5, 50), (40, 75), (67, 85), (36, 72)])
def test_tail_percentile_leaves_ten_samples_above(n, pct):
    assert run.tail_percentile(n) == pct


def test_runner_offers_every_workload():
    assert run.WORKLOADS == workloads.WORKLOADS
