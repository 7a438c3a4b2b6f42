import argparse
import functools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest

import nilweight
from nilweight import cache, cli, corpus, groups
from nilweight.cli import run_command
from nilweight.corpus import builtin_by_name

GOLDEN_VERIFY_A_S4 = """nilweight-report 1
command\tverify-a
check\tweight-count
group\tS4
pi\t2
hypothesis:sigma-separable\tmet
hypothesis:solvable Hall subgroup\tmet
lhs\t2
rhs\t2
verdict\tholds
row\tlhs\torder=1 size=1 rep=()\t1
row\tlhs\torder=3 size=8 rep=(2,3,4)\t1
row\trhs\t|Q|=4 reps=1 <(1,2)(3,4),(1,3)(2,4)> gamma_deg=2\t1
row\trhs\t|Q|=8 reps=3 <(1,2)(3,4),(1,3,2,4),(3,4)> gamma_deg=1\t1
"""

GOLDEN_SUBGROUPS_A5 = """nilweight-report 1
command\tsubgroups
group\tA5
order\t60
subgroup-classes\t9
total-subgroups\t59
row\tsubgroup\t1\t1\tnilpotent\tsolvable\t()
row\tsubgroup\t2\t15\tnilpotent\tsolvable\t(2,3)(4,5)
row\tsubgroup\t3\t10\tnilpotent\tsolvable\t(3,4,5)
row\tsubgroup\t4\t5\tnilpotent\tsolvable\t(2,3)(4,5),(2,4)(3,5)
row\tsubgroup\t5\t6\tnilpotent\tsolvable\t(1,2,3,4,5)
row\tsubgroup\t6\t10\t-\tsolvable\t(3,4,5),(1,2)(4,5)
row\tsubgroup\t10\t6\t-\tsolvable\t(1,2,3,4,5),(2,5)(3,4)
row\tsubgroup\t12\t5\t-\tsolvable\t(2,3)(4,5),(2,4)(3,5),(3,4,5)
row\tsubgroup\t60\t1\t-\t-\t(3,4,5),(1,2)(4,5),(1,3)(4,5)
"""

GOLDEN_SUBGROUPS_S3xS3 = """nilweight-report 1
command\tsubgroups
group\tS3xS3
order\t36
subgroup-classes\t22
total-subgroups\t60
row\tsubgroup\t1\t1\tnilpotent\tsolvable\t()
row\tsubgroup\t2\t3\tnilpotent\tsolvable\t(5,6)
row\tsubgroup\t2\t3\tnilpotent\tsolvable\t(2,3)
row\tsubgroup\t2\t9\tnilpotent\tsolvable\t(2,3)(5,6)
row\tsubgroup\t3\t1\tnilpotent\tsolvable\t(4,5,6)
row\tsubgroup\t3\t1\tnilpotent\tsolvable\t(1,2,3)
row\tsubgroup\t3\t2\tnilpotent\tsolvable\t(1,2,3)(4,5,6)
row\tsubgroup\t4\t9\tnilpotent\tsolvable\t(2,3)(5,6),(5,6)
row\tsubgroup\t6\t1\t-\tsolvable\t(4,5,6),(5,6)
row\tsubgroup\t6\t3\tnilpotent\tsolvable\t(1,2,3),(5,6)
row\tsubgroup\t6\t3\tnilpotent\tsolvable\t(2,3),(4,5,6)
row\tsubgroup\t6\t3\t-\tsolvable\t(4,5,6),(2,3)(5,6)
row\tsubgroup\t6\t1\t-\tsolvable\t(1,2,3),(2,3)
row\tsubgroup\t6\t3\t-\tsolvable\t(1,2,3),(2,3)(5,6)
row\tsubgroup\t6\t6\t-\tsolvable\t(1,2,3)(4,5,6),(2,3)(5,6)
row\tsubgroup\t9\t1\tnilpotent\tsolvable\t(1,2,3)(4,5,6),(4,5,6)
row\tsubgroup\t12\t3\t-\tsolvable\t(2,3),(4,5,6),(5,6)
row\tsubgroup\t12\t3\t-\tsolvable\t(1,2,3),(2,3)(5,6),(5,6)
row\tsubgroup\t18\t1\t-\tsolvable\t(1,2,3)(4,5,6),(4,5,6),(5,6)
row\tsubgroup\t18\t1\t-\tsolvable\t(1,2,3)(4,5,6),(4,5,6),(2,3)
row\tsubgroup\t18\t1\t-\tsolvable\t(1,2,3)(4,5,6),(4,5,6),(2,3)(5,6)
row\tsubgroup\t36\t1\t-\tsolvable\t(1,2,3)(4,5,6),(4,5,6),(2,3)(5,6),(5,6)
"""

GOLDEN_SUBGROUPS_S4xC5 = """nilweight-report 1
command\tsubgroups
group\tS4xC5
order\t120
subgroup-classes\t22
total-subgroups\t60
row\tsubgroup\t1\t1\tnilpotent\tsolvable\t()
row\tsubgroup\t2\t6\tnilpotent\tsolvable\t(3,4)
row\tsubgroup\t2\t3\tnilpotent\tsolvable\t(1,2)(3,4)
row\tsubgroup\t3\t4\tnilpotent\tsolvable\t(2,3,4)
row\tsubgroup\t4\t3\tnilpotent\tsolvable\t(1,2)(3,4),(3,4)
row\tsubgroup\t4\t1\tnilpotent\tsolvable\t(1,2)(3,4),(1,3)(2,4)
row\tsubgroup\t4\t3\tnilpotent\tsolvable\t(1,2)(3,4),(1,3,2,4)
row\tsubgroup\t5\t1\tnilpotent\tsolvable\t(5,6,7,8,9)
row\tsubgroup\t6\t4\t-\tsolvable\t(2,3,4),(3,4)
row\tsubgroup\t8\t3\tnilpotent\tsolvable\t(1,2)(3,4),(1,3,2,4),(3,4)
row\tsubgroup\t10\t6\tnilpotent\tsolvable\t(3,4),(5,6,7,8,9)
row\tsubgroup\t10\t3\tnilpotent\tsolvable\t(1,2)(3,4),(5,6,7,8,9)
row\tsubgroup\t12\t1\t-\tsolvable\t(1,2)(3,4),(1,3)(2,4),(2,3,4)
row\tsubgroup\t15\t4\tnilpotent\tsolvable\t(2,3,4),(5,6,7,8,9)
row\tsubgroup\t20\t3\tnilpotent\tsolvable\t(1,2)(3,4),(3,4),(5,6,7,8,9)
row\tsubgroup\t20\t1\tnilpotent\tsolvable\t(1,2)(3,4),(1,3)(2,4),(5,6,7,8,9)
row\tsubgroup\t20\t3\tnilpotent\tsolvable\t(1,2)(3,4),(1,3,2,4),(5,6,7,8,9)
row\tsubgroup\t24\t1\t-\tsolvable\t(1,2)(3,4),(1,3)(2,4),(2,3,4),(3,4)
row\tsubgroup\t30\t4\t-\tsolvable\t(2,3,4),(3,4),(5,6,7,8,9)
row\tsubgroup\t40\t3\tnilpotent\tsolvable\t(1,2)(3,4),(1,3,2,4),(3,4),(5,6,7,8,9)
row\tsubgroup\t60\t1\t-\tsolvable\t(1,2)(3,4),(1,3)(2,4),(2,3,4),(5,6,7,8,9)
row\tsubgroup\t120\t1\t-\tsolvable\t(1,2)(3,4),(1,3)(2,4),(2,3,4),(3,4),(5,6,7,8,9)
"""

GOLDEN_VERIFY_B_S4 = """nilweight-report 1
command\tverify-b
check\tcarter-refinement
group\tS4
pi\t3
detail\tR=<()> |R|=1
hypothesis:sigma-separable\tmet
hypothesis:solvable Hall complement\tmet
hypothesis:R nilpotent sigma'-subgroup\tmet
lhs\t0
rhs\t0
verdict\tholds
check\tcarter-refinement
group\tS4
pi\t3
detail\tR=<(3,4)> |R|=2
hypothesis:sigma-separable\tmet
hypothesis:solvable Hall complement\tmet
hypothesis:R nilpotent sigma'-subgroup\tmet
lhs\t0
rhs\t0
verdict\tholds
check\tcarter-refinement
group\tS4
pi\t3
detail\tR=<(1,2)(3,4)> |R|=2
hypothesis:sigma-separable\tmet
hypothesis:solvable Hall complement\tmet
hypothesis:R nilpotent sigma'-subgroup\tmet
lhs\t0
rhs\t0
verdict\tholds
check\tcarter-refinement
group\tS4
pi\t3
detail\tR=<(1,2)(3,4),(3,4)> |R|=4
hypothesis:sigma-separable\tmet
hypothesis:solvable Hall complement\tmet
hypothesis:R nilpotent sigma'-subgroup\tmet
lhs\t0
rhs\t0
verdict\tholds
check\tcarter-refinement
group\tS4
pi\t3
detail\tR=<(1,2)(3,4),(1,3)(2,4)> |R|=4
hypothesis:sigma-separable\tmet
hypothesis:solvable Hall complement\tmet
hypothesis:R nilpotent sigma'-subgroup\tmet
lhs\t1
rhs\t1
verdict\tholds
check\tcarter-refinement
group\tS4
pi\t3
detail\tR=<(1,2)(3,4),(1,3,2,4)> |R|=4
hypothesis:sigma-separable\tmet
hypothesis:solvable Hall complement\tmet
hypothesis:R nilpotent sigma'-subgroup\tmet
lhs\t0
rhs\t0
verdict\tholds
check\tcarter-refinement
group\tS4
pi\t3
detail\tR=<(1,2)(3,4),(1,3,2,4),(3,4)> |R|=8
hypothesis:sigma-separable\tmet
hypothesis:solvable Hall complement\tmet
hypothesis:R nilpotent sigma'-subgroup\tmet
lhs\t1
rhs\t1
verdict\tholds
lhs-total\t2
rhs-total\t2
row\tinfo\tweights with first component R\t0
row\tinfo\tweights with first component R\t0
row\tinfo\tweights with first component R\t0
row\tinfo\tweights with first component R\t0
row\tlhs\tphi_deg=2 vertex=|Q|=4 reps=1 <(1,4)(2,3),(1,3)(2,4),(1,2)(3,4)>\t1
row\trhs\tlocal_phi_deg=2\t1
row\tinfo\tweights with first component R\t1
row\tinfo\tweights with first component R\t0
row\tlhs\tphi_deg=1 vertex=|Q|=8 reps=3 <(1,4)(2,3),(1,3)(2,4),(1,2)(3,4),(1,3,2,4),(3,4),(1,2),(1,4,2,3)>\t1
row\trhs\tlocal_phi_deg=1\t1
row\tinfo\tweights with first component R\t1
"""


class TestVerifyA:
    def test_s4_machine_golden(self):
        code, text = run_command(
            ["verify-a", "--group", "S4", "--pi", "2", "--format", "machine"]
        )
        assert code == 0
        assert text == GOLDEN_VERIFY_A_S4

    def test_a5_counterexample_exit_code(self):
        code, text = run_command(
            ["verify-a", "--group", "A5", "--pi", "2,3,5", "--format", "machine"]
        )
        assert code == 1
        assert "lhs\t1" in text and "rhs\t0" in text
        assert "verdict\tfails" in text
        assert "hypothesis:solvable Hall subgroup\tunmet" in text

    def test_a5_single_prime_is_not_a_failure(self):
        code, text = run_command(["verify-a", "--group", "A5", "--pi", "2"])
        assert code == 0
        assert "hypotheses-unmet" in text


class TestVerifyB:
    def test_s4_all_r(self):
        # the <...> generator lists of the vertex rows come from carter_fiber
        code, text = run_command(
            ["verify-b", "--group", "S4", "--pi", "3", "--format", "machine"]
        )
        assert code == 0
        assert text == GOLDEN_VERIFY_B_S4

    def test_s4_explicit_r(self):
        code, text = run_command(
            ["verify-b", "--group", "S4", "--pi", "3", "--r", "(1,2)(3,4);(1,3)(2,4)"]
        )
        assert code == 0
        assert "lhs: 1" in text and "rhs: 1" in text


class TestBijection:
    def test_a4(self):
        code, text = run_command(
            ["bijection", "--group", "A4", "--pi", "2", "--format", "machine"]
        )
        assert code == 0
        assert text.count("verdict\tholds") == 2  # R trivial and R = C3

    def test_s4_unqualified(self):
        code, text = run_command(["bijection", "--group", "S4", "--pi", "2"])
        assert code == 0
        assert "hypotheses-unmet" in text

    def test_theorem_violation_fails(self, monkeypatch):
        from nilweight import verify

        monkeypatch.setattr(
            verify, "_product_decomposition_holds", lambda G, N, H: False
        )
        code, text = run_command(
            ["bijection", "--group", "A4", "--pi", "2", "--format", "machine"]
        )
        assert code == 1
        assert text.count("rhs\t-1") == text.count("verdict\tfails") == 2
        assert text.count(" THEOREM-VIOLATION\n") == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-b", "--group", "S4", "--pi", "3"],
        ["verify-b", "--group", "S4", "--pi", "3", "--r", "(1,2)"],
        ["verify-b", "--group", "S4", "--pi", "2", "--r", "(1,2,3)"],
        ["bijection", "--group", "A4", "--pi", "2"],
        ["bijection", "--group", "C3xC3:C2", "--pi", "3"],
    ],
    ids=" ".join,
)
def test_the_hall_question_runs_no_second_cyclic_extension(monkeypatch, argv):
    # the full lattice is built before the Hall question, which then filters it
    from nilweight import lattice

    groups_seen = []
    real = lattice._cyclic_extension

    def counting(G, primes):
        groups_seen.append(G)  # held, so that no two groups share an id
        return real(G, primes)

    monkeypatch.setattr(lattice, "_cyclic_extension", counting)
    code, _ = run_command(argv)
    assert code == 0
    assert groups_seen and max(Counter(map(id, groups_seen)).values()) == 1


class TestOtherCommands:
    def test_classes(self):
        code, text = run_command(["classes", "--group", "S3", "--format", "machine"])
        assert code == 0
        assert "classes\t3" in text

    def test_chartab(self):
        code, text = run_command(["chartab", "--group", "S3"])
        assert code == 0
        assert "degrees: 1,1,2" in text

    def test_subgroups(self):
        code, text = run_command(["subgroups", "--group", "S4", "--format", "machine"])
        assert code == 0
        assert "subgroup-classes\t11" in text
        assert "total-subgroups\t30" in text

    def test_subgroups_a5_machine_golden(self):
        # the order-60 representative comes from the non-solvable completion
        code, text = run_command(["subgroups", "--group", "A5", "--format", "machine"])
        assert code == 0
        assert text == GOLDEN_SUBGROUPS_A5

    @pytest.mark.parametrize(
        "name, golden",
        [("S3xS3", GOLDEN_SUBGROUPS_S3xS3), ("S4xC5", GOLDEN_SUBGROUPS_S4xC5)],
        ids=["S3xS3", "S4xC5"],
    )
    def test_subgroups_machine_golden(self, name, golden):
        # each representative's generators come from the first candidate
        # that reached its class, so these pin the candidate order
        code, text = run_command(["subgroups", "--group", name, "--format", "machine"])
        assert code == 0
        assert text == golden

    def test_carter(self):
        code, text = run_command(["carter", "--group", "S4"])
        assert code == 0
        assert "carter-order: 8" in text

    def test_ipi_and_vertices(self):
        code, text = run_command(["ipi", "--group", "S4", "--pi", "3"])
        assert code == 0 and "count: 2" in text
        code, text = run_command(["vertices", "--group", "S4", "--pi", "3"])
        assert code == 0
        assert "vertex-order=8" in text and "vertex-order=4" in text

    def test_weights(self):
        code, text = run_command(
            ["weights", "--group", "S4", "--pi", "2", "--format", "machine"]
        )
        assert code == 0
        assert "count\t2" in text

    def test_scan_single_group(self):
        code, text = run_command(["scan", "--group", "S4", "--format", "machine"])
        assert code == 0
        assert "fails\t0" in text


class TestGroupFiles:
    def test_group_from_file(self, tmp_path):
        f = tmp_path / "g.grp"
        f.write_text("name: K\ndegree: 4\norder: 4\ngen: (1,2)(3,4)\ngen: (1,3)(2,4)\n")
        code, text = run_command(["classes", "--group", str(f)])
        assert code == 0
        assert "classes: 4" in text

    def test_bad_file_is_usage_error(self, tmp_path):
        f = tmp_path / "bad.grp"
        f.write_text("name: K\ndegree: 3\ngen: (1,2,2)\n")
        code, text = run_command(["classes", "--group", str(f)])
        assert code == 2
        assert "repeated point" in text

    @pytest.mark.parametrize(
        "degree, gens, message",
        [
            # refused at its line, before the generator would take gigabytes
            (10**9, ["(1,2)"], "error: degree 1000000000 exceeds the maximum 100000 (line 2)"),
            (80, ["(1,2)", "(" + ",".join(map(str, range(1, 81))) + ")"], "resource error:"),
        ],
    )
    def test_oversized_group_file_is_usage_error(self, tmp_path, degree, gens, message):
        f = tmp_path / "big.grp"
        f.write_text(f"name: Big\ndegree: {degree}\n" + "".join(f"gen: {g}\n" for g in gens))
        code, text = run_command(["classes", "--group", str(f)])
        assert code == 2
        assert text.startswith(message)

    def test_verify_a_builds_the_group_once(self, tmp_path, monkeypatch):
        f = tmp_path / "s4.grp"
        f.write_text("name: S4\ndegree: 4\norder: 24\ngen: (1,2)\ngen: (1,2,3,4)\n")
        builds = []
        real = corpus.bsgs_construct

        def recording(generators, degree=None):
            builds.append(degree)
            return real(generators, degree)

        monkeypatch.setattr(corpus, "bsgs_construct", recording)
        code, text = run_command(["verify-a", "--group", str(f), "--pi", "2"])
        assert code == 0
        assert builds == [4]

    @pytest.mark.parametrize("command", [["verify-a", "--pi", "2"], ["scan"]])
    def test_wrong_order_claim_is_usage_error(self, tmp_path, command):
        f = tmp_path / "s4.grp"
        f.write_text("name: S4\ndegree: 4\norder: 12\ngen: (1,2)\ngen: (1,2,3,4)\n")
        code, text = run_command([command[0], "--group", str(f), *command[1:]])
        assert code == 2
        assert "has order 24, expected 12" in text


class TestErrors:
    def test_unknown_builtin(self):
        code, text = run_command(["classes", "--group", "M24"])
        assert code == 2

    def test_missing_pi(self):
        code, text = run_command(["ipi", "--group", "S3"])
        assert code == 2

    def test_bad_pi(self):
        code, text = run_command(["ipi", "--group", "S3", "--pi", "4"])
        assert code == 2

    def test_huge_pi_entry(self):
        code, text = run_command(
            ["verify-a", "--group", "S4", "--pi", "1000000000000000000000000000057"]
        )
        assert code == 2
        assert "exceeds the largest accepted prime" in text

    def test_bound_exceeded(self):
        code, text = run_command(["classes", "--group", "S4", "--bound", "5"])
        assert code == 2
        assert "resource" in text

    @pytest.mark.parametrize("command", ["ipi", "vertices"])
    def test_non_separable_group(self, command):
        code, text = run_command([command, "--group", "A5", "--pi", "2"])
        assert code == 2
        assert text.startswith("error:") and "A5" in text and "pi=2" in text

    def test_non_separable_direct_product(self, tmp_path):
        f = tmp_path / "a5xc5.grp"
        f.write_text(
            "name: A5xC5\ndegree: 10\norder: 300\n"
            "gen: (1,2,3,4,5)\ngen: (3,4,5)\ngen: (6,7,8,9,10)\n"
        )
        code, text = run_command(["ipi", "--group", str(f), "--pi", "5"])
        assert code == 2
        assert text.startswith("error:") and str(f) in text and "pi=5" in text

    def test_unknown_subcommand(self):
        code, text = run_command(["frobnicate"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-a", "--group", "S4", "--pi", "2", "--cache-dir", "d"],
            ["chartab", "--group", "S3", "--seed", "7"],
            ["classes", "--group", "S3", "--pi", "2"],
        ],
    )
    def test_flag_the_command_does_not_read(self, argv):
        assert run_command(argv) == (2, "")

    def test_calls_share_one_parser(self, monkeypatch):
        parsers = []
        real_parse = argparse.ArgumentParser.parse_args

        def parse_args(self, *args, **kwargs):
            parsers.append(self)
            return real_parse(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", parse_args)
        first = run_command(["classes", "--group", "S3", "--format", "machine"])
        assert run_command(["classes", "--group", "S3", "--nope"]) == (2, "")
        assert run_command(["classes", "--group", "S3", "--format", "machine"]) == first
        assert first[0] == 0
        assert len(parsers) == 3 and parsers[0] is parsers[1] is parsers[2]

    def test_jobs_below_one(self):
        code, text = run_command(["scan", "--group", "S3", "--jobs", "0"])
        assert (code, text) == (2, "error: --jobs must be positive\n")

    def test_carter_of_nonsolvable_group(self):
        code, text = run_command(["carter", "--group", "A5"])
        assert code == 2
        assert text.startswith("error:") and "A5" in text

    def test_cache_dir_is_a_file(self, tmp_path):
        path = tmp_path / "plain-file"
        path.write_text("")
        code, text = run_command(["chartab", "--group", "S3", "--cache-dir", str(path)])
        assert code == 2
        assert text.startswith("error:") and str(path) in text


def _scale_row(index, k):
    def edit(entry):
        rows = entry["characters"]
        rows[index] = [[v[0]] + [[e, k * num, den] for e, num, den in v[1:]] for v in rows[index]]
        return entry

    return edit


def _add_thirds_to_last_value(addend):
    """Add sum of c * z3^k over addend {k: c} to the last value of the last row."""

    def edit(entry):
        m, *terms = entry["characters"][-1][-1]
        value = {e: Fraction(num, den) for e, num, den in terms}
        for k, c in addend.items():
            value[k * m // 3] = value.get(k * m // 3, 0) + c
        entry["characters"][-1][-1] = [m] + [
            [e, c.numerator, c.denominator] for e, c in sorted(value.items()) if c
        ]
        return entry

    return edit


def _lift_to_twice_the_element_order(entry):
    # a value on a class of element order o lies in Q(zeta_o); store it at
    # conductor 2o wherever 2o still divides the group exponent
    orders = [order for order, _, _ in entry["classes"]]
    exponent = math.lcm(*orders)
    for row in entry["characters"]:
        for k, o in enumerate(orders):
            if exponent % (2 * o) == 0:
                m, *terms = row[k]
                row[k] = [2 * o] + [[e * 2 * o // m, num, den] for e, num, den in terms]
    return entry


def _lift_last_value_past_the_exponent(entry):
    m, *terms = entry["characters"][-1][-1]
    entry["characters"][-1][-1] = [2 * m] + [[2 * e, num, den] for e, num, den in terms]
    return entry


def _alter_last_value(entry):
    rows = entry["characters"]
    rows[-1][-1] = [rows[-1][-1][0], [0, 1, 1]]
    return entry


def _swap_first_rows(entry):
    rows = entry["characters"]
    rows[0], rows[1] = rows[1], rows[0]
    return entry


def _set_last_value(value):
    def edit(entry):
        entry["characters"][-1][-1] = value
        return entry

    return edit


def _set_characters(entry):
    entry["characters"] = 5
    return entry


class TestCache:
    def test_cold_then_warm_identical_output(self, tmp_path):
        cache = tmp_path / "cache"
        argv = [
            "chartab", "--group", "S4", "--format", "machine", "--cache-dir", str(cache),
        ]
        code1, text1 = run_command(argv)
        assert code1 == 0 and "cache\tcold" in text1
        code2, text2 = run_command(argv)
        assert code2 == 0 and "cache\twarm" in text2
        strip = lambda t: [l for l in t.splitlines() if not l.startswith("cache")]
        assert strip(text1) == strip(text2)
        assert list(cache.glob("chartab-*.json"))

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path):
        cache = tmp_path / "cache"
        argv = ["chartab", "--group", "S3", "--format", "machine", "--cache-dir", str(cache)]
        run_command(argv)
        for f in cache.glob("chartab-*.json"):
            f.write_text('{"version": 999}')
        code, text = run_command(argv)
        assert code == 0 and "cache\tcold" in text

    @pytest.mark.parametrize(
        "group, edit, source",
        [
            ("S3", _scale_row(-1, -1), "cold"),
            ("S3", _alter_last_value, "cold"),
            ("S4", _swap_first_rows, "warm"),
            ("S3", lambda entry: [entry], "cold"),
            ("S3", _set_characters, "cold"),
            ("S3", _set_last_value([]), "cold"),
            ("S3", _set_last_value(3), "cold"),
            ("S3", _set_last_value([1, [0, 1, 0]]), "cold"),
            ("S3", _lift_last_value_past_the_exponent, "cold"),
            ("S3", _add_thirds_to_last_value(dict.fromkeys([0, 1, 2], Fraction(1, 2))), "warm"),
            ("S4", _lift_to_twice_the_element_order, "warm"),
            ("S3", _add_thirds_to_last_value({1: 1, 2: -1}), "cold"),
            ("S3", _scale_row(0, 2), "cold"),
        ],
        ids=[
            "negated-row", "altered-value", "swapped-rows", "top-level-list",
            "characters-not-a-list", "empty-value", "value-not-a-list", "zero-denominator",
            "conductor-not-dividing-exponent", "vanishing-sum-added",
            "lifted-to-twice-the-element-order", "changed-by-z3-minus-z3-squared",
            "row-scaled-by-2",
        ],
    )
    def test_edited_entry_gives_the_cold_report(self, tmp_path, group, edit, source):
        # a bad entry is recomputed; reordered rows are accepted and sorted
        argv = ["chartab", "--group", group, "--format", "machine", "--cache-dir", str(tmp_path)]
        cold = run_command(argv)[1]
        (path,) = tmp_path.glob("chartab-*.json")
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        assert run_command(argv) == (0, cold.replace("cache\tcold", f"cache\t{source}"))

    def test_value_outside_the_table_field_is_refused(self):
        s3 = builtin_by_name("S3").build()
        entry = cache.serialize_table(cache.character_table(s3))
        with pytest.raises(ValueError, match="does not divide the group exponent"):
            cache.deserialize_table(s3, _lift_last_value_past_the_exponent(entry))

    @pytest.mark.parametrize(
        "data, built",
        [
            ([True, [0, 1, 1]], None),
            ([3, [0, True, 1]], None),
            ([3, [0, 1, False]], None),
            ([3, [False, 1, 1]], None),
            ([3, [0, 1, 0]], None),
            ([3, [1, 1, -2]], (3, {1: -1}, 2)),
            ([3, [1, 1, -2], [2, 1, 2]], (3, {1: -1, 2: 1}, 2)),
            ([3, 5], None),
            ([3, (1, 1, 1)], None),
            ([3, [1, 1]], None),
            ([3, [1, 1, 1, 1]], None),
            ([3, [1, 1, 2], [1, 3, 4]], (3, {1: 3}, 4)),
            ([3, [1, 1, 0], [1, 3, 4]], None),
            ([3, [1, 1, 2], [4, 1, 2]], (3, {1: 1}, 1)),
            ([5, [1, 1, 1]], None),
            ([0, [0, 1, 1]], None),
            ([-3, [1, 1, 1]], None),
            ([], None),
            ([3], (3, {}, 1)),
            ([3.0, [1, 1, 1]], None),
            ([3, [1.0, 1, 1]], None),
            ([3, [1, 1, 1], [2, 0, 5]], (3, {1: 1}, 1)),
            ([12, [13, 1, 3], [1, 1, 6]], (12, {1: 1}, 2)),
            ([6, [1, 2, -4], [5, -3, 9]], (6, {1: -3, 5: -2}, 6)),
        ],
    )
    def test_each_cache_value_is_read_or_refused(self, data, built):
        # bools, zero denominators, malformed terms and foreign conductors are
        # refused; a negative denominator is accepted, the last duplicate exponent wins
        if built is None:
            with pytest.raises(ValueError):
                cache._value_from_json(data, 12)
        else:
            value = cache._value_from_json(data, 12)
            assert (value.conductor, value.nums, value.den) == built

    def test_concurrent_writers_of_one_entry(self, tmp_path, monkeypatch):
        # both writers finish their temp file before either renames it
        barrier = threading.Barrier(2, timeout=60)
        real_replace = os.replace

        def replace(src, dst):
            barrier.wait()
            real_replace(src, dst)

        monkeypatch.setattr(cache.os, "replace", replace)
        s4 = builtin_by_name("S4")
        with ThreadPoolExecutor(2) as pool:
            writes = [
                pool.submit(cache.load_or_compute_table, s4.build(), tmp_path)
                for _ in range(2)
            ]
        assert [w.result()[1] for w in writes] == ["cold", "cold"]
        assert len(list(tmp_path.glob("chartab-*.json"))) == 1
        assert list(tmp_path.glob("*.tmp")) == []

    def test_warm_read_obeys_table_bound(self, tmp_path, monkeypatch):
        argv = ["chartab", "--group", "S4", "--format", "machine", "--cache-dir"]
        warm, cold = tmp_path / "warm", tmp_path / "cold"
        assert run_command(argv + [str(warm)])[0] == 0
        monkeypatch.setitem(groups.DEFAULT_BOUNDS, "table", 10)
        for cache_dir in (cold, warm):
            code, text = run_command(argv + [str(cache_dir)])
            assert code == 2
            assert text == "resource error: group order 24 exceeds table bound 10\n"

    def test_the_bound_is_checked_before_any_class_list_or_directory(self, tmp_path, monkeypatch):
        monkeypatch.setitem(groups.DEFAULT_BOUNDS, "table", 10)
        argv = ["chartab", "--group", "S4", "--format", "machine", "--cache-dir"]
        code, text = run_command(argv + [str(tmp_path / "cli")])
        assert code == 2
        assert text == "resource error: group order 24 exceeds table bound 10\n"
        G = builtin_by_name("S4").build()
        message = "^group order 24 exceeds table bound 10$"
        with pytest.raises(groups.ResourceLimitError, match=message):
            cache.load_or_compute_table(G, tmp_path / "direct")
        assert groups.PermGroup.conjugacy_classes.peek(G) is None
        assert list(tmp_path.iterdir()) == []

    def test_each_command_builds_one_class_fingerprint(self, tmp_path, monkeypatch):
        builds = []
        fingerprint = cache._class_fingerprint
        peek = getattr(fingerprint, "peek", lambda G: None)

        def counting(G):
            if peek(G) is None:
                builds.append(G.order)
            return fingerprint(G)

        monkeypatch.setattr(cache, "_class_fingerprint", counting)
        argv = ["chartab", "--group", "S4xC5", "--format", "machine", "--cache-dir", str(tmp_path)]
        for source in ("cold", "warm"):
            code, text = run_command(argv)
            assert code == 0 and f"cache\t{source}\n" in text
            assert builds == [120]
            builds.clear()


class TestJobs:
    def test_parallel_scan_matches_serial(self):
        serial = run_command(["scan", "--group", "A5", "--format", "machine"])
        parallel = run_command(
            ["scan", "--group", "A5", "--format", "machine", "--jobs", "2"]
        )
        assert serial == parallel

    def test_bound_reaches_spawned_workers(self, monkeypatch):
        spawn = multiprocessing.get_context("spawn")
        pool = functools.partial(ProcessPoolExecutor, mp_context=spawn)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)
        code, text = run_command(["scan", "--group", "S4", "--jobs", "2", "--bound", "5"])
        assert code == 2
        assert "resource error" in text

    def test_workers_never_outnumber_tasks(self, monkeypatch):
        # a fork pool starts all max_workers at the first submit, so record
        # the request in a serial stand-in that starts no process
        requested = []

        class SerialPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        argv = ["scan", "--group", "S4", "--format", "machine"]
        assert run_command(argv + ["--jobs", "5000"]) == run_command(argv)
        assert requested == [1]


@pytest.mark.parametrize(
    "argv",
    [
        ["vertices", "--group", "S4", "--pi", "2"],
        ["verify-a", "--group", "S4", "--pi", "2"],
        # these two change with the hash seed when images are bytes
        ["verify-b", "--group", "S3", "--pi", "2"],
        ["subgroups", "--group", "A5"],
    ],
    ids=lambda argv: "-".join(argv[::2]),
)
def test_reports_do_not_depend_on_the_hash_seed(argv):
    """Report bytes must not follow PYTHONHASHSEED; images that hash by seed break this."""
    src = str(Path(nilweight.__file__).resolve().parents[1])
    outputs = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-m", "nilweight.cli", *argv, "--format", "machine"],
            env=env,
            capture_output=True,
            timeout=120,
            check=True,
        )
        outputs.add(run.stdout)
    assert len(outputs) == 1
