import pytest

from nilweight.corpus import (
    MAX_DEGREE,
    GroupFileError,
    SKIPPED_ENTRIES,
    builtin_by_name,
    builtin_corpus,
    parse_group_file,
)


class TestParse:
    def test_basic_file(self):
        text = "name: S3\ndegree: 3\ngen: (1,2)\ngen: (1,2,3)\norder: 6"
        d = parse_group_file(text)
        assert d.name == "S3" and d.degree == 3
        assert d.expected_order == 6
        assert d.build().order == 6

    def test_comments_and_blank_lines(self):
        text = "# a comment\nname: C2\n\ndegree: 2\ngen: (1,2)  # inline\n"
        d = parse_group_file(text)
        assert d.build().order == 2

    def test_repeated_point_rejected(self):
        text = "name: X\ndegree: 3\ngen: (1,2,2)"
        with pytest.raises(GroupFileError, match="repeated point"):
            parse_group_file(text)

    def test_point_out_of_range(self):
        text = "name: X\ndegree: 3\ngen: (1,4)"
        with pytest.raises(GroupFileError, match="out of range"):
            parse_group_file(text)

    def test_order_mismatch(self):
        text = "name: X\ndegree: 3\norder: 5\ngen: (1,2,3)"
        with pytest.raises(GroupFileError, match="expected 5"):
            parse_group_file(text)

    def test_error_carries_line_number(self):
        text = "name: X\ndegree: 3\ngen: (1,2,2)"
        with pytest.raises(GroupFileError, match="line 3"):
            parse_group_file(text)

    def test_degree_at_the_maximum_is_accepted(self):
        assert parse_group_file(f"name: X\ndegree: {MAX_DEGREE}\ngen: (1,2)").build().order == 2

    def test_degree_must_precede_gens(self):
        with pytest.raises(GroupFileError, match="degree"):
            parse_group_file("name: X\ngen: (1,2)\ndegree: 2")

    def test_unknown_key(self):
        with pytest.raises(GroupFileError, match="unknown key"):
            parse_group_file("name: X\ndegree: 2\nfoo: bar")


class TestBuiltins:
    def test_corpus_nonempty_and_has_a5(self):
        names = [d.name for d in builtin_corpus()]
        assert "A5" in names and "S4" in names and "C3xC3:C2" in names
        assert builtin_by_name("A5").build().order == 60
        assert builtin_by_name("C3xC3:C2").build().order == 18

    def test_every_builtin_constructs_with_expected_order(self):
        for d in builtin_corpus():
            assert d.expected_order is not None
            d.build()  # raises on mismatch

    def test_round_trip_through_file_format(self):
        for d in builtin_corpus():
            reparsed = parse_group_file(d.to_text())
            assert reparsed.name == d.name
            assert reparsed.degree == d.degree
            assert reparsed.expected_order == d.expected_order
            assert reparsed.generators == d.generators

    def test_unknown_builtin(self):
        with pytest.raises(KeyError):
            builtin_by_name("M24")

    def test_skipped_entries_documented(self):
        assert any(name == "J4" for name, _ in SKIPPED_ENTRIES)
