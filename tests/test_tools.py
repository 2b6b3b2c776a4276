"""The repository's tools, as functions: the output comparison's numeric summary."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)


class TestNumericDifference:
    def test_counts_the_cells_that_differ_and_their_largest_relative_difference(self):
        parent = b"wavelength,iter0,iter1\n400.0,0.5,1.25e-05\n410.0,-2.0,3\n"
        change = b"wavelength,iter0,iter1\n400.0,0.5000000000000001,1.25e-05\n410.0,-2.0000000000000004,3\n"
        count, largest = compare_outputs.numeric_difference(parent, change)
        assert count == 2
        assert largest == pytest.approx(2.220446049250313e-16, rel=1e-12)

    def test_reads_report_json_numbers(self):
        parent = b'{\n  "delta_e": {\n    "max": 4.5,\n    "mean": 1e-300\n  },\n  "pair_count": 36\n}'
        change = b'{\n  "delta_e": {\n    "max": 4.5,\n    "mean": 0\n  },\n  "pair_count": 36\n}'
        assert compare_outputs.numeric_difference(parent, change) == (1, 1.0)

    def test_identical_numbers_count_none(self):
        text = b"key,a\n1,2.5\n"
        assert compare_outputs.numeric_difference(text, text) == (0, 0.0)

    @pytest.mark.parametrize("change", [b"key,b\n1,2.5\n", b"key,a\n1,2.5,3\n", b"key,a\n1,2.5\n2,1\n"],
                             ids=["text", "extra cell", "extra row"])
    def test_texts_that_differ_outside_their_numbers_are_not_compared(self, change):
        assert compare_outputs.numeric_difference(b"key,a\n1,2.5\n", change) is None

    def test_describes_numeric_outputs_with_counts_and_others_by_name(self):
        parent, change = b"a\n1.0\n", b"a\n1.5\n"
        assert compare_outputs.describe("ga/trace.csv", parent, change) == (
            "- `ga/trace.csv`: 1 numbers differ, by at most 0.33 relative")
        assert compare_outputs.describe("ga/stdout", parent, change) == "- `ga/stdout`"
        assert compare_outputs.describe("ga/filter.csv", None, change) == "- `ga/filter.csv`"
