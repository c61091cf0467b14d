"""Tests for validation helpers, RNG utilities and table rendering."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.util.rng import make_rng, spawn_rngs
from repro.util.tables import format_table
from repro.util.validation import (
    check_index,
    check_nonnegative_int,
    check_positive_int,
    check_probability,
)


class TestValidation:
    def test_positive_int_accepts(self):
        assert check_positive_int(3, "x") == 3
        assert check_positive_int(np.int64(5), "x") == 5

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "3", None, True])
    def test_positive_int_rejects(self, bad):
        with pytest.raises(InvalidParameterError):
            check_positive_int(bad, "x")

    def test_nonnegative_int(self):
        assert check_nonnegative_int(0, "x") == 0
        with pytest.raises(InvalidParameterError):
            check_nonnegative_int(-1, "x")

    def test_check_index(self):
        assert check_index(0, 5, "i") == 0
        assert check_index(4, 5, "i") == 4
        with pytest.raises(InvalidParameterError):
            check_index(5, 5, "i")
        with pytest.raises(InvalidParameterError):
            check_index(-1, 5, "i")

    def test_check_probability(self):
        assert check_probability(0.5, "p") == 0.5
        assert check_probability(0, "p") == 0.0
        assert check_probability(1, "p") == 1.0
        with pytest.raises(InvalidParameterError):
            check_probability(1.1, "p")
        with pytest.raises(InvalidParameterError):
            check_probability(-0.1, "p")
        with pytest.raises(InvalidParameterError):
            check_probability(True, "p")

    def test_error_message_names_parameter(self):
        with pytest.raises(InvalidParameterError, match="wavelengths"):
            check_positive_int(-2, "wavelengths")


class TestAsIntFastPath:
    """``int`` takes a fast path; numpy integers keep the ABC path.  Both
    return a plain ``int``, and the rejections are unchanged."""

    _numpy_ints = st.sampled_from(
        [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint32]
    )

    @given(st.integers(0, 2**62))
    def test_python_int_accepted(self, value):
        out = check_nonnegative_int(value, "x")
        assert out == value and type(out) is int

    @given(_numpy_ints, st.integers(0, 127))
    def test_numpy_int_accepted_as_python_int(self, dtype, value):
        out = check_index(dtype(value), 128, "x")
        assert out == value and type(out) is int

    @given(
        st.one_of(
            st.booleans(),
            st.sampled_from([np.bool_(True), np.bool_(False)]),
            st.floats(allow_nan=True),
            st.text(max_size=3),
        )
    )
    def test_non_integers_rejected(self, value):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            check_nonnegative_int(value, "x")


class TestRng:
    def test_make_rng_from_seed_reproducible(self):
        a = make_rng(7).random(4)
        b = make_rng(7).random(4)
        assert np.allclose(a, b)

    def test_make_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_spawn_rngs_independent_and_reproducible(self):
        fam1 = spawn_rngs(11, 3)
        fam2 = spawn_rngs(11, 3)
        for g1, g2 in zip(fam1, fam2):
            assert np.allclose(g1.random(4), g2.random(4))
        # Streams differ from each other.
        fam3 = spawn_rngs(11, 2)
        assert not np.allclose(fam3[0].random(8), fam3[1].random(8))

    def test_spawn_rngs_rejects_bad_count(self):
        with pytest.raises(InvalidParameterError):
            spawn_rngs(1, 0)


class TestFormatTable:
    def test_alignment_and_title(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, 4.0]], title="T")
        lines = out.split("\n")
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        # All rows share the same width.
        assert len({len(line) for line in lines[1:]}) == 1

    def test_bool_rendering(self):
        out = format_table(["ok"], [[True], [False]])
        assert "yes" in out and "no" in out

    def test_float_format(self):
        out = format_table(["x"], [[0.123456]], float_fmt=".2f")
        assert "0.12" in out

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError, match="row 0"):
            format_table(["a", "b"], [[1]])

    def test_empty_rows(self):
        out = format_table(["a"], [])
        assert "a" in out
