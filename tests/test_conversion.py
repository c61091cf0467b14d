"""Tests for the wavelength-conversion schemes (paper Section II-A, Fig. 2)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.graphs.conversion import (
    CircularConversion,
    FullRangeConversion,
    NonCircularConversion,
)
from tests.conftest import conversion_params


class TestCircular:
    def test_paper_fig2a(self):
        # λi -> {(i-1) mod 6, i, (i+1) mod 6}
        scheme = CircularConversion(6, 1, 1)
        for i in range(6):
            assert set(scheme.adjacency(i)) == {(i - 1) % 6, i, (i + 1) % 6}

    def test_degree(self):
        assert CircularConversion(8, 2, 1).degree == 4

    def test_constant_degree_everywhere(self):
        scheme = CircularConversion(10, 2, 3)
        for w in range(10):
            assert len(scheme.adjacency(w)) == 6

    def test_asymmetric_reach(self):
        scheme = CircularConversion(8, 0, 2)
        assert set(scheme.adjacency(7)) == {7, 0, 1}

    def test_identity_only(self):
        scheme = CircularConversion(5, 0, 0)
        for w in range(5):
            assert scheme.adjacency(w) == (w,)

    def test_adjacency_interval(self):
        iv = CircularConversion(6, 1, 1).adjacency_interval(0)
        assert set(iv) == {5, 0, 1}

    def test_can_convert(self):
        scheme = CircularConversion(6, 1, 1)
        assert scheme.can_convert(0, 5)
        assert not scheme.can_convert(0, 3)

    def test_sources_inverse_of_adjacency(self):
        scheme = CircularConversion(7, 1, 2)
        for b in range(7):
            for w in range(7):
                assert (w in scheme.sources(b)) == (b in scheme.adjacency(w))

    def test_degree_exceeds_k_rejected(self):
        with pytest.raises(InvalidParameterError):
            CircularConversion(3, 2, 2)

    def test_out_of_range_wavelength(self):
        with pytest.raises(InvalidParameterError):
            CircularConversion(6, 1, 1).adjacency(6)

    def test_conversion_graph_matches_adjacency(self):
        scheme = CircularConversion(6, 1, 1)
        g = scheme.conversion_graph()
        assert g.n_left == g.n_right == 6
        for w in range(6):
            assert g.neighbors_of_left(w) == scheme.adjacency(w)

    def test_full_range_flag(self):
        assert CircularConversion(5, 2, 2).is_full_range
        assert not CircularConversion(6, 2, 2).is_full_range

    @given(conversion_params())
    def test_circular_symmetry_property(self, params):
        # w can convert to b iff (w + c) can convert to (b + c) for any shift.
        k, e, f = params
        scheme = CircularConversion(k, e, f)
        for w in range(k):
            for b in scheme.adjacency(w):
                assert ((b + 1) % k) in scheme.adjacency((w + 1) % k)


class TestNonCircular:
    def test_paper_fig2b(self):
        scheme = NonCircularConversion(6, 1, 1)
        assert scheme.adjacency(0) == (0, 1)  # λ0 cannot reach λ5
        assert scheme.adjacency(5) == (4, 5)
        assert scheme.adjacency(2) == (1, 2, 3)

    def test_adjacency_bounds(self):
        scheme = NonCircularConversion(6, 1, 1)
        assert scheme.adjacency_bounds(0) == (0, 1)
        assert scheme.adjacency_bounds(3) == (2, 4)

    def test_adjacency_is_contiguous(self):
        scheme = NonCircularConversion(10, 3, 2)
        for w in range(10):
            adj = scheme.adjacency(w)
            assert list(adj) == list(range(adj[0], adj[-1] + 1))

    def test_no_wraparound(self):
        scheme = NonCircularConversion(6, 2, 2)
        assert 5 not in scheme.adjacency(0)
        assert 0 not in scheme.adjacency(5)

    def test_never_full_range(self):
        assert not NonCircularConversion(5, 2, 2).is_full_range


class TestFullRange:
    def test_everything_reachable(self):
        scheme = FullRangeConversion(6)
        for w in range(6):
            assert scheme.adjacency(w) == tuple(range(6))

    def test_degree_is_k(self):
        assert FullRangeConversion(7).degree == 7

    def test_is_full_range(self):
        assert FullRangeConversion(4).is_full_range

    def test_k_one(self):
        scheme = FullRangeConversion(1)
        assert scheme.adjacency(0) == (0,)

    def test_repr(self):
        assert "FullRangeConversion" in repr(FullRangeConversion(4))


class TestEquality:
    def test_same_params_equal(self):
        assert CircularConversion(6, 1, 1) == CircularConversion(6, 1, 1)

    def test_type_distinguishes(self):
        assert CircularConversion(6, 1, 1) != NonCircularConversion(6, 1, 1)

    def test_hashable(self):
        s = {CircularConversion(6, 1, 1), CircularConversion(6, 1, 1)}
        assert len(s) == 1

    def test_full_range_vs_circular(self):
        # Same (k, e, f) but different class: distinct.
        fr = FullRangeConversion(5)
        circ = CircularConversion(5, fr.e, fr.f)
        assert fr != circ


@st.composite
def _schemes(draw):
    """Circular, non-circular, full-range and degraded schemes."""
    k, e, f = draw(conversion_params())
    kind = draw(st.sampled_from(["circular", "noncircular", "full"]))
    if kind == "full":
        scheme = FullRangeConversion(k)
    elif kind == "circular":
        scheme = CircularConversion(k, e, f)
    else:
        scheme = NonCircularConversion(k, e, f)
    if draw(st.booleans()):
        scheme = scheme.degraded(
            draw(st.integers(0, scheme.e)), draw(st.integers(0, scheme.f))
        )
    return scheme


class TestCanConvertMatchesAdjacency:
    """``can_convert`` answers from cached adjacency sets; it must agree
    with :meth:`adjacency` and keep its range checks."""

    @given(_schemes())
    def test_agrees_with_adjacency_everywhere(self, scheme):
        for w in range(scheme.k):
            adjacency = scheme.adjacency(w)
            for b in range(scheme.k):
                assert scheme.can_convert(w, b) == (b in adjacency)
                assert scheme.can_convert(np.int64(w), np.int32(b)) == (
                    b in adjacency
                )

    @given(_schemes(), st.integers(-3, 20), st.integers(-3, 20))
    def test_out_of_range_still_raises(self, scheme, w, b):
        if 0 <= w < scheme.k and 0 <= b < scheme.k:
            return
        with pytest.raises(InvalidParameterError):
            scheme.can_convert(w, b)

    @pytest.mark.parametrize("bad", [1.0, "1", True, None])
    def test_non_integer_arguments_raise(self, bad):
        scheme = CircularConversion(6, 1, 1)
        with pytest.raises(InvalidParameterError):
            scheme.can_convert(bad, 1)
        with pytest.raises(InvalidParameterError):
            scheme.can_convert(1, bad)
