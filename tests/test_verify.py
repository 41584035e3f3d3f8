import numpy as np
import pytest

from stencilpipe.grid import FillPattern, GridDims, allocate
from stencilpipe.kernel import sweep_naive
from stencilpipe import verify
from stencilpipe.verify import check_maximum_principle, compare, oracle


def test_compare_identical_is_bitwise():
    a = np.arange(27, dtype=np.float64).reshape(3, 3, 3)
    cmp = compare(a, a.copy())
    assert cmp.bitwise and cmp.passed
    assert cmp.max_abs == 0.0
    assert "PASS" in str(cmp) and "bitwise" in str(cmp)


def test_compare_one_ulp():
    a = np.full((2, 2, 2), 1.0)
    b = a.copy()
    b[1, 1, 1] = np.nextafter(1.0, 2.0)
    cmp = compare(a, b)
    assert not cmp.bitwise and not cmp.passed  # bitwise is the only verdict
    assert cmp.location == (1, 1, 1)
    assert cmp.max_abs == np.nextafter(1.0, 2.0) - 1.0
    assert str(cmp).startswith("FAIL at (1, 1, 1)")


def test_compare_detects_relative_error():
    a = np.full((2, 2, 2), 1.0e-8)
    b = a.copy()
    b[0, 1, 0] = 1.0e-8 * (1.0 + 1.0e-6)
    cmp = compare(a, b)
    assert not cmp.passed
    assert cmp.location == (0, 1, 0)
    assert "FAIL" in str(cmp)
    assert np.isclose(cmp.max_abs, 1.0e-14, rtol=1e-6, atol=0.0)


def test_compare_zero_fields():
    a = np.zeros((2, 2, 2))
    assert compare(a, a.copy()).passed


def test_compare_accepts_grids_and_arrays():
    d = GridDims(4, 4, 4)
    pat = FillPattern.random(3)
    g = allocate(d, "twogrid", pat)
    assert compare(g, g.interior().copy()).bitwise


def test_compare_shape_mismatch():
    with pytest.raises(ValueError):
        compare(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))


def test_compare_has_no_tolerance():
    # Signed zeros are equal as numbers but differ bit for bit.
    a = np.zeros((2, 2, 2))
    b = a.copy()
    b[0, 0, 1] = -0.0
    cmp = compare(a, b)
    assert not cmp.passed and cmp.location == (0, 0, 1)
    assert not hasattr(verify, "REL_TOL")
    with pytest.raises(TypeError):
        compare(a, b, tol=1.0)


def test_oracle_counts_levels():
    d = GridDims(6, 6, 6)
    pat = FillPattern.random(8)
    g = allocate(d, "twogrid", pat)
    assert np.array_equal(oracle(d, pat, 0).interior(), g.interior())
    for k in (1, 2, 3):
        sweep_naive(g)
        assert np.array_equal(oracle(d, pat, k).interior(), g.interior())


def test_maximum_principle_checker():
    before = np.array([[[0.0, 1.0], [0.5, 0.25]]])
    assert check_maximum_principle(before, np.array([[[0.3, 0.9]]]))
    assert not check_maximum_principle(before, np.array([[[1.1]]]))
    assert not check_maximum_principle(before, np.array([[[-0.1]]]))
    # a hotter boundary shell extends the admissible range
    shell = np.array([2.0])
    assert check_maximum_principle(before, np.array([[[1.5]]]), shell)
