import math

import numpy as np
import pytest

from sparsewht import SparseSpectrum, fwht, synthesize_many

from helpers import golden_spectrum
from references import densify, naive_wht


def test_constant_signal():
    assert np.allclose(fwht(np.array([1.0, 1.0])), [math.sqrt(2), 0.0])


def test_impulse_flat_spectrum():
    x = np.zeros(16)
    x[0] = 1.0
    assert np.allclose(fwht(x), np.full(16, 0.25))
    assert np.allclose(naive_wht(x), np.full(16, 0.25))


def test_small_example_against_naive():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    expected = np.array([5.0, -1.0, -2.0, 0.0])
    assert np.allclose(fwht(x), expected, atol=1e-12)
    assert np.allclose(naive_wht(x), expected, atol=1e-12)


def test_fwht_matches_naive_random():
    rng = np.random.default_rng(0)
    for n in range(1, 11):
        x = rng.standard_normal(1 << n)
        assert np.max(np.abs(fwht(x) - naive_wht(x))) < 1e-10


def test_involution_and_parseval():
    rng = np.random.default_rng(1)
    for n in (3, 8, 11):
        x = rng.standard_normal(1 << n)
        spec = fwht(x)
        assert np.max(np.abs(fwht(spec) - x)) < 1e-10
        assert abs(np.sum(x * x) - np.sum(spec * spec)) < 1e-10


def test_linearity():
    rng = np.random.default_rng(2)
    x, y = rng.standard_normal((2, 256))
    assert np.allclose(fwht(2.5 * x - 3.0 * y), 2.5 * fwht(x) - 3.0 * fwht(y), atol=1e-12)


def test_zero_signal():
    assert np.all(naive_wht(np.zeros(32)) == 0)


def test_non_power_of_two_rejected():
    with pytest.raises(ValueError):
        fwht(np.ones(6))
    with pytest.raises(ValueError):
        naive_wht(np.ones(3))


def test_synthesize_empty_and_dc():
    empty = SparseSpectrum(4, {})
    assert synthesize_many(empty, np.array([9], dtype=np.uint64)).tolist() == [0.0]
    dc = SparseSpectrum(4, {0: 4.0})  # X[0] = sqrt(N)
    assert synthesize_many(dc, np.arange(16, dtype=np.uint64)) == pytest.approx(np.ones(16))


def test_synthesize_matches_dense_inverse():
    spectrum = golden_spectrum()
    dense_samples = fwht(densify(spectrum))  # self-inverse kernel
    got = synthesize_many(spectrum, np.arange(16, dtype=np.uint64))
    assert np.max(np.abs(got - dense_samples)) < 1e-12

