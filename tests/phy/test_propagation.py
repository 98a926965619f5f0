"""Propagation model correctness and ns-2 calibration."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import ConfigurationError
from repro.phy import (
    WAVELAN_914MHZ,
    RadioParams,
    TwoRayGround,
    UnitDisk,
)


class TestTwoRayGround:
    def test_crossover_value(self):
        m = TwoRayGround()
        lam = 2.99792458e8 / 914e6
        assert m.crossover == pytest.approx(4 * math.pi * 1.5 * 1.5 / lam)

    def test_matches_friis_below_crossover(self):
        m = TwoRayGround()
        lam = 2.99792458e8 / 914e6
        d = m.crossover * 0.5
        friis = lam**2 / (4 * math.pi * d) ** 2
        assert m.rx_power(1.0, d) == pytest.approx(friis)
        assert m.rx_power_d2(1.0, d * d) == pytest.approx(friis)

    def test_fourth_power_law_above_crossover(self):
        m = TwoRayGround()
        d = m.crossover * 4
        assert m.rx_power(1.0, d) / m.rx_power(1.0, 2 * d) == pytest.approx(16.0)

    def test_ns2_calibration_250m_rx(self):
        m = TwoRayGround()
        assert WAVELAN_914MHZ.rx_range(m) == pytest.approx(250.0, rel=1e-3)

    def test_ns2_calibration_550m_cs(self):
        m = TwoRayGround()
        assert WAVELAN_914MHZ.cs_range(m) == pytest.approx(550.0, rel=1e-3)

    def test_monotone_nonincreasing(self):
        m = TwoRayGround()
        d = np.linspace(1.0, 1000.0, 300)
        p = m.rx_power_vec(1.0, d)
        assert np.all(np.diff(p) <= 1e-18)

    def test_vec_matches_scalar(self):
        m = TwoRayGround()
        d = np.array([0.0, 50.0, m.crossover, 300.0, 900.0])
        vec = m.rx_power_vec(1.0, d)
        for i, di in enumerate(d):
            assert vec[i] == pytest.approx(m.rx_power(1.0, float(di)))

    def test_invalid_heights(self):
        with pytest.raises(ConfigurationError):
            TwoRayGround(height_tx=0.0)

    def test_invalid_friis_params(self):
        with pytest.raises(ConfigurationError):
            TwoRayGround(frequency=0.0)
        with pytest.raises(ConfigurationError):
            TwoRayGround(system_loss=0.5)


class TestUnitDisk:
    def test_sharp_edge(self):
        m = UnitDisk(250.0)
        assert m.rx_power(1.0, 250.0) == 1.0
        assert m.rx_power(1.0, 250.0001) == 0.0

    def test_range_for_threshold(self):
        m = UnitDisk(100.0)
        assert m.range_for_threshold(1.0, 0.5) == 100.0
        assert m.range_for_threshold(0.1, 0.5) == 0.0

    def test_vec(self):
        m = UnitDisk(100.0)
        out = m.rx_power_vec(2.0, np.array([50.0, 150.0]))
        assert out.tolist() == [2.0, 0.0]

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            UnitDisk(0.0)


class TestRadioParams:
    def test_defaults_sane(self):
        p = WAVELAN_914MHZ
        assert p.bitrate == 2e6
        assert p.cs_threshold < p.rx_threshold

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RadioParams(bitrate=0)
        with pytest.raises(ConfigurationError):
            RadioParams(tx_power=0)
        with pytest.raises(ConfigurationError):
            RadioParams(rx_threshold=1e-10, cs_threshold=1e-9)
        with pytest.raises(ConfigurationError):
            RadioParams(capture_ratio=0.5)


@given(st.floats(min_value=1.0, max_value=5000.0), st.floats(min_value=1.0, max_value=5000.0))
def test_property_tworay_monotone(d1, d2):
    m = TwoRayGround()
    lo, hi = sorted((d1, d2))
    assert m.rx_power(1.0, lo) >= m.rx_power(1.0, hi)


@given(st.floats(min_value=1e-12, max_value=1e-8))
def test_property_range_solves_threshold(threshold):
    m = TwoRayGround()
    r = m.range_for_threshold(0.28183815, threshold)
    if r > 0:
        assert m.rx_power(0.28183815, r * 0.999) >= threshold
        assert m.rx_power(0.28183815, r * 1.001) <= threshold * 1.01
