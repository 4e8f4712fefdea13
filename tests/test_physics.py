"""Tests for the side-channel physics calculators.

The numbers here are order-of-magnitude statements; the tests pin the exact
computed values (they are deterministic) and separately assert the decades
that carry the security argument.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import constants

from retinasim import (
    DomainError,
    EyeThermalModel,
    dipole_attenuation,
    magnetic_energy_resolution,
    physics_bounds,
    temperature_resolution,
    thermal_energy_resolution,
)


def test_constants_match_scipy():
    """The literals equal ``scipy.constants``: exactly for the defined SI
    values and hbar, within CODATA revisions for the Bohr magneton (2018 and
    2022 differ by ~1.5e-10 relative)."""
    assert physics_bounds.PLANCK == constants.h
    assert physics_bounds.LIGHT_SPEED == constants.c
    assert physics_bounds.BOLTZMANN == constants.k
    assert physics_bounds.HBAR == constants.hbar
    mu_b = constants.physical_constants["Bohr magneton"][0]
    assert physics_bounds.BOHR_MAGNETON == pytest.approx(mu_b, rel=2e-9, abs=0.0)


class TestTemperatureResolution:
    def test_default_operating_point(self):
        d_temp = temperature_resolution()
        assert d_temp == pytest.approx(4.667400980143159e-19, rel=1e-12)

    def test_matches_direct_formula(self):
        model = EyeThermalModel(
            mass=0.008, specific_heat=3900.0, wavelength=650e-9,
            n_scattered=80.0, pulse_time=0.05,
        )
        photon_energy = constants.h * constants.c / model.wavelength
        expected = model.n_scattered * photon_energy / (model.mass * model.specific_heat)
        assert temperature_resolution(model) == pytest.approx(expected, rel=1e-15)

    def test_many_decades_below_calorimetry(self):
        # microkelvin calorimetry on a gram-scale object would still be
        # twelve decades away from this signal
        assert temperature_resolution() < 1e-18

    def test_linear_in_photon_count(self):
        base = temperature_resolution(EyeThermalModel(n_scattered=50.0))
        double = temperature_resolution(EyeThermalModel(n_scattered=100.0))
        assert double == pytest.approx(2.0 * base, rel=1e-15)

    def test_inverse_in_mass(self):
        base = temperature_resolution(EyeThermalModel(mass=0.01))
        heavy = temperature_resolution(EyeThermalModel(mass=0.02))
        assert heavy == pytest.approx(0.5 * base, rel=1e-15)

    def test_longer_wavelength_heats_less(self):
        green = temperature_resolution(EyeThermalModel(wavelength=532e-9))
        infrared = temperature_resolution(EyeThermalModel(wavelength=1064e-9))
        assert infrared == pytest.approx(0.5 * green, rel=1e-15)

    @pytest.mark.parametrize("field", ["mass", "specific_heat", "wavelength", "n_scattered", "pulse_time"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_model_validation(self, field, bad):
        with pytest.raises(DomainError, match="positive and finite"):
            EyeThermalModel(**{field: bad})


class TestThermalEnergyResolution:
    def test_default_operating_point(self):
        ratio = thermal_energy_resolution()
        assert ratio == pytest.approx(6.1105771916198325e-09, rel=1e-12)

    def test_matches_direct_formula(self):
        model = EyeThermalModel(pulse_time=0.2)
        expected = (
            constants.k * temperature_resolution(model) * model.pulse_time / constants.hbar
        )
        assert thermal_energy_resolution(model) == pytest.approx(expected, rel=1e-15)

    def test_heating_channel_is_unresolvable(self):
        # detectability needs the ratio to reach 1; the default sits more
        # than eight decades short
        assert thermal_energy_resolution() < 1e-8

    def test_linear_in_pulse_time(self):
        short = thermal_energy_resolution(EyeThermalModel(pulse_time=0.1))
        long = thermal_energy_resolution(EyeThermalModel(pulse_time=0.2))
        assert long == pytest.approx(2.0 * short, rel=1e-15)


class TestMagneticEnergyResolution:
    def test_state_of_the_art_magnetometer(self):
        ratio = magnetic_energy_resolution(1e-19, 1.0)
        assert ratio == pytest.approx(8.794100041853891e-09, rel=1e-12)
        assert ratio < 1e-8

    def test_matches_direct_formula(self):
        sensitivity, time = 3e-18, 2.5
        mu_b = constants.physical_constants["Bohr magneton"][0]
        expected = mu_b * sensitivity * math.sqrt(time) / constants.hbar
        assert magnetic_energy_resolution(sensitivity, time) == pytest.approx(
            expected, rel=1e-15
        )

    def test_scales_with_square_root_of_time(self):
        base = magnetic_energy_resolution(1e-19, 1.0)
        longer = magnetic_energy_resolution(1e-19, 4.0)
        assert longer == pytest.approx(2.0 * base, rel=1e-15)

    def test_linear_in_sensitivity(self):
        base = magnetic_energy_resolution(1e-19, 1.0)
        noisier = magnetic_energy_resolution(5e-19, 1.0)
        assert noisier == pytest.approx(5.0 * base, rel=1e-15)

    @pytest.mark.parametrize(
        "sensitivity, time",
        [(0.0, 1.0), (-1e-19, 1.0), (math.nan, 1.0), (1e-19, 0.0), (1e-19, -2.0), (1e-19, math.inf)],
    )
    def test_domain_errors(self, sensitivity, time):
        with pytest.raises(DomainError):
            magnetic_energy_resolution(sensitivity, time)


class TestDipoleAttenuation:
    def test_centimeter_to_decimeter_costs_three_decades(self):
        assert dipole_attenuation(0.01, 0.1) == pytest.approx(1000.0, rel=1e-15)

    def test_no_move_no_attenuation(self):
        assert dipole_attenuation(0.05, 0.05) == 1.0

    @given(
        r_near=st.floats(min_value=1e-3, max_value=1.0),
        factor=st.floats(min_value=1.0, max_value=100.0),
    )
    def test_cubic_law(self, r_near, factor):
        assert dipole_attenuation(r_near, factor * r_near) == pytest.approx(
            factor**3, rel=1e-9
        )

    @pytest.mark.parametrize(
        "r_near, r_far",
        [(0.0, 0.1), (-0.01, 0.1), (math.nan, 0.1), (0.1, 0.01), (0.01, math.inf)],
    )
    def test_domain_errors(self, r_near, r_far):
        with pytest.raises(DomainError):
            dipole_attenuation(r_near, r_far)
