"""Order-of-magnitude physics checks for covert-channel hardware.

These calculators bound what an eavesdropper could learn from side channels
of the interrogation pulse — bulk heating of the eye, or magnetic pickup of
neural currents — and show both sit many decades below detectability.  All
results are meant to be read as decades, not precision values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, _real

__all__ = [
    "EyeThermalModel",
    "temperature_resolution",
    "thermal_energy_resolution",
    "magnetic_energy_resolution",
    "dipole_attenuation",
]

#: SI units: h, c and k are exact since the 2019 SI redefinition and hbar is
#: h / (2 pi) rounded to double; the Bohr magneton is the CODATA 2022 value.
#: Each equals the float ``scipy.constants`` 1.17 gives.
PLANCK = 6.62607015e-34
LIGHT_SPEED = 299792458.0
BOLTZMANN = 1.380649e-23
HBAR = 1.0545718176461565e-34
BOHR_MAGNETON = 9.2740100657e-24


@dataclass(frozen=True)
class EyeThermalModel:
    """Thermal model of an eye absorbing one interrogation pulse.

    Defaults: a 10 g eyeball of roughly water-like heat capacity, green
    (532 nm) light, ~50 photons deposited per pulse, 0.1 s pulse time.
    """

    mass: float = 0.01
    specific_heat: float = 4000.0
    wavelength: float = 532e-9
    n_scattered: float = 50.0
    pulse_time: float = 0.1

    def __post_init__(self) -> None:
        for name in ("mass", "specific_heat", "wavelength", "n_scattered", "pulse_time"):
            value = _real(name, getattr(self, name), "(0, inf)")
            object.__setattr__(self, name, value)


def temperature_resolution(model: EyeThermalModel = EyeThermalModel()) -> float:
    """Temperature rise (K) of the whole eye from the pulse's absorbed photons.

    n photons of energy hc/wavelength spread into heat capacity m * c:
    for the defaults this is ~5e-19 K — some nine decades below even
    millikelvin-resolution calorimetry on a gram-scale object.
    """
    photon_energy = PLANCK * LIGHT_SPEED / model.wavelength
    return model.n_scattered * photon_energy / (model.mass * model.specific_heat)


def thermal_energy_resolution(model: EyeThermalModel = EyeThermalModel()) -> float:
    """Dimensionless detectability k_B * dT * t / hbar of the heating signal.

    An energy resolution dE integrated over time t resolves the signal only
    if dE * t is at least hbar; this returns the achieved ratio (~6e-9 for
    the defaults), so the heating channel falls short by over eight decades.
    """
    d_temp = temperature_resolution(model)
    return BOLTZMANN * d_temp * model.pulse_time / HBAR


def magnetic_energy_resolution(
    field_sensitivity: float, measurement_time: float
) -> float:
    """Dimensionless detectability of magnetometer pickup.

    A sensor with noise floor S (tesla per root hertz) integrating for time
    t resolves a field of S / sqrt(t); the corresponding moment-energy
    resolution acting on a Bohr magneton gives the ratio

        mu_B * (S / sqrt(t)) * t / hbar = mu_B * S * sqrt(t) / hbar.

    State-of-the-art S ~ 1e-19 T/rtHz over a 1 s measurement gives ~9e-9:
    again eight decades short of a quantum-limited measurement.
    """
    field_sensitivity = _real("field sensitivity", field_sensitivity, "(0, inf)")
    measurement_time = _real("measurement time", measurement_time, "(0, inf)")
    field_resolution = field_sensitivity / math.sqrt(measurement_time)
    return BOHR_MAGNETON * field_resolution * measurement_time / HBAR


def dipole_attenuation(r_near: float, r_far: float) -> float:
    """Factor by which a dipole field weakens from r_near to r_far: (r_far/r_near)**3.

    Moving a pickup coil from 1 cm to 10 cm costs three decades of signal,
    which is why the magnetometer numbers above are already generous.
    """
    r_near = _real("near distance", r_near, "(0, inf)")
    r_far = _real("far distance", r_far, "(0, inf)")
    if r_far < r_near:
        raise DomainError(f"far distance {r_far!r} lies below near distance {r_near!r}")
    return (r_far / r_near) ** 3
