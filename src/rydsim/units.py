"""Unit conventions and conversions.

All public interfaces quote ordinary frequencies in MHz and times in
microseconds. Internally, Hamiltonians are stored as H/hbar in angular
frequency (rad/us), so a drive quoted as ``f`` MHz enters the generator as
``2*pi*f`` rad/us. Doppler detunings are passed around in krad/s
(1 krad/s = 1e-3 rad/us).
"""

import math

TWO_PI = 2.0 * math.pi


def mhz_to_angular(f_mhz: float) -> float:
    """Ordinary frequency in MHz to angular frequency in rad/us."""
    return TWO_PI * f_mhz


def krad_s_to_angular(x: float) -> float:
    """Angular frequency in krad/s to rad/us."""
    return 1e-3 * x


def angular_to_krad_s(x: float) -> float:
    """Angular frequency in rad/us to krad/s."""
    return 1e3 * x

