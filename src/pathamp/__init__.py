"""Path-amplitude toolkit for physical optics and flavour oscillations.

A quantum process is described by multiplying complex process amplitudes
(source decay, propagation, scattering, detection) along each classical
history and summing the results over all histories allowed by the
apparatus.  This package evaluates those sums in closed form for
diffraction, refraction, reflection, interferometry and two-state flavour
oscillations, and ships an independent brute-force integration module so
that every closed form can be checked numerically before it is trusted.
"""

from pathamp.core_num import CONSTANTS, phase

__all__ = ["CONSTANTS", "phase"]

__version__ = "0.1.0"
