"""Uniform planar array geometry and steering vectors.

The array sits in the y-z plane with ``n_y`` elements along the horizontal
axis and ``n_z`` along the vertical axis.  The 2-D element grid is flattened
horizontal-index-major: element ``i`` of a steering vector corresponds to
``(a_y, a_z) = (i // n_z, i % n_z)``, i.e. the horizontal index varies
slowest.  Every module in the package relies on this ordering.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["ArrayGeometry", "Direction", "steering_vector"]


@dataclass(frozen=True)
class Direction:
    """Azimuth / elevation pair in radians.

    Azimuth is measured in [-pi, pi], elevation in [0, pi] from the
    vertical axis (pi/2 is the horizon).
    """

    azimuth: float
    elevation: float

    def __post_init__(self):
        if not -np.pi <= self.azimuth <= np.pi:
            raise ValueError(f"azimuth {self.azimuth} outside [-pi, pi]")
        if not 0.0 <= self.elevation <= np.pi:
            raise ValueError(f"elevation {self.elevation} outside [0, pi]")


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform planar array layout.

    Attributes
    ----------
    n_y : int
        Element count along the horizontal axis.
    n_z : int
        Element count along the vertical axis.
    spacing_d : float
        Inter-element spacing in meters.
    wavelength : float
        Carrier wavelength in meters.
    """

    n_y: int
    n_z: int
    spacing_d: float
    wavelength: float

    def __post_init__(self):
        if self.n_y < 1 or self.n_z < 1:
            raise ValueError("element counts must be >= 1")
        if self.spacing_d <= 0 or self.wavelength <= 0:
            raise ValueError("spacing and wavelength must be positive")

    @classmethod
    def half_wavelength(cls, n_y: int, n_z: int, wavelength: float) -> "ArrayGeometry":
        """Standard lambda/2-spaced planar array."""
        return cls(n_y=n_y, n_z=n_z, spacing_d=wavelength / 2.0, wavelength=wavelength)

    @property
    def n_elements(self) -> int:
        return self.n_y * self.n_z

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength

    @cached_property
    def element_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Horizontal and vertical index (a_y, a_z) of every element, in vector order.

        Computed once per geometry and shared by every call, so read-only.
        """
        a_y, a_z = np.divmod(np.arange(self.n_elements), self.n_z)
        a_y.flags.writeable = a_z.flags.writeable = False
        return a_y, a_z


def steering_vector(geom: ArrayGeometry, direction: Direction) -> np.ndarray:
    """Planar-array response vector for the given direction.

    Element ``(a_y, a_z)`` carries the phase
    ``exp(-j * k * d * (a_y sin(az) sin(el) + a_z cos(el)))`` with ``k`` the
    wavenumber.  All entries have unit modulus and the first entry is
    exactly 1.

    Returns
    -------
    np.ndarray
        Complex vector of length ``geom.n_elements``, horizontal-index-major.
    """
    a_y, a_z = geom.element_indices
    phase = geom.wavenumber * geom.spacing_d * (
        a_y * np.sin(direction.azimuth) * np.sin(direction.elevation)
        + a_z * np.cos(direction.elevation)
    )
    return np.exp(-1j * phase)
