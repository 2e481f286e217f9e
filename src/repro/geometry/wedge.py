"""The wedge (inclined flat plate) body.

"In the present implementation the only geometry supported is an
inclined flat plate."  The validation runs put a 30-degree wedge on the
tunnel floor, leading edge 20 cells from the upstream boundary, 25 cells
wide at the base: a right triangle

    (x0, 0) --ramp at angle--> (x0 + base, base * tan(angle))
                                   |  vertical back face
    (x0, 0) -----------------> (x0 + base, 0)

The supersonic stream compresses through the attached oblique shock off
the ramp, expands around the top corner (Prandtl-Meyer fan) and, in the
near-continuum case, recompresses in a wake shock where the expanded
flow meets the floor -- the features of figures 1-6.

Cells cut by the ramp get **fractional volumes**: "where cells are
divided by the wedge special allowance must be made for the fractional
cell volume when employing the selection rule (equation (8)) and in
computing the time average cell density."  Volumes come from the
body-agnostic supersampling of
:func:`repro.geometry.domain.supersampled_open_fractions` (vectorized;
16x16 subcells, <0.5% area error), computed once per process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.domain import Domain, supersampled_open_fractions


@dataclass(frozen=True)
class Wedge:
    """A wedge (ramp + vertical back face) on the tunnel floor.

    Parameters
    ----------
    x_leading:
        x coordinate of the leading edge (cells from the upstream
        boundary; the paper uses 20).
    base:
        Base width in cell widths (the paper uses 25).
    angle_deg:
        Ramp angle in degrees (the paper uses 30).
    """

    x_leading: float = 20.0
    base: float = 25.0
    angle_deg: float = 30.0

    kind = "wedge"

    def __post_init__(self) -> None:
        if self.base <= 0:
            raise GeometryError(f"base must be positive, got {self.base}")
        if not 0.0 < self.angle_deg < 90.0:
            raise GeometryError(
                f"angle must be in (0, 90) degrees, got {self.angle_deg}"
            )
        if self.x_leading < 0:
            raise GeometryError("x_leading must be non-negative")

    # -- derived shape ------------------------------------------------------

    @property
    def angle(self) -> float:
        """Ramp angle in radians."""
        return math.radians(self.angle_deg)

    @property
    def slope(self) -> float:
        """tan(angle): ramp rise per unit x."""
        return math.tan(self.angle)

    @property
    def height(self) -> float:
        """Height of the back face, base * tan(angle)."""
        return self.base * self.slope

    @property
    def x_trailing(self) -> float:
        """x coordinate of the back face."""
        return self.x_leading + self.base

    @property
    def corner(self) -> Tuple[float, float]:
        """The expansion corner at the top of the ramp."""
        return (self.x_trailing, self.height)

    @property
    def ramp_normal(self) -> Tuple[float, float]:
        """Outward (into-flow) unit normal of the ramp surface."""
        return (-math.sin(self.angle), math.cos(self.angle))

    def validate_in(self, domain: Domain) -> None:
        """Raise unless the wedge fits inside the domain with margins."""
        if self.x_trailing >= domain.width:
            raise GeometryError(
                f"wedge trailing edge {self.x_trailing} outside domain "
                f"width {domain.width}"
            )
        if self.height >= domain.height:
            raise GeometryError(
                f"wedge height {self.height:.2f} exceeds domain height "
                f"{domain.height}"
            )

    # -- point classification --------------------------------------------

    def ramp_height_at(self, x: np.ndarray) -> np.ndarray:
        """Solid surface height at each x (0 outside the footprint)."""
        x = np.asarray(x, dtype=np.float64)
        h = (x - self.x_leading) * self.slope
        h = np.where((x >= self.x_leading) & (x <= self.x_trailing), h, 0.0)
        return h

    def inside(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Mask of points strictly inside the solid wedge."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        in_footprint = (x > self.x_leading) & (x < self.x_trailing)
        return in_footprint & (y < (x - self.x_leading) * self.slope) & (y >= 0)

    def penetration_depth(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Perpendicular distance below the ramp plane (0 if outside).

        Only meaningful for points inside the footprint; used by the
        reflection resolver to decide which face a particle crossed.
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        d = ((x - self.x_leading) * self.slope - y) * math.cos(self.angle)
        return np.where(self.inside(x, y), d, 0.0)

    # -- fractional cell volumes -------------------------------------------

    def open_volume_fractions(
        self, domain: Domain, supersample: int = 16
    ) -> np.ndarray:
        """Per-cell open-area fractions (memoized, read-only)."""
        return supersampled_open_fractions(self, domain, supersample)

    def project_out(
        self, x: np.ndarray, y: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Lift stragglers onto the ramp surface, just outside.

        Last-resort positional rescue used by the boundary clamp after
        the bounded reflection iteration: x unchanged, y placed an
        epsilon above the local surface height.
        """
        x = np.asarray(x, dtype=np.float64)
        return x, self.ramp_height_at(x) + 1e-9

    def to_config_dict(self) -> dict:
        """Body parameters keyed for :func:`repro.geometry.bodies.body_from_dict`."""
        return {
            "kind": self.kind,
            "x_leading": self.x_leading,
            "base": self.base,
            "angle_deg": self.angle_deg,
        }

    # -- reflection -----------------------------------------------------------

    def reflect_specular(
        self, x: np.ndarray, y: np.ndarray, u: np.ndarray, v: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Specular reflection (positions + velocities only)."""
        x2, y2, u2, v2, _back, _ramp = self.reflect_specular_report(x, y, u, v)
        return x2, y2, u2, v2

    def reflect_specular_report(
        self, x: np.ndarray, y: np.ndarray, u: np.ndarray, v: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Specularly reflect points that penetrated the wedge.

        Particles inside the solid are classified by which face they
        most plausibly crossed:

        * inside the footprint and left of the back-face band -> ramp
          reflection: position mirrored across the ramp plane, velocity
          reflected about the ramp normal;
        * entered through the back face (x just past ``x_trailing``
          moving upstream is handled by the caller's domain pass; here a
          particle inside the solid with incoming -x velocity near the
          back face mirrors across ``x = x_trailing``).

        Returns updated copies of (x, y, u, v) plus the back-face and
        ramp reflection masks (used by the surface-load sampler).  The
        caller iterates this with the wall pass until no particle is
        inside any solid (a particle reflected off the ramp can land
        below the floor and vice versa).
        """
        x = np.array(x, dtype=np.float64, copy=True)
        y = np.array(y, dtype=np.float64, copy=True)
        u = np.array(u, dtype=np.float64, copy=True)
        v = np.array(v, dtype=np.float64, copy=True)

        inside = self.inside(x, y)
        if not np.any(inside):
            none = np.zeros_like(inside)
            return x, y, u, v, none, none

        # Back-face crossing: the particle is inside the solid, moving
        # in -x, and its pre-step position (x - u) was at or past the
        # vertical face -- it entered from the wake side.
        back = inside & (u < 0) & (x - u >= self.x_trailing)
        ramp = inside & ~back

        if np.any(back):
            x[back] = 2.0 * self.x_trailing - x[back]
            u[back] = -u[back]

        if np.any(ramp):
            # Mirror across the ramp plane through (x_leading, 0) with
            # unit normal n = (-sin a, cos a): p' = p - 2 (d . n) n where
            # d = signed distance (negative below the plane).
            sa, ca = math.sin(self.angle), math.cos(self.angle)
            dx = x[ramp] - self.x_leading
            dist = -sa * dx + ca * y[ramp]  # signed distance to plane
            x[ramp] = x[ramp] + 2.0 * dist * sa
            y[ramp] = y[ramp] - 2.0 * dist * ca
            # Velocity: reflect about the plane normal.
            un, vn = u[ramp], v[ramp]
            vdotn = -sa * un + ca * vn
            u[ramp] = un + 2.0 * vdotn * sa
            v[ramp] = vn - 2.0 * vdotn * ca
        return x, y, u, v, back, ramp
