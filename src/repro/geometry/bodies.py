"""Solid bodies beyond the wedge: the scenario-library shapes.

The paper implements exactly one body ("the only geometry supported is
an inclined flat plate"); the scenario registry needs more.  Every body
satisfies the same duck-typed seam the boundary machinery already uses
for :class:`~repro.geometry.wedge.Wedge`:

* ``kind`` -- short string identifying the shape (serialization);
* ``validate_in(domain)`` -- raise :class:`GeometryError` unless the
  body fits inside the tunnel;
* ``inside(x, y)`` -- mask of points strictly inside the solid;
* ``reflect_specular_report(x, y, u, v)`` -- specularly reflect the
  points that penetrated the solid, returning updated copies plus two
  masks ``(back, primary)`` of which face was hit;
* ``open_volume_fractions(domain)`` -- gas-accessible area fraction of
  every cell (delegated to the memoized
  :func:`~repro.geometry.domain.supersampled_open_fractions`);
* ``project_out(x, y)`` -- last-resort positional rescue for particles
  the bounded reflection iteration failed to expel;
* ``to_config_dict()`` / :func:`body_from_dict` -- snapshot round-trip.

The boundary enforcement loop (:mod:`repro.core.boundary`) only ever
calls this seam, so a :class:`Cylinder` or :class:`Step` drops into the
simulation wherever a wedge would go.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.domain import Domain, supersampled_open_fractions
from repro.geometry.wedge import Wedge


@dataclass(frozen=True)
class Cylinder:
    """A circular (blunt) body in the test section.

    Mach-4 flow detaches a bow shock ahead of it -- the regime the
    theta-beta-M metrology cannot reach, validated instead against
    committed golden observables (stagnation density, wake expansion).

    Parameters
    ----------
    cx, cy:
        Center, cell widths from the tunnel origin.
    radius:
        Radius in cell widths.
    """

    cx: float = 20.0
    cy: float = 20.0
    radius: float = 6.0

    kind = "cylinder"

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise GeometryError(f"radius must be positive, got {self.radius}")

    def validate_in(self, domain: Domain) -> None:
        """Raise unless the full circle sits inside the tunnel."""
        r = self.radius
        if (
            self.cx - r <= 0
            or self.cx + r >= domain.width
            or self.cy - r <= 0
            or self.cy + r >= domain.height
        ):
            raise GeometryError(
                f"cylinder (({self.cx}, {self.cy}), r={r}) does not fit "
                f"inside the {domain.nx}x{domain.ny} domain"
            )

    def inside(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Mask of points strictly inside the circle."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        return (x - self.cx) ** 2 + (y - self.cy) ** 2 < self.radius**2

    def reflect_specular_report(
        self, x: np.ndarray, y: np.ndarray, u: np.ndarray, v: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Mirror penetrating points across the circular surface.

        A point at radial distance ``d < r`` moves to ``2r - d`` along
        the same radial ray, and the velocity reflects about the surface
        normal at the contact point (the radial direction).  The second
        mask slot (the wedge's "back face") is always empty: a circle
        has one face.
        """
        x = np.array(x, dtype=np.float64, copy=True)
        y = np.array(y, dtype=np.float64, copy=True)
        u = np.array(u, dtype=np.float64, copy=True)
        v = np.array(v, dtype=np.float64, copy=True)
        hit = self.inside(x, y)
        none = np.zeros_like(hit)
        if not np.any(hit):
            return x, y, u, v, none, none
        dx = x[hit] - self.cx
        dy = y[hit] - self.cy
        d = np.hypot(dx, dy)
        # A particle exactly at the center has no radial direction;
        # expel it against its own velocity (it arrived from there).
        deg = d < 1e-12
        if np.any(deg):
            speed = np.hypot(u[hit][deg], v[hit][deg])
            safe = np.where(speed > 0, speed, 1.0)
            dx[deg] = -(u[hit][deg] / safe)
            dy[deg] = np.where(speed > 0, -(v[hit][deg] / safe), 1.0)
            d[deg] = 1e-12
        nx_, ny_ = dx / d, dy / d
        x[hit] = self.cx + (2.0 * self.radius - d) * nx_
        y[hit] = self.cy + (2.0 * self.radius - d) * ny_
        vdotn = u[hit] * nx_ + v[hit] * ny_
        u[hit] = u[hit] - 2.0 * vdotn * nx_
        v[hit] = v[hit] - 2.0 * vdotn * ny_
        return x, y, u, v, none, hit

    def open_volume_fractions(
        self, domain: Domain, supersample: int = 16
    ) -> np.ndarray:
        """Per-cell open-area fractions (memoized, read-only)."""
        return supersampled_open_fractions(self, domain, supersample)

    def project_out(
        self, x: np.ndarray, y: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Push stragglers radially onto the surface (just outside)."""
        x = np.array(x, dtype=np.float64, copy=True)
        y = np.array(y, dtype=np.float64, copy=True)
        dx = x - self.cx
        dy = y - self.cy
        d = np.hypot(dx, dy)
        deg = d < 1e-12
        dy = np.where(deg, 1.0, dy)
        d = np.where(deg, 1.0, d)
        r_out = self.radius + 1e-9
        return self.cx + dx / d * r_out, self.cy + dy / d * r_out

    def to_config_dict(self) -> dict:
        """Serializable parameters, tagged with ``kind`` for dispatch."""
        return {"kind": self.kind, **asdict(self)}


@dataclass(frozen=True)
class Step:
    """A rectangular block on the tunnel floor (forward-facing step).

    The tunnel cross-section contracts over the block and re-expands
    off its top-back corner -- the channel-with-sudden-expansion
    scenario: a detached shock stands ahead of the vertical front face,
    the flow accelerates through the constriction above the block, and
    a Prandtl-Meyer-like expansion empties into the low-density wake
    behind it.

    Parameters
    ----------
    x_leading:
        x of the front face, cell widths.  Must sit past the upstream
        plunger trigger so refills never land inside the solid.
    height:
        Block height, cell widths.
    length:
        Streamwise extent, cell widths.
    """

    x_leading: float = 14.0
    height: float = 10.0
    length: float = 12.0

    kind = "step"

    def __post_init__(self) -> None:
        if self.height <= 0 or self.length <= 0:
            raise GeometryError("step height and length must be positive")
        if self.x_leading <= 0:
            raise GeometryError("x_leading must be positive")

    @property
    def x_trailing(self) -> float:
        return self.x_leading + self.length

    def validate_in(self, domain: Domain) -> None:
        """Raise :class:`GeometryError` unless the block fits the tunnel."""
        if self.x_trailing >= domain.width:
            raise GeometryError(
                f"step trailing edge {self.x_trailing} outside domain "
                f"width {domain.width}"
            )
        if self.height >= domain.height:
            raise GeometryError(
                f"step height {self.height} exceeds domain height "
                f"{domain.height}"
            )

    def inside(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Mask of points strictly inside the block."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        return (
            (x > self.x_leading)
            & (x < self.x_trailing)
            & (y < self.height)
            & (y >= 0)
        )

    def reflect_specular_report(
        self, x: np.ndarray, y: np.ndarray, u: np.ndarray, v: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Classify the crossed face by the pre-step position.

        Same idiom as the wedge's back face: the previous position is
        ``(x - u, y - v)`` (unit time step).  A particle that was ahead
        of the front face mirrors across it; one that was behind the
        back face mirrors across that; everything else entered through
        the top.  Corner-clippers that remain inside are caught by the
        caller's bounded iteration and final clamp.
        """
        x = np.array(x, dtype=np.float64, copy=True)
        y = np.array(y, dtype=np.float64, copy=True)
        u = np.array(u, dtype=np.float64, copy=True)
        v = np.array(v, dtype=np.float64, copy=True)
        hit = self.inside(x, y)
        none = np.zeros_like(hit)
        if not np.any(hit):
            return x, y, u, v, none, none
        front = hit & (u > 0) & (x - u <= self.x_leading)
        back = hit & ~front & (u < 0) & (x - u >= self.x_trailing)
        top = hit & ~front & ~back
        if np.any(front):
            x[front] = 2.0 * self.x_leading - x[front]
            u[front] = -u[front]
        if np.any(back):
            x[back] = 2.0 * self.x_trailing - x[back]
            u[back] = -u[back]
        if np.any(top):
            y[top] = 2.0 * self.height - y[top]
            v[top] = -v[top]
        return x, y, u, v, back, front | top

    def open_volume_fractions(
        self, domain: Domain, supersample: int = 16
    ) -> np.ndarray:
        """Per-cell open-area fractions (memoized, read-only)."""
        return supersampled_open_fractions(self, domain, supersample)

    def project_out(
        self, x: np.ndarray, y: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Lift stragglers onto the top surface, just outside."""
        x = np.array(x, dtype=np.float64, copy=True)
        y = np.array(y, dtype=np.float64, copy=True)
        bad = self.inside(x, y)
        y[bad] = self.height + 1e-9
        return x, y

    def to_config_dict(self) -> dict:
        """Serializable parameters, tagged with ``kind`` for dispatch."""
        return {"kind": self.kind, **asdict(self)}


#: Body constructors by ``kind`` (snapshot / scenario-spec dispatch).
BODY_KINDS = {
    "wedge": Wedge,
    "cylinder": Cylinder,
    "step": Step,
}


def body_from_dict(d: dict):
    """Reconstruct a body from its config dict.

    ``kind`` defaults to ``"wedge"`` so pre-registry snapshot blobs
    (which stored bare wedge parameters) keep loading unchanged.
    """
    params = dict(d)
    kind = params.pop("kind", "wedge")
    try:
        cls = BODY_KINDS[kind]
    except KeyError:
        raise GeometryError(
            f"unknown body kind {kind!r}; expected one of "
            f"{sorted(BODY_KINDS)}"
        ) from None
    return cls(**params)
