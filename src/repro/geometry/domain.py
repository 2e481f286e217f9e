"""The wind-tunnel domain: a rectangular grid of unit square cells.

McDonald & Baganoff argue for "small, geometrically simple and similar
cells", which "leads to a rectangular grid (in two dimensions) of square
cells of unit normal width" -- exactly what this class provides.  The
paper's validation runs use a 98 x 64 grid.

Coordinates: x in [0, nx), y in [0, ny), cell (i, j) covers
[i, i+1) x [j, j+1).  The flattened cell index is ``i * ny + j`` so that
consecutive indices run along y -- matching the sort-based pairing's
preference for compact cells (any consistent flattening works; tests pin
this one).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import GeometryError


@dataclass(frozen=True)
class Domain:
    """A 2-D wind tunnel of ``nx`` by ``ny`` unit cells.

    The third (z) dimension is periodic and unit deep: particles carry a
    z velocity (three translational degrees of freedom) but no z
    position in the 2-D configuration.
    """

    nx: int = 98
    ny: int = 64

    def __post_init__(self) -> None:
        if self.nx < 2 or self.ny < 2:
            raise GeometryError(
                f"domain must be at least 2x2 cells, got {self.nx}x{self.ny}"
            )

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def width(self) -> float:
        return float(self.nx)

    @property
    def height(self) -> float:
        return float(self.ny)

    # -- cell indexing ----------------------------------------------------

    def cell_coords(self, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Cell (i, j) containing each point, clipped into the grid.

        Clipping guards against positions exactly on the outer faces
        (x == nx from a just-reflected particle); boundary enforcement
        runs before cell indexing, so interior points are the norm.
        """
        i = np.clip(np.floor(x).astype(np.int64), 0, self.nx - 1)
        j = np.clip(np.floor(y).astype(np.int64), 0, self.ny - 1)
        return i, j

    def cell_index(
        self, x: np.ndarray, y: np.ndarray, out: np.ndarray = None
    ) -> np.ndarray:
        """Flattened cell index ``i * ny + j`` of each point.

        ``out`` (int64, same shape) receives the result in place --
        the step loop passes the population's cell column so repeated
        indexing performs no O(N) result allocation.
        """
        i, j = self.cell_coords(x, y)
        if out is not None:
            np.multiply(i, self.ny, out=out)
            out += j
            return out
        return i * self.ny + j

    def cell_index_from_coords(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Flatten (i, j) cell coordinates to the linear index."""
        return np.asarray(i) * self.ny + np.asarray(j)

    def coords_from_cell_index(self, idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Invert the flattened cell index back to (i, j)."""
        idx = np.asarray(idx)
        return idx // self.ny, idx % self.ny

    def cell_centers(self) -> Tuple[np.ndarray, np.ndarray]:
        """Meshgrid arrays (shape nx x ny) of cell-center coordinates."""
        cx = np.arange(self.nx) + 0.5
        cy = np.arange(self.ny) + 0.5
        return np.meshgrid(cx, cy, indexing="ij")

    # -- predicates -------------------------------------------------------

    def inside(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Boolean mask of points strictly inside the tunnel box."""
        return (x >= 0) & (x < self.nx) & (y >= 0) & (y < self.ny)

    def exited_downstream(self, x: np.ndarray) -> np.ndarray:
        """Mask of particles past the soft downstream (sink) boundary."""
        return np.asarray(x) >= self.nx


@functools.lru_cache(maxsize=32)
def supersampled_open_fractions(
    body, domain: Domain, supersample: int = 16
) -> np.ndarray:
    """Open (gas-accessible) area fraction of every cell for any body.

    Returns a read-only ``(nx, ny)`` float array in [0, 1]: 1 for cells
    fully in the flow, 0 for cells swallowed by the body, intermediate
    for cut cells.  Each cell is probed at ``supersample**2`` interior
    points against ``body.inside`` (vectorized).  Bodies and domains are
    frozen dataclasses, so the result is memoized on the
    ``(body, domain, supersample)`` key: every engine and every restore
    in a process shares one computation per geometry.
    """
    if supersample < 2:
        raise GeometryError("supersample must be >= 2")
    body.validate_in(domain)
    # Subcell probe offsets (cell-relative, centered).
    s = (np.arange(supersample) + 0.5) / supersample
    ox, oy = np.meshgrid(s, s, indexing="ij")  # (S, S)
    ci = np.arange(domain.nx, dtype=np.float64)
    cj = np.arange(domain.ny, dtype=np.float64)
    # Probe coordinates: (nx, ny, S, S) via broadcasting.
    px = ci[:, None, None, None] + ox[None, None, :, :]
    py = cj[None, :, None, None] + oy[None, None, :, :]
    fractions = 1.0 - body.inside(px, py).mean(axis=(2, 3))
    fractions.setflags(write=False)
    return fractions
