"""1-D periodic grids, cell-centered fields and discrete differential operators.

All numerical modules share the same spatial setting: a uniform periodic
grid of ``n`` cells on ``[0, length)`` with cell centers at
``x_i = (i + 1/2) dx``.  Derivatives are second-order central differences
with periodic wraparound, so there are no boundary special cases.  A
:class:`MixtureState` holds one packed ``(6, n)`` array, rows in
``PRIMITIVES`` order, and exposes its rows as named views.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PRIMITIVES = ("rho1", "rho2", "v1", "v2", "s1", "s2")


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic 1-D grid."""

    n: int
    length: float

    def __post_init__(self):
        if self.n < 4:
            raise ValueError(f"grid needs at least 4 cells, got n={self.n}")
        if not self.length > 0:
            raise ValueError(f"grid length must be positive, got {self.length}")

    @property
    def dx(self) -> float:
        return self.length / self.n

    def cell_centers(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) * self.dx


def grad(f: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Second-order central difference with periodic wrap."""
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.n,):
        raise ValueError(f"field shape {f.shape} does not match grid n={grid.n}")
    return (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * grid.dx)


def div(f: np.ndarray, grid: Grid1D) -> np.ndarray:
    """1-D divergence; identical to :func:`grad`."""
    return grad(f, grid)


def material_derivative(f_t: np.ndarray, f_x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pointwise d/dt following velocity v: f_t + v * f_x."""
    return np.asarray(f_t, dtype=float) + np.asarray(v, dtype=float) * np.asarray(f_x, dtype=float)


class MixtureState:
    """Primitive per-cell fields of a binary mixture on one grid.

    Fields: densities rho1, rho2 [kg/m^3], velocities v1, v2 [m/s] and
    specific entropies s1, s2 [J/(kg K)], read-only views of the rows of
    ``packed``, one (6, n) array.  The constructor either copies the six
    fields into a new array or, given ``packed=``, takes over that float64
    (6, n) array without a copy; its caller then writes to it no more.
    Densities must be strictly positive everywhere; every field must be
    finite and aligned to the grid.
    """

    __slots__ = ("grid", "packed")

    rho1, rho2, v1, v2, s1, s2 = (property(lambda self, i=i: self.packed[i])
                                  for i in range(len(PRIMITIVES)))

    def __init__(self, grid: Grid1D, *fields, packed: np.ndarray | None = None):
        self.grid = grid
        shape = (len(PRIMITIVES), grid.n)
        if packed is None:
            if len(fields) != len(PRIMITIVES):
                raise TypeError(f"MixtureState takes the fields {', '.join(PRIMITIVES)}, "
                                f"got {len(fields)} of them")
            packed = np.empty(shape)
            for row, name, values in zip(packed, PRIMITIVES, fields):
                values = np.asarray(values, dtype=float)
                if values.shape not in ((), (grid.n,)):
                    raise ValueError(f"{name}: shape {values.shape} does not match grid n={grid.n}")
                row[...] = values
        elif fields or packed.shape != shape or packed.dtype != np.float64:
            raise TypeError(f"packed= takes a float64 array of shape {shape} and no fields")
        self.packed = packed
        finite = np.isfinite(packed).all(axis=1)
        if not finite.all():
            raise ValueError(f"{PRIMITIVES[finite.argmin()]}: field contains non-finite entries")
        if (packed[0:2] <= 0).any():
            raise ValueError("densities must be strictly positive everywhere: "
                             + first_cell(packed[0:2], PRIMITIVES))

    # -- derived mixture quantities --------------------------------------

    @property
    def rho(self) -> np.ndarray:
        """Mixture density rho1 + rho2."""
        return self.rho1 + self.rho2

    @property
    def concentration(self) -> np.ndarray:
        """Mass fraction of component 1, c = rho1 / rho."""
        return self.rho1 / self.rho

    @property
    def v_mean(self) -> np.ndarray:
        """Mass-average velocity from rho v = rho1 v1 + rho2 v2."""
        return (self.rho1 * self.v1 + self.rho2 * self.v2) / self.rho

    @property
    def u(self) -> np.ndarray:
        """Relative velocity v2 - v1."""
        return self.v2 - self.v1

    @property
    def j(self) -> np.ndarray:
        """Diffusion flux rho1 (v1 - v)."""
        return self.rho1 * (self.v1 - self.v_mean)

    def copy(self) -> "MixtureState":
        return MixtureState(self.grid, *self.packed)


def first_cell(rows, names, bad=None, offset: int = 0) -> str:
    """'name = value at cell i' for the lowest cell where one of the rows is bad.

    bad is a mask shaped like rows, rows <= 0 by default.  Meant for error
    messages, after a check has found such a cell; ties go to the first
    row.  The rows' first cell is numbered offset.
    """
    cell, row = np.argwhere((rows <= 0 if bad is None else bad).T)[0]
    return f"{names[row]} = {float(rows[row, cell])!r} at cell {cell + offset}"

