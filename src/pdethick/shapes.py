"""Parametric shape descriptions for the thickness problems.

A :class:`ShapeSpec` pins down both the shape domain (interval, straight band
or annulus, each of constant geometric thickness ``f_r - f_l``) and the
surrounding fictitious domain: the whole space, a bounding interval
``(b_l, b_r)``, a periodically-wavy strip, or a box with inscribed-disk
radius ``b_r``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .errors import InvalidShapeError

#: Relative width below which a shape is rejected as degenerate.
DEGENERATE_WIDTH_REL = 1e-14

#: Equispaced points of one period at which a wavy boundary's extremes are sampled.
EXTREME_SAMPLES = 8192


class Family(str, Enum):
    INTERVAL_WHOLE = "interval-whole"
    INTERVAL_GENERAL = "interval-general"
    BAND_WHOLE = "band-whole"
    BAND_GENERAL = "band-general"
    ANNULUS_WHOLE = "annulus-whole"
    ANNULUS_GENERAL = "annulus-general"

    @property
    def kind(self) -> str:
        """``"interval"``, ``"band"`` or ``"annulus"``: the shape, whatever its fictitious domain."""
        return self.value.partition("-")[0]


#: The fields each family needs beyond ``f_l`` and ``f_r``.
FIELDS = {
    Family.INTERVAL_WHOLE: (),
    Family.INTERVAL_GENERAL: ("b_l", "b_r"),
    Family.BAND_WHOLE: ("L",),
    Family.BAND_GENERAL: ("b_l", "b_r", "L"),
    Family.ANNULUS_WHOLE: (),
    Family.ANNULUS_GENERAL: ("b_r",),
}


@dataclass(frozen=True)
class PeriodicBoundary:
    """Truncated Fourier series describing one wavy boundary of a band domain.

    Evaluates to ``mean + sum_k cos_k cos(2*pi*k*x/period)
    + sum_k sin_k sin(2*pi*k*x/period)``; a finite series is C^1 (indeed
    smooth) and periodic by construction.
    """

    period: float
    mean: float
    cosine_coeffs: tuple = ()
    sine_coeffs: tuple = ()

    def __post_init__(self):
        if not 0 < self.period < math.inf:  # NaN fails too
            raise InvalidShapeError(f"period must be positive and finite, got {self.period}")
        object.__setattr__(self, "cosine_coeffs", tuple(float(c) for c in self.cosine_coeffs))
        object.__setattr__(self, "sine_coeffs", tuple(float(c) for c in self.sine_coeffs))
        if not all(math.isfinite(v) for v in (self.mean, *self.cosine_coeffs, *self.sine_coeffs)):
            raise InvalidShapeError("boundary mean and coefficients must be finite")

    @classmethod
    def constant(cls, value: float, period: float = 1.0) -> "PeriodicBoundary":
        return cls(period=period, mean=float(value))

    @property
    def is_constant(self) -> bool:
        return not self.cosine_coeffs and not self.sine_coeffs

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, self.mean, dtype=float)
        w = 2.0 * math.pi / self.period
        for k, c in enumerate(self.cosine_coeffs, start=1):
            if c:
                out = out + c * np.cos(k * w * x)
        for k, s in enumerate(self.sine_coeffs, start=1):
            if s:
                out = out + s * np.sin(k * w * x)
        return out

    def extremes(self) -> tuple:
        """(min, max) of the series at ``EXTREME_SAMPLES`` equispaced points of one period.

        Exact for constants; otherwise the true extremes can lie beyond the
        sampled ones by up to ``sampling_gap()``.
        """
        return (self.mean, self.mean) if self.is_constant else self._sampled_extremes

    @cached_property
    def _sampled_extremes(self) -> tuple:
        """The sampled (min, max), evaluated once per instance: the instance is frozen."""
        vals = self(np.linspace(0.0, self.period, EXTREME_SAMPLES, endpoint=False))
        return (float(vals.min()), float(vals.max()))

    def sampling_gap(self) -> float:
        """Bound on how far the true extremes lie beyond ``extremes()``.

        Every point is within half a sample spacing ``period/EXTREME_SAMPLES`` of
        a sample, and the slope is at most ``2 pi/period * sum_k k (|cos_k| + |sin_k|)``.
        """
        coeffs = (self.cosine_coeffs, self.sine_coeffs)
        return math.pi / EXTREME_SAMPLES * sum(k * abs(c) for cs in coeffs for k, c in enumerate(cs, 1))


BoundarySpec = Union[float, PeriodicBoundary, None]


def _as_boundary(value: Union[float, PeriodicBoundary], period: float) -> PeriodicBoundary:
    if isinstance(value, PeriodicBoundary):
        return value
    return PeriodicBoundary.constant(float(value), period)


@dataclass(frozen=True)
class ShapeSpec:
    """A shape domain plus its fictitious domain.

    ``f_l``/``f_r`` are interval ends, band levels, or annulus radii; the
    geometric thickness is always ``f_r - f_l``.  ``b_l``/``b_r`` bound the
    fictitious domain where applicable (floats for intervals, periodic
    boundary functions for general bands, the inscribed-disk radius for
    general annuli; ``None`` elsewhere).  ``L`` is the band period.
    """

    family: Family
    f_l: float
    f_r: float
    b_l: BoundarySpec = None
    b_r: BoundarySpec = None
    L: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        object.__setattr__(self, "f_l", float(self.f_l))
        object.__setattr__(self, "f_r", float(self.f_r))
        for name in ("f_l", "f_r", "L", "b_l", "b_r"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, PeriodicBoundary) and not math.isfinite(value):
                raise InvalidShapeError(f"{name} must be finite, got {value}")
        if self.f_l >= self.f_r:
            raise InvalidShapeError(f"need f_l < f_r, got f_l={self.f_l}, f_r={self.f_r}")
        width = self.f_r - self.f_l
        scale = max(abs(self.f_l), abs(self.f_r))
        if scale > 0 and width < DEGENERATE_WIDTH_REL * scale:
            raise InvalidShapeError(
                f"degenerate shape: width {width} below {DEGENERATE_WIDTH_REL} * {scale}"
            )
        missing = [name for name in FIELDS[self.family] if getattr(self, name) is None]
        if missing:
            raise InvalidShapeError(f"{self.family.value} needs {' and '.join(missing)}")
        stray = [name for name in ("b_l", "b_r", "L") if name not in FIELDS[self.family] and getattr(self, name) is not None]
        if stray:
            raise InvalidShapeError(f"{self.family.value} takes no {' or '.join(stray)}")
        kind = self.family.kind
        if kind == "band":
            if self.L <= 0:
                raise InvalidShapeError("band shapes need a positive period L")
            object.__setattr__(self, "L", float(self.L))
        elif kind == "annulus" and self.f_l <= 0:
            raise InvalidShapeError(f"annulus needs 0 < f_l, got {self.f_l}")
        if self.family.value.endswith("-whole"):
            return
        if kind == "interval":
            b_l, b_r = float(self.b_l), float(self.b_r)
            if not (b_l < self.f_l and self.f_r < b_r):
                raise InvalidShapeError(
                    f"need b_l < f_l < f_r < b_r, got {b_l}, {self.f_l}, {self.f_r}, {b_r}"
                )
        elif kind == "band":
            b_l = _as_boundary(self.b_l, self.L)
            b_r = _as_boundary(self.b_r, self.L)
            if not (
                math.isclose(b_l.period, self.L, rel_tol=1e-12)
                and math.isclose(b_r.period, self.L, rel_tol=1e-12)
            ):
                raise InvalidShapeError("boundary periods must equal the band period L")
            # the sampled extremes, widened by their sampling gap, bound the true ones
            max_b_l = b_l.extremes()[1] + b_l.sampling_gap()
            min_b_r = b_r.extremes()[0] - b_r.sampling_gap()
            if not (max_b_l < self.f_l and self.f_r < min_b_r):
                raise InvalidShapeError("need max b_l < f_l < f_r < min b_r")
        else:
            b_l, b_r = self.b_l, float(self.b_r)
            if b_r <= self.f_r:
                raise InvalidShapeError(f"need f_r < b_r, got {self.f_r}, {b_r}")
        object.__setattr__(self, "b_l", b_l)
        object.__setattr__(self, "b_r", b_r)

    def across(self, *coords):
        """The coordinate across the shape at the point ``coords``, floats or arrays.

        ``coords`` is ``(x,)`` or ``(x, y)``.  Intervals take x, bands the last
        coordinate, annuli the radius; a lone coordinate on an annulus is a
        radius, as on radial grids, so it counts as ``|x|``.
        """
        kind = self.family.kind
        if kind == "annulus":
            return np.hypot(*coords) if len(coords) == 2 else abs(coords[0])
        return coords[-1] if kind == "band" else coords[0]

    @property
    def thickness(self) -> float:
        """Constant geometric thickness of the shape."""
        return self.f_r - self.f_l

    @property
    def margin(self) -> float:
        """Distance from the shape to the fictitious-domain boundary.

        Infinite for whole-space families.
        """
        fam = self.family
        if fam == Family.INTERVAL_GENERAL:
            return min(self.f_l - self.b_l, self.b_r - self.f_r)
        if fam == Family.BAND_GENERAL:
            return min(self.f_l - self.b_l.extremes()[1], self.b_r.extremes()[0] - self.f_r)
        if fam == Family.ANNULUS_GENERAL:
            return self.b_r - self.f_r
        return math.inf


def interval_whole(f_l: float, f_r: float) -> ShapeSpec:
    return ShapeSpec(Family.INTERVAL_WHOLE, f_l, f_r)


def interval_general(f_l: float, f_r: float, b_l: float, b_r: float) -> ShapeSpec:
    return ShapeSpec(Family.INTERVAL_GENERAL, f_l, f_r, b_l=b_l, b_r=b_r)


def band_whole(f_l: float, f_r: float, L: float) -> ShapeSpec:
    return ShapeSpec(Family.BAND_WHOLE, f_l, f_r, L=L)


def band_general(
    f_l: float,
    f_r: float,
    b_l: Union[float, PeriodicBoundary],
    b_r: Union[float, PeriodicBoundary],
    L: float,
) -> ShapeSpec:
    return ShapeSpec(Family.BAND_GENERAL, f_l, f_r, b_l=b_l, b_r=b_r, L=L)


def annulus_whole(f_l: float, f_r: float) -> ShapeSpec:
    return ShapeSpec(Family.ANNULUS_WHOLE, f_l, f_r)


def annulus_general(f_l: float, f_r: float, b_r: float) -> ShapeSpec:
    return ShapeSpec(Family.ANNULUS_GENERAL, f_l, f_r, b_r=b_r)
