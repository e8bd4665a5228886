"""Byte-for-byte equality of the batched inscribed-ball oracle with the per-cell loops.

``reference_oracle`` keeps the two loops the batched stamp replaced, one per
dimension: the 1D loop tests ``|dx| <= r``, the 2D loop ``dy**2 + dx**2 <= r*r``
on windows clipped to the grid or wrapped around the periodic x axis.  Every
grid runs a second time with ``ORACLE_BATCH`` at 7 pairs, so batches split
the reach groups, down to one source per batch.

The oracle stamps its reach groups largest first and stops at the first group
that cannot raise a cell.  ``_stamps`` counts what it stamps, so the tests
can pin both the skipped path and the one that is not skipped.
"""

import functools
import tracemalloc

import numpy as np
import pytest

from pdethick import geometry, shapes


def reference_oracle(grid, shape):
    """The per-cell loops: (values, mask) of the inscribed-ball thickness."""
    cls = geometry.classify_cells(grid, shape)
    rho = geometry._signed_distance_grid(shape, grid)
    mask = cls.shape_mask
    values = np.full(rho.shape, np.nan)
    values[mask] = 0.0
    h = grid.h
    if grid.dim == 1:
        x = grid.cell_centers(0)
        for i in np.flatnonzero(mask):
            r = rho[i]
            reach = int(r / h) + 1
            window = slice(max(0, i - reach), min(len(x), i + reach + 1))
            covered = np.abs(x[window] - x[i]) <= r
            covered &= mask[window]
            seg = values[window]
            seg[covered] = np.maximum(seg[covered], 2.0 * r)
        return values, mask
    cx = grid.cell_centers(0)
    cy = grid.cell_centers(1)
    nx, ny = grid.cells
    length_x = grid.extent[0]
    for j, i in np.argwhere(mask):
        r = rho[j, i]
        reach = int(r / h) + 1
        j_lo = max(0, j - reach)
        j_hi = min(ny, j + reach + 1)
        if grid.periodic_x:
            ii = np.arange(i - reach, i + reach + 1) % nx
            dx = cx[ii] - cx[i]
            dx = (dx + 0.5 * length_x) % length_x - 0.5 * length_x
        else:
            ii = np.arange(max(0, i - reach), min(nx, i + reach + 1))
            dx = cx[ii] - cx[i]
        dy = cy[j_lo:j_hi] - cy[j]
        covered = dy[:, None] ** 2 + dx[None, :] ** 2 <= r * r
        covered &= mask[j_lo:j_hi][:, ii]
        block = values[j_lo:j_hi][:, ii]
        block[covered] = np.maximum(block[covered], 2.0 * r)
        values[j_lo:j_hi, ii] = block
    return values, mask


def _line(lo, h, n):
    return geometry.StructuredGrid(dim=1, origin=(lo,), h=h, cells=(n,))


def _box(half, h, n):
    return geometry.StructuredGrid(dim=2, origin=(-half, -half), h=h, cells=(n, n))


def _band_grid(nx, ny, h, y0):
    return geometry.StructuredGrid(
        dim=2, origin=(0.0, y0), h=h, cells=(nx, ny), periodic_x=True
    )


WAVY = shapes.band_general(
    0.0, 1.0, -0.5, shapes.PeriodicBoundary(period=1.0, mean=1.5, cosine_coeffs=(0.1,)), L=1.0
)

# name -> (shape, grid); the grids of the verify check, of the CLI and off the grid lines
CASES = {
    "interval-whole": (shapes.interval_whole(0.0, 1.0), _line(-1.0, 0.01, 300)),
    # the shape reaches within h of both grid ends, so windows clip on both sides
    "interval-general": (shapes.interval_general(0.0, 1.0, -0.01, 1.01), _line(-0.01, 0.02, 51)),
    # the verify check's band, on the oracle command's grid: nx = 20 and reach
    # up to 20, so windows 41 cells wide wrap past the period twice
    "verify-band": (shapes.band_whole(0.0, 2.0, 1.0), _band_grid(20, 120, 0.05, -2.0)),
    # the same band with a pad of half its thickness, [-1, 3]
    "band-80": (shapes.band_whole(0.0, 2.0, 1.0), _band_grid(20, 80, 0.05, -1.0)),
    "wavy-band": (WAVY, _band_grid(16, 48, 1.0 / 16, -1.0)),
    "annulus-300": (shapes.annulus_whole(1.0, 2.0), _box(3.0, 0.02, 300)),
    # radii off the grid lines
    "annulus-173": (shapes.annulus_whole(0.7, 1.9), _box(2.5, 5.0 / 173, 173)),
    # coarse enough that groups below the largest still raise cells
    "annulus-31": (shapes.annulus_whole(1.0, 2.0), _box(2.5, 5.0 / 31, 31)),
}


@functools.lru_cache(maxsize=None)
def _reference(name):
    return reference_oracle(*CASES[name][::-1])


@pytest.mark.parametrize("batch", [geometry.ORACLE_BATCH, 7])
@pytest.mark.parametrize("name", list(CASES))
def test_matches_per_cell_loops(name, batch, monkeypatch):
    monkeypatch.setattr(geometry, "ORACLE_BATCH", batch)
    shape, grid = CASES[name]
    values, mask = _reference(name)
    field = geometry.geometric_thickness_oracle(grid, shape)
    assert field.values.tobytes() == values.tobytes()
    assert np.array_equal(field.mask, mask)


def _windows(name):
    """Column index and reach of every shape cell, and the cells along x."""
    shape, grid = CASES[name]
    mask = geometry.classify_cells(grid, shape).shape_mask
    rho = geometry._signed_distance_grid(shape, grid)
    return np.nonzero(mask)[-1], (rho[mask] / grid.h).astype(int) + 1, grid.cells[0]


def test_cases_clip_and_wrap():
    """The interval-general windows leave the grid at both ends; the band's outgrow its period."""
    column, reach, n = _windows("interval-general")
    assert (column - reach).min() < 0 and (column + reach).max() >= n
    _, reach, nx = _windows("verify-band")
    assert (2 * reach + 1).max() > 2 * nx


class _CountingNumpy:
    """Forwards to numpy; ``maximum.at`` also records the stamped diameters."""

    def __init__(self):
        self.diameters = []
        self.maximum = self

    def __getattr__(self, name):
        return getattr(np, name)

    def at(self, values, index, diameters):
        self.diameters.append(np.asarray(diameters))
        np.maximum.at(values, index, diameters)


def _stamps(name, monkeypatch):
    """The (source, target) pairs the oracle stamps on a case, and the reaches of their sources."""
    counter = _CountingNumpy()
    monkeypatch.setattr(geometry, "np", counter)
    shape, grid = CASES[name]
    geometry.geometric_thickness_oracle(grid, shape)
    diameters = np.concatenate(counter.diameters)
    # halving a diameter gives its radius exactly, so these are the oracle's own reaches
    return len(diameters), np.unique((diameters / 2 / grid.h).astype(int) + 1)


def test_annulus_stamps_only_its_largest_group(monkeypatch):
    """The 300^2 annulus windows hold 22,081,488 pairs over 25 groups; only the largest is stamped."""
    _, reach, _ = _windows("annulus-300")
    assert ((2 * reach + 1) ** 2).sum() == 22_081_488 and len(np.unique(reach)) == 25
    pairs, stamped = _stamps("annulus-300", monkeypatch)
    assert stamped.tolist() == [reach.max()] and pairs == 1_823_464


def test_coarse_annulus_stamps_below_its_largest_group(monkeypatch):
    """On the 31^2 annulus the path past the largest group runs, which the byte test covers."""
    _, reach, _ = _windows("annulus-31")
    _, stamped = _stamps("annulus-31", monkeypatch)
    assert len(stamped) > 1 and stamped.max() == reach.max()


def test_batch_cap_bounds_scratch_memory():
    """With all pairs stamped at once the 300^2 annulus peaks at about 72 MiB, batched at 5.7.

    Its largest reach group sets that peak, and it is the only group stamped.
    """
    shape, grid = CASES["annulus-300"]
    tracemalloc.start()
    try:
        geometry.geometric_thickness_oracle(grid, shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
