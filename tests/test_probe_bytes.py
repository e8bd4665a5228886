"""Bit identity of the tail probe data against its per-family reference forms.

``harness._tail_data`` builds the Dirichlet data ``S(t) grad t`` of every tail
probe from the closed form of the shape in the whole space.  The reference
builders below are the per-family forms it replaced, evaluated at every node:
the whole-line or radial profile on a line or radial grid, ``(0, S(y))``
repeated along the rows of a band grid, and ``S(r) (x/r, y/r)`` on a box grid,
0 at ``r = 0``.  A probe reads its data only at the Dirichlet nodes, so the
tail probes of ``max-principle`` and of the interior estimate must match the
references there bit for bit and hold +0.0 at every other node; no frozen
report pins these data otherwise.
"""

import numpy as np
import pytest

from pdethick import analytic, harness
from pdethick import shapes as _shapes

A = 0.04


# -- reference tail builders -----------------------------------------------------


def ref_profile_tail_data(grid, tail):
    return analytic.profile(tail, grid.node_coords(0))


def ref_band_tail_data(grid, tail):
    col = analytic.profile(tail, grid.node_coords(1))
    n_nodes = int(np.prod(grid.node_counts()))
    data = np.zeros(2 * n_nodes)
    data[n_nodes:] = np.repeat(col, grid.node_counts()[0])
    return data


def ref_annulus_tail_data(grid, asol):
    xx, yy = np.meshgrid(grid.node_coords(0), grid.node_coords(1))
    rr = np.hypot(xx, yy)
    s_of_r = analytic.profile(asol, rr)
    with np.errstate(invalid="ignore", divide="ignore"):
        cx = np.where(rr > 0, xx / rr, 0.0)
        cy = np.where(rr > 0, yy / rr, 0.0)
    return np.concatenate([(s_of_r * cx).ravel(), (s_of_r * cy).ravel()])


# -- comparisons -----------------------------------------------------------------


def assert_matches_on_dirichlet_nodes(system, data, reference):
    """``data`` has the reference's bits at the Dirichlet entries and +0.0 at all others."""
    fixed = system.dirichlet_mask
    assert data.shape == reference.shape
    assert data[fixed].tobytes() == reference[fixed].tobytes()
    assert data[~fixed].tobytes() == np.zeros(np.count_nonzero(~fixed)).tobytes()


def _line_tail():
    return analytic.interval_whole(0.0, 1.0, A)


def _radial_tail():
    return analytic.annulus_whole(1.0, 2.0, A)


#: tail probe label -> its reference data from the probe's grid
REFERENCES = {
    "interval-tail": lambda grid: ref_profile_tail_data(grid, _line_tail()),
    "radial-tail": lambda grid: ref_profile_tail_data(grid, _radial_tail()),
    "band-tail": lambda grid: ref_band_tail_data(grid, _line_tail()),
    "annulus-box-tail": lambda grid: ref_annulus_tail_data(grid, _radial_tail()),
}


@pytest.fixture(scope="module")
def tail_probes():
    """label -> (system, data) of each tail probe of ``max-principle``."""
    probes = harness._max_principle_probes(A)
    return {label: (system, data) for label, system, data in probes if label in REFERENCES}


@pytest.mark.parametrize("label", list(REFERENCES))
def test_max_principle_tail_matches_its_reference(label, tail_probes):
    system, data = tail_probes[label]
    assert_matches_on_dirichlet_nodes(system, data, REFERENCES[label](system.grid))


def test_box_tail_is_zero_at_its_center_node(tail_probes):
    system, data = tail_probes["annulus-box-tail"]
    xx, yy = np.meshgrid(system.grid.node_coords(0), system.grid.node_coords(1))
    (center,) = np.flatnonzero((np.hypot(xx, yy) == 0.0).ravel())
    n_nodes = xx.size
    assert not system.dirichlet_nodes[center]
    assert data[center] == 0.0 and data[n_nodes + center] == 0.0


def test_box_tail_evaluates_the_closed_form_at_the_dirichlet_nodes_only(tail_probes, monkeypatch):
    system, _ = tail_probes["annulus-box-tail"]
    calls = []
    evaluate = analytic.eval_solution
    monkeypatch.setattr(analytic, "eval_solution", lambda sol, t: calls.append(t) or evaluate(sol, t))
    harness._tail_data(system, _shapes.annulus_general(1.0, 2.0, 2.5), A)
    # 800 Dirichlet nodes of the 201 x 201 box, at far fewer distinct radii
    assert np.count_nonzero(system.dirichlet_nodes) == 800
    assert 0 < len(calls) <= 200


@pytest.mark.parametrize(
    "kind, reference",
    [("band", REFERENCES["band-tail"]), ("annulus", REFERENCES["annulus-box-tail"])],
)
def test_interior_estimate_tail_matches_its_reference(kind, reference):
    shape, _ = harness._INTERIOR_CASES[kind]
    system = harness._system(shape, A, harness.target_h(A))
    assert_matches_on_dirichlet_nodes(system, harness._tail_data(system, shape, A), reference(system.grid))
