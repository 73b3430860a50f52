"""Shared fixtures: maps, towers, schemes, Gibbs states; sweep configs.

The expensive pipeline objects are session-scoped and shared between the
module tests and the acceptance suite.
"""

import collections

import numpy as np
import pytest

from thermoform.cylinders import partition
from thermoform.inducing import build_scheme
from thermoform.maps import make_map
from thermoform.thermo import (
    SpectralOperator, gibbs_state, project_measure, projection_pieces,
)
from thermoform.tower import build_tower, transitive_component


def cylinder_by_itinerary(m, k, itinerary):
    part = partition(m, k)
    for c in part.cylinders:
        if c.itinerary == tuple(itinerary):
            return c
    raise AssertionError(f"no cylinder {itinerary} at level {k}")


class BranchRow(collections.namedtuple("BranchRow", "lo hi tau itinerary")):
    """One branch of a Branches record, its itinerary a tuple of symbols."""

    @property
    def width(self):
        return self.hi - self.lo


def branch_rows(branches):
    """The BranchRow of every branch of the Branches record, in order."""
    b = branches
    return [BranchRow(lo, hi, tau, tuple(itin[:tau])) for lo, hi, tau, itin
            in zip(b.lo.tolist(), b.hi.tolist(), b.tau.tolist(), b.itin.tolist())]


@pytest.fixture(scope="session")
def tent2():
    return make_map("tent", {"s": 2.0})


@pytest.fixture(scope="session")
def tent19():
    return make_map("tent", {"s": 1.9})


@pytest.fixture(scope="session")
def cheb():
    return make_map("cheb")


@pytest.fixture(scope="session")
def tent2_tower(tent2):
    tw = build_tower(tent2, 8)
    transitive_component(tw)
    return tw


@pytest.fixture(scope="session")
def cheb_tower(cheb):
    tw = build_tower(cheb, 8)
    transitive_component(tw)
    return tw


@pytest.fixture(scope="session")
def tent19_tower(tent19):
    tw = build_tower(tent19, 8)
    transitive_component(tw)
    return tw


@pytest.fixture(scope="session")
def tent2_scheme(tent2, tent2_tower):
    # the full-shift oracle scheme on the left 1-cylinder
    base = cylinder_by_itinerary(tent2, 1, (0,))
    return build_scheme(tent2, tent2_tower, base, delta=0.1, n_max=25)


@pytest.fixture(scope="session")
def cheb_scheme(cheb, cheb_tower):
    # level-2 base avoiding the critical values 0 and 1
    base = cylinder_by_itinerary(cheb, 2, (0, 1))
    return build_scheme(cheb, cheb_tower, base, delta=0.1, n_max=20)


@pytest.fixture(scope="session")
def tent19_scheme(tent19, tent19_tower):
    base = cylinder_by_itinerary(tent19, 2, (0, 1))
    return build_scheme(tent19, tent19_tower, base, delta=0.1, n_max=20)


@pytest.fixture(scope="session")
def tent2_op(tent2_scheme):
    return SpectralOperator(tent2_scheme)


@pytest.fixture(scope="session")
def cheb_op(cheb_scheme):
    return SpectralOperator(cheb_scheme)


@pytest.fixture(scope="session")
def tent19_op(tent19_scheme):
    return SpectralOperator(tent19_scheme)


@pytest.fixture(scope="session")
def gibbs_cache():
    """(operator id, t) -> GibbsState, shared across modules."""
    return {}


def gibbs_for(cache, op, t, **kw):
    key = (id(op), t, tuple(sorted(kw.items())))
    if key not in cache:
        cache[key] = gibbs_state(op, t, **kw)
    return cache[key]


@pytest.fixture(scope="session")
def tent2_gibbs(tent2_op, gibbs_cache):
    return gibbs_for(gibbs_cache, tent2_op, 1.0)


@pytest.fixture(scope="session")
def cheb_gibbs(cheb_op, gibbs_cache):
    return gibbs_for(gibbs_cache, cheb_op, 1.0)


@pytest.fixture(scope="session")
def cheb_gibbs_t09(cheb_op, gibbs_cache):
    return gibbs_for(gibbs_cache, cheb_op, 0.9)


@pytest.fixture(scope="session")
def tent19_gibbs(tent19_op, gibbs_cache):
    return gibbs_for(gibbs_cache, tent19_op, 1.0)


def project_one(scheme, gs, **kw):
    """The projected measure of one Gibbs state: a batch of one."""
    mu, = project_measure(scheme, [projection_pieces(gs)], **kw)
    return mu


@pytest.fixture(scope="session")
def tent2_equilibrium(tent2_scheme, tent2_gibbs):
    return project_one(tent2_scheme, tent2_gibbs, bins=4096)


@pytest.fixture(scope="session")
def cheb_equilibrium(cheb_scheme, cheb_gibbs):
    return project_one(cheb_scheme, cheb_gibbs, bins=4096)


@pytest.fixture(scope="session")
def cheb_equilibrium_t09(cheb_scheme, cheb_gibbs_t09):
    return project_one(cheb_scheme, cheb_gibbs_t09, bins=4096)


SWEEP_CONFIG = {
    "family": "tent",
    "parameter": 1.9,
    "t_values": (0.9, 1.0),
    "ladder": (0.05, 0.02, 0.01, 0.005),
    "base_depth": 2,
    "n_max": 20,
    "bins": 4096,
    "split_parts": 8,
}

LOGISTIC_SWEEP_CONFIG = {
    "family": "logistic",
    "parameter": 4.0,
    "t_values": (0.9,),
    "ladder": (0.01, 0.005, 0.002),
    "ladder_direction": -1.0,
    "base_depth": 2,
    "n_max": 20,
    "bins": 2048,
    "split_parts": 8,
}


def cheb_acip_bin_masses(bins):
    """Exact bin masses of the density 1/(pi sqrt(x(1-x)))."""
    edges = np.linspace(0.0, 1.0, bins + 1)
    M = (2.0 / np.pi) * np.arcsin(np.sqrt(edges))
    return np.diff(M)
