"""`integrate_pair` against `scipy.integrate.solve_ivp` on catalog pairs.

scipy's DOP853 (the 8th-order Dormand-Prince pair) at rtol 1e-10 and atol
1e-12 is the oracle.  Initial conditions are seeded draws from [-1, 1]^4 over
t in [0, 1/2]; a draw is kept when the oracle's solution stays tame (|state|
at most 10 and every syntactic denominator at least 0.1 in magnitude), so
that the comparison is between two integrators and not about a singularity.
`integrate_pair` at its default tolerances must reach the same endpoint to
1e-7.
"""

import random

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from pathgeom.constructions import catalog
from pathgeom.expr import compile_tape
from pathgeom.integrate import denominator_bases, integrate_pair

SPAN = (0.0, 0.5)
DRAWS = 6


def _tame_draws(sys, tag):
    """(initial condition, oracle endpoint) for DRAWS seeded draws."""
    f = compile_tape(sys.rhs, sys.chart)
    dens = compile_tape(denominator_bases(sys.rhs1)
                        + denominator_bases(sys.rhs2), sys.chart)

    def rhs(t, y):
        return [y[2], y[3], *f.eval_f64([t, *y])]

    rng = random.Random(tag)
    out = []
    for _ in range(100):
        ic = [rng.uniform(-1.0, 1.0) for _ in range(4)]
        sol = solve_ivp(rhs, SPAN, ic, method="DOP853", rtol=1e-10,
                        atol=1e-12)
        if sol.status != 0 or np.abs(sol.y).max() > 10:
            continue
        if min(min(abs(v) for v in dens.eval_f64([t, *y]))
               for t, y in zip(sol.t, sol.y.T)) < 0.1:
            continue
        out.append((ic, sol.y[:, -1]))
        if len(out) == DRAWS:
            return out
    raise AssertionError(f"fewer than {DRAWS} tame draws for {tag}")


@pytest.mark.parametrize("name", ["flat_chain_pair", "cr_sphere_pair"])
def test_endpoints_agree_with_dop853(name):
    sys = catalog(name)
    for ic, want in _tame_draws(sys, f"integrate-oracle/{name}"):
        traj = integrate_pair(sys, ic, SPAN)
        assert not traj.truncated_by_singularity
        assert traj.t[-1] == SPAN[1]
        assert np.abs(traj.states[-1] - want).max() < 1e-7, ic
