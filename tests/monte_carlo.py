"""Monte Carlo cross-check of the package's exact integrals.

Integrals in the package are finite sums over step-function segments; this
estimates the same integrals from uniform samples, so a wrong segment length
or value shows as an estimate more than a few standard errors away.
"""

from __future__ import annotations

import math

import numpy as np

from hvlab import OMEGA_MIN, ProductFunction, StepFunction
from hvlab.errors import _integer, _require


def mc_integrate(
    fn: StepFunction | ProductFunction,
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo estimate (mean, standard error) of an integral over Lambda^k.

    Draws ``n_samples`` uniform points per level from ``rng``, at least two
    for a standard error; an independent cross-check of the exact integrals.
    The mean and the ``ddof=1`` standard error of the sampled values come
    from how many samples fall in each cell, a cell being one segment per
    level; a sample on a breakpoint counts to its right, as evaluation does.
    """
    _integer(n_samples, "n_samples", 2)
    _require(fn, (StepFunction, ProductFunction), "fn")
    _require(rng, np.random.Generator, "rng")
    # rng.uniform(OMEGA_MIN, OMEGA_MAX, n_samples) draws OMEGA_MIN + 1.0 * u
    # for u from rng.random: the same floats, drawn here into one buffer
    omegas = np.empty(n_samples)
    if isinstance(fn, StepFunction):
        rng.random(out=omegas)
        omegas += OMEGA_MIN
        at_or_right = [np.count_nonzero(omegas >= b) for b in fn.breakpoints]
        counts = -np.diff([n_samples, *at_or_right, 0])
        values = np.array(fn.values)
    else:
        values = np.array([fn.prefactor])
        # one index per sample into the cells so far, C order over the levels
        cells = np.zeros(n_samples, np.intp)
        for f in fn.factors:
            rng.random(out=omegas)
            omegas += OMEGA_MIN
            cells *= len(f.values)
            for b in f.breakpoints:
                cells += omegas >= b
            values = np.multiply.outer(values, f.values).ravel()
            if len(values) > n_samples:
                # renumber the occupied cells, so the index stays below n_samples
                occupied, cells = np.unique(cells, return_inverse=True)
                values = values[occupied]
        counts = np.bincount(cells, minlength=len(values))
    estimate = float(counts @ values) / n_samples
    variance = float(counts @ (values - estimate) ** 2) / (n_samples - 1)
    return estimate, math.sqrt(variance) / math.sqrt(n_samples)
