"""How far sample_graph's draws are from uniform, on shapes small enough to
enumerate.

The sampler makes no exact-uniformity claim: its repair of in-group repeats
biases the configuration model, whose simple layouts alone would be uniform.
Each shape below is enumerated in full (every simple left-regular graph with
_Blocks' right degrees), sample_graph is drawn at seeds 0..DRAWS-1, and the
counts are tested against uniform by chi-squared.  Each statistic may not
rise above the one this sampler read when the test was written by more than
three standard deviations of a chi-squared law, 3 * sqrt(2 * df), so a
sampler change cannot make the draws less uniform unnoticed.  These shapes
have too few duplicates for the rounds that swap a larger graph's, so a
second test sends every repair through the rounds first and pins their
statistics the same way.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from qgt import graphs
from qgt.graphs import sample_graph

DRAWS = 4000

# (N, M, ell), the number of simple graphs, and the chi-squared statistic
# that the sampler read at DRAWS draws.  At 30,000 draws (5, 4, 2) reads
# 559.8 on 309 degrees of freedom: the repair's bias, which DRAWS draws
# barely show, grows with the draws while the noise grows with their root
UNIFORMITY = [
    ((5, 4, 2), 310, 351.16),
    ((6, 4, 2), 1860, 1907.36),
    ((5, 5, 3), 2040, 2099.6),
    ((4, 4, 3), 24, 20.948),
]


# the chi-squared statistic that ROUND_DRAWS draws read with every repair
# swapped in rounds, as only a whole graph with many duplicates is.  At
# 30,000 draws the rounds read (4, 4, 3) at 26.3 on 23 degrees of freedom,
# so these seeds' 42.6 is chance, not bias
ROUND_DRAWS = 2000
ROUNDS = [383.3, 1792.5, 2071.8, 42.6]


def simple_graphs(n: int, m: int, ell: int) -> list[tuple]:
    """Every simple left-regular graph with _Blocks' right degrees, as a
    tuple of each item's ascending groups."""
    left = graphs._Blocks(n, m, ell).degrees.tolist()
    rows = list(combinations(range(m), ell))
    found, prefix = [], []

    def extend():
        if len(prefix) == n:
            found.append(tuple(prefix))
            return
        for row in rows:
            if all(left[i] for i in row):
                for i in row:
                    left[i] -= 1
                prefix.append(row)
                extend()
                prefix.pop()
                for i in row:
                    left[i] += 1

    extend()
    return found


def chi_squared(shape, draws: int) -> tuple[float, int]:
    """The statistic of graphs drawn at seeds 0..draws-1 against uniform,
    and its degrees of freedom."""
    index = {g: k for k, g in enumerate(simple_graphs(*shape))}
    counts = np.zeros(len(index))
    items = np.arange(shape[0])
    for seed in range(draws):
        rights = sample_graph(*shape, seed=seed).incidence(items)[0]
        counts[index[tuple(map(tuple, rights.tolist()))]] += 1
    expected = draws / len(index)
    return float(((counts - expected) ** 2 / expected).sum()), len(index) - 1


@pytest.mark.parametrize("shape,count,pinned", UNIFORMITY)
def test_draws_stay_near_uniform(shape, count, pinned):
    assert len(simple_graphs(*shape)) == count
    stat, df = chi_squared(shape, DRAWS)
    assert stat <= pinned + 3 * math.sqrt(2 * df), (shape, stat)


@pytest.mark.parametrize("shape,pinned", zip([u[0] for u in UNIFORMITY], ROUNDS))
def test_rounds_stay_near_uniform(shape, pinned, monkeypatch):
    # these shapes have too few duplicates for the rounds, so let every
    # repair start with them
    monkeypatch.setattr(graphs, "_ROUND_ROWS", 1)
    stat, df = chi_squared(shape, ROUND_DRAWS)
    assert stat <= pinned + 3 * math.sqrt(2 * df), (shape, stat)
