"""numpy's random draws that qgt's seeded outputs rest on, pinned.

Every seeded graph, view, trial and sweep in qgt comes from a few numpy
call shapes: Generator.integers (scalar, bulk and 64-bit), choice without
replacement, permutation, and SeedSequence spawn keys.  The digests pinned
in the other test files (graphs, encodes, decodes, sweep CSVs) hold only
while these draws do.  Each test here pins one call shape's first 8 values
at two seeds, taken on numpy 2.4.6, so that a numpy release that changes a
stream fails here by name, not only as a digest mismatch elsewhere.
"""

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng


def check(method, got, want):
    assert got == want, (
        f"numpy's {method} now draws {got}, not {want}: qgt's seeded graphs, views "
        "and sweeps, and every digest pinned on them, rest on this draw")


@pytest.mark.parametrize("seed, want", [
    (1, [473, 511, 755, 950, 34, 144, 822, 948]),
    (2024, [241, 675, 92, 214, 317, 309, 908, 799]),
])
def test_scalar_integers(seed, want):
    # the repair loops' positions, one int(rng.integers(n)) at a time
    rng = default_rng(seed)
    check("Generator.integers(n), scalar", [int(rng.integers(1000)) for _ in range(8)], want)


@pytest.mark.parametrize("seed, want", [
    (1, [473, 511, 755, 950, 34, 144, 822, 948]),
    (2024, [241, 675, 92, 214, 317, 309, 908, 799]),
])
def test_bulk_integers(seed, want):
    # a whole graph's repair rounds, one position per duplicate
    check("Generator.integers(n, size=k)",
          default_rng(seed).integers(1000, size=8).tolist(), want)


@pytest.mark.parametrize("seed, want", [
    (1, [2360360630558964031, 4383240139369130521, 664818870401041971, 4374873391751699444,
         1438068747342666922, 1952248665957342226, 3817104479337814857, 1887097935946223282]),
    (2024, [3116721932183351994, 988391310575072310, 1427095604191057976, 3686886620703215353,
            4592326616458520924, 655928473902562050, 363057443343444377, 833902653424503697]),
])
def test_integers_below_two_to_the_62(seed, want):
    # run_trial's graph seed
    rng = default_rng(seed)
    check("Generator.integers(1 << 62)", [int(rng.integers(1 << 62)) for _ in range(8)], want)


@pytest.mark.parametrize("seed, want", [
    (1, [1, 2, 3, 3, 0, 0, 3, 3]),
    (2024, [0, 2, 0, 0, 1, 1, 3, 3]),
])
def test_integers_between_bounds(seed, want):
    # the selftest's pattern weights
    rng = default_rng(seed)
    check("Generator.integers(low, high)", [int(rng.integers(0, 4)) for _ in range(8)], want)


@pytest.mark.parametrize("n, seed, want", [
    (1 << 16, 1, [62285, 31007, 2283, 62170, 53931, 9447, 49486, 33539]),
    (1 << 16, 2024, [44287, 6051, 20816, 14045, 20279, 15827, 59550, 52393]),
    (100, 1, [91, 44, 3, 94, 81, 14, 71, 48]),
    (100, 2024, [63, 8, 30, 20, 97, 22, 89, 79]),
])
def test_choice_without_replacement(n, seed, want):
    # a trial's defectives and a view's stubs; numpy takes one path for a
    # few of many (n = 2^16) and another for many of few (n = 100)
    check(f"Generator.choice({n}, 8, replace=False)",
          default_rng(seed).choice(n, 8, replace=False).tolist(), want)


@pytest.mark.parametrize("seed, want", [
    (1, [705, 649, 543, 927, 577, 471, 608, 252]),
    (2024, [506, 901, 644, 690, 343, 917, 878, 61]),
])
def test_permutation_of_either_width(seed, want):
    # sample_graph shuffles stub indices in the narrowest width that holds
    # them; either width, and shuffling the item labels instead, make the
    # same draws, as its comment says
    narrow = default_rng(seed).permutation(np.arange(1000, dtype=np.int32))
    wide = default_rng(seed).permutation(np.arange(1000, dtype=np.int64))
    labels = default_rng(seed).permutation(np.repeat(np.arange(500), 2))
    check("Generator.permutation(int32 arange)", narrow[:8].tolist(), want)
    check("Generator.permutation(int64 arange)", wide[:8].tolist(), want)
    check("Generator.permutation(item labels) // ell", (wide // 2).tolist(), labels.tolist())


@pytest.mark.parametrize("master, key, want", [
    (1, (0, 0), [4065427831215112270, 4125246295704331153, 936631780227171760,
                 1798169983069963146, 4438943319318680326, 2049201066546431804,
                 1431398390438188058, 4598262949273111356]),
    (2024, (3, 7), [2518204882153613747, 1877420616945894170, 737114858016960080,
                    4454905227103704182, 3297321906782451258, 1315221060183779124,
                    4319756469522989731, 973929050323585087]),
])
def test_generator_from_a_spawn_key(master, key, want):
    # run_sweep's trial (g, j) draws from SeedSequence(master, spawn_key=(g, j))
    rng = default_rng(SeedSequence(master, spawn_key=key))
    check("default_rng(SeedSequence(master, spawn_key=(g, j)))",
          [int(rng.integers(1 << 62)) for _ in range(8)], want)


@pytest.mark.parametrize("master, want", [
    (1, [1641411168, 1454127163, 2749604155, 3056722145, 3734005922, 480482724, 1227430691,
         3112422837]),
    (2024, [2855298535, 1146676384, 524768821, 4067285479, 2651666590, 1626606285, 1121204223,
            368549575]),
])
def test_generate_state_of_a_spawn_key(master, want):
    # a --fixed-graph sweep point g seeds its graph from this word
    check("SeedSequence(master, spawn_key=(g,)).generate_state(1)",
          [int(SeedSequence(master, spawn_key=(g,)).generate_state(1)[0]) for g in range(8)],
          want)
