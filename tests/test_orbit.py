from math import comb

import pytest

from conftest import random_minmatrix

from mmw.context import DegreeError, context
from mmw.minmatrix import Minmatrix
from mmw.orbit import (compute_orbits, coord_orbits, display_label,
                       expected_size, label_order, orbit_closed_form, orbit_map,
                       orbit_masks, orbit_of, orbit_position)
from mmw.substitution import apply_minmatrix, enumerate_primes

K11 = context(1, 1)
K21 = context(2, 1)
K31 = context(3, 1)

# member sets read off the published orbit matrices under the fixed encoding
K11_ORBITS = {"Vv0": {4, 0}, "Dd0": {6, 1}, "Dc1": {5, 2}, "Dw1": {7, 3}}
K21_ORBITS = {
    "Vv0": {48, 32, 16, 0},
    "Dd0": {56, 36, 18, 1},
    "Dc1": {52, 50, 49, 40, 34, 33, 24, 20, 17, 8, 4, 2},
    "Dw1": {60, 58, 57, 44, 38, 37, 26, 22, 19, 9, 5, 3},
    "Dc2": {51, 53, 54, 35, 41, 42, 21, 25, 28, 6, 10, 12},
    "Dw2": {59, 61, 62, 39, 45, 46, 23, 27, 30, 7, 11, 13},
    "Dc3": {55, 43, 29, 14},
    "Dw3": {63, 47, 31, 15},
}


def test_k11_orbits_golden():
    got = {o.label: set(o.matrix.members()) for o in compute_orbits(K11)}
    assert got == K11_ORBITS


def test_k21_orbits_golden():
    orbits = compute_orbits(K21)
    assert [o.size for o in orbits] == [4, 4, 12, 12, 12, 12, 4, 4]
    assert {o.label: set(o.matrix.members()) for o in orbits} == K21_ORBITS


def test_k31_orbit_sizes():
    orbits = compute_orbits(K31)
    assert len(orbits) == 16
    for o in orbits:
        assert o.size == expected_size(o.label, 8)
    assert {o.label for o in orbits} == set(label_order(8))


def test_worklist_equals_closed_form():
    # the orbit masks (images under the identity) that every other module
    # reads agree with both
    for ctx in (context(0, 1), K11, K21, K31):
        closed = orbit_closed_form(ctx)
        assert compute_orbits(ctx) == closed
        assert orbit_masks(ctx) == tuple(o.matrix.bits for o in closed)
        assert orbit_map(ctx) == {o.label: o.matrix for o in closed}


def test_v4_masks_partition_universe(rng):
    # K[4,1]: 16 sections, 2**20 minterms, beyond the two oracles' reach
    ctx = context(4, 1)
    masks = orbit_masks(ctx)
    labels = label_order(16)
    assert len(masks) == len(labels) == 32
    union = 0
    for label, mask in zip(labels, masks):
        assert mask.bit_count() == expected_size(label, 16)
        assert union & mask == 0
        union |= mask
    assert union == ctx.full
    for idx in rng.sample(range(ctx.universe_size), 2000):
        assert (masks[orbit_position(*ctx.split(idx))] >> idx) & 1


def test_coord_orbits_is_the_staircase():
    # against the labels of S_plane(x, y): Vv0 on the K plane, Dd0 and
    # Dw_1..Dw_y when y >= 0, and Dc_1..Dc_x
    for n in (1, 2, 4, 8, 16):
        labels = label_order(n)
        for plane in "KD":
            for y in range(-1, n):
                for x in range(min(y + 1, n - 1) + 1):
                    want = {"Vv0"} if plane == "K" else set()
                    if y >= 0:
                        want |= {"Dd0"} | {f"Dw{k}" for k in range(1, y + 1)}
                    want |= {f"Dc{k}" for k in range(1, x + 1)}
                    assert coord_orbits(plane, x, y) == \
                        sum(1 << labels.index(lbl) for lbl in want), (plane, x, y)


def test_orbits_partition_universe():
    for ctx in (K11, K21, K31):
        orbits = compute_orbits(ctx)
        assert sum(o.size for o in orbits) == ctx.universe_size
        union = 0
        for o in orbits:
            assert union & o.matrix.bits == 0
            union |= o.matrix.bits
        assert union == ctx.full


def test_orbit_of_examples():
    assert orbit_of(K21, 56) == "Dd0"
    assert orbit_of(K11, 3) == "Dw1"
    # any section-0 minterm of K[3,1] with self bit clear and three factors set
    idx = (0 << 8) | 0b10101000
    assert orbit_of(K31, idx) == "Dc3"
    with pytest.raises(DegreeError):
        orbit_of(context(1, 0), 0)


def test_orbit_member_counts_formula():
    for v in (1, 2, 3):
        n = 1 << v
        for o in orbit_closed_form(context(v, 1)):
            if o.label in ("Vv0", "Dd0"):
                assert o.size == n
            else:
                assert o.size == n * comb(n - 1, int(o.label[2:]))


def test_orbits_fixed_setwise_by_primes():
    for v in (1, 2):
        ctx = context(v, 1)
        for o in orbit_closed_form(ctx):
            for s in enumerate_primes(v):
                assert apply_minmatrix(o.matrix, s) == o.matrix


def test_partial_orbit_shrinks_under_some_prime(rng):
    # a minmatrix holding part of an orbit loses a minterm under some prime
    for v in (1, 2):
        ctx = context(v, 1)
        orbits = orbit_map(ctx)
        primes = enumerate_primes(v)
        for _ in range(500):
            orb = orbits[rng.choice(list(orbits))]
            k = rng.randrange(1, orb.count)
            part = set(rng.sample(orb.members(), k))
            rest = random_minmatrix(rng, v, 1).bits & ~orb.bits
            m = Minmatrix(ctx, rest | sum(1 << i for i in part))
            assert any((m & apply_minmatrix(m, s)) != m for s in primes)


def test_display_labels():
    assert display_label("Vv0", 1) == "Vv"
    assert display_label("Dc1", 1) == "Dc"
    assert display_label("Dw1", 2) == "Dww1"
    assert display_label("Dc3", 3) == "Dccc3"
    assert display_label("Dd0", 3) == "Dddd"


def test_d0_single_orbit():
    orbs = compute_orbits(context(2, 0))
    assert len(orbs) == 1 and orbs[0].matrix.is_theorem_K()
