import random
import subprocess
import sys
from itertools import combinations

import pytest

from conftest import random_minmatrix
from oracles import census_under, dependency_rules_hold, identity
from test_substitution import reference_apply, reference_minterm_images

import mmw.lattice
from mmw.context import Context, DegreeError, context
from mmw.minmatrix import Minmatrix, normalize
from mmw.formula import parse
from mmw.lattice import (CMM, STAR, InternalConsistencyError, SystemCoord,
                         build_hasse, cmm_from_coords, cmm_of, collapse, coord_of,
                         enumerate_cmms, map_to_star, surviving_orbit_sums)
from mmw.orbit import (complete_orbits, coord_orbits, images_under, label_order,
                       labels_of, orbit_map, orbit_masks, orbit_union, source_orbits)
from mmw.substitution import (Substitution, all_substitutions, coverage_key,
                              critical_substitution, enumerate_primes)

K11 = context(1, 1)


def test_coordinate_validation():
    SystemCoord("K", 0, -1).resolve(4)
    SystemCoord("K", 3, 2).resolve(4)
    with pytest.raises(ValueError):
        SystemCoord("K", 1, -1).resolve(4)      # x > y+1
    with pytest.raises(ValueError):
        SystemCoord("K", 4, 3).resolve(4)
    with pytest.raises(ValueError):
        SystemCoord("X", 0, 0)


def test_collapse_T():
    m = collapse(normalize(parse("[]p->p"), K11))
    assert set(m.members()) == {7, 6, 3, 1}          # Dd + Dw


def test_collapse_full_and_empty():
    assert collapse(Minmatrix.full(K11)).is_theorem_K()
    assert collapse(Minmatrix.empty(K11)).bits == 0


def test_collapse_dc_dw_shrinks():
    om = orbit_map(K11)
    m = om["Dc1"] | om["Dw1"]
    out = collapse(m)
    assert out.bits != m.bits and out.bits == 0


def test_collapse_idempotent_monotone(rng):
    for _ in range(400):
        v = rng.choice((1, 2))
        m = random_minmatrix(rng, v, 1)
        c = collapse(m)
        assert c <= m
        assert collapse(c) == c
        sub = Minmatrix(m.ctx, m.bits & random_minmatrix(rng, v, 1).bits)
        assert collapse(sub) <= c


def test_collapse_default_equals_generic_default(rng):
    # fast path against the plain fixpoint loop over primes + critical
    for v in (1, 2):
        subs = list(enumerate_primes(v)) + [critical_substitution(v)]
        for _ in range(120):
            m = random_minmatrix(rng, v, 1)
            assert collapse(m) == collapse(m, subs)


def reference_collapse_default(m, crit_images):
    """The minterm-space default collapse (the test oracle).

    Each round trims to the complete prime orbits, then intersects with
    the critical image, read off the mask-walk images ``crit_images``.
    """
    ctx = m.ctx
    orbits = orbit_map(ctx)
    bits = m
    while True:
        prev = bits
        trimmed = Minmatrix.empty(ctx)
        for orb in orbits.values():
            if orb <= bits:
                trimmed = trimmed | orb
        bits = trimmed
        if bits:
            bits = Minmatrix(ctx, bits.bits & reference_apply(bits.bits, crit_images))
        if bits == prev:
            return bits


def test_collapse_default_matches_minterm_loop(rng):
    # orbit sums, orbit sums with minterms removed or added, and plain
    # random minmatrices, at v = 1..3
    for v in (1, 2, 3):
        ctx = context(v, 1)
        size = ctx.universe_size
        crit_images = reference_minterm_images(ctx, critical_substitution(v))
        for _ in range(200):
            bits = 0
            for mask in orbit_masks(ctx):
                if rng.random() < 0.7:
                    bits |= mask
            noise = rng.getrandbits(size) & rng.getrandbits(size) & rng.getrandbits(size)
            roll = rng.random()
            if roll < 0.3:
                bits &= ~noise
            elif roll < 0.6:
                bits |= noise
            elif roll < 0.7:
                bits = rng.getrandbits(size)
            m = Minmatrix(ctx, bits)
            assert collapse(m) == reference_collapse_default(m, crit_images)


def orbit_space_collapse(m, images):
    """The default collapse as rounds over a list of kept orbits (the oracle).

    Each round ORs the critical images ``images`` of the kept orbits and
    keeps the orbits inside that image; ``images`` is None at v = 0.
    """
    masks = orbit_masks(m.ctx)
    keep = [k for k, mask in enumerate(masks) if m.bits & mask == mask]
    while keep and images:
        image = 0
        for k in keep:
            image |= images[k]
        kept = [k for k in keep if masks[k] & image == masks[k]]
        if len(kept) == len(keep):
            break
        keep = kept
    bits = 0
    for k in keep:
        bits |= masks[k]
    return Minmatrix(m.ctx, bits)


def orbit_sums(v):
    """(orbit set, minmatrix) of every orbit sum, by size, in combinations order."""
    ctx = context(v, 1)
    masks = orbit_masks(ctx)
    for r in range(len(masks) + 1):
        for combo in combinations(range(len(masks)), r):
            yield (sum(1 << k for k in combo),
                   Minmatrix(ctx, sum(masks[k] for k in combo)))


def test_collapse_matches_orbit_space_loop(rng):
    # every orbit sum at v = 0..3, then orbit sums with minterms removed
    # or added and plain random minmatrices
    for v in (0, 1, 2, 3):
        ctx = context(v, 1)
        images = images_under(ctx, critical_substitution(v).g) if v else None
        for _, m in orbit_sums(v):
            assert collapse(m) == orbit_space_collapse(m, images)
        size = ctx.universe_size
        for _ in range(200):
            bits = sum(mask for mask in orbit_masks(ctx) if rng.random() < 0.7)
            noise = rng.getrandbits(size) & rng.getrandbits(size)
            roll = rng.random()
            if roll < 0.4:
                bits &= ~noise
            elif roll < 0.8:
                bits |= noise
            else:
                bits = rng.getrandbits(size)
            m = Minmatrix(ctx, bits)
            assert collapse(m) == orbit_space_collapse(m, images)


def reference_covered(keep, patterns):
    """The orbits that the critical images of the orbits in ``keep`` cover.

    Bit j is read from the pattern of orbits j-2 and j-1 in ``keep``; it
    decides orbit j only when orbit j is itself in ``keep``.
    """
    alone, after2, after1, after12 = patterns
    a, b = keep << 2, keep << 1        # bit j: orbit j-2, orbit j-1 kept
    return alone | after2 & a | after1 & b | after12 & a & b


def round_loop_collapse(m):
    """The default collapse as rounds on the kept-orbit bitmask (the oracle).

    It starts from all complete orbits and drops the kept orbits left
    uncovered until every kept orbit is covered.
    """
    patterns = mmw.lattice._cover_patterns(m.ctx.v)
    keep = complete_orbits(m)
    while True:
        kept = keep & reference_covered(keep, patterns)
        if kept == keep:
            return orbit_union(m.ctx, keep)
        keep = kept


def test_collapse_pass_matches_round_loop_small():
    for v in (0, 1, 2):
        for _, m in orbit_sums(v):
            assert collapse(m) == round_loop_collapse(m)


def test_collapse_pass_matches_round_loop_v3(rng):
    # seeded orbit sums, each as it is and with one minterm flipped
    ctx = context(3, 1)
    for _ in range(2000):
        m = orbit_union(ctx, rng.getrandbits(2 * ctx.n))
        flipped = Minmatrix(ctx, m.bits ^ 1 << rng.randrange(ctx.universe_size))
        assert collapse(m) == round_loop_collapse(m)
        assert collapse(flipped) == round_loop_collapse(flipped)


def test_collapse_pass_matches_round_loop_v4(rng):
    # the 304 CMMs, where the pass drops nothing, and seeded orbit sums
    for c in enumerate_cmms(4):
        assert collapse(c.matrix) == round_loop_collapse(c.matrix) == c.matrix
    ctx = context(4, 1)
    for _ in range(50):
        m = orbit_union(ctx, rng.getrandbits(2 * ctx.n))
        assert collapse(m) == round_loop_collapse(m)


def test_collapse_pass_reads_at_most_three_masks_past_the_kept_orbits():
    # each run stops at its first orbit left out; the masks of a context of
    # its own count their reads: F, Vv0+Dd0, Vv0+Dd0+Dw1 and every orbit
    ctx = Context(4, 1)
    read = [0]

    class Counted(tuple):
        def __getitem__(self, j):
            read[0] += 1
            return tuple.__getitem__(self, j)
    ctx._orbit_masks = Counted(orbit_masks(ctx))
    for keep in (0, 0b11, 0b1011, (1 << 32) - 1):
        m = orbit_union(ctx, keep)
        read[0] = 0
        assert collapse(m) is m             # a coordinate set loses nothing
        assert read[0] <= keep.bit_count() + 3, keep


def test_cmm_of_equals_the_collapse_then_complete_orbits_path(rng):
    # the kept set of the default pass against the old two steps: every
    # orbit sum at v <= 2, then seeded orbit sums at v = 3 and 4, half of
    # them with one minterm flipped (no longer orbit sums)
    def two_step(m):
        return mmw.lattice._cmm(m.ctx, complete_orbits(collapse(m)))

    for v in (0, 1, 2):
        for _, m in orbit_sums(v):
            assert cmm_of(m) == two_step(m)
    for v in (3, 4):
        ctx = context(v, 1)
        for i in range(2000):
            m = orbit_union(ctx, rng.getrandbits(2 * ctx.n))
            if i % 2:
                m = Minmatrix(ctx, m.bits ^ 1 << rng.randrange(ctx.universe_size))
            assert cmm_of(m) == two_step(m), (v, i)
    with pytest.raises(DegreeError):
        cmm_of(Minmatrix.full(context(1, 0)))


def test_default_collapse_keeps_the_largest_coordinate_set():
    # every orbit set at v <= 3 keeps the union of the CMM orbit sets it holds
    for v in (0, 1, 2, 3):
        ctx = context(v, 1)
        cmms = [c.orbits for c in enumerate_cmms(v)]
        for keep in range(1 << 2 * ctx.n):
            largest = 0
            for orbits in cmms:
                if orbits & keep == orbits:
                    largest |= orbits
            assert cmm_of(orbit_union(ctx, keep)).orbits == largest, (v, keep)


def reference_cover_patterns(v):
    """The cover patterns from the masks of the critical images (the oracle)."""
    ctx = context(v, 1)
    masks = orbit_masks(ctx)
    if v == 0:
        full = (1 << len(masks)) - 1
        return full, full, full, full
    images = images_under(ctx, critical_substitution(v).g)
    for i, image in enumerate(images):
        window = 0
        for mask in masks[i:i + 3]:
            window |= mask
        assert not image & ~window, (v, i)
    patterns = [0, 0, 0, 0]
    for j, mask in enumerate(masks):
        for p in range(4):
            cover = images[j]
            if p & 1 and j >= 2:
                cover |= images[j - 2]
            if p & 2 and j >= 1:
                cover |= images[j - 1]
            if mask & cover == mask:
                patterns[p] |= 1 << j
    return tuple(patterns)


def test_cover_patterns_match_mask_patterns():
    for v in range(5):
        assert mmw.lattice._cover_patterns(v) == reference_cover_patterns(v), v


def test_cover_patterns_reject_an_image_beyond_the_window(monkeypatch):
    # the patterns read only orbits j-2 and j-1, so an image that reaches
    # three orbits further is a broken premise, not a census result
    def wide(g):
        sources = source_orbits(g)
        sources[3] |= 1          # the image of orbit 0 meets orbit 3
        return sources
    monkeypatch.setattr(mmw.lattice, "source_orbits", wide)
    with pytest.raises(InternalConsistencyError):
        mmw.lattice._cover_patterns.__wrapped__(2)


def test_collapse_default_equals_exhaustive(rng):
    # the sufficiency of primes + one critical substitution at v <= 2
    for v in (1, 2):
        subs = all_substitutions(v)
        for _ in range(40):
            m = random_minmatrix(rng, v, 1)
            assert collapse(m) == collapse(m, subs)


def test_cmm_of_exhaustive_equals_default(rng):
    # the same CMM, coordinate and orbit set, under every substitution
    for v in (0, 1, 2):
        subs = all_substitutions(v)
        for _ in range(40 if v else 8):
            m = random_minmatrix(rng, v, 1)
            cmm = cmm_of(m)
            assert cmm_of(m, subs) == cmm
            assert cmm.orbits == complete_orbits(collapse(m))
            assert cmm.coord == coord_of(cmm.orbits, 1 << v)


def test_first_variable_transplant_is_too_weak():
    # moving the critical construction onto p_0 under this bit encoding
    # yields a weaker substitution: with it, the broken-staircase sum
    # Dd+Dw1+Dw3 survives, so it cannot replace the critical substitution
    ctx0 = context(2, 0)
    p0 = ctx0.var_mask(0)
    weak = Substitution.from_tables(2, (p0 & ~(1 << 3) & ~(1 << 2), ctx0.var_mask(1)))
    subs = list(enumerate_primes(2)) + [weak]
    om = orbit_map(context(2, 1))
    broken = om["Dd0"] | om["Dw1"] | om["Dw3"]
    assert collapse(broken, subs) == broken          # spurious fixpoint
    assert collapse(broken).bits != broken.bits       # the real default trims it
    survivors = census_under(2, subs)
    assert len(survivors) == 54                       # 28 real + 26 spurious


def test_cmm_from_coords_examples():
    assert labels_of(cmm_from_coords(SystemCoord("K", 0, STAR), 1).orbits, 2) == \
        ["Vv0", "Dd0", "Dw1"]
    assert labels_of(cmm_from_coords(SystemCoord("D", 0, 0), 1).orbits, 2) == ["Dd0"]
    assert labels_of(cmm_from_coords(SystemCoord("K", 2, STAR), 2).orbits, 4) == \
        ["Vv0", "Dd0", "Dc1", "Dw1", "Dc2", "Dw2", "Dw3"]
    with pytest.raises(ValueError):
        cmm_from_coords(SystemCoord("K", 2, 0), 2)


def test_enumerate_cmms_counts():
    for v, want in ((0, 4), (1, 10), (2, 28), (3, 88)):
        cmms = enumerate_cmms(v)
        n = 1 << v
        assert len(cmms) == want == n * (n + 3)
        assert len({c.coord for c in cmms}) == want
        assert len({c.orbits for c in cmms}) == want


def test_enumerated_cmms_are_fixpoints():
    for v in (1, 2, 3):
        for c in enumerate_cmms(v):
            assert collapse(c.matrix) == c.matrix


def test_exhaustive_census(exhaustive_census):
    surv = exhaustive_census[1]
    assert len(surv) == 10
    assert set(surv) == {c.orbits for c in enumerate_cmms(1)}
    surv = exhaustive_census[2]
    assert len(surv) == 28
    assert set(surv) == {c.orbits for c in enumerate_cmms(2)}


def test_survival_pass_matches_collapse_filter():
    # one survival pass over explicit subs keeps exactly the collapse fixpoints
    for v in (1, 2):
        for subs in (all_substitutions(v),
                     list(enumerate_primes(v)) + [critical_substitution(v)]):
            want = [keep for keep, m in orbit_sums(v) if collapse(m, subs) == m]
            assert census_under(v, subs) == want


def test_default_census_matches():
    for v in (1, 2, 3):
        assert set(surviving_orbit_sums(v)) == {c.orbits for c in enumerate_cmms(v)}


def test_census_walk_matches_collapse_loop():
    # the walk against collapsing each of the 2**(2n) orbit sums, as lists
    for v in (0, 1, 2, 3):
        want = [keep for keep, m in orbit_sums(v) if collapse(m) == m]
        assert surviving_orbit_sums(v) == want


def test_census_walk_matches_exhaustive_census(exhaustive_census):
    for v in (1, 2):
        assert surviving_orbit_sums(v) == exhaustive_census[v]


def test_k41_census():
    # the K[4,1] lattice: 2**32 orbit sums, of which exactly the n(n+3)
    # coordinate CMMs survive, each a fixpoint that passes DR1-DR3
    survivors = surviving_orbit_sums(4)
    cmms = enumerate_cmms(4)
    assert len(survivors) == len(cmms) == 16 * 19 == 304
    assert set(survivors) == {c.orbits for c in cmms}
    for c in cmms:
        assert dependency_rules_hold(labels_of(c.orbits, 16), 16)
        assert collapse(c.matrix) == c.matrix


def test_census_past_the_universe_cap():
    # K[5,1] and K[6,1] are over the default cap, but the walk needs only
    # the 2n orbit positions: exactly the n(n+3) coordinate sets survive
    for v in (5, 6):
        n = 1 << v
        want = {coord_orbits(plane, x, y) for plane in ("K", "D")
                for y in range(-1, n) for x in range(min(y + 1, n - 1) + 1)}
        survivors = surviving_orbit_sums(v)
        assert len(survivors) == len(want) == n * (n + 3)
        assert set(survivors) == want


def test_union_of_cmms_is_cmm():
    for v in (1, 2, 3):
        sets = {c.orbits for c in enumerate_cmms(v)}
        for a, b in combinations(sets, 2):
            assert (a | b) in sets


def test_level1_meet_is_intersection():
    for v in (1, 2):
        cmms = enumerate_cmms(v)
        for a, b in combinations(cmms, 2):
            inter = a.matrix & b.matrix
            assert collapse(inter) == inter


def test_dependency_rules_characterize_cmms():
    for v in (1, 2, 3):
        n = 1 << v
        coords = {frozenset(labels_of(c.orbits, n)) for c in enumerate_cmms(v)}
        labels = label_order(n)
        admitted = set()
        for r in range(len(labels) + 1):
            for combo in combinations(labels, r):
                if dependency_rules_hold(frozenset(combo), n):
                    admitted.add(frozenset(combo))
        assert admitted == coords


def test_coord_of_inverts_cmm_from_coords():
    for v in (1, 2, 3, 4):
        for c in enumerate_cmms(v):
            assert coord_of(c.orbits, 1 << v) == c.coord
            assert complete_orbits(c.matrix) == c.orbits


def test_coord_of_admits_exactly_the_dependency_rules():
    # all 2**16 orbit sets of K[3,1]: coord_of counts x and y and rebuilds
    # the set, dependency_rules_hold reads the labels
    n = 8
    admitted = 0
    for keep in range(1 << 2 * n):
        coord = coord_of(keep, n)
        combo = labels_of(keep, n)
        assert (coord is not None) == dependency_rules_hold(combo, n), combo
        admitted += coord is not None
    assert admitted == 88


def test_coord_of_admits_exactly_the_census(exhaustive_census):
    for v in (1, 2):
        ctx = context(v, 1)
        orbits = orbit_map(ctx)
        labels = label_order(ctx.n)
        survivors = set(exhaustive_census[v])
        for r in range(len(labels) + 1):
            for combo in combinations(range(len(labels)), r):
                m = Minmatrix.empty(ctx)
                for k in combo:
                    m = m | orbits[labels[k]]
                keep = complete_orbits(m)
                assert keep == sum(1 << k for k in combo)
                assert (coord_of(keep, ctx.n) is not None) == (keep in survivors)


def test_coord_of_rejects_non_coordinates():
    # {Vv0, Dc1} fails DR3; as a coordinate it would be the invalid (1,-1)
    assert coord_of(coord_orbits("K", 1, -1), 2) is None
    # an orbit past the 2n of K[1,1]
    assert coord_of(coord_orbits("K", 1, 1) | 1 << 4, 2) is None
    # part of an orbit on top of a coordinate CMM adds no complete orbit
    dd0 = orbit_map(K11)["Dd0"]
    part = Minmatrix(K11, dd0.bits & -dd0.bits)
    ver = cmm_from_coords(SystemCoord("K", 0, -1), 1)
    assert complete_orbits(ver.matrix | part) == ver.orbits
    assert complete_orbits(part) == 0


def test_coverage_identity_and_critical():
    # coverage_key entries: 0 none, 1 partial, 2 full, in label order
    for v in (1, 2, 3):
        labels = label_order(1 << v)
        crit = dict(zip(labels, coverage_key(critical_substitution(v))))
        assert crit["Vv0"] == tuple(2 if j == "Vv0" else 0 for j in labels)
        dd_row = dict(zip(labels, crit["Dd0"]))
        assert dd_row["Dd0"] == 2
        # with more than two sections the spillover coverage is partial
        want = 1 if v >= 2 else 2
        assert dd_row["Dw1"] == want and dd_row["Dc1"] == want
        assert all(c == 0 for j, c in dd_row.items()
                   if j not in ("Dd0", "Dw1", "Dc1"))
        assert coverage_key(identity(v)) == tuple(
            tuple(2 if i == j else 0 for j in labels) for i in labels)


def test_map_to_star():
    assert map_to_star(SystemCoord("K", 1, 1), 1) == SystemCoord("K", STAR, STAR)
    assert map_to_star(SystemCoord("K", 0, 1), 1) == SystemCoord("K", 0, STAR)
    assert map_to_star(SystemCoord("K", 1, 2), 2) == SystemCoord("K", 1, 2)
    assert map_to_star(SystemCoord("D", 3, 3), 2) == SystemCoord("D", STAR, STAR)


def test_hasse_diagram_v1():
    hasse = build_hasse(1)
    assert len(hasse.nodes) == 10
    bottoms = [c for c in hasse.nodes if not c.orbits]
    assert len(bottoms) == 1 and bottoms[0].coord == SystemCoord("D", 0, -1)
    tops = [c for c in hasse.nodes if c.orbits.bit_count() == 4]
    assert len(tops) == 1 and tops[0].coord == SystemCoord("K", 1, 1)
    # Ver covers F, the difference being Vv0
    assert (SystemCoord("D", 0, -1), SystemCoord("K", 0, -1), "Vv0") in hasse.edges
    join = hasse.join(SystemCoord("K", 0, -1), SystemCoord("D", 0, 0))
    assert labels_of(join.orbits, 2) == ["Vv0", "Dd0"]     # Ver v Triv = K_triv
    meet = hasse.meet(SystemCoord("K", 0, 1), SystemCoord("D", 1, 1))
    assert labels_of(meet.orbits, 2) == ["Dd0", "Dw1"]
    # operands are resolved in the diagram's context: a star coordinate
    # names its node there, and one out of range is refused
    top = hasse.join(SystemCoord("K", STAR, STAR), SystemCoord("D", 0, -1))
    assert top == tops[0]
    with pytest.raises(ValueError):
        hasse.meet(SystemCoord("K", 2, 2), SystemCoord("D", 0, -1))


def test_join_and_meet_of_every_pair():
    # Theorem 1a and the level-1 meet, node pair by node pair, read on the
    # matrices that the two orbit sets build
    for v in (1, 2):
        hasse = build_hasse(v)
        for a in hasse.nodes:
            for b in hasse.nodes:
                assert hasse.join(a.coord, b.coord).matrix == a.matrix | b.matrix
                assert hasse.meet(a.coord, b.coord).matrix == a.matrix & b.matrix


def test_meet_reads_no_matrix(monkeypatch):
    # join and meet are | and & on orbit sets: at v=4 a seeded spread of
    # node pairs, with the bottom and top, is met with CMM.matrix refused
    hasse = build_hasse(4)
    nodes = hasse.nodes
    rng = random.Random(4)
    pairs = [(nodes[0], nodes[-1])] + [tuple(rng.sample(nodes, 2)) for _ in range(200)]

    def refuse(self):
        raise AssertionError("a CMM matrix was built")

    monkeypatch.setattr(CMM, "matrix", property(refuse))
    for a, b in pairs + [(b, a) for a, b in pairs]:
        meet, join = hasse.meet(a.coord, b.coord), hasse.join(a.coord, b.coord)
        assert meet.orbits == a.orbits & b.orbits and meet in hasse.nodes
        assert join.orbits == a.orbits | b.orbits and join in hasse.nodes


HASSE_MEMORY_SCRIPT = """
import tracemalloc
from mmw.context import context
from mmw.lattice import build_hasse, enumerate_cmms
context(4, 1)
tracemalloc.start()
enumerate_cmms(4)
build_hasse(4)
print(tracemalloc.get_traced_memory()[1])
"""


def test_k41_lattice_peak_memory():
    # the 304 K[4,1] CMMs and their 694 edges are orbit-set arithmetic:
    # the peak allocation stays under 1 MiB, where building each CMM's
    # 2**20-bit matrix would take ~45 MiB (context(4, 1) is built first)
    from test_cli import subprocess_env
    proc = subprocess.run([sys.executable, "-c", HASSE_MEMORY_SCRIPT],
                          env=subprocess_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1 << 20


def test_hasse_edges_are_single_orbit_steps():
    for v in (1, 2):
        hasse = build_hasse(v)
        byc = {c.coord: c.orbits for c in hasse.nodes}
        for a, b, orb in hasse.edges:
            assert labels_of(byc[b] & ~byc[a], 1 << v) == [orb]
            assert byc[a] & ~byc[b] == 0


def test_hasse_edges_k41():
    # the K[4,1] edges are exactly the coordinate-grid steps: D -> K
    # (adds Vv0), x -> x+1 (adds Dc_{x+1}) and y -> y+1 (adds Dd0 from
    # y = -1, else Dw_{y+1}); 152 + 2 * (135 + 136) = 694
    coords = {c.coord for c in enumerate_cmms(4)}
    expected = set()
    for c in coords:
        steps = [(SystemCoord("K", c.x, c.y), "Vv0")] if c.plane == "D" else []
        steps.append((SystemCoord(c.plane, c.x + 1, c.y), f"Dc{c.x + 1}"))
        steps.append((SystemCoord(c.plane, c.x, c.y + 1),
                      "Dd0" if c.y == -1 else f"Dw{c.y + 1}"))
        expected.update((c, b, orb) for b, orb in steps if b in coords)
    edges = build_hasse(4).edges
    assert len(edges) == len(set(edges)) == len(expected) == 694
    assert set(edges) == expected
    assert sum(a.plane != b.plane for a, b, _ in edges) == 152
    for plane in ("K", "D"):
        assert sum(a.plane == b.plane == plane and a.x != b.x for a, b, _ in edges) == 135
        assert sum(a.plane == b.plane == plane and a.y != b.y for a, b, _ in edges) == 136
