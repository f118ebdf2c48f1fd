"""Long-running checks, outside the default run: ``pytest -m extended``."""

import random
from itertools import product

import pytest

from conftest import random_substitution
from test_kripke import law_breaks, law_formulas
from test_lattice import round_loop_collapse
from test_substitution import mask_coverage_key

from mmw.axiom import alpha_for
from mmw.context import context
from mmw.kripke import correspondence_check
from mmw.lattice import collapse, enumerate_cmms
from mmw.orbit import orbit_union
from mmw.substitution import classify, coverage_key

pytestmark = pytest.mark.extended


def _fiber_signature_counts(n: int) -> dict[tuple, int]:
    """Census of all n**n self-maps by sorted fiber-size profile.

    Each map is a prefix of its first n - 2 values followed by a suffix of
    the last two: the prefix's fiber counts are taken once, and each of
    the n**2 suffixes adds its two values to them.
    """
    out: dict[tuple, int] = {}
    for prefix in product(range(n), repeat=n - 2):
        counts = [0] * n
        for x in prefix:
            counts[x] += 1
        for a in range(n):
            counts[a] += 1
            for b in range(n):
                counts[b] += 1
                key = tuple(sorted(counts))
                out[key] = out.get(key, 0) + 1
                counts[b] -= 1
            counts[a] -= 1
    return {tuple(c for c in reversed(key) if c): k for key, k in out.items()}


def test_v3_substitution_census_by_direct_enumeration():
    # every one of the 2**24 substitutions, bucketed by fiber profile;
    # the per-profile counts must equal the reduced-mode class sizes
    census = _fiber_signature_counts(8)
    assert sum(census.values()) == 8 ** 8
    assert len(census) == 22
    classes = classify(3, "reduced")
    assert sorted(census.values()) == sorted(c.size for c in classes)
    published = sorted([
        40320, 8, 448, 1568, 3136, 1960, 9408, 56448, 94080, 94080, 70560,
        705600, 94080, 470400, 1411200, 176400, 470400, 3763200, 2822400,
        1128960, 4233600, 1128960])
    assert sorted(census.values()) == published


def _fiber_partition(s) -> tuple[int, ...]:
    g = s.g
    return tuple(sorted((g.count(t) for t in set(g)), reverse=True))


def test_k41_dependency_classes():
    # the 231 partitions of 16 give 231 distinct coverage keys whose class
    # sizes count all 16**16 substitutions; the keys are counted from fiber
    # sizes, so each partition's map and 20 seeded maps are checked against
    # the key read off the masks of their orbit images
    classes = classify(4, "reduced")
    assert len(classes) == len({c.key for c in classes}) == 231
    assert sum(c.size for c in classes) == 16 ** 16
    key_of = {_fiber_partition(c.representative): c.key for c in classes}
    for c in classes:
        assert c.key == mask_coverage_key(c.representative)
    rng = random.Random(41)
    for _ in range(20):
        s = random_substitution(rng, 4)
        assert coverage_key(s) == key_of[_fiber_partition(s)] == mask_coverage_key(s)


def test_correspondence_sampled_four_worlds():
    for v in (1, 2):
        for c in enumerate_cmms(v)[:: 3 if v == 2 else 1]:
            rep = correspondence_check(v, c.coord, max_worlds=4,
                                       sample=400, seed=13)
            assert rep.ok, (str(c.coord), rep.violations[:2])


def test_validity_matches_the_frame_condition_of_system_of_on_3_worlds():
    # the law of the tier-1 slice, every input on every frame up to 3 worlds
    rng = random.Random(27)
    formulas = [f for v in (1, 2, 3) for f in law_formulas(rng, v, 8)]
    assert law_breaks(formulas, 3) == []
    assert law_breaks([alpha_for(c.coord, v) for v in (1, 2)
                       for c in enumerate_cmms(v)], 3) == []


def test_collapse_pass_matches_round_loop_on_every_v3_orbit_sum():
    # all 2**16 orbit sums of K[3,1]: the ascending pass against the
    # rounds on the kept-orbit bitmask
    ctx = context(3, 1)
    for keep in range(1 << 2 * ctx.n):
        m = orbit_union(ctx, keep)
        assert collapse(m) == round_loop_collapse(m), keep
