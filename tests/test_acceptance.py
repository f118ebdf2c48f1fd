"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All checks are exact (bit-for-bit / count-for-count); the randomized
property suites of criterion 9 run at least 1000 cases each.
"""

import random
from itertools import combinations

from conftest import random_formula, random_minmatrix, random_substitution

from mmw.axiom import (AxiomVariant, alpha_for, alpha_K, alpha_prime_K,
                       named_systems, variant_collapse)
from mmw.context import context
from mmw.formula import Implies, parse
from mmw.kripke import correspondence_check, type_table
from mmw.lattice import (SystemCoord, cmm_from_coords, collapse, coverage,
                         dependency_rules_hold, enumerate_cmms)
from mmw.minmatrix import Minmatrix, normalize
from mmw.orbit import (complete_orbits, compute_orbits, expected_size, label_order,
                       labels_of, orbit_closed_form)
from mmw.substitution import (apply_minmatrix, classify, compose,
                              critical_substitution, enumerate_primes)

K11 = context(1, 1)
K21 = context(2, 1)


def _columns(m):
    return [tuple(m.ctx.factor_states(i)) for i in sorted(m.members(), reverse=True)]


def test_criterion_1_normalization_goldens():
    phi = normalize(parse("p+q+r->(p->q)r"), context(3, 0))
    assert set(phi.members()) == {7, 3, 1, 0}    # pqr, !pqr, !p!qr, !p!q!r

    t = normalize(parse("[]p->p"), K11)
    assert _columns(t) == [(1, 1, 1), (1, 1, 0), (1, 0, 1),
                           (1, 0, 0), (0, 1, 1), (0, 0, 1)]
    t_cmm = collapse(t)
    assert _columns(t_cmm) == [(1, 1, 1), (1, 1, 0), (0, 1, 1), (0, 0, 1)]
    print("\nACCEPTANCE 1 PASS: boolean DNF and the [T]/[[T]] matrices "
          "match column-for-column")


def test_criterion_2_prime_counts():
    assert len(enumerate_primes(1)) == 2
    primes2 = enumerate_primes(2)
    assert len(primes2) == 24
    from test_substitution import APPENDIX_PRIMES_V2, sub_from_formulas
    assert set(primes2) == {sub_from_formulas(2, a, b)
                            for a, b in APPENDIX_PRIMES_V2}
    assert len(enumerate_primes(3)) == 40320
    print("ACCEPTANCE 2 PASS: 2 / 24 / 40320 prime substitutions, v=2 "
          "equal as a set to the published table")


def test_criterion_3_orbits():
    from test_orbit import K11_ORBITS, K21_ORBITS
    got1 = {o.label: set(o.matrix.members()) for o in compute_orbits(K11)}
    assert got1 == K11_ORBITS
    orbits2 = compute_orbits(K21)
    assert [o.size for o in orbits2] == [4, 4, 12, 12, 12, 12, 4, 4]
    assert {o.label: set(o.matrix.members()) for o in orbits2} == K21_ORBITS
    orbits3 = compute_orbits(context(3, 1))
    assert len(orbits3) == 16
    assert all(o.size == expected_size(o.label, 8) for o in orbits3)
    for ctx in (K11, K21, context(3, 1)):
        assert compute_orbits(ctx) == orbit_closed_form(ctx)
    print("ACCEPTANCE 3 PASS: orbit patterns, sizes and generator closure == "
          "closed form for v = 1, 2, 3")


def test_criterion_4_lattice_census(exhaustive_census):
    for v, want in ((1, 10), (2, 28), (3, 88)):
        cmms = enumerate_cmms(v)
        n = 1 << v
        assert len(cmms) == want == n * (n + 3)
        for c in cmms:
            assert collapse(c.matrix) == c.matrix
    surv1 = exhaustive_census[1]
    assert len(surv1) == 10 and set(surv1) == {c.orbits for c in enumerate_cmms(1)}
    surv2 = exhaustive_census[2]
    assert len(surv2) == 28 and set(surv2) == {c.orbits for c in enumerate_cmms(2)}
    print("ACCEPTANCE 4 PASS: 10/28/88 CMMs; exhaustive collapse census "
          "16 -> 10 and 256 -> 28")


def test_criterion_5_dependency_rules():
    for v in (1, 2, 3):
        n = 1 << v
        coords = {frozenset(labels_of(c.orbits, n)) for c in enumerate_cmms(v)}
        for r in range(2 * n + 1):
            for combo in combinations(label_order(n), r):
                assert dependency_rules_hold(frozenset(combo), n) == \
                    (frozenset(combo) in coords)
    for v in (1, 2, 3):
        ctx = context(v, 1)
        crit = critical_substitution(v)
        for j in label_order(ctx.n):
            assert coverage(ctx, "Vv0", j, crit) == \
                ("full" if j == "Vv0" else "none")
        assert coverage(ctx, "Dd0", "Dd0", crit) == "full"
        spill = "partial" if v >= 2 else "full"
        assert coverage(ctx, "Dd0", "Dw1", crit) == spill
        assert coverage(ctx, "Dd0", "Dc1", crit) == spill
    print("ACCEPTANCE 5 PASS: DR1-DR3 characterize exactly the n(n+3) "
          "orbit sets; critical coverage facts hold (spillover is partial "
          "once the context has more than two sections)")


def test_criterion_6_classification():
    classes = classify(2, "exhaustive")
    assert sorted(c.size for c in classes) == [4, 24, 36, 48, 144]
    assert sum(c.size for c in classes) == 256
    print("ACCEPTANCE 6 PASS: v=2 exhaustive classification gives 5 classes "
          "of sizes 4/24/36/48/144 (v=3 census in the extended suite)")


def test_criterion_7_axiom_registry():
    n_variants = 0
    for sys in named_systems(3):
        for var in sys.variants:
            assert variant_collapse(var) == \
                cmm_from_coords(sys.coord, var.v).matrix, (sys.name, var.text)
            n_variants += 1
        for err in sys.errata:
            got = variant_collapse(AxiomVariant(err.v, err.base, err.text))
            assert got == cmm_from_coords(
                SystemCoord(*err.lands_at), err.v).matrix
            assert got != cmm_from_coords(sys.coord, err.v).matrix
    kw8 = next(s for s in named_systems(2) if s.name == "KW8")
    assert len(kw8.variants) == 6
    assert len({variant_collapse(v).bits for v in kw8.variants}) == 1
    for v in (1, 2):
        for c in enumerate_cmms(v):
            if c.coord.plane != "K":
                continue
            a = collapse(normalize(alpha_K(c.coord.x, c.coord.y, v),
                                   context(v, 1)))
            ap = collapse(normalize(alpha_prime_K(c.coord.x, c.coord.y, v),
                                    context(v, 1)))
            assert a == ap == c.matrix
    print(f"ACCEPTANCE 7 PASS: {n_variants} published variants collapse to "
          "their coordinates (9 recorded errata land elsewhere, verified); "
          "all six KW8 variants agree; alpha == alpha' for every v<=2 "
          "coordinate")


def test_criterion_8_correspondence():
    # correspondence_check reads the CMM's type table; alpha and alpha'
    # are valid on the same frames as the CMM they collapse to
    tables = 0
    for v in (1, 2, 3):
        ctx = context(v, 1)
        for c in enumerate_cmms(v):
            want = type_table(c.orbits, ctx.n)
            axioms = [alpha_for(c.coord, v)]
            if c.coord.plane == "K":
                axioms.append(alpha_prime_K(c.coord.x, c.coord.y, v))
            for a in axioms:
                assert type_table(complete_orbits(normalize(a, ctx)), ctx.n) == want, \
                    (str(c.coord), v)
                tables += 1
    checked = {}
    for v in (1, 2, 3):
        for c in enumerate_cmms(v):
            rep = correspondence_check(v, c.coord, max_worlds=3)
            assert rep.ok, (str(c.coord), rep.violations[:3])
            checked[v] = checked.get(v, 0) + rep.frames_checked
    assert checked[3] == 88 * (2 + 16 + 512) == 46640
    print(f"ACCEPTANCE 8 PASS: axiom validity == frame condition on all "
          f"{sum(checked.values())} (coordinate, frame) pairs with |W| <= 3, "
          f"v in {{1,2,3}} ({checked[3]} at v=3 over 88 coordinates); "
          f"{tables} alpha/alpha' type tables equal their CMM's for v <= 3")


def test_criterion_9_property_suites():
    rng = random.Random(77113355)

    for _ in range(1000):                    # normalization idempotence
        m = random_minmatrix(rng, rng.choice((1, 2)), 1)
        assert normalize(m.to_formula(), m.ctx) == m

    for _ in range(1000):                    # Eq. (1): implication iff subset
        v = rng.choice((1, 2))
        ctx = context(v, 1)
        f, g = random_formula(rng, v, 3), random_formula(rng, v, 3)
        assert normalize(Implies(f, g), ctx).is_theorem_K() == \
            (normalize(f, ctx) <= normalize(g, ctx))

    for _ in range(1000):                    # action compatibility
        v = rng.choice((1, 2))
        m = random_minmatrix(rng, v, 1)
        a, b = random_substitution(rng, v), random_substitution(rng, v)
        assert apply_minmatrix(m, compose(a, b)) == \
            apply_minmatrix(apply_minmatrix(m, a), b)

    for _ in range(1000):                    # US-12 disjointness
        v = rng.choice((1, 2))
        ctx = context(v, 1)
        a = random_minmatrix(rng, v, 1)
        b = Minmatrix(ctx, rng.getrandbits(ctx.universe_size) & ~a.bits)
        s = random_substitution(rng, v)
        assert not (apply_minmatrix(a, s) & apply_minmatrix(b, s)).bits

    for _ in range(1000):                    # collapse monotone + idempotent
        v = rng.choice((1, 2))
        m = random_minmatrix(rng, v, 1)
        c = collapse(m)
        assert c <= m and collapse(c) == c
        sub = Minmatrix(m.ctx, m.bits & rng.getrandbits(m.ctx.universe_size))
        assert collapse(sub) <= c

    union_pairs = meet_pairs = 0
    for v in (1, 2, 3):                      # Theorem 1a and level-1 meets
        cmms = enumerate_cmms(v)
        sets = {c.orbits for c in cmms}
        for a, b in combinations(cmms, 2):
            assert (a.orbits | b.orbits) in sets
            union_pairs += 1
        for a, b in combinations(cmms, 2):
            inter = a.matrix & b.matrix
            assert collapse(inter) == inter
            meet_pairs += 1
    assert union_pairs >= 1000 and meet_pairs >= 1000

    print("ACCEPTANCE 9 PASS: 5 x 1000 randomized property checks plus "
          f"{union_pairs} union-closure and {meet_pairs} meet-equality pairs, "
          "zero failures")
