import pytest

from conftest import random_formula

from mmw.axiom import (AxiomVariant, alpha_D, alpha_for, alpha_K,
                       alpha_prime_K, expand_cyclic, named_systems,
                       registry_lookup, system_of, variant_collapse)
from mmw.context import context
from mmw.formula import parse, rename_vars, variables
from mmw.lattice import (STAR, SystemCoord, cmm_from_coords, collapse,
                         enumerate_cmms, map_to_star)
from mmw.minmatrix import normalize
from mmw.orbit import complete_orbits, labels_of

K11 = context(1, 1)


def cmm_bits(plane, x, y, v):
    return cmm_from_coords(SystemCoord(plane, x, y), v).matrix


def test_alpha_ver():
    m = normalize(alpha_K(0, -1, 1), K11)
    # everything outside the positive section, plus its all-negative minterm
    assert set(m.members()) == {0, 1, 2, 3, 4}
    assert collapse(m) == cmm_bits("K", 0, -1, 1)
    assert collapse(normalize(parse("!<>1"), K11)) == cmm_bits("K", 0, -1, 1)


def test_alpha_top_is_theorem():
    assert normalize(alpha_K(STAR, STAR, 1), K11).is_theorem_K()
    assert normalize(alpha_K(STAR, STAR, 2), context(2, 1)).is_theorem_K()


def test_alpha_Kt_equiprovable_with_published_axiom():
    got = collapse(normalize(alpha_K(0, STAR, 1), K11))
    assert got == cmm_bits("K", 0, STAR, 1)
    assert got == collapse(normalize(parse("p-><>p+[]p"), K11))


def test_alpha_D_cases():
    # the (0,-1) axiom is equiprovable with 0: its normalization keeps no
    # complete orbit, so it collapses to the empty CMM
    assert collapse(normalize(alpha_D(0, -1, 1), K11)).bits == 0
    assert collapse(normalize(alpha_D(STAR, STAR, 1), K11)) == \
        collapse(normalize(parse("<>1"), K11)) == cmm_bits("D", STAR, STAR, 1)
    assert collapse(normalize(alpha_D(0, 0, 1), K11)) == cmm_bits("D", 0, 0, 1)


def test_alpha_D_is_diamond_top_conjunction():
    for coord in [(0, 0), (1, 0), (0, STAR), (STAR, STAR)]:
        lhs = normalize(alpha_D(*coord, 1), K11)
        rhs = normalize(parse("<>1"), K11) & normalize(alpha_K(*coord, 1), K11)
        assert lhs == rhs


def test_alpha_collapse_every_coordinate():
    for v in (0, 1, 2):
        for c in enumerate_cmms(v):
            a = alpha_K(c.coord.x, c.coord.y, v) if c.coord.plane == "K" \
                else alpha_D(c.coord.x, c.coord.y, v)
            assert collapse(normalize(a, context(v, 1))) == c.matrix, str(c.coord)


def test_alpha_collapses_every_v3_coordinate():
    k31 = context(3, 1)
    for c in enumerate_cmms(3):
        a = alpha_for(c.coord, 3)
        assert collapse(normalize(a, k31)) == c.matrix, str(c.coord)


def test_alpha_prime_examples():
    assert collapse(normalize(alpha_prime_K(0, 0, 1), K11)) == cmm_bits("K", 0, 0, 1)
    assert normalize(alpha_prime_K(STAR, STAR, 1), K11).is_theorem_K()


def test_alpha_prime_matches_alpha_everywhere():
    for v in (1, 2):
        for c in enumerate_cmms(v):
            if c.coord.plane != "K":
                continue
            a = collapse(normalize(alpha_K(c.coord.x, c.coord.y, v), context(v, 1)))
            ap = collapse(normalize(alpha_prime_K(c.coord.x, c.coord.y, v),
                                    context(v, 1)))
            assert a == ap == c.matrix, str(c.coord)


def test_alpha_prime_matches_alpha_v3():
    k31 = context(3, 1)
    for c in enumerate_cmms(3):
        if c.coord.plane != "K":
            continue
        a = collapse(normalize(alpha_for(c.coord, 3), k31))
        ap = collapse(normalize(alpha_prime_K(c.coord.x, c.coord.y, 3), k31))
        assert a == ap == c.matrix, str(c.coord)


def test_invalid_coordinate_rejected():
    with pytest.raises(ValueError):
        alpha_K(1, -1, 1)
    with pytest.raises(ValueError):
        alpha_K(4, 2, 2)


def test_system_of_examples():
    assert system_of(parse("[]p->p")) == (SystemCoord("D", 0, STAR), 1)
    assert system_of(parse("<>p->[]p")) == (SystemCoord("K", 1, 0), 1)
    assert system_of(parse("pq<>p<>q-><>(pq)")) == (SystemCoord("K", 1, STAR), 2)
    assert system_of(parse("p->p")) == (SystemCoord("K", STAR, STAR), 1)
    assert system_of(parse("0")) == (SystemCoord("D", 0, -1), 1)
    assert system_of(parse("<>1")) == (SystemCoord("D", STAR, STAR), 1)


def test_system_of_degree_guard():
    with pytest.raises(ValueError):
        system_of(parse("[][]p->p"))


def test_system_of_variable_guard():
    # five variables need K[5,1], 2^37 minterms, over the default context cap
    with pytest.raises(ValueError):
        system_of(parse("pqrs->[]p4"))


def largest_coordinate_inside(m, v):
    """The star coordinate of the largest coordinate CMM inside ``m``.

    Collapse keeps the largest union of CMMs below its input, and CMMs
    are closed under union, so this oracle needs neither the orbit trim
    nor the critical substitution.
    """
    n = 1 << v
    whole = set(labels_of(complete_orbits(m), n))
    inside = []
    for plane in ("K", "D"):
        for y in range(-1, n):
            for x in range(min(y + 1, n - 1) + 1):
                labels = {"Vv0"} if plane == "K" else set()
                if y >= 0:
                    labels |= {"Dd0"} | {f"Dw{k}" for k in range(1, y + 1)}
                labels |= {f"Dc{k}" for k in range(1, x + 1)}
                if labels <= whole:
                    inside.append((SystemCoord(plane, x, y), labels))
    union = set().union(*(labels for _, labels in inside))
    best = [coord for coord, labels in inside if labels == union]
    assert len(best) == 1
    return map_to_star(best[0], v)


def test_system_of_four_variables(rng):
    # seeded random 4-variable formulas, which mostly name the extreme
    # systems, then every v=2 alpha moved onto two of the four variables,
    # which lands on its own star coordinate: 28 distinct systems
    assert system_of(parse("pqrs->[](pqrs)")) == (SystemCoord("K", 0, 0), 4)
    k41 = context(4, 1)
    checked = 0
    while checked < 12:
        f = random_formula(rng, 4, depth=4)
        if variables(f) != 4:
            continue
        want = largest_coordinate_inside(normalize(f, k41), 4)
        assert system_of(f) == (want, 4)
        checked += 1
    seen = set()
    for c in enumerate_cmms(2):
        target = rng.choice([(0, 3), (1, 3), (2, 3), (3, 0), (3, 1), (3, 2)])
        f = rename_vars(alpha_for(c.coord, 2), dict(enumerate(target)))
        want = largest_coordinate_inside(normalize(f, k41), 4)
        assert want == map_to_star(c.coord, 2)
        assert system_of(f) == (want, 4)
        seen.add(want)
    assert len(seen) == 28


def test_expand_cyclic():
    assert expand_cyclic("$+([](p->q))+x") == "(([](p->q))+([](q->r))+([](r->p)))+x"
    assert expand_cyclic("$*(p<>p)") == "((p<>p)(q<>q)(r<>r))"
    assert expand_cyclic("no macros") == "no macros"
    with pytest.raises(ValueError):
        expand_cyclic("$+(p")
    with pytest.raises(ValueError):
        expand_cyclic("$+($*(p))")


@pytest.mark.parametrize("text", ["p$", "p$+", "p$*", "$", "$(p)", "$-(p)", "p$+p"])
def test_expand_cyclic_rejects_truncated_macros(text):
    with pytest.raises(ValueError, match="malformed cyclic macro"):
        expand_cyclic(text)
    with pytest.raises(ValueError, match="malformed cyclic macro"):
        variant_collapse(AxiomVariant(1, "K", text))


def test_registry_counts():
    assert len(named_systems(0)) == 4
    assert len(named_systems(1)) == 10
    assert len(named_systems(2)) == 28
    assert len(named_systems(3)) == 58


def test_registry_t_variants():
    t = next(s for s in named_systems(1) if s.name == "T")
    assert {v.text for v in t.variants} == {"p-><>p", "[]p->p"}
    assert t.coord == SystemCoord("D", 0, STAR)


def test_registry_kw8_variants_agree():
    kw8 = next(s for s in named_systems(2) if s.name == "KW8")
    assert len(kw8.variants) == 6
    want = cmm_from_coords(kw8.coord, 2).matrix
    for var in kw8.variants:
        assert variant_collapse(var) == want


def test_registry_all_variants_collapse_to_their_coordinate():
    for sys in named_systems(3):
        for var in sys.variants:
            want = cmm_from_coords(sys.coord, var.v).matrix
            assert variant_collapse(var) == want, (sys.name, var.text)


def test_registry_errata_land_elsewhere():
    total = 0
    for sys in named_systems(3):
        for err in sys.errata:
            total += 1
            got = variant_collapse(AxiomVariant(err.v, err.base, err.text))
            stated = cmm_from_coords(sys.coord, err.v).matrix
            lands = cmm_from_coords(SystemCoord(*err.lands_at), err.v).matrix
            assert got == lands and got != stated, (sys.name, err.text)
            if err.corrected:
                fixed = variant_collapse(
                    AxiomVariant(err.v, err.base, err.corrected))
                assert fixed == stated, (sys.name, err.corrected)
    assert total == 9


def test_registry_lookup():
    assert registry_lookup(SystemCoord("D", 0, STAR)).name == "T"
    assert registry_lookup(SystemCoord("K", 1, 0)).name == "K_u"
    assert registry_lookup(SystemCoord("K", 0, 1)).name == "KW1"
    assert registry_lookup(SystemCoord("K", 3, 3)).name == "KWX6"
    assert registry_lookup(SystemCoord("K", 2, 0)) is None
    registry = named_systems(3)
    for v in (0, 1, 2, 3):
        for c in enumerate_cmms(v):
            star = map_to_star(c.coord, v)
            scan = next((sys for sys in registry if sys.coord == star), None)
            assert registry_lookup(star) == scan, str(star)


def test_registry_names_match_system_of():
    # K-based variants decide to the named system's own star coordinate
    checked = 0
    for sys in named_systems(2):
        for var in sys.variants:
            if var.base != "K":
                continue
            coord, _ = system_of(parse(expand_cyclic(var.text)))
            assert coord == sys.coord, (sys.name, var.text, str(coord))
            checked += 1
    assert checked >= 20
