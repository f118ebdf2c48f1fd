import random
import subprocess
import sys
from itertools import permutations

import pytest

from conftest import random_formula, random_minmatrix, random_substitution

from mmw.context import DegreeError, context
from mmw.formula import Diamond, Const0, parse
from mmw.minmatrix import Minmatrix, normalize
from mmw.orbit import images_under, orbit_masks, orbit_position
from mmw.substitution import (Substitution, all_substitutions,
                              apply_formula, apply_minmatrix, apply_minterm,
                              classify, compose, coverage_key,
                              critical_substitution, enumerate_primes, identity,
                              _partitions, _source_map, is_prime)

K11 = context(1, 1)
K21 = context(2, 1)


def sub_from_formulas(v, *texts):
    ctx0 = context(v, 0)
    return Substitution.from_tables(v, [normalize(parse(t), ctx0).bits for t in texts])


def reference_minterm_images(ctx, s):
    """Every minterm's image by the per-factor mask walk (the test oracle).

    For each level-0 index i: ``pre[i]`` holds the sections in g^-1(i),
    ``pos[i]`` the minterms with some factor <>m_j, j in g^-1(i), positive
    and ``neg[i]`` its complement; the image of (section, e) is
    ``pre[section]`` ANDed with ``pos[i]`` or ``neg[i]`` for each factor i.
    """
    g = s.g
    n = ctx.n
    if ctx.d == 0:
        return [sum(1 << j for j in range(n) if g[j] == i) for i in range(n)]
    section = (1 << (1 << ctx.e_bits)) - 1      # the minterms of section 0
    pre = [0] * n
    pos = [0] * n
    for j, i in enumerate(g):
        pre[i] |= section << (j << ctx.e_bits)
        pos[i] |= ctx.factor_mask(j)
    neg = [ctx.full ^ m for m in pos]
    images = []
    for index in range(ctx.universe_size):
        sec, e = ctx.split(index)
        acc = pre[sec]
        for i in range(n):
            if acc == 0:
                break
            acc &= pos[i] if (e >> i) & 1 else neg[i]
        images.append(acc)
    return images


def reference_apply(bits, images):
    """Union of the images of the members of ``bits``."""
    out = 0
    while bits:
        low = bits & -bits
        out |= images[low.bit_length() - 1]
        bits ^= low
    return out


def engine_cases(rng):
    """(context, substitution, mask-walk images) for v = 0..3 at d = 0 and 1.

    Per v: the identity, a constant map, the critical substitution and 20
    seeded random self-maps.
    """
    for v in range(4):
        n = 1 << v
        subs = [identity(v), Substitution(v, (n - 1,) * n)]
        if v:
            subs.append(critical_substitution(v))
        subs += [random_substitution(rng, v) for _ in range(20)]
        for d in (0, 1):
            ctx = context(v, d)
            for s in subs:
                yield ctx, s, reference_minterm_images(ctx, s)


def test_identity_unit_law(rng):
    for v in (1, 2):
        e = identity(v)
        for _ in range(50):
            s = random_substitution(rng, v)
            assert compose(e, s) == s == compose(s, e)


def test_negation_involution():
    neg = sub_from_formulas(1, "!p")
    assert compose(neg, neg) == identity(1)


def test_compose_follows_action_order():
    # applying swap first and then (p,q)->(p,0) sends p to 0 and q to p
    swap = sub_from_formulas(2, "q", "p")
    pz = sub_from_formulas(2, "p", "0")
    composed = compose(swap, pz)
    assert composed == sub_from_formulas(2, "0", "p")
    # cross-check on formulas: phi o (ab) is (phi o a) o b
    for text in ("p", "q", "p<->q", "p+!q"):
        f = parse(text)
        lhs = normalize(apply_formula(f, composed), context(2, 0))
        rhs = normalize(apply_formula(apply_formula(f, swap), pz), context(2, 0))
        assert lhs == rhs


def test_compose_arity_mismatch():
    with pytest.raises(ValueError):
        compose(identity(1), identity(2))


def test_substitution_count():
    for v in (1, 2):
        subs = all_substitutions(v)
        assert len(subs) == len(set(subs)) == (1 << v) ** (1 << v)


def test_apply_formula_rules():
    swap = sub_from_formulas(2, "q", "p")
    f = apply_formula(parse("p+q"), swap)
    assert normalize(f, context(2, 0)) == normalize(parse("q+p"), context(2, 0))
    pz = sub_from_formulas(1, "0")
    g = apply_formula(Diamond(parse("p")), pz)
    assert g == Diamond(Const0())


def test_apply_formula_matches_minmatrix_action(rng):
    for _ in range(300):
        v = rng.choice((1, 2))
        ctx = context(v, 1)
        f = random_formula(rng, v, 3)
        s = random_substitution(rng, v)
        lhs = normalize(apply_formula(f, s), ctx)
        rhs = apply_minmatrix(normalize(f, ctx), s)
        assert lhs == rhs


def test_apply_minterm_identity():
    for idx in range(K11.universe_size):
        assert apply_minterm(K11, idx, identity(1)).members() == (idx,)


def test_apply_minterm_examples():
    pz = sub_from_formulas(1, "0")
    assert apply_minterm(K11, 2, pz).bits == 0       # forced <>0
    neg = sub_from_formulas(1, "!p")
    assert apply_minterm(K11, 7, neg).members() == (3,)


def test_apply_minmatrix_matches_mask_walk(rng):
    for ctx, s, images in engine_cases(rng):
        size = ctx.universe_size
        for idx in rng.sample(range(size), min(8, size)):
            assert apply_minterm(ctx, idx, s).bits == images[idx]
        for _ in range(40):
            bits = rng.getrandbits(size)
            if rng.random() < 0.5:      # sparse, so single fibres show
                bits &= rng.getrandbits(size) & rng.getrandbits(size)
            assert apply_minmatrix(Minmatrix(ctx, bits), s).bits == \
                reference_apply(bits, images)


def reference_orbit_images(ctx, s):
    """The orbit images by a loop over the 2**n e-values of each section.

    Each e-value of section j is binned by the orbit of its source
    (g[j], img[e]); a second test oracle, fast enough for K[4,1].
    """
    g, img = _source_map(ctx, s)
    n = ctx.n
    images = [0] * (2 * n)
    rows = {}       # section i -> the e by orbit of (i, img[e])
    for j, i in enumerate(g):
        if i not in rows:
            rows[i] = [0] * (2 * n)
            for e, x in enumerate(img):
                rows[i][orbit_position(i, x)] |= 1 << e
        for k, mask in enumerate(rows[i]):
            images[k] |= mask << (j << n)
    return images


def test_orbit_images_match_mask_walk(rng):
    for ctx, s, images in engine_cases(rng):
        if ctx.d == 1:
            expected = [reference_apply(mask, images) for mask in orbit_masks(ctx)]
            assert images_under(ctx, s.g) == expected
            assert reference_orbit_images(ctx, s) == expected
    # K[4,1] is out of the mask walk's reach: the critical substitution
    # and three seeded maps against the e-value loop
    ctx = context(4, 1)
    for s in [critical_substitution(4)] + [random_substitution(rng, 4) for _ in range(3)]:
        assert images_under(ctx, s.g) == reference_orbit_images(ctx, s)


def mask_coverage_key(s):
    """The coverage key from the masks of the orbit images (the test oracle)."""
    ctx = context(s.v, 1)
    masks = orbit_masks(ctx)
    return tuple(tuple(0 if not image & mask else 2 if image & mask == mask else 1
                       for mask in masks)
                 for image in images_under(ctx, s.g))


def test_coverage_key_matches_mask_key(rng):
    # the key counted from fibre sizes: every map at v <= 2, and at v = 3
    # each fibre partition's block map and a seeded shuffle of it
    for v in (0, 1, 2):
        for s in all_substitutions(v):
            assert coverage_key(s) == mask_coverage_key(s), s.g
    for lam in _partitions(8):
        g = [t for t, size in enumerate(lam) for _ in range(size)]
        for h in (g, rng.sample(g, len(g))):
            s = Substitution(3, h)
            assert coverage_key(s) == mask_coverage_key(s), h


def test_apply_minterm_degree_guard():
    with pytest.raises(DegreeError):
        apply_minterm(context(1, 2), 0, identity(1))


def test_apply_minmatrix_fixed_points():
    for s in all_substitutions(1):
        assert apply_minmatrix(Minmatrix.full(K11), s).is_theorem_K()
        assert apply_minmatrix(Minmatrix.empty(K11), s).bits == 0


def test_action_compatibility(rng):
    for _ in range(300):
        v = rng.choice((1, 2))
        m = random_minmatrix(rng, v, 1)
        a = random_substitution(rng, v)
        b = random_substitution(rng, v)
        assert apply_minmatrix(m, compose(a, b)) == \
            apply_minmatrix(apply_minmatrix(m, a), b)


def test_us12_disjoint_images(rng):
    for _ in range(300):
        v = rng.choice((1, 2))
        ctx = context(v, 1)
        a = random_minmatrix(rng, v, 1)
        b = Minmatrix(ctx, random.Random(rng.random()).getrandbits(
            ctx.universe_size) & ~a.bits)
        s = random_substitution(rng, v)
        assert not (apply_minmatrix(a, s) & apply_minmatrix(b, s)).bits


def test_prime_detection():
    assert is_prime(identity(1))
    assert is_prime(sub_from_formulas(1, "!p"))
    assert not is_prime(sub_from_formulas(1, "0"))
    assert is_prime(sub_from_formulas(2, "p<->q", "p"))


def test_prime_counts():
    assert len(enumerate_primes(1)) == 2
    assert len(enumerate_primes(2)) == 24
    assert len(enumerate_primes(3)) == 40320


def reference_prime(v, pi):
    """The prime of permutation ``pi``, one minterm and variable at a time."""
    # sigma_k = sum of m_{pi(i)} over the i where p_k is true in m_i.
    tables = [0] * v
    for i in range(1 << v):
        for k in range(v):
            if (i >> (v - 1 - k)) & 1:
                tables[k] |= 1 << pi[i]
    return Substitution.from_tables(v, tables)


def test_enumerate_primes_matches_permutation_loop():
    # the prime of pi maps m_pi(i) to m_i, so its g is the inverse of pi
    assert enumerate_primes(0) == (Substitution(0, (0,)),)
    for v in range(4):
        n = 1 << v
        primes = enumerate_primes(v)
        assert [s.g for s in primes] == list(permutations(range(n)))
        for s in primes:
            inverse = [0] * n
            for i, j in enumerate(s.g):
                inverse[j] = i
            assert s == reference_prime(v, inverse)
    with pytest.raises(ValueError):
        enumerate_primes(4)


def test_tables_and_level0_map_agree(rng):
    # from_tables inverts the derived tables, and formula_for spells each
    # table: every map at v <= 2, 200 seeded maps at each of v = 3 and 4
    subs = [s for v in (0, 1, 2) for s in all_substitutions(v)]
    subs += [random_substitution(rng, v) for v in (3, 4) for _ in range(200)]
    for s in subs:
        ctx0 = context(s.v, 0)
        assert Substitution.from_tables(s.v, s.tables) == s
        for k in range(s.v):
            assert normalize(s.formula_for(k), ctx0).bits == s.tables[k]


APPENDIX_PRIMES_V2 = [
    ("p", "q"), ("!p", "q"), ("p", "p<->q"), ("!p", "p<->q"),
    ("p<->q", "p"), ("p<->!q", "p"),
    ("p", "!q"), ("!p", "!q"), ("p", "p<->!q"), ("!p", "p<->!q"),
    ("p<->q", "!p"), ("p<->!q", "!p"),
    ("q", "p"), ("!q", "p"), ("q", "p<->q"), ("!q", "p<->q"),
    ("p<->q", "q"), ("p<->!q", "q"),
    ("q", "!p"), ("!q", "!p"), ("q", "p<->!q"), ("!q", "p<->!q"),
    ("p<->q", "!q"), ("p<->!q", "!q"),
]


def test_primes_v2_match_published_table():
    table = {sub_from_formulas(2, a, b) for a, b in APPENDIX_PRIMES_V2}
    assert len(table) == 24
    assert table == set(enumerate_primes(2))


def test_primes_are_minterm_bijections():
    for s in enumerate_primes(2):
        images = [apply_minterm(K21, i, s) for i in range(K21.universe_size)]
        assert all(m.count == 1 for m in images)
        assert len({m.bits for m in images}) == K21.universe_size


def test_critical_substitution_values():
    assert critical_substitution(1) == sub_from_formulas(1, "0")
    c2 = critical_substitution(2)
    assert c2.g == (0, 1, 2, 2)
    c3 = critical_substitution(3)
    assert c3.g == (0, 1, 2, 3, 4, 5, 6, 6)
    assert not is_prime(c2)
    with pytest.raises(ValueError):
        critical_substitution(0)


def test_classify_v1():
    classes = classify(1, "exhaustive")
    assert sorted(c.size for c in classes) == [2, 2]
    nonprime = next(c for c in classes if not is_prime(c.representative))
    members = {s for s in all_substitutions(1)
               if coverage_key(s) == nonprime.key}
    assert members == {sub_from_formulas(1, "0"), sub_from_formulas(1, "1")}


def test_classify_v2_sizes():
    classes = classify(2, "exhaustive")
    assert sorted(c.size for c in classes) == [4, 24, 36, 48, 144]
    assert sum(c.size for c in classes) == 256


def test_classify_reduced_matches_exhaustive():
    for v in (1, 2):
        ex = classify(v, "exhaustive")
        red = classify(v, "reduced")
        assert sorted(c.size for c in ex) == sorted(c.size for c in red)
        assert {c.key for c in ex} == {c.key for c in red}


def test_classify_v3_census():
    classes = classify(3, "reduced")
    sizes = sorted(c.size for c in classes)
    assert len(classes) == 22
    assert sum(sizes) == 8 ** 8 == 1 << 24
    published = sorted([
        40320, 8, 448, 1568, 3136, 1960, 9408, 56448, 94080, 94080, 70560,
        705600, 94080, 470400, 1411200, 176400, 470400, 3763200, 2822400,
        1128960, 4233600, 1128960])
    assert sizes == published


def test_classify_key_invariant_under_prime_composition(rng):
    primes = enumerate_primes(2)
    for _ in range(60):
        s = random_substitution(rng, 2)
        key = coverage_key(s)
        a, b = rng.choice(primes), rng.choice(primes)
        assert coverage_key(compose(compose(a, s), b)) == key


MEMORY_SCRIPT = """
import gc, os, tracemalloc
tracemalloc.start()
import mmw
from mmw.lattice import collapse, enumerate_cmms, surviving_orbit_sums
from mmw.substitution import all_substitutions, classify, enumerate_primes
classify(3, "reduced")
surviving_orbit_sums(2, all_substitutions(2))
surviving_orbit_sums(3)
for c in enumerate_cmms(3):
    collapse(c.matrix)
enumerate_primes(3)
gc.collect()
own = tracemalloc.Filter(True, os.path.join(os.path.dirname(mmw.__file__), "*"))
snapshot = tracemalloc.take_snapshot().filter_traces([own])
print(sum(stat.size for stat in snapshot.statistics("filename")))
"""


def test_substitution_work_leaves_little_memory_held():
    # nothing is cached per substitution: after classify(3), the exhaustive
    # v=2 census (all 256 substitutions), the default v=3 census, the
    # default collapse of every v=3 CMM and the 40,320 v=3 primes, mmw's
    # own allocations that are still alive (import-time tables, ~160 KiB,
    # included) stay under 256 KiB.  The work stays at v <= 3: the K[4,1]
    # orbit masks and context masks alone hold ~7 MiB.
    from test_cli import subprocess_env
    proc = subprocess.run([sys.executable, "-c", MEMORY_SCRIPT],
                          env=subprocess_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 256 * 1024


def test_critical_class_is_the_largest_v2():
    classes = classify(2, "exhaustive")
    largest = max(classes, key=lambda c: c.size)
    assert largest.size == 144
    assert coverage_key(critical_substitution(2)) == largest.key
