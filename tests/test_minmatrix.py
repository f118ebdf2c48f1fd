import json
import random

import pytest

from conftest import random_formula, random_minmatrix

from mmw import formula as fm
from mmw.axiom import alpha_K
from mmw.context import CapExceededError, Context, DegreeError, context
from mmw.formula import Const0, Const1, parse, render
from mmw.minmatrix import (ContextMismatchError, Minmatrix, _diamond_mask,
                           normalize)
from mmw.orbit import orbit_map

K11 = context(1, 1)
K21 = context(2, 1)


def reference_eval(f, ctx, memo):
    """The minmatrix bits of ``f`` by direct recursion, memoized on (f, ctx)."""
    key = (f, ctx)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(f, fm.Const0):
        bits = 0
    elif isinstance(f, fm.Const1):
        bits = ctx.full
    elif isinstance(f, fm.Var):
        bits = ctx.var_mask(f.index)
    elif isinstance(f, fm.Not):
        bits = ctx.full ^ reference_eval(f.child, ctx, memo)
    elif isinstance(f, fm.And):
        bits = reference_eval(f.left, ctx, memo) & reference_eval(f.right, ctx, memo)
    elif isinstance(f, fm.Or):
        bits = reference_eval(f.left, ctx, memo) | reference_eval(f.right, ctx, memo)
    elif isinstance(f, fm.Implies):
        bits = (ctx.full ^ reference_eval(f.left, ctx, memo)) | \
            reference_eval(f.right, ctx, memo)
    elif isinstance(f, fm.Iff):
        bits = ctx.full ^ (reference_eval(f.left, ctx, memo) ^
                           reference_eval(f.right, ctx, memo))
    elif isinstance(f, fm.Diamond):
        bits = _diamond_mask(ctx, reference_eval(f.child, ctx.predecessor(), memo))
    elif isinstance(f, fm.Box):
        pred = ctx.predecessor()
        bits = ctx.full ^ _diamond_mask(
            ctx, pred.full ^ reference_eval(f.child, pred, memo))
    else:
        raise TypeError(f"unknown formula node {f!r}")
    memo[key] = bits
    return bits


def test_normalize_boolean_golden():
    m = normalize(parse("p+q+r->(p->q)r"), context(3, 0))
    assert set(m.members()) == {7, 3, 1, 0}


def test_normalize_T_golden():
    m = normalize(parse("[]p->p"), K11)
    assert set(m.members()) == {7, 6, 5, 4, 3, 1}


def test_normalize_constants():
    assert normalize(Const1(), K21).is_theorem_K()
    assert normalize(Const0(), K21).bits == 0


def test_normalize_diamond_one():
    m = normalize(parse("<>1"), K11)
    assert set(m.members()) == {7, 6, 5, 3, 2, 1}


def test_normalize_matches_reference(rng):
    cases = []
    for v in (0, 1, 2, 3):
        for d in (0, 1):
            cases += [(random_formula(rng, v, 5, d), context(v, d))
                      for _ in range(60)]
    cases += [(random_formula(rng, 1, 6, modal_budget=2), context(1, 2))
              for _ in range(60)]
    # equal subterms spelled by distinct objects (every <>m_i factor)
    cases.append((alpha_K(1, 2, 2), K21))
    # one object in both children of a node
    shared = parse("<>p->[]!p")
    for _ in range(6):
        shared = fm.Or(shared, fm.And(shared, parse("[]p")))
    cases.append((fm.Implies(shared, shared), K11))
    cases.append((fm.And(shared, parse("p<>!p")), K11))
    for f, ctx in cases:
        assert normalize(f, ctx).bits == reference_eval(f, ctx, {}), render(f)


def test_normalize_walks_shared_objects_once():
    # 62 objects spell a tree of about 2**61 nodes; each object is walked once
    tower = parse("<>p")
    for _ in range(60):
        tower = fm.Iff(tower, tower)
    assert normalize(tower, K11).is_theorem_K()


def test_normalize_degree_and_variable_guards():
    with pytest.raises(DegreeError):
        normalize(parse("<><>p"), K11)
    with pytest.raises(ValueError):
        normalize(parse("q"), context(1, 0))


def test_normalize_refuses_masks_over_the_bit_cap(monkeypatch):
    # a K[4,1] mask has 2^20 bits, so 4,096 distinct subterms fill the 2^32-bit
    # cap; the first mask built would be p's, so reaching it shows the check ran
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(Context, "var_mask", reached)

    def negations(entries):             # p under entries - 1 negations
        f = fm.Var(0)
        for _ in range(entries - 1):
            f = fm.Not(f)
        return f

    ctx = context(4, 1)
    with pytest.raises(Reached):
        normalize(negations(4096), ctx)
    with pytest.raises(CapExceededError, match="^4097 distinct subterms .* over the cap"):
        normalize(negations(4097), ctx)


def test_boolean_ops():
    T = normalize(parse("[]p->p"), K11)
    D = normalize(parse("<>1"), K11)
    assert set((T & D).members()) == {7, 6, 5, 3, 1}
    assert (Minmatrix.full(K11) & T) == T
    assert ~Minmatrix.empty(K11) == Minmatrix.full(K11)
    assert Minmatrix.empty(K11) <= T <= Minmatrix.full(K11)


def test_context_mismatch():
    with pytest.raises(ContextMismatchError):
        Minmatrix.full(K11) & Minmatrix.full(K21)


def test_theoremhood():
    assert normalize(parse("p->p"), context(1, 0)).is_theorem_K()
    assert normalize(parse("[](p->q)->([]p->[]q)"), K21).is_theorem_K()
    assert not normalize(parse("[]p->p"), K11).is_theorem_K()


def test_to_formula():
    assert normalize(Const0(), K11).to_formula() == Const0()
    assert render(Minmatrix.from_indices(K11, [7]).to_formula()) == "p<>p<>!p"
    T = normalize(parse("[]p->p"), K11)
    cmm = Minmatrix.from_indices(K11, [7, 6, 3, 1])
    assert normalize(cmm.to_formula(), K11) == cmm
    assert normalize(T.to_formula(), K11) == T


def test_normalize_to_formula_identity(rng):
    for _ in range(300):
        m = random_minmatrix(rng, rng.choice((1, 2)), 1)
        assert normalize(m.to_formula(), m.ctx) == m
    # to_formula() of a dense K[3,1] minmatrix is a left-deep chain of about
    # 1,000 minterms, deeper than the interpreter's recursion limit
    for _ in range(3):
        m = random_minmatrix(rng, 3, 1)
        assert normalize(m.to_formula(), m.ctx) == m


def test_promote_level0():
    m = Minmatrix.from_indices(context(1, 0), [1])      # [p]
    up = m.promote_v()
    assert up.ctx == context(2, 0) and set(up.members()) == {3, 2}
    assert Minmatrix.full(context(1, 0)).promote_v().is_theorem_K()


def test_promote_preserves_subsets_level0(rng):
    for _ in range(200):
        a = random_minmatrix(rng, 2, 0)
        b = random_minmatrix(rng, 2, 0)
        assert (a & b).promote_v() == a.promote_v() & b.promote_v()
        if a <= b:
            assert a.promote_v() <= b.promote_v()


def test_promote_orbits_coverage():
    # how the K[1,1] orbits land in K[2,1]: full or partial per target orbit
    small = orbit_map(K11)
    big = orbit_map(K21)

    def profile(label):
        up = small[label].promote_v()
        out = {}
        for lbl, orb in big.items():
            inter = up & orb
            if inter.bits:
                out[lbl] = "full" if orb <= up else "partial"
        return out

    assert profile("Vv0") == {"Vv0": "full"}
    assert profile("Dd0") == {"Dd0": "full", "Dc1": "partial", "Dw1": "partial"}
    assert profile("Dc1") == {"Dc1": "partial", "Dc2": "partial"}
    assert profile("Dw1") == {"Dw2": "full", "Dw3": "full", "Dc3": "full",
                              "Dw1": "partial", "Dc2": "partial"}


def test_render_matrix_T_cmm():
    cmm = Minmatrix.from_indices(K11, [7, 6, 3, 1])
    lines = cmm.render_matrix().splitlines()
    assert lines[0].startswith("   p |")
    cols = [c for c in lines[0].split("|")[1].split() if c != ":"]
    assert cols == ["1", "1", "0", "0"]
    rows = [[c for c in ln.split("|")[1].split() if c != ":"]
            for ln in (lines[0], lines[2], lines[3])]
    assert list(zip(*rows)) == [("1", "1", "1"), ("1", "1", "0"),
                                ("0", "1", "1"), ("0", "0", "1")]


def test_render_matrix_empty():
    assert Minmatrix.empty(K11).render_matrix() == "[ ]"


def test_render_matrix_level0():
    m = normalize(parse("p+q+r->(p->q)r"), context(3, 0))
    lines = m.render_matrix().splitlines()
    assert len(lines) == 3      # no modal separator at level 0
    assert lines[0].split("|")[1].split() == ["1", "0", "0", "0"]


def test_json_round_trip(rng):
    for _ in range(50):
        m = random_minmatrix(rng, 2, 1)
        doc = json.loads(json.dumps(m.to_json(include_hex=True)))
        assert Minmatrix.from_json(doc) == m
        doc2 = {"v": 2, "d": 1, "minterms": list(m.members())}
        assert Minmatrix.from_json(doc2) == m


def test_json_refuses_a_hex_mask_wider_than_the_universe():
    # K[1,1] has 8 minterms: "ff" is all of them, "ffff" claims 16
    assert Minmatrix.from_json({"v": 1, "d": 1, "hex": "ff"}).is_theorem_K()
    with pytest.raises(ValueError, match=r"minterm index 15, out of range for K\[1,1\]"):
        Minmatrix.from_json({"v": 1, "d": 1, "hex": "ffff"})
    with pytest.raises(ValueError, match=r"minterm index 1, out of range for K\[0,0\]"):
        Minmatrix.from_json({"v": 0, "d": 0, "hex": "02"})


def test_eq1_implication_subset(rng):
    # theoremhood of an implication is subset inclusion of the minmatrices
    from mmw.formula import Implies
    for _ in range(300):
        v = rng.choice((1, 2))
        ctx = context(v, 1)
        f = random_formula(rng, v, 3)
        g = random_formula(rng, v, 3)
        lhs = normalize(Implies(f, g), ctx).is_theorem_K()
        rhs = normalize(f, ctx) <= normalize(g, ctx)
        assert lhs == rhs


def test_powerset_lattice_structure(rng):
    # minmatrix algebra is the power set algebra of the minterm universe
    for _ in range(100):
        a = random_minmatrix(rng, 1, 1)
        b = random_minmatrix(rng, 1, 1)
        assert (a | b).members() == tuple(sorted(set(a.members()) | set(b.members())))
        assert (a & b).members() == tuple(sorted(set(a.members()) & set(b.members())))
        assert (~a).members() == tuple(i for i in range(8) if i not in a.members())


def reference_members(bits: int) -> tuple[int, ...]:
    """Ascending set bits, clearing the lowest one per member."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


def test_members_matches_bit_clearing_loop(rng):
    for v in range(4):
        ctx = context(v, 1)
        for m in (Minmatrix.empty(ctx), Minmatrix.full(ctx),
                  Minmatrix(ctx, 1 << (ctx.universe_size - 1))):
            assert m.members() == reference_members(m.bits)
        for _ in range(25):
            m = random_minmatrix(rng, v)
            assert m.members() == reference_members(m.bits)


def test_members_of_v4_orbit():
    # Dc8 of K[4,1]: 102,960 of 2**20 minterms
    from mmw.orbit import expected_size, label_order, orbit_masks
    ctx = context(4, 1)
    mask = orbit_masks(ctx)[label_order(16).index("Dc8")]
    members = Minmatrix(ctx, mask).members()
    assert len(members) == expected_size("Dc8", 16) == 102960
    assert list(members) == sorted(members)
    rebuilt = 0
    for i in members:
        rebuilt |= 1 << i
    assert rebuilt == mask
