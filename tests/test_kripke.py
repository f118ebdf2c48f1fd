import random
from itertools import product

import pytest

from conftest import random_formula

import mmw.kripke
import mmw.lattice
from mmw.axiom import alpha_for, alpha_K, system_of
from mmw.cli import main
from mmw.context import context
from mmw.formula import Box, Not, Or, parse, render, variables
from mmw.kripke import (Frame, Model, _falsify, condition_holds_at,
                        correspondence_check, eval_model, find_countermodel,
                        frame_condition_holds, iter_frames, type_table,
                        valid_on_frame)
from mmw.lattice import STAR, SystemCoord, enumerate_cmms, map_to_star
from mmw.minmatrix import Minmatrix, normalize
from mmw.orbit import complete_orbits, orbit_union

REFL = Frame((1,))            # single reflexive world
BLIND = Frame((0,))           # single blind world
CYCLE = Frame((2, 1))         # two worlds seeing each other, no loops


def test_eval_model_examples():
    for a in (0, 1):
        assert eval_model(Model(REFL, 1, (a,)), 0, parse("[]p->p"))
    assert eval_model(Model(BLIND, 1, (0,)), 0, parse("!<>1"))
    m = Model(Frame((2, 0)), 1, (1, 0))
    assert eval_model(m, 0, parse("<>!p"))


def test_eval_model_variable_guard():
    with pytest.raises(ValueError):
        eval_model(Model(REFL, 1, (0,)), 0, parse("q"))


def test_valid_on_frame_examples():
    assert valid_on_frame(REFL, parse("[]p->p"), 1)
    assert not valid_on_frame(CYCLE, parse("[]p->p"), 1)
    assert valid_on_frame(BLIND, alpha_K(0, -1, 1), 1)


def test_valid_on_frame_cap():
    big = Frame((0,) * 7)
    with pytest.raises(ValueError):
        valid_on_frame(big, parse("p->p"), 1)


def test_valid_on_frame_methods_agree(rng):
    frames = [Frame.from_relation(2, r) for r in range(16)]
    for _ in range(150):
        f = random_formula(rng, 2, 3)
        for fr in frames:
            assert valid_on_frame(fr, f, 2) == (_falsify(fr, f, 2, 4) is None)


def _type_table_by_minterms(bits, v):
    """Per-minterm oracle for ``type_table``: one bound per missing minterm.

    An irreflexive world with c >= 1 others realizes every (s, e) with
    1 <= |e| <= c (a blind one only e = {}), a reflexive one every (s, e)
    with s in e and |e| <= min(c + 1, n); both rows are downward closed.
    """
    n = 1 << v
    blind_ok = True
    irr_bound = n + 1     # irreflexive with c >= 1 is ok iff c < irr_bound
    refl_bound = n + 1    # reflexive is ok iff c < refl_bound
    missing = ((1 << (n << n)) - 1) & ~bits
    while missing:
        low = missing & -missing
        s, e = divmod(low.bit_length() - 1, 1 << n)
        size = e.bit_count()
        if e == 0:
            blind_ok = False
        else:
            irr_bound = min(irr_bound, size)
        if (e >> s) & 1:
            # min(k + 1, n) >= size  iff  min(k, n) >= size - 1, as size <= n
            refl_bound = min(refl_bound, size - 1)
        missing ^= low
    return ((blind_ok,) + tuple(c < irr_bound for c in range(1, n + 1)),
            tuple(c < refl_bound for c in range(n + 1)))


def test_type_table_matches_per_minterm_oracle():
    # every orbit sum, and every orbit sum with one minterm added or
    # removed, for v <= 2; seeded orbit sums +- one minterm and random
    # bits at v = 3
    for v in (0, 1, 2):
        ctx = context(v, 1)
        for keep in range(1 << (2 * ctx.n)):
            base = orbit_union(ctx, keep).bits
            for bits in [base] + [base ^ (1 << i) for i in range(ctx.universe_size)]:
                assert type_table(complete_orbits(Minmatrix(ctx, bits)), ctx.n) == \
                    _type_table_by_minterms(bits, v), (v, bits)
    rng = random.Random(3000)
    ctx = context(3, 1)
    for case in range(3000):
        if case % 10 == 0:
            bits = rng.getrandbits(ctx.universe_size)
        else:
            bits = orbit_union(ctx, rng.getrandbits(2 * ctx.n)).bits
            if case % 10 > 3:
                bits ^= 1 << rng.randrange(ctx.universe_size)
        assert type_table(complete_orbits(Minmatrix(ctx, bits)), ctx.n) == \
            _type_table_by_minterms(bits, 3)


def test_type_table_matches_frame_condition():
    # validity is a conjunction over worlds, so agreement on every world
    # type proves correspondence on frames of any size; k = n + 1 shows
    # that types saturate at min(k, n)
    for v in (1, 2):
        n = 1 << v
        for c in enumerate_cmms(v):
            ok = type_table(c.orbits, n)
            star = map_to_star(c.coord, v)
            for loop in (0, 1):
                for k in range(n + 2):
                    # world 0 sees worlds 1..k, and itself when loop is set
                    fr = Frame((((1 << k) - 1) << 1 | loop,) + (0,) * k)
                    assert ok[loop][min(k, n)] == condition_holds_at(fr, 0, star), \
                        (str(c.coord), loop, k)


def test_structural_caps_agree_with_direct(rng):
    # v = 1, n = 2: a reflexive world seeing n others, and an irreflexive
    # world seeing n + 1 others
    hub = Frame((0b111, 0, 0))
    star = Frame((0b1110, 0, 0, 0))
    formulas = [alpha_for(c.coord, 1) for c in enumerate_cmms(1)]
    formulas += [random_formula(rng, 1, 4) for _ in range(100)]
    for f in formulas:
        for fr in (hub, star):
            assert valid_on_frame(fr, f, 1) == (_falsify(fr, f, 1, 2) is None)


def _brute_force_countermodel(f, max_worlds):
    v = max(variables(f), 1)
    n = 1 << v
    for size in range(1, max_worlds + 1):
        for fr in iter_frames(size):
            for assignment in product(range(n), repeat=size):
                model = Model(fr, v, assignment)
                for w in range(size):
                    if not eval_model(model, w, f):
                        return fr, model, w
    return None


def test_countermodel_matches_brute_force(rng):
    # "+ []!m" terms for distinct valuations m push the smallest
    # countermodel up to worlds that see each of them (3 worlds for 3 terms)
    for _ in range(30):
        v = rng.choice((1, 2))
        f = random_formula(rng, v, rng.randint(2, 4))
        for m in rng.sample(range(1 << v), rng.randint(0, min(3, 1 << v))):
            f = Or(f, Box(Not(context(v, 0).minterm_formula(m))))
        assert find_countermodel(f, 3) == _brute_force_countermodel(f, 3), f


def test_frame_conditions():
    refl_everywhere = SystemCoord("D", 0, STAR)
    assert frame_condition_holds(REFL, refl_everywhere)
    assert not frame_condition_holds(BLIND, refl_everywhere)
    assert not frame_condition_holds(CYCLE, refl_everywhere)

    serial = SystemCoord("D", STAR, STAR)
    assert frame_condition_holds(CYCLE, serial)
    assert not frame_condition_holds(BLIND, serial)

    all_blind = SystemCoord("K", 0, -1)
    assert frame_condition_holds(Frame((0, 0)), all_blind)
    assert not frame_condition_holds(REFL, all_blind)


def test_correspondence_special_cases():
    # T is the reflexive class, D the serial class, Ver the blind class
    rep = correspondence_check(1, SystemCoord("D", 0, STAR), max_worlds=3)
    assert rep.ok and rep.frames_checked == 2 + 16 + 512
    assert correspondence_check(1, SystemCoord("D", STAR, STAR), 3).ok
    assert correspondence_check(1, SystemCoord("K", 0, -1), 3).ok


def test_correspondence_all_coords_v1():
    for c in enumerate_cmms(1):
        assert correspondence_check(1, c.coord, max_worlds=3).ok, str(c.coord)


def test_correspondence_sampled_v2():
    for c in enumerate_cmms(2)[::5]:
        assert correspondence_check(2, c.coord, max_worlds=3).ok, str(c.coord)


def test_correspondence_all_coords_v4():
    cmms = enumerate_cmms(4)
    assert len(cmms) == 304
    for c in cmms:
        assert correspondence_check(4, c.coord, 3).ok, str(c.coord)


def test_correspondence_sampling_is_deterministic():
    a = correspondence_check(1, SystemCoord("D", 0, STAR), 4, sample=40, seed=9)
    b = correspondence_check(1, SystemCoord("D", 0, STAR), 4, sample=40, seed=9)
    assert a == b and a.ok


@pytest.mark.parametrize("max_worlds,sample,err", [
    (7, 3, "max_worlds 7 is over the cap 6"),
    (6, None, "68753097234 frames to check, over the cap 131072"),
    (5, None, "33620498 frames to check, over the cap 131072"),
    (6, 50000, "150530 frames to check, over the cap 131072"),
])
def test_correspondence_refuses_over_the_cap_before_building_tables(
        monkeypatch, max_worlds, sample, err):
    def refuse(*args):
        raise AssertionError("table built for a refused check")
    monkeypatch.setattr(mmw.kripke, "type_table", refuse)
    monkeypatch.setattr(mmw.kripke, "_condition_of_type", refuse)
    with pytest.raises(ValueError) as exc:
        correspondence_check(1, SystemCoord("D", 0, STAR), max_worlds, sample=sample)
    assert str(exc.value) == err


@pytest.mark.parametrize("max_worlds,sample,frames", [
    (4, None, 66066),       # every frame up to 4 worlds
    (4, 48, 114),           # the frames workload's sampled check
    (4, 200, 418),          # the README command
    (6, 40, 178),
])
def test_correspondence_cap_admits(max_worlds, sample, frames):
    rep = correspondence_check(1, SystemCoord("D", 0, STAR), max_worlds, sample=sample)
    assert rep.ok and rep.frames_checked == frames


# A coordinate checked against the star of another: the axiom of
# S_D(0,*) (reflexive frames) fails on serial frames that the condition of
# S_D(*,*) accepts, and the reverse pair fails the other way.
WRONG_STARS = [(SystemCoord("D", 0, STAR), SystemCoord("D", STAR, STAR)),
               (SystemCoord("D", STAR, STAR), SystemCoord("D", 0, STAR))]


def _reference_check(v, coord, star, max_worlds, sample=None, seed=0):
    """``correspondence_check``'s frames and violations, frame by frame.

    Each frame is checked with ``valid_on_frame`` on the coordinate's
    axiom and with ``frame_condition_holds`` on ``star``; the frames come
    in the order ``correspondence_check`` draws them.
    """
    alpha = alpha_for(coord, v)
    rng = random.Random(seed)
    checked = 0
    violations = []
    for size in range(1, max_worlds + 1):
        total = 1 << (size * size)
        if sample is not None and total > sample:
            rels = sorted(rng.sample(range(total), sample))
        else:
            rels = range(total)
        for rel in rels:
            fr = Frame.from_relation(size, rel)
            valid = valid_on_frame(fr, alpha, v)
            holds = frame_condition_holds(fr, star)
            checked += 1
            if valid != holds:
                violations.append({"worlds": size, "relation": rel,
                                   "axiom_valid": valid, "condition_holds": holds})
    return checked, violations


@pytest.mark.parametrize("coord,star", WRONG_STARS, ids=str)
@pytest.mark.parametrize("max_worlds,sample,seed", [(3, None, 0), (4, 150, 11)],
                         ids=["all-3-worlds", "sampled-4-worlds"])
def test_correspondence_violations_match_reference(monkeypatch, coord, star,
                                                   max_worlds, sample, seed):
    monkeypatch.setattr(mmw.lattice, "map_to_star", lambda c, v: star)
    rep = correspondence_check(1, coord, max_worlds, sample=sample, seed=seed)
    checked, violations = _reference_check(1, coord, star, max_worlds, sample, seed)
    assert violations and not rep.ok
    assert rep.frames_checked == checked
    assert list(rep.violations) == violations


def test_frames_cli_reports_violations(monkeypatch, capsys):
    coord, star = WRONG_STARS[0]
    monkeypatch.setattr(mmw.lattice, "map_to_star", lambda c, v: star)
    _, violations = _reference_check(1, coord, star, 3)
    code = main(["frames", "--correspondence", "--v", "1", "--plane", "D",
                 "--x", "0", "--y", "*"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == f"S_D(0,*): 530 frames, {len(violations)} VIOLATIONS\n"
    assert err == f"{len(violations)} correspondence violations\n"


def law_breaks(formulas, max_worlds):
    """(formula, relation rows) where validity and the frame condition differ.

    The law: f is valid on a frame F, by walking every valuation
    (``_falsify``), iff F satisfies the frame condition of the system
    ``system_of(f)`` puts f in.  Every frame up to ``max_worlds`` worlds.
    """
    frames = [fr for size in range(1, max_worlds + 1) for fr in iter_frames(size)]
    breaks = []
    for f in formulas:
        star, v = system_of(f)
        for fr in frames:
            if (_falsify(fr, f, v, 1 << v) is None) != frame_condition_holds(fr, star):
                breaks.append((render(f), fr.rows))
    return breaks


def law_formulas(rng, v, count):
    """``count`` seeded random formulas in v variables.

    Up to three "+ []!m" disjuncts, m a level-0 minterm, move a formula
    off the bottom (F) and top (K) of the lattice into the middle.
    """
    out = []
    for _ in range(count):
        f = random_formula(rng, v, rng.randint(2, 4))
        for m in rng.sample(range(1 << v), rng.randint(0, min(3, 1 << v))):
            f = Or(f, Box(Not(context(v, 0).minterm_formula(m))))
        out.append(f)
    return out


def test_validity_matches_the_frame_condition_of_system_of(rng):
    # the tier-1 slice: a walk costs n**|W| valuations per frame, so v >= 2
    # stays on 2-world frames here; ``pytest -m extended`` checks every v
    # on 3-world frames
    assert law_breaks(law_formulas(rng, 1, 8), 3) == []
    assert law_breaks(law_formulas(rng, 2, 16) + law_formulas(rng, 3, 16), 2) == []
    assert law_breaks([alpha_for(c.coord, 1) for c in enumerate_cmms(1)], 3) == []
    assert law_breaks([alpha_for(c.coord, 2) for c in enumerate_cmms(2)], 2) == []


def test_countermodel_T():
    fr, model, w = find_countermodel(parse("[]p->p"))
    assert fr.rows == (0,) and model.assignment == (0,) and w == 0


def test_countermodel_none_for_theorem():
    assert find_countermodel(parse("p->p")) is None
    assert find_countermodel(parse("[](p->q)->([]p->[]q)"), max_worlds=2) is None


def test_countermodel_search_stops_at_the_frame_cap(monkeypatch):
    # 2 + 16 + 512 frames up to 3 worlds: a cap of 530 scans them all, and
    # the first 4-world frame past it is refused; a witness inside the cap
    # still answers at any bound
    monkeypatch.setattr(mmw.kripke, "FRAME_CAP", 530)
    assert find_countermodel(parse("p->p"), 3) is None
    with pytest.raises(ValueError, match="no countermodel in 530 frames; "
                                         "the 4-world frames go over the cap 530"):
        find_countermodel(parse("p->p"), 4)
    with pytest.raises(ValueError, match="over the cap 530"):
        find_countermodel(parse("[][]p->[][]p"), 40)      # degree 2, a theorem
    assert find_countermodel(parse("[]p->p"), 40) == find_countermodel(parse("[]p->p"), 1)


def test_countermodel_search_stops_at_the_valuation_cap(monkeypatch):
    # a degree-2 theorem (v = 1) walks 2 valuations on each of the 2
    # one-world frames and 4 on each of the 16 two-world ones: a cap of 68
    # walks them all, and the first 3-world frame goes over it, well inside
    # the frame cap; a witness inside the cap still answers at any bound
    hit = find_countermodel(parse("[]p->[][]p"), 3)
    monkeypatch.setattr(mmw.kripke, "FRAME_CAP", 68)
    assert find_countermodel(parse("[][]p->[][]p"), 2) is None
    with pytest.raises(ValueError, match="no countermodel in 68 valuations; "
                                         "the 3-world frames go over the cap 68"):
        find_countermodel(parse("[][]p->[][]p"), 3)
    assert hit is not None and find_countermodel(parse("[]p->[][]p"), 40) == hit


def test_falsify_walks_at_most_limit_valuations():
    # p is false at the one world under valuation 0 and true under 1
    assert _falsify(BLIND, parse("!p"), 1, 2, 1) is None
    assert _falsify(BLIND, parse("!p"), 1, 2, 2) == (Model(BLIND, 1, (1,)), 0)


def test_countermodel_seriality():
    fr, model, w = find_countermodel(parse("<>1"))
    assert fr.rows == (0,)


def test_countermodel_handles_degree_two():
    fr, model, w = find_countermodel(parse("[]p->[][]p"), max_worlds=3)
    assert not eval_model(model, w, parse("[]p->[][]p"))


def test_soundness_bridge(rng):
    # K-theorems (full minmatrix) hold on every frame, by direct recursion
    frames = list(iter_frames(1)) + list(iter_frames(2))
    checked = 0
    while checked < 60:
        f = random_formula(rng, 2, 3)
        if not normalize(f, context(2, 1)).is_theorem_K():
            continue
        checked += 1
        for fr in frames:
            assert _falsify(fr, f, 2, 4) is None


def test_semantic_agreement(rng):
    # equal minmatrices evaluate alike at every world of every small model
    pairs = 0
    seen = {}
    while pairs < 40:
        f = random_formula(rng, 1, 3)
        key = normalize(f, context(1, 1)).bits
        if key in seen and seen[key] != f:
            g = seen[key]
            for rel in range(16):
                fr = Frame.from_relation(2, rel)
                for a0 in range(2):
                    for a1 in range(2):
                        m = Model(fr, 1, (a0, a1))
                        for w in range(2):
                            assert eval_model(m, w, f) == eval_model(m, w, g)
            pairs += 1
        else:
            seen[key] = f


def test_counting_limit():
    # bounds at or above n-1 are expressed by the same axiom
    assert alpha_K(0, 1, 1) == alpha_K(0, STAR, 1)
    assert alpha_K(0, 3, 2) == alpha_K(0, STAR, 2)
    # below that, a star whose reflexive hub sees y+1 others separates the
    # bounds y and y+1: it satisfies the larger bound and breaks the smaller
    hub_one_leaf = Frame((0b11, 0))
    a_y0 = alpha_K(0, 0, 2)
    a_y1 = alpha_K(0, 1, 2)
    assert not valid_on_frame(hub_one_leaf, a_y0, 2)
    assert valid_on_frame(hub_one_leaf, a_y1, 2)
    hub_two_leaves = Frame((0b111, 0, 0))
    a_y2 = alpha_K(0, 2, 2)
    assert not valid_on_frame(hub_two_leaves, a_y1, 2)
    assert valid_on_frame(hub_two_leaves, a_y2, 2)
