import pytest

from conftest import random_formula

from mmw.formula import (And, Box, Const1, Diamond, FormulaSyntaxError,
                         Iff, Implies, Not, Or, Var, modal_degree, parse,
                         render, rename_vars, substitute, variables)

p, q, r = Var(0), Var(1), Var(2)


def test_parse_paper_wff():
    assert parse("p!q+qr->!qr") == Implies(
        Or(And(p, Not(q)), And(q, r)), And(Not(q), r))


def test_parse_box_implication():
    assert parse("[]p->p") == Implies(Box(p), p)


def test_negation_binds_tighter_than_sum():
    assert parse("!p+q") == Or(Not(p), q)


def test_syntax_error_position():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse("p+")
    assert exc.value.position == 2


def test_unknown_token():
    with pytest.raises(FormulaSyntaxError):
        parse("p ? q")


def test_trailing_input_rejected():
    with pytest.raises(FormulaSyntaxError):
        parse("p)q")


def test_variable_aliases():
    assert parse("p0") == p and parse("p1") == q
    assert parse("s") == Var(3)
    assert parse("p7") == Var(7)
    assert parse("p&q") == parse("pq")


def test_arrows_right_associative_same_level():
    assert parse("p->q->r") == Implies(p, Implies(q, r))
    assert parse("p->q<->r") == Implies(p, Iff(q, r))


def test_render_examples():
    assert render(Implies(Box(p), p)) == "[]p->p"
    assert render(Const1()) == "1"
    assert render(Diamond(And(p, Not(q)))) == "<>(p!q)"


def test_render_juxtaposition_guard():
    f = And(p, Const1())
    assert parse(render(f)) == f


def test_modal_degree():
    assert modal_degree(parse("p!q+qr->!qr")) == 0
    assert modal_degree(parse("([]p<-><>([]p))-><>[]p")) == 2
    assert modal_degree(Box(Const1())) == 1


def test_variables_count():
    assert variables(parse("p!q+qr->!qr")) == 3
    assert variables(Const1()) == 0
    assert variables(Var(5)) == 6


def test_rename_vars():
    f = parse("p->q+r")
    assert rename_vars(f, {0: 1, 1: 2, 2: 0}) == parse("q->r+p")
    reps = {0: parse("q+r"), 1: Const1()}
    assert substitute(parse("[]p-><>!q&p"), reps.__getitem__) == parse("[](q+r)-><>!1&(q+r)")


def test_parse_render_round_trip(rng):
    # 2,000 seeded trees of modal depth up to 3 over p0..p11: indices past
    # s render as p4..p11, so a digit after one exercises the p1 / p&1 guard
    for _ in range(2000):
        f = random_formula(rng, rng.randint(1, 12), rng.randint(1, 6),
                           modal_budget=rng.randint(0, 3))
        assert parse(render(f)) == f, f
