import pytest
from hypothesis import given, settings, strategies as st

from mmw.formula import (And, Box, Const0, Const1, Diamond, FormulaSyntaxError,
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


def formula_strategy(v=3):
    leaves = st.one_of(
        st.just(Const0()), st.just(Const1()),
        st.integers(min_value=0, max_value=v - 1).map(Var))
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            inner.map(Not), inner.map(Box), inner.map(Diamond),
            st.tuples(inner, inner).map(lambda ab: And(*ab)),
            st.tuples(inner, inner).map(lambda ab: Or(*ab)),
            st.tuples(inner, inner).map(lambda ab: Implies(*ab)),
            st.tuples(inner, inner).map(lambda ab: Iff(*ab))),
        max_leaves=25)


@settings(max_examples=300)
@given(formula_strategy())
def test_parse_render_round_trip(f):
    assert parse(render(f)) == f
