import random

import pytest

from mmw import formula as fm
from mmw.context import context
from mmw.lattice import surviving_orbit_sums
from mmw.minmatrix import Minmatrix
from mmw.substitution import Substitution, all_substitutions


def random_formula(rng: random.Random, v: int, depth: int = 4,
                   modal_budget: int = 1) -> fm.Formula:
    """Random AST with at most v variables and modal degree <= modal_budget."""
    if depth <= 0:
        roll = rng.random()
        if roll < 0.1:
            return fm.Const0()
        if roll < 0.2:
            return fm.Const1()
        return fm.Var(rng.randrange(v)) if v else fm.Const1()
    roll = rng.random()
    if roll < 0.25:
        return random_formula(rng, v, 0, modal_budget)
    if roll < 0.40:
        return fm.Not(random_formula(rng, v, depth - 1, modal_budget))
    if roll < 0.55 and modal_budget > 0:
        node = fm.Box if rng.random() < 0.5 else fm.Diamond
        return node(random_formula(rng, v, depth - 1, modal_budget - 1))
    kind = rng.choice((fm.And, fm.Or, fm.Implies, fm.Iff))
    return kind(random_formula(rng, v, depth - 1, modal_budget),
                random_formula(rng, v, depth - 1, modal_budget))


def random_minmatrix(rng: random.Random, v: int, d: int = 1) -> Minmatrix:
    ctx = context(v, d)
    return Minmatrix(ctx, rng.getrandbits(ctx.universe_size))


def random_substitution(rng: random.Random, v: int) -> Substitution:
    n = 1 << v
    return Substitution(v, [rng.randrange(n) for _ in range(n)])


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture(scope="session")
def exhaustive_census():
    """v -> orbit sums that survive collapse under every level-0 substitution.

    The v=2 census closes 256 orbit sums under all 256 substitutions and
    is the slowest computation in the default suite; two tests share it.
    """
    return {v: surviving_orbit_sums(v, all_substitutions(v)) for v in (1, 2)}
