"""Defining axioms for lattice coordinates and the named-system registry.

``alpha_K(x, y, v)`` is the generic axiom: the top Boolean minterm
implies the sum of the positive-section minterms allowed by the
coordinate (count up to x with the self factor negative, up to y+1 with
it positive).  Every other section is left unconstrained, so the extra
minterms are trimmed away by the invertible substitutions and the
formula collapses exactly to the coordinate's CMM.  ``alpha_D`` adds the
seriality conjunct ``<>1``, which removes the orbit Vv0.

The registry stores the known axiomatizations verbatim (as strings over
the compact syntax), each tagged with the context it was stated in and
the base system it extends; none of them is minimal or synthesized here.
"""

from __future__ import annotations

from math import comb

from . import formula as fm
from ._record import Record
from .context import context, enumerate_E, level0_minterm
from .lattice import (STAR, SystemCoord, cmm_from_coords, cmm_of, collapse,
                      map_to_star)
from .minmatrix import Minmatrix, check_mask_bits, normalize

__all__ = [
    "alpha_K", "alpha_D", "alpha_prime_K", "alpha_for", "system_of",
    "NamedSystem", "AxiomVariant", "named_systems", "registry_lookup",
    "expand_cyclic", "variant_collapse", "BASE_COORDS",
]


def _or_chain(terms: list[fm.Formula]) -> fm.Formula:
    if not terms:
        return fm.Const0()
    node = terms[0]
    for t in terms[1:]:
        node = fm.Or(node, t)
    return node


def alpha_K(x: int | str, y: int | str, v: int) -> fm.Formula:
    """The K-plane coordinate axiom over the positive section."""
    ctx = context(v, 1)
    n = ctx.n
    rx, ry = SystemCoord("K", x, y).resolve(n)
    # each term's product and its link in the "+" chain are distinct
    # subterms: refuse what normalize would refuse, before building them
    count = (sum(comb(n - 1, k) for k in range(rx + 1)) +
             sum(comb(n - 1, k) for k in range(ry + 1)))
    check_mask_bits(2 * count, ctx, "alpha subterms")
    top = n - 1
    terms = []
    for e in range((1 << n) - 1, -1, -1):
        chi = e.bit_count()
        self_state = (e >> top) & 1
        if (self_state == 0 and chi <= rx) or (self_state == 1 and chi <= ry + 1):
            terms.append(ctx.minterm_formula((top << ctx.e_bits) | e))
    return fm.Implies(level0_minterm(v, top), _or_chain(terms))


def alpha_D(x: int | str, y: int | str, v: int) -> fm.Formula:
    """The D-plane axiom: seriality conjoined with the K-plane axiom."""
    return fm.And(fm.Diamond(fm.Const1()), alpha_K(x, y, v))


def alpha_prime_K(x: int | str, y: int | str, v: int) -> fm.Formula:
    """The positive-subformula variant built from sums of boxed formulas."""
    ctx = context(v, 1)
    n = ctx.n
    rx, ry = SystemCoord("K", x, y).resolve(n)
    check_mask_bits(sum(comb(n - 1, k) for k in (rx, ry) if k >= 0), ctx,
                    "alpha-prime boxes")
    top_formula = level0_minterm(v, n - 1)

    def box_sum(k: int) -> fm.Formula:
        if k <= 0:
            return fm.Const0()
        return _or_chain([fm.Box(e.to_formula())
                          for e in enumerate_E(v, k, "positive")])

    body = fm.Or(
        fm.And(fm.Not(fm.Diamond(top_formula)), box_sum(rx + 1)),
        fm.And(fm.Diamond(top_formula), box_sum(ry + 1)),
    )
    return fm.Implies(top_formula, body)


def alpha_for(coord: SystemCoord, v: int, variant: str = "alpha") -> fm.Formula:
    if variant == "alpha":
        if coord.plane == "K":
            return alpha_K(coord.x, coord.y, v)
        return alpha_D(coord.x, coord.y, v)
    if variant == "alpha-prime":
        if coord.plane != "K":
            raise ValueError("alpha-prime is defined for the K plane")
        return alpha_prime_K(coord.x, coord.y, v)
    raise ValueError(f"unknown axiom variant {variant!r}")


def system_of(f: fm.Formula) -> tuple[SystemCoord, int]:
    """Decide the system of a degree <= 1 formula.

    Returns the position in the assembled lattice (star coordinates) and
    the origin context's variable count (at least 1).
    """
    if fm.modal_degree(f) > 1:
        raise ValueError("system decision requires modal degree <= 1")
    v = max(fm.variables(f), 1)
    return map_to_star(cmm_of(normalize(f, context(v, 1))).coord, v), v


# -- cyclic-sum and cyclic-product macros (registry syntax only) -----------

_ROTATIONS = ({0: 0, 1: 1, 2: 2}, {0: 1, 1: 2, 2: 0}, {0: 2, 1: 0, 2: 1})


def expand_cyclic(text: str) -> str:
    """Expand ``$+( ... )`` and ``$*( ... )`` over the rotations of p,q,r."""
    while True:
        pos = text.find("$")
        if pos < 0:
            return text
        if text[pos + 1:pos + 3] not in ("+(", "*("):
            raise ValueError(f"malformed cyclic macro at offset {pos}")
        kind = text[pos + 1]
        depth, end = 0, pos + 2
        for end in range(pos + 2, len(text)):
            if text[end] == "(":
                depth += 1
            elif text[end] == ")":
                depth -= 1
                if depth == 0:
                    break
        if depth != 0:
            raise ValueError("unbalanced parentheses in cyclic macro")
        inner = text[pos + 3:end]
        if "$" in inner:
            raise ValueError("nested cyclic macros are not supported")
        base = fm.parse(inner)
        pieces = ["(" + fm.render(fm.rename_vars(base, rot)) + ")"
                  for rot in _ROTATIONS]
        joiner = "+" if kind == "+" else ""
        text = text[:pos] + "(" + joiner.join(pieces) + ")" + text[end + 1:]


# -- the named-system registry ---------------------------------------------


class AxiomVariant(Record):
    """One published axiomatization: base system plus an added axiom."""

    __slots__ = ("v",       # the context the variant was stated in
                 "base",    # "K", "D" or "T"
                 "text")    # compact syntax; may use $+ / $* cyclic macros


class ErratumVariant(Record):
    """A published axiom string that does not land on its system.

    ``lands_at`` is the context coordinate its collapse actually reaches
    (frozen from computation); ``corrected`` is a minimal emendation that
    does land on the stated coordinate, where one was found.
    """

    __slots__ = ("v", "base", "text", "lands_at", "corrected")
    _defaults = (None,)


class NamedSystem(Record):
    __slots__ = ("name", "coord", "origin_v", "variants", "errata")
    _defaults = ((),)


BASE_COORDS = {
    "K": SystemCoord("K", STAR, STAR),
    "D": SystemCoord("D", STAR, STAR),
    "T": SystemCoord("D", 0, STAR),
}


def variant_collapse(var: AxiomVariant) -> Minmatrix:
    """CMM of the base system extended by the variant's axiom."""
    ctx = context(var.v, 1)
    m = normalize(fm.parse(expand_cyclic(var.text)), ctx)
    base = cmm_from_coords(BASE_COORDS[var.base], var.v).matrix
    return collapse(base & m)


# (plane, x, y) use the star convention; x counts Dc orbits and y counts
# Dw orbits.  The published tables put K_u/U at S(0,1) and KW1/DW1 also at
# S(0,1); under the x-counts-Dc reading used everywhere else K_u/U sit at
# (1,0), which is what the registry records.
_SYSTEMS: list[tuple[str, str, int | str, int | str, int]] = [
    ("K",      "K", STAR, STAR, 0),
    ("D",      "D", STAR, STAR, 0),
    ("Ver",    "K", 0,    -1,   0),
    ("F",      "D", 0,    -1,   0),
    ("K_t",    "K", 0,    STAR, 1),
    ("T",      "D", 0,    STAR, 1),
    ("K_u",    "K", 1,    0,    1),
    ("U",      "D", 1,    0,    1),
    ("K_triv", "K", 0,    0,    1),
    ("Triv",   "D", 0,    0,    1),
    ("KW9",    "K", 2,    STAR, 2),
    ("DW9",    "D", 2,    STAR, 2),
    ("KW8",    "K", 1,    STAR, 2),
    ("DW8",    "D", 1,    STAR, 2),
    ("KW7",    "K", 3,    2,    2),
    ("DW7",    "D", 3,    2,    2),
    ("KW6",    "K", 2,    2,    2),
    ("DW6",    "D", 2,    2,    2),
    ("KW5",    "K", 2,    1,    2),
    ("DW5",    "D", 2,    1,    2),
    ("KW4",    "K", 1,    2,    2),
    ("DW4",    "D", 1,    2,    2),
    ("KW3",    "K", 1,    1,    2),
    ("DW3",    "D", 1,    1,    2),
    ("KW2",    "K", 0,    2,    2),
    ("DW2",    "D", 0,    2,    2),
    ("KW1",    "K", 0,    1,    2),
    ("DW1",    "D", 0,    1,    2),
    ("KWZ9",   "K", 6,    STAR, 3),
    ("KWZ8",   "K", 5,    STAR, 3),
    ("KWZ7",   "K", 4,    STAR, 3),
    ("KWZ6",   "K", 3,    STAR, 3),
    ("KWZ5",   "K", 7,    6,    3),
    ("KWZ4",   "K", 6,    6,    3),
    ("KWZ3",   "K", 6,    5,    3),
    ("KWZ2",   "K", 5,    6,    3),
    ("KWZ1",   "K", 5,    5,    3),
    ("KWZ0",   "K", 4,    6,    3),
    ("KWY9",   "K", 4,    5,    3),
    ("KWY8",   "K", 3,    6,    3),
    ("KWY7",   "K", 3,    5,    3),
    ("KWY6",   "K", 2,    6,    3),
    ("KWY5",   "K", 2,    5,    3),
    ("KWY4",   "K", 1,    6,    3),
    ("KWY3",   "K", 1,    5,    3),
    ("KWY2",   "K", 0,    6,    3),
    ("KWY1",   "K", 0,    5,    3),
    ("KWY0",   "K", 5,    4,    3),
    ("KWX9",   "K", 4,    4,    3),
    ("KWX8",   "K", 4,    3,    3),
    ("KWX7",   "K", 3,    4,    3),
    ("KWX6",   "K", 3,    3,    3),
    ("KWX5",   "K", 2,    4,    3),
    ("KWX4",   "K", 2,    3,    3),
    ("KWX3",   "K", 1,    4,    3),
    ("KWX2",   "K", 1,    3,    3),
    ("KWX1",   "K", 0,    4,    3),
    ("KWX0",   "K", 0,    3,    3),
]

# Published axiomatizations, keyed by system name; entries are
# (context v, base, axiom text).
_VARIANTS: dict[str, list[tuple[int, str, str]]] = {
    "K": [(0, "K", "1")],
    "D": [(0, "K", "<>1"),
          (1, "K", "<>1"), (1, "K", "[]p-><>p"),
          (2, "K", "<>1"), (2, "K", "[](pq)-><>(pq)")],
    "Ver": [(0, "K", "!<>1"), (1, "K", "!<>1"), (2, "K", "!<>1")],
    "F": [(0, "K", "0"), (1, "K", "0"), (2, "K", "0")],
    "K_t": [(1, "K", "p-><>p+[]p"), (2, "K", "pq-><>(pq)+[](pq)")],
    "T": [(1, "K", "p-><>p"), (1, "K", "[]p->p"), (2, "K", "[](pq)->pq")],
    "K_u": [(1, "K", "<>p->[]p"), (2, "K", "<>p->[]p")],
    "U": [(1, "K", "<>p<->[]p"), (2, "D", "<>p<->[]p")],
    "K_triv": [(1, "K", "<>p->p"), (1, "K", "p->[]p"), (2, "K", "p->[]p")],
    "Triv": [(1, "K", "<>p<->p"), (1, "K", "p<->[]p"), (2, "D", "p<->[]p")],
    "KW9": [(2, "K", "pq<>p<>q-><>(pq)+[](p+q)"),
            (2, "K", "pq-><>(pq)+[](p->q)+[](q->p)+[](p+q)")],
    "DW9": [(2, "D", "pq<>p<>q-><>(pq)+[](p+q)")],
    "KW8": [(2, "K", "pq<>p<>q-><>(pq)"),
            (2, "K", "p<>q-><>p+[]q"),
            (2, "K", "pq<>p<>(p->q)-><>q"),
            (2, "K", "pq<>q-><>(pq)+[](p+q)"),
            (2, "K", "pq<>(p->q)<>(q->p)-><>(p<->q)"),
            (2, "K", "pq-><>(pq)+[](p->q)+[](q->p)")],
    "DW8": [(2, "D", "pq<>p<>q-><>(pq)"),
            (2, "K", "pq-><>(pq)+(<>p<->[]p)"),
            (2, "K", "pq([]p<->[]q)-><>(p<->q)")],
    "KW7": [(2, "K", "<>(pq)->[](p->q)+[](q->p)+[](p+q)")],
    "DW7": [(2, "D", "<>(pq)->[](p->q)+[](q->p)+[](p+q)")],
    "KW6": [(2, "K", "pq->[](p->q)+[](q->p)+[](p+q)")],
    "DW6": [(2, "D", "pq->[](p->q)+[](q->p)+[](p+q)")],
    "KW5": [(2, "K", "<>p<>q-><>(pq)+[](p+q)"),
            (2, "K", "<>(pq)->[](p->q)+[](q->p)"),
            (2, "K", "<>(pq)([]p->[]q)->[](p->q)"),
            (2, "K", "<>(pq)[](p+q)-><>p[]q+<>q[]p"),
            (2, "K", "[](p->q)+[](q->p)+[](p+q)")],
    "DW5": [(2, "D", "<>p<>q-><>(pq)+[](p+q)")],
    "KW4": [(2, "K", "pq->[](p->q)+[](q->p)+<>(pq)[](p+q)"),
            (2, "K", "pq<>p-><>q([](q->p)+[](p->q))+[](p+q)")],
    "DW4": [(2, "D", "pq->[](p->q)+[](q->p)+<>(pq)[](p+q)")],
    "KW3": [(2, "K", "pq->[](p->q)+[](q->p)"),
            (2, "K", "pq->[](p<->q)+[](p+q)"),
            (2, "K", "pq[](p+q)->[]p+[]q"),
            (2, "K", "pq([]p->[]q)->[](p->q)"),
            (2, "K", "p<>q-><>(pq)+[](p+q)"),
            (2, "K", "p+q+[](p->q)+[](q->p)")],
    "DW3": [(2, "D", "pq->[](p->q)+[](q->p)"),
            (2, "K", "pq[](p+q)-><>p[]p+<>q[]q"),
            (2, "K", "pq-><>(p->q)[](p->q)+<>(q->p)[](q->p)")],
    "KW2": [(2, "K", "pq-><>(pq)([](p->q)+[](q->p))+[](p+q)"),
            (2, "K", "pq-><>p[](p->q)+<>q[](q->p)+[](p+q)")],
    "DW2": [(2, "D", "pq-><>(pq)([](p->q)+[](q->p))+[](p+q)"),
            (2, "T", "pq->[](p->q)+[](q->p)+[](p+q)"),
            (2, "K", "pq-><>(pq)([](p->q)+[](q->p)+[](p+q))")],
    "KW1": [(2, "K", "pq-><>(pq)[](p<->q)+[](p+q)"),
            (2, "K", "pq->[](p<->q)+<>p<>q[](p+q)")],
    "DW1": [(2, "D", "pq-><>(pq)[](p<->q)+[](p+q)"),
            (2, "T", "pq->[](p->q)+[](q->p)"),
            (2, "K", "pq-><>p[](p->q)+<>q[](q->p)")],
    "KWZ9": [(3, "K", "pqr-><>(pqr)+$+([](p->q+r)+[](qr->p))+[](p+q+r)")],
    "KWZ8": [(3, "K", "pqr-><>(pqr)+$+([](p->q+r)+[](qr->p))"),
             (3, "K", "pqr-><>(pqr)+$+([](p+(q<->r))+[](qr->p))+[](p+q+r)")],
    "KWZ7": [(3, "K", "pqr-><>(pqr)+$+([](p+(q<->r))+[](qr->p))")],
    "KWZ6": [(3, "K", "pqr-><>(pqr)+$+([](p->q))+[](p+q+r)")],
    "KWZ5": [(3, "K", "<>(pqr)->$+([](p->q+r)+[](qr->p))+[](p+q+r)")],
    "KWZ4": [(3, "K", "pqr->$+([](p->q+r)+[](qr->p))+[](p+q+r)")],
    "KWZ3": [(3, "K", "<>(pqr)->$+([](p->q+r)+[](qr->p))"),
             (3, "K", "$+([](p->q+r)+[](qr->p))+[](p+q+r)")],
    "KWZ2": [(3, "K", "pqr-><>(pqr)[](p+q+r)+$+([](p->q+r)+[](qr->p))")],
    "KWZ1": [(3, "K", "pqr->$+([](p->q+r)+[](qr->p))"),
             (3, "K", "pqr->$+([](p+(q<->r))+[](qr->p))+[](p+q+r)")],
    "KWZ0": [],
    "KWY9": [(3, "K", "pqr-><>(pqr)[](p+q+r)+$+([](p+(q<->r))+[](qr->p))")],
    "KWY8": [(3, "K", "pqr-><>(pqr)$+([](p->q+r))+$+([](qr->p))+[](p+q+r)"),
             (3, "K", "pqr-><>(pqr)$+([](qr->p))+$+([](p->q+r))+[](p+q+r)")],
    "KWY7": [(3, "K", "pqr-><>(pqr)$+([](p->q+r))+$+([](qr->p)+[](q+r))")],
    "KWY6": [(3, "K", "pqr-><>(pqr)$+([](p->q+r)+[](qr->p))"
                      "+$+([](p<->q))+[](p+q+r)")],
    "KWY5": [(3, "K", "pqr-><>(pqr)$+([](p->q+r))+$+([](qr->p))"),
             (3, "K", "pqr-><>(pqr)$+([](qr->p))+$+([](p->q+r))")],
    "KWY4": [(3, "K", "$*(p<>p)-><>(pqr)($+([](p->q+r)+[](qr->p))+[](p+q+r))"),
             (3, "K", "pqr-><>(pqr)($+([](p->q+r)+[](qr->p))+[](p+q+r))"
                      "+$+([](p<->q))")],
    "KWY3": [(3, "K", "$*(p<>p)-><>(pqr)$+([](p->q+r)+[](qr->p))"),
             (3, "K", "pqr-><>(pqr)$+([](p->q+r)+[](qr->p))+$+([](p<->q))")],
    "KWY2": [(3, "K", "pqr-><>(pqr)$+([](p->q+r)+[](qr->p))+[](p+q+r)"),
             (3, "K", "pqr->$+(<>p([](p->q+r)+[](qr->p)))+[](p+q+r)")],
    "KWY1": [(3, "K", "pqr-><>(pqr)$+([](p->q+r)+[](qr->p))+[](pqr)"),
             (3, "K", "pqr->$+(<>p([](p->q+r)+[](qr->p)))+[](pqr)")],
    "KWY0": [(3, "K", "$+([](p->q+r)+[](qr->p))"),
             (3, "K", "$+([](p+(q<->r))+[](qr->p))+[](p+q+r)")],
    "KWX9": [(3, "K", "pqr->$+([](p+(q<->r))+[](p->(q<->r)))+[](p+q+r)")],
    "KWX8": [(3, "K", "<>(pqr)->$+([](p->q))+[](p+q+r)"),
             (3, "K", "<>(pqr)->$+([](p->q+r))+[](p+q+r)"),
             (3, "K", "<>(pqr)->$+([](qr->p))+[](p+q+r)"),
             (3, "K", "<>(pqr)->$+([](qr->p)+[](q+r))"),
             (3, "K", "<>(pqr)->$+([](p->q+r)+[](q+r->p))+[](p+q+r)"),
             (3, "K", "$+([](p->q+r)+[](p->(q<->r)))")],
    "KWX7": [(3, "K", "pqr-><>(pqr)$+([](p->q+r))"
                      "+$+([](pq<->pr)+[](p+(q<->r)))"),
             (3, "K", "pqr->(<>(pqr)+[](p+q+r))$+([](p->q+r))"
                      "+$+([](pq<->pr)+[](p->q))")],
    "KWX6": [],
    "KWX5": [(3, "K", "pqr-><>(pqr)$+([](p->q+r))+$+([](pq<->pr)+[]p)")],
    "KWX4": [(3, "K", "pqr-><>(pqr)[](p+q+r)+$+([](p->q))"),
             (3, "K", "pqr-><>(pqr)$+([](p->q))+$+([](p<->q))+[](p+q+r)"),
             (3, "K", "$*(p<>p)-><>(pqr)$+([](p->q))+[](p+q+r)")],
    "KWX3": [(3, "K", "pqr-><>(pqr)$+([](qr->p))+$+([](p+(q<->r)))"),
             (3, "K", "pqr-><>(pqr)$+([](p->q+r))+$+([](pq<->pr))")],
    "KWX2": [(3, "K", "pqr-><>(pqr)($+([](p->q))+[](p+q+r))+$+([](p<->q))"),
             (3, "K", "$*(p<>p)-><>(pqr)($+([](p->q))+[](p+q+r))")],
    "KWX1": [(3, "K", "pqr-><>(pqr)$+([](qr->p)+[](p+(q<->r)))+[](pqr)"),
             (3, "K", "pqr-><>(pqr)$+([](p->q+r)+[](p->(q<->r)))+[](pqr)"),
             (3, "K", "$+((<>p[]p->p)([](p->q+r)+[](qr->p)))")],
    "KWX0": [(3, "K", "pqr-><>(pqr)$+([](q->r))+[](p+q+r)"),
             (3, "K", "pqr->$+(<>p[](q->r))+[](p+q+r)"),
             (3, "K", "pqr->$+(<>p[](qr->p))+[](p+q+r)"),
             (3, "K", "pqr->$+(<>p[](p->q+r))+[](p+q+r)")],
}


# Published axiom strings that verifiably do not axiomatize the system
# they are listed under: collapsing them lands on ``lands_at`` instead.
# Where a minimal emendation reaches the stated coordinate it is recorded
# as ``corrected`` (the three KWX6 entries and KWZ0/KWY6 recover it by
# restoring a dropped guard, grouping or swapped subformula).
_ERRATA: dict[str, list[ErratumVariant]] = {
    "DW8": [ErratumVariant(2, "K", "pq[](p<->q)->(<>p<-><>q)", ("K", 3, 3))],
    "KWZ0": [ErratumVariant(
        3, "K",
        "pqr-><>(pqr)($+([](qr->p))+[](p+q+r))+$+([](p+(q<->r))+[](qr->p))",
        ("K", 4, 5),
        "pqr-><>(pqr)($+([](p->q+r))+[](p+q+r))+$+([](p+(q<->r))+[](qr->p))")],
    "KWY6": [ErratumVariant(
        3, "K",
        "$*(p<>p)-><>(pqr)$+([](qr->p))+$+([](p->q+r))+[](p+q+r)",
        ("K", 3, 6),
        "$*(p<>p)-><>(pqr)($+([](qr->p))+$+([](p->q+r)))+[](p+q+r)")],
    "KWY1": [ErratumVariant(
        3, "K", "<>(pqr)->$+(<>p([](p->q+r)+[](qr->p)))", ("K", 6, 5))],
    "KWY0": [ErratumVariant(
        3, "K", "<>(pqr)->$+([](p->q+r)+[](p+(q<->r)))", ("K", 3, 2))],
    "KWX9": [ErratumVariant(
        3, "K", "pqr->$+([](p->q+r)+[](p+(q<->r)))", ("K", 2, 2))],
    "KWX6": [
        ErratumVariant(3, "K", "$+([](p->q))+[](p+q+r)", ("K", 3, 2),
                       "pqr->$+([](p->q))+[](p+q+r)"),
        ErratumVariant(3, "K", "$+([](p->q+r))+[](p+q+r)", ("K", 3, 2),
                       "pqr->$+([](p->q+r))+[](p+q+r)"),
        ErratumVariant(3, "K", "$+([](qr->p))+[](p+q+r)", ("K", 3, 2),
                       "pqr->$+([](qr->p))+[](p+q+r)"),
    ],
}


def named_systems(v: int) -> list[NamedSystem]:
    """Registry entries known at context v, with their published variants."""
    if not 0 <= v <= 3:
        raise ValueError("registry covers contexts up to v = 3")
    out = []
    for name, plane, x, y, origin in _SYSTEMS:
        if origin > v:
            continue
        variants = tuple(AxiomVariant(lv, base, text)
                         for lv, base, text in _VARIANTS.get(name, ())
                         if lv <= v)
        errata = tuple(e for e in _ERRATA.get(name, ()) if e.v <= v)
        out.append(NamedSystem(name, SystemCoord(plane, x, y), origin,
                               variants, errata))
    return out


# Star coordinate -> registry entry; built from the reversed registry so
# that, where two entries share a coordinate, the first one wins.
_BY_COORD = {sys.coord: sys for sys in reversed(named_systems(3))}


def registry_lookup(coord: SystemCoord) -> NamedSystem | None:
    """Find the named system at an assembled-lattice (star) coordinate."""
    return _BY_COORD.get(coord)
