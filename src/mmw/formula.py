"""Unimodal propositional formulas: AST, parser and printer.

The surface syntax is the compact Boolean style: juxtaposition (or ``&``)
for conjunction, ``+`` for disjunction, ``!`` for negation, ``[]``/``<>``
for the modalities, ``->``/``<->`` for the arrows, and ``0``/``1`` for the
constants.  Binding strength, tightest first: ``[] <> !``, conjunction,
``+``, then ``-> <->`` (right associative, same level).

Variables ``p q r s`` name indices 0..3; ``p0, p1, ...`` are accepted for
any index.
"""

from __future__ import annotations

from ._record import Record

__all__ = [
    "Formula", "Const0", "Const1", "Var", "Not", "And", "Or", "Implies",
    "Iff", "Box", "Diamond", "FormulaSyntaxError", "parse", "render",
    "modal_degree", "variables", "substitute", "rename_vars",
]

VAR_LETTERS = "pqrs"


class Formula(Record):
    """Base class; concrete nodes are the subclasses below."""

    __slots__ = ()
    __init__ = object.__init__      # the constants have no fields to store


class Const0(Formula):
    __slots__ = ()


class Const1(Formula):
    __slots__ = ()


class Var(Formula):
    __slots__ = ("index",)

    def __init__(self, index: int):
        object.__setattr__(self, "index", index)


class Not(Formula):
    __slots__ = ("child",)

    def __init__(self, child: Formula):
        object.__setattr__(self, "child", child)


class And(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Or(Formula):
    __slots__ = ("left", "right")
    __init__ = And.__init__


class Implies(Formula):
    __slots__ = ("left", "right")
    __init__ = And.__init__


class Iff(Formula):
    __slots__ = ("left", "right")
    __init__ = And.__init__


class Box(Formula):
    __slots__ = ("child",)
    __init__ = Not.__init__


class Diamond(Formula):
    __slots__ = ("child",)
    __init__ = Not.__init__


def modal_degree(f: Formula) -> int:
    """Largest number of nested modal operators in ``f``."""
    if isinstance(f, (Const0, Const1, Var)):
        return 0
    if isinstance(f, (Box, Diamond)):
        return 1 + modal_degree(f.child)
    if isinstance(f, Not):
        return modal_degree(f.child)
    return max(modal_degree(f.left), modal_degree(f.right))


def variables(f: Formula) -> int:
    """Number of variables, i.e. the largest index used plus one."""
    if isinstance(f, Var):
        return f.index + 1
    if isinstance(f, (Const0, Const1)):
        return 0
    if isinstance(f, (Not, Box, Diamond)):
        return variables(f.child)
    return max(variables(f.left), variables(f.right))


def substitute(f: Formula, replace) -> Formula:
    """Replace each variable p_k by the formula ``replace(k)``."""
    if isinstance(f, Var):
        return replace(f.index)
    if isinstance(f, (Const0, Const1)):
        return f
    if isinstance(f, (Not, Box, Diamond)):
        return type(f)(substitute(f.child, replace))
    return type(f)(substitute(f.left, replace), substitute(f.right, replace))


def rename_vars(f: Formula, mapping: dict[int, int]) -> Formula:
    """Replace each variable index by ``mapping[index]`` (identity if absent)."""
    return substitute(f, lambda k: Var(mapping.get(k, k)))


class FormulaSyntaxError(ValueError):
    """Malformed or unrecognized input; ``position`` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


_TOKEN_STARTS = frozenset("01pqrs!&+(-<[")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> FormulaSyntaxError:
        return FormulaSyntaxError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self, literal: str) -> bool:
        self.skip_ws()
        return self.text.startswith(literal, self.pos)

    def eat(self, literal: str) -> bool:
        if self.peek(literal):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.eat(literal):
            raise self.error(f"expected {literal!r}")

    def at_atom_start(self) -> bool:
        # Anything that may begin a unary-prefixed atom, i.e. a conjunct.
        self.skip_ws()
        if self.pos >= len(self.text):
            return False
        c = self.text[self.pos]
        if c in "!([" or c in "01" or c in VAR_LETTERS:
            return True
        # '<' begins '<>' but also '<->'; only '<>' starts an atom.
        return self.text.startswith("<>", self.pos)

    def parse_formula(self) -> Formula:
        left = self.parse_sum()
        if self.eat("->"):
            return Implies(left, self.parse_formula())
        if self.eat("<->"):
            return Iff(left, self.parse_formula())
        return left

    def parse_sum(self) -> Formula:
        node = self.parse_product()
        while self.eat("+"):
            node = Or(node, self.parse_product())
        return node

    def parse_product(self) -> Formula:
        node = self.parse_unary()
        while self.eat("&") or self.at_atom_start():
            node = And(node, self.parse_unary())
        return node

    def parse_unary(self) -> Formula:
        if self.eat("!"):
            return Not(self.parse_unary())
        if self.eat("[]"):
            return Box(self.parse_unary())
        if self.eat("<>"):
            return Diamond(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        self.skip_ws()
        if self.pos >= len(self.text):
            raise self.error("unexpected end of input")
        c = self.text[self.pos]
        if c == "(":
            self.pos += 1
            node = self.parse_formula()
            self.expect(")")
            return node
        if c == "0":
            self.pos += 1
            return Const0()
        if c == "1":
            self.pos += 1
            return Const1()
        if c == "p" and self.pos + 1 < len(self.text) and self.text[self.pos + 1].isdigit():
            start = self.pos + 1
            end = start
            while end < len(self.text) and self.text[end].isdigit():
                end += 1
            self.pos = end
            return Var(int(self.text[start:end]))
        if c in VAR_LETTERS:
            self.pos += 1
            return Var(VAR_LETTERS.index(c))
        if c in _TOKEN_STARTS:
            raise self.error(f"unexpected token {c!r}")
        raise self.error(f"unknown token {c!r}")


def parse(text: str) -> Formula:
    """Parse ``text`` into a Formula; raise FormulaSyntaxError on bad input."""
    p = _Parser(text)
    node = p.parse_formula()
    p.skip_ws()
    if p.pos != len(p.text):
        raise p.error(f"unexpected trailing input {p.text[p.pos]!r}")
    return node


# Precedence levels used by the printer; higher binds tighter.
_ARROW, _SUM, _PROD, _UNARY, _ATOM = range(5)


def _level(f: Formula) -> int:
    if isinstance(f, (Const0, Const1, Var)):
        return _ATOM
    if isinstance(f, (Not, Box, Diamond)):
        return _UNARY
    if isinstance(f, And):
        return _PROD
    if isinstance(f, Or):
        return _SUM
    return _ARROW


def var_name(index: int) -> str:
    return VAR_LETTERS[index] if index < len(VAR_LETTERS) else f"p{index}"


def _render(f: Formula, context: int) -> str:
    if isinstance(f, Const0):
        return "0"
    if isinstance(f, Const1):
        return "1"
    if isinstance(f, Var):
        return var_name(f.index)
    if isinstance(f, Not):
        return "!" + _render(f.child, _UNARY)
    if isinstance(f, Box):
        return "[]" + _render(f.child, _UNARY)
    if isinstance(f, Diamond):
        return "<>" + _render(f.child, _UNARY)
    if isinstance(f, And):
        left = _render(f.left, _PROD)
        right = _render(f.right, _PROD + 1)
        # "p" followed by "1" would lex as the variable p1; force explicit &.
        sep = "&" if right[0].isdigit() and (left[-1] == "p" or left[-1].isdigit()) else ""
        body = left + sep + right
    elif isinstance(f, Or):
        body = _render(f.left, _SUM) + "+" + _render(f.right, _SUM + 1)
    elif isinstance(f, Implies):
        body = _render(f.left, _SUM) + "->" + _render(f.right, _ARROW)
    else:  # Iff
        body = _render(f.left, _SUM) + "<->" + _render(f.right, _ARROW)
    if _level(f) < context:
        return "(" + body + ")"
    return body


def render(f: Formula) -> str:
    """Compact text form; ``parse(render(f))`` reproduces ``f`` exactly."""
    return _render(f, _ARROW)
