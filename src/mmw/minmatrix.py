"""Minmatrices: normalized formulas as bit vectors over a context's minterms.

``normalize`` evaluates a formula at every minterm of the context at once,
working with whole-universe masks: a minterm fixes the truth of each
variable (through its prefix) and of each modal atom ``<>mu_i`` (through
its epsilon bits), and a subformula ``<>psi`` is true at a minterm exactly
when some factor ``<>mu_i`` in state 1 has ``mu_i`` in the predecessor
normalization of ``psi`` (normality distributes ``<>`` over sums).

Each structurally distinct subterm is evaluated once per level: the formula
is first interned into a table of distinct subterms (children first), and
the table is then evaluated from the lowest level it needs up to the
context, modal nodes reading their child's mask one level down.
"""

from __future__ import annotations

from . import formula as fm
from ._record import Record
from .context import CapExceededError, Context, DegreeError, context

__all__ = ["Minmatrix", "ContextMismatchError", "normalize", "MASK_BITS_CAP"]

# ``normalize`` holds a mask of the context's universe for each distinct
# subterm.  Past this many bits in all (512 MiB) a formula is refused
# before any mask is built.
MASK_BITS_CAP = 1 << 32


class ContextMismatchError(ValueError):
    """Boolean operation applied to minmatrices from different contexts."""


class Minmatrix(Record):
    """A set of minterms of ``ctx``; bit i set means minterm i is present."""

    __slots__ = ("ctx", "bits")

    def __init__(self, ctx: Context, bits: int):
        _set_ctx(self, ctx)
        _set_bits(self, bits)

    # -- construction ------------------------------------------------------

    @staticmethod
    def empty(ctx: Context) -> "Minmatrix":
        return Minmatrix(ctx, 0)

    @staticmethod
    def full(ctx: Context) -> "Minmatrix":
        return Minmatrix(ctx, ctx.full)

    @staticmethod
    def from_indices(ctx: Context, indices) -> "Minmatrix":
        bits = 0
        for i in indices:
            if not 0 <= i < ctx.universe_size:
                raise ValueError(f"minterm index {i} out of range for {ctx!r}")
            bits |= 1 << i
        return Minmatrix(ctx, bits)

    # -- set algebra ---------------------------------------------------------

    def _require_same(self, other: "Minmatrix") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatchError(f"{self.ctx!r} vs {other.ctx!r}")

    def __and__(self, other: "Minmatrix") -> "Minmatrix":
        self._require_same(other)
        return Minmatrix(self.ctx, self.bits & other.bits)

    def __or__(self, other: "Minmatrix") -> "Minmatrix":
        self._require_same(other)
        return Minmatrix(self.ctx, self.bits | other.bits)

    def __invert__(self) -> "Minmatrix":
        return Minmatrix(self.ctx, self.ctx.full ^ self.bits)

    def __le__(self, other: "Minmatrix") -> bool:
        self._require_same(other)
        return self.bits & ~other.bits == 0

    def __bool__(self) -> bool:
        return self.bits != 0

    @property
    def count(self) -> int:
        return self.bits.bit_count()

    def members(self) -> tuple[int, ...]:
        """Ascending minterm indices."""
        digits = bin(self.bits)[:1:-1]      # digits[i] is bit i
        out = []
        i = digits.find("1")
        while i >= 0:
            out.append(i)
            i = digits.find("1", i + 1)
        return tuple(out)

    def is_theorem_K(self) -> bool:
        """Theoremhood in K: the minmatrix contains every minterm."""
        return self.bits == self.ctx.full

    # -- conversions -----------------------------------------------------

    def to_formula(self) -> fm.Formula:
        """Sum of minterm products, descending index order; [0] gives 0."""
        if self.bits == 0:
            return fm.Const0()
        node: fm.Formula | None = None
        for i in reversed(self.members()):
            term = self.ctx.minterm_formula(i)
            node = term if node is None else fm.Or(node, term)
        assert node is not None
        return node

    def to_json(self, include_hex: bool = False) -> dict:
        doc: dict = {"v": self.ctx.v, "d": self.ctx.d,
                     "minterms": list(self.members())}
        if include_hex:
            nbytes = (self.ctx.universe_size + 7) // 8
            doc["hex"] = self.bits.to_bytes(nbytes, "little").hex()
        return doc

    @staticmethod
    def from_json(doc: dict) -> "Minmatrix":
        ctx = context(doc["v"], doc["d"])
        if "hex" in doc:
            bits = int.from_bytes(bytes.fromhex(doc["hex"]), "little")
            if bits >> ctx.universe_size:
                raise ValueError(f"hex mask sets minterm index {bits.bit_length() - 1}, "
                                 f"out of range for {ctx!r}")
            m = Minmatrix(ctx, bits)
            if "minterms" in doc and list(m.members()) != list(doc["minterms"]):
                raise ValueError("hex mask and minterm list disagree")
            return m
        return Minmatrix.from_indices(ctx, doc["minterms"])

    # -- display ---------------------------------------------------------

    def render_matrix(self) -> str:
        """Paper-style 0/1 table: factor rows, minterm columns descending."""
        if self.ctx.d > 1:
            raise DegreeError("matrix rendering supports d <= 1 only")
        if self.bits == 0:
            return "[ ]"
        ctx = self.ctx
        cols = list(reversed(self.members()))
        labels = ctx.factor_labels()
        width = max(len(lbl) for lbl in labels) if labels else 0
        states = [ctx.factor_states(i) for i in cols]
        sections = None
        if ctx.d == 1 and ctx.v > 0:
            sections = [i >> ctx.e_bits for i in cols]
        lines = []
        for row, label in enumerate(labels):
            cells = []
            for c, st in enumerate(states):
                if sections is not None and c > 0 and sections[c] != sections[c - 1]:
                    cells.append(":")
                cells.append(str(st[row]))
            lines.append(f"{label:>{width}} | " + " ".join(cells))
            if ctx.d == 1 and row == ctx.v - 1:
                rule = "-" * width + "-+-" + "-" * (len(" ".join(cells)))
                lines.append(rule)
        return "\n".join(lines)


# The slot setters, bound once: they skip Record.__setattr__, which refuses
# assignment, and the lookup object.__setattr__ does on each call.
_set_ctx = Minmatrix.ctx.__set__
_set_bits = Minmatrix.bits.__set__


# Node kinds of the subterm table: leaves, then unary, then binary nodes.
(_CONST0, _CONST1, _VAR, _NOT, _BOX, _DIAMOND,
 _AND, _OR, _IMPLIES, _IFF) = range(10)
_KIND = {fm.Const0: _CONST0, fm.Const1: _CONST1, fm.Var: _VAR,
         fm.Not: _NOT, fm.Box: _BOX, fm.Diamond: _DIAMOND,
         fm.And: _AND, fm.Or: _OR, fm.Implies: _IMPLIES, fm.Iff: _IFF}


def normalize(f: fm.Formula, ctx: Context) -> Minmatrix:
    """The minmatrix of ``f`` in ``ctx`` (the set of minterms entailing f)."""
    nodes, degree, nvars = _intern(f)
    if degree[-1] > ctx.d:
        raise DegreeError(
            f"formula has degree {degree[-1]}, context is {ctx!r}")
    if nvars > ctx.v:
        raise ValueError(
            f"formula uses {nvars} variables, context is {ctx!r}")
    check_mask_bits(len(nodes), ctx, "distinct subterms")
    # levels[r] is where subterms at modal depth D - r from the root are
    # evaluated (D = the root's degree), so a subterm of degree k is only
    # needed from levels[k] up.
    levels = [ctx]
    for _ in range(degree[-1]):
        levels.append(levels[-1].predecessor())
    levels.reverse()
    below: list[int] = []
    for r, lctx in enumerate(levels):
        full = lctx.full
        pred_full = levels[r - 1].full if r else 0
        bits = [0] * len(nodes)         # Const0 entries keep 0
        for i, (kind, a, b) in enumerate(nodes):
            if degree[i] > r:
                continue
            if kind == _AND:
                bits[i] = bits[a] & bits[b]
            elif kind == _NOT:
                bits[i] = full ^ bits[a]
            elif kind == _OR:
                bits[i] = bits[a] | bits[b]
            elif kind == _VAR:
                bits[i] = lctx.var_mask(a)
            elif kind == _DIAMOND:
                bits[i] = _diamond_mask(lctx, below[a])
            elif kind == _BOX:
                bits[i] = full ^ _diamond_mask(lctx, pred_full ^ below[a])
            elif kind == _IMPLIES:
                bits[i] = (full ^ bits[a]) | bits[b]
            elif kind == _IFF:
                bits[i] = full ^ (bits[a] ^ bits[b])
            elif kind == _CONST1:
                bits[i] = full
        below = bits
    return Minmatrix(ctx, below[-1])


def check_mask_bits(count: int, ctx: Context, what: str) -> None:
    """Refuse ``count`` subterms of ``ctx`` whose masks pass ``MASK_BITS_CAP``."""
    if count * ctx.universe_size > MASK_BITS_CAP:
        raise CapExceededError(
            f"{count} {what} need {count} masks of {ctx.universe_size} bits "
            f"in {ctx!r}, over the cap {MASK_BITS_CAP}")


def _intern(f: fm.Formula) -> tuple[list[tuple[int, int, int]], list[int], int]:
    """The distinct subterms of ``f`` as a table, children before parents.

    Entry ``i`` is ``(kind, a, b)``: ``a`` and ``b`` are the entries of the
    children (0 where absent), or ``a`` is the index of a variable.  Equal
    subterms share one entry, however many objects spell them, so a key
    hashes in O(1).  Also returns each entry's modal degree and the
    formula's variable count (the largest index in the table plus one:
    every entry is a subterm of the root).  The root is the last entry.
    The post-order walk keeps its own stacks, so depth is not limited by
    the interpreter's recursion limit.
    """
    ids: dict[tuple[int, int, int], int] = {}
    seen: dict[int, int] = {}       # id(object) -> entry: shared objects
    nodes: list[tuple[int, int, int]] = []
    stack: list = [f]       # None: the node below it has its children done
    done: list[int] = []    # entries of finished children, in walk order
    while stack:
        g = stack.pop()
        if g is None:
            g = stack.pop()
            kind = _KIND[type(g)]
            b = done.pop() if kind >= _AND else 0
            key = (kind, done.pop(), b)
        else:
            i = seen.get(id(g))
            if i is not None:
                done.append(i)
                continue
            kind = _KIND.get(type(g))
            if kind is None:
                raise TypeError(f"unknown formula node {g!r}")
            if kind >= _AND:
                stack += (g, None, g.right, g.left)
                continue
            if kind >= _NOT:
                stack += (g, None, g.child)
                continue
            key = (kind, g.index if kind == _VAR else 0, 0)
        i = ids.get(key)
        if i is None:
            i = ids[key] = len(nodes)
            nodes.append(key)
        seen[id(g)] = i
        done.append(i)
    degree: list[int] = []
    nvars = 0
    for kind, a, b in nodes:
        if kind >= _AND:
            degree.append(max(degree[a], degree[b]))
        elif kind >= _NOT:
            degree.append(degree[a] + (kind != _NOT))
        else:
            degree.append(0)
            if kind == _VAR and a >= nvars:
                nvars = a + 1
    return nodes, degree, nvars


def _diamond_mask(ctx: Context, pred_bits: int) -> int:
    """Minterms where some factor <>mu_i with mu_i in pred_bits is positive."""
    mask = 0
    bits = pred_bits
    while bits:
        low = bits & -bits
        mask |= ctx.factor_mask(low.bit_length() - 1)
        bits ^= low
    return mask
