"""Modal contexts K[v,d]: the minterm universe and its fixed bit encoding.

Encoding, shared by every module:

* level 0: minterm index ``i`` has bit ``v-1-k`` equal to the state of
  variable ``p_k``, so ``m_{n-1}`` (all variables positive) is the top
  index and the display order (columns descending) is descending index.
* level ``d >= 1``: ``index = s * 2**E + e`` where ``s`` is the index of
  the Boolean prefix (the section), ``E`` is the predecessor universe
  size, and bit ``i`` of ``e`` is the state of the modal factor
  ``<>mu_i`` built from predecessor minterm ``mu_i``.  ``Context.split``
  is the one decoder of such an index into ``(s, e)``.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import combinations
from math import comb

from . import minmatrix
from .formula import And, Const1, Diamond, Formula, Not, Var, render, var_name

__all__ = [
    "Context", "context", "CapExceededError", "DegreeError",
    "enumerate_E", "index_bit_mask", "DEFAULT_CAP",
]

DEFAULT_CAP = 1 << 21


class CapExceededError(ValueError):
    """The requested universe does not fit under the configured cap."""


class DegreeError(ValueError):
    """Operation applied at an unsupported modal degree."""


def universe_cap() -> int:
    raw = os.environ.get("MMW_UNIVERSE_CAP")
    return int(raw) if raw else DEFAULT_CAP


class Context:
    """The context K[v,d]; immutable, hashable on (v, d)."""

    def __init__(self, v: int, d: int, cap: int | None = None):
        if v < 0 or d < 0:
            raise ValueError("v and d must be non-negative")
        cap = universe_cap() if cap is None else cap
        if v >= cap.bit_length():
            raise CapExceededError(
                f"K[{v},{d}] needs at least 2^{v} minterms, over the cap {cap}")
        size = 1 << v
        for _ in range(d):
            exponent = v + size
            if exponent >= cap.bit_length():
                raise CapExceededError(
                    f"K[{v},{d}] needs 2^{exponent} minterms, over the cap {cap}")
            size = 1 << exponent
        if size > cap:
            raise CapExceededError(
                f"K[{v},{d}] needs {size} minterms, over the cap {cap}")
        self.v = v
        self.d = d
        self.n = 1 << v
        self.universe_size = size
        # Number of bits in the non-prefix part of an index.
        self.e_bits = size.bit_length() - 1 - v if d >= 1 else 0
        self.full = (1 << size) - 1
        self._factor_masks: list[int] | None = None
        self._var_masks: list[int] | None = None
        # the prime orbits' masks at d = 1, filled by ``orbit.orbit_masks``
        self._orbit_masks: tuple[int, ...] | None = None

    def __repr__(self) -> str:
        return f"K[{self.v},{self.d}]"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Context) and (self.v, self.d) == (other.v, other.d)

    def __hash__(self) -> int:
        return hash((self.v, self.d))

    def predecessor(self) -> "Context":
        if self.d == 0:
            raise DegreeError("K[v,0] has no predecessor context")
        return context(self.v, self.d - 1)

    # -- bit masks -------------------------------------------------------

    def var_mask(self, k: int) -> int:
        """Mask of minterms in which variable p_k is positive."""
        if not 0 <= k < self.v:
            raise ValueError(f"variable index {k} out of range for v={self.v}")
        if self._var_masks is None:
            self._var_masks = [
                index_bit_mask(self.e_bits + (self.v - 1 - j), self.universe_size)
                for j in range(self.v)
            ]
        return self._var_masks[k]

    def factor_mask(self, i: int) -> int:
        """Mask of minterms whose modal factor <>mu_i is in state 1 (d >= 1)."""
        if self.d == 0:
            raise DegreeError("level 0 contexts have no modal factors")
        if self._factor_masks is None:
            self._factor_masks = [index_bit_mask(j, self.universe_size)
                                  for j in range(self.e_bits)]
        return self._factor_masks[i]

    # -- minterm encoding ------------------------------------------------

    def split(self, index: int) -> tuple[int, int]:
        """(section, e-bits) of ``index``; any d >= 1."""
        if self.d == 0:
            raise DegreeError("level 0 indices have no section part")
        return divmod(index, 1 << self.e_bits)

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.universe_size:
            raise ValueError(f"minterm index {index} out of range for {self!r}")

    # -- display helpers -------------------------------------------------

    def minterm_formula(self, index: int) -> Formula:
        """The minterm as a formula: variables then modal factors, display order."""
        self._check_index(index)
        if self.d == 0:
            return level0_minterm(self.v, index)
        s, e = self.split(index)
        node = level0_minterm(self.v, s) if self.v > 0 else None
        pred = self.predecessor()
        for i in reversed(range(self.e_bits)):
            factor: Formula = Diamond(pred.minterm_formula(i))
            if not (e >> i) & 1:
                factor = Not(factor)
            node = factor if node is None else And(node, factor)
        assert node is not None
        return node

    def factor_labels(self) -> list[str]:
        """Row labels for matrix rendering: variables, then <>mu_i descending."""
        labels = [var_name(k) for k in range(self.v)]
        if self.d >= 1:
            pred = self.predecessor()
            for i in reversed(range(self.e_bits)):
                labels.append("<>" + _maybe_parens(pred.minterm_formula(i)))
        return labels

    def factor_states(self, index: int) -> list[int]:
        """Minterm column in display order, matching factor_labels()."""
        self._check_index(index)
        if self.d == 0:
            return [(index >> (self.v - 1 - k)) & 1 for k in range(self.v)]
        s, e = self.split(index)
        states = [(s >> (self.v - 1 - k)) & 1 for k in range(self.v)]
        states.extend((e >> i) & 1 for i in reversed(range(self.e_bits)))
        return states


def index_bit_mask(bit: int, size: int) -> int:
    """Mask of the indices below ``size`` (a power of two) with bit ``bit`` set.

    One period (``2**bit`` zeros, then as many ones) is repeated by
    doubling, linear in ``size``; dividing by the period's repunit is
    quadratic once the period is wide (K[4,1]'s prefix bits).
    """
    half = 1 << bit
    if half >= size:
        return 0
    mask, width = ((1 << half) - 1) << half, half << 1
    while width < size:
        mask |= mask << width
        width <<= 1
    return mask


def level0_minterm(v: int, index: int) -> Formula:
    if v == 0:
        return Const1()
    node: Formula | None = None
    for k in range(v):
        lit: Formula = Var(k)
        if not (index >> (v - 1 - k)) & 1:
            lit = Not(lit)
        node = lit if node is None else And(node, lit)
    assert node is not None
    return node


def _maybe_parens(f: Formula) -> str:
    # Labels follow the paper's style: <>p, <>!p, <>(pq), <>(p!q), ...
    text = render(f)
    return "(" + text + ")" if isinstance(f, And) else text


@lru_cache(maxsize=None)
def _cached_context(v: int, d: int, cap: int) -> Context:
    return Context(v, d, cap)


def context(v: int, d: int = 1) -> Context:
    """Shared Context instances (mask tables are built once per (v, d))."""
    return _cached_context(v, d, universe_cap())


def enumerate_E(v: int, k: int, sign: str = "all"):
    """E_v(k): level-0 minmatrices with exactly k minterms.

    ``sign`` selects all of E_v(k), the positive part (those containing
    m_{n-1}) or the negative part.  Sizes: C(n,k) and C(n-1,k-1).
    """
    ctx = context(v, 0)
    n = ctx.n
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range 0..{n}")
    if sign not in ("all", "positive", "negative"):
        raise ValueError(f"unknown sign {sign!r}")
    if sign == "positive":
        if k == 0:
            return []
        sets = (rest + (n - 1,) for rest in combinations(range(n - 1), k - 1))
    else:
        sets = combinations(range(n - 1 if sign == "negative" else n), k)
    out = [minmatrix.Minmatrix.from_indices(ctx, idxs) for idxs in sets]
    assert len(out) == (comb(n, k) if sign == "all" else
                        comb(n - 1, k - 1) if sign == "positive" else comb(n - 1, k))
    return out
