"""Level-0 uniform substitutions, their action, primes, and classification.

A substitution is stored as its level-0 map: the self-map ``g`` of
``[0, n)``, ``n = 2**v``, sending each level-0 minterm (as an assignment)
to its image assignment.  There are ``n**n`` substitutions in all.  The
paper's view, ``v`` truth tables with ``tables[k]`` bit ``i`` the truth
of ``p_k`` after substitution at ``m_i``, is derived from ``g`` for
output (``Substitution.tables``) and read back by ``from_tables``.

Applying a substitution is read off its source map ``phi_s``.  At level
1 a minterm ``t = (j, e)`` (section ``j``, factor states ``e``) lies in
the image of exactly one minterm::

    phi_s(t) = (g(j), OR{1 << g(i) : e_i = 1})

The prefix ``m_u`` becomes the sum of the sections in ``g^{-1}(u)``, and
the factor ``<>m_i`` becomes ``<>(sum of m_j, j in g^{-1}(i))``, which
holds at ``t`` exactly when some positive factor ``<>m_j`` of ``t`` has
``g(j) = i`` (an empty preimage gives ``<>0``, false everywhere).  So the
image of a minterm is its fibre under ``phi_s``, images of distinct
minterms are disjoint, and the image of a minmatrix ``m`` is
``phi_s^{-1}(m)``.  ``phi_s`` depends on ``e`` only through a table of
``2**n`` entries, so one pass over the sections gives the image of a
minmatrix (``apply_minmatrix``).  Level 0 is the same rule with no
factors: ``e`` is always 0, the table has one entry, and ``phi_s = g``.
The prime orbit of a source depends only on how many fibres of ``g`` the
factor states ``e`` meet and whether they meet the section's own, so the
coverage key is counted from the fibre sizes of ``g``
(``orbit.source_orbits``).  Nothing is cached per substitution.
"""

from __future__ import annotations

from itertools import permutations, product
from math import factorial

from ._record import Record
from .context import Context, DegreeError, context
from .minmatrix import Minmatrix
from .orbit import source_orbits

__all__ = [
    "Substitution", "apply_minmatrix", "enumerate_primes",
    "critical_substitution", "all_substitutions",
    "DependencyClass", "classify",
]


class Substitution(Record):
    """A level-0 substitution as its map ``g`` of the level-0 minterms."""

    __slots__ = ("v", "g")

    def __init__(self, v: int, g):
        g = tuple(g)
        n = 1 << v
        if len(g) != n:
            raise ValueError("need one image per level-0 minterm")
        if min(g) < 0 or max(g) >= n:
            raise ValueError("image out of range")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "g", g)

    @staticmethod
    def from_tables(v: int, tables) -> "Substitution":
        """The substitution with sigma_k given by its truth table ``tables[k]``."""
        if len(tables) != v:
            raise ValueError("need one truth table per variable")
        limit = 1 << (1 << v)
        for t in tables:
            if not 0 <= t < limit:
                raise ValueError("table out of range")
        return Substitution(v, [sum((t >> i & 1) << (v - 1 - k)
                                    for k, t in enumerate(tables))
                                for i in range(1 << v)])

    @property
    def n(self) -> int:
        return 1 << self.v

    @property
    def tables(self) -> tuple[int, ...]:
        """Truth table of sigma_k: bit i is p_k in the image of m_i."""
        v = self.v
        return tuple(sum((j >> (v - 1 - k) & 1) << i for i, j in enumerate(self.g))
                     for k in range(v))


def _source_map(ctx: Context, s: Substitution) -> tuple[tuple[int, ...], list[int]]:
    """(g, img): phi_s sends a minterm (j, e) to (g[j], img[e]).

    ``img[e]`` sets bit ``g(i)`` for every factor ``i`` positive in ``e``.
    Level 0 is the case with no factors: ``e`` is always 0 and
    ``img = [0]``.
    """
    if s.v != ctx.v:
        raise ValueError("substitution arity does not match the context")
    if ctx.d > 1:
        raise DegreeError("substitution application supports d <= 1")
    img = [0]
    if ctx.d:
        for gi in s.g:
            # the e-values with the next factor <>m_i positive: each one
            # without it, plus <>m_g(i)
            img += [x | (1 << gi) for x in img]
    return s.g, img


def apply_minmatrix(m: Minmatrix, s: Substitution) -> Minmatrix:
    """The minterms whose source under ``s`` lies in ``m``: phi_s^-1(m)."""
    ctx = m.ctx
    g, img = _source_map(ctx, s)
    shift, block = ctx.e_bits, (1 << len(img)) - 1
    bits = 0
    rows: dict[int, int] = {}     # section i -> the e with (i, img[e]) in m
    for j, i in enumerate(g):
        if i not in rows:
            row = (m.bits >> (i << shift)) & block
            rows[i] = sum(1 << e for e, x in enumerate(img) if (row >> x) & 1)
        bits |= rows[i] << (j << shift)
    return Minmatrix(ctx, bits)


def enumerate_primes(v: int) -> tuple[Substitution, ...]:
    """The (2**v)! invertible substitutions, in ``permutations`` order of g."""
    if v > 3:
        raise ValueError("prime enumeration supports v <= 3")
    n = 1 << v
    out = tuple([Substitution(v, pi) for pi in permutations(range(n))])
    assert len(out) == factorial(n)
    return out


def critical_substitution(v: int) -> Substitution:
    """A strongest-dependencies substitution: m_{n-1} maps to m_{n-2}.

    The induced self-map of level-0 minterms is the identity except that
    the top minterm goes to its neighbour, i.e. the variable that
    separates m_{n-1} from m_{n-2} acquires the factor !m_{n-1}.  For
    v = 1 this is p -> 0.
    """
    if v < 1:
        raise ValueError("critical substitution needs v >= 1")
    n = 1 << v
    g = list(range(n))
    g[n - 1] = n - 2
    return Substitution(v, g)


def all_substitutions(v: int):
    """Every level-0 substitution (n**n of them); v <= 2 only."""
    if v > 2:
        raise ValueError("exhaustive substitution enumeration supports v <= 2")
    n = 1 << v
    return [Substitution(v, g) for g in product(range(n), repeat=n)]


# -- classification -------------------------------------------------------


class DependencyClass(Record):
    """Substitutions sharing one orbit-coverage pattern."""

    __slots__ = ("key", "size", "representative")

    @property
    def key_digest(self) -> str:
        import hashlib   # loaded only by callers that classify
        return hashlib.sha256(repr(self.key).encode()).hexdigest()[:16]


def coverage_key(s: Substitution) -> tuple:
    """The {none, partial, full} coverage matrix of s over the prime orbits.

    Entry (i, q) is 0 when the image of orbit i misses orbit q, 2 when
    every minterm of q has its source in orbit i, and 1 otherwise.
    """
    sources = source_orbits(s.g)
    return tuple(tuple(0 if not src >> i & 1 else 2 if src == 1 << i else 1
                       for src in sources)
                 for i in range(len(sources)))


def _partition_count(lam: tuple[int, ...], n: int) -> int:
    """Number of self-maps of [0,n) whose fiber sizes are ``lam``."""
    k = len(lam)
    ways_blocks = factorial(n)
    for part in lam:
        ways_blocks //= factorial(part)
    mult: dict[int, int] = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    for m in mult.values():
        ways_blocks //= factorial(m)
    ways_values = factorial(n) // factorial(n - k)
    return ways_blocks * ways_values


def _partitions(total: int, largest: int | None = None):
    if total == 0:
        yield ()
        return
    if largest is None:
        largest = total
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def classify(v: int, mode: str = "reduced") -> list[DependencyClass]:
    """Partition all of S(v,0) by coverage key; report class sizes.

    ``reduced`` keys one representative per fiber partition: the key is
    counted from the fiber sizes of the level-0 map
    (``orbit.source_orbits``), so maps with the same sizes share it, and
    class sizes come from counting the self-maps with each fiber
    profile.  ``exhaustive`` keys every substitution (v <= 2) and is its
    oracle.  Both modes agree where both run, representatives included.
    """
    if mode == "exhaustive":
        if v > 2:
            raise ValueError("exhaustive classification supports v <= 2 "
                             "(use mode='reduced' for v = 3)")
        groups: dict[tuple, list[Substitution]] = {}
        for s in all_substitutions(v):
            groups.setdefault(coverage_key(s), []).append(s)
        classes = [DependencyClass(key, len(subs), subs[0])
                   for key, subs in groups.items()]
    elif mode == "reduced":
        n = context(v, 1).n         # the cap check, before any 1 << v
        classes = []
        seen: dict[tuple, tuple[int, ...]] = {}
        for lam in _partitions(n):
            g = []
            for value, part in enumerate(lam):
                g.extend([value] * part)
            rep = Substitution(v, g)
            key = coverage_key(rep)
            if key in seen:
                raise AssertionError(
                    f"fiber partitions {seen[key]} and {lam} share a coverage key")
            seen[key] = lam
            classes.append(DependencyClass(key, _partition_count(lam, n), rep))
        assert sum(c.size for c in classes) == n ** n
    else:
        raise ValueError(f"unknown mode {mode!r}")
    classes.sort(key=lambda c: (c.size, c.key_digest))
    return classes
