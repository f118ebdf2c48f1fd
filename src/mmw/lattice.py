"""CMM collapse, the coordinate grid of K[[v,1]] and the assembled lattice.

A candidate minmatrix collapses under a substitution when intersecting
with its image strictly shrinks it; a CMM is immune to every level-0
substitution.  The default set is the primes, which trim a candidate to
its complete prime orbits, plus one critical substitution, which
enforces the dependency rules between orbits (DR1-DR3); all n**n
substitutions (v <= 2) are the validating oracle.  The default set's
fixpoints are the unions of coordinate orbit sets, which are closed
under union (the paper's lattice result; the census
``surviving_orbit_sums`` derives it again from the critical
substitution), so the default collapse of a candidate keeps the largest
coordinate set inside it and applies no substitution.

A CMM is a coordinate plus its 2n-bit orbit set (``mmw.orbit``); the
census, Hasse edges, join and meet are arithmetic on orbit sets.
``cmm_of`` is the one step from a minmatrix to its CMM; it, join and meet
raise ``InternalConsistencyError`` on an orbit set that is no coordinate's.
"""

from __future__ import annotations

from functools import lru_cache

from . import substitution
from ._record import Record
from .context import Context, context
from .minmatrix import Minmatrix
from .orbit import (complete_orbits, coord_orbits, labels_of, orbit_masks,
                    orbit_union, source_orbits)

__all__ = [
    "STAR", "SystemCoord", "CMM", "InternalConsistencyError", "collapse",
    "cmm_of", "cmm_from_coords", "coord_of", "enumerate_cmms", "build_hasse",
    "HasseDiagram", "map_to_star", "surviving_orbit_sums",
]

STAR = "*"


class InternalConsistencyError(RuntimeError):
    """A result that the theory rules out; indicates a bug, not bad input."""


class SystemCoord(Record):
    """Lattice position (plane, x, y); x counts Dc orbits, y counts Dw."""

    __slots__ = ("plane", "x", "y")

    def __init__(self, plane: str, x: int | str, y: int | str):
        if plane not in ("K", "D"):
            raise ValueError(f"plane must be K or D, not {plane!r}")
        for c in (x, y):
            if not (c == STAR or isinstance(c, int)):
                raise ValueError(f"coordinate {c!r} must be an integer or '*'")
        super().__init__(plane, x, y)

    def resolve(self, n: int) -> tuple[int, int]:
        """Concrete (x, y) in a context with n sections; validates ranges."""
        x = n - 1 if self.x == STAR else self.x
        y = n - 1 if self.y == STAR else self.y
        if not 0 <= x <= n - 1:
            raise ValueError(f"x={self.x!r} out of range for n={n}")
        if not -1 <= y <= n - 1:
            raise ValueError(f"y={self.y!r} out of range for n={n}")
        if x > y + 1:
            raise ValueError(f"invalid coordinate ({self.x!r},{self.y!r}): x > y+1")
        return x, y

    def __str__(self) -> str:
        return f"S_{self.plane}({self.x},{self.y})"


class CMM(Record):
    """A characteristic minmatrix of ``ctx``: coordinate and 2n-bit orbit set."""

    __slots__ = ("ctx", "coord", "orbits")

    @property
    def matrix(self) -> Minmatrix:
        """The union of the orbits, built on each read: 2**(v + 2**v) bits."""
        return orbit_union(self.ctx, self.orbits)


def collapse(m: Minmatrix, subs=None) -> Minmatrix:
    """Greatest fixpoint of xi -> xi & (xi o sigma) over the substitutions.

    The map only shrinks xi and keeps each fixpoint below xi, so the rounds
    end at the greatest fixpoint below ``m``.  With ``subs=None`` that is
    the largest coordinate set of orbits inside ``m`` (``_kept_orbits``),
    and ``m`` itself is returned when it keeps every minterm.
    """
    if subs is None:
        if m.ctx.d == 0:
            # One orbit: anything short of [1] collapses to [0].
            return m if m.is_theorem_K() else Minmatrix.empty(m.ctx)
        kept = _kept_orbits(m)[1]
        return m if kept == m.bits else Minmatrix(m.ctx, kept)
    bits = m
    while True:
        prev = bits
        for s in subs:
            if not bits:
                return bits
            bits = bits & substitution.apply_minmatrix(bits, s)
        if bits == prev:
            return bits


def _kept_orbits(m: Minmatrix) -> tuple[int, int]:
    """The orbit set and the bits of the largest coordinate set inside ``m`` (d = 1).

    S_plane(x, y) grows with x and y and from D to K, so y + 1 is the run
    Dd0, Dw1, Dw2, ... (odd positions) of orbits wholly inside m, x the run
    Dc1, Dc2, ... (even positions) inside m, Dc_k only while Dw_{k-1} (Dd0
    for k = 1) is kept, and the plane is K iff Vv0 lies inside m.  A run
    stops at its first orbit left out, so at most three more masks are
    read than kept.
    """
    masks = orbit_masks(m.ctx)
    bits, size = m.bits, len(masks)
    keep = kept = 0
    j = 1                               # Dd0, then Dw_k at 2k + 1
    while j < size and bits & (mask := masks[j]) == mask:
        keep |= 1 << j
        kept |= mask
        j += 2
    stop, j = min(j, size), 2           # Dc_k at 2k, below the first of those left out
    while j < stop and bits & (mask := masks[j]) == mask:
        keep |= 1 << j
        kept |= mask
        j += 2
    if bits & (mask := masks[0]) == mask:       # Vv0
        keep |= 1
        kept |= mask
    return keep, kept


def _covers(keep: int, j: int, patterns: tuple[int, int, int, int]) -> int:
    """Whether the critical images of the orbits in ``keep`` cover orbit j.

    Only orbits j-2 and j-1 of ``keep`` are read: their pattern indexes
    ``patterns`` (``_cover_patterns``), so orbit j is decided as soon as
    the orbits below it are.
    """
    return patterns[keep << 2 >> j & 3] >> j & 1


@lru_cache(maxsize=None)
def _cover_patterns(v: int) -> tuple[int, int, int, int]:
    """Four masks over the 2n prime orbits of K[v,1], one per pattern.

    The critical image of orbit i meets only orbits i, i+1 and i+2, so
    whether a kept orbit j lies inside the image of the kept orbits
    depends only on which of orbits j-2 and j-1 are kept.  Bit j of
    ``patterns[p]`` says the critical sources of orbit j (``source_orbits``)
    lie in orbit j, in j-2 if ``p & 1`` and in j-1 if ``p & 2``.  A larger
    pattern covers at least as much, so the masks are nested.  At v = 0
    there is no critical substitution and every orbit is covered.
    """
    if v == 0:
        return 0b11, 0b11, 0b11, 0b11
    patterns = [0, 0, 0, 0]
    for j, sources in enumerate(source_orbits(substitution.critical_substitution(v).g)):
        bit, before2, before1 = 1 << j, 1 << j >> 2, 1 << j >> 1
        if sources & ~(bit | before2 | before1):
            raise InternalConsistencyError(
                f"orbit {j} meets the critical image of an orbit outside {j - 2}..{j}")
        for p in range(4):
            cover = bit | (before2 if p & 1 else 0) | (before1 if p & 2 else 0)
            if not sources & ~cover:
                patterns[p] |= bit
    return tuple(patterns)


def cmm_from_coords(coord: SystemCoord, v: int) -> CMM:
    """The CMM at a coordinate: Vv0 on the K plane, Dd0 plus the staircase."""
    ctx = context(v, 1)
    return CMM(ctx, coord, coord_orbits(coord.plane, *coord.resolve(ctx.n)))


def coord_of(keep: int, n: int) -> SystemCoord | None:
    """The coordinate of K[v,1] (n = 2**v) whose orbit set is ``keep``, or None.

    There is one exactly when the orbits pass DR1-DR3: the plane is K iff
    Vv0 is in ``keep``, x counts its Dc orbits, y its Dd0 and Dw orbits
    less one, and ``coord_orbits`` must rebuild the same set.
    """
    plane = "K" if keep & coord_orbits("K", 0, -1) else "D"
    x = (keep & coord_orbits("D", n - 1, -1)).bit_count()
    y = (keep & coord_orbits("D", 0, n - 1)).bit_count() - 1
    if x > y + 1 or coord_orbits(plane, x, y) != keep:
        return None
    return SystemCoord(plane, x, y)


def cmm_of(m: Minmatrix, subs=None) -> CMM:
    """The CMM that ``m`` collapses to under ``subs`` (the default set if None)."""
    if subs is None:
        return _cmm(m.ctx, _kept_orbits(m)[0])
    return _cmm(m.ctx, complete_orbits(collapse(m, subs)))


def _cmm(ctx: Context, keep: int) -> CMM:
    """The CMM of ``ctx`` with orbit set ``keep``, which must be a coordinate set."""
    coord = coord_of(keep, ctx.n)
    if coord is None:
        raise InternalConsistencyError(
            f"orbit set [{'+'.join(labels_of(keep, ctx.n))}] is not a coordinate CMM")
    return CMM(ctx, coord, keep)


def enumerate_cmms(v: int) -> list[CMM]:
    """All n(n+3) coordinate CMMs, K plane first, bottom (F/Ver side) up."""
    n = context(v, 1).n
    out = []
    for plane in ("K", "D"):
        for y in range(-1, n):
            for x in range(0, min(y + 1, n - 1) + 1):
                out.append(cmm_from_coords(SystemCoord(plane, x, y), v))
    return out


def surviving_orbit_sums(v: int) -> list[int]:
    """Orbit sets whose union is a fixpoint of the default ``collapse``.

    The census behind the lattice: of the 2**(2n) candidate orbit sums,
    exactly the orbit sets of the coordinate CMMs survive.  Sets come by
    size, then in ``itertools.combinations`` order of their positions.

    An orbit sum is a fixpoint iff each of its orbits is covered for the
    pattern of its two predecessors (``_covers``, read off the critical
    substitution, so it checks the default ``collapse``, which applies
    none), and a depth-first walk in label order decides orbit j as soon
    as it is added and reaches only survivors.
    """
    found = []
    size = 2 * context(v, 0).n          # builds no K[v,1], so runs past its cap
    patterns = _cover_patterns(v)
    stack = [(0, 0)]                    # (next orbit to decide, kept so far)
    while stack:
        j, keep = stack.pop()
        if j == size:
            found.append(keep)
            continue
        stack.append((j + 1, keep))
        if _covers(keep, j, patterns):
            stack.append((j + 1, keep | 1 << j))
    found.sort(key=lambda keep: (keep.bit_count(),
                                 [k for k in range(size) if keep >> k & 1]))
    return found


def map_to_star(coord: SystemCoord, v: int) -> SystemCoord:
    """Embed a context coordinate into the assembled lattice Ksys[[*,1]]."""
    n = context(v, 1).n
    x, y = coord.resolve(n)
    if y == n - 1:
        if x == n - 1:
            return SystemCoord(coord.plane, STAR, STAR)
        return SystemCoord(coord.plane, x, STAR)
    return SystemCoord(coord.plane, x, y)


class HasseDiagram(Record):
    __slots__ = ("nodes", "edges")

    def join(self, a: SystemCoord, b: SystemCoord) -> CMM:
        """Lattice join: the CMM whose matrix is the union (Theorem 1a)."""
        ctx = self.nodes[0].ctx
        return _cmm(ctx, cmm_from_coords(a, ctx.v).orbits
                    | cmm_from_coords(b, ctx.v).orbits)

    def meet(self, a: SystemCoord, b: SystemCoord) -> CMM:
        """Lattice meet: the CMM whose matrix is the intersection.

        A union of orbits is a collapse fixpoint exactly when its orbit set
        is a coordinate set, so ``_cmm`` checks it does not collapse.
        """
        ctx = self.nodes[0].ctx
        return _cmm(ctx, cmm_from_coords(a, ctx.v).orbits
                    & cmm_from_coords(b, ctx.v).orbits)


def build_hasse(v: int) -> HasseDiagram:
    """Nodes are the coordinate CMMs; an edge adds one orbit, named by its label."""
    nodes = enumerate_cmms(v)
    edges = []
    for a in nodes:
        for b in nodes:
            step = a.orbits ^ b.orbits
            if step & b.orbits and step & (step - 1) == 0:
                edges.append((a.coord, b.coord, labels_of(step, a.ctx.n)[0]))
    return HasseDiagram(tuple(nodes), tuple(edges))
