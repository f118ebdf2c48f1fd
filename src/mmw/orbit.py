"""Prime orbits of minterms under the invertible substitution group.

At d = 1 the orbits are fully determined by a two-part signature of each
minterm: the state of the modal factor matching its own section, and the
count of positive modal factors.  ``compute_orbits`` closes each seed
minterm under two generators of S_n, the transposition (0 1) and the
n-cycle, acting on the section and the modal factors alike (orbits are
the connected components of that action), while ``orbit_closed_form``
builds the same orbits straight from the signatures, one minterm at a
time; the two must agree.  The masks every other module reads
(``orbit_masks``, ``orbit_map``) are the orbits' images under the
identity (``images_under``), and the two constructions above are their
oracles; which orbits a substitution's images meet is counted from its
fibre sizes (``source_orbits``).  An orbit set is a 2n-bit int, bit k
for position k of ``label_order``: ``complete_orbits`` reads it off a
minmatrix, ``orbit_union`` turns it into one, ``coord_orbits`` gives a
coordinate's set and ``labels_of`` its labels.  ``lattice`` reads the
positions too: ``_kept_orbits`` walks Vv0 at 0, Dd0 and Dw_k at the odd
positions and Dc_k at the even ones, and ``_covers`` reads orbits j-2 and
j-1.  The runs pass reads the masks in position order so that it stops
at the first orbit a run leaves out; reading every mask through
``complete_orbits`` first made census ops 35% slower.
"""

from __future__ import annotations

from itertools import accumulate

from ._record import Record
from .context import Context, DegreeError, index_bit_mask
from .minmatrix import Minmatrix

__all__ = [
    "PrimeOrbit", "orbit_of", "label_order", "compute_orbits",
    "orbit_closed_form", "orbit_masks", "orbit_map", "orbit_position",
    "display_label", "complete_orbits", "orbit_union", "images_under",
    "source_orbits", "coord_orbits", "labels_of",
]


class PrimeOrbit(Record):
    __slots__ = ("label", "matrix")

    @property
    def size(self) -> int:
        return self.matrix.count


def label_order(n: int) -> list[str]:
    """Canonical order: Vv0, Dd0, then Dc_k/Dw_k interleaved by k."""
    labels = ["Vv0", "Dd0"]
    for k in range(1, n):
        labels.append(f"Dc{k}")
        labels.append(f"Dw{k}")
    return labels


def display_label(label: str, v: int) -> str:
    """Context-specific name: V/Vv/Vvv/Vvvv by context, Dc1 at v=2 as Dcc1.

    The k index is dropped when the context has a single k (v = 1), as in
    the K[1,1] names Dc and Dw.
    """
    name = label[0] + label[1] * v
    if label in ("Vv0", "Dd0"):
        return name
    return name + (label[2:] if (1 << v) > 2 else "")


def orbit_of(ctx: Context, index: int) -> str:
    """Orbit label of a minterm, by its (self-state, count) signature."""
    if ctx.d != 1:
        raise DegreeError("prime-orbit signatures require d = 1")
    s, e = ctx.split(index)
    return label_order(ctx.n)[orbit_position(s, e)]


def orbit_position(section: int, e: int) -> int:
    """Index in ``label_order`` of the orbit of the d = 1 minterm (section, e).

    With k positive factors: Vv0 (k = 0) and Dc_k sit at 2k when the own
    factor is off; Dd0 (k = 1) and Dw_{k-1} at 2k - 1 when it is on.
    """
    return 2 * e.bit_count() - ((e >> section) & 1)


def orbit_closed_form(ctx: Context) -> list[PrimeOrbit]:
    """Orbits built directly from the signature rule, no substitutions."""
    if ctx.d != 1:
        raise DegreeError("prime orbits are computed for d = 1 contexts")
    buckets: dict[str, int] = {}
    for idx in range(ctx.universe_size):
        label = orbit_of(ctx, idx)
        buckets[label] = buckets.get(label, 0) | (1 << idx)
    return [PrimeOrbit(lbl, Minmatrix(ctx, buckets[lbl]))
            for lbl in label_order(ctx.n) if lbl in buckets]


def compute_orbits(ctx: Context) -> list[PrimeOrbit]:
    """Closure of each unassigned seed minterm under two generators of S_n."""
    if ctx.d == 0:
        # The primes permute the level-0 minterms transitively.
        return [PrimeOrbit("B0", Minmatrix.full(ctx))]
    if ctx.d != 1:
        raise DegreeError("prime orbits are computed for d <= 1 contexts")
    if ctx.v > 3:
        raise ValueError("prime orbits are computed for v <= 3")
    n = ctx.n
    # the n-cycle i -> i+1 and the transposition (0 1) generate S_n
    gens = [tuple((i + 1) % n for i in range(n))]
    if n > 1:
        gens.append((1, 0) + tuple(range(2, n)))
    seen = bytearray(ctx.universe_size)
    orbits = []
    for seed in range(ctx.universe_size):
        if seen[seed]:
            continue
        seen[seed] = 1
        bits, stack = 1 << seed, [seed]
        while stack:
            s, e = ctx.split(stack.pop())
            for pi in gens:
                # pi sends the section s to pi(s) and <>m_i to <>m_pi(i)
                nxt = pi[s] << ctx.e_bits
                for i in range(n):
                    if (e >> i) & 1:
                        nxt |= 1 << pi[i]
                if not seen[nxt]:
                    seen[nxt] = 1
                    bits |= 1 << nxt
                    stack.append(nxt)
        orbits.append(PrimeOrbit(orbit_of(ctx, seed), Minmatrix(ctx, bits)))
    order = {lbl: pos for pos, lbl in enumerate(label_order(n))}
    orbits.sort(key=lambda o: order[o.label])
    return orbits


def images_under(ctx: Context, g) -> list[int]:
    """Masks of the images of the 2n prime orbits under the level-0 map ``g``.

    ``g`` is the self-map of the level-0 minterms a substitution induces.
    A minterm (j, e) lies in the image of the orbit of its source: orbit
    ``2c - 1`` if ``e`` meets ``c`` of the fibres g^-1(t), one of them
    g^-1(g[j]), and orbit ``2c`` if it meets ``c`` fibres but not that
    one (``orbit_position``).  So each section's slice of an image is one
    "meets c fibres" class of e-values, split by the section's own fibre:
    O(n**2) big-int operations in place of a loop over the 2**n e-values.
    Under the identity the classes count positive factors and the images
    are the orbits themselves.
    """
    if ctx.d != 1:
        raise DegreeError("prime orbits are computed for d = 1 contexts")
    n = ctx.n
    block = (1 << (1 << n)) - 1
    # hit[t]: the e-values with some factor of the fibre g^-1(t) positive
    hit = [0] * n
    for i, t in enumerate(g):
        hit[t] |= index_bit_mask(i, 1 << n)
    # classes[c]: the e-values meeting exactly c fibres, built one fibre
    # at a time (an e-value missing it, or meeting it)
    classes = [block]
    for h in hit:
        classes = [lo & ~h | hi & h for lo, hi in zip(classes + [0], [0] + classes)]
    images = [0] * (2 * n)
    for j, t in enumerate(g):
        h, shift = hit[t], j << n
        for c, cls in enumerate(classes):
            if c:
                images[2 * c - 1] |= (cls & h) << shift
            if c < n:
                images[2 * c] |= (cls & ~h) << shift
    return images


def source_orbits(g) -> list[int]:
    """Per orbit q, the orbit set holding the sources of q's minterms under ``g``.

    ``g`` is a substitution's level-0 map; bit i of entry q is set iff the
    image of orbit i meets orbit q (``images_under``).  Counted from the
    fibre sizes: a minterm (j, e) of orbit q has |e| = k and self bit r;
    besides j it can take a of the other members of j's fibre and meet c
    other fibres exactly when c <= k - r - a <= (the sum of the c largest
    other fibres).  Its source then meets c + m fibres, m = [r + a > 0]
    of them its own section's, and lies in orbit 2(c + m) - m.
    """
    n = len(g)
    sizes = sorted((g.count(t) for t in set(g)), reverse=True)
    rel = [0] * (2 * n)
    for f in set(sizes):
        others = list(sizes)
        others.remove(f)
        most = list(accumulate(others, initial=0))   # most[c]: in the c largest
        for q in range(2 * n):
            k, r = (q + 1) // 2, q & 1
            for a in range(min(f - 1, k - r) + 1):
                rest, m = k - r - a, int(r + a > 0)
                for c, reach in enumerate(most[:rest + 1]):
                    if rest <= reach:
                        rel[q] |= 1 << (2 * (c + m) - m)
    return rel


def orbit_masks(ctx: Context) -> tuple[int, ...]:
    """Bit masks of the 2n prime orbits in label order, held on the context."""
    masks = ctx._orbit_masks
    if masks is None:
        masks = ctx._orbit_masks = tuple(images_under(ctx, range(ctx.n)))
    return masks


def orbit_map(ctx: Context) -> dict[str, Minmatrix]:
    return {lbl: Minmatrix(ctx, bits)
            for lbl, bits in zip(label_order(ctx.n), orbit_masks(ctx))}


def coord_orbits(plane: str, x: int, y: int) -> int:
    """The orbit set of the coordinate S_plane(x, y), x and y resolved.

    Vv0 on the K plane, Dd0 and Dw_1..Dw_y when y >= 0 (none at y = -1),
    and Dc_1..Dc_x.  It does not check x <= y + 1.
    """
    # (4**k - 1) // 3 sets bits 0, 2, .., 2k - 2: every other orbit
    dd_dw = ((1 << 2 * (y + 1)) - 1) // 3       # Dd0 at 1, Dw_k at 2k + 1
    dc = ((1 << 2 * x) - 1) // 3                # Dc_k at 2k
    return (plane == "K") | dd_dw << 1 | dc << 2


def complete_orbits(m: Minmatrix) -> int:
    """The prime orbits wholly inside ``m``: bit k for position k of ``label_order``."""
    missing, keep = m.ctx.full ^ m.bits, 0
    for k, mask in enumerate(orbit_masks(m.ctx)):
        if not missing & mask:
            keep |= 1 << k
    return keep


def orbit_union(ctx: Context, keep: int) -> Minmatrix:
    """The union of the prime orbits in the set ``keep`` (``complete_orbits``)."""
    masks = orbit_masks(ctx)
    bits = 0
    while keep:
        low = keep & -keep
        bits |= masks[low.bit_length() - 1]
        keep ^= low
    return Minmatrix(ctx, bits)


def labels_of(keep: int, n: int) -> list[str]:
    """Labels of the orbits in the set ``keep`` of K[v,1] (n = 2**v), in label order."""
    return [lbl for k, lbl in enumerate(label_order(n)) if keep >> k & 1]

