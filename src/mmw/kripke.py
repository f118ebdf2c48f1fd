"""Finite Kripke frames, models, validity, and frame-condition checking.

The correspondence machinery exploits the shape of degree-1 formulas: at
a world w under a valuation, the level-0 minterm at w together with the
set of minterms seen at w's successors pick out a single level-1 minterm
(s, e), and a normalized formula holds at w exactly when that minterm is
in its minmatrix.  Which minterms a world can realize, over all
valuations, depends only on its *type*: its self-loop bit and
c = min(k, n), k being the number of other worlds it sees.

* An irreflexive world realizes every (s, e) with 1 <= |e| <= c, or only
  e = {} when k = 0.
* A reflexive world realizes every (s, e) with s in e and
  |e| <= min(k + 1, n).

Those minterms form the orbit set of a lattice coordinate, so
``type_table`` reads the set of orbits wholly inside a minmatrix
(``orbit.complete_orbits``) into a table of 2(n+1) types, and a frame is
valid iff every world's type is in it: O(|W|) per frame instead of
n**|W| valuations.
``valid_on_frame`` and ``find_countermodel`` build that table for a
formula of degree <= 1 and walk every valuation with ``eval_model`` (a
direct recursion over the formula) otherwise; the walk, ``_falsify``, is
the oracle the structural rule is tested against.
``correspondence_check`` takes the table of the coordinate's CMM: frame
validity is closed under substitution, so an axiom and its collapse are
valid on the same frames.  The frame condition F(x, y), read off the
coordinate's image in the assembled lattice (``map_to_star``), is a
predicate of the same world type, tabulated alike by ``condition_table``.
One scan, ``_types_meet``, reads a frame's world types against such a
table for every caller; ``correspondence_check`` packs its two tables
into one of 2-bit codes and scans each frame once.
"""

from __future__ import annotations

import random
from itertools import islice, product

from . import formula as fm
from . import lattice
from ._record import Record
from .context import context
from .minmatrix import normalize
from .orbit import complete_orbits, coord_orbits

__all__ = [
    "Frame", "Model", "eval_model", "valid_on_frame", "condition_table",
    "frame_condition_holds", "correspondence_check", "find_countermodel",
    "iter_frames", "CorrespondenceReport", "type_table",
]

WORLD_CAP = 6
# Frames one ``correspondence_check`` or ``find_countermodel`` may scan:
# every frame up to 4 worlds (66,066) fits, all 5-world frames (2**25) do not.
# ``find_countermodel`` also walks at most this many valuations of frames.
FRAME_CAP = 1 << 17


class Frame(Record):
    """Worlds 0..size-1 with an adjacency bit row per world."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(rows)
        if len(rows) < 1:
            raise ValueError("a frame needs at least one world")
        limit = 1 << len(rows)
        for r in rows:
            if not 0 <= r < limit:
                raise ValueError("relation row out of range")
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return len(self.rows)

    def sees(self, w: int, u: int) -> bool:
        return bool((self.rows[w] >> u) & 1)

    @staticmethod
    def from_relation(size: int, rel: int) -> "Frame":
        """Frame number ``rel``: bit w*size+u set means w sees u."""
        mask = (1 << size) - 1
        return Frame(tuple((rel >> (w * size)) & mask for w in range(size)))


class Model(Record):
    """A frame plus, per world, the level-0 minterm fixing all v variables."""

    __slots__ = ("frame", "v", "assignment")

    def __init__(self, frame: Frame, v: int, assignment):
        assignment = tuple(assignment)
        n = 1 << v
        if len(assignment) != frame.size:
            raise ValueError("one minterm per world required")
        for a in assignment:
            if not 0 <= a < n:
                raise ValueError("assignment out of range")
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "assignment", assignment)

    def var_true(self, w: int, k: int) -> bool:
        return bool((self.assignment[w] >> (self.v - 1 - k)) & 1)


def eval_model(m: Model, w: int, f: fm.Formula) -> bool:
    """Standard Kripke clauses, by direct recursion."""
    if isinstance(f, fm.Const0):
        return False
    if isinstance(f, fm.Const1):
        return True
    if isinstance(f, fm.Var):
        if f.index >= m.v:
            raise ValueError(f"variable p{f.index} not covered by the model")
        return m.var_true(w, f.index)
    if isinstance(f, fm.Not):
        return not eval_model(m, w, f.child)
    if isinstance(f, fm.And):
        return eval_model(m, w, f.left) and eval_model(m, w, f.right)
    if isinstance(f, fm.Or):
        return eval_model(m, w, f.left) or eval_model(m, w, f.right)
    if isinstance(f, fm.Implies):
        return (not eval_model(m, w, f.left)) or eval_model(m, w, f.right)
    if isinstance(f, fm.Iff):
        return eval_model(m, w, f.left) == eval_model(m, w, f.right)
    if isinstance(f, fm.Diamond):
        return any(eval_model(m, u, f.child) for u in _seen(m.frame, w))
    if isinstance(f, fm.Box):
        return all(eval_model(m, u, f.child) for u in _seen(m.frame, w))
    raise TypeError(f"unknown formula node {f!r}")


def _seen(frame: Frame, w: int):
    row = frame.rows[w]
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def type_table(kept: int, n: int) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
    """Per-type validity table ``ok[loop][c]`` of a K[v,1] minmatrix m, n = 2**v.

    A world has type (loop, c) when its self-loop bit is ``loop`` and it
    sees k other worlds with c = min(k, n); ``ok[loop][c]`` is true iff
    ``m`` holds at such a world under every valuation.  The minterms a
    type realizes are the orbit set of a coordinate (``coord_orbits``),
    so it is ok iff they are among ``kept = complete_orbits(m)``: a blind
    world realizes S_K(0,-1), an irreflexive one S_D(min(c, n-1), c-1),
    and a reflexive one S_D(0, min(c, n-1)).
    """
    def spans(plane: str, x: int, y: int) -> bool:
        orbits = coord_orbits(plane, x, y)
        return kept & orbits == orbits

    return ((spans("K", 0, -1),) + tuple(spans("D", min(c, n - 1), c - 1)
                                         for c in range(1, n + 1)),
            tuple(spans("D", 0, min(c, n - 1)) for c in range(n + 1)))


def _types_meet(rows, table, n: int) -> int:
    """The AND of ``table[loop][min(k, n)]`` over the worlds with these rows.

    Entries are bit sets, so one scan reads several tables packed as one;
    it stops at the first world that clears every bit.
    """
    meet = -1
    w = 0
    for row in rows:
        loop = (row >> w) & 1
        meet &= table[loop][min(row.bit_count() - loop, n)]
        if not meet:
            return 0
        w += 1
    return meet


def _types_of(f: fm.Formula, v: int, n: int):
    """The ``type_table`` of f in K[v,1], or None when f has degree 2 or more.

    Normalizing refuses a K[v,1] over the cap (``CapExceededError``)
    rather than leave a degree <= 1 formula to walk n**|W| valuations.
    """
    if fm.modal_degree(f) > 1:
        return None
    return type_table(complete_orbits(normalize(f, context(v, 1))), n)


def valid_on_frame(fr: Frame, f: fm.Formula, v: int) -> bool:
    """True iff f holds at every world under every of the n**|W| valuations.

    A degree <= 1 formula is decided by each world's type (``type_table``);
    a deeper one by walking the valuations.  Frames over ``WORLD_CAP``
    worlds are refused.
    """
    if fr.size > WORLD_CAP:
        raise ValueError(f"frame has {fr.size} worlds, over the cap {WORLD_CAP}")
    n = context(v, 0).n
    table = _types_of(f, v, n)
    if table is None:
        return _falsify(fr, f, v, n) is None
    return bool(_types_meet(fr.rows, table, n))


def _falsify(fr: Frame, f: fm.Formula, v: int, n: int, limit: int | None = None):
    """(model, world) of the first valuation of ``fr`` falsifying ``f``, or None.

    Valuations come in lexicographic order and worlds in index order; a
    ``limit`` stops the walk after that many valuations.
    """
    for assignment in islice(product(range(n), repeat=fr.size), limit):
        model = Model(fr, v, assignment)
        for w in range(fr.size):
            if not eval_model(model, w, f):
                return model, w
    return None


def condition_table(star: lattice.SystemCoord, n: int):
    """F(x, y) of a star coordinate as a per-type table ``ok[loop][min(k, n)]``.

    An irreflexive world (``loop`` 0) satisfies the C branch when
    lower <= k <= x, lower being 1 on the D plane and 0 on the K plane; a
    reflexive world satisfies the W branch when k <= y.  STAR removes the
    upper bound and y = -1 makes the W branch unsatisfiable.  Entry n
    stands for every k >= n: exact when every finite bound is below n, as
    for ``map_to_star(coord, v)`` with n = 2**v.
    """
    lower = 1 if star.plane == "D" else 0
    x = n if star.x == lattice.STAR else star.x
    y = n if star.y == lattice.STAR else star.y
    return (tuple(lower <= c <= x for c in range(n + 1)),
            tuple(c <= y for c in range(n + 1)))


def frame_condition_holds(fr: Frame, star: lattice.SystemCoord) -> bool:
    """F(x, y) of ``star`` (a coordinate of ``map_to_star``) at every world.

    No world sees ``fr.size`` others, so no entry read saturates.
    """
    return bool(_types_meet(fr.rows, condition_table(star, fr.size), fr.size))


def iter_frames(size: int):
    for rel in range(1 << (size * size)):
        yield Frame.from_relation(size, rel)


class CorrespondenceReport(Record):
    __slots__ = ("coord", "v", "max_worlds", "frames_checked", "violations")

    @property
    def ok(self) -> bool:
        return not self.violations


def correspondence_check(v: int, coord: lattice.SystemCoord, max_worlds: int = 3,
                         sample: int | None = None,
                         seed: int = 0) -> CorrespondenceReport:
    """Frame-for-frame equivalence of axiom validity and frame condition.

    Checks every labeled digraph up to ``max_worlds`` worlds (or a random
    sample per size when ``sample`` is given): the coordinate's axiom is
    valid on the frame iff the star-mapped condition holds at all worlds.
    A bound below 1 would check no frame, so it is refused; so are more
    than ``WORLD_CAP`` worlds and more than ``FRAME_CAP`` frames, counting
    each size in full when it is checked exhaustively and ``sample`` when
    it is sampled.
    """
    if max_worlds < 1:
        raise ValueError(f"max_worlds must be at least 1, not {max_worlds}")
    if max_worlds > WORLD_CAP:
        raise ValueError(f"max_worlds {max_worlds} is over the cap {WORLD_CAP}")
    if sample is not None and sample < 1:
        raise ValueError(f"sample must be at least 1, not {sample}")
    totals = [1 << (size * size) for size in range(1, max_worlds + 1)]
    frames = sum(total if sample is None else min(total, sample) for total in totals)
    if frames > FRAME_CAP:
        raise ValueError(f"{frames} frames to check, over the cap {FRAME_CAP}")
    cmm = lattice.cmm_from_coords(coord, v)     # refuses v before any 1 << v
    n = cmm.ctx.n
    # bit 0 of a type's code: the axiom holds there; bit 1: the condition does
    valid = type_table(cmm.orbits, n)
    holds = condition_table(lattice.map_to_star(coord, v), n)
    table = tuple(tuple(a | b << 1 for a, b in zip(va, ha))
                  for va, ha in zip(valid, holds))
    meet = _types_meet      # bound once: the scan is called per frame
    rng = random.Random(seed)
    checked = 0
    violations = []
    for size, total in enumerate(totals, 1):
        if sample is not None and total > sample:
            rels = sorted(rng.sample(range(total), sample))
        else:
            rels = range(total)
        for rel in rels:
            code = meet(Frame.from_relation(size, rel).rows, table, n)
            checked += 1
            if code == 1 or code == 2:
                violations.append({"worlds": size, "relation": rel,
                                   "axiom_valid": code == 1,
                                   "condition_holds": code == 2})
    return CorrespondenceReport(coord, v, max_worlds, checked, tuple(violations))


def find_countermodel(f: fm.Formula, max_worlds: int = 3):
    """Smallest (frame, model, world) falsifying f, or None within the cap.

    Frames are searched by world count, then relation number, then
    valuation in lexicographic order, so the witness is deterministic.
    For degree <= 1 the frames that ``type_table`` shows valid are
    skipped, and valuations are enumerated only on the first frame that
    is not; such a formula needs K[v,1], v = max(variables(f), 1), under
    the cap (``CapExceededError`` otherwise).  ``max_worlds`` below 1 is
    refused, and so is a search with no witness past ``FRAME_CAP`` frames
    or past ``FRAME_CAP`` valuations walked (a degree-2 formula walks
    n**|W| valuations on every frame).
    """
    if max_worlds < 1:
        raise ValueError(f"max_worlds must be at least 1, not {max_worlds}")
    v = max(fm.variables(f), 1)
    n = context(v, 0).n         # refuses a level-0 universe over the cap
    table = _types_of(f, v, n)
    scanned = walked = 0
    for size in range(1, max_worlds + 1):
        for fr in iter_frames(size):
            scanned += 1
            if scanned > FRAME_CAP:
                raise ValueError(f"no countermodel in {FRAME_CAP} frames; the "
                                 f"{size}-world frames go over the cap {FRAME_CAP}")
            if table is not None and _types_meet(fr.rows, table, n):
                continue
            hit = _falsify(fr, f, v, n, FRAME_CAP - walked)
            if hit is not None:
                return (fr,) + hit
            walked += n ** size
            if walked > FRAME_CAP:
                raise ValueError(f"no countermodel in {FRAME_CAP} valuations; the "
                                 f"{size}-world frames go over the cap {FRAME_CAP}")
    return None
