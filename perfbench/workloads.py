"""Seeded inputs, operations and answer checks for the four workloads.

Every input is made here from the run's seed; the program only sees the
generated formula text, coordinates, orbit sums and command lines (and the
axiom strings of its own registry, which ``decide`` replays).  A
workload is a stream of rounds: each round is a list of operations with a
fixed composition (so many ops of each slice), and only the particular
inputs change with the seed.  The timed loop always finishes whole rounds,
so a run's mix of slices does not depend on where the clock ran out.

Each ``Op`` carries its own check, which runs after the timed region.  An
op whose exception type is its ``known_defect`` is counted as failed but
is not an unexpected failure (the long ``decide`` inputs that hit the
recursion limit).

The program's functions are always looked up through their module at call
time (``ax.system_of``, not a name bound at import), so the traced run can
rebind them.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from dataclasses import dataclass
from math import comb
from typing import Callable

import mmw
from mmw import axiom as ax
from mmw import formula as fm
from mmw import kripke as kr
from mmw import lattice as lat
from mmw import minmatrix as mm
from mmw import orbit as orb
from mmw import substitution as sub

VAR_LETTERS = "pqr"


@dataclass
class Op:
    slice: str
    run: Callable[[], object]
    check: Callable[[object], str | None]   # message when the answer is wrong
    known_defect: type[BaseException] | None = None
    nodes: int = 0                          # AST size of the op's formula, if any


# -- formulas: the benchmark's own AST, printer and evaluator ----------------
#
# Nodes are tuples: ("v", k), ("0",), ("1",), (op, a) for op in ! [] <>, and
# (op, a, b) for op in & + -> <->.  The printer parenthesizes every binary
# node, so the program's parser sees exactly this tree.

_BINARY = ("&", "+", "->", "<->")


def random_formula(rng: random.Random, v: int, size: int, modal: bool = True):
    """A random formula of exactly ``size`` nodes over v variables, degree <= 1."""
    if size <= 1:
        roll = rng.random()
        if roll < 0.06:
            return ("0",)
        if roll < 0.12:
            return ("1",)
        return ("v", rng.randrange(v))
    roll = rng.random()
    if roll < 0.15:
        return ("!", random_formula(rng, v, size - 1, modal))
    if modal and roll < 0.35:
        return (rng.choice(("[]", "<>")), random_formula(rng, v, size - 1, False))
    left = rng.randint(1, size - 2) if size > 2 else 1
    return (rng.choice(_BINARY), random_formula(rng, v, left, modal),
            random_formula(rng, v, size - 1 - left, modal))


def render(node) -> str:
    op = node[0]
    if op == "v":
        return VAR_LETTERS[node[1]]
    if op in ("0", "1"):
        return op
    if len(node) == 2:
        return op + render(node[1])
    return "(" + render(node[1]) + op + render(node[2]) + ")"


def max_var(node) -> int:
    if node[0] == "v":
        return node[1]
    return max((max_var(c) for c in node[1:] if isinstance(c, tuple)), default=-1)


def holds(node, rows, val, w: int, v: int) -> bool:
    """Kripke truth at world w; val[u] is a level-0 minterm (p_k at bit v-1-k)."""
    op = node[0]
    if op == "v":
        return bool((val[w] >> (v - 1 - node[1])) & 1)
    if op in ("0", "1"):
        return op == "1"
    if op == "!":
        return not holds(node[1], rows, val, w, v)
    if op in ("[]", "<>"):
        seen = [u for u in range(len(rows)) if (rows[w] >> u) & 1]
        test = all if op == "[]" else any
        return test(holds(node[1], rows, val, u, v) for u in seen)
    a = holds(node[1], rows, val, w, v)
    b = holds(node[2], rows, val, w, v)
    return {"&": a and b, "+": a or b, "->": (not a) or b, "<->": a == b}[op]


def boolean_formula(rng: random.Random, v: int, size: int):
    """A random modality-free formula that is neither valid nor unsatisfiable."""
    while True:
        node = random_formula(rng, v, size, modal=False)
        table = {holds(node, (0,), (i,), 0, v) for i in range(1 << v)}
        if table == {False, True}:
            return node


# -- coordinates and orbit sums, from the paper's definitions ----------------


def coordinates(v: int) -> list[tuple[str, int, int]]:
    """The n(n+3) lattice coordinates of K[v,1], K plane first."""
    n = 1 << v
    return [(plane, x, y) for plane in ("K", "D") for y in range(-1, n)
            for x in range(0, min(y + 1, n - 1) + 1)]


def orbit_labels(v: int) -> list[str]:
    n = 1 << v
    labels = ["Vv0", "Dd0"]
    for k in range(1, n):
        labels += [f"Dc{k}", f"Dw{k}"]
    return labels


def coordinate_orbits(plane: str, x: int, y: int) -> frozenset[str]:
    """Vv0 on the K plane, Dd0 and Dw1..Dwy when y >= 0, and Dc1..Dcx."""
    labels = {"Vv0"} if plane == "K" else set()
    if y >= 0:
        labels |= {"Dd0"} | {f"Dw{k}" for k in range(1, y + 1)}
    return frozenset(labels | {f"Dc{k}" for k in range(1, x + 1)})


def alpha_terms(v: int, x: int, y: int) -> int:
    """Minterms in the sum of the coordinate axiom alpha (its size driver)."""
    m = (1 << v) - 1
    return sum(comb(m, k) for k in range(x + 1)) + sum(comb(m, k) for k in range(y + 1))


def _sc(coord) -> lat.SystemCoord:
    return lat.SystemCoord(*coord)


def _mask_of(labels, v: int) -> mm.Minmatrix:
    ctx = mmw.context(v, 1)
    table = orb.orbit_map(ctx)
    bits = 0
    for lbl in labels:
        bits |= table[lbl].bits
    return mm.Minmatrix(ctx, bits)


class _Cycle:
    """Seeded order over a pool, repeated; ``first`` items lead the order."""

    def __init__(self, rng: random.Random, pool, first=()):
        rest = [p for p in pool if p not in first]
        rng.shuffle(rest)
        self.items = list(first) + rest
        self.pos = 0

    def take(self, k: int) -> list:
        out = []
        for _ in range(k):
            out.append(self.items[self.pos % len(self.items)])
            self.pos += 1
        return out


# -- decide ------------------------------------------------------------------


class Decide:
    """Which logic is this formula: ``parse`` then ``system_of``, one op each.

    A round has 300 random formulas (100 per v in {1,2,3}, sizes
    log-uniform from 5 to 300 nodes, no repeats within a run), 6 registry
    variants through ``variant_collapse`` and 6 long inputs (``pp...p`` and
    ``!...!p`` with 2000 to 4000 symbols, about 2% of the ops).
    """

    RANDOM_PER_V = 100
    REGISTRY = 6
    LONG = 6

    def __init__(self, seed: int):
        self.rng = random.Random(f"decide:{seed}")
        self.seen: set[str] = set()
        self._registry: _Cycle | None = None
        self._oracle: dict[int, list] = {}
        self.properties: dict = {}

    def setup(self) -> None:
        self._entries = registry_entries()
        for text in ("p", "pq-><>(pq)", "[](pqr)->r"):
            ax.system_of(fm.parse(text))

    def make_round(self) -> list[Op]:
        rng = self.rng
        if self._registry is None:
            self._registry = _Cycle(rng, range(len(self._entries)))
        ops = []
        for _ in range(self.RANDOM_PER_V):
            for v in (1, 2, 3):
                while True:
                    size = int(5 * 60 ** rng.random())
                    node = random_formula(rng, v, size)
                    text = render(node)
                    if text not in self.seen:
                        break
                self.seen.add(text)
                ops.append(self._decide_op("random", text, text,
                                           max(max_var(node) + 1, 1), size))
        for k in range(self.LONG):
            length = rng.randint(2000, 4000)
            if k % 2 == 0:
                ops.append(self._decide_op("long", "p" * length, "p", 1, 2 * length - 1,
                                           RecursionError))
            else:
                short = "p" if length % 2 == 0 else "!p"
                ops.append(self._decide_op("long", "!" * length + "p", short, 1,
                                           length + 1, RecursionError))
        for i in self._registry.take(self.REGISTRY):
            ops.append(self._registry_op(*self._entries[i]))
        rng.shuffle(ops)
        self.properties["long_share"] = self.LONG / len(ops)
        return ops

    def _decide_op(self, slice_, text, short, v, nodes, known=None) -> Op:
        def run():
            return ax.system_of(fm.parse(text))

        def check(got):
            f = fm.parse(short)
            bits = mm.normalize(f, mmw.context(v, 1)).bits
            want = (self.oracle(bits, v), v)
            if got != want:
                return f"system_of({text[:60]!r}) = {got}, expected {want}"
            return _spot_check(short, f, bits, v)
        return Op(slice_, run, check, known, nodes)

    def oracle(self, bits: int, v: int) -> lat.SystemCoord:
        """The largest coordinate CMM inside a minmatrix, as a star coordinate.

        Collapse keeps the largest union of CMMs below its input and CMMs
        are closed under union, so this needs neither the orbit trim nor
        the critical substitution that ``system_of`` uses.
        """
        if v not in self._oracle:
            self._oracle[v] = [(c, _mask_of(coordinate_orbits(*c), v).bits)
                               for c in coordinates(v)]
        inside = [(c, b) for c, b in self._oracle[v] if b & ~bits == 0]
        union = 0
        for _, b in inside:
            union |= b
        best = [c for c, b in inside if b == union]
        if len(best) != 1:
            raise AssertionError("coordinate CMMs are not closed under union")
        return lat.map_to_star(_sc(best[0]), v)


    def _registry_op(self, text, v, base, coord, what) -> Op:
        variant = ax.AxiomVariant(v, base, text)

        def run():
            return ax.variant_collapse(variant)

        def check(got):
            want = lat.cmm_from_coords(_sc(coord), v).matrix
            if got != want:
                return f"{what} {text!r} at v={v} does not land on {coord}"
            return None
        return Op("registry", run, check)


def _spot_check(text: str, f, bits: int, v: int) -> str | None:
    """Minmatrix membership agrees with direct Kripke evaluation at two models."""
    rng = random.Random(text)
    ctx = mmw.context(v, 1)
    for _ in range(2):
        size = rng.randint(1, 3)
        frame = kr.Frame(tuple(rng.randrange(1 << size) for _ in range(size)))
        model = kr.Model(frame, v, tuple(rng.randrange(1 << v) for _ in range(size)))
        e = 0
        for u in range(size):
            if frame.sees(0, u):
                e |= 1 << model.assignment[u]
        index = (model.assignment[0] << ctx.e_bits) | e
        if bool((bits >> index) & 1) != kr.eval_model(model, 0, f):
            return f"normalize and eval_model disagree on {text[:60]!r}"
    return None


def registry_entries() -> list[tuple]:
    """(text, v, base, expected coordinate, kind) for every registry string.

    Published variants land on their system; errata land on their recorded
    spot, and their corrections on the stated system.
    """
    out = []
    for system in ax.named_systems(3):
        coord = (system.coord.plane, system.coord.x, system.coord.y)
        for var in system.variants:
            out.append((var.text, var.v, var.base, coord, "variant"))
        for err in system.errata:
            out.append((err.text, err.v, err.base, err.lands_at, "erratum"))
            if err.corrected:
                out.append((err.corrected, err.v, err.base, coord, "correction"))
    return out


# -- census ------------------------------------------------------------------

V3_CLASS_SIZES = sorted([
    8, 448, 1568, 1960, 3136, 9408, 40320, 56448, 70560, 94080, 94080, 94080,
    176400, 470400, 470400, 705600, 1128960, 1128960, 1411200, 2822400,
    3763200, 4233600])


class Census:
    """The lattice reproduces: alpha collapses, orbit-sum censuses, classify.

    A round has: alpha for all 28 v=2 coordinates and alpha' for the 14 on
    the K plane; one bundle of alpha at v=3 (below); alpha' for 2 v=3
    K-plane coordinates; the v=2 exhaustive collapse (all 256
    substitutions) of 2 coordinate orbit sums and 6 others; the default
    collapse of 4 coordinate orbit sums and 296 others at v=3;
    ``classify(2)``; and ``classify(3, "reduced")`` twice.  With one bundle
    and two classify(3) ops per round, 3 ops per round are slower than all
    others, so with the 5 to 7 rounds a run holds at the seed the
    11th-slowest op is always a classify(3) op: the latency tail does not
    jump with the round count.

    One v=3 coordinate's alpha takes from 1 ms to 2 s at the seed, growing
    with the square of the number of minterms in the axiom (``alpha_terms``),
    so single coordinates would make a round's cost, and the ops in the
    latency tail, depend on the draw.  A bundle is one op: a seeded leading
    coordinate (the two largest lead every run) filled up, in a seeded
    order, with coordinates until the squared sizes reach that of the
    largest axiom.  Every bundle then costs about the same.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(f"census:{seed}")
        rng = self.rng
        coords3 = sorted(coordinates(3), key=lambda c: (alpha_terms(3, c[1], c[2]), c))
        self.weight = {c: alpha_terms(3, c[1], c[2]) ** 2 for c in coords3}
        self.budget = self.weight[coords3[-1]]
        self.lead = _Cycle(rng, coords3, first=(coords3[-1], coords3[-2]))
        self.coords3 = coords3
        self.prime3 = _Cycle(rng, [c for c in coordinates(3) if c[0] == "K"])
        self.cmm_sets = {v: {coordinate_orbits(*c) for c in coordinates(v)} for v in (2, 3)}
        sums2 = [frozenset(l for i, l in enumerate(orbit_labels(2)) if (mask >> i) & 1)
                 for mask in range(256)]
        self.exh_in = _Cycle(rng, [s for s in sums2 if s in self.cmm_sets[2]])
        self.exh_out = _Cycle(rng, [s for s in sums2 if s not in self.cmm_sets[2]])
        self.v3_in = _Cycle(rng, sorted(self.cmm_sets[3], key=sorted))
        self.v3_seen: set[int] = set()
        self.properties = {"alpha_v3_coordinates": 0}

    def bundle(self) -> list[tuple]:
        """A leading coordinate, then fillers while the squared sizes fit the budget."""
        out = self.lead.take(1)
        left = self.budget - self.weight[out[0]]
        for c in self.rng.sample(self.coords3, len(self.coords3)):
            if c not in out and self.weight[c] <= left:
                out.append(c)
                left -= self.weight[c]
        self.properties["alpha_v3_coordinates"] += len(out)
        return out

    def setup(self) -> list[str]:
        """Build the prime and orbit tables (worklist oracle against closed form)."""
        problems = []
        for v, want in ((1, 2), (2, 24), (3, 40320)):
            if len(sub.enumerate_primes(v)) != want:
                problems.append(f"{want} primes expected at v={v}")
            ctx = mmw.context(v, 1)
            worklist = [(o.label, o.matrix) for o in orb.compute_orbits(ctx)]
            closed = [(o.label, o.matrix) for o in orb.orbit_closed_form(ctx)]
            if worklist != closed or len(closed) != 2 << v:
                problems.append(f"orbit tables disagree at v={v}")
        self.subs2 = sub.all_substitutions(2)
        self.properties["exhaustive_substitutions"] = len(self.subs2)
        for v in (2, 3):
            lat.collapse(_mask_of(["Vv0", "Dd0"], v))
        return problems

    def make_round(self) -> list[Op]:
        ops = [self._alpha_op([c], 2, "alpha") for c in coordinates(2)]
        ops += [self._alpha_op([c], 2, "alpha-prime") for c in coordinates(2) if c[0] == "K"]
        ops.append(self._alpha_op(self.bundle(), 3, "alpha"))
        ops += [self._alpha_op([c], 3, "alpha-prime") for c in self.prime3.take(2)]
        for labels in self.exh_in.take(2) + self.exh_out.take(6):
            ops.append(self._collapse_op("exhaustive_v2", labels, 2, self.subs2))
        sums3 = self.v3_in.take(4)
        labels3 = orbit_labels(3)
        while len(sums3) < 300:
            mask = self.rng.randrange(1 << 16)
            if mask not in self.v3_seen:
                self.v3_seen.add(mask)
                sums3.append(frozenset(l for i, l in enumerate(labels3) if (mask >> i) & 1))
        ops += [self._collapse_op("default_v3", s, 3, None) for s in sums3]
        ops.append(Op("classify", lambda: sub.classify(2), _check_classify2))
        ops += [Op("classify", lambda: sub.classify(3, "reduced"), _check_classify3)] * 2
        self.rng.shuffle(ops)
        return ops

    def _alpha_op(self, coords, v: int, variant: str) -> Op:
        """Normalize and collapse alpha (or alpha') of each coordinate in turn."""
        scs = [_sc(c) for c in coords]

        def run():
            ctx = mmw.context(v, 1)
            return [lat.collapse(mm.normalize(ax.alpha_for(sc, v, variant), ctx))
                    for sc in scs]

        def check(got):
            for sc, m in zip(scs, got):
                if m != lat.cmm_from_coords(sc, v).matrix:
                    return f"{variant} at {sc} v={v} does not collapse to its CMM"
            return None
        return Op(f"alpha_v{v}", run, check)

    def _collapse_op(self, slice_, labels, v: int, subs) -> Op:
        m = _mask_of(labels, v)
        expected = labels in self.cmm_sets[v]

        def check(got):
            if (got == m) != expected:
                return f"orbit sum {sorted(labels)} survives={got == m} at v={v}"
            return None
        return Op(slice_, lambda: lat.collapse(m, subs), check)


def _check_classify2(classes) -> str | None:
    sizes = sorted(c.size for c in classes)
    return None if sizes == [4, 24, 36, 48, 144] else f"classify(2) sizes {sizes}"


def _check_classify3(classes) -> str | None:
    sizes = sorted(c.size for c in classes)
    if sizes != V3_CLASS_SIZES or sum(sizes) != 8 ** 8:
        return f"classify(3) sizes {sizes}"
    return None


# -- frames ------------------------------------------------------------------

# K-theorems: the countermodel search must run through every frame.
_THEOREMS = ("([](A->B)->([]A->[]B))", "([](A&B)->[]A)", "(([]A&[]B)->[](A&B))",
             "(<>(A+B)->(<>A+<>B))")
# Degree-2 non-theorems with a countermodel of at most 3 worlds whenever A is
# neither valid nor unsatisfiable.
_DEGREE2 = ("([]A->[][]A)", "(A->[]<>A)", "(<>A->[]<>A)", "([][]A->[]A)",
            "(<><>A-><>A)")


class Frames:
    """Kripke semantics: correspondence checks and countermodel searches.

    A round has ``correspondence_check`` for all 10 v=1 and 28 v=2
    coordinates over every frame with at most 3 worlds, 4 checks of a
    seeded coordinate with 48 seeded frames of 3 and of 4 worlds, one
    K-theorem, 12 seeded non-theorems that have a countermodel of at most
    3 worlds by construction, and 4 degree-2 non-theorems.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(f"frames:{seed}")
        self.theorems = _Cycle(self.rng, _THEOREMS)
        self.degree2 = _Cycle(self.rng, _DEGREE2)
        self.properties = {"frames_per_world_count": {}}

    def setup(self) -> None:
        for v in (1, 2):
            lat.enumerate_cmms(v)
            mm.normalize(fm.parse("[]p->p"), mmw.context(v, 1))

    def make_round(self) -> list[Op]:
        rng = self.rng
        ops = [self._corr_op(v, c, 3, None, 0) for v in (1, 2) for c in coordinates(v)]
        for _ in range(4):
            v = rng.choice((1, 2))
            ops.append(self._corr_op(v, rng.choice(coordinates(v)), 4, 48,
                                     rng.randrange(1 << 30)))
        text = self.theorems.take(1)[0]
        for letter in "AB":
            text = text.replace(letter, render(boolean_formula(rng, 2, 3)))
        ops.append(self._countermodel_op("theorem", text, 1))
        for _ in range(12):
            ops.append(self._countermodel_op("nontheorem", self._nontheorem(), 1))
        for text in self.degree2.take(4):
            ops.append(self._countermodel_op("degree2", text.replace("A", render(
                boolean_formula(rng, rng.choice((1, 2)), 3))), 2))
        rng.shuffle(ops)
        return ops

    def _nontheorem(self) -> str:
        """A random degree-1 formula made false at a random model of <= 3 worlds."""
        rng = self.rng
        v = rng.choice((1, 2))
        node = random_formula(rng, v, rng.randint(5, 25))
        size = rng.randint(1, 3)
        rows = tuple(rng.randrange(1 << size) for _ in range(size))
        val = tuple(rng.randrange(1 << v) for _ in range(size))
        if holds(node, rows, val, 0, v):
            node = ("!", node)
        return render(node)

    def _corr_op(self, v, coord, worlds, sample, seed) -> Op:
        sc = _sc(coord)
        per_size = {s: min(1 << (s * s), sample or 1 << 16) for s in range(1, worlds + 1)}
        want = sum(per_size.values())
        counts = self.properties["frames_per_world_count"]
        for size, frames in per_size.items():
            counts[size] = counts.get(size, 0) + frames

        def run():
            return kr.correspondence_check(v, sc, worlds, sample=sample, seed=seed)

        def check(rep):
            if not rep.ok or rep.frames_checked != want:
                return (f"correspondence {sc} v={v}: {len(rep.violations)} violations, "
                        f"{rep.frames_checked} of {want} frames")
            return None
        return Op("correspondence", run, check)

    def _countermodel_op(self, slice_, text, degree) -> Op:
        def run():
            return kr.find_countermodel(fm.parse(text), 3)

        def check(hit):
            f = fm.parse(text)
            if hit is not None:
                frame, model, w = hit
                if kr.eval_model(model, w, f):
                    return f"countermodel for {text!r} does not falsify it"
            if degree == 2:
                return None if hit is not None else f"no countermodel for {text!r}"
            need = smallest_countermodel(f)
            if need is None:
                return None if hit is None else f"{text!r} has no countermodel of <= 3 worlds"
            if hit is None or hit[0].size != need:
                return f"{text!r}: smallest countermodel has {need} worlds, got {hit and hit[0].size}"
            return None
        return Op(slice_, run, check)


def smallest_countermodel(f, cap: int = 3) -> int | None:
    """World count of the smallest countermodel of a degree-1 formula, if <= cap.

    A level-1 minterm (s, e) outside the minmatrix is realized at a world
    with valuation s that sees exactly the valuations in e: that takes
    |e| worlds when s is in e (a self-loop) and |e| + 1 otherwise.
    """
    v = max(fm.variables(f), 1)
    ctx = mmw.context(v, 1)
    bits = mm.normalize(f, ctx).bits
    best = None
    for index in range(ctx.universe_size):
        if not (bits >> index) & 1:
            s, e = divmod(index, 1 << ctx.e_bits)
            need = max(e.bit_count() + (0 if (e >> s) & 1 else 1), 1)
            best = need if best is None else min(best, need)
    return best if best is not None and best <= cap else None


# -- cli ---------------------------------------------------------------------

# The README's commands, with what each must print.  One is left out:
# ``frames --correspondence --v 2 --all-coords --max-worlds 3`` takes 2 s,
# six times any other, so with it a 20-second run holds only 4 rounds and the
# latency tail sits on a handful of ops; its work is the ``frames`` workload's.
README_COMMANDS = [
    ("normalize --v 1 --d 1 []p->p",
     lambda out: out.splitlines() == ["   p | 1 1 1 1 : 0 0", "-----+--------------",
                                      " <>p | 1 1 0 0 : 1 0", "<>!p | 1 0 1 0 : 1 1"]),
    ("collapse --v 1 []p->p",
     lambda out: "orbits: [Dd+Dw]" in out and "coordinate: S_D(0,1)" in out),
    ("collapse --v 2 --exhaustive p->[]p",
     lambda out: "orbits: [Vvv+Ddd]" in out and "coordinate: S_K(0,0)" in out),
    ("orbits --v 2 --format json",
     lambda out: _orbit_sizes(out) == {"Vv0": 4, "Dd0": 4, "Dc1": 12, "Dw1": 12,
                                       "Dc2": 12, "Dw2": 12, "Dc3": 4, "Dw3": 4}),
    ("lattice --v 2 --format dot",
     lambda out: out.startswith("digraph") and out.count(" [label=\"S_") == 28
     and "\\nKW8" in out),
    ("axiom --plane K --x 1 --y 0 --v 1",
     lambda out: out.splitlines()[-1] == "CMM orbits: [Vv+Dd+Dc]"),
    ("axiom --plane K --x 0 --y 0 --v 1 --variant alpha-prime",
     lambda out: out.splitlines()[-1] == "CMM orbits: [Vv+Dd]"),
    ("system-of pq<>p<>q-><>(pq)",
     lambda out: out.splitlines() == ["coordinate: S_K(1,*)", "origin context: K[2,1]",
                                      "orbits: [Vvv+Ddd+Dcc1+Dww1+Dww2+Dww3]",
                                      "named system: KW8"]),
    ("classify --v 2", lambda out: _class_sizes(out) == [4, 24, 36, 48, 144]),
    ("classify --v 3", lambda out: _class_sizes(out) == V3_CLASS_SIZES),
    ("frames --correspondence --v 1 --plane D --x 0 --y * --max-worlds 4 --sample 200 --seed 7",
     lambda out: out.strip() == "S_D(0,*): 418 frames, ok"),
    ("countermodel []p->p --max-worlds 3",
     lambda out: out.startswith("falsified at world 0 of 1\n")),
]

# How the installed ``mmw`` script starts the CLI.
CLI_ENTRY = "import sys; from mmw.cli import main; sys.exit(main())"


def _orbit_sizes(out: str) -> dict:
    return {k: len(v) for k, v in json.loads(out).items()}


def _class_sizes(out: str) -> list[int]:
    return sorted(c["size"] for c in json.loads(out))


class Cli:
    """Each README command in a fresh interpreter, in a seeded order per round."""

    def __init__(self, seed: int, env: dict, launcher: Callable | None = None):
        self.rng = random.Random(f"cli:{seed}")
        self.env = env
        self.launch = launcher or self._launch

    def setup(self) -> None:
        pass

    def _launch(self, argv: list[str]):
        proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv], env=self.env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def make_round(self) -> list[Op]:
        order = list(README_COMMANDS)
        self.rng.shuffle(order)
        return [self._op(line, ok) for line, ok in order]

    def _op(self, line: str, ok) -> Op:
        argv = line.split()

        def check(result):
            code, out, err = result
            if code != 0 or not ok(out):
                return f"mmw {line}: exit {code}, output {out[:80]!r} {err[-200:]!r}"
            return None
        return Op("command", lambda: self.launch(argv), check)
