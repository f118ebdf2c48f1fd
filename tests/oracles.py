"""Reference implementations that the tests hold the product against.

No pipeline path calls these, so they live with the tests: the
syntactic substitution monoid (``identity``, ``compose``,
``formula_for``, ``apply_formula``), the label-based dependency rules,
the orbit sizes, promotion by renormalizing, and the census under an
explicit substitution set.  The oracles that ``perfbench`` also reaches
(``orbit.compute_orbits``, ``orbit.orbit_closed_form``,
``substitution.enumerate_primes``, ``all_substitutions``, the
``subs`` path of ``lattice.collapse``) stay in ``mmw``.
"""

from math import comb

from mmw import formula as fm
from mmw.context import context
from mmw.minmatrix import Minmatrix, normalize
from mmw.orbit import orbit_union
from mmw.substitution import Substitution, apply_minmatrix


def identity(v: int) -> Substitution:
    return Substitution(v, range(1 << v))


def compose(a: Substitution, b: Substitution) -> Substitution:
    """The substitution acting as ``a`` first, then ``b``.

    Its level-0 map is ``a.g`` after ``b.g``, so phi o (ab) = (phi o a) o b.
    """
    if a.v != b.v:
        raise ValueError(f"arity mismatch: {a.v} vs {b.v}")
    return Substitution(a.v, [a.g[j] for j in b.g])


def formula_for(s: Substitution, k: int) -> fm.Formula:
    """sigma_k materialized as the DNF formula of its truth table."""
    return Minmatrix(context(s.v, 0), s.tables[k]).to_formula()


def apply_formula(f: fm.Formula, s: Substitution) -> fm.Formula:
    """Syntactic substitution: replace each variable by its DNF formula."""
    if fm.variables(f) > s.v:
        raise ValueError("formula uses more variables than the substitution")
    reps = {k: formula_for(s, k) for k in range(s.v)}
    return fm.substitute(f, reps.__getitem__)


def promote_v(m: Minmatrix) -> Minmatrix:
    """The equiprovable minmatrix in the successor context K[v+1,d]."""
    return normalize(m.to_formula(), context(m.ctx.v + 1, m.ctx.d))


def expected_size(label: str, n: int) -> int:
    """n * C(n-1, k) members: k from the label, with the 0 conventions."""
    if label in ("Vv0", "Dd0"):
        return n
    return n * comb(n - 1, int(label[2:]))


def dependency_rules_hold(labels, n: int) -> bool:
    """DR1-DR3 on orbit labels: the non-collapsing orbit sets.

    DR1: a non-empty set includes Vv0 or Dd0.  DR2: Dw_k needs Dd0 and
    every lower Dw.  DR3: Dc_k needs Dd0, every lower Dc, and every Dw
    below k.
    """
    if not labels:
        return True
    if "Vv0" not in labels and "Dd0" not in labels:
        return False
    for lbl in labels:
        if lbl in ("Vv0", "Dd0"):
            continue
        k = int(lbl[2:])
        if "Dd0" not in labels:
            return False
        if lbl.startswith("Dw"):
            if any(f"Dw{l}" not in labels for l in range(1, k)):
                return False
        else:
            if any(f"Dc{l}" not in labels for l in range(1, k)):
                return False
            if any(f"Dw{l}" not in labels for l in range(1, k)):
                return False
    return True


def census_under(v: int, subs) -> list[int]:
    """Orbit sets whose union ``collapse(m, subs)`` keeps whole.

    m is a fixpoint iff no substitution shrinks it, m & (m o sigma) == m
    for every sigma, so each of the 2**(2n) orbit sums stops at the first
    sigma that does (a full collapse per sum takes over a second at
    v = 2).  Sets come in ``lattice.surviving_orbit_sums`` order: by
    size, then in ``itertools.combinations`` order of their positions.
    """
    ctx = context(v, 1)
    size = 2 * ctx.n
    found = []
    for keep in range(1 << size):
        m = orbit_union(ctx, keep)
        if all(m & apply_minmatrix(m, s) == m for s in subs):
            found.append(keep)
    found.sort(key=lambda keep: (keep.bit_count(),
                                 [k for k in range(size) if keep >> k & 1]))
    return found
