"""Long-running checks, outside the default run: ``pytest -m extended``."""

import pytest

from mmw.kripke import correspondence_check
from mmw.lattice import enumerate_cmms
from mmw.substitution import classify

pytestmark = pytest.mark.extended


def _fiber_signature_counts(n: int, chunk: int = 1 << 20):
    """Census of all n**n self-maps by sorted fiber-size profile (numpy)."""
    import numpy as np

    total = n ** n
    out: dict[tuple, int] = {}
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        g = np.arange(start, stop, dtype=np.int64)
        digits = np.empty((stop - start, n), dtype=np.int8)
        for k in range(n):
            digits[:, k] = (g >> (k * 3)) & (n - 1)
        counts = np.zeros((stop - start, n), dtype=np.int8)
        for val in range(n):
            counts[:, val] = (digits == val).sum(axis=1)
        counts[::-1].sort(axis=1)
        counts.sort(axis=1)
        counts = counts[:, ::-1]
        sigs, cnts = np.unique(counts, axis=0, return_counts=True)
        for sig, c in zip(sigs, cnts):
            key = tuple(int(x) for x in sig if x)
            out[key] = out.get(key, 0) + int(c)
    return out


def test_v3_substitution_census_by_direct_enumeration():
    # every one of the 2**24 substitutions, bucketed by fiber profile;
    # the per-profile counts must equal the reduced-mode class sizes
    census = _fiber_signature_counts(8)
    assert sum(census.values()) == 8 ** 8
    assert len(census) == 22
    classes = classify(3, "reduced")
    assert sorted(census.values()) == sorted(c.size for c in classes)
    published = sorted([
        40320, 8, 448, 1568, 3136, 1960, 9408, 56448, 94080, 94080, 70560,
        705600, 94080, 470400, 1411200, 176400, 470400, 3763200, 2822400,
        1128960, 4233600, 1128960])
    assert sorted(census.values()) == published


def test_correspondence_sampled_four_worlds():
    for v in (1, 2):
        for c in enumerate_cmms(v)[:: 3 if v == 2 else 1]:
            rep = correspondence_check(v, c.coord, max_worlds=4,
                                       sample=400, seed=13)
            assert rep.ok, (str(c.coord), rep.violations[:2])
