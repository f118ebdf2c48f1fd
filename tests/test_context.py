import os
import subprocess
import sys

import pytest

import mmw
from mmw.context import (CapExceededError, Context, DegreeError, context, enumerate_E,
                         index_bit_mask)
from mmw.formula import render


def test_universe_sizes():
    assert context(3, 0).universe_size == 8
    assert context(1, 1).universe_size == 8
    assert context(2, 1).universe_size == 64
    assert context(3, 1).universe_size == 2048
    assert context(1, 2).universe_size == 512


def test_cap_refusal():
    with pytest.raises(CapExceededError):
        context(2, 2)
    with pytest.raises(CapExceededError):
        context(5, 1)


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("MMW_UNIVERSE_CAP", "100")
    with pytest.raises(CapExceededError):
        context(3, 1)
    assert context(2, 1).universe_size == 64


def test_cap_refuses_a_wide_level0_before_shifting():
    # 2**v alone is over the cap once v reaches the cap's bit length
    with pytest.raises(CapExceededError,
                       match=r"K\[22,1\] needs at least 2\^22 minterms, over the cap"):
        Context(22, 1, cap=1 << 21)
    assert Context(21, 0, cap=1 << 21).universe_size == 1 << 21


def test_cap_refuses_a_huge_variable_index():
    # 1 << 10**12 would take ~125 GB, so the check runs in a child whose
    # address space is capped at 1 GiB: without it the child dies of a
    # MemoryError in place of printing the refusal
    src = os.path.dirname(os.path.dirname(mmw.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
         "from mmw.context import CapExceededError, context\n"
         "try:\n    context(10**12, 1)\n"
         "except CapExceededError as exc:\n    print(exc)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("K[1000000000000,1] needs at least 2^1000000000000 "
                           "minterms, over the cap 2097152\n")


def test_decode_examples():
    # Context.split decodes an index into (section s, e-bits)
    k11 = context(1, 1)
    assert k11.split(7) == (1, 0b11)
    assert k11.split(0) == (0, 0)
    k21 = context(2, 1)
    assert k21.split(56) == (3, 0b1000)
    assert (3 << k21.e_bits) | 0b1000 == 56
    assert context(1, 2).split(511) == (1, 0xff)


def test_chi():
    # the number of possible factors is the popcount of split's e-bits
    assert context(1, 1).split(7)[1].bit_count() == 2
    k21 = context(2, 1)
    assert k21.split(56)[1].bit_count() == 1     # Ddd, first column
    assert k21.split(63)[1].bit_count() == 4     # Dww3 column in section 3
    with pytest.raises(DegreeError):
        context(2, 0).split(0)


def test_split_rejects_level0():
    with pytest.raises(DegreeError):
        context(2, 0).split(1)


def test_split_round_trip():
    # index = s * 2**E + e, with bit i of e the state of <>mu_i
    for v, d in ((0, 1), (1, 1), (2, 1), (1, 2)):
        ctx = context(v, d)
        for idx in range(ctx.universe_size):
            s, e = ctx.split(idx)
            assert 0 <= e < 1 << ctx.e_bits and 0 <= s < ctx.n
            assert (s << ctx.e_bits) | e == idx
            assert [(e >> i) & 1 for i in range(ctx.e_bits)] == \
                [int(bool(ctx.factor_mask(i) >> idx & 1)) for i in range(ctx.e_bits)]


def test_minterm_index_range_checked():
    with pytest.raises(ValueError):
        context(1, 1).minterm_formula(8)
    with pytest.raises(ValueError):
        context(1, 1).factor_states(-1)


def test_factor_labels():
    assert context(1, 1).factor_labels() == ["p", "<>p", "<>!p"]
    assert context(2, 1).factor_labels() == [
        "p", "q", "<>(pq)", "<>(p!q)", "<>(!pq)", "<>(!p!q)"]
    assert context(0, 1).factor_labels() == ["<>1"]


def test_minterm_formula_display_order():
    k11 = context(1, 1)
    assert render(k11.minterm_formula(7)) == "p<>p<>!p"
    assert render(k11.minterm_formula(2)) == "!p<>p!<>!p"


def test_enumerate_E_atoms():
    out = enumerate_E(1, 1, "all")
    assert sorted(m.members() for m in out) == [(0,), (1,)]


def test_enumerate_E_full_positive():
    out = enumerate_E(2, 4, "positive")
    assert len(out) == 1 and out[0].is_theorem_K()


def test_enumerate_E_positive_pairs():
    out = enumerate_E(2, 2, "positive")
    assert sorted(m.members() for m in out) == [(0, 3), (1, 3), (2, 3)]


def test_enumerate_E_sizes_sum():
    # sum over k of |E_v(k)| is the number of level-0 formulas
    for v in (1, 2, 3):
        n = 1 << v
        total = sum(len(enumerate_E(v, k, "all")) for k in range(n + 1))
        assert total == 1 << n


def test_enumerate_E_complement_duality():
    # complementing a negative k-formula gives a positive (n-k)-formula
    for v in (1, 2):
        n = 1 << v
        for k in range(n):
            neg = enumerate_E(v, k, "negative")
            pos = {m.members() for m in enumerate_E(v, n - k, "positive")}
            assert {(~m).members() for m in neg} == pos


def test_enumerate_E_range_error():
    with pytest.raises(ValueError):
        enumerate_E(1, 3, "all")
    with pytest.raises(ValueError):
        enumerate_E(1, 1, "bogus")


def test_index_bit_mask_matches_repunit_division():
    # the doubling build against one period times the repunit of its width
    for v, d in ((0, 0), (3, 0), (1, 1), (2, 1), (3, 1), (1, 2)):
        ctx = context(v, d)
        for bit in range(ctx.universe_size.bit_length() + 1):
            half = 1 << bit
            block = ((1 << half) - 1) << half
            want = block * (ctx.full // ((1 << (2 * half)) - 1))
            assert index_bit_mask(bit, ctx.universe_size) == want
