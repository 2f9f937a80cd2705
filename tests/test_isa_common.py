"""Unit tests for the shared ISA model (flags, ALU executor, µops)."""

import pytest
from hypothesis import given, strategies as st

from repro.isa.common import (FLAG_C, FLAG_N, FLAG_V, FLAG_Z, REG_FLAGS,
                              ArithFault, Instr, UOp, alu_exec,
                              compute_flags, cond_holds, s32, u32)

U32 = st.integers(min_value=0, max_value=0xFFFFFFFF)


class TestWrapping:
    def test_u32_wraps(self):
        assert u32(0x1_0000_0001) == 1
        assert u32(-1) == 0xFFFFFFFF

    def test_s32_sign(self):
        assert s32(0xFFFFFFFF) == -1
        assert s32(0x7FFFFFFF) == 0x7FFFFFFF
        assert s32(0x80000000) == -0x80000000

    @given(U32)
    def test_roundtrip(self, x):
        assert u32(s32(x)) == x


class TestFlags:
    def test_equal_sets_zero(self):
        assert compute_flags(5, 5) & FLAG_Z

    def test_less_than_signed(self):
        flags = compute_flags(u32(-3), 4)
        assert cond_holds("lt", flags)
        assert not cond_holds("ge", flags)

    def test_unsigned_borrow(self):
        assert compute_flags(1, 2) & FLAG_C
        assert not compute_flags(2, 1) & FLAG_C

    def test_overflow(self):
        # INT_MIN - 1 overflows.
        assert compute_flags(0x80000000, 1) & FLAG_V

    @given(U32, U32)
    def test_conditions_match_python(self, a, b):
        flags = compute_flags(a, b)
        assert cond_holds("eq", flags) == (a == b)
        assert cond_holds("ne", flags) == (a != b)
        assert cond_holds("lt", flags) == (s32(a) < s32(b))
        assert cond_holds("le", flags) == (s32(a) <= s32(b))
        assert cond_holds("gt", flags) == (s32(a) > s32(b))
        assert cond_holds("ge", flags) == (s32(a) >= s32(b))
        assert cond_holds("ult", flags) == (a < b)
        assert cond_holds("uge", flags) == (a >= b)
        assert cond_holds("ule", flags) == (a <= b)
        assert cond_holds("ugt", flags) == (a > b)

    def test_unknown_condition(self):
        with pytest.raises(ValueError):
            cond_holds("xx", 0)


class TestAluExec:
    @given(U32, U32)
    def test_add_sub_wrap(self, a, b):
        assert alu_exec("add", a, b) == (a + b) & 0xFFFFFFFF
        assert alu_exec("sub", a, b) == (a - b) & 0xFFFFFFFF

    @given(U32, st.integers(min_value=0, max_value=63))
    def test_shifts_mask_count(self, a, n):
        assert alu_exec("shl", a, n) == (a << (n & 31)) & 0xFFFFFFFF
        assert alu_exec("shr", a, n) == a >> (n & 31)

    @given(U32, U32)
    def test_division_truncates_toward_zero(self, a, b):
        sa, sb = s32(a), s32(b)
        if sb == 0:
            with pytest.raises(ArithFault):
                alu_exec("div", a, b)
            return
        q = s32(alu_exec("div", a, b))
        r = s32(alu_exec("mod", a, b))
        # C semantics: q truncated toward zero and a == q*b + r.
        assert u32(q * sb + r) == a & 0xFFFFFFFF
        if sa != -(2 ** 31) or sb != -1:  # avoid the wrap corner
            assert abs(q) == abs(sa) // abs(sb)

    def test_div_by_zero_raises(self):
        with pytest.raises(ArithFault):
            alu_exec("div", 10, 0)
        with pytest.raises(ArithFault):
            alu_exec("mod", 10, 0)

    def test_mov_variants(self):
        assert alu_exec("mov", 7, 99) == 7          # reg source
        assert alu_exec("mov", None, 99) == 99      # immediate
        assert alu_exec("movt", None, 0xABCD, old_dst=0x1234FFFF) == \
            0xABCDFFFF

    def test_not_neg(self):
        assert alu_exec("not", 0, 0) == 0xFFFFFFFF
        assert alu_exec("neg", 1, 0) == 0xFFFFFFFF

    def test_cmp_returns_flags(self):
        assert alu_exec("cmp", 3, 3) & FLAG_Z

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            alu_exec("frobnicate", 1, 2)

    def test_sar_is_arithmetic(self):
        assert alu_exec("sar", u32(-8), 1) == u32(-4)


class TestUOp:
    def test_alu_srcs_and_dst(self):
        uop = UOp("alu", "add", rd=3, rs1=3, rs2=5)
        assert uop.srcs() == [3, 5]
        assert uop.dst() == 3

    def test_cmp_writes_flags(self):
        uop = UOp("alu", "cmp", rs1=1, rs2=2)
        assert uop.dst() == REG_FLAGS

    def test_movt_reads_its_destination(self):
        uop = UOp("alu", "movt", rd=4, imm=0xFFFF)
        assert 4 in uop.srcs()

    def test_store_sources(self):
        uop = UOp("store", rs1=1, rs2=2, imm=8)
        assert uop.srcs() == [1, 2]
        assert uop.dst() is None

    def test_branch_reads_flags(self):
        uop = UOp("br", "eq", imm=0x2000)
        assert uop.srcs() == [REG_FLAGS]

    def test_dispatch_plan_views(self):
        from repro.sim.base import _dispatch_plan
        from repro.uarch.issueq import static_fields
        load = UOp("load", rd=2, rs1=1, imm=4)
        movt = UOp("alu", "movt", rd=3, rs1=4, rs2=5)  # reads rd too
        sys_ = UOp("sys")
        instr = Instr("x", 1, [load, movt, sys_])
        plan = _dispatch_plan(instr)
        assert instr.plan is plan
        # (nuops, need_iq, nloads, nstores, ndst)
        assert plan[:5] == (3, 2, 1, 0, 2)
        assert plan[5] == (
            (load, "load", 1, None, 2, static_fields("load", None, 4, 4)),
            (movt, "alu", 4, 5, 3, static_fields("alu", "movt", 4, 0)),
            (sys_, "sys", None, None, None, None))
        assert Instr("ud", 1, []).plan is None
        assert _dispatch_plan(Instr("ud", 1, []))[:5] == (1, 0, 0, 0, 0)

    def test_deepcopy_shares(self):
        import copy
        uop = UOp("nop")
        instr = Instr("nop", 1, [uop])
        assert copy.deepcopy(uop) is uop
        assert copy.deepcopy(instr) is instr
