"""Unit tests for the functional reference simulator."""

import pytest

from repro.sim.functional import FunctionalSim, run_program

from tests.helpers import (EXIT_ARM, EXIT_X86, assemble_arm, assemble_x86,
                           tiny_program)


class TestBasicExecution:
    def test_exit_code(self):
        prog = assemble_x86("li r0, 2\nli r1, 42\nsyscall\n")
        res = run_program(prog)
        assert res.reason == "exit" and res.exit_code == 42

    def test_instruction_limit(self):
        prog = assemble_x86("spin: jmp spin\n")
        sim = FunctionalSim(prog)
        out = sim.run(max_instrs=100)
        assert out.reason == "limit"
        assert out.stats["instrs"] == 100

    def test_stack_operations(self):
        prog = assemble_x86("""
  li r3, 7
  push r3
  li r3, 0
  pop r4
  mov r1, r4
  li r0, 2
  syscall
""")
        assert run_program(prog).exit_code == 7

    def test_call_ret(self):
        prog = assemble_x86("""
  call fn
  mov r1, r0
  li r0, 2
  syscall
fn:
  li r0, 33
  ret
""")
        assert run_program(prog).exit_code == 33

    def test_arm_bl_bx(self):
        prog = assemble_arm("""
  bl fn
  mov r1, r0
  li r0, 2
  svc
fn:
  li r0, 44
  bx lr
""")
        assert run_program(prog).exit_code == 44

    def test_flags_over_nonflag_ops(self):
        # Only cmp writes FLAGS; an add between cmp and jcc must not
        # disturb the condition.
        prog = assemble_x86("""
  li r1, 5
  cmp r1, 5
  add r1, 90
  jeq yes
  li r1, 0
yes:
  li r0, 2
  syscall
""")
        assert run_program(prog).exit_code == 95

    def test_byte_loads_zero_extend(self):
        prog = assemble_x86("""
  li r1, =data
  load8 r2, [r1+0]
  mov r1, r2
  li r0, 2
  syscall
""", data="data: .byte 255\n")
        assert run_program(prog).exit_code == 255


class TestFaults:
    def test_undefined_instruction(self):
        prog = assemble_x86("", data="")
        # Patch an undefined opcode right at the entry.
        sec = prog.sections[0]
        prog.sections[0] = type(sec)(sec.base, b"\xff", sec.writable,
                                     sec.executable)
        res = run_program(prog)
        assert res.reason == "killed:SIGILL"

    def test_null_load(self):
        prog = assemble_x86("li r1, 0\nload r0, [r1+0]\n" + EXIT_X86)
        assert run_program(prog).reason == "killed:SIGSEGV"

    def test_div_by_zero(self):
        prog = assemble_x86("li r0, 3\nli r1, 0\ndiv r0, r1\n" + EXIT_X86)
        assert run_program(prog).reason == "killed:SIGFPE"

    def test_kernel_page_protected_from_user(self):
        prog = assemble_x86("""
  li r1, =kaddr
  load r1, [r1+0]
  load r0, [r1+0]
""" + EXIT_X86, data="kaddr: .word 241664\n")  # 0x3B000 region
        sim = FunctionalSim(prog)
        # Point at the actual kernel page for this memory size.
        import struct
        struct.pack_into("<I", sim.mem.data,
                         sim.program.sections[1].base,
                         sim.kernel.kdata_base)
        out = sim.run()
        assert out.reason == "killed:SIGSEGV"

    def test_arm_unaligned_fixup_event(self):
        prog = assemble_arm("""
  li r1, =buf
  add r1, r1, 2
  li r2, 9
  str r2, [r1+0]
  ldr r3, [r1+0]
  mov r1, r3
  li r0, 2
  svc
""", data="buf: .space 8\n")
        res = run_program(prog)
        assert res.exit_code == 9
        assert res.events.count("align-fixup") == 2

    def test_x86_unaligned_is_silent(self):
        prog = assemble_x86("""
  li r1, =buf
  add r1, 1
  li r2, 9
  store [r1+0], r2
  load r3, [r1+0]
  mov r1, r3
  li r0, 2
  syscall
""", data="buf: .space 8\n")
        res = run_program(prog)
        assert res.exit_code == 9
        assert res.events == []


class TestStatsAndOutput:
    def test_stats_populated(self):
        res = run_program(tiny_program("x86"))
        st = res.stats
        assert st["instrs"] > 0 and st["uops"] >= st["instrs"]
        assert st["loads"] > 0 and st["stores"] > 0
        assert st["branches"] > 0 and st["taken"] <= st["branches"]
        assert st["syscalls"] >= 4  # three out() calls plus exit

    def test_output_stream_order(self):
        prog = assemble_x86("""
  li r4, 1
loop:
  li r1, =buf
  store [r1+0], r4
  li r0, 1
  li r2, 4
  syscall
  add r4, 1
  cmp r4, 4
  jne loop
""" + EXIT_X86, data="buf: .space 4\n")
        res = run_program(prog)
        words = [int.from_bytes(res.output[i:i + 4], "little")
                 for i in range(0, len(res.output), 4)]
        assert words == [1, 2, 3]
