"""ISA-independent instruction and micro-op model.

Both toy ISAs (:mod:`repro.isa.x86` and :mod:`repro.isa.arm`) decode their
byte encodings into :class:`Instr` objects which *crack* into a shared
micro-op (:class:`UOp`) vocabulary.  The functional reference simulator
and both out-of-order timing simulators execute only µops, so the two
ISAs differ exactly where real ISAs differ: register pressure, encoding
density, cracking (x86 load-op / push / call do memory work), and
exception surface — not in executor semantics.

Register file layout (architectural integer space)::

    0..15   general purpose registers (ISA conventions differ)
    16      FLAGS / CPSR  (written by cmp, read by conditional branches)
    17..19  cracking temporaries (invisible to compilers/assemblers)

A separate 16-entry floating-point architectural space exists so the
simulators expose an injectable FP physical register file (Table II/IV of
the paper) even though the integer MiBench-like workloads never touch it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

NUM_GPR = 16
REG_FLAGS = 16
REG_T0 = 17
REG_T1 = 18
REG_T2 = 19
NUM_ARCH_REGS = 20
NUM_FP_ARCH_REGS = 16

MASK32 = 0xFFFFFFFF

# FLAGS bit positions (subset of a real status register: N, Z, C, V).
FLAG_N = 0x1
FLAG_Z = 0x2
FLAG_C = 0x4
FLAG_V = 0x8

ALU_OPS = frozenset(
    {
        "add", "sub", "and", "or", "xor", "shl", "shr", "sar",
        "mul", "div", "mod", "not", "neg", "mov", "cmp", "movt",
    }
)

# µop kinds.  ``sys`` executes at commit; ``br``/``jmp``/``ijmp`` resolve
# at execute and squash on misprediction.
UOP_KINDS = frozenset({"alu", "load", "store", "br", "jmp", "ijmp", "sys", "nop"})

BRANCH_CONDS = frozenset(
    {"eq", "ne", "lt", "le", "gt", "ge", "ult", "ule", "ugt", "uge"}
)

# Multi-cycle ALU latencies; everything else is single cycle.
ALU_LATENCY = {"mul": 3, "div": 12, "mod": 12}


def u32(x: int) -> int:
    """Wrap *x* to an unsigned 32-bit value."""
    return x & MASK32


def s32(x: int) -> int:
    """Interpret the low 32 bits of *x* as a signed value."""
    x &= MASK32
    return x - 0x100000000 if x & 0x80000000 else x


def compute_flags(a: int, b: int) -> int:
    """Flags produced by ``cmp a, b`` (a - b), matching the µop executor."""
    a &= MASK32
    b &= MASK32
    diff = (a - b) & MASK32
    flags = 0
    if diff & 0x80000000:
        flags |= FLAG_N
    if diff == 0:
        flags |= FLAG_Z
    if a < b:  # unsigned borrow
        flags |= FLAG_C
    sa, sb, sd = a >> 31, b >> 31, diff >> 31
    if sa != sb and sd != sa:  # signed overflow
        flags |= FLAG_V
    return flags


def cond_holds(cond: str, flags: int) -> bool:
    """Evaluate a branch condition against a FLAGS value."""
    n = bool(flags & FLAG_N)
    z = bool(flags & FLAG_Z)
    c = bool(flags & FLAG_C)
    v = bool(flags & FLAG_V)
    if cond == "eq":
        return z
    if cond == "ne":
        return not z
    if cond == "lt":
        return n != v
    if cond == "ge":
        return n == v
    if cond == "le":
        return z or n != v
    if cond == "gt":
        return not z and n == v
    if cond == "ult":
        return c
    if cond == "uge":
        return not c
    if cond == "ule":
        return c or z
    if cond == "ugt":
        return not c and not z
    raise ValueError(f"unknown branch condition {cond!r}")


class ArithFault(Exception):
    """Architectural arithmetic fault (division by zero)."""


def alu_exec(op: str, a: int, b: int, old_dst: int = 0) -> int:
    """Execute one ALU µop; all executors (functional and OoO) share this.

    ``a``/``b`` are the resolved source values (``b`` already holds the
    immediate for reg-imm forms), ``old_dst`` is the previous destination
    value (needed only by ``movt``).  Returns the 32-bit result; ``cmp``
    returns the FLAGS value.
    """
    if op == "add":
        return (a + b) & MASK32
    if op == "sub":
        return (a - b) & MASK32
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "shl":
        return (a << (b & 31)) & MASK32
    if op == "shr":
        return (a & MASK32) >> (b & 31)
    if op == "sar":
        return (s32(a) >> (b & 31)) & MASK32
    if op == "mul":
        return (a * b) & MASK32
    if op == "div":
        sb = s32(b)
        if sb == 0:
            raise ArithFault("div0")
        sa = s32(a)
        q = abs(sa) // abs(sb)
        if (sa < 0) != (sb < 0):
            q = -q
        return q & MASK32
    if op == "mod":
        sb = s32(b)
        if sb == 0:
            raise ArithFault("div0")
        sa = s32(a)
        q = abs(sa) // abs(sb)
        if (sa < 0) != (sb < 0):
            q = -q
        return (sa - q * sb) & MASK32
    if op == "not":
        return ~a & MASK32
    if op == "neg":
        return (-a) & MASK32
    if op == "mov":
        return b & MASK32 if a is None else a & MASK32
    if op == "movt":
        return ((old_dst & 0xFFFF) | ((b & 0xFFFF) << 16)) & MASK32
    if op == "cmp":
        return compute_flags(a, b)
    raise ValueError(f"unknown ALU op {op!r}")


class UOp:
    """One micro-operation.

    Fields are interpreted per *kind*:

    ``alu``
        ``rd = op(rs1, rs2 or imm)``; ``cmp`` writes :data:`REG_FLAGS`;
        ``mov`` copies ``rs1`` (or ``imm`` when ``rs1 is None``);
        ``movt`` sets the high 16 bits of ``rd`` keeping the low bits.
    ``load``
        ``rd = mem[rs1 + imm]`` of ``size`` bytes (zero-extended).
    ``store``
        ``mem[rs1 + imm] = rs2`` of ``size`` bytes.
    ``br``
        conditional; ``op`` is the condition, reads FLAGS, ``imm`` is the
        absolute target.
    ``jmp``
        unconditional; ``imm`` is the absolute target.
    ``ijmp``
        indirect; target is ``rs1 + imm``.
    ``sys``
        system call, executed at commit by the kernel model.
    """

    # ``srcs_t`` and ``dst_t`` are no longer set: they held per-µop
    # memos that dispatch plans replaced, and stay declared so that
    # golden blobs pickled with them still load.
    __slots__ = ("kind", "op", "rd", "rs1", "rs2", "imm", "size",
                 "srcs_t", "dst_t")

    def __init__(self, kind, op=None, rd=None, rs1=None, rs2=None, imm=0, size=4):
        self.kind = kind
        self.op = op
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.imm = imm
        self.size = size

    def srcs(self):
        """Architectural source registers read by this µop."""
        regs = []
        if self.kind == "alu":
            if self.rs1 is not None:
                regs.append(self.rs1)
            if self.rs2 is not None:
                regs.append(self.rs2)
            if self.op == "movt":
                regs.append(self.rd)
        elif self.kind == "load":
            regs.append(self.rs1)
        elif self.kind == "store":
            regs.append(self.rs1)
            regs.append(self.rs2)
        elif self.kind == "br":
            regs.append(REG_FLAGS)
        elif self.kind == "ijmp":
            regs.append(self.rs1)
        return regs

    def dst(self):
        """Architectural destination register, or ``None``."""
        if self.kind == "alu":
            return REG_FLAGS if self.op == "cmp" else self.rd
        if self.kind == "load":
            return self.rd
        return None

    def is_branch(self) -> bool:
        return self.kind in ("br", "jmp", "ijmp")

    def __repr__(self):
        return (
            f"UOp({self.kind},{self.op},rd={self.rd},rs1={self.rs1},"
            f"rs2={self.rs2},imm={self.imm:#x},sz={self.size})"
        )

    def __deepcopy__(self, memo):
        # µops are immutable once decoded; checkpoints share them.
        return self


@dataclass
class Instr:
    """One decoded architectural instruction."""

    mnemonic: str
    length: int
    uops: list = field(default_factory=list)
    # The out-of-order core's dispatch plan, built on first dispatch
    # (repro.sim.base._dispatch_plan).  An Instr unpickled from a blob
    # that predates the field reads the class default and rebuilds it.
    plan: tuple | None = field(default=None, compare=False)
    # Static branch metadata used by the front end.
    is_branch: bool = False
    is_call: bool = False
    is_ret: bool = False
    is_indirect: bool = False
    is_cond: bool = False
    target: int | None = None  # static target for direct branches
    raw: bytes = b""

    def __repr__(self):
        return f"Instr({self.mnemonic!r}, len={self.length})"

    def __deepcopy__(self, memo):
        # Decoded instructions are immutable; checkpoints share them.
        return self


@dataclass
class Section:
    """A contiguous region of a program image."""

    base: int
    data: bytes
    writable: bool
    executable: bool


@dataclass
class Program:
    """A fully linked program image for one ISA.

    Attributes
    ----------
    isa:
        ``"x86"`` or ``"arm"``.
    entry:
        Address of the first instruction.
    sections:
        Code and data sections to map before execution.
    symbols:
        Label → address map (useful in tests and debugging).
    name:
        A suite program's benchmark name (it names the access trace).
    """

    isa: str
    entry: int
    sections: list
    symbols: dict = field(default_factory=dict)
    name: str = ""

    @property
    def code_size(self) -> int:
        return sum(len(s.data) for s in self.sections if s.executable)

    @property
    def data_size(self) -> int:
        return sum(len(s.data) for s in self.sections if not s.executable)
