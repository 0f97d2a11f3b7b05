//! The BPF interpreter.
//!
//! Pointers handed to programs are *synthetic* 64-bit addresses in
//! disjoint regions (context, block data, scratch, stack, map values), so
//! the interpreter is entirely safe Rust: every load/store resolves the
//! address to a region-relative slice with bounds and permission checks.
//! The verifier proves these checks can never fire for accepted programs;
//! the interpreter keeps them anyway (defense in depth, and they make the
//! verifier property-testable: *verified programs never trap*).
//!
//! A program is decoded once into a [`DecodedProg`]: one compact op per
//! slot with registers validated, immediates extended, access widths
//! split out, and jump targets resolved. The kernel decodes at install
//! and runs the decoded form on every hop; [`Vm::run`] decodes and runs
//! in one call. Decoding removes per-instruction fetch and decode work
//! only. Every memory access is still checked at runtime, every
//! instruction still counts against the budget, and a slot that would
//! trap still traps when, and only if, it executes.
//!
//! Execution cost is returned as the number of instructions retired plus
//! helper invocations; `bpfstor-kernel` converts that into simulated
//! nanoseconds when charging the completion path.

use crate::insn::{
    access_size, imm64_of, Insn, ALU_ADD, ALU_AND, ALU_ARSH, ALU_DIV, ALU_END, ALU_LSH, ALU_MOD,
    ALU_MOV, ALU_MUL, ALU_NEG, ALU_OR, ALU_RSH, ALU_SUB, ALU_XOR, CLS_ALU, CLS_ALU64, CLS_JMP,
    CLS_LD, CLS_LDX, CLS_ST, CLS_STX, END_TO_BE, JMP_CALL, JMP_EXIT, JMP_JA, JMP_JEQ, JMP_JGE,
    JMP_JGT, JMP_JLE, JMP_JLT, JMP_JNE, JMP_JSET, JMP_JSGE, JMP_JSGT, JMP_JSLE, JMP_JSLT, MODE_MEM,
    NUM_REGS, OP_LD_IMM64, REG_FP, SRC_X, STACK_SIZE,
};
use crate::maps::{MapError, MapSet};
use crate::program::{ctx_off, helper, Program};

/// Base address of the context region.
pub const CTX_BASE: u64 = 0x1000_0000_0000;
/// Base address of the completed block buffer region.
pub const DATA_BASE: u64 = 0x2000_0000_0000;
/// Base address of the chain scratch region.
pub const SCRATCH_BASE: u64 = 0x3000_0000_0000;
/// Base address of the stack region (the frame pointer is `STACK_BASE + 512`).
pub const STACK_BASE: u64 = 0x4000_0000_0000;
/// Base address of map-value pointers; bits 32.. select the value slot.
pub const MAPVAL_BASE: u64 = 0x5000_0000_0000;

const REGION_MASK: u64 = 0xF000_0000_0000;

/// Default per-invocation instruction budget (matches the order of the
/// Linux verifier's 1M-insn analysis bound; far above any traversal
/// program's needs).
pub const DEFAULT_INSN_BUDGET: u64 = 1 << 20;

/// Runtime faults. Verified programs never produce these (see the
/// property tests), but hand-built unverified programs can.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// A memory access fell outside its region or the region is absent.
    OutOfBounds {
        /// Synthetic address of the access.
        addr: u64,
        /// Access width in bytes.
        len: usize,
        /// Program counter of the faulting instruction.
        pc: usize,
    },
    /// A store targeted a read-only region (context or block data).
    WriteToReadOnly {
        /// Synthetic address of the store.
        addr: u64,
        /// Program counter of the faulting instruction.
        pc: usize,
    },
    /// Unknown or malformed opcode.
    IllegalInsn {
        /// Program counter.
        pc: usize,
        /// The opcode byte.
        op: u8,
    },
    /// Jump target outside the program.
    BadJump {
        /// Program counter of the jump.
        pc: usize,
        /// Attempted destination slot.
        to: i64,
    },
    /// Fell off the end of the instruction stream without `exit`.
    FellThrough,
    /// The instruction budget was exhausted (runaway loop).
    BudgetExceeded,
    /// Unknown helper id.
    BadHelper {
        /// Program counter of the call.
        pc: usize,
        /// The helper id.
        id: i32,
    },
    /// A map helper failed structurally (bad id, key size...).
    Map(MapError),
    /// A register outside `r0..=r10` was referenced.
    BadRegister {
        /// Program counter.
        pc: usize,
    },
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Trap::OutOfBounds { addr, len, pc } => {
                write!(f, "out-of-bounds access of {len}B at {addr:#x} (pc {pc})")
            }
            Trap::WriteToReadOnly { addr, pc } => {
                write!(f, "write to read-only memory at {addr:#x} (pc {pc})")
            }
            Trap::IllegalInsn { pc, op } => write!(f, "illegal insn {op:#04x} at pc {pc}"),
            Trap::BadJump { pc, to } => write!(f, "jump from pc {pc} to invalid slot {to}"),
            Trap::FellThrough => write!(f, "control fell off the end of the program"),
            Trap::BudgetExceeded => write!(f, "instruction budget exceeded"),
            Trap::BadHelper { pc, id } => write!(f, "unknown helper {id} at pc {pc}"),
            Trap::Map(e) => write!(f, "map error: {e}"),
            Trap::BadRegister { pc } => write!(f, "bad register at pc {pc}"),
        }
    }
}

impl std::error::Error for Trap {}

impl From<MapError> for Trap {
    fn from(e: MapError) -> Self {
        Trap::Map(e)
    }
}

/// Input context for one program invocation: the completed block, chain
/// metadata, and the chain's scratch buffer.
pub struct RunCtx<'a> {
    /// The completed block's bytes (read-only to the program).
    pub data: &'a [u8],
    /// File offset the block was read from.
    pub file_off: u64,
    /// Resubmission count so far in this chain.
    pub hop: u32,
    /// Application-defined flags from install time.
    pub flags: u32,
    /// Chain-persistent scratch memory (read-write).
    pub scratch: &'a mut [u8],
}

/// Environment the kernel supplies for side-effecting helpers.
pub trait ExecEnv {
    /// `resubmit(file_off)` helper: recycle the descriptor toward
    /// `file_off`. Returns 0 or a negative errno.
    fn resubmit(&mut self, file_off: u64) -> i64;
    /// `emit(ptr, len)` helper body: append `data` to the result buffer.
    /// Returns bytes accepted or a negative errno.
    fn emit(&mut self, data: &[u8]) -> i64;
    /// `trace(code)` helper: diagnostic hook; default is a no-op.
    fn trace(&mut self, _code: u64) {}
}

/// An [`ExecEnv`] that records helper activity; used by tests and as a
/// building block for unit benchmarks.
#[derive(Debug, Default)]
pub struct RecordingEnv {
    /// Arguments passed to `resubmit`, in call order.
    pub resubmits: Vec<u64>,
    /// Bytes emitted, concatenated.
    pub emitted: Vec<u8>,
    /// Trace codes seen.
    pub traces: Vec<u64>,
    /// If set, `resubmit` returns this error instead of 0.
    pub fail_resubmit: Option<i64>,
}

impl ExecEnv for RecordingEnv {
    fn resubmit(&mut self, file_off: u64) -> i64 {
        self.resubmits.push(file_off);
        self.fail_resubmit.unwrap_or(0)
    }

    fn emit(&mut self, data: &[u8]) -> i64 {
        self.emitted.extend_from_slice(data);
        data.len() as i64
    }

    fn trace(&mut self, code: u64) {
        self.traces.push(code);
    }
}

/// Statistics from one program invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// The program's return value (`r0` at `exit`).
    pub ret: u64,
    /// Instructions retired.
    pub insns: u64,
    /// Helper calls performed.
    pub helper_calls: u64,
}

pub(crate) struct MapValSlot {
    pub(crate) map_id: u32,
    pub(crate) key: Vec<u8>,
    pub(crate) data: Vec<u8>,
}

/// The interpreter's entry point for programs that are run once; owns no
/// program state between runs except the configurable instruction budget.
///
/// [`Vm::run`] decodes the program and runs the decoded form. Callers that
/// run one program many times (the kernel's hook path) build a
/// [`DecodedProg`] once and run that instead.
pub struct Vm {
    budget: u64,
}

impl Default for Vm {
    fn default() -> Self {
        Self::new()
    }
}

impl Vm {
    /// Creates an interpreter with the default instruction budget.
    pub fn new() -> Self {
        Vm {
            budget: DEFAULT_INSN_BUDGET,
        }
    }

    /// Overrides the per-invocation instruction budget.
    pub fn with_budget(budget: u64) -> Self {
        Vm { budget }
    }

    /// Runs `prog` over `ctx`, dispatching helpers to `env` and map
    /// helpers to `maps`.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on any runtime fault. Verified programs do not
    /// trap (enforced by property tests in the verifier module).
    pub fn run(
        &self,
        prog: &Program,
        ctx: RunCtx<'_>,
        maps: &mut MapSet,
        env: &mut dyn ExecEnv,
    ) -> Result<RunOutcome, Trap> {
        DecodedProg::new(prog).run_budgeted(self.budget, ctx, maps, env)
    }
}

/// One decoded instruction slot. Register fields are validated
/// (`< NUM_REGS`), immediates are extended the way the slot's class
/// reads them, access widths are split into variants, and jump targets
/// are slot indices into the decoded program.
#[derive(Debug, Clone, Copy)]
enum Op {
    MovImm {
        dst: u8,
        imm: u64,
    },
    MovReg {
        dst: u8,
        src: u8,
    },
    AddImm {
        dst: u8,
        imm: u64,
    },
    AddReg {
        dst: u8,
        src: u8,
    },
    MulImm {
        dst: u8,
        imm: u64,
    },
    /// Shift amount pre-masked to `0..64`.
    LshImm {
        dst: u8,
        shift: u32,
    },
    Alu64Imm {
        code: u8,
        dst: u8,
        imm: u64,
    },
    Alu64Reg {
        code: u8,
        dst: u8,
        src: u8,
    },
    Alu32Imm {
        code: u8,
        dst: u8,
        imm: u32,
    },
    Alu32Reg {
        code: u8,
        dst: u8,
        src: u8,
    },
    /// Byte swap with a validated width.
    End {
        op: u8,
        width: i32,
        dst: u8,
    },
    /// Retires as one instruction and skips the second slot.
    LdImm64 {
        dst: u8,
        imm: u64,
    },
    LdxB {
        dst: u8,
        src: u8,
        off: u64,
    },
    LdxH {
        dst: u8,
        src: u8,
        off: u64,
    },
    LdxW {
        dst: u8,
        src: u8,
        off: u64,
    },
    LdxDw {
        dst: u8,
        src: u8,
        off: u64,
    },
    St {
        len: u8,
        dst: u8,
        off: u64,
        imm: u64,
    },
    Stx {
        len: u8,
        dst: u8,
        src: u8,
        off: u64,
    },
    Call {
        id: i32,
    },
    Exit,
    Ja {
        to: usize,
    },
    JeqImm {
        dst: u8,
        imm: u64,
        to: usize,
    },
    JneImm {
        dst: u8,
        imm: u64,
        to: usize,
    },
    JgtImm {
        dst: u8,
        imm: u64,
        to: usize,
    },
    JgtReg {
        dst: u8,
        src: u8,
        to: usize,
    },
    JgeReg {
        dst: u8,
        src: u8,
        to: usize,
    },
    JmpImm {
        code: u8,
        wide: bool,
        dst: u8,
        imm: u64,
        to: usize,
    },
    JmpReg {
        code: u8,
        wide: bool,
        dst: u8,
        src: u8,
        to: usize,
    },
    /// A slot that traps when it executes, after it retires (bad
    /// register, illegal opcode); indexes [`DecodedProg::faults`].
    Fault(usize),
    /// A position outside the program: the slot past the end, or the
    /// destination of an out-of-range jump. It traps *before* retiring,
    /// as fetching it fails.
    Stop(usize),
}

/// A program decoded once into a compact op per slot, for the
/// interpreter to run many times.
///
/// Decoding validates and extends every operand up front, so the run
/// loop is a single `match` per instruction. Nothing is proven away:
/// each access still resolves its region and checks bounds and write
/// permission, and each instruction still counts against the budget. A
/// slot that would trap is decoded into a deferred trap raised only if
/// that slot executes, so traps, their `pc` payloads, and the retired
/// count at which a budget trap fires are the same as decoding each
/// instruction at the moment it runs.
pub struct DecodedProg {
    /// One op per slot, then the fall-through stop at index `len`, then
    /// one stop per out-of-range jump.
    ops: Vec<Op>,
    /// The traps that [`Op::Fault`] and [`Op::Stop`] raise.
    faults: Vec<Trap>,
}

impl std::fmt::Debug for DecodedProg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodedProg")
            .field("ops", &self.ops.len())
            .field("faults", &self.faults.len())
            .finish()
    }
}

/// Builds a [`DecodedProg`]: decodes slots and allocates the stop and
/// fault entries they refer to.
struct Decoder<'a> {
    insns: &'a [Insn],
    /// Ops past the last slot: the fall-through stop, then jump stops.
    stops: Vec<Op>,
    faults: Vec<Trap>,
}

impl Decoder<'_> {
    fn fault(&mut self, trap: Trap) -> usize {
        self.faults.push(trap);
        self.faults.len() - 1
    }

    /// The op index a jump at `pc` lands on: the slot itself, or a stop
    /// raising [`Trap::BadJump`] when the slot is outside the program.
    fn target(&mut self, pc: usize, off: i16) -> usize {
        let to = pc as i64 + 1 + off as i64;
        if to >= 0 && (to as usize) < self.insns.len() {
            return to as usize;
        }
        let f = self.fault(Trap::BadJump { pc, to });
        self.stops.push(Op::Stop(f));
        self.insns.len() + self.stops.len() - 1
    }

    /// Decodes the slot at `pc` on its own. `Err` is the trap the slot
    /// raises when it executes.
    fn slot(&mut self, pc: usize) -> Result<Op, Trap> {
        let insn = self.insns[pc];
        let op = insn.op;
        if insn.dst as usize >= NUM_REGS || insn.src as usize >= NUM_REGS {
            return Err(Trap::BadRegister { pc });
        }
        let (dst, src) = (insn.dst, insn.src);
        let code = op & 0xf0;
        let by_reg = op & SRC_X != 0;
        let illegal = Trap::IllegalInsn { pc, op };
        Ok(match insn.class() {
            CLS_ALU64 => {
                alu64(op, 0, 0, pc)?;
                let imm = insn.imm as i64 as u64;
                match (code, by_reg) {
                    (ALU_MOV, true) => Op::MovReg { dst, src },
                    (ALU_ADD, true) => Op::AddReg { dst, src },
                    (_, true) => Op::Alu64Reg { code, dst, src },
                    (ALU_MOV, false) => Op::MovImm { dst, imm },
                    (ALU_ADD, false) => Op::AddImm { dst, imm },
                    (ALU_MUL, false) => Op::MulImm { dst, imm },
                    (ALU_LSH, false) => Op::LshImm {
                        dst,
                        shift: imm as u32 & 63,
                    },
                    (_, false) => Op::Alu64Imm { code, dst, imm },
                }
            }
            CLS_ALU if code == ALU_END => {
                endian(op, insn.imm, 0, pc)?;
                Op::End {
                    op,
                    width: insn.imm,
                    dst,
                }
            }
            CLS_ALU => {
                alu32(op, 0, 0, pc)?;
                if by_reg {
                    Op::Alu32Reg { code, dst, src }
                } else {
                    Op::Alu32Imm {
                        code,
                        dst,
                        imm: insn.imm as u32,
                    }
                }
            }
            CLS_LD => {
                if op != OP_LD_IMM64 {
                    return Err(illegal);
                }
                let Some(hi) = self.insns.get(pc + 1) else {
                    return Err(illegal);
                };
                if hi.op != 0 {
                    return Err(Trap::IllegalInsn {
                        pc: pc + 1,
                        op: hi.op,
                    });
                }
                Op::LdImm64 {
                    dst,
                    imm: imm64_of(&insn, hi),
                }
            }
            CLS_LDX => {
                if op & 0x60 != MODE_MEM {
                    return Err(illegal);
                }
                let off = insn.off as i64 as u64;
                match access_size(op) {
                    1 => Op::LdxB { dst, src, off },
                    2 => Op::LdxH { dst, src, off },
                    4 => Op::LdxW { dst, src, off },
                    _ => Op::LdxDw { dst, src, off },
                }
            }
            CLS_ST | CLS_STX => {
                if op & 0x60 != MODE_MEM {
                    return Err(illegal);
                }
                let len = access_size(op) as u8;
                let off = insn.off as i64 as u64;
                if insn.class() == CLS_STX {
                    Op::Stx { len, dst, src, off }
                } else {
                    Op::St {
                        len,
                        dst,
                        off,
                        imm: insn.imm as i64 as u64,
                    }
                }
            }
            // CLS_JMP | CLS_JMP32: the only classes left.
            _ => match code {
                JMP_CALL => Op::Call { id: insn.imm },
                JMP_EXIT => Op::Exit,
                JMP_JA => Op::Ja {
                    to: self.target(pc, insn.off),
                },
                _ => {
                    jump_taken(code, 0, 0, true).ok_or(illegal)?;
                    let wide = insn.class() == CLS_JMP;
                    let to = self.target(pc, insn.off);
                    match (code, by_reg, wide) {
                        (JMP_JGT, true, true) => Op::JgtReg { dst, src, to },
                        (JMP_JGE, true, true) => Op::JgeReg { dst, src, to },
                        (_, true, _) => Op::JmpReg {
                            code,
                            wide,
                            dst,
                            src,
                            to,
                        },
                        (_, false, true) => {
                            let imm = insn.imm as i64 as u64;
                            match code {
                                JMP_JEQ => Op::JeqImm { dst, imm, to },
                                JMP_JNE => Op::JneImm { dst, imm, to },
                                JMP_JGT => Op::JgtImm { dst, imm, to },
                                _ => Op::JmpImm {
                                    code,
                                    wide,
                                    dst,
                                    imm,
                                    to,
                                },
                            }
                        }
                        (_, false, false) => Op::JmpImm {
                            code,
                            wide,
                            dst,
                            imm: insn.imm as u32 as u64,
                            to,
                        },
                    }
                }
            },
        })
    }
}

impl DecodedProg {
    /// Decodes every slot of `prog`. Never fails: a slot that cannot run
    /// becomes a trap raised when (and only if) it executes.
    pub fn new(prog: &Program) -> Self {
        let mut d = Decoder {
            insns: &prog.insns,
            stops: Vec::new(),
            faults: Vec::new(),
        };
        let fell = d.fault(Trap::FellThrough);
        d.stops.push(Op::Stop(fell));
        let mut ops = Vec::with_capacity(prog.insns.len() + 1);
        for pc in 0..prog.insns.len() {
            let op = d.slot(pc).unwrap_or_else(|trap| Op::Fault(d.fault(trap)));
            ops.push(op);
        }
        ops.append(&mut d.stops);
        DecodedProg {
            ops,
            faults: d.faults,
        }
    }

    /// Runs with the default instruction budget; the decoded equivalent
    /// of `Vm::new().run(...)`.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on any runtime fault.
    pub fn run(
        &self,
        ctx: RunCtx<'_>,
        maps: &mut MapSet,
        env: &mut dyn ExecEnv,
    ) -> Result<RunOutcome, Trap> {
        self.run_budgeted(DEFAULT_INSN_BUDGET, ctx, maps, env)
    }

    /// Runs with an explicit instruction budget; the decoded equivalent
    /// of `Vm::with_budget(budget).run(...)`.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on any runtime fault, including
    /// [`Trap::BudgetExceeded`] when the instruction after the
    /// `budget`-th would retire.
    pub fn run_budgeted(
        &self,
        budget: u64,
        ctx: RunCtx<'_>,
        maps: &mut MapSet,
        env: &mut dyn ExecEnv,
    ) -> Result<RunOutcome, Trap> {
        let mut mem = Mem::new(ctx);
        // Sixteen entries so that `r & 15` indexes without a bounds
        // check; decoding keeps every register below NUM_REGS.
        let mut reg = [0u64; 16];
        reg[1] = CTX_BASE;
        reg[REG_FP as usize] = STACK_BASE + STACK_SIZE as u64;
        let ops = &self.ops[..];
        let mut retired: u64 = 0;
        let mut helper_calls: u64 = 0;
        let mut pc: usize = 0;

        macro_rules! r {
            ($i:expr) => {
                reg[($i & 15) as usize]
            };
        }
        macro_rules! jump_if {
            ($cond:expr, $to:expr) => {
                if $cond {
                    $to
                } else {
                    pc + 1
                }
            };
        }

        loop {
            // Every path keeps `pc` inside `ops`: slots fall through to
            // the next slot or to the stop at `len`, and jumps land on a
            // slot or on a stop.
            let op = ops[pc];
            retired += 1;
            if retired > budget {
                // A stop is not an instruction: its trap outranks the
                // budget, as fetching past the program fails first.
                return Err(match op {
                    Op::Stop(f) => self.faults[f].clone(),
                    _ => Trap::BudgetExceeded,
                });
            }
            pc = match op {
                Op::MovImm { dst, imm } => {
                    r!(dst) = imm;
                    pc + 1
                }
                Op::MovReg { dst, src } => {
                    r!(dst) = r!(src);
                    pc + 1
                }
                Op::AddImm { dst, imm } => {
                    r!(dst) = r!(dst).wrapping_add(imm);
                    pc + 1
                }
                Op::AddReg { dst, src } => {
                    r!(dst) = r!(dst).wrapping_add(r!(src));
                    pc + 1
                }
                Op::MulImm { dst, imm } => {
                    r!(dst) = r!(dst).wrapping_mul(imm);
                    pc + 1
                }
                Op::LshImm { dst, shift } => {
                    r!(dst) <<= shift;
                    pc + 1
                }
                Op::Alu64Imm { code, dst, imm } => {
                    r!(dst) = alu64_total(code, r!(dst), imm);
                    pc + 1
                }
                Op::Alu64Reg { code, dst, src } => {
                    r!(dst) = alu64_total(code, r!(dst), r!(src));
                    pc + 1
                }
                Op::Alu32Imm { code, dst, imm } => {
                    r!(dst) = alu32_total(code, r!(dst) as u32, imm) as u64;
                    pc + 1
                }
                Op::Alu32Reg { code, dst, src } => {
                    r!(dst) = alu32_total(code, r!(dst) as u32, r!(src) as u32) as u64;
                    pc + 1
                }
                Op::End { op, width, dst } => {
                    r!(dst) = endian_total(op, width, r!(dst));
                    pc + 1
                }
                Op::LdImm64 { dst, imm } => {
                    r!(dst) = imm;
                    pc + 2
                }
                Op::LdxB { dst, src, off } => {
                    r!(dst) = mem.load::<1>(r!(src).wrapping_add(off), pc)?;
                    pc + 1
                }
                Op::LdxH { dst, src, off } => {
                    r!(dst) = mem.load::<2>(r!(src).wrapping_add(off), pc)?;
                    pc + 1
                }
                Op::LdxW { dst, src, off } => {
                    r!(dst) = mem.load::<4>(r!(src).wrapping_add(off), pc)?;
                    pc + 1
                }
                Op::LdxDw { dst, src, off } => {
                    r!(dst) = mem.load::<8>(r!(src).wrapping_add(off), pc)?;
                    pc + 1
                }
                Op::St { len, dst, off, imm } => {
                    mem.store(r!(dst).wrapping_add(off), len as usize, imm, pc)?;
                    pc + 1
                }
                Op::Stx { len, dst, src, off } => {
                    mem.store(r!(dst).wrapping_add(off), len as usize, r!(src), pc)?;
                    pc + 1
                }
                Op::Call { id } => {
                    helper_calls += 1;
                    call_helper(id, pc, &mut reg, &mut mem, maps, env)?;
                    // Helper calls clobber the caller-saved argument
                    // registers, as on real eBPF.
                    reg[1..6].fill(0);
                    pc + 1
                }
                Op::Exit => {
                    flush_mapvals(maps, &mem.mapvals)?;
                    return Ok(RunOutcome {
                        ret: reg[0],
                        insns: retired,
                        helper_calls,
                    });
                }
                Op::Ja { to } => to,
                Op::JeqImm { dst, imm, to } => jump_if!(r!(dst) == imm, to),
                Op::JneImm { dst, imm, to } => jump_if!(r!(dst) != imm, to),
                Op::JgtImm { dst, imm, to } => jump_if!(r!(dst) > imm, to),
                Op::JgtReg { dst, src, to } => jump_if!(r!(dst) > r!(src), to),
                Op::JgeReg { dst, src, to } => jump_if!(r!(dst) >= r!(src), to),
                Op::JmpImm {
                    code,
                    wide,
                    dst,
                    imm,
                    to,
                } => {
                    let a = if wide { r!(dst) } else { r!(dst) as u32 as u64 };
                    jump_if!(jump_taken(code, a, imm, wide) == Some(true), to)
                }
                Op::JmpReg {
                    code,
                    wide,
                    dst,
                    src,
                    to,
                } => {
                    let (a, b) = if wide {
                        (r!(dst), r!(src))
                    } else {
                        (r!(dst) as u32 as u64, r!(src) as u32 as u64)
                    };
                    jump_if!(jump_taken(code, a, b, wide) == Some(true), to)
                }
                Op::Fault(f) | Op::Stop(f) => return Err(self.faults[f].clone()),
            };
        }
    }
}

/// Builds the synthetic context block the program reads through `r1`:
/// the data/scratch pointers point into their synthetic regions so the
/// bounds encoded here match what [`Mem`] enforces.
fn build_ctx_buf(ctx: &RunCtx<'_>) -> [u8; ctx_off::SIZE as usize] {
    let mut ctx_buf = [0u8; ctx_off::SIZE as usize];
    let data_len = ctx.data.len() as u64;
    let scratch_len = ctx.scratch.len() as u64;
    write_u64(&mut ctx_buf, ctx_off::DATA as usize, DATA_BASE);
    write_u64(
        &mut ctx_buf,
        ctx_off::DATA_END as usize,
        DATA_BASE + data_len,
    );
    write_u64(&mut ctx_buf, ctx_off::FILE_OFF as usize, ctx.file_off);
    write_u32(&mut ctx_buf, ctx_off::HOP as usize, ctx.hop);
    write_u32(&mut ctx_buf, ctx_off::FLAGS as usize, ctx.flags);
    write_u64(&mut ctx_buf, ctx_off::SCRATCH as usize, SCRATCH_BASE);
    write_u64(
        &mut ctx_buf,
        ctx_off::SCRATCH_END as usize,
        SCRATCH_BASE + scratch_len,
    );
    ctx_buf
}

/// Everything a running program can address: the context block, the
/// completed block, the chain scratch, the stack, and the shadow copies
/// of map values the program looked up. Shared verbatim by the
/// interpreter and the compiled engine, so both check memory the same
/// way.
pub(crate) struct Mem<'a> {
    ctx_buf: [u8; ctx_off::SIZE as usize],
    data: &'a [u8],
    scratch: &'a mut [u8],
    stack: [u8; STACK_SIZE],
    pub(crate) mapvals: Vec<MapValSlot>,
}

impl<'a> Mem<'a> {
    pub(crate) fn new(ctx: RunCtx<'a>) -> Self {
        Mem {
            ctx_buf: build_ctx_buf(&ctx),
            data: ctx.data,
            scratch: ctx.scratch,
            stack: [0u8; STACK_SIZE],
            mapvals: Vec::new(),
        }
    }

    /// The readable bytes of the region `addr` points into, and the
    /// offset of `addr` in them; `None` for an unmapped address.
    #[inline]
    fn region(&self, addr: u64) -> Option<(&[u8], usize)> {
        let region = addr & REGION_MASK;
        let bytes: &[u8] = match region {
            CTX_BASE => &self.ctx_buf,
            DATA_BASE => self.data,
            SCRATCH_BASE => self.scratch,
            STACK_BASE => &self.stack,
            MAPVAL_BASE => {
                let slot = self.mapvals.get(((addr >> 32) & 0xFFF) as usize)?;
                return Some((&slot.data, (addr & 0xFFFF_FFFF) as usize));
            }
            _ => return None,
        };
        Some((bytes, (addr - region) as usize))
    }

    /// Loads the `N`-byte little-endian value at `addr`, zero-extended.
    #[inline]
    pub(crate) fn load<const N: usize>(&self, addr: u64, pc: usize) -> Result<u64, Trap> {
        let bytes = self
            .region(addr)
            .and_then(|(bytes, off)| bytes.get(off..off.checked_add(N)?));
        match bytes {
            Some(b) => {
                let mut le = [0u8; 8];
                le[..N].copy_from_slice(b);
                Ok(u64::from_le_bytes(le))
            }
            None => Err(Trap::OutOfBounds { addr, len: N, pc }),
        }
    }

    /// Stores the low `len` bytes of `value` at `addr`. The context and
    /// the completed block are read-only.
    pub(crate) fn store(
        &mut self,
        addr: u64,
        len: usize,
        value: u64,
        pc: usize,
    ) -> Result<(), Trap> {
        let region = addr & REGION_MASK;
        let (bytes, off): (&mut [u8], usize) = match region {
            CTX_BASE | DATA_BASE => return Err(Trap::WriteToReadOnly { addr, pc }),
            SCRATCH_BASE => (&mut *self.scratch, (addr - region) as usize),
            STACK_BASE => (&mut self.stack, (addr - region) as usize),
            MAPVAL_BASE => match self.mapvals.get_mut(((addr >> 32) & 0xFFF) as usize) {
                Some(slot) => (&mut slot.data, (addr & 0xFFFF_FFFF) as usize),
                None => return Err(Trap::OutOfBounds { addr, len, pc }),
            },
            _ => return Err(Trap::OutOfBounds { addr, len, pc }),
        };
        match off.checked_add(len).and_then(|end| bytes.get_mut(off..end)) {
            Some(dst) => {
                dst.copy_from_slice(&value.to_le_bytes()[..len]);
                Ok(())
            }
            None => Err(Trap::OutOfBounds { addr, len, pc }),
        }
    }

    /// Borrows `len` bytes at `addr` for a helper's pointer argument.
    ///
    /// A helper reads its operand as a run of single bytes, so a fault
    /// names the first byte outside the region (`len: 1`). A run cannot
    /// continue into another region: every byte between would have to
    /// lie past the end of the first one. The faulting byte is therefore
    /// the first one past the region's readable bytes, and nothing is
    /// read or allocated beyond them.
    pub(crate) fn bytes(&self, addr: u64, len: usize, pc: usize) -> Result<&[u8], Trap> {
        if len == 0 {
            return Ok(&[]);
        }
        let Some((bytes, off)) = self.region(addr) else {
            return Err(Trap::OutOfBounds { addr, len: 1, pc });
        };
        if let Some(b) = off.checked_add(len).and_then(|end| bytes.get(off..end)) {
            return Ok(b);
        }
        let readable = bytes.len().saturating_sub(off);
        Err(Trap::OutOfBounds {
            addr: addr + readable as u64,
            len: 1,
            pc,
        })
    }
}

pub(crate) fn call_helper(
    id: i32,
    pc: usize,
    reg: &mut [u64],
    mem: &mut Mem<'_>,
    maps: &mut MapSet,
    env: &mut dyn ExecEnv,
) -> Result<(), Trap> {
    match id {
        helper::TRACE => {
            env.trace(reg[1]);
            reg[0] = 0;
        }
        helper::RESUBMIT => {
            reg[0] = env.resubmit(reg[1]) as u64;
        }
        helper::EMIT => {
            let bytes = mem.bytes(reg[1], reg[2] as usize, pc)?;
            reg[0] = env.emit(bytes) as u64;
        }
        helper::MAP_LOOKUP => {
            flush_mapvals(maps, &mem.mapvals)?;
            let map_id = reg[1] as u32;
            let key_size = maps.spec(map_id)?.key_size as usize;
            let key = mem.bytes(reg[2], key_size, pc)?.to_vec();
            match maps.lookup(map_id, &key)? {
                Some(value) => {
                    let slot = mem.mapvals.len();
                    if slot >= 0x1000 {
                        return Err(Trap::Map(MapError::Full));
                    }
                    mem.mapvals.push(MapValSlot {
                        map_id,
                        key,
                        data: value.to_vec(),
                    });
                    reg[0] = MAPVAL_BASE | ((slot as u64) << 32);
                }
                None => reg[0] = 0,
            }
        }
        helper::MAP_UPDATE => {
            flush_mapvals(maps, &mem.mapvals)?;
            let map_id = reg[1] as u32;
            let spec = maps.spec(map_id)?;
            let key = mem.bytes(reg[2], spec.key_size as usize, pc)?;
            let value = mem.bytes(reg[3], spec.value_size as usize, pc)?;
            maps.update(map_id, key, value)?;
            reg[0] = 0;
        }
        _ => return Err(Trap::BadHelper { pc, id }),
    }
    Ok(())
}

/// Writes live map-value shadow buffers back into their maps so that
/// later helper calls (and the application, after the run) observe the
/// program's stores.
pub(crate) fn flush_mapvals(maps: &mut MapSet, mapvals: &[MapValSlot]) -> Result<(), Trap> {
    for sl in mapvals {
        maps.update(sl.map_id, &sl.key, &sl.data)?;
    }
    Ok(())
}

pub(crate) fn jump_taken(code: u8, a: u64, b: u64, wide: bool) -> Option<bool> {
    let (sa, sb) = if wide {
        (a as i64, b as i64)
    } else {
        (a as u32 as i32 as i64, b as u32 as i32 as i64)
    };
    Some(match code {
        JMP_JEQ => a == b,
        JMP_JNE => a != b,
        JMP_JGT => a > b,
        JMP_JGE => a >= b,
        JMP_JLT => a < b,
        JMP_JLE => a <= b,
        JMP_JSET => a & b != 0,
        JMP_JSGT => sa > sb,
        JMP_JSGE => sa >= sb,
        JMP_JSLT => sa < sb,
        JMP_JSLE => sa <= sb,
        _ => return None,
    })
}

/// The total ALU64 function over the *known* opcodes. Every known op is
/// defined on all inputs (division by zero yields 0, modulo by zero
/// leaves `lhs`, shift amounts are masked), so callers that have
/// validated `code` — decoded ops and the compiled tier's fused blocks —
/// can apply it without threading a `Result` through the hot loop.
/// Unknown codes fall through to `lhs` (a no-op); [`alu64`] screens them
/// out first.
pub(crate) fn alu64_total(code: u8, lhs: u64, rhs: u64) -> u64 {
    match code {
        ALU_ADD => lhs.wrapping_add(rhs),
        ALU_SUB => lhs.wrapping_sub(rhs),
        ALU_MUL => lhs.wrapping_mul(rhs),
        ALU_DIV => lhs.checked_div(rhs).unwrap_or(0),
        ALU_MOD => lhs.checked_rem(rhs).unwrap_or(lhs),
        ALU_OR => lhs | rhs,
        ALU_AND => lhs & rhs,
        ALU_XOR => lhs ^ rhs,
        ALU_LSH => lhs.wrapping_shl(rhs as u32 & 63),
        ALU_RSH => lhs.wrapping_shr(rhs as u32 & 63),
        ALU_ARSH => ((lhs as i64).wrapping_shr(rhs as u32 & 63)) as u64,
        ALU_MOV => rhs,
        ALU_NEG => (lhs as i64).wrapping_neg() as u64,
        _ => lhs,
    }
}

pub(crate) fn alu64(op: u8, lhs: u64, rhs: u64, pc: usize) -> Result<u64, Trap> {
    match op & 0xf0 {
        ALU_ADD | ALU_SUB | ALU_MUL | ALU_DIV | ALU_MOD | ALU_OR | ALU_AND | ALU_XOR | ALU_LSH
        | ALU_RSH | ALU_ARSH | ALU_MOV | ALU_NEG => Ok(alu64_total(op & 0xf0, lhs, rhs)),
        _ => Err(Trap::IllegalInsn { pc, op }),
    }
}

/// 32-bit analogue of [`alu64_total`]; see there for the contract.
pub(crate) fn alu32_total(code: u8, lhs: u32, rhs: u32) -> u32 {
    match code {
        ALU_ADD => lhs.wrapping_add(rhs),
        ALU_SUB => lhs.wrapping_sub(rhs),
        ALU_MUL => lhs.wrapping_mul(rhs),
        ALU_DIV => lhs.checked_div(rhs).unwrap_or(0),
        ALU_MOD => lhs.checked_rem(rhs).unwrap_or(lhs),
        ALU_OR => lhs | rhs,
        ALU_AND => lhs & rhs,
        ALU_XOR => lhs ^ rhs,
        ALU_LSH => lhs.wrapping_shl(rhs & 31),
        ALU_RSH => lhs.wrapping_shr(rhs & 31),
        ALU_ARSH => ((lhs as i32).wrapping_shr(rhs & 31)) as u32,
        ALU_MOV => rhs,
        ALU_NEG => (lhs as i32).wrapping_neg() as u32,
        _ => lhs,
    }
}

pub(crate) fn alu32(op: u8, lhs: u32, rhs: u32, pc: usize) -> Result<u32, Trap> {
    match op & 0xf0 {
        ALU_ADD | ALU_SUB | ALU_MUL | ALU_DIV | ALU_MOD | ALU_OR | ALU_AND | ALU_XOR | ALU_LSH
        | ALU_RSH | ALU_ARSH | ALU_MOV | ALU_NEG => Ok(alu32_total(op & 0xf0, lhs, rhs)),
        _ => Err(Trap::IllegalInsn { pc, op }),
    }
}

/// Byte-swap with a *validated* width (16/32/64); total like
/// [`alu64_total`]. An invalid width acts as a no-op; [`endian`]
/// screens widths before execution reaches here.
pub(crate) fn endian_total(op: u8, width: i32, v: u64) -> u64 {
    let to_be = op & 0x08 == END_TO_BE;
    match (width, to_be) {
        (16, true) => (v as u16).swap_bytes() as u64,
        (16, false) => (v as u16) as u64,
        (32, true) => (v as u32).swap_bytes() as u64,
        (32, false) => (v as u32) as u64,
        (64, true) => v.swap_bytes(),
        (64, false) => v,
        _ => v,
    }
}

pub(crate) fn endian(op: u8, width: i32, v: u64, pc: usize) -> Result<u64, Trap> {
    match width {
        16 | 32 | 64 => Ok(endian_total(op, width, v)),
        _ => Err(Trap::IllegalInsn { pc, op }),
    }
}

fn write_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

fn write_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::{Asm, Width};
    use crate::maps::MapSpec;
    use crate::program::Program;

    fn run_prog(prog: &Program, data: &[u8]) -> Result<(RunOutcome, RecordingEnv), Trap> {
        let mut scratch = [0u8; 64];
        let mut maps = MapSet::instantiate(&prog.maps).expect("maps");
        let mut env = RecordingEnv::default();
        let vm = Vm::new();
        let out = vm.run(
            prog,
            RunCtx {
                data,
                file_off: 0x1000,
                hop: 2,
                flags: 0xAB,
                scratch: &mut scratch,
            },
            &mut maps,
            &mut env,
        )?;
        Ok((out, env))
    }

    fn asm(f: impl FnOnce(&mut Asm)) -> Program {
        let mut a = Asm::new();
        f(&mut a);
        Program::new(a.finish().expect("assembles"))
    }

    #[test]
    fn mov_and_exit() {
        let p = asm(|a| {
            a.mov64_imm(0, 1234).exit();
        });
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 1234);
        assert_eq!(out.insns, 2);
    }

    #[test]
    fn alu64_semantics() {
        // ((((7 + 5) * 6) - 2) / 7) % 4 = (70 / 7) % 4 = 10 % 4 = 2
        let p = asm(|a| {
            a.mov64_imm(0, 7)
                .add64_imm(0, 5)
                .mul64_imm(0, 6)
                .sub64_imm(0, 2)
                .div64_imm(0, 7)
                .mod64_imm(0, 4)
                .exit();
        });
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 2);
    }

    #[test]
    fn div_and_mod_by_zero_are_defined() {
        let p = asm(|a| {
            a.mov64_imm(1, 0)
                .mov64_imm(0, 42)
                .div64_reg(0, 1) // 42 / 0 -> 0
                .add64_imm(0, 10) // 10
                .mod64_reg(0, 1) // 10 % 0 -> unchanged (10)
                .exit();
        });
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 10);
    }

    #[test]
    fn alu32_zero_extends() {
        let p = asm(|a| {
            a.ld_imm64(0, 0xFFFF_FFFF_FFFF_FFFF)
                .add32_imm(0, 1) // low 32 wrap to 0; upper bits cleared
                .exit();
        });
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 0);
    }

    #[test]
    fn negative_imm_sign_extends_in_alu64() {
        let p = asm(|a| {
            a.mov64_imm(0, -1).exit();
        });
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, u64::MAX);
    }

    #[test]
    fn shifts_mask_amounts() {
        let p = asm(|a| {
            a.mov64_imm(0, 1).lsh64_imm(0, 64 + 3).exit(); // shift of 67 == 3
        });
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 8);
    }

    #[test]
    fn arsh_is_arithmetic() {
        let p = asm(|a| {
            a.mov64_imm(0, -16).arsh64_imm(0, 2).exit();
        });
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret as i64, -4);
    }

    #[test]
    fn endianness_ops() {
        let p = asm(|a| {
            a.ld_imm64(0, 0x1122_3344_5566_7788).to_be(0, 16).exit();
        });
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 0x8877);
    }

    #[test]
    fn reads_block_data_through_ctx() {
        // r2 = ctx->data; r0 = *(u16*)(r2 + 2)
        let p = asm(|a| {
            a.ldx(Width::DW, 2, 1, ctx_off::DATA)
                .ldx(Width::H, 0, 2, 2)
                .exit();
        });
        let data = [0x01u8, 0x02, 0x03, 0x04];
        let (out, _) = run_prog(&p, &data).expect("runs");
        assert_eq!(out.ret, 0x0403);
    }

    #[test]
    fn ctx_scalar_fields() {
        let p = asm(|a| {
            a.ldx(Width::DW, 2, 1, ctx_off::FILE_OFF)
                .ldx(Width::W, 3, 1, ctx_off::HOP)
                .ldx(Width::W, 4, 1, ctx_off::FLAGS)
                .mov64_reg(0, 2)
                .add64_reg(0, 3)
                .add64_reg(0, 4)
                .exit();
        });
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 0x1000 + 2 + 0xAB);
    }

    #[test]
    fn data_read_past_end_traps() {
        let p = asm(|a| {
            a.ldx(Width::DW, 2, 1, ctx_off::DATA)
                .ldx(Width::DW, 0, 2, 0)
                .exit();
        });
        let err = run_prog(&p, &[0u8; 4]).unwrap_err();
        assert!(matches!(err, Trap::OutOfBounds { len: 8, .. }), "{err:?}");
    }

    #[test]
    fn data_is_read_only() {
        let p = asm(|a| {
            a.ldx(Width::DW, 2, 1, ctx_off::DATA)
                .st_imm(Width::B, 2, 0, 0)
                .exit();
        });
        let err = run_prog(&p, &[0u8; 4]).unwrap_err();
        assert!(matches!(err, Trap::WriteToReadOnly { .. }), "{err:?}");
    }

    #[test]
    fn ctx_is_read_only() {
        let p = asm(|a| {
            a.st_imm(Width::DW, 1, 0, 7).exit();
        });
        let err = run_prog(&p, &[]).unwrap_err();
        assert!(matches!(err, Trap::WriteToReadOnly { .. }), "{err:?}");
    }

    #[test]
    fn stack_read_write() {
        let p = asm(|a| {
            a.mov64_imm(2, 0x5A5A)
                .stx(Width::DW, 10, -8, 2)
                .ldx(Width::DW, 0, 10, -8)
                .exit();
        });
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 0x5A5A);
    }

    #[test]
    fn stack_overflow_traps() {
        let p = asm(|a| {
            a.st_imm(Width::DW, 10, -(STACK_SIZE as i16) - 8, 1).exit();
        });
        let err = run_prog(&p, &[]).unwrap_err();
        assert!(matches!(err, Trap::OutOfBounds { .. }), "{err:?}");
    }

    #[test]
    fn stack_access_above_fp_traps() {
        let p = asm(|a| {
            a.st_imm(Width::DW, 10, 0, 1).exit();
        });
        let err = run_prog(&p, &[]).unwrap_err();
        assert!(matches!(err, Trap::OutOfBounds { .. }), "{err:?}");
    }

    #[test]
    fn scratch_read_write_via_ctx() {
        let p = asm(|a| {
            a.ldx(Width::DW, 2, 1, ctx_off::SCRATCH)
                .st_imm(Width::W, 2, 4, 0x77)
                .ldx(Width::W, 0, 2, 4)
                .exit();
        });
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 0x77);
    }

    #[test]
    fn loops_execute_and_budget_bounds_runaways() {
        let p = asm(|a| {
            a.mov64_imm(0, 0)
                .label("loop")
                .add64_imm(0, 1)
                .jlt_imm(0, 100, "loop")
                .exit();
        });
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 100);

        let runaway = asm(|a| {
            a.label("spin").ja("spin").exit();
        });
        let err = run_prog(&runaway, &[]).unwrap_err();
        assert_eq!(err, Trap::BudgetExceeded);
    }

    #[test]
    fn fall_through_traps() {
        let p = asm(|a| {
            a.mov64_imm(0, 0);
        });
        let err = run_prog(&p, &[]).unwrap_err();
        assert_eq!(err, Trap::FellThrough);
    }

    #[test]
    fn helper_resubmit_and_return_code() {
        let p = asm(|a| {
            a.mov64_imm(1, 0x2000)
                .call(helper::RESUBMIT)
                .mov64_reg(6, 0)
                .mov64_imm(0, 1)
                .exit();
        });
        let (out, env) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 1);
        assert_eq!(env.resubmits, vec![0x2000]);
        assert_eq!(out.helper_calls, 1);
    }

    #[test]
    fn helper_emit_from_data() {
        // Emit the first 4 bytes of the block.
        let p = asm(|a| {
            a.ldx(Width::DW, 6, 1, ctx_off::DATA)
                .mov64_reg(1, 6)
                .mov64_imm(2, 4)
                .call(helper::EMIT)
                .mov64_imm(0, 2)
                .exit();
        });
        let data = [9u8, 8, 7, 6, 5];
        let (out, env) = run_prog(&p, &data).expect("runs");
        assert_eq!(out.ret, 2);
        assert_eq!(env.emitted, vec![9, 8, 7, 6]);
    }

    #[test]
    fn helper_clobbers_r1_to_r5() {
        let p = asm(|a| {
            a.mov64_imm(1, 11)
                .mov64_imm(2, 22)
                .mov64_imm(5, 55)
                .mov64_imm(6, 66)
                .call(helper::TRACE)
                .mov64_reg(0, 2)
                .add64_reg(0, 5)
                .add64_reg(0, 6) // r6 preserved
                .exit();
        });
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 66);
    }

    #[test]
    fn map_lookup_miss_returns_null() {
        let mut a = Asm::new();
        a.mov64_imm(1, 0)
            .mov64_reg(2, 10)
            .add64_imm(2, -8)
            .st_imm(Width::DW, 10, -8, 99)
            .call(helper::MAP_LOOKUP)
            .exit();
        let p = Program::with_maps(a.finish().expect("assembles"), vec![MapSpec::hash(8, 8, 4)]);
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 0, "miss yields NULL");
    }

    #[test]
    fn map_update_then_lookup_reads_value() {
        let mut a = Asm::new();
        // key at fp-8 = 5; value at fp-16 = 1234; update then lookup,
        // then read through the returned pointer.
        a.st_imm(Width::DW, 10, -8, 5)
            .st_imm(Width::DW, 10, -16, 1234)
            .mov64_imm(1, 0)
            .mov64_reg(2, 10)
            .add64_imm(2, -8)
            .mov64_reg(3, 10)
            .add64_imm(3, -16)
            .call(helper::MAP_UPDATE)
            .mov64_imm(1, 0)
            .mov64_reg(2, 10)
            .add64_imm(2, -8)
            .call(helper::MAP_LOOKUP)
            .jne_imm(0, 0, "hit")
            .mov64_imm(0, -1)
            .exit()
            .label("hit")
            .ldx(Width::DW, 0, 0, 0)
            .exit();
        let p = Program::with_maps(a.finish().expect("assembles"), vec![MapSpec::hash(8, 8, 4)]);
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 1234);
    }

    #[test]
    fn map_value_writes_flush_back() {
        // lookup array[0], increment through the pointer, exit; the map
        // must hold the incremented value afterwards.
        let mut a = Asm::new();
        a.st_imm(Width::W, 10, -4, 0)
            .mov64_imm(1, 0)
            .mov64_reg(2, 10)
            .add64_imm(2, -4)
            .call(helper::MAP_LOOKUP)
            .jne_imm(0, 0, "hit")
            .mov64_imm(0, -1)
            .exit()
            .label("hit")
            .ldx(Width::DW, 3, 0, 0)
            .add64_imm(3, 1)
            .stx(Width::DW, 0, 0, 3)
            .mov64_imm(0, 0)
            .exit();
        let p = Program::with_maps(a.finish().expect("assembles"), vec![MapSpec::array(8, 1)]);
        let mut scratch = [0u8; 16];
        let mut maps = MapSet::instantiate(&p.maps).expect("maps");
        let mut env = RecordingEnv::default();
        let vm = Vm::new();
        for expected in 1..=3u64 {
            vm.run(
                &p,
                RunCtx {
                    data: &[],
                    file_off: 0,
                    hop: 0,
                    flags: 0,
                    scratch: &mut scratch,
                },
                &mut maps,
                &mut env,
            )
            .expect("runs");
            let v = maps
                .lookup(0, &0u32.to_le_bytes())
                .expect("lookup")
                .expect("hit");
            assert_eq!(u64::from_le_bytes(v.try_into().expect("8B")), expected);
        }
    }

    #[test]
    fn unknown_helper_traps() {
        let p = asm(|a| {
            a.call(999).exit();
        });
        let err = run_prog(&p, &[]).unwrap_err();
        assert_eq!(err, Trap::BadHelper { pc: 0, id: 999 });
    }

    #[test]
    fn jmp32_compares_low_halves() {
        let p = asm(|a| {
            a.ld_imm64(2, 0xFFFF_FFFF_0000_0005)
                .mov64_imm(0, 0)
                .jeq32_imm(2, 5, "yes")
                .exit()
                .label("yes")
                .mov64_imm(0, 1)
                .exit();
        });
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 1);
    }

    #[test]
    fn signed_jumps() {
        let p = asm(|a| {
            a.mov64_imm(2, -5)
                .mov64_imm(0, 0)
                .jslt_imm(2, 0, "neg")
                .exit()
                .label("neg")
                .mov64_imm(0, 1)
                .exit();
        });
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 1, "-5 < 0 signed");
    }

    #[test]
    fn trace_helper_records() {
        let p = asm(|a| {
            a.mov64_imm(1, 7).call(helper::TRACE).mov64_imm(0, 0).exit();
        });
        let (_, env) = run_prog(&p, &[]).expect("runs");
        assert_eq!(env.traces, vec![7]);
    }

    use crate::insn::Insn;

    /// Runs `r0 <code>.32 r1` with 64-bit preloaded operands; the result
    /// is `r0` after the op, so every vector also checks zero-extension.
    fn alu32_reg_vec(code: u8, dst_val: u64, rhs_val: u64) -> u64 {
        let mut a = Asm::new();
        a.ld_imm64(0, dst_val).ld_imm64(1, rhs_val);
        let mut insns = a.finish().expect("assembles");
        insns.push(Insn {
            op: CLS_ALU | SRC_X | code,
            dst: 0,
            src: 1,
            off: 0,
            imm: 0,
        });
        insns.push(Insn {
            op: CLS_JMP | JMP_EXIT,
            dst: 0,
            src: 0,
            off: 0,
            imm: 0,
        });
        let p = Program::new(insns);
        run_prog(&p, &[]).expect("runs").0.ret
    }

    /// The immediate form: `r0 <code>.32 imm` (imm is NOT sign-extended
    /// to 64 bits on the 32-bit class, unlike ALU64).
    fn alu32_imm_vec(code: u8, dst_val: u64, imm: i32) -> u64 {
        let mut a = Asm::new();
        a.ld_imm64(0, dst_val);
        let mut insns = a.finish().expect("assembles");
        insns.push(Insn {
            op: CLS_ALU | code,
            dst: 0,
            src: 0,
            off: 0,
            imm,
        });
        insns.push(Insn {
            op: CLS_JMP | JMP_EXIT,
            dst: 0,
            src: 0,
            off: 0,
            imm: 0,
        });
        let p = Program::new(insns);
        run_prog(&p, &[]).expect("runs").0.ret
    }

    #[test]
    fn alu32_add_sub_wrap_and_zero_extend() {
        assert_eq!(alu32_reg_vec(ALU_ADD, u64::MAX, 1), 0);
        assert_eq!(alu32_reg_vec(ALU_ADD, 0xAAAA_BBBB_0000_0001, 2), 3);
        assert_eq!(alu32_reg_vec(ALU_SUB, 0x1_0000_0005, 7), 0xFFFF_FFFE);
        // 32-bit imms are zero-extended, not sign-extended: -1 is +0xFFFF_FFFF.
        assert_eq!(alu32_imm_vec(ALU_ADD, 5, -1), 4);
    }

    #[test]
    fn alu32_mul_div_truncate_before_operating() {
        assert_eq!(alu32_reg_vec(ALU_MUL, 0x8000_0001, 2), 2);
        assert_eq!(alu32_reg_vec(ALU_DIV, 0xFFFF_FFFF_0000_0008, 2), 4);
        assert_eq!(alu32_reg_vec(ALU_DIV, 42, 0), 0, "div32 by zero yields 0");
    }

    #[test]
    fn alu32_mod_by_zero_leaves_truncated_dst() {
        assert_eq!(alu32_reg_vec(ALU_MOD, 10, 3), 1);
        // Linux semantics: mod-by-zero leaves dst, but dst is the 32-bit
        // truncation — the upper half must NOT survive.
        assert_eq!(alu32_reg_vec(ALU_MOD, 0xFFFF_FFFF_0000_0007, 0), 7);
        assert_eq!(alu32_imm_vec(ALU_MOD, 0xDEAD_BEEF_0000_002A, 0), 0x2A);
    }

    #[test]
    fn alu32_bitwise_clear_upper_half() {
        assert_eq!(
            alu32_reg_vec(ALU_OR, 0xFFFF_0000_0000_00F0, 0x0F),
            0x0000_00FF
        );
        assert_eq!(
            alu32_reg_vec(ALU_AND, 0xFFFF_FFFF_FFFF_FFFF, 0x1234_5678),
            0x1234_5678
        );
        assert_eq!(
            alu32_reg_vec(ALU_XOR, 0xAAAA_AAAA_FFFF_FFFF, 0x0000_FFFF),
            0xFFFF_0000
        );
    }

    #[test]
    fn alu32_shifts_mask_to_31_and_stay_32_bit() {
        assert_eq!(alu32_reg_vec(ALU_LSH, 1, 33), 2, "shift of 33 == 1");
        assert_eq!(alu32_reg_vec(ALU_RSH, 0x8000_0000, 31), 1);
        // Logical right shift must not pull in bits 32..: only the low
        // word participates.
        assert_eq!(alu32_reg_vec(ALU_RSH, 0xFFFF_FFFF_8000_0000, 31), 1);
        // Arithmetic right shift sign-extends within 32 bits, then
        // zero-extends to 64.
        assert_eq!(alu32_reg_vec(ALU_ARSH, 0x8000_0000, 4), 0xF800_0000);
    }

    #[test]
    fn alu32_mov_and_neg_zero_extend() {
        assert_eq!(
            alu32_reg_vec(ALU_MOV, 0, 0xDEAD_BEEF_1234_5678),
            0x1234_5678
        );
        assert_eq!(alu32_imm_vec(ALU_NEG, 1, 0), 0xFFFF_FFFF);
        assert_eq!(alu32_imm_vec(ALU_NEG, 0xFFFF_FFFF_0000_0000, 0), 0);
    }

    fn end_vec(to_be: bool, width: i32, dst_val: u64) -> u64 {
        let mut a = Asm::new();
        a.ld_imm64(0, dst_val);
        let mut insns = a.finish().expect("assembles");
        insns.push(Insn {
            op: CLS_ALU | ALU_END | if to_be { END_TO_BE } else { 0 },
            dst: 0,
            src: 0,
            off: 0,
            imm: width,
        });
        insns.push(Insn {
            op: CLS_JMP | JMP_EXIT,
            dst: 0,
            src: 0,
            off: 0,
            imm: 0,
        });
        let p = Program::new(insns);
        run_prog(&p, &[]).expect("runs").0.ret
    }

    #[test]
    fn alu32_endian_zero_extends_all_widths() {
        let v = 0xAABB_CCDD_1122_3344u64;
        // On the little-endian simulated machine, to_le truncates and
        // zero-extends; to_be byte-swaps the truncated value.
        assert_eq!(end_vec(false, 16, v), 0x3344);
        assert_eq!(end_vec(false, 32, v), 0x1122_3344);
        assert_eq!(end_vec(false, 64, v), v);
        assert_eq!(end_vec(true, 16, v), 0x4433);
        assert_eq!(end_vec(true, 32, v), 0x4433_2211);
        assert_eq!(end_vec(true, 64, v), 0x4433_2211_DDCC_BBAA);
    }

    #[test]
    fn alu32_endian_bad_width_traps() {
        let mut a = Asm::new();
        a.ld_imm64(0, 7);
        let mut insns = a.finish().expect("assembles");
        insns.push(Insn {
            op: CLS_ALU | ALU_END,
            dst: 0,
            src: 0,
            off: 0,
            imm: 24,
        });
        let p = Program::new(insns);
        let err = run_prog(&p, &[]).unwrap_err();
        assert!(matches!(err, Trap::IllegalInsn { pc: 2, .. }), "{err:?}");
    }
}
