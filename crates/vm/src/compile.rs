//! The compilation tier: a threaded-dispatch template JIT.
//!
//! [`compile`] walks the verifier's control-flow graph
//! ([`crate::verifier::build_cfg`]) and lowers every basic block to a
//! native Rust closure with its operands pre-decoded: register indices,
//! sign/zero-extended immediates, access widths, and jump targets are
//! all resolved at compile time, as in the interpreter's decoded form.
//! What the tier adds is block structure: control moves from block to
//! block, and runs of register-only ALU / endian / `ld_imm64` instructions
//! fuse into a single [`Micro`]-op vector retired as a batch, in which
//! adjacent pairs on one register fuse again into one micro-op — the
//! superinstruction trick of threaded-code compilers — so the
//! ALU-dominated bodies that pushdown filters and aggregations spend
//! their cycles in pay neither a boxed-closure dispatch nor a budget
//! check per instruction. There is no `unsafe` and no runtime code
//! generation — the "code" is a vector of closures and micro-op runs
//! threaded together by block index.
//!
//! The contract with the interpreter is **observational equivalence**:
//! for any program both engines accept, registers, scratch, map effects,
//! helper activity, retired-instruction counts, and traps (including
//! their `pc` payloads) are identical. Retired counts matter beyond
//! testing — the simulated kernel charges `LayerCosts::bpf_exec(insns)`
//! from them, so the simulation's cost model is bit-for-bit unchanged by
//! the engine choice; only *measured host CPU* differs. The equivalence
//! is enforced by sharing the interpreter's primitives ([`alu64`],
//! [`Mem`], [`call_helper`], ...) rather than reimplementing them, and
//! locked by the differential proptest harness in `tests/props.rs`.
//!
//! Programs the compiler cannot lower are *declined*
//! ([`CompileError`]) rather than miscompiled; callers fall back to the
//! interpreter, which reproduces the exact runtime trap the declined
//! construct would have produced. Every program the full verifier
//! admits compiles — declines only occur for hand-built unverified
//! programs (unknown opcodes, bad helper ids, malformed `ld_imm64`
//! pairs, out-of-range jumps).

use crate::insn::{
    access_size, imm64_of, Insn, ALU_ADD, ALU_END, ALU_MOV, ALU_MUL, ALU_RSH, ALU_XOR, CLS_ALU,
    CLS_ALU64, CLS_JMP, CLS_JMP32, CLS_LDX, CLS_ST, CLS_STX, JMP_CALL, JMP_EXIT, JMP_JA, MODE_MEM,
    NUM_REGS, OP_LD_IMM64, REG_FP, SRC_X, STACK_SIZE,
};
use crate::interp::{
    alu32, alu32_total, alu64, alu64_total, call_helper, endian, endian_total, flush_mapvals,
    jump_taken, ExecEnv, Mem, RunCtx, RunOutcome, Trap, CTX_BASE, DEFAULT_INSN_BUDGET, STACK_BASE,
};
use crate::maps::MapSet;
use crate::program::{helper, Program};
use crate::verifier::{build_cfg, VerifyError};

/// Which execution engine runs installed programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecEngine {
    /// The interpreter (`crates/vm/src/interp.rs`): the program is
    /// decoded once, then dispatched one op per instruction with full
    /// runtime checking.
    #[default]
    Interp,
    /// The template JIT in this module, with transparent interpreter
    /// fallback for programs [`compile`] declines.
    Compiled,
}

impl ExecEngine {
    /// Parses an engine name as used by `--engine` and `BPFSTOR_ENGINE`.
    pub fn parse(s: &str) -> Option<ExecEngine> {
        match s.to_ascii_lowercase().as_str() {
            "interp" | "interpreter" => Some(ExecEngine::Interp),
            "compiled" | "jit" => Some(ExecEngine::Compiled),
            _ => None,
        }
    }

    /// Engine selection from the `BPFSTOR_ENGINE` environment variable
    /// (`interp` | `compiled`); defaults to the interpreter. This is how
    /// the test suite runs unmodified under either engine.
    pub fn from_env() -> ExecEngine {
        std::env::var("BPFSTOR_ENGINE")
            .ok()
            .and_then(|v| ExecEngine::parse(&v))
            .unwrap_or_default()
    }

    /// Short stable name (`"interp"` / `"compiled"`) for reports.
    pub fn label(self) -> &'static str {
        match self {
            ExecEngine::Interp => "interp",
            ExecEngine::Compiled => "compiled",
        }
    }
}

impl std::fmt::Display for ExecEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Why [`compile`] declined a program. A decline is not an error in the
/// execution pipeline — the caller runs the interpreter instead, which
/// reproduces the exact trap the unsupported construct would raise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The structural CFG pass rejected the program (bad size,
    /// registers, `ld_imm64` pairing, jump targets, unknown jump codes).
    Structure(VerifyError),
    /// An instruction has no template (unknown opcode, helper id, or
    /// endianness width).
    Unsupported {
        /// Slot of the instruction.
        pc: usize,
        /// What was unsupported.
        what: &'static str,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Structure(e) => write!(f, "compile declined: {e}"),
            CompileError::Unsupported { pc, what } => {
                write!(f, "compile declined: unsupported {what} at pc {pc}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Mutable machine state threaded through the block closures; the
/// compiled analogue of the interpreter loop's locals.
struct ExecState<'a> {
    reg: [u64; NUM_REGS],
    mem: Mem<'a>,
    maps: &'a mut MapSet,
    env: &'a mut (dyn ExecEnv + 'a),
    retired: u64,
    helper_calls: u64,
    budget: u64,
}

impl ExecState<'_> {
    /// Retires one instruction against the budget — the same
    /// fetch-then-charge order as the interpreter, so budget traps land
    /// on the identical retired count.
    #[inline]
    fn retire(&mut self) -> Result<(), Trap> {
        self.retired += 1;
        if self.retired > self.budget {
            return Err(Trap::BudgetExceeded);
        }
        Ok(())
    }

    /// Retires a fused run of `n` instructions at once. The interpreter
    /// traps somewhere inside such a run iff `retired + n > budget`,
    /// which is exactly this check — and it fires *before* any of the
    /// run's register effects, which are unobservable under a trap
    /// (fused micro-ops never touch scratch, maps, or the env), so the
    /// engines remain indistinguishable.
    #[inline]
    fn retire_n(&mut self, n: u64) -> Result<(), Trap> {
        self.retired += n;
        if self.retired > self.budget {
            return Err(Trap::BudgetExceeded);
        }
        Ok(())
    }
}

/// One pre-decoded instruction lowered to a closure.
type StepFn = Box<dyn Fn(&mut ExecState<'_>) -> Result<(), Trap> + Send + Sync>;

/// A register-only micro-op: the pre-decoded form of one ALU / endian /
/// `ld_imm64` instruction. Every variant is *total* — the compile-time
/// probe in [`micro_of`] admits only opcodes whose runtime semantics
/// are defined on all inputs — so a run of them executes with no
/// per-instruction `Result`, no budget check, and no boxed-closure
/// dispatch. The hottest shapes get dedicated variants; the rest share
/// the generic `alu*_total` arms.
#[derive(Clone, Copy)]
enum Micro {
    /// `dst = imm` — also covers `ld_imm64`, which retires as one
    /// instruction despite occupying two slots, same as the interpreter.
    MovImm(usize, u64),
    MovReg(usize, usize),
    AddImm(usize, u64),
    AddReg(usize, usize),
    MulImm(usize, u64),
    XorImm(usize, u64),
    /// Shift amount pre-masked to `0..64` at lowering time.
    RshImm(usize, u32),
    Alu64Imm(u8, usize, u64),
    Alu64Reg(u8, usize, usize),
    Alu32Imm(u8, usize, u32),
    Alu32Reg(u8, usize, usize),
    End(u8, i32, usize),
    /// `dst = src <code> imm`: `mov dst, src` fused with the immediate
    /// ALU64 op on `dst` that follows it.
    MovAlu64Imm(u8, usize, usize, u64),
    /// `dst = (dst <c1> imm1) <c2> imm2`: two consecutive immediate
    /// ALU64 ops on one register, fused.
    Alu64Imm2(u8, u8, usize, u64, u64),
}

impl Micro {
    #[inline]
    fn apply(&self, reg: &mut [u64; NUM_REGS]) {
        match *self {
            Micro::MovImm(d, v) => reg[d] = v,
            Micro::MovReg(d, s) => reg[d] = reg[s],
            Micro::AddImm(d, v) => reg[d] = reg[d].wrapping_add(v),
            Micro::AddReg(d, s) => reg[d] = reg[d].wrapping_add(reg[s]),
            Micro::MulImm(d, v) => reg[d] = reg[d].wrapping_mul(v),
            Micro::XorImm(d, v) => reg[d] ^= v,
            Micro::RshImm(d, v) => reg[d] >>= v,
            Micro::Alu64Imm(c, d, v) => reg[d] = alu64_total(c, reg[d], v),
            Micro::Alu64Reg(c, d, s) => reg[d] = alu64_total(c, reg[d], reg[s]),
            Micro::Alu32Imm(c, d, v) => reg[d] = alu32_total(c, reg[d] as u32, v) as u64,
            Micro::Alu32Reg(c, d, s) => {
                reg[d] = alu32_total(c, reg[d] as u32, reg[s] as u32) as u64
            }
            Micro::End(op, w, d) => reg[d] = endian_total(op, w, reg[d]),
            Micro::MovAlu64Imm(c, d, s, v) => reg[d] = alu64_total(c, reg[s], v),
            Micro::Alu64Imm2(c1, c2, d, v1, v2) => {
                reg[d] = alu64_total(c2, alu64_total(c1, reg[d], v1), v2)
            }
        }
    }

    /// The `(code, dst, imm)` of an immediate ALU64 micro-op.
    fn alu64_imm(&self) -> Option<(u8, usize, u64)> {
        Some(match *self {
            Micro::MovImm(d, v) => (ALU_MOV, d, v),
            Micro::AddImm(d, v) => (ALU_ADD, d, v),
            Micro::MulImm(d, v) => (ALU_MUL, d, v),
            Micro::XorImm(d, v) => (ALU_XOR, d, v),
            Micro::RshImm(d, v) => (ALU_RSH, d, u64::from(v)),
            Micro::Alu64Imm(c, d, v) => (c, d, v),
            _ => return None,
        })
    }
}

/// A fused run of micro-ops and the number of instructions it retires,
/// which exceeds the micro-op count by one per fused pair.
#[derive(Default)]
struct Run {
    ops: Vec<Micro>,
    insns: u64,
}

impl Run {
    /// Appends the micro-op of one instruction, fusing it with the
    /// previous micro-op when both act on the same `dst`: `mov dst, src`
    /// then an immediate ALU64 op, or two immediate ALU64 ops. A chain
    /// of dependent ALU ops is bound by each op storing `dst` to the
    /// register file and the next loading it back; a fused pair keeps
    /// the intermediate value in a local.
    fn push(&mut self, m: Micro) {
        self.insns += 1;
        if let (Some(last), Some((code, dst, imm))) = (self.ops.last_mut(), m.alu64_imm()) {
            let fused = match (*last, last.alu64_imm()) {
                (Micro::MovReg(d, s), _) if d == dst => Some(Micro::MovAlu64Imm(code, d, s, imm)),
                (_, Some((c1, d, v1))) if d == dst => Some(Micro::Alu64Imm2(c1, code, d, v1, imm)),
                _ => None,
            };
            if let Some(f) = fused {
                *last = f;
                return;
            }
        }
        self.ops.push(m);
    }
}

/// Lowers a fusible instruction to a [`Micro`], or `None` for anything
/// that must go through [`lower_step`] (memory, helpers, unknown ALU
/// codes — the latter so the decline carries the proper diagnostics).
fn micro_of(insn: &Insn) -> Option<Micro> {
    let op = insn.op;
    let code = op & 0xf0;
    let dst = insn.dst as usize;
    let src = insn.src as usize;
    match insn.class() {
        CLS_ALU64 => {
            alu64(op, 0, 1, 0).ok()?;
            Some(if op & SRC_X != 0 {
                match code {
                    ALU_MOV => Micro::MovReg(dst, src),
                    ALU_ADD => Micro::AddReg(dst, src),
                    _ => Micro::Alu64Reg(code, dst, src),
                }
            } else {
                let imm = insn.imm as i64 as u64;
                match code {
                    ALU_MOV => Micro::MovImm(dst, imm),
                    ALU_ADD => Micro::AddImm(dst, imm),
                    ALU_MUL => Micro::MulImm(dst, imm),
                    ALU_XOR => Micro::XorImm(dst, imm),
                    ALU_RSH => Micro::RshImm(dst, imm as u32 & 63),
                    _ => Micro::Alu64Imm(code, dst, imm),
                }
            })
        }
        CLS_ALU => {
            if code == ALU_END {
                endian(op, insn.imm, 0, 0).ok()?;
                return Some(Micro::End(op, insn.imm, dst));
            }
            alu32(op, 0, 1, 0).ok()?;
            Some(if op & SRC_X != 0 {
                Micro::Alu32Reg(code, dst, src)
            } else {
                Micro::Alu32Imm(code, dst, insn.imm as u32)
            })
        }
        _ => None,
    }
}

/// One pre-decoded body step: a boxed closure for a single fallible
/// instruction, or a fused run of total micro-ops — the
/// superinstruction trick of threaded-code compilers — retired as a
/// batch (see [`ExecState::retire_n`] for why that is equivalent).
enum Step {
    One(StepFn),
    Fused(Run),
}

/// How control leaves a block.
enum BlockExit {
    Jump(usize),
    Ret(u64),
}

/// One lowered basic block: body steps plus a pre-decoded terminator.
type BlockFn = Box<dyn Fn(&mut ExecState<'_>) -> Result<BlockExit, Trap> + Send + Sync>;

/// A conditional jump's pre-extended right-hand operand.
enum Operand {
    Reg(usize),
    Imm(u64),
}

enum Terminator {
    /// Fall into the next block; consumes no instruction.
    Goto(usize),
    /// Run off the end of the program; consumes no instruction.
    FellThrough,
    /// Unconditional jump.
    Ja(usize),
    /// `exit`: flush map shadows and return `r0`.
    Exit,
    /// Conditional jump with both edges resolved to block indices
    /// (`fall: None` when fallthrough leaves the program).
    Cond {
        pc: usize,
        op: u8,
        code: u8,
        wide: bool,
        dst: usize,
        rhs: Operand,
        taken: usize,
        fall: Option<usize>,
    },
}

/// A program lowered to threaded native closures; produced by
/// [`compile`], executed with [`CompiledProg::run`] /
/// [`CompiledProg::run_budgeted`].
pub struct CompiledProg {
    blocks: Vec<BlockFn>,
}

impl std::fmt::Debug for CompiledProg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledProg")
            .field("blocks", &self.blocks.len())
            .finish()
    }
}

impl CompiledProg {
    /// Runs with the default instruction budget; the compiled
    /// equivalent of `Vm::new().run(...)`.
    ///
    /// # Errors
    ///
    /// Returns the same [`Trap`]s the interpreter would.
    pub fn run(
        &self,
        ctx: RunCtx<'_>,
        maps: &mut MapSet,
        env: &mut dyn ExecEnv,
    ) -> Result<RunOutcome, Trap> {
        self.run_budgeted(DEFAULT_INSN_BUDGET, ctx, maps, env)
    }

    /// Runs with an explicit instruction budget; the compiled
    /// equivalent of `Vm::with_budget(budget).run(...)`.
    ///
    /// # Errors
    ///
    /// Returns the same [`Trap`]s the interpreter would, including
    /// [`Trap::BudgetExceeded`] at the identical retired count.
    pub fn run_budgeted(
        &self,
        budget: u64,
        ctx: RunCtx<'_>,
        maps: &mut MapSet,
        env: &mut dyn ExecEnv,
    ) -> Result<RunOutcome, Trap> {
        let mut st = ExecState {
            reg: [0u64; NUM_REGS],
            mem: Mem::new(ctx),
            maps,
            env,
            retired: 0,
            helper_calls: 0,
            budget,
        };
        st.reg[1] = CTX_BASE;
        st.reg[REG_FP as usize] = STACK_BASE + STACK_SIZE as u64;
        let mut block = 0usize;
        loop {
            match (self.blocks[block])(&mut st)? {
                BlockExit::Jump(b) => block = b,
                BlockExit::Ret(ret) => {
                    return Ok(RunOutcome {
                        ret,
                        insns: st.retired,
                        helper_calls: st.helper_calls,
                    })
                }
            }
        }
    }
}

/// Lowers `prog` to native closures.
///
/// # Errors
///
/// Declines ([`CompileError`]) any program containing a construct
/// without a template; run such programs on the interpreter. Programs
/// accepted by [`crate::verifier::verify`] always compile.
pub fn compile(prog: &Program) -> Result<CompiledProg, CompileError> {
    let cfg = build_cfg(prog).map_err(CompileError::Structure)?;
    let n = prog.insns.len();
    let block_of = |slot: usize| cfg.block_at[slot].expect("every slot is owned");

    let flush = |steps: &mut Vec<Step>, pending: &mut Run| {
        if pending.insns > 0 {
            steps.push(Step::Fused(std::mem::take(pending)));
        }
    };
    let mut blocks: Vec<BlockFn> = Vec::with_capacity(cfg.blocks.len());
    for b in &cfg.blocks {
        let mut steps: Vec<Step> = Vec::new();
        let mut pending = Run::default();
        let mut term: Option<Terminator> = None;
        let mut pc = b.start;
        while pc < b.end {
            let insn = &prog.insns[pc];
            let class = insn.class();
            if (class == CLS_JMP || class == CLS_JMP32) && insn.op & 0xf0 != JMP_CALL {
                term = Some(lower_terminator(prog, pc, n, &block_of)?);
                pc += 1;
            } else if insn.op == OP_LD_IMM64 {
                // Pairing was validated by build_cfg.
                let value = imm64_of(insn, &prog.insns[pc + 1]);
                pending.push(Micro::MovImm(insn.dst as usize, value));
                pc += 2;
            } else if let Some(m) = micro_of(insn) {
                pending.push(m);
                pc += 1;
            } else {
                flush(&mut steps, &mut pending);
                steps.push(Step::One(lower_step(insn, pc)?));
                pc += 1;
            }
        }
        flush(&mut steps, &mut pending);
        let term = term.unwrap_or(if b.end < n {
            Terminator::Goto(block_of(b.end))
        } else {
            Terminator::FellThrough
        });
        blocks.push(assemble_block(steps, term));
    }
    Ok(CompiledProg { blocks })
}

fn assemble_block(steps: Vec<Step>, term: Terminator) -> BlockFn {
    Box::new(move |st: &mut ExecState<'_>| {
        for step in &steps {
            match step {
                Step::One(f) => {
                    st.retire()?;
                    f(st)?;
                }
                Step::Fused(run) => {
                    st.retire_n(run.insns)?;
                    for m in &run.ops {
                        m.apply(&mut st.reg);
                    }
                }
            }
        }
        match &term {
            Terminator::Goto(b) => Ok(BlockExit::Jump(*b)),
            Terminator::FellThrough => Err(Trap::FellThrough),
            Terminator::Ja(b) => {
                st.retire()?;
                Ok(BlockExit::Jump(*b))
            }
            Terminator::Exit => {
                st.retire()?;
                flush_mapvals(st.maps, &st.mem.mapvals)?;
                Ok(BlockExit::Ret(st.reg[0]))
            }
            Terminator::Cond {
                pc,
                op,
                code,
                wide,
                dst,
                rhs,
                taken,
                fall,
            } => {
                st.retire()?;
                let a = if *wide {
                    st.reg[*dst]
                } else {
                    st.reg[*dst] as u32 as u64
                };
                let b = match rhs {
                    Operand::Reg(s) => {
                        if *wide {
                            st.reg[*s]
                        } else {
                            st.reg[*s] as u32 as u64
                        }
                    }
                    Operand::Imm(v) => *v,
                };
                let t =
                    jump_taken(*code, a, b, *wide).ok_or(Trap::IllegalInsn { pc: *pc, op: *op })?;
                if t {
                    Ok(BlockExit::Jump(*taken))
                } else {
                    match fall {
                        Some(f) => Ok(BlockExit::Jump(*f)),
                        None => Err(Trap::FellThrough),
                    }
                }
            }
        }
    })
}

fn lower_terminator(
    prog: &Program,
    pc: usize,
    n: usize,
    block_of: &impl Fn(usize) -> usize,
) -> Result<Terminator, CompileError> {
    let insn = &prog.insns[pc];
    let code = insn.op & 0xf0;
    // Jump targets were validated by build_cfg; recompute them here.
    let dest = || (pc as i64 + 1 + insn.off as i64) as usize;
    Ok(match code {
        JMP_EXIT => Terminator::Exit,
        JMP_JA => Terminator::Ja(block_of(dest())),
        _ => {
            let wide = insn.class() == CLS_JMP;
            let rhs = if insn.op & SRC_X != 0 {
                Operand::Reg(insn.src as usize)
            } else if wide {
                Operand::Imm(insn.imm as i64 as u64)
            } else {
                Operand::Imm(insn.imm as u32 as u64)
            };
            Terminator::Cond {
                pc,
                op: insn.op,
                code,
                wide,
                dst: insn.dst as usize,
                rhs,
                taken: block_of(dest()),
                fall: if pc + 1 < n {
                    Some(block_of(pc + 1))
                } else {
                    None
                },
            }
        }
    })
}

fn lower_step(insn: &Insn, pc: usize) -> Result<StepFn, CompileError> {
    let op = insn.op;
    let dst = insn.dst as usize;
    let src = insn.src as usize;
    match insn.class() {
        // Every ALU / endian opcode with defined semantics was fused
        // into a micro-op run by `micro_of`; only unknown codes and
        // widths fall through to here, and those decline.
        CLS_ALU64 => Err(CompileError::Unsupported {
            pc,
            what: "alu64 opcode",
        }),
        CLS_ALU => {
            if op & 0xf0 == ALU_END {
                return Err(CompileError::Unsupported {
                    pc,
                    what: "endian width",
                });
            }
            Err(CompileError::Unsupported {
                pc,
                what: "alu32 opcode",
            })
        }
        CLS_LDX => {
            if op & 0x60 != MODE_MEM {
                return Err(CompileError::Unsupported {
                    pc,
                    what: "ldx mode",
                });
            }
            let off = insn.off as i64 as u64;
            Ok(match access_size(op) {
                1 => lower_ldx::<1>(dst, src, off, pc),
                2 => lower_ldx::<2>(dst, src, off, pc),
                4 => lower_ldx::<4>(dst, src, off, pc),
                _ => lower_ldx::<8>(dst, src, off, pc),
            })
        }
        CLS_STX | CLS_ST => {
            if op & 0x60 != MODE_MEM {
                return Err(CompileError::Unsupported {
                    pc,
                    what: "st mode",
                });
            }
            let size = access_size(op);
            let off = insn.off as i64 as u64;
            Ok(if insn.class() == CLS_STX {
                Box::new(move |st| {
                    let addr = st.reg[dst].wrapping_add(off);
                    let value = st.reg[src];
                    st.mem.store(addr, size, value, pc)
                })
            } else {
                let value = insn.imm as i64 as u64;
                Box::new(move |st| {
                    let addr = st.reg[dst].wrapping_add(off);
                    st.mem.store(addr, size, value, pc)
                })
            })
        }
        CLS_JMP | CLS_JMP32 => {
            // Only CALL reaches here; other jump codes are terminators.
            let id = insn.imm;
            if !matches!(
                id,
                helper::TRACE
                    | helper::RESUBMIT
                    | helper::EMIT
                    | helper::MAP_LOOKUP
                    | helper::MAP_UPDATE
            ) {
                return Err(CompileError::Unsupported {
                    pc,
                    what: "helper id",
                });
            }
            Ok(Box::new(move |st| {
                st.helper_calls += 1;
                call_helper(id, pc, &mut st.reg, &mut st.mem, st.maps, st.env)?;
                // Helper calls clobber the caller-saved argument
                // registers, as on real eBPF (and in the interpreter).
                for r in st.reg.iter_mut().take(6).skip(1) {
                    *r = 0;
                }
                Ok(())
            }))
        }
        _ => Err(CompileError::Unsupported {
            pc,
            what: "instruction class",
        }),
    }
}

/// An `N`-byte load, with the width fixed when the step is lowered.
fn lower_ldx<const N: usize>(dst: usize, src: usize, off: u64, pc: usize) -> StepFn {
    Box::new(move |st| {
        st.reg[dst] = st.mem.load::<N>(st.reg[src].wrapping_add(off), pc)?;
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::{Asm, Width};
    use crate::interp::{RecordingEnv, Vm};
    use crate::maps::MapSpec;
    use crate::program::ctx_off;

    fn asm(f: impl FnOnce(&mut Asm)) -> Program {
        let mut a = Asm::new();
        f(&mut a);
        Program::new(a.finish().expect("assembles"))
    }

    /// Runs `prog` on both engines under `budget` and asserts every
    /// observable is identical; returns the (shared) outcome.
    fn run_both(prog: &Program, data: &[u8], budget: u64) -> Result<RunOutcome, Trap> {
        let mut scratch_i = [0u8; 64];
        let mut scratch_c = [0u8; 64];
        let mut maps_i = MapSet::instantiate(&prog.maps).expect("maps");
        let mut maps_c = MapSet::instantiate(&prog.maps).expect("maps");
        let mut env_i = RecordingEnv::default();
        let mut env_c = RecordingEnv::default();
        let interp = Vm::with_budget(budget).run(
            prog,
            RunCtx {
                data,
                file_off: 0x1000,
                hop: 2,
                flags: 0xAB,
                scratch: &mut scratch_i,
            },
            &mut maps_i,
            &mut env_i,
        );
        let compiled = compile(prog).expect("compiles").run_budgeted(
            budget,
            RunCtx {
                data,
                file_off: 0x1000,
                hop: 2,
                flags: 0xAB,
                scratch: &mut scratch_c,
            },
            &mut maps_c,
            &mut env_c,
        );
        assert_eq!(interp, compiled, "outcome/trap drift");
        assert_eq!(scratch_i, scratch_c, "scratch drift");
        assert_eq!(env_i.resubmits, env_c.resubmits, "resubmit drift");
        assert_eq!(env_i.emitted, env_c.emitted, "emit drift");
        assert_eq!(env_i.traces, env_c.traces, "trace drift");
        interp
    }

    #[test]
    fn matches_interp_on_alu_and_jumps() {
        let p = asm(|a| {
            a.mov64_imm(0, 0)
                .mov64_imm(2, 9)
                .label("loop")
                .add64_imm(0, 3)
                .sub64_imm(2, 1)
                .jne_imm(2, 0, "loop")
                .mul64_imm(0, 2)
                .exit();
        });
        let out = run_both(&p, &[], DEFAULT_INSN_BUDGET).expect("runs");
        assert_eq!(out.ret, 54);
        // 2 setup + 9 * 3 loop + mul + exit
        assert_eq!(out.insns, 2 + 27 + 2);
    }

    #[test]
    fn matches_interp_on_alu32_and_endian() {
        let p = asm(|a| {
            a.ld_imm64(0, 0xFFFF_FFFF_0000_0007)
                .mov32_reg(3, 0)
                .add32_imm(3, -1)
                .to_be(3, 32)
                .mov64_reg(0, 3)
                .exit();
        });
        run_both(&p, &[], DEFAULT_INSN_BUDGET).expect("runs");
    }

    #[test]
    fn matches_interp_on_memory_and_scratch() {
        let p = asm(|a| {
            a.ldx(Width::DW, 2, 1, ctx_off::DATA)
                .ldx(Width::W, 3, 2, 0)
                .stx(Width::DW, 10, -8, 3)
                .ldx(Width::DW, 4, 10, -8)
                .ldx(Width::DW, 5, 1, ctx_off::SCRATCH)
                .stx(Width::W, 5, 0, 4)
                .mov64_reg(0, 4)
                .exit();
        });
        let out = run_both(&p, &[0x44, 0x33, 0x22, 0x11], DEFAULT_INSN_BUDGET).expect("runs");
        assert_eq!(out.ret, 0x1122_3344);
    }

    #[test]
    fn matches_interp_on_helpers_and_maps() {
        let mut a = Asm::new();
        a.st_imm(Width::DW, 10, -8, 5)
            .st_imm(Width::DW, 10, -16, 77)
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
            .ldx(Width::DW, 3, 0, 0)
            .add64_imm(3, 1)
            .stx(Width::DW, 0, 0, 3)
            .mov64_imm(1, 0x2000)
            .call(helper::RESUBMIT)
            .mov64_imm(0, 0)
            .exit();
        let p = Program::with_maps(a.finish().expect("assembles"), vec![MapSpec::hash(8, 8, 4)]);

        // run_both checks env/scratch; check the flushed map state too.
        let mut scratch = [0u8; 64];
        let mut maps = MapSet::instantiate(&p.maps).expect("maps");
        let mut env = RecordingEnv::default();
        compile(&p)
            .expect("compiles")
            .run(
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
            .lookup(0, &5u64.to_le_bytes())
            .expect("lookup")
            .expect("hit");
        assert_eq!(u64::from_le_bytes(v.try_into().expect("8B")), 78);

        run_both(&p, &[], DEFAULT_INSN_BUDGET).expect("runs");
    }

    #[test]
    fn budget_trap_at_identical_count() {
        let runaway = asm(|a| {
            a.label("spin").ja("spin").exit();
        });
        assert_eq!(
            run_both(&runaway, &[], 100).unwrap_err(),
            Trap::BudgetExceeded
        );
        // A budget landing exactly on a block boundary.
        let p = asm(|a| {
            a.mov64_imm(0, 1).add64_imm(0, 1).exit();
        });
        assert_eq!(run_both(&p, &[], 2).unwrap_err(), Trap::BudgetExceeded);
        run_both(&p, &[], 3).expect("exactly enough budget");
    }

    #[test]
    fn fused_pairs_retire_every_instruction() {
        // `mov r0, 7; mul r0, k` and `mov r9, r0; rsh r9, 17` each fuse
        // into one micro-op but retire as two instructions.
        let p = asm(|a| {
            a.mov64_imm(0, 7)
                .mul64_imm(0, 0x0100_0193)
                .xor64_imm(0, 0x5BD1)
                .mov64_reg(9, 0)
                .rsh64_imm(9, 17)
                .add64_reg(0, 9)
                .exit();
        });
        for budget in 0..7 {
            assert_eq!(run_both(&p, &[], budget).unwrap_err(), Trap::BudgetExceeded);
        }
        let out = run_both(&p, &[], 7).expect("exactly enough budget");
        let v = 7u64.wrapping_mul(0x0100_0193) ^ 0x5BD1;
        assert_eq!((out.ret, out.insns), (v + (v >> 17), 7));
    }

    #[test]
    fn emit_with_huge_length_traps_on_both_engines() {
        // The length register is reinterpreted as usize::MAX; the read
        // must fault on the first byte past the stack, not reserve it.
        let p = asm(|a| {
            a.mov64_reg(1, 10)
                .add64_imm(1, -8)
                .mov64_imm(2, -1)
                .call(helper::EMIT)
                .mov64_imm(0, 0)
                .exit();
        });
        let err = run_both(&p, &[], DEFAULT_INSN_BUDGET).unwrap_err();
        let fp = STACK_BASE + STACK_SIZE as u64;
        assert_eq!(
            err,
            Trap::OutOfBounds {
                addr: fp,
                len: 1,
                pc: 3
            }
        );

        // A huge length from inside the block faults at its end; from an
        // unmapped address, at the address itself.
        let p = asm(|a| {
            a.ldx(Width::DW, 1, 1, ctx_off::DATA)
                .add64_imm(1, 2)
                .ld_imm64(2, 1 << 40)
                .call(helper::EMIT)
                .exit();
        });
        let err = run_both(&p, &[7u8; 16], DEFAULT_INSN_BUDGET).unwrap_err();
        assert_eq!(
            err,
            Trap::OutOfBounds {
                addr: crate::interp::DATA_BASE + 16,
                len: 1,
                pc: 4
            }
        );
        let p = asm(|a| {
            a.mov64_imm(1, 64)
                .mov64_imm(2, -1)
                .call(helper::EMIT)
                .exit();
        });
        let err = run_both(&p, &[], DEFAULT_INSN_BUDGET).unwrap_err();
        assert_eq!(
            err,
            Trap::OutOfBounds {
                addr: 64,
                len: 1,
                pc: 2
            }
        );
    }

    #[test]
    fn runtime_traps_match_with_pc_payloads() {
        // OOB data read.
        let p = asm(|a| {
            a.ldx(Width::DW, 2, 1, ctx_off::DATA)
                .ldx(Width::DW, 0, 2, 0)
                .exit();
        });
        let err = run_both(&p, &[0u8; 4], DEFAULT_INSN_BUDGET).unwrap_err();
        assert!(
            matches!(err, Trap::OutOfBounds { len: 8, pc: 1, .. }),
            "{err:?}"
        );

        // Store to read-only context.
        let p = asm(|a| {
            a.st_imm(Width::DW, 1, 0, 7).exit();
        });
        let err = run_both(&p, &[], DEFAULT_INSN_BUDGET).unwrap_err();
        assert!(
            matches!(err, Trap::WriteToReadOnly { pc: 0, .. }),
            "{err:?}"
        );

        // Fall off the end.
        let p = asm(|a| {
            a.mov64_imm(0, 0);
        });
        assert_eq!(
            run_both(&p, &[], DEFAULT_INSN_BUDGET).unwrap_err(),
            Trap::FellThrough
        );

        // Fall off the end via an untaken conditional in the last slot.
        let p = asm(|a| {
            a.label("back").mov64_imm(0, 1).jeq_imm(0, 0, "back");
        });
        assert_eq!(
            run_both(&p, &[], DEFAULT_INSN_BUDGET).unwrap_err(),
            Trap::FellThrough
        );
    }

    #[test]
    fn declines_route_to_interpreter() {
        // Unknown helper id: compile declines; interpreter traps.
        let p = asm(|a| {
            a.call(999).exit();
        });
        assert!(matches!(
            compile(&p),
            Err(CompileError::Unsupported {
                pc: 0,
                what: "helper id"
            })
        ));
        let mut scratch = [0u8; 8];
        let err = Vm::new()
            .run(
                &p,
                RunCtx {
                    data: &[],
                    file_off: 0,
                    hop: 0,
                    flags: 0,
                    scratch: &mut scratch,
                },
                &mut MapSet::instantiate(&p.maps).expect("maps"),
                &mut RecordingEnv::default(),
            )
            .unwrap_err();
        assert_eq!(err, Trap::BadHelper { pc: 0, id: 999 });

        // Bad register index: structural decline.
        let p = Program::new(vec![Insn::new(CLS_ALU64 | ALU_MOV, 12, 0, 0, 0)]);
        assert!(matches!(compile(&p), Err(CompileError::Structure(_))));

        // Empty program: structural decline (interp would trap
        // FellThrough).
        assert!(matches!(
            compile(&Program::new(vec![])),
            Err(CompileError::Structure(_))
        ));
    }

    #[test]
    fn verified_programs_always_compile() {
        let p = asm(|a| {
            a.ldx(Width::DW, 2, 1, ctx_off::DATA)
                .ldx(Width::DW, 3, 1, ctx_off::DATA_END)
                .mov64_reg(4, 2)
                .add64_imm(4, 8)
                .jle_reg(4, 3, "ok")
                .mov64_imm(0, 0)
                .exit()
                .label("ok")
                .ldx(Width::DW, 0, 2, 0)
                .exit();
        });
        crate::verifier::verify(&p).expect("verifies");
        compile(&p).expect("verified programs compile");
        run_both(&p, &[7u8; 16], DEFAULT_INSN_BUDGET).expect("runs");
    }

    #[test]
    fn engine_parse_and_labels() {
        assert_eq!(ExecEngine::parse("interp"), Some(ExecEngine::Interp));
        assert_eq!(ExecEngine::parse("COMPILED"), Some(ExecEngine::Compiled));
        assert_eq!(ExecEngine::parse("jit"), Some(ExecEngine::Compiled));
        assert_eq!(ExecEngine::parse("nope"), None);
        assert_eq!(ExecEngine::default(), ExecEngine::Interp);
        assert_eq!(ExecEngine::Compiled.label(), "compiled");
        assert_eq!(ExecEngine::Interp.to_string(), "interp");
    }
}
