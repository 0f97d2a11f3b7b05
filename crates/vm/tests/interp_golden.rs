//! Golden digest of the interpreter's observable behaviour.
//!
//! A fixed-seed corpus of programs runs on the interpreter at many
//! instruction budgets, and everything a run can show is hashed with
//! FNV-1a: the full `Result` (trap kind and payload, or `ret`, retired
//! instructions and helper calls), the scratch bytes, the emitted bytes,
//! the resubmit and trace calls, and the contents of both maps. The
//! constant pins that behaviour, so a change to how the interpreter
//! fetches, decodes or checks instructions must leave it intact.
//!
//! The corpus has two halves:
//!
//! - *wild* instruction streams that no verifier would accept: random
//!   opcodes, registers `r0`–`r11`, out-of-range jumps, malformed and
//!   truncated `ld_imm64` pairs, helper calls with odd arguments;
//! - *structured* programs built from the fragments the verifier
//!   soundness property uses (ALU, stack traffic, context loads, guarded
//!   block reads), plus scratch traffic, bounded loops, and the emit,
//!   resubmit, trace and map helpers.
//!
//! Each program runs at every budget from 0 to its retired count + 1
//! when that count is small (or to a fixed bound when it traps), and at
//! large budgets, so budget traps are pinned at every boundary.
//!
//! When a change is *meant* to alter interpreter behaviour, run
//! `cargo test -p bpfstor-vm --test interp_golden -- --nocapture`, check
//! the printed digest against the reason for the change, and update the
//! constant.

use bpfstor_vm::insn::{
    Insn, CLS_ALU, CLS_ALU64, CLS_JMP, CLS_JMP32, CLS_LDX, CLS_ST, CLS_STX, JMP_CALL, JMP_EXIT,
    MODE_MEM, OP_LD_IMM64, SRC_X,
};
use bpfstor_vm::{
    ctx_off, helper, Asm, MapSet, MapSpec, Program, RecordingEnv, RunCtx, Vm, Width,
    DEFAULT_INSN_BUDGET,
};

const GOLDEN_INTERP: u64 = 0x0e47_4517_6652_00fb;

const WILD_PROGRAMS: usize = 1500;
const STRUCTURED_PROGRAMS: usize = 600;
/// Budgets below this are swept exhaustively for programs that trap.
const TRAP_SWEEP: u64 = 48;
/// Programs retiring at most this many instructions get the full sweep.
const OK_SWEEP: u64 = 96;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// SplitMix64: a tiny deterministic generator, so the corpus does not
/// depend on any other crate's random stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    fn imm(&mut self) -> i32 {
        match self.below(4) {
            0 => self.next() as i32,
            1 => self.below(17) as i32 - 8,
            2 => self.pick(&[0, 1, 8, 16, 32, 63, 64, -1, i32::MIN, i32::MAX]),
            _ => self.below(512) as i32,
        }
    }

    fn reg(&mut self) -> u8 {
        // r11 is out of range; keep it rare so most programs run on.
        if self.below(40) == 0 {
            11
        } else {
            self.below(11) as u8
        }
    }
}

fn maps() -> Vec<MapSpec> {
    vec![MapSpec::array(8, 4), MapSpec::hash(8, 8, 4)]
}

/// One wild instruction (two slots for `ld_imm64`).
fn wild_insn(rng: &mut Rng, out: &mut Vec<Insn>) {
    let (dst, src) = (rng.reg(), rng.reg());
    match rng.below(12) {
        0 => out.push(Insn::new(
            rng.next() as u8,
            dst,
            src,
            rng.next() as i16,
            rng.imm(),
        )),
        1 | 2 => {
            let class = rng.pick(&[CLS_ALU64, CLS_ALU64, CLS_ALU]);
            let code = (rng.below(16) as u8) << 4;
            let x = if rng.below(2) == 0 { SRC_X } else { 0 };
            out.push(Insn::new(class | code | x, dst, src, 0, rng.imm()));
        }
        3 | 4 => {
            // Loads mostly through the context, frame, or a register
            // that may hold a pointer loaded earlier.
            let src = rng.pick(&[1, 1, 10, 2, 3, src]);
            let mode = if rng.below(10) == 0 { 0x20 } else { MODE_MEM };
            let size = (rng.below(4) as u8) << 3;
            let off = match src {
                1 => rng.below(7) as i16 * 8 - 4 + rng.below(2) as i16 * 4,
                10 => -(rng.below(66) as i16) * 8 + 8,
                _ => rng.below(40) as i16 - 8,
            };
            out.push(Insn::new(CLS_LDX | mode | size, dst, src, off, 0));
        }
        5 => {
            let class = rng.pick(&[CLS_ST, CLS_STX]);
            let dst = rng.pick(&[10, 10, 2, 3, 1, dst]);
            let size = (rng.below(4) as u8) << 3;
            let off = if dst == 10 {
                -(rng.below(66) as i16) * 8 + 8
            } else {
                rng.below(40) as i16 - 8
            };
            out.push(Insn::new(class | MODE_MEM | size, dst, src, off, rng.imm()));
        }
        6 | 7 => {
            let class = rng.pick(&[CLS_JMP, CLS_JMP, CLS_JMP32]);
            let code = (rng.below(16) as u8) << 4;
            let x = if rng.below(2) == 0 { SRC_X } else { 0 };
            let off = rng.below(16) as i16 - 6;
            out.push(Insn::new(class | code | x, dst, src, off, rng.imm()));
        }
        8 => {
            // Helper calls. `emit` always gets a bounded length first.
            let id = rng.pick(&[0, 1, 2, 4, 5, 6, 3]);
            if id == helper::EMIT {
                out.push(Insn::new(CLS_ALU64 | 0xb0, 2, 0, 0, rng.below(24) as i32));
            }
            out.push(Insn::new(CLS_JMP | JMP_CALL, 0, 0, 0, id));
        }
        9 => out.push(Insn::new(CLS_JMP | JMP_EXIT, 0, 0, 0, 0)),
        10 => {
            let [lo, mut hi] = Insn::ld_imm64(dst, rng.next());
            if rng.below(6) == 0 {
                hi.op = rng.next() as u8;
            }
            out.push(lo);
            out.push(hi);
        }
        _ => {
            let x = if rng.below(2) == 0 { SRC_X } else { 0 };
            out.push(Insn::new(CLS_ALU64 | 0xb0 | x, dst, src, 0, rng.imm()));
        }
    }
}

fn wild_program(rng: &mut Rng) -> Program {
    let n = 1 + rng.below(24) as usize;
    let mut insns = Vec::new();
    while insns.len() < n {
        wild_insn(rng, &mut insns);
    }
    if rng.below(8) == 0 {
        // A truncated ld_imm64 in the last slot.
        insns.push(Insn::ld_imm64(rng.reg(), rng.next())[0]);
    }
    Program::with_maps(insns, maps())
}

/// One verifier-style fragment; `r9` holds the context throughout.
fn fragment(rng: &mut Rng, a: &mut Asm, label: &mut u32) {
    let r = |rng: &mut Rng| rng.below(6) as u8;
    match rng.below(11) {
        0 => {
            let (dst, imm) = (r(rng), rng.imm());
            match rng.below(7) {
                0 => a.mov64_imm(dst, imm),
                1 => a.add64_imm(dst, imm),
                2 => a.mul64_imm(dst, imm),
                3 => a.and64_imm(dst, imm),
                4 => a.rsh64_imm(dst, (imm & 63).abs()),
                5 => a.xor64_imm(dst, imm),
                _ => a.or64_imm(dst, imm),
            };
        }
        1 => {
            let (dst, src) = (r(rng), r(rng));
            match rng.below(3) {
                0 => a.mov64_reg(dst, src),
                1 => a.add64_reg(dst, src),
                _ => a.sub64_reg(dst, src),
            };
        }
        2 => {
            let (reg, slot) = (r(rng), 1 + rng.below(8) as i16);
            a.stx(Width::DW, 10, -8 * slot, reg)
                .ldx(Width::DW, reg, 10, -8 * slot);
        }
        3 => {
            let dst = 2 + rng.below(4) as u8;
            match rng.below(3) {
                0 => a.ldx(Width::DW, dst, 9, ctx_off::DATA),
                1 => a.ldx(Width::DW, dst, 9, ctx_off::FILE_OFF),
                _ => a.ldx(Width::W, dst, 9, ctx_off::HOP),
            };
        }
        4 => {
            // Data access guarded by a bound check, sometimes mis-sized.
            let (off, proven) = (rng.below(24) as i16, 1 + rng.below(8) as i32);
            let skip = format!("skip{label}");
            *label += 1;
            let w = rng.pick(&[Width::B, Width::H, Width::W, Width::DW]);
            a.ldx(Width::DW, 2, 9, ctx_off::DATA)
                .ldx(Width::DW, 3, 9, ctx_off::DATA_END)
                .mov64_reg(4, 2)
                .add64_imm(4, proven)
                .jgt_reg(4, 3, &skip)
                .ldx(w, 5, 2, off)
                .label(&skip)
                .mov64_imm(5, 0);
        }
        5 => {
            // Scratch traffic.
            let slot = rng.below(10) as i16 * 8;
            a.ldx(Width::DW, 6, 9, ctx_off::SCRATCH)
                .ldx(Width::DW, 7, 6, slot)
                .add64_imm(7, rng.imm())
                .stx(Width::DW, 6, slot, 7);
        }
        6 => {
            // A bounded loop.
            let top = format!("loop{label}");
            *label += 1;
            a.mov64_imm(4, 0)
                .label(&top)
                .add64_imm(4, 1)
                .lsh64_imm(4, rng.below(2) as i32)
                .jlt_imm(4, 1 + rng.below(12) as i32, &top);
        }
        7 => {
            // Emit from the stack.
            a.stx(Width::DW, 10, -8, r(rng))
                .stx(Width::DW, 10, -16, r(rng))
                .mov64_reg(1, 10)
                .add64_imm(1, -16)
                .mov64_imm(2, rng.below(17) as i32)
                .call(helper::EMIT);
        }
        8 => {
            a.mov64_imm(1, rng.below(1 << 20) as i32)
                .call(rng.pick(&[helper::RESUBMIT, helper::TRACE]));
        }
        9 => {
            // Array lookup and an increment through the value pointer.
            let skip = format!("miss{label}");
            *label += 1;
            a.st_imm(Width::W, 10, -4, rng.below(5) as i32)
                .mov64_imm(1, 0)
                .mov64_reg(2, 10)
                .add64_imm(2, -4)
                .call(helper::MAP_LOOKUP)
                .jeq_imm(0, 0, &skip)
                .ldx(Width::DW, 3, 0, 0)
                .add64_imm(3, 1 + rng.below(9) as i32)
                .stx(Width::DW, 0, 0, 3)
                .label(&skip)
                .mov64_imm(0, 0);
        }
        _ => {
            // Hash update of a small key.
            a.st_imm(Width::DW, 10, -8, rng.below(6) as i32)
                .st_imm(Width::DW, 10, -16, rng.imm())
                .mov64_imm(1, 1)
                .mov64_reg(2, 10)
                .add64_imm(2, -8)
                .mov64_reg(3, 10)
                .add64_imm(3, -16)
                .call(helper::MAP_UPDATE);
        }
    }
}

fn structured_program(rng: &mut Rng) -> Program {
    let mut a = Asm::new();
    let mut label = 0;
    a.mov64_reg(9, 1);
    for _ in 0..1 + rng.below(10) {
        fragment(rng, &mut a, &mut label);
    }
    let ret = rng.pick(&[0, 1, 2, 3]);
    a.mov64_imm(0, ret).exit();
    Program::with_maps(a.finish().expect("fragments assemble"), maps())
}

/// The inputs one program runs over.
struct Input {
    data: Vec<u8>,
    scratch: Vec<u8>,
    file_off: u64,
    hop: u32,
    flags: u32,
    fail_resubmit: Option<i64>,
}

fn input(rng: &mut Rng) -> Input {
    let data_len = rng.pick(&[0, 4, 8, 16, 33, 64]);
    let scratch_len = rng.pick(&[16, 64, 256]);
    Input {
        data: (0..data_len).map(|_| rng.next() as u8).collect(),
        scratch: (0..scratch_len).map(|_| rng.below(4) as u8).collect(),
        file_off: rng.below(1 << 24),
        hop: rng.below(4) as u32,
        flags: rng.next() as u32,
        fail_resubmit: (rng.below(6) == 0).then_some(-22),
    }
}

/// Runs `prog` once under `budget` and folds every observable into `h`;
/// returns the retired count of a successful run.
fn run_once(h: &mut Fnv, prog: &Program, inp: &Input, budget: u64) -> Option<u64> {
    let mut maps = MapSet::instantiate(&prog.maps).expect("maps");
    let mut env = RecordingEnv {
        fail_resubmit: inp.fail_resubmit,
        ..RecordingEnv::default()
    };
    let mut scratch = inp.scratch.clone();
    let result = Vm::with_budget(budget).run(
        prog,
        RunCtx {
            data: &inp.data,
            file_off: inp.file_off,
            hop: inp.hop,
            flags: inp.flags,
            scratch: &mut scratch,
        },
        &mut maps,
        &mut env,
    );
    h.bytes(format!("{result:?}").as_bytes());
    h.bytes(&scratch);
    h.bytes(&env.emitted);
    for v in env.resubmits.iter().chain(&env.traces) {
        h.u64(*v);
    }
    h.u64(env.resubmits.len() as u64);
    for idx in 0..4u32 {
        let v = maps.lookup(0, &idx.to_le_bytes()).expect("array slot");
        h.bytes(v.expect("array hit"));
    }
    for key in 0..16u64 {
        match maps.lookup(1, &key.to_le_bytes()).expect("hash probe") {
            Some(v) => h.bytes(v),
            None => h.u64(u64::MAX),
        }
    }
    result.ok().map(|out| out.insns)
}

/// Runs one program at every budget the sweep covers; returns whether
/// its run at a large budget finished without a trap.
fn run_at_all_budgets(h: &mut Fnv, prog: &Program, inp: &Input) -> bool {
    // Wild programs may spin; the large budget that decides the sweep
    // stays small enough to keep spinning programs cheap.
    let full = run_once(h, prog, inp, 4096);
    if full.is_some() {
        run_once(h, prog, inp, DEFAULT_INSN_BUDGET);
    }
    let top = match full {
        Some(n) if n <= OK_SWEEP => n + 1,
        Some(_) => 0,
        None => TRAP_SWEEP,
    };
    for budget in 0..=top {
        run_once(h, prog, inp, budget);
    }
    full.is_some()
}

#[test]
fn interpreter_behaviour_matches_golden_digest() {
    let mut rng = Rng(0x5eed_0b9f_2021);
    let mut h = Fnv::new();
    let (mut ok, mut trapped) = (0, 0);
    for i in 0..WILD_PROGRAMS + STRUCTURED_PROGRAMS {
        let prog = if i < WILD_PROGRAMS {
            wild_program(&mut rng)
        } else {
            structured_program(&mut rng)
        };
        let inp = input(&mut rng);
        if run_at_all_budgets(&mut h, &prog, &inp) {
            ok += 1;
        } else {
            trapped += 1;
        }
    }
    let got = h.0;
    println!("interp golden: {got:#018x} ({ok} programs finish, {trapped} trap)");
    // A corpus that degenerated into all-trap or all-ok runs would pin
    // little.
    assert!(ok >= 300 && trapped >= 300, "ok {ok}, trapped {trapped}");
    assert_eq!(
        got, GOLDEN_INTERP,
        "interpreter behaviour moved ({got:#018x})"
    );
}

#[test]
fn ld_imm64_is_one_instruction_and_its_second_slot_traps() {
    let [lo, hi] = Insn::ld_imm64(0, 0x1122_3344_5566_7788);
    let exit = Insn::new(CLS_JMP | JMP_EXIT, 0, 0, 0, 0);
    assert_eq!(lo.op, OP_LD_IMM64);
    let p = Program::new(vec![lo, hi, exit]);
    let mut scratch = [0u8; 8];
    let run = |p: &Program, scratch: &mut [u8]| {
        Vm::new().run(
            p,
            RunCtx {
                data: &[],
                file_off: 0,
                hop: 0,
                flags: 0,
                scratch,
            },
            &mut MapSet::instantiate(&[]).expect("maps"),
            &mut RecordingEnv::default(),
        )
    };
    let out = run(&p, &mut scratch).expect("runs");
    assert_eq!((out.ret, out.insns), (0x1122_3344_5566_7788, 2));
    // Jumping into the second slot executes it on its own.
    let ja = Insn::new(CLS_JMP, 0, 0, 1, 0);
    let p = Program::new(vec![ja, lo, hi, exit]);
    let err = run(&p, &mut scratch).unwrap_err();
    assert_eq!(err, bpfstor_vm::Trap::IllegalInsn { pc: 2, op: 0 });
}
