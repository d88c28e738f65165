//! Golden outcomes of the interpreter (`Cpu::run`).
//!
//! Every campaign record and SPRT verdict is a function of `RunOutcome`s
//! (exit, cycles, instructions) and of what a run leaves in the process
//! (output, canary-address stack, DCR list).  Each test that owns a
//! `GOLDEN_*` constant folds those observations, in run order, into one
//! SHA-1 digest and compares it with the constant.  The goldens were
//! recorded while a second, pre-decoded dispatch loop still ran beside the
//! plain one and both agreed on every observation, so a test that matches
//! its golden still agrees with both.  The suite covers
//!
//! * PRNG-generated programs stuffed with adversarial shapes — canary
//!   prologue and epilogue sequences, branches into their middle, calls to
//!   invalid function ids, falling off function ends, budget cut-offs at
//!   every small count,
//! * every workload build cell (native, every scheme's compiler plugin,
//!   both rewriter link modes),
//! * every victim scheme × deployment cell under benign, leaking and
//!   stack-smashing payloads,
//! * returns to every address of PRNG-generated programs — instruction
//!   boundaries, mid-instruction bytes, alignment padding, end markers and
//!   out-of-range addresses — with `Program::lookup_addr` checked against a
//!   brute-force scan,
//! * unstructured programs — every instruction variant with full-range
//!   operands (wild skips, out-of-range offsets, unknown call ids) — which
//!   must end in a typed `Fault`, never a host panic,
//! * whole campaigns: exported records identical at 1 vs 8 workers.
//!
//! A golden moves only with a deliberate change to the interpreter's
//! observable behaviour; re-record it then and say why.

use polycanary::analysis::scrub::scrub;
use polycanary::attacks::{
    AttackKind, Campaign, Deployment, StopRule, VictimConfig, VictimKey, VictimSnapshot,
};
use polycanary::core::SchemeKind;
use polycanary::crypto::sha1::Sha1;
use polycanary::crypto::{Prng, SplitMix64};
use polycanary::rewriter::LinkMode;
use polycanary::vm::mem::DEFAULT_STACK_SIZE;
use polycanary::vm::program::CODE_BASE;
use polycanary::vm::{
    Cpu, ExecConfig, Exit, Fault, FuncId, Inst, Machine, Pid, Process, Program, Reg, RunOutcome,
};
use polycanary::workloads::{build_machine, spec_suite, Build};

const GOLDEN_FUZZED: u64 = 0xc638_13b0_4993_758f;
const GOLDEN_RETURNS: u64 = 0xe926_f613_be15_a7b8;
const GOLDEN_WORKLOAD_CELLS: u64 = 0x18ad_3ab6_cc04_48ac;
const GOLDEN_VICTIM_CELLS: u64 = 0xb429_1a6f_17bf_9a82;

const REGS: [Reg; 6] = [Reg::Rax, Reg::Rbx, Reg::Rcx, Reg::Rdx, Reg::Rdi, Reg::R12];

/// Appends one randomly chosen instruction chunk.  Chunks include the
/// canary prologue and epilogue sequences and branches whose targets can
/// land in the middle of those sequences or past the end of the function.
fn push_chunk(rng: &mut SplitMix64, insts: &mut Vec<Inst>) {
    let reg = REGS[(rng.next_u64() % REGS.len() as u64) as usize];
    let frame_offset = -8 * (1 + (rng.next_u64() % 6) as i32);
    match rng.next_u64() % 20 {
        0 => {
            // SSP canary prologue.
            insts.push(Inst::MovTlsToReg { dst: reg, offset: 0x28 });
            insts.push(Inst::MovRegToFrame { src: reg, offset: frame_offset });
        }
        1 => {
            // Full canary epilogue.
            insts.push(Inst::MovFrameToReg { dst: reg, offset: frame_offset });
            insts.push(Inst::XorTlsReg { dst: reg, offset: 0x28 });
            insts.push(Inst::JeSkip(1));
            insts.push(Inst::CallStackChkFail);
        }
        2 => {
            // Compare+guard without the frame load.
            insts.push(Inst::XorTlsReg { dst: reg, offset: 0x28 });
            insts.push(Inst::JeSkip(1));
            insts.push(Inst::CallStackChkFail);
        }
        3 => insts.push(Inst::JeSkip((rng.next_u64() % 6) as usize)),
        4 => insts.push(Inst::JneSkip((rng.next_u64() % 6) as usize)),
        5 => insts.push(Inst::JmpSkip((rng.next_u64() % 5) as usize)),
        6 => insts.push(Inst::CallFn(FuncId((rng.next_u64() % 6) as usize))),
        7 => insts.push(Inst::Ret),
        8 => insts.push(Inst::CopyInputToFrame { offset: frame_offset }),
        9 => insts.push(Inst::CopyInputToFrameBounded {
            offset: frame_offset,
            max_len: (rng.next_u64() % 24) as u32,
        }),
        10 => insts.push(Inst::Rdrand(reg)),
        11 => insts.push(Inst::Rdtsc),
        12 => insts.push(Inst::PushReg(reg)),
        13 => insts.push(Inst::PopReg(reg)),
        14 => insts.push(Inst::MovRegToFrame { src: reg, offset: frame_offset }),
        15 => insts.push(Inst::MovImmToReg { dst: reg, imm: rng.next_u64() % (1 << 20) }),
        16 => insts.push(Inst::CmpRegImm { reg, imm: rng.next_u64() % 3 }),
        17 => insts.push(Inst::TestReg(reg)),
        18 => insts.push(Inst::XorRegReg { dst: reg, src: Reg::Rbx }),
        _ => insts.push(Inst::CallCheckCanary32),
    }
}

fn gen_program(rng: &mut SplitMix64) -> Program {
    let mut prog = Program::new();
    let nfuncs = 1 + rng.next_u64() % 3;
    for f in 0..nfuncs {
        let mut insts = vec![
            Inst::PushReg(Reg::Rbp),
            Inst::MovRegReg { dst: Reg::Rbp, src: Reg::Rsp },
            Inst::SubRspImm(0x40),
        ];
        for _ in 0..(2 + rng.next_u64() % 12) {
            push_chunk(rng, &mut insts);
        }
        // Most functions return cleanly; some fall off the end.
        if !rng.next_u64().is_multiple_of(4) {
            insts.push(Inst::Leave);
            insts.push(Inst::Ret);
        }
        prog.add_function(format!("f{f}"), insts).unwrap();
    }
    prog.set_entry(FuncId(0));
    prog.finalize();
    prog
}

/// Everything one run leaves observable: its outcome (exit, cycles,
/// instructions) plus the process's output bytes, canary-address stack and
/// DCR list.
type Observation = (RunOutcome, Vec<u8>, Vec<u64>, Vec<u64>);

/// Runs `entry` on `p` and collects its [`Observation`].
fn run_observed(prog: &Program, mut p: Process, entry: FuncId, cfg: &ExecConfig) -> Observation {
    let mut cpu = Cpu::new();
    let exit = cpu.run(prog, &mut p, entry, cfg);
    let outcome = RunOutcome { exit, cycles: cpu.cycles, instructions: cpu.instructions };
    (
        outcome,
        p.take_output(),
        std::mem::take(&mut p.canary_addresses),
        std::mem::take(&mut p.dcr_list),
    )
}

/// Runs `entry` on a freshly prepared process.
fn observe(
    prog: &Program,
    entry: FuncId,
    cfg: &ExecConfig,
    seed: u64,
    input_len: usize,
) -> Observation {
    let mut p = Process::new(Pid(1), seed, DEFAULT_STACK_SIZE);
    p.tls.set_canary(seed ^ 0xD00D_F00D_0DD5_EED5);
    p.owf_key = Some((seed, seed.rotate_left(13)));
    p.set_input(vec![0x41u8; input_len]);
    run_observed(prog, p, entry, cfg)
}

/// A SHA-1 fold of a test's observations, in run order, truncated to one
/// word: the golden the test compares against.
struct Digest(Sha1);

impl Digest {
    fn new() -> Self {
        Digest(Sha1::new())
    }

    fn fold(&mut self, (outcome, output, canaries, dcr): &Observation) {
        let exit = format!("{:?}", outcome.exit);
        for bytes in [exit.as_bytes(), output] {
            self.0.update(&(bytes.len() as u64).to_le_bytes());
            self.0.update(bytes);
        }
        self.0.update(&outcome.cycles.to_le_bytes());
        self.0.update(&outcome.instructions.to_le_bytes());
        for words in [canaries, dcr] {
            self.0.update(&(words.len() as u64).to_le_bytes());
            for word in words {
                self.0.update(&word.to_le_bytes());
            }
        }
    }

    fn assert_golden(self, golden: u64) {
        let digest = self.0.finalize();
        let word = u64::from_be_bytes(digest[..8].try_into().expect("SHA-1 has 20 bytes"));
        assert_eq!(word, golden, "digest {word:#018x} differs from the golden {golden:#018x}");
    }
}

#[test]
fn fuzzed_programs_agree_across_dispatchers() {
    let mut rng = SplitMix64::new(0x5EED_CAFE);
    let mut digest = Digest::new();
    for _ in 0..200 {
        let prog = gen_program(&mut rng);
        let seed = rng.next_u64();
        let input_len = (rng.next_u64() % 40) as usize;
        for max_instructions in [0u64, 1, 2, 3, 5, 9, 17, 33, 120, 5_000] {
            let cfg = ExecConfig { max_instructions, hijack_target: Some(0x4141_4141) };
            digest.fold(&observe(&prog, FuncId(0), &cfg, seed, input_len));
        }
    }
    digest.assert_golden(GOLDEN_FUZZED);
}

/// Draws one of a few interesting values, or a uniformly random one.
fn pick<T: Copy>(rng: &mut SplitMix64, edges: &[T], random: impl FnOnce(u64) -> T) -> T {
    let draw = rng.next_u64();
    match edges.get((draw % (edges.len() as u64 + 1)) as usize) {
        Some(&edge) => edge,
        None => random(rng.next_u64()),
    }
}

/// Number of instruction variants [`unstructured_inst`] draws from.
const INST_VARIANTS: u64 = 46;

/// One instruction of any variant with full-range operands: skips up to
/// `usize::MAX`, `i32::MIN` / `i32::MAX` frame offsets, TLS offsets past
/// the block, unknown call ids, any register (`%rsp` and `%rbp` included)
/// and arbitrary immediates and cycle counts.  No structure is imposed, so
/// most programs fault — the point is *how* they fault.
fn unstructured_inst(rng: &mut SplitMix64, variant: u64) -> Inst {
    let reg = |rng: &mut SplitMix64| Reg::ALL[(rng.next_u64() % Reg::ALL.len() as u64) as usize];
    let skip = |rng: &mut SplitMix64| {
        pick(rng, &[0, 1, 2, 3, usize::MAX, usize::MAX - 1, usize::MAX / 2], |r| r as usize)
    };
    let disp = |rng: &mut SplitMix64| {
        pick(rng, &[0, 8, 16, -8, -0x10, -0x40, i32::MIN, i32::MAX], |r| r as i32)
    };
    let tls = |rng: &mut SplitMix64| {
        pick(rng, &[0x28, 0x2a8, 0x2b0, 0x2b8, u64::MAX, u64::MAX - 7], |r| r % 0x1000)
    };
    let imm = |rng: &mut SplitMix64| pick(rng, &[0, 1, u64::MAX, CODE_BASE], |r| r);
    let imm32 = |rng: &mut SplitMix64| pick(rng, &[0, 8, 0x40, u32::MAX], |r| r as u32);
    match variant {
        0 => Inst::PushReg(reg(rng)),
        1 => Inst::PopReg(reg(rng)),
        2 => Inst::MovRegReg { dst: reg(rng), src: reg(rng) },
        3 => Inst::SubRspImm(imm32(rng)),
        4 => Inst::AddRspImm(imm32(rng)),
        5 => Inst::Leave,
        6 => Inst::Ret,
        7 => Inst::MovTlsToReg { dst: reg(rng), offset: tls(rng) },
        8 => Inst::MovRegToTls { src: reg(rng), offset: tls(rng) },
        9 => Inst::MovRegToFrame { src: reg(rng), offset: disp(rng) },
        10 => Inst::MovFrameToReg { dst: reg(rng), offset: disp(rng) },
        11 => Inst::MovFrameToReg32 { dst: reg(rng), offset: disp(rng) },
        12 => Inst::MovRegToFrame32 { src: reg(rng), offset: disp(rng) },
        13 => Inst::MovImmToReg { dst: reg(rng), imm: imm(rng) },
        14 => Inst::MovImmToFrame { offset: disp(rng), imm: imm32(rng) },
        15 => Inst::LeaFrameToReg { dst: reg(rng), offset: disp(rng) },
        16 => Inst::MovMemToReg { dst: reg(rng), base: reg(rng), offset: disp(rng) },
        17 => Inst::MovRegToMem { src: reg(rng), base: reg(rng), offset: disp(rng) },
        18 => Inst::XorRegReg { dst: reg(rng), src: reg(rng) },
        19 => Inst::XorTlsReg { dst: reg(rng), offset: tls(rng) },
        20 => Inst::AddRegReg { dst: reg(rng), src: reg(rng) },
        21 => Inst::ShlRegImm { dst: reg(rng), amount: rng.next_u64() as u8 },
        22 => Inst::ShrRegImm { dst: reg(rng), amount: rng.next_u64() as u8 },
        23 => Inst::OrRegReg { dst: reg(rng), src: reg(rng) },
        24 => Inst::CmpFrameReg { reg: reg(rng), offset: disp(rng) },
        25 => Inst::CmpRegImm { reg: reg(rng), imm: imm(rng) },
        26 => Inst::TestReg(reg(rng)),
        27 => Inst::JeSkip(skip(rng)),
        28 => Inst::JneSkip(skip(rng)),
        29 => Inst::JmpSkip(skip(rng)),
        30 => Inst::CallFn(FuncId(pick(rng, &[0, 1, 2, 3, usize::MAX], |r| r as usize))),
        31 => Inst::CallStackChkFail,
        32 => Inst::CallCheckCanary32,
        33 => Inst::Nop,
        34 => Inst::Rdrand(reg(rng)),
        35 => Inst::Rdtsc,
        36 => Inst::AesEncryptFrame { nonce: reg(rng) },
        37 => Inst::RecordCanaryAddress { offset: disp(rng) },
        38 => Inst::PopCanaryAddress,
        39 => Inst::LinkCanaryPush { offset: disp(rng) },
        40 => Inst::LinkCanaryPop { offset: disp(rng) },
        41 => Inst::CopyInputToFrame { offset: disp(rng) },
        42 => Inst::CopyInputToFrameBounded { offset: disp(rng), max_len: imm32(rng) },
        43 => Inst::InputLenToReg(reg(rng)),
        44 => Inst::OutputReg(reg(rng)),
        _ => Inst::Compute(imm(rng)),
    }
}

/// Runs `prog` and turns a host panic into a test failure that names the
/// program.
fn observe_unwinding(
    prog: &Program,
    cfg: &ExecConfig,
    seed: u64,
    input_len: usize,
    case: u32,
) -> Observation {
    let run = || observe(prog, FuncId(0), cfg, seed, input_len);
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|_| {
        let bodies: Vec<&[Inst]> = prog.iter().map(|(_, f)| f.insts()).collect();
        panic!("case {case}: host panic on {bodies:#?}")
    })
}

#[test]
fn unstructured_programs_fault_typed() {
    let mut rng = SplitMix64::new(0x0B5C_0FF5);
    let mut drawn = [false; INST_VARIANTS as usize];
    for case in 0..3_000u32 {
        let mut prog = Program::new();
        for f in 0..1 + rng.next_u64() % 3 {
            let insts = (0..rng.next_u64() % 10)
                .map(|_| {
                    let variant = rng.next_u64() % INST_VARIANTS;
                    drawn[variant as usize] = true;
                    unstructured_inst(&mut rng, variant)
                })
                .collect();
            prog.add_function(format!("f{f}"), insts).unwrap();
        }
        prog.set_entry(FuncId(0));
        prog.finalize();
        let seed = rng.next_u64();
        let input_len = (rng.next_u64() % 64) as usize;
        for max_instructions in [0u64, 1, 2, 4, 7, 300] {
            let cfg = ExecConfig { max_instructions, hijack_target: Some(CODE_BASE + 1) };
            let observed = observe_unwinding(&prog, &cfg, seed, input_len, case);
            assert!(observed.0.instructions <= max_instructions, "case {case}");
        }
    }
    assert!(drawn.iter().all(|&d| d), "every instruction variant was drawn");
}

#[test]
fn wild_skips_fault_at_the_end_marker_in_both_dispatchers() {
    for branch in [Inst::JmpSkip(usize::MAX), Inst::JeSkip(usize::MAX), Inst::JneSkip(usize::MAX)] {
        let mut prog = Program::new();
        // `xor %rax,%rax` sets ZF, so `je` is taken and `jne` falls through
        // to the trailing `jmp`.
        let body = vec![
            Inst::XorRegReg { dst: Reg::Rax, src: Reg::Rax },
            branch,
            Inst::JmpSkip(usize::MAX - 1),
            Inst::Ret,
        ];
        let f = prog.add_function("f", body).unwrap();
        prog.set_entry(f);
        prog.finalize();
        let func = prog.function(f).unwrap();
        let end = func.entry_addr() + func.encoded_size();
        let cfg = ExecConfig { max_instructions: 1_000, hijack_target: None };
        let (outcome, ..) = observe(&prog, f, &cfg, 1, 0);
        assert_eq!(outcome.exit, Exit::Fault(Fault::InvalidReturn { addr: end }), "{branch:?}");
        assert_eq!(outcome.instructions, 3 - u64::from(branch != Inst::JneSkip(usize::MAX)));
    }
}

/// `mov $addr,%rax; push %rax; ret` — returns to an arbitrary address.
/// Every body it builds has the same size, so swapping the address in
/// never moves the layout.
fn ret_to(addr: u64) -> Vec<Inst> {
    vec![Inst::MovImmToReg { dst: Reg::Rax, imm: addr }, Inst::PushReg(Reg::Rax), Inst::Ret]
}

/// Address resolution by brute force: every instruction address, then every
/// function's one-past-the-end marker (entry plus encoded size).
fn scan_addr(prog: &Program, addr: u64) -> Option<(FuncId, usize)> {
    prog.iter().find_map(|(id, func)| {
        let len = func.insts().len();
        assert_eq!(func.inst_addr(len), None, "{id}: no address past the last instruction");
        let end = func.entry_addr() + func.encoded_size();
        (0..len)
            .find(|&i| func.inst_addr(i) == Some(addr))
            .map(|i| (id, i))
            .or_else(|| (addr == end).then_some((id, len)))
    })
}

/// The last function's one-past-the-end marker: the top of `.text`.
fn last_end_marker(prog: &Program) -> u64 {
    let (_, func) = prog.iter().last().expect("program has functions");
    func.entry_addr() + func.encoded_size()
}

/// Points the `stub` function's [`ret_to`] at `addr`, runs it under two
/// budgets and folds both observations into `digest`: a roomy budget, and
/// one that runs out exactly after the stub's `ret`.  The tight budget
/// tells a resolved return (the next fetch hits the instruction limit)
/// from an unresolved one (`ret` itself faults), even where the two would
/// fault alike — a return to an end marker falls off that function with
/// the same address an unresolved return reports.
///
/// Returns the `(roomy, tight)` outcomes.
fn return_to(prog: &mut Program, stub: FuncId, addr: u64, digest: &mut Digest) -> [RunOutcome; 2] {
    prog.replace_function_body(stub, ret_to(addr)).unwrap();
    prog.finalize();
    [300, 3].map(|max_instructions| {
        let cfg = ExecConfig { max_instructions, hijack_target: None };
        let observed = observe(prog, stub, &cfg, addr, 8);
        digest.fold(&observed);
        observed.0
    })
}

/// What the tight budget of [`return_to`] ends in: a resolved return
/// retires the stub and hits the limit on the next fetch; an unresolved
/// one faults in `ret` itself.
fn tight_exit(resolves: Option<(FuncId, usize)>, addr: u64) -> Exit {
    match resolves {
        Some(_) => Exit::Fault(Fault::InstructionLimit),
        None => Exit::Fault(Fault::InvalidReturn { addr }),
    }
}

#[test]
fn return_addresses_resolve_identically_at_every_address() {
    let mut rng = SplitMix64::new(0xADD2_E550);
    let mut digest = Digest::new();
    for case in 0..40u32 {
        let mut prog = gen_program(&mut rng);
        let stub = prog.add_function("ret_to", ret_to(0)).unwrap();
        prog.finalize();
        let top = last_end_marker(&prog);
        for addr in CODE_BASE - 1..=top + 1 {
            let resolves = scan_addr(&prog, addr);
            assert_eq!(prog.lookup_addr(addr), resolves, "case {case}: lookup_addr({addr:#x})");
            let [_, tight] = return_to(&mut prog, stub, addr, &mut digest);
            assert_eq!(tight.exit, tight_exit(resolves, addr), "case {case}: return to {addr:#x}");
        }
    }
    digest.assert_golden(GOLDEN_RETURNS);
}

#[test]
fn returns_to_every_address_class_agree_across_dispatchers() {
    let mut prog = Program::new();
    let f = prog
        .add_function(
            "f",
            vec![
                Inst::PushReg(Reg::Rbp),
                Inst::MovRegReg { dst: Reg::Rbp, src: Reg::Rsp },
                Inst::Compute(3),
                Inst::Leave,
                Inst::Ret,
            ],
        )
        .unwrap();
    let stub = prog.add_function("ret_to", ret_to(0)).unwrap();
    prog.finalize();
    let func = prog.function(f).unwrap();
    let ret = func.inst_addr(4).unwrap();
    let mid = func.inst_addr(1).unwrap() + 1;
    let end = func.entry_addr() + func.encoded_size();
    let padding = end + 1;
    assert!(padding < prog.function(stub).unwrap().entry_addr(), "alignment leaves padding");
    let top = last_end_marker(&prog);

    // (label, address, what `lookup_addr` must say)
    let classes = [
        ("instruction boundary", ret, Some((f, 4))),
        ("mid-instruction byte", mid, None),
        ("alignment padding", padding, None),
        ("end marker", end, Some((f, 5))),
        ("below .text", CODE_BASE - 1, None),
        ("above .text", top + 1, None),
        ("null", 0, None),
        ("top of the address space", u64::MAX, None),
    ];
    for (label, addr, resolves) in classes {
        assert_eq!(prog.lookup_addr(addr), resolves, "{label}");
        let [roomy, tight] = return_to(&mut prog, stub, addr, &mut Digest::new());
        let expected = match resolves {
            // Landing on `f`'s `ret` pops the boot sentinel: a clean exit
            // with the stub's `%rax`.
            Some((_, 4)) => Exit::Normal(addr),
            // The end marker falls off `f`; everything else never resolves.
            _ => Exit::Fault(Fault::InvalidReturn { addr }),
        };
        assert_eq!(roomy.exit, expected, "{label}");
        assert_eq!(tight.exit, tight_exit(resolves, addr), "{label}, budget 3");
    }
}

#[test]
fn workload_build_cells_agree_across_dispatchers() {
    let builds: Vec<Build> = [
        Build::Native,
        Build::BinaryRewriter(LinkMode::Dynamic),
        Build::BinaryRewriter(LinkMode::Static),
    ]
    .into_iter()
    .chain(SchemeKind::ALL.into_iter().map(Build::Compiler))
    .collect();
    // A tight budget keeps the cell sweep fast; hitting the limit is itself
    // an outcome the golden pins, cycle for cycle.
    let cfg = ExecConfig { max_instructions: 150_000, hijack_target: None };
    let mut digest = Digest::new();
    for spec in spec_suite().iter().take(3) {
        let module = spec.module();
        for build in &builds {
            let mut machine = build_machine(&module, *build, 0xBEEF);
            let worker = machine.spawn();
            let entry = machine.program().entry().unwrap();
            digest.fold(&run_observed(machine.program(), worker.clone(), entry, &cfg));
        }
    }
    digest.assert_golden(GOLDEN_WORKLOAD_CELLS);
}

#[test]
fn victim_cells_agree_across_dispatchers_under_attack_payloads() {
    let mut digest = Digest::new();
    for scheme in SchemeKind::ALL {
        for deployment in [Deployment::Compiler, Deployment::BinaryRewriter] {
            let config = VictimConfig::new(scheme, 0xD15).with_deployment(deployment);
            let snapshot = VictimSnapshot::build(VictimKey::of(&config));
            let geometry = snapshot.geometry();
            let hooks = snapshot.runtime_scheme().scheme().runtime_hooks(0xFEED);
            let mut machine = Machine::from_snapshot(snapshot.vm_snapshot(), hooks, config.seed);
            let mut parent = machine.restore(snapshot.vm_snapshot());
            // A real forked worker: TLS cloned, then the scheme's fork hook
            // runs in the child, exactly as the server's connect path does.
            let worker = machine.fork(&mut parent);
            let program = machine.program();
            let smash = vec![0x41u8; geometry.full_overwrite_len()];
            let payloads: [(&str, &[u8]); 3] = [
                ("handle_request", b"GET / HTTP/1.1"),
                ("leak_status", b"status"),
                ("handle_request", &smash),
            ];
            for (endpoint, payload) in payloads {
                let entry = program.function_by_name(endpoint).unwrap();
                let mut p = worker.clone();
                p.set_input(payload.to_vec());
                digest.fold(&run_observed(program, p, entry, &ExecConfig::default()));
            }
        }
    }
    digest.assert_golden(GOLDEN_VICTIM_CELLS);
}

#[test]
fn campaign_records_identical_at_one_and_eight_workers() {
    for scheme in [SchemeKind::Ssp, SchemeKind::Pssp] {
        let base = Campaign::new(AttackKind::ByteByByte { budget: 2_000 }, scheme)
            .with_seed_range(0xFA11_0F5E, 48)
            .with_stop_rule(StopRule::sprt());
        let one = base.clone().with_workers(1).run();
        let eight = base.with_workers(8).run();
        assert_eq!(one.runs, eight.runs, "{scheme}: per-victim records");
        assert_eq!(scrub(&one.record()), scrub(&eight.record()), "{scheme}: exported record");
    }
}
