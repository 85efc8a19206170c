//! Cross-crate integration tests: assembler → encoder → simulators →
//! kernels → chip, exercised through the public facade.

use majc::asm::{assemble, program_to_string, Asm};
use majc::core::{CycleSim, FuncSim, LocalMemSys, PerfectPort, TimingConfig};
use majc::isa::{decode_program, encode_program, Cond, Instr, Program, Reg};
use majc::mem::FlatMem;

#[test]
fn text_binary_text_round_trip() {
    let src = r"
        .org 0x100
                setlo g0, 16
                setlo g10, 0
        loop:   add g10, g10, g0 | padd.sat g11, g12, g13 | dotp g14, g15, g16
                sub g0, g0, 1
                br.gt.t g0, loop
                st.w g10, [g1+4]
                halt
    ";
    let p1 = assemble(src).unwrap();
    // Through the binary encoding...
    let image = encode_program(p1.packets()).unwrap();
    let p2 = Program::new(p1.base(), decode_program(&image).unwrap());
    assert_eq!(p1.packets(), p2.packets());
    // ...and through the disassembler.
    let text = program_to_string(&p2);
    let p3 = assemble(&text).unwrap();
    assert_eq!(p1.packets(), p3.packets());
}

#[test]
fn functional_and_cycle_sims_agree_on_a_loop() {
    let src = r"
                setlo g0, 50
                setlo g1, 0
                setlo g2, 3
        loop:   nop | muladd g1, g0, g2
                sub g0, g0, 1
                br.gt.t g0, loop
                halt
    ";
    let prog = assemble(src).unwrap();
    let mut f = FuncSim::new(prog.clone(), FlatMem::new());
    f.run(100_000).unwrap();
    let mut c = CycleSim::new(prog, PerfectPort::new(), TimingConfig::default());
    c.run(100_000).unwrap();
    assert!(f.halted() && c.halted());
    for i in 0..96u8 {
        assert_eq!(
            f.regs.get(Reg::g(i)),
            c.regs(0).get(Reg::g(i)),
            "g{i} diverged between simulators"
        );
    }
    // sum over 3*k for k=1..50 = 3825.
    assert_eq!(f.regs.get(Reg::g(1)), 3825);
}

#[test]
fn cycle_sim_is_slower_with_real_memory() {
    // A streaming sum over 16 KB.
    let mut a = Asm::new(0);
    a.set32(Reg::g(0), 0x0001_0000);
    a.set32(Reg::g(2), 4096);
    a.label("l");
    a.op(Instr::Ld {
        w: majc::isa::MemWidth::W,
        pol: majc::isa::CachePolicy::Cached,
        rd: Reg::g(1),
        base: Reg::g(0),
        off: majc::isa::Off::Imm(0),
    });
    a.pack(&[
        Instr::Alu {
            op: majc::isa::AluOp::Add,
            rd: Reg::g(0),
            rs1: Reg::g(0),
            src2: majc::isa::Src::Imm(4),
        },
        Instr::Alu {
            op: majc::isa::AluOp::Add,
            rd: Reg::g(3),
            rs1: Reg::g(3),
            src2: majc::isa::Src::Reg(Reg::g(1)),
        },
    ]);
    a.op(Instr::Alu {
        op: majc::isa::AluOp::Sub,
        rd: Reg::g(2),
        rs1: Reg::g(2),
        src2: majc::isa::Src::Imm(1),
    });
    a.br(Cond::Gt, Reg::g(2), "l", true);
    a.op(Instr::Halt);
    let prog = a.finish().unwrap();

    let mut mem = FlatMem::new();
    let mut want = 0u32;
    for i in 0..4096u32 {
        mem.write_u32(0x0001_0000 + 4 * i, i);
        want = want.wrapping_add(i);
    }
    let mut real = CycleSim::new(
        prog.clone(),
        LocalMemSys::majc5200().with_mem(mem.clone()),
        TimingConfig::default(),
    );
    real.run(10_000_000).unwrap();
    let mut ideal = CycleSim::new(prog, PerfectPort::new().with_mem(mem), TimingConfig::default());
    ideal.run(10_000_000).unwrap();
    assert_eq!(real.regs(0).get(Reg::g(3)), want);
    assert_eq!(ideal.regs(0).get(Reg::g(3)), want);
    assert!(
        real.stats.cycles > ideal.stats.cycles,
        "cold streaming must cost: {} vs {}",
        real.stats.cycles,
        ideal.stats.cycles
    );
}

#[test]
fn every_table_regenerates() {
    // The cheap artifacts (the heavyweight ones run in the bench harness
    // and their own crates' tests).
    use majc::kernels::peak;
    assert!((peak::analytic_gflops(500e6) - 6.1667).abs() < 1e-3);
    assert!((peak::analytic_gops(500e6) - 12.3333).abs() < 1e-3);
    let scene = majc::gfx::demo_strips(16, 60, 2);
    let c = majc::gfx::compress(&scene, 100.0);
    let r = majc::gfx::simulate(&c, &majc::gfx::PipelineConfig::default());
    assert!(r.mtris_per_sec > 30.0);
}

#[test]
fn kernel_extracts_match_references_end_to_end() {
    use majc::isa::XorShift64;
    use majc::kernels::harness::run_func;
    use majc::kernels::{fir, idct};
    let mut rng = XorShift64::new(77);
    // FIR through the public API.
    let coeffs: Vec<f32> = (0..fir::TAPS).map(|_| rng.next_f32() * 0.2).collect();
    let xs: Vec<f32> = (0..fir::OUTPUTS + fir::TAPS - 1).map(|_| rng.next_f32()).collect();
    let (p, m) = fir::build(&coeffs, &xs);
    let mut out = run_func(&p, m);
    assert_eq!(fir::extract(&mut out, fir::OUTPUTS), fir::reference(&coeffs, &xs));
    // IDCT through the public API.
    let mut blk = [0i16; 64];
    blk[0] = 512;
    blk[9] = -100;
    let (p, m) = idct::build(&blk);
    let mut out = run_func(&p, m);
    assert_eq!(idct::extract(&mut out), idct::reference(&blk));
}
