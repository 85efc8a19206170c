//! Property tests for the checkpoint container: seeded random machine
//! states must survive `restore(checkpoint(s))` *byte-identically* —
//! memory with `first_diff_detail == None`, register files and trap
//! registers equal — and serialization must be canonical (equal states
//! re-serialize to equal bytes).

use majc_core::{CpuSnap, FuncSim, TrapRegs};
use majc_isa::{SplitMix64, NUM_REGS};
use majc_mem::{fnv1a, FlatMem};
use majc_serve::jobs::{arch_digest, fuzz_program};
use majc_serve::Checkpoint;

/// A seeded arbitrary machine state, deliberately poking page
/// boundaries, high addresses, and partially-zero pages.
fn random_state(seed: u64) -> Checkpoint {
    let mut rng = SplitMix64::new(seed);
    let mut mem = FlatMem::new();
    for _ in 0..rng.index(200) {
        let addr = match rng.index(4) {
            0 => rng.next_u32() & 0x0000_FFFC,              // low pages
            1 => (rng.next_u32() % 0x100) * 0x1000,         // page starts
            2 => (0x1000 * (rng.next_u32() % 256)) + 0xFFC, // page ends
            _ => rng.next_u32() & 0x00FF_FFFC,              // anywhere low 16M
        };
        mem.write_u32(addr, rng.next_u32());
    }
    // Touched-but-zero pages must not affect the canonical form.
    mem.write_u32(0x00AB_C000, 0);

    let mut cpus = Vec::new();
    for _ in 0..1 + rng.index(2) {
        let regs: Vec<u32> = (0..NUM_REGS).map(|_| rng.next_u32()).collect();
        let trap = TrapRegs {
            cause: rng.next_u32() % 16,
            tpc: rng.next_u32() & !3,
            tnpc: rng.next_u32() & !3,
            bad_addr: rng.next_u32(),
            active: rng.flip(),
        };
        cpus.push(CpuSnap { regs, pc: rng.next_u32() & !3, halted: rng.flip(), trap });
    }
    Checkpoint { cpus, mem }
}

#[test]
fn restore_of_checkpoint_is_byte_identical() {
    for seed in 0..40u64 {
        let state = random_state(seed);
        let bytes = state.to_bytes();
        let restored = Checkpoint::from_bytes(&bytes).unwrap_or_else(|e| {
            panic!("seed {seed}: container failed to parse: {e:?}");
        });

        // Memory: canonical snapshot equal AND no observable byte differs.
        assert_eq!(
            restored.mem.first_diff_detail(&state.mem),
            None,
            "seed {seed}: restored memory differs"
        );
        assert_eq!(restored.mem.to_snapshot(), state.mem.to_snapshot(), "seed {seed}");

        // CPU contexts: register files and trap registers exactly equal.
        assert_eq!(restored.cpus.len(), state.cpus.len(), "seed {seed}");
        for (i, (r, s)) in restored.cpus.iter().zip(&state.cpus).enumerate() {
            assert_eq!(r.regs, s.regs, "seed {seed} cpu {i}: register file");
            assert_eq!(r.trap, s.trap, "seed {seed} cpu {i}: trap registers");
            assert_eq!((r.pc, r.halted), (s.pc, s.halted), "seed {seed} cpu {i}");
        }

        // Canonical: re-serializing the restored state is byte-identical.
        assert_eq!(restored.to_bytes(), bytes, "seed {seed}: serialization not canonical");
        assert_eq!(restored.id(), state.id(), "seed {seed}: id not state-determined");
    }
}

#[test]
fn single_bit_corruption_never_parses() {
    let state = random_state(7);
    let bytes = state.to_bytes();
    let mut rng = SplitMix64::new(99);
    for _ in 0..64 {
        let mut bad = bytes.clone();
        let at = rng.index(bad.len());
        bad[at] ^= 1 << rng.index(8);
        if bad == bytes {
            continue;
        }
        assert!(Checkpoint::from_bytes(&bad).is_err(), "bit flip at byte {at} went undetected");
    }
}

/// Checkpoints taken mid-run of real (fuzzed) programs restore into a
/// simulator that finishes with the architectural digests of the
/// uninterrupted run.
#[test]
fn mid_run_checkpoints_replay_to_identical_digests() {
    let mut exercised = 0;
    for seed in 0..120u64 {
        let prog = fuzz_program(seed);

        // Uninterrupted reference run.
        let mut whole = FuncSim::new(prog.clone(), FlatMem::new());
        if whole.run(5_000).is_err() || !whole.halted() {
            continue; // traps and budget-runners have no halt digest
        }
        let want = arch_digest(&whole.capture(), &whole.mem);
        let total = whole.stats.packets;
        if total < 2 {
            continue;
        }

        // Split at every quartile boundary.
        for cut in [total / 4, total / 2, (3 * total) / 4] {
            let cut = cut.max(1);
            let mut first = FuncSim::new(prog.clone(), FlatMem::new());
            first.run(cut).unwrap();
            let ckpt = Checkpoint { cpus: vec![first.capture()], mem: first.mem.clone() };

            let restored = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
            let mut second = FuncSim::resume(prog.clone(), restored.mem.clone(), &restored.cpus[0]);
            second.run(10_000).unwrap();
            assert!(second.halted(), "seed {seed} cut {cut}: resumed run must finish");
            let got = arch_digest(&second.capture(), &second.mem);
            assert_eq!(got, want, "seed {seed} cut {cut}: split run diverged");
            exercised += 1;
        }
    }
    assert!(exercised >= 30, "property needs coverage; only {exercised} splits ran");
}

/// `arch_digest` of six suite kernels' end states (interpreter, run to
/// halt), recorded with the original formula: `fnv1a` over the CPU bytes
/// followed by the materialised memory snapshot.
#[test]
fn arch_digest_pins_kernel_end_states() {
    const PINNED: [(&str, &str); 6] = [
        ("biquad", "987108768e6c067e"),
        ("fir", "436a0349fcb21951"),
        ("maxsearch", "46e283b5d52da692"),
        ("fft-radix2", "7c705e109ab61f46"),
        ("vld", "94a1b3d88d8eb3b6"),
        ("dmatmul", "7062a347ace010d4"),
    ];
    let cases = majc_kernels::suite::fast_cases();
    for (name, want) in PINNED {
        let c = cases.iter().find(|c| c.name == name).expect("suite kernel");
        let mut fs = FuncSim::new(c.prog.clone(), c.mem.clone());
        fs.run_to_halt(100_000_000).unwrap();
        assert_eq!(arch_digest(&fs.capture(), &fs.mem), want, "{name}");
    }
}

/// The one-pass `arch_digest` equals the two-pass formula it replaced on
/// seeded random images, the empty image included.
#[test]
fn arch_digest_equals_the_two_pass_formula() {
    let two_pass = |cpu: &CpuSnap, mem: &FlatMem| {
        let mut bytes = cpu.to_bytes();
        bytes.extend_from_slice(&mem.to_snapshot());
        format!("{:016x}", fnv1a(&bytes))
    };
    for seed in 0..40u64 {
        let state = random_state(seed);
        for cpu in &state.cpus {
            assert_eq!(arch_digest(cpu, &state.mem), two_pass(cpu, &state.mem), "seed {seed}");
            let empty = FlatMem::new();
            assert_eq!(arch_digest(cpu, &empty), two_pass(cpu, &empty), "seed {seed}, empty");
        }
    }
}
