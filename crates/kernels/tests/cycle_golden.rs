//! Golden timing: the cycle model's full statistics on a fixed workload
//! set, pinned to recorded values.
//!
//! Every other timing check compares the cycle model against itself (the
//! farm's `--jobs` gates, the benchmark's warm-up round) or bounds it
//! loosely (the paper tables). This one pins absolute numbers, so any
//! change to the issue logic, the memory hierarchy or the predictor that
//! moves a single counter on these runs fails `cargo test`. A change that
//! is *meant* to move timing updates the table below and says why.
//!
//! Workloads: the 16 fast DSP kernels and a fixed `majc-gen` slice, each
//! from reset to halt on `LocalMemSys::majc5200()` with cold caches, plus
//! one dual-CPU `Majc5200` run (VLD on CPU0, a rebased IDCT on CPU1 over
//! one shared memory image, as in the `dual_cpu_video` example).

use majc_core::{CycleSim, CycleStats, LocalMemSys, TimingConfig};
use majc_isa::{Program, XorShift64};
use majc_kernels::suite::{self, SuiteCase};
use majc_kernels::{idct, vld};
use majc_mem::FlatMem;
use majc_soc::Majc5200;

/// Generated programs per family in the pinned corpus slice.
const CORPUS_PER_FAMILY: usize = 2;

/// Every counter the cycle model keeps, one line per run.
fn fingerprint(name: &str, s: &CycleStats) -> String {
    let m = &s.mem;
    format!(
        "{name} cyc={} pkt={} ins={} w={:?} stall={:?} ld={} st={} pf={} br={}/{} mp={} cs={} \
         traps={} ic={}/{} dc={}/{} mshr={} lb={} sb={} xb={}/{} dram={} dport={}",
        s.cycles,
        s.packets,
        s.instrs,
        s.width_hist,
        s.stall_by_reason,
        s.loads,
        s.stores,
        s.prefetches,
        s.branch.correct,
        s.branch.lookups,
        s.mispredicts,
        s.context_switches,
        s.traps,
        m.icache_hits,
        m.icache_misses,
        m.dcache_hits,
        m.dcache_misses,
        m.mshr_high_water,
        m.load_buf_peak,
        m.store_buf_peak,
        m.xbar_grants,
        m.xbar_retries,
        m.dram_busy_cycles,
        m.dport_conflicts,
    )
}

fn run_standalone(c: &SuiteCase) -> String {
    let port = LocalMemSys::majc5200().with_mem(c.mem.clone());
    let mut sim = CycleSim::new(c.prog.clone(), port, TimingConfig::default());
    sim.run(50_000_000).unwrap_or_else(|e| panic!("{}: {e:?}", c.name));
    assert!(sim.halted(), "{} must halt", c.name);
    fingerprint(&c.name, &sim.stats)
}

fn run_dual() -> [String; 2] {
    let blocks = vld::workload(42, 24);
    let (stream, _nsym) = vld::encode(&blocks);
    let (vld_prog, vld_mem) = vld::build(&stream, blocks.len());

    let mut rng = XorShift64::new(7);
    let mut coeffs = [0i16; 64];
    for _ in 0..12 {
        coeffs[rng.next_range(64)] = rng.next_i16(300);
    }
    let (idct_prog, idct_mem) = idct::build(&coeffs);
    // A non-zero base: CPU1's image sits after CPU0's.
    let idct_prog = Program::new(0x0008_0000, idct_prog.packets().to_vec());

    // Both kernels use fixed, disjoint data regions (the harness layout
    // plus VLD's stream and tables): copy the non-zero 64 KiB blocks of
    // each image into one shared memory.
    let mut mem = FlatMem::new();
    for mut part in [vld_mem, idct_mem] {
        for base in [
            0x0001_0000u32,
            0x0002_0000,
            0x0004_0000,
            0x0005_0000,
            0x0100_0000,
            0x0110_0000,
            0x0112_0000,
            0x0113_0000,
        ] {
            let mut buf = vec![0u8; 0x1_0000];
            part.read(base, &mut buf);
            if buf.iter().any(|&b| b != 0) {
                mem.write(base, &buf);
            }
        }
    }
    let mut chip = Majc5200::new([vld_prog, idct_prog], mem, TimingConfig::default());
    chip.run(50_000_000).expect("dual-CPU run halts");
    assert!(chip.cpu.iter().all(|c| c.halted()));
    // The pinned run must be a real one: both CPUs match their references.
    let m = &mut chip.chip_mut().mem;
    assert_eq!(vld::extract(m, blocks.len()), vld::reference(&stream, blocks.len()), "VLD output");
    assert_eq!(idct::extract(m), idct::reference(&coeffs), "IDCT output");
    [
        fingerprint("dual-cpu0-vld", &chip.cpu[0].stats),
        fingerprint("dual-cpu1-idct", &chip.cpu[1].stats),
    ]
}

fn check(actual: &[String], golden: &str) {
    let expect: Vec<&str> = golden.lines().map(str::trim).filter(|l| !l.is_empty()).collect();
    assert_eq!(
        actual.len(),
        expect.len(),
        "{} runs but {} pinned lines; this build measures:\n{}",
        actual.len(),
        expect.len(),
        actual.join("\n")
    );
    let moved: Vec<String> = actual
        .iter()
        .zip(&expect)
        .filter(|(a, e)| a.as_str() != **e)
        .map(|(a, e)| format!("expected {e}\n  actual {a}"))
        .collect();
    assert!(moved.is_empty(), "cycle statistics moved:\n{}", moved.join("\n"));
}

#[test]
fn fast_kernels_match_the_golden_statistics() {
    let actual: Vec<String> = suite::fast_cases().iter().map(run_standalone).collect();
    check(&actual, KERNELS);
}

#[test]
fn corpus_slice_matches_the_golden_statistics() {
    let actual: Vec<String> =
        suite::corpus_cases(CORPUS_PER_FAMILY).iter().map(run_standalone).collect();
    check(&actual, CORPUS);
}

#[test]
fn dual_cpu_run_matches_the_golden_statistics() {
    check(&run_dual(), DUAL);
}

const KERNELS: &str = "
biquad cyc=18034 pkt=1042 ins=4114 w=[18, 0, 0, 1024] stall=[16657, 192, 64, 75, 0, 0, 0, 0, 0] ld=71 st=64 pf=0 br=0/0 mp=0 cs=0 traps=0 ic=527/515 dc=112/98 mshr=4 lb=4 sb=1 xb=538/0 dram=5380 dport=0
fir cyc=4937 pkt=2336 ins=6688 w=[160, 1088, 0, 1088] stall=[2105, 407, 0, 66, 0, 19, 0, 0, 0] ld=1080 st=64 pf=0 br=15/16 mp=1 cs=0 traps=0 ic=2537/55 dc=1080/130 mshr=4 lb=4 sb=4 xb=87/0 dram=870 dport=0
cfir cyc=12238 pkt=6921 ins=26633 w=[329, 32, 0, 6560] stall=[4401, 846, 31, 0, 0, 35, 0, 0, 0] ld=4128 st=64 pf=0 br=31/32 mp=1 cs=0 traps=0 ic=6815/106 dc=4111/81 mshr=2 lb=3 sb=2 xb=170/0 dram=1700 dport=0
lms cyc=556 pkt=39 ins=91 w=[19, 4, 0, 16] stall=[456, 8, 1, 48, 0, 0, 0, 0, 0] ld=6 st=4 pf=0 br=0/0 mp=0 cs=0 traps=0 ic=32/12 dc=0/58 mshr=4 lb=5 sb=2 xb=20/0 dram=200 dport=0
maxsearch cyc=659 pkt=50 ins=89 w=[12, 37, 1, 0] stall=[594, 9, 2, 0, 0, 0, 0, 0, 0] ld=40 st=1 pf=0 br=0/0 mp=0 cs=0 traps=0 ic=38/12 dc=32/9 mshr=1 lb=4 sb=1 xb=18/0 dram=180 dport=0
fft-radix2 cyc=117481 pkt=54319 ins=112725 w=[26653, 7176, 10240, 10250] stall=[268, 52282, 5120, 0, 0, 5488, 0, 0, 0] ld=15360 st=10240 pf=0 br=6060/6153 mp=93 cs=0 traps=0 ic=54323/6 dc=24960/640 mshr=2 lb=3 sb=2 xb=390/0 dram=3900 dport=0
fft-radix4 cyc=65216 pkt=31783 ins=75422 w=[14446, 1621, 5130, 10586] stall=[432, 27218, 3842, 510, 0, 1427, 0, 0, 0] ld=8960 st=5120 pf=0 br=1589/1626 mp=37 cs=0 traps=0 ic=34332/11 dc=12862/1218 mshr=3 lb=5 sb=3 xb=459/0 dram=4590 dport=0
bitrev cyc=12235 pkt=2860 ins=2860 w=[2860, 0, 0, 0] stall=[255, 8989, 0, 0, 0, 127, 0, 0, 0] ld=1490 st=992 pf=0 br=123/124 mp=1 cs=0 traps=0 ic=2856/4 dc=1758/724 mshr=3 lb=4 sb=2 xb=385/0 dram=3850 dport=0
idct cyc=6504 pkt=404 ins=1473 w=[30, 1, 51, 322] stall=[5995, 0, 54, 47, 0, 0, 0, 0, 0] ld=64 st=64 pf=0 br=0/0 mp=0 cs=0 traps=0 ic=357/185 dc=114/14 mshr=1 lb=5 sb=2 xb=193/0 dram=1930 dport=0
dct cyc=7028 pkt=439 ins=1506 w=[53, 13, 65, 308] stall=[6300, 178, 60, 47, 0, 0, 0, 0, 0] ld=96 st=32 pf=0 br=0/0 mp=0 cs=0 traps=0 ic=371/189 dc=106/22 mshr=1 lb=5 sb=1 xb=205/0 dram=2050 dport=0
vld cyc=14986 pkt=7940 ins=16965 w=[2525, 2888, 1444, 1083] stall=[404, 4712, 1443, 0, 0, 483, 0, 0, 0] ld=1446 st=345 pf=0 br=691/722 mp=31 cs=0 traps=0 ic=8653/9 dc=1598/193 mshr=3 lb=2 sb=2 xb=188/0 dram=1880 dport=0
motion cyc=10975 pkt=5238 ins=11999 w=[1843, 1184, 1056, 1155] stall=[3247, 1530, 603, 188, 0, 165, 0, 0, 0] ld=2737 st=2 pf=0 br=0/0 mp=0 cs=0 traps=0 ic=5987/92 dc=2562/177 mshr=2 lb=5 sb=2 xb=174/0 dram=1740 dport=0
dmatmul cyc=10963 pkt=775 ins=2175 w=[79, 224, 240, 232] stall=[9749, 142, 12, 0, 281, 0, 0, 0, 0] ld=576 st=64 pf=0 br=0/0 mp=0 cs=0 traps=0 ic=678/272 dc=531/109 mshr=2 lb=5 sb=4 xb=320/0 dram=3200 dport=0
peak-flops cyc=4424 pkt=3244 ins=12496 w=[160, 0, 0, 3084] stall=[1105, 0, 4, 0, 0, 67, 0, 0, 0] ld=0 st=0 pf=0 br=63/64 mp=1 cs=0 traps=0 ic=4751/35 dc=0/0 mshr=0 lb=0 sb=0 xb=35/0 dram=350 dport=0
peak-ops cyc=4107 pkt=3210 ins=12426 w=[138, 0, 0, 3072] stall=[826, 0, 0, 0, 0, 67, 0, 0, 0] ld=0 st=0 pf=0 br=63/64 mp=1 cs=0 traps=0 ic=4720/26 dc=0/0 mshr=0 lb=0 sb=0 xb=26/0 dram=260 dport=0
transform-light cyc=2077 pkt=397 ins=1167 w=[100, 33, 55, 209] stall=[772, 438, 62, 390, 0, 14, 0, 0, 0] ld=36 st=33 pf=11 br=10/11 mp=1 cs=0 traps=0 ic=433/19 dc=2/457 mshr=4 lb=3 sb=3 xb=88/0 dram=880 dport=0
";

const CORPUS: &str = "
list-8ee4c5be cyc=3835 pkt=2156 ins=2516 w=[1796, 360, 0, 0] stall=[463, 561, 0, 0, 0, 651, 0, 0, 0] ld=552 st=134 pf=0 br=274/373 mp=99 cs=0 traps=0 ic=2145/11 dc=645/41 mshr=1 lb=1 sb=5 xb=30/0 dram=300 dport=0
list-94a66094 cyc=1810 pkt=818 ins=922 w=[714, 104, 0, 0] stall=[463, 213, 0, 0, 0, 312, 0, 0, 0] ld=196 st=72 pf=0 br=99/154 mp=55 cs=0 traps=0 ic=807/11 dc=247/21 mshr=1 lb=1 sb=5 xb=22/0 dram=220 dport=0
bst-044aa2c5 cyc=3717 pkt=1721 ins=1721 w=[1721, 0, 0, 0] stall=[400, 435, 0, 0, 0, 1157, 0, 0, 0] ld=397 st=74 pf=0 br=454/666 mp=212 cs=0 traps=0 ic=1712/9 dc=446/25 mshr=1 lb=2 sb=3 xb=32/0 dram=320 dport=0
bst-6e2ff3a9 cyc=2606 pkt=1243 ins=1243 w=[1243, 0, 0, 0] stall=[380, 273, 0, 0, 0, 706, 0, 0, 0] ld=265 st=53 pf=0 br=340/457 mp=117 cs=0 traps=0 ic=1234/9 dc=298/20 mshr=1 lb=2 sb=3 xb=26/0 dram=260 dport=0
alloc-59cad932 cyc=1977 pkt=847 ins=847 w=[847, 0, 0, 0] stall=[346, 373, 0, 0, 0, 407, 0, 0, 0] ld=116 st=98 pf=0 br=150/218 mp=68 cs=0 traps=0 ic=838/9 dc=196/18 mshr=2 lb=2 sb=4 xb=22/0 dram=220 dport=0
alloc-76f84ad0 cyc=1542 pkt=626 ins=626 w=[626, 0, 0, 0] stall=[314, 282, 0, 0, 0, 316, 0, 0, 0] ld=87 st=66 pf=0 br=108/161 mp=53 cs=0 traps=0 ic=617/9 dc=136/17 mshr=1 lb=2 sb=5 xb=20/0 dram=200 dport=0
vm-dense-addfdbcb cyc=1655 pkt=746 ins=746 w=[746, 0, 0, 0] stall=[326, 244, 0, 0, 0, 335, 0, 0, 0] ld=150 st=50 pf=0 br=92/110 mp=18 cs=0 traps=0 ic=738/8 dc=189/11 mshr=1 lb=2 sb=3 xb=16/0 dram=160 dport=0
vm-dense-4bb78935 cyc=3008 pkt=1580 ins=1580 w=[1580, 0, 0, 0] stall=[320, 420, 0, 0, 0, 684, 0, 0, 0] ld=320 st=102 pf=0 br=208/238 mp=30 cs=0 traps=0 ic=1572/8 dc=410/12 mshr=2 lb=2 sb=3 xb=19/0 dram=190 dport=0
vm-sparse-9452de70 cyc=2407 pkt=1343 ins=1343 w=[1343, 0, 0, 0] stall=[432, 201, 0, 0, 0, 427, 0, 0, 0] ld=136 st=70 pf=0 br=344/417 mp=73 cs=0 traps=0 ic=1333/10 dc=194/12 mshr=2 lb=1 sb=5 xb=19/0 dram=190 dport=0
vm-sparse-37f2d8ac cyc=2233 pkt=1141 ins=1141 w=[1141, 0, 0, 0] stall=[432, 246, 0, 0, 0, 410, 0, 0, 0] ld=111 st=57 pf=0 br=288/363 mp=75 cs=0 traps=0 ic=1131/10 dc=155/13 mshr=1 lb=1 sb=4 xb=20/0 dram=200 dport=0
calls-28a9c327 cyc=6715 pkt=3784 ins=3784 w=[3784, 0, 0, 0] stall=[592, 147, 0, 0, 0, 2188, 0, 0, 0] ld=476 st=456 pf=0 br=328/372 mp=44 cs=0 traps=0 ic=3767/17 dc=885/47 mshr=2 lb=2 sb=5 xb=31/0 dram=310 dport=0
calls-325fb2d9 cyc=1770 pkt=849 ins=849 w=[849, 0, 0, 0] stall=[332, 65, 0, 0, 0, 520, 0, 0, 0] ld=111 st=104 pf=0 br=59/77 mp=18 cs=0 traps=0 ic=840/9 dc=181/34 mshr=2 lb=2 sb=5 xb=19/0 dram=190 dport=0
branchy-70882a1d cyc=71758 pkt=59543 ins=59543 w=[59543, 0, 0, 0] stall=[374, 150, 0, 0, 0, 11687, 0, 0, 0] ld=32 st=37 pf=0 br=20154/20747 mp=593 cs=0 traps=0 ic=59534/9 dc=59/10 mshr=1 lb=1 sb=3 xb=18/0 dram=180 dport=0
branchy-4f03bd8d cyc=81931 pkt=67823 ins=67823 w=[67823, 0, 0, 0] stall=[389, 250, 0, 0, 0, 13465, 0, 0, 0] ld=41 st=46 pf=0 br=23031/23766 mp=735 cs=0 traps=0 ic=67814/9 dc=74/13 mshr=1 lb=1 sb=3 xb=21/0 dram=210 dport=0
";

const DUAL: &str = "
dual-cpu0-vld cyc=20829 pkt=11342 ins=24242 w=[3602, 4128, 2064, 1548] stall=[502, 6248, 2063, 0, 0, 670, 0, 0, 0] ld=2066 st=492 pf=0 br=993/1032 mp=39 cs=0 traps=0 ic=12365/9 dc=2300/258 mshr=3 lb=2 sb=2 xb=438/0 dram=4380 dport=0
dual-cpu1-idct cyc=8572 pkt=404 ins=1473 w=[30, 1, 51, 322] stall=[8049, 0, 54, 61, 0, 0, 0, 0, 0] ld=64 st=64 pf=0 br=0/0 mp=0 cs=0 traps=0 ic=357/185 dc=114/14 mshr=3 lb=5 sb=2 xb=438/0 dram=4380 dport=0
";
