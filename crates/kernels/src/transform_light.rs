//! Geometry transform + lighting kernel, the per-vertex work behind the
//! paper's 60-90 Mtriangles/s claim (§5): "The geometry transformation and
//! lighting are then performed using the CPUs."
//!
//! Per vertex: an affine model-view transform of the position (9 FMA + 3
//! moves), rotation of the normal (9 FMA), one directional diffuse light
//! (3-FMA dot product, clamp at zero, 3 multiplies into the base colour).
//! Vertices are packed 32 bytes each — position xyz + pad, normal xyz +
//! pad — so one group load brings a whole vertex in and one group store
//! writes transformed position + lit colour out. The kernel is emitted
//! through the list scheduler with two vertices in flight.

use majc_asm::Asm;
use majc_isa::{AluOp, CachePolicy, Cond, Instr, MemWidth, Off, Program, Reg, Src};
use majc_mem::FlatMem;

use crate::harness::{layout, put_f32s, run_warm, MemModel};
use crate::idct::Weaver;
use majc_core::TimingConfig;

/// Affine transform: row-major 3×4 (rotation + translation).
pub type Mat = [[f32; 4]; 3];
/// Directional light + base colour.
#[derive(Clone, Copy, Debug)]
pub struct Light {
    pub dir: [f32; 3],
    pub color: [f32; 3],
}

/// One input vertex: position + normal.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Vertex {
    pub pos: [f32; 3],
    pub normal: [f32; 3],
}

/// One output: transformed position + lit colour.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Lit {
    pub pos: [f32; 3],
    pub color: [f32; 3],
}

/// The light direction back-rotated into model space (`L' = Rᵀ·L`), so
/// per-vertex lighting needs no normal transform — the classic geometry-
/// pipeline strength reduction. Host-side f32 math, shared by the kernel
/// builder and the reference.
pub fn model_space_light(m: &Mat, l: &Light) -> [f32; 3] {
    std::array::from_fn(|i| m[0][i] * l.dir[0] + m[1][i] * l.dir[1] + m[2][i] * l.dir[2])
}

/// Reference with the kernel's exact fused order.
pub fn reference(m: &Mat, l: &Light, vs: &[Vertex]) -> Vec<Lit> {
    let lp = model_space_light(m, l);
    vs.iter()
        .map(|v| {
            let row = |r: usize, x: &[f32; 3], init: f32| -> f32 {
                let mut acc = init;
                for (c, &xc) in x.iter().enumerate() {
                    acc = m[r][c].mul_add(xc, acc);
                }
                acc
            };
            let pos = [row(0, &v.pos, m[0][3]), row(1, &v.pos, m[1][3]), row(2, &v.pos, m[2][3])];
            // Split diffuse dot product over the raw normal, mirroring the
            // kernel.
            let da = lp[2].mul_add(v.normal[2], lp[0] * v.normal[0]);
            let db = lp[1] * v.normal[1];
            let d = (da + db).max(0.0);
            let color = [l.color[0] * d, l.color[1] * d, l.color[2] * d];
            Lit { pos, color }
        })
        .collect()
}

const VP: Reg = Reg::g(0);
const OP: Reg = Reg::g(1);
const COUNT: Reg = Reg::g(2);
const ZERO: Reg = Reg::g(3);
/// Matrix in g48..g59, light dir g60..62, colour g63..65.
fn mreg(r: usize, c: usize) -> Reg {
    Reg::g(48 + (r * 4 + c) as u8)
}
fn ldir(i: usize) -> Reg {
    Reg::g(60 + i as u8)
}
fn lcol(i: usize) -> Reg {
    Reg::g(63 + i as u8)
}
/// Per-slot (three vertices in flight) register banks: input 8 + output 8.
fn vin(slot: usize, i: usize) -> Reg {
    match slot {
        0 => Reg::g(16 + i as u8),
        1 => Reg::g(32 + i as u8),
        _ => Reg::g(76 + i as u8),
    }
}
fn vout(slot: usize, i: usize) -> Reg {
    match slot {
        0 => Reg::g(24 + i as u8),
        1 => Reg::g(40 + i as u8),
        _ => Reg::g(84 + i as u8),
    }
}
fn dterm(slot: usize) -> Reg {
    match slot {
        0 => Reg::g(72),
        1 => Reg::g(73),
        _ => Reg::g(95),
    }
}
/// Second diffuse partial: the dead position-pad word of the slot.
fn dpart(slot: usize) -> Reg {
    vin(slot, 3)
}

/// Emit the per-vertex compute for `slot` through the scheduler.
fn emit_vertex(a: &mut Asm, w: &mut Weaver, slot: usize) {
    let mv = |rd: Reg, rs: Reg| Instr::Alu { op: AluOp::Or, rd, rs1: rs, src2: Src::Imm(0) };
    // Position rows: acc = m[r][3]; acc += m[r][c] * pos[c].
    for r in 0..3 {
        w.op(a, mv(vout(slot, r), mreg(r, 3)));
        for c in 0..3 {
            w.op(a, Instr::FMAdd { rd: vout(slot, r), rs1: mreg(r, c), rs2: vin(slot, c) });
        }
    }
    // Diffuse against the pre-rotated light: d = max(L'·n, 0), split
    // across two partials to shorten the dependency chain.
    w.op(a, Instr::FMul { rd: dterm(slot), rs1: ldir(0), rs2: vin(slot, 4) });
    w.op(a, Instr::FMul { rd: dpart(slot), rs1: ldir(1), rs2: vin(slot, 5) });
    w.op(a, Instr::FMAdd { rd: dterm(slot), rs1: ldir(2), rs2: vin(slot, 6) });
    w.op(a, Instr::FAdd { rd: dterm(slot), rs1: dterm(slot), rs2: dpart(slot) });
    w.op(a, Instr::FMax { rd: dterm(slot), rs1: dterm(slot), rs2: ZERO });
    // Colour = base * d; pad word mirrors d for debugging.
    for i in 0..3 {
        w.op(a, Instr::FMul { rd: vout(slot, 4 + i), rs1: lcol(i), rs2: dterm(slot) });
    }
    w.op(a, mv(vout(slot, 3), dterm(slot)));
    w.op(a, mv(vout(slot, 7), dterm(slot)));
}

/// Build the kernel for `n` vertices (n a multiple of 3). Vertices at
/// INPUT (32 B each), outputs at OUTPUT (32 B each).
pub fn build(m: &Mat, l: &Light, vs: &[Vertex]) -> (Program, FlatMem) {
    let n = vs.len();
    assert!(n >= 3 && n.is_multiple_of(3));
    let mut mem = FlatMem::new();
    for (i, v) in vs.iter().enumerate() {
        let base = layout::INPUT + 32 * i as u32;
        put_f32s(&mut mem, base, &[v.pos[0], v.pos[1], v.pos[2], 0.0]);
        put_f32s(&mut mem, base + 16, &[v.normal[0], v.normal[1], v.normal[2], 0.0]);
    }

    let mut a = Asm::new(0);
    a.set32(VP, layout::INPUT);
    a.set32(OP, layout::OUTPUT);
    a.set32(COUNT, (n / 3) as u32);
    a.set32(ZERO, 0);
    for (r, mrow) in m.iter().enumerate() {
        for (c, &v) in mrow.iter().enumerate() {
            a.setf(mreg(r, c), v);
        }
    }
    let lp = model_space_light(m, l);
    for (i, (&dir, &col)) in lp.iter().zip(l.color.iter()).enumerate() {
        a.setf(ldir(i), dir);
        a.setf(lcol(i), col);
    }
    // Prime the first two vertices.
    let ldg = |slot: usize, off: i16| Instr::Ld {
        w: MemWidth::G,
        pol: CachePolicy::Cached,
        rd: vin(slot, 0),
        base: VP,
        off: Off::Imm(off),
    };
    let stg = |slot: usize, off: i16| Instr::St {
        w: MemWidth::G,
        pol: CachePolicy::Cached,
        rs: vout(slot, 0),
        base: OP,
        off: Off::Imm(off),
    };
    a.op(ldg(0, 0));
    a.op(ldg(1, 32));
    a.op(ldg(2, 64));

    a.label("triple");
    let mut w = Weaver::with_window(40);
    // While computing this triple, prefetch ahead and queue the stores.
    w.push_fu0(Instr::Prefetch { base: VP, off: 96 });
    emit_vertex(&mut a, &mut w, 0);
    w.push_fu0(stg(0, 0));
    emit_vertex(&mut a, &mut w, 1);
    w.push_fu0(stg(1, 32));
    emit_vertex(&mut a, &mut w, 2);
    w.push_fu0(stg(2, 64));
    w.drain_fu0(&mut a);
    // Next triple's loads + pointer maintenance.
    a.pack(&[
        Instr::Alu { op: AluOp::Add, rd: VP, rs1: VP, src2: Src::Imm(96) },
        Instr::Alu { op: AluOp::Add, rd: OP, rs1: OP, src2: Src::Imm(96) },
        Instr::Alu { op: AluOp::Sub, rd: COUNT, rs1: COUNT, src2: Src::Imm(1) },
    ]);
    a.op(ldg(0, 0));
    a.op(ldg(1, 32));
    a.op(ldg(2, 64));
    a.br(Cond::Gt, COUNT, "triple", true);
    a.op(Instr::Halt);
    (a.finish().expect("transform/light kernel assembles"), mem)
}

pub fn extract(mem: &mut FlatMem, n: usize) -> Vec<Lit> {
    (0..n)
        .map(|i| {
            let base = layout::OUTPUT + 32 * i as u32;
            let p = crate::harness::get_f32s(mem, base, 3);
            let c = crate::harness::get_f32s(mem, base + 16, 3);
            Lit { pos: [p[0], p[1], p[2]], color: [c[0], c[1], c[2]] }
        })
        .collect()
}

/// Measured steady-state cycles per vertex on one CPU, with a
/// cache-resident working set: in the paper's pipeline the GPP delivers
/// decompressed vertices through the on-chip NUPA FIFO (4 KB) and results
/// leave through the south UPA — vertex traffic never streams through
/// DRAM, so the per-vertex cost that bounds triangle rate is the
/// compute-side cost. 126 vertices (4 KB in + 4 KB out) model the FIFO
/// working set.
pub fn cycles_per_vertex(n: usize) -> f64 {
    let (m, l, vs) = demo_scene(n);
    let (prog, mem) = build(&m, &l, &vs);
    let cycles = run_warm(&prog, mem, MemModel::Dram, TimingConfig::default()).stats.cycles;
    cycles as f64 / n as f64
}

/// A deterministic scene for benchmarks.
pub fn demo_scene(n: usize) -> (Mat, Light, Vec<Vertex>) {
    let m: Mat = [[0.8, -0.36, 0.48, 1.5], [0.6, 0.48, -0.64, -0.25], [0.0, 0.8, 0.6, 10.0]];
    let l = Light { dir: [0.577, 0.577, 0.577], color: [0.9, 0.7, 0.4] };
    let mut rng = majc_isa::XorShift64::new(17);
    let vs = (0..n)
        .map(|_| Vertex {
            pos: [rng.next_f32() * 4.0, rng.next_f32() * 4.0, rng.next_f32() * 4.0],
            normal: {
                let v = [rng.next_f32(), rng.next_f32(), rng.next_f32()];
                let len = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt().max(1e-3);
                [v[0] / len, v[1] / len, v[2] / len]
            },
        })
        .collect();
    (m, l, vs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_func;

    #[test]
    fn matches_reference_bit_exactly() {
        let (m, l, vs) = demo_scene(15);
        let (prog, mem) = build(&m, &l, &vs);
        let mut out = run_func(&prog, mem);
        let got = extract(&mut out, vs.len());
        let want = reference(&m, &l, &vs);
        assert_eq!(got, want);
    }

    #[test]
    fn diffuse_clamps_at_zero() {
        let m: Mat = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]];
        let l = Light { dir: [0.0, 0.0, 1.0], color: [1.0, 1.0, 1.0] };
        let vs = vec![
            Vertex { pos: [0.0; 3], normal: [0.0, 0.0, -1.0] }, // back-facing
            Vertex { pos: [0.0; 3], normal: [0.0, 0.0, 1.0] },
        ];
        let lit = reference(&m, &l, &vs);
        assert_eq!(lit[0].color, [0.0; 3]);
        assert_eq!(lit[1].color, [1.0, 1.0, 1.0]);
    }

    #[test]
    fn throughput_supports_paper_triangle_rates() {
        let cpv = cycles_per_vertex(126);
        // 60-90 Mtri/s over two CPUs at 500 MHz needs 11-16.6 cycles per
        // vertex (one vertex per triangle in strips).
        assert!(
            (8.0..=25.0).contains(&cpv),
            "{cpv:.1} cycles/vertex cannot support the paper's 60-90 Mtri/s"
        );
    }
}
