//! Decode-once translated execution: the one decoded image of a program.
//!
//! [`FuncSim`](crate::FuncSim) re-resolves every packet on every step: a
//! fetch, a packet copy, and a full instruction-form match per slot. This
//! module lowers an [`Arc<Program>`] *once* into a flat array of
//! pre-resolved micro-ops — register indices, immediates, packet widths,
//! and static branch targets are all computed at translation time — and
//! dispatches them as threaded code (one handler function pointer per
//! micro-op). Packets are chained into superblocks: each translated packet
//! pre-links its fall-through successor and, for a `br` or `call`, its
//! static taken target, so straight-line code and direct branches never
//! consult the address map at all. Only `jmpl`, `rte` and trap vectors
//! resolve through [`Program::index_of`], a dense-table lookup.
//! [`XlateSim::run`] is the engine's one execution loop; `step` is one
//! iteration of it.
//!
//! A [`Translation`] is also the image the cycle model issues from. Each
//! translated packet carries the packet-level facts the issue logic needs
//! — width, slot 0's memory operation and the control kind — and
//! [`CpuCore`](crate::CpuCore), which keeps each slot's latency class and
//! use/def register indices beside its image, executes a packet through
//! the same handlers and the same per-packet helper as
//! [`XlateSim::step`].
//!
//! Translations for the functional engine are shared through a
//! process-wide cache keyed by [`Program::digest`], the FNV-1a content
//! digest a program computes once and keeps, so resident workers and farm
//! shards translate each distinct program exactly once and hash a shared
//! program once. A cycle core builds its image uncached: it is constructed
//! far more often than a lock is worth.
//!
//! The engine is bit-identical to the interpreter by construction and by
//! enforcement: every specialized handler either reuses the interpreter's
//! own evaluation helpers ([`AluOp::eval`], the `fixed` lane helpers) or is
//! a field-for-field transliteration of the corresponding
//! [`exec_slot`](crate::exec::exec_slot) arm, and any instruction form
//! without a specialized handler falls back to calling `exec_slot` on the
//! original instruction (kept inline in each micro-op). The three-way
//! differential fuzzer (`majc_bench::diff`) checks every architectural
//! counter, trap, and memory image against the interpreter on every CI run;
//! the interpreter, which shares none of this image, stays the independent
//! semantic oracle.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use majc_isa::fixed;
use majc_isa::{AluOp, CachePolicy, CvtKind, Instr, MemWidth, Off, Packet, Program, Reg, Src};
use majc_mem::{DKind, FlatMem};

use crate::exec::{exec_slot, f2i, lane_mac, lane_mul, lane_op, Flow, Trap};
use crate::func_sim::FuncStats;
use crate::regfile::{RegFile, WriteSet};
use crate::snapshot::CpuSnap;
use crate::trap::{SimError, TrapRegs};

/// Sentinel packet index: "this address is not a packet boundary".
const NO_IDX: u32 = u32::MAX;

/// Default capacity of the process-wide translation cache, in programs.
pub const XLATE_CACHE_CAP: usize = 64;

// ---------------------------------------------------------------------
// Micro-op IR
// ---------------------------------------------------------------------

/// Per-packet execution context a handler runs against. Slots of one
/// packet read pre-packet register state and buffer writes, exactly like
/// the interpreter.
struct Lane<'a> {
    regs: &'a RegFile,
    ws: &'a mut WriteSet,
    mem: &'a mut FlatMem,
    pc: u32,
    pkt_bytes: u32,
    flow: Flow,
    loads: u64,
    stores: u64,
}

type Handler = fn(&mut Lane<'_>, &UOp) -> Result<(), Trap>;

/// One pre-resolved micro-op: a handler plus its operands.
///
/// `a`/`b`/`c` are absolute register-file indices (destination / first
/// source / second source by convention), `d` carries a width code for
/// memory ops, and `imm` holds the pre-extended immediate or the
/// pre-computed branch target. `ins` keeps the original instruction so the
/// generic fallback handler — and handlers that need an operand the packed
/// fields cannot carry, like a `Cond` — can consult it.
#[derive(Clone, Copy)]
struct UOp {
    f: Handler,
    a: u8,
    b: u8,
    c: u8,
    d: u8,
    imm: u32,
    ins: Instr,
}

/// Slot 0's memory operation, by what the LSU and the cycle model's
/// counters do with it.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum MemOp {
    None,
    /// `ld`, `cas`, `swap`: counted as loads.
    Load,
    /// `st`, `cst`.
    Store,
    Prefetch,
    Membar,
}

/// Slot 0's control transfer, by how the front end redirects on it.
#[derive(Clone, Copy)]
pub(crate) enum Ctrl {
    /// No redirect (no control instruction, or `halt`).
    None,
    /// Conditional branch, predicted by gshare with its static hint.
    Br { hint: bool },
    /// Target known at decode: taken bubble only.
    Call,
    /// Register-indirect: resolves in execute.
    Jmpl,
    /// Trap-register indirect: resolves in the trap stage.
    Rte,
}

/// Translated form of one packet: a span into the micro-op array plus the
/// packet-level facts the commit and issue paths need.
#[derive(Clone, Copy)]
pub(crate) struct XPacket {
    /// First micro-op index.
    first: u32,
    /// Issue width (1-4) — also the micro-op count.
    pub(crate) width: u8,
    /// Committed-branch count (control slots excluding `halt`).
    branch_add: u8,
    pub(crate) mem: MemOp,
    pub(crate) ctrl: Ctrl,
    /// Packet size in the instruction stream.
    pub(crate) bytes: u32,
    /// Pre-linked fall-through successor index (`NO_IDX` past the end):
    /// the superblock chain for straight-line code.
    fall: u32,
    /// Pre-linked index of a `br`/`call` packet's static taken target
    /// (`NO_IDX` when it is off-program, or the packet has no static
    /// target).
    taken: u32,
}

impl XPacket {
    /// Indices of the packet's micro-ops, in FU order.
    #[inline]
    pub(crate) fn span(&self) -> std::ops::Range<usize> {
        self.first as usize..self.first as usize + self.width as usize
    }
}

/// What one packet's micro-ops did (see [`Translation::exec_packet`]).
pub(crate) struct PacketRun {
    pub(crate) flow: Flow,
    pub(crate) loads: u64,
    pub(crate) stores: u64,
    /// The first trap a slot raised. The write set is then partial and
    /// must not be applied: trapping instructions are FU0-only and execute
    /// first, so dropping it squashes the packet precisely.
    pub(crate) trap: Option<Trap>,
}

// ---------------------------------------------------------------------
// Handlers (threaded code)
// ---------------------------------------------------------------------

/// Generic fallback: run the interpreter's own `exec_slot` on the original
/// instruction. Bit-identical by definition; used for rare forms.
fn h_exec(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    let out = exec_slot(&u.ins, l.regs, l.ws, l.mem, l.pc, l.pkt_bytes)?;
    if let Some(f) = out.flow {
        l.flow = f;
    }
    if let Some(m) = out.mem {
        match m.kind {
            DKind::Load => l.loads += 1,
            DKind::Store | DKind::Atomic => l.stores += 1,
            DKind::Prefetch => {}
        }
    }
    Ok(())
}

fn h_nop(_l: &mut Lane<'_>, _u: &UOp) -> Result<(), Trap> {
    Ok(())
}

fn h_halt(l: &mut Lane<'_>, _u: &UOp) -> Result<(), Trap> {
    l.flow = Flow::Halt;
    Ok(())
}

fn h_rte(l: &mut Lane<'_>, _u: &UOp) -> Result<(), Trap> {
    l.flow = Flow::Rte;
    Ok(())
}

macro_rules! alu_handlers {
    ($($variant:ident => $rr:ident / $ri:ident),* $(,)?) => {
        $(
            fn $rr(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
                l.ws.push_at(u.a, AluOp::$variant.eval(l.regs.get_at(u.b), l.regs.get_at(u.c)));
                Ok(())
            }
            fn $ri(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
                l.ws.push_at(u.a, AluOp::$variant.eval(l.regs.get_at(u.b), u.imm));
                Ok(())
            }
        )*
        fn alu_handler(op: AluOp, reg_src: bool) -> Handler {
            match (op, reg_src) {
                $(
                    (AluOp::$variant, true) => $rr,
                    (AluOp::$variant, false) => $ri,
                )*
            }
        }
    };
}

alu_handlers! {
    Add => h_add_rr / h_add_ri,
    Sub => h_sub_rr / h_sub_ri,
    And => h_and_rr / h_and_ri,
    Or => h_or_rr / h_or_ri,
    Xor => h_xor_rr / h_xor_ri,
    AndNot => h_andn_rr / h_andn_ri,
    OrNot => h_orn_rr / h_orn_ri,
    Sll => h_sll_rr / h_sll_ri,
    Srl => h_srl_rr / h_srl_ri,
    Sra => h_sra_rr / h_sra_ri,
    AddSat => h_adds_rr / h_adds_ri,
    SubSat => h_subs_rr / h_subs_ri,
}

fn h_setlo(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    l.ws.push_at(u.a, u.imm);
    Ok(())
}

fn h_sethi(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    l.ws.push_at(u.a, u.imm | (l.regs.get_at(u.a) & 0xFFFF));
    Ok(())
}

fn h_cmove(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    let Instr::CMove { cond, .. } = u.ins else { return h_exec(l, u) };
    if cond.eval(l.regs.get_at(u.b) as i32) {
        l.ws.push_at(u.a, l.regs.get_at(u.c));
    }
    Ok(())
}

fn h_pick(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    let Instr::Pick { cond, .. } = u.ins else { return h_exec(l, u) };
    let v =
        if cond.eval(l.regs.get_at(u.a) as i32) { l.regs.get_at(u.b) } else { l.regs.get_at(u.c) };
    l.ws.push_at(u.a, v);
    Ok(())
}

fn h_cmp(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    let Instr::Cmp { cond, .. } = u.ins else { return h_exec(l, u) };
    l.ws.push_at(u.a, cond.eval2(l.regs.get_at(u.b) as i32, l.regs.get_at(u.c) as i32) as u32);
    Ok(())
}

fn h_mul(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    let p = (l.regs.get_at(u.b) as i32).wrapping_mul(l.regs.get_at(u.c) as i32);
    l.ws.push_at(u.a, p as u32);
    Ok(())
}

fn h_mulhi(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    let p = (l.regs.get_at(u.b) as i32 as i64 * (l.regs.get_at(u.c) as i32 as i64)) >> 32;
    l.ws.push_at(u.a, p as u32);
    Ok(())
}

fn h_muladd(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    let p = (l.regs.get_at(u.b) as i32).wrapping_mul(l.regs.get_at(u.c) as i32);
    l.ws.push_at(u.a, (l.regs.get_at(u.a) as i32).wrapping_add(p) as u32);
    Ok(())
}

fn h_mulsub(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    let p = (l.regs.get_at(u.b) as i32).wrapping_mul(l.regs.get_at(u.c) as i32);
    l.ws.push_at(u.a, (l.regs.get_at(u.a) as i32).wrapping_sub(p) as u32);
    Ok(())
}

fn h_div(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    let d = l.regs.get_at(u.c) as i32;
    if d == 0 {
        return Err(Trap::DivZero { pc: l.pc });
    }
    l.ws.push_at(u.a, (l.regs.get_at(u.b) as i32).wrapping_div(d) as u32);
    Ok(())
}

fn h_rem(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    let d = l.regs.get_at(u.c) as i32;
    if d == 0 {
        return Err(Trap::DivZero { pc: l.pc });
    }
    l.ws.push_at(u.a, (l.regs.get_at(u.b) as i32).wrapping_rem(d) as u32);
    Ok(())
}

macro_rules! fp2_handlers {
    ($($name:ident => |$x:ident, $y:ident| $e:expr),* $(,)?) => {
        $(
            fn $name(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
                let $x = f32::from_bits(l.regs.get_at(u.b));
                let $y = f32::from_bits(l.regs.get_at(u.c));
                l.ws.push_at(u.a, ($e).to_bits());
                Ok(())
            }
        )*
    };
}

fp2_handlers! {
    h_fadd => |a, b| a + b,
    h_fsub => |a, b| a - b,
    h_fmul => |a, b| a * b,
    h_fdiv => |a, b| a / b,
    h_fmin => |a, b| a.min(b),
    h_fmax => |a, b| a.max(b),
}

macro_rules! fp1_handlers {
    ($($name:ident => |$x:ident| $e:expr),* $(,)?) => {
        $(
            fn $name(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
                let $x = f32::from_bits(l.regs.get_at(u.b));
                l.ws.push_at(u.a, ($e).to_bits());
                Ok(())
            }
        )*
    };
}

fp1_handlers! {
    h_fneg => |a| -a,
    h_fabs => |a| a.abs(),
    h_frsqrt => |a| 1.0 / a.sqrt(),
}

fn h_fmadd(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    let a = f32::from_bits(l.regs.get_at(u.b));
    let b = f32::from_bits(l.regs.get_at(u.c));
    let acc = f32::from_bits(l.regs.get_at(u.a));
    l.ws.push_at(u.a, a.mul_add(b, acc).to_bits());
    Ok(())
}

fn h_fmsub(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    let a = f32::from_bits(l.regs.get_at(u.b));
    let b = f32::from_bits(l.regs.get_at(u.c));
    let acc = f32::from_bits(l.regs.get_at(u.a));
    l.ws.push_at(u.a, a.mul_add(-b, acc).to_bits());
    Ok(())
}

fn h_fcmp(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    let Instr::FCmp { cond, .. } = u.ins else { return h_exec(l, u) };
    let a = f32::from_bits(l.regs.get_at(u.b)) as f64;
    let b = f32::from_bits(l.regs.get_at(u.c)) as f64;
    l.ws.push_at(u.a, cond.eval_f64(a, b) as u32);
    Ok(())
}

macro_rules! d2_handlers {
    ($($name:ident => |$x:ident, $y:ident| $e:expr),* $(,)?) => {
        $(
            fn $name(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
                let $x = f64::from_bits(l.regs.get_pair_at(u.b));
                let $y = f64::from_bits(l.regs.get_pair_at(u.c));
                l.ws.push_pair_at(u.a, ($e).to_bits());
                Ok(())
            }
        )*
    };
}

d2_handlers! {
    h_dadd => |a, b| a + b,
    h_dsub => |a, b| a - b,
    h_dmul => |a, b| a * b,
    h_dmin => |a, b| a.min(b),
    h_dmax => |a, b| a.max(b),
}

fn h_dneg(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    l.ws.push_pair_at(u.a, (-f64::from_bits(l.regs.get_pair_at(u.b))).to_bits());
    Ok(())
}

fn h_dcmp(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    let Instr::DCmp { cond, .. } = u.ins else { return h_exec(l, u) };
    let a = f64::from_bits(l.regs.get_pair_at(u.b));
    let b = f64::from_bits(l.regs.get_pair_at(u.c));
    l.ws.push_at(u.a, cond.eval_f64(a, b) as u32);
    Ok(())
}

fn h_cvt(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    let Instr::Cvt { kind, .. } = u.ins else { return h_exec(l, u) };
    match kind {
        CvtKind::I2F => l.ws.push_at(u.a, ((l.regs.get_at(u.b) as i32) as f32).to_bits()),
        CvtKind::F2I => l.ws.push_at(u.a, f2i(f32::from_bits(l.regs.get_at(u.b))) as u32),
        CvtKind::I2D => l.ws.push_pair_at(u.a, ((l.regs.get_at(u.b) as i32) as f64).to_bits()),
        CvtKind::D2I => {
            let v = f64::from_bits(l.regs.get_pair_at(u.b));
            let i = if v.is_nan() { 0 } else { v.clamp(i32::MIN as f64, i32::MAX as f64) as i32 };
            l.ws.push_at(u.a, i as u32);
        }
        CvtKind::F2D => {
            l.ws.push_pair_at(u.a, (f32::from_bits(l.regs.get_at(u.b)) as f64).to_bits())
        }
        CvtKind::D2F => {
            l.ws.push_at(u.a, (f64::from_bits(l.regs.get_pair_at(u.b)) as f32).to_bits())
        }
        CvtKind::F2X => {
            let x = fixed::f64_to_s2_13(f32::from_bits(l.regs.get_at(u.b)) as f64) as u16;
            l.ws.push_at(u.a, fixed::pack(x, x));
        }
        CvtKind::X2F => {
            let (_, lo) = fixed::lanes(l.regs.get_at(u.b));
            l.ws.push_at(u.a, (fixed::s2_13_to_f64(lo) as f32).to_bits());
        }
    }
    Ok(())
}

fn h_padd(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    let Instr::PAdd { mode, .. } = u.ins else { return h_exec(l, u) };
    let (a1, a0) = fixed::lanes(l.regs.get_at(u.b));
    let (b1, b0) = fixed::lanes(l.regs.get_at(u.c));
    l.ws.push_at(u.a, fixed::pack(lane_op(mode, a1, b1, false), lane_op(mode, a0, b0, false)));
    Ok(())
}

fn h_psub(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    let Instr::PSub { mode, .. } = u.ins else { return h_exec(l, u) };
    let (a1, a0) = fixed::lanes(l.regs.get_at(u.b));
    let (b1, b0) = fixed::lanes(l.regs.get_at(u.c));
    l.ws.push_at(u.a, fixed::pack(lane_op(mode, a1, b1, true), lane_op(mode, a0, b0, true)));
    Ok(())
}

fn h_pmul(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    let Instr::PMul { fmt, .. } = u.ins else { return h_exec(l, u) };
    let (a1, a0) = fixed::lanes(l.regs.get_at(u.b));
    let (b1, b0) = fixed::lanes(l.regs.get_at(u.c));
    l.ws.push_at(u.a, fixed::pack(lane_mul(fmt, a1, b1), lane_mul(fmt, a0, b0)));
    Ok(())
}

fn h_pmuladd(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    let Instr::PMulAdd { fmt, .. } = u.ins else { return h_exec(l, u) };
    let (c1, c0) = fixed::lanes(l.regs.get_at(u.a));
    let (a1, a0) = fixed::lanes(l.regs.get_at(u.b));
    let (b1, b0) = fixed::lanes(l.regs.get_at(u.c));
    l.ws.push_at(u.a, fixed::pack(lane_mac(fmt, c1, a1, b1), lane_mac(fmt, c0, a0, b0)));
    Ok(())
}

fn h_dotp(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    let (a1, a0) = fixed::lanes(l.regs.get_at(u.b));
    let (b1, b0) = fixed::lanes(l.regs.get_at(u.c));
    let dot = a1 as i32 * b1 as i32 + a0 as i32 * b0 as i32;
    l.ws.push_at(u.a, (l.regs.get_at(u.a) as i32).wrapping_add(dot) as u32);
    Ok(())
}

fn h_pdist(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    let a = l.regs.get_at(u.b).to_be_bytes();
    let b = l.regs.get_at(u.c).to_be_bytes();
    let sad: u32 = a.iter().zip(&b).map(|(&x, &y)| (x as i32 - y as i32).unsigned_abs()).sum();
    l.ws.push_at(u.a, l.regs.get_at(u.a).wrapping_add(sad));
    Ok(())
}

fn h_lzd(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    l.ws.push_at(u.a, l.regs.get_at(u.b).leading_zeros());
    Ok(())
}

// Width codes carried in `UOp::d` for the memory handlers.
const W_B: u8 = 0;
const W_BU: u8 = 1;
const W_H: u8 = 2;
const W_HU: u8 = 3;
const W_W: u8 = 4;
const W_L: u8 = 5;

fn width_code(w: MemWidth) -> Option<u8> {
    match w {
        MemWidth::B => Some(W_B),
        MemWidth::Bu => Some(W_BU),
        MemWidth::H => Some(W_H),
        MemWidth::Hu => Some(W_HU),
        MemWidth::W => Some(W_W),
        MemWidth::L => Some(W_L),
        MemWidth::G => None,
    }
}

#[inline]
fn check_align_mask(pc: u32, addr: u32, mask: u32) -> Result<(), Trap> {
    if addr & mask != 0 {
        Err(Trap::Misaligned { pc, addr })
    } else {
        Ok(())
    }
}

#[inline]
fn ld_common(l: &mut Lane<'_>, u: &UOp, addr: u32) -> Result<(), Trap> {
    match u.d {
        W_B => l.ws.push_at(u.a, l.mem.read_u8(addr) as i8 as i32 as u32),
        W_BU => l.ws.push_at(u.a, l.mem.read_u8(addr) as u32),
        W_H => {
            check_align_mask(l.pc, addr, 1)?;
            l.ws.push_at(u.a, l.mem.read_u16(addr) as i16 as i32 as u32);
        }
        W_HU => {
            check_align_mask(l.pc, addr, 1)?;
            l.ws.push_at(u.a, l.mem.read_u16(addr) as u32);
        }
        W_W => {
            check_align_mask(l.pc, addr, 3)?;
            l.ws.push_at(u.a, l.mem.read_u32(addr));
        }
        _ => {
            check_align_mask(l.pc, addr, 7)?;
            l.ws.push_pair_at(u.a, l.mem.read_u64(addr));
        }
    }
    l.loads += 1;
    Ok(())
}

fn h_ld(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    let addr = l.regs.get_at(u.b).wrapping_add(u.imm);
    ld_common(l, u, addr)
}

fn h_ld_r(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    let addr = l.regs.get_at(u.b).wrapping_add(l.regs.get_at(u.c));
    ld_common(l, u, addr)
}

#[inline]
fn st_common(l: &mut Lane<'_>, u: &UOp, addr: u32) -> Result<(), Trap> {
    match u.d {
        W_B | W_BU => l.mem.write_u8(addr, l.regs.get_at(u.a) as u8),
        W_H | W_HU => {
            check_align_mask(l.pc, addr, 1)?;
            l.mem.write_u16(addr, l.regs.get_at(u.a) as u16);
        }
        W_W => {
            check_align_mask(l.pc, addr, 3)?;
            l.mem.write_u32(addr, l.regs.get_at(u.a));
        }
        _ => {
            check_align_mask(l.pc, addr, 7)?;
            l.mem.write_u64(addr, l.regs.get_pair_at(u.a));
        }
    }
    l.stores += 1;
    Ok(())
}

fn h_st(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    let addr = l.regs.get_at(u.b).wrapping_add(u.imm);
    st_common(l, u, addr)
}

fn h_st_r(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    let addr = l.regs.get_at(u.b).wrapping_add(l.regs.get_at(u.c));
    st_common(l, u, addr)
}

fn h_br(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    let Instr::Br { cond, .. } = u.ins else { return h_exec(l, u) };
    l.flow = if cond.eval(l.regs.get_at(u.b) as i32) { Flow::Taken(u.imm) } else { Flow::Next };
    Ok(())
}

fn h_call(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    l.ws.push_at(u.a, l.pc + l.pkt_bytes);
    l.flow = Flow::Taken(u.imm);
    Ok(())
}

fn h_jmpl(l: &mut Lane<'_>, u: &UOp) -> Result<(), Trap> {
    l.ws.push_at(u.a, l.pc + l.pkt_bytes);
    l.flow = Flow::Taken(l.regs.get_at(u.b).wrapping_add(u.imm));
    Ok(())
}

// ---------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------

#[inline]
fn ridx(r: Reg) -> u8 {
    r.index() as u8
}

/// Lower one instruction at packet address `pc` into a micro-op.
/// Instruction forms without a specialized handler keep the generic
/// `exec_slot` fallback (counted in `fallback`).
fn lower(ins: &Instr, pc: u32, fallback: &mut u32) -> UOp {
    use Instr::*;
    let mut u = UOp { f: h_exec, a: 0, b: 0, c: 0, d: 0, imm: 0, ins: *ins };
    match *ins {
        Nop => u.f = h_nop,
        Halt => u.f = h_halt,
        Rte => u.f = h_rte,

        Alu { op, rd, rs1, src2 } => {
            u.a = ridx(rd);
            u.b = ridx(rs1);
            match src2 {
                Src::Reg(r) => {
                    u.c = ridx(r);
                    u.f = alu_handler(op, true);
                }
                Src::Imm(i) => {
                    u.imm = i as i32 as u32;
                    u.f = alu_handler(op, false);
                }
            }
        }
        SetLo { rd, imm } => {
            u.f = h_setlo;
            u.a = ridx(rd);
            u.imm = imm as i32 as u32;
        }
        SetHi { rd, imm } => {
            u.f = h_sethi;
            u.a = ridx(rd);
            u.imm = (imm as u32) << 16;
        }
        CMove { rc, rd, rs, .. } => {
            u.f = h_cmove;
            u.a = ridx(rd);
            u.b = ridx(rc);
            u.c = ridx(rs);
        }
        Pick { rd, rs1, rs2, .. } => {
            u.f = h_pick;
            u.a = ridx(rd);
            u.b = ridx(rs1);
            u.c = ridx(rs2);
        }
        Cmp { rd, rs1, rs2, .. } => {
            u.f = h_cmp;
            u.a = ridx(rd);
            u.b = ridx(rs1);
            u.c = ridx(rs2);
        }

        Mul { rd, rs1, rs2 } => (u.f, u.a, u.b, u.c) = (h_mul, ridx(rd), ridx(rs1), ridx(rs2)),
        MulHi { rd, rs1, rs2 } => (u.f, u.a, u.b, u.c) = (h_mulhi, ridx(rd), ridx(rs1), ridx(rs2)),
        MulAdd { rd, rs1, rs2 } => {
            (u.f, u.a, u.b, u.c) = (h_muladd, ridx(rd), ridx(rs1), ridx(rs2))
        }
        MulSub { rd, rs1, rs2 } => {
            (u.f, u.a, u.b, u.c) = (h_mulsub, ridx(rd), ridx(rs1), ridx(rs2))
        }
        Div { rd, rs1, rs2 } => (u.f, u.a, u.b, u.c) = (h_div, ridx(rd), ridx(rs1), ridx(rs2)),
        Rem { rd, rs1, rs2 } => (u.f, u.a, u.b, u.c) = (h_rem, ridx(rd), ridx(rs1), ridx(rs2)),

        FAdd { rd, rs1, rs2 } => (u.f, u.a, u.b, u.c) = (h_fadd, ridx(rd), ridx(rs1), ridx(rs2)),
        FSub { rd, rs1, rs2 } => (u.f, u.a, u.b, u.c) = (h_fsub, ridx(rd), ridx(rs1), ridx(rs2)),
        FMul { rd, rs1, rs2 } => (u.f, u.a, u.b, u.c) = (h_fmul, ridx(rd), ridx(rs1), ridx(rs2)),
        FDiv { rd, rs1, rs2 } => (u.f, u.a, u.b, u.c) = (h_fdiv, ridx(rd), ridx(rs1), ridx(rs2)),
        FMin { rd, rs1, rs2 } => (u.f, u.a, u.b, u.c) = (h_fmin, ridx(rd), ridx(rs1), ridx(rs2)),
        FMax { rd, rs1, rs2 } => (u.f, u.a, u.b, u.c) = (h_fmax, ridx(rd), ridx(rs1), ridx(rs2)),
        FMAdd { rd, rs1, rs2 } => (u.f, u.a, u.b, u.c) = (h_fmadd, ridx(rd), ridx(rs1), ridx(rs2)),
        FMSub { rd, rs1, rs2 } => (u.f, u.a, u.b, u.c) = (h_fmsub, ridx(rd), ridx(rs1), ridx(rs2)),
        FNeg { rd, rs } => (u.f, u.a, u.b) = (h_fneg, ridx(rd), ridx(rs)),
        FAbs { rd, rs } => (u.f, u.a, u.b) = (h_fabs, ridx(rd), ridx(rs)),
        FRsqrt { rd, rs } => (u.f, u.a, u.b) = (h_frsqrt, ridx(rd), ridx(rs)),
        FCmp { rd, rs1, rs2, .. } => {
            (u.f, u.a, u.b, u.c) = (h_fcmp, ridx(rd), ridx(rs1), ridx(rs2))
        }

        DAdd { rd, rs1, rs2 } => (u.f, u.a, u.b, u.c) = (h_dadd, ridx(rd), ridx(rs1), ridx(rs2)),
        DSub { rd, rs1, rs2 } => (u.f, u.a, u.b, u.c) = (h_dsub, ridx(rd), ridx(rs1), ridx(rs2)),
        DMul { rd, rs1, rs2 } => (u.f, u.a, u.b, u.c) = (h_dmul, ridx(rd), ridx(rs1), ridx(rs2)),
        DMin { rd, rs1, rs2 } => (u.f, u.a, u.b, u.c) = (h_dmin, ridx(rd), ridx(rs1), ridx(rs2)),
        DMax { rd, rs1, rs2 } => (u.f, u.a, u.b, u.c) = (h_dmax, ridx(rd), ridx(rs1), ridx(rs2)),
        DNeg { rd, rs } => (u.f, u.a, u.b) = (h_dneg, ridx(rd), ridx(rs)),
        DCmp { rd, rs1, rs2, .. } => {
            (u.f, u.a, u.b, u.c) = (h_dcmp, ridx(rd), ridx(rs1), ridx(rs2))
        }
        Cvt { rd, rs, .. } => (u.f, u.a, u.b) = (h_cvt, ridx(rd), ridx(rs)),

        PAdd { rd, rs1, rs2, .. } => {
            (u.f, u.a, u.b, u.c) = (h_padd, ridx(rd), ridx(rs1), ridx(rs2))
        }
        PSub { rd, rs1, rs2, .. } => {
            (u.f, u.a, u.b, u.c) = (h_psub, ridx(rd), ridx(rs1), ridx(rs2))
        }
        PMul { rd, rs1, rs2, .. } => {
            (u.f, u.a, u.b, u.c) = (h_pmul, ridx(rd), ridx(rs1), ridx(rs2))
        }
        PMulAdd { rd, rs1, rs2, .. } => {
            (u.f, u.a, u.b, u.c) = (h_pmuladd, ridx(rd), ridx(rs1), ridx(rs2))
        }
        DotP { rd, rs1, rs2 } => (u.f, u.a, u.b, u.c) = (h_dotp, ridx(rd), ridx(rs1), ridx(rs2)),
        PDist { rd, rs1, rs2 } => (u.f, u.a, u.b, u.c) = (h_pdist, ridx(rd), ridx(rs1), ridx(rs2)),
        Lzd { rd, rs } => (u.f, u.a, u.b) = (h_lzd, ridx(rd), ridx(rs)),

        Br { rs, off, .. } => {
            u.f = h_br;
            u.b = ridx(rs);
            u.imm = pc.wrapping_add(off as u32);
        }
        Call { rd, off } => {
            u.f = h_call;
            u.a = ridx(rd);
            u.imm = pc.wrapping_add(off as u32);
        }
        Jmpl { rd, base, off } => {
            u.f = h_jmpl;
            u.a = ridx(rd);
            u.b = ridx(base);
            u.imm = off as i32 as u32;
        }

        Ld { w, pol, rd, base, off } => {
            // Non-faulting loads keep the interpreter's squash-to-zero
            // path; group loads span up to 8 registers. Both are rare and
            // stay on the generic handler.
            let wc = if pol == CachePolicy::NonFaulting { None } else { width_code(w) };
            match wc {
                None => *fallback += 1,
                Some(wc) => {
                    u.a = ridx(rd);
                    u.b = ridx(base);
                    u.d = wc;
                    match off {
                        Off::Imm(i) => {
                            u.imm = i as i32 as u32;
                            u.f = h_ld;
                        }
                        Off::Reg(r) => {
                            u.c = ridx(r);
                            u.f = h_ld_r;
                        }
                    }
                }
            }
        }
        St { w, rs, base, off, .. } => match width_code(w) {
            None => *fallback += 1,
            Some(wc) => {
                u.a = ridx(rs);
                u.b = ridx(base);
                u.d = wc;
                match off {
                    Off::Imm(i) => {
                        u.imm = i as i32 as u32;
                        u.f = h_st;
                    }
                    Off::Reg(r) => {
                        u.c = ridx(r);
                        u.f = h_st_r;
                    }
                }
            }
        },

        // Everything else (conditional/atomic/group memory forms, barriers,
        // prefetch, the fixed-point divide family, byte shuffle, bit
        // extract) executes through the interpreter's own `exec_slot`.
        _ => *fallback += 1,
    }
    u
}

// ---------------------------------------------------------------------
// Translation
// ---------------------------------------------------------------------

/// Slot 0's memory operation (memory instructions sit in slot 0).
fn mem_op(pkt: &Packet) -> MemOp {
    match pkt.slot(0) {
        Some(Instr::Ld { .. } | Instr::Cas { .. } | Instr::Swap { .. }) => MemOp::Load,
        Some(Instr::St { .. } | Instr::CSt { .. }) => MemOp::Store,
        Some(Instr::Prefetch { .. }) => MemOp::Prefetch,
        Some(Instr::Membar) => MemOp::Membar,
        _ => MemOp::None,
    }
}

/// The packet's control kind (control instructions sit in slot 0).
fn ctrl_kind(pkt: &Packet) -> Ctrl {
    match pkt.control() {
        Some(&Instr::Br { hint, .. }) => Ctrl::Br { hint },
        Some(Instr::Call { .. }) => Ctrl::Call,
        Some(Instr::Jmpl { .. }) => Ctrl::Jmpl,
        Some(Instr::Rte) => Ctrl::Rte,
        _ => Ctrl::None,
    }
}

/// A program lowered to micro-ops: immutable, shareable across threads.
pub struct Translation {
    prog: Arc<Program>,
    uops: Vec<UOp>,
    packets: Vec<XPacket>,
    fallback_uops: u32,
}

impl Translation {
    /// Lower `prog`: one micro-op per slot, one [`XPacket`] per packet.
    pub(crate) fn build(prog: Arc<Program>) -> Translation {
        let n = prog.len();
        let slots = prog.packets().iter().map(|p| p.width()).sum();
        let mut uops = Vec::with_capacity(slots);
        let mut packets = Vec::with_capacity(n);
        let mut fallback = 0u32;
        for (i, pkt) in prog.packets().iter().enumerate() {
            let pc = prog.addr_of(i);
            let first = uops.len() as u32;
            let mut branch_add = 0u8;
            for (_fu, ins) in pkt.slots() {
                if ins.is_control() && !matches!(ins, Instr::Halt) {
                    branch_add += 1;
                }
                uops.push(lower(ins, pc, &mut fallback));
            }
            let link = |addr: u32| prog.index_of(addr).map_or(NO_IDX, |j| j as u32);
            let taken = match pkt.control() {
                Some(&(Instr::Br { off, .. } | Instr::Call { off, .. })) => {
                    link(pc.wrapping_add(off as u32))
                }
                _ => NO_IDX,
            };
            packets.push(XPacket {
                first,
                width: pkt.width() as u8,
                branch_add,
                mem: mem_op(pkt),
                ctrl: ctrl_kind(pkt),
                bytes: pkt.len_bytes(),
                fall: link(pc.wrapping_add(pkt.len_bytes())),
                taken,
            });
        }
        Translation { prog, uops, packets, fallback_uops: fallback }
    }

    /// [`Program::index_of`] as a raw packet index: `NO_IDX` when `pc` is
    /// not a packet boundary of this program.
    #[inline]
    fn lookup(&self, pc: u32) -> u32 {
        self.prog.index_of(pc).map_or(NO_IDX, |i| i as u32)
    }

    /// The translated packet at index `idx` (indexed like
    /// [`Program::packets`]).
    #[inline]
    pub(crate) fn packet(&self, idx: usize) -> &XPacket {
        &self.packets[idx]
    }

    /// Packet `idx`'s slot-0 instruction.
    #[inline]
    pub(crate) fn slot0(&self, idx: usize) -> &Instr {
        &self.uops[self.packets[idx].first as usize].ins
    }

    /// Execute packet `idx`, at `pc`, through its micro-ops: every slot
    /// reads the pre-packet `regs` and buffers its register writes in
    /// `ws` (cleared first), which the caller applies unless a slot
    /// trapped. The one execution path of [`XlateSim`] and the cycle
    /// model.
    #[inline]
    pub(crate) fn exec_packet(
        &self,
        idx: usize,
        pc: u32,
        regs: &RegFile,
        ws: &mut WriteSet,
        mem: &mut FlatMem,
    ) -> PacketRun {
        let xp = &self.packets[idx];
        ws.clear();
        let mut lane =
            Lane { regs, ws, mem, pc, pkt_bytes: xp.bytes, flow: Flow::Next, loads: 0, stores: 0 };
        let mut trap = None;
        for u in &self.uops[xp.span()] {
            if let Err(t) = (u.f)(&mut lane, u) {
                trap = Some(t);
                break;
            }
        }
        PacketRun { flow: lane.flow, loads: lane.loads, stores: lane.stores, trap }
    }

    /// The source program.
    pub fn program(&self) -> &Arc<Program> {
        &self.prog
    }

    /// Total micro-ops in the translation.
    pub fn uop_count(&self) -> usize {
        self.uops.len()
    }

    /// Micro-ops on the generic `exec_slot` fallback handler.
    pub fn fallback_uops(&self) -> usize {
        self.fallback_uops as usize
    }

    /// Micro-ops with a specialized (pre-resolved) handler.
    pub fn specialized_uops(&self) -> usize {
        self.uops.len() - self.fallback_uops as usize
    }
}

// ---------------------------------------------------------------------
// Translation cache
// ---------------------------------------------------------------------

/// Cache counters, sampled atomically under the cache lock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct XlateCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Translations currently resident.
    pub resident: usize,
}

struct CacheInner {
    map: HashMap<u64, Arc<Translation>>,
    cap: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A digest-keyed translation cache.
///
/// The lock is held across translation, so concurrent requests for the
/// same program translate it exactly once: for any working set within
/// capacity, `hits = requests - distinct programs` regardless of thread
/// interleaving. At capacity the entry with the smallest digest is evicted
/// — a deterministic, insertion-order-independent policy, so cache
/// behaviour is a pure function of the request multiset.
pub struct XlateCache {
    inner: Mutex<CacheInner>,
}

impl XlateCache {
    /// A cache holding at most `cap` translations (`cap >= 1`).
    pub fn new(cap: usize) -> XlateCache {
        XlateCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                cap: cap.max(1),
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// Get or build the translation of `prog`.
    pub fn translate(&self, prog: &Arc<Program>) -> Arc<Translation> {
        self.translate_counted(prog).0
    }

    /// Like [`XlateCache::translate`], but also reports whether this
    /// request hit the cache — per-request attribution for job spans,
    /// where the aggregate [`XlateCache::stats`] cannot say which job
    /// paid for the translation.
    pub fn translate_counted(&self, prog: &Arc<Program>) -> (Arc<Translation>, bool) {
        let digest = prog.digest();
        let mut g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(t) = g.map.get(&digest).map(Arc::clone) {
            g.hits += 1;
            return (t, true);
        }
        g.misses += 1;
        let t = Arc::new(Translation::build(Arc::clone(prog)));
        g.map.insert(digest, Arc::clone(&t));
        if g.map.len() > g.cap {
            // Evict the smallest digest of the union, incoming entry
            // included: the resident set is always the `cap` largest
            // digests ever requested, whatever order they arrived in.
            if let Some(&evict) = g.map.keys().min() {
                g.map.remove(&evict);
                g.evictions += 1;
            }
        }
        (t, false)
    }

    /// Sample the cache counters.
    pub fn stats(&self) -> XlateCacheStats {
        let g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        XlateCacheStats {
            hits: g.hits,
            misses: g.misses,
            evictions: g.evictions,
            resident: g.map.len(),
        }
    }
}

static GLOBAL_CACHE: OnceLock<XlateCache> = OnceLock::new();

/// The process-wide translation cache ([`XLATE_CACHE_CAP`] programs),
/// shared by every [`XlateSim::new`] — farm shards, fuzz workers, and
/// `majc-serve` residents all reuse one translation per distinct program.
pub fn global_xlate_cache() -> &'static XlateCache {
    GLOBAL_CACHE.get_or_init(|| XlateCache::new(XLATE_CACHE_CAP))
}

// ---------------------------------------------------------------------
// The translated engine
// ---------------------------------------------------------------------

/// The decode-once translated simulator: same architectural behaviour as
/// [`FuncSim`](crate::FuncSim), several times the throughput.
pub struct XlateSim {
    pub regs: RegFile,
    pub mem: FlatMem,
    xl: Arc<Translation>,
    pc: u32,
    /// Packet index for `pc` (`NO_IDX` when off-program), maintained
    /// incrementally via the pre-linked successors.
    idx: u32,
    halted: bool,
    trap_vector: Option<u32>,
    trap: TrapRegs,
    ws: WriteSet,
    pub stats: FuncStats,
}

impl XlateSim {
    /// Create a simulator positioned at the program's base address,
    /// translating through the process-wide cache.
    pub fn new(prog: impl Into<Arc<Program>>, mem: FlatMem) -> XlateSim {
        let prog = prog.into();
        let xl = global_xlate_cache().translate(&prog);
        XlateSim::from_translation(xl, mem)
    }

    /// Create a simulator from an already-built translation (e.g. from a
    /// private [`XlateCache`]).
    pub fn from_translation(xl: Arc<Translation>, mem: FlatMem) -> XlateSim {
        let pc = xl.prog.base();
        let idx = xl.lookup(pc);
        XlateSim {
            regs: RegFile::new(),
            mem,
            xl,
            pc,
            idx,
            halted: false,
            trap_vector: None,
            trap: TrapRegs::default(),
            ws: WriteSet::default(),
            stats: FuncStats::default(),
        }
    }

    /// Enable vectored trap delivery to the packet at `base`.
    pub fn set_trap_vector(&mut self, base: u32) {
        self.trap_vector = Some(base);
    }

    /// The trap registers (latched by the most recent delivery).
    pub fn trap_regs(&self) -> &TrapRegs {
        &self.trap
    }

    pub fn pc(&self) -> u32 {
        self.pc
    }

    pub fn halted(&self) -> bool {
        self.halted
    }

    pub fn program(&self) -> &Program {
        &self.xl.prog
    }

    /// The translation this simulator executes.
    pub fn translation(&self) -> &Arc<Translation> {
        &self.xl
    }

    /// Execute one packet. Returns `Ok(true)` while running, `Ok(false)`
    /// once halted — the exact contract (and behaviour) of
    /// `FuncSim::step`. One iteration of [`XlateSim::run`].
    pub fn step(&mut self) -> Result<bool, Trap> {
        self.run(1)?;
        Ok(!self.halted)
    }

    /// Run until `halt` or until `max_steps` steps have been made; returns
    /// packets committed. Every step consumes budget, including trap
    /// deliveries (which commit no packet).
    ///
    /// The translated engine's one execution loop. `pc`, the packet index
    /// and the counters live in locals; a committed packet is counted by
    /// its width only, and the width-derived [`FuncStats`] counters are
    /// folded in once, on every exit.
    pub fn run(&mut self, max_steps: u64) -> Result<u64, Trap> {
        if self.halted {
            return Ok(0);
        }
        let xl = &*self.xl;
        let vector = self.trap_vector;
        let (mut pc, mut idx) = (self.pc, self.idx);
        // This run's counters; `packets`, `instrs` and `slot_instrs`
        // follow from `width_hist` in `fold_run`.
        let mut tally = FuncStats::default();
        let mut steps = 0u64;
        let end = 'run: loop {
            if steps == max_steps {
                break Ok(());
            }
            steps += 1;
            // A trap to deliver, with its `rte` resume point.
            let (trap, npc) = 'fault: {
                if idx == NO_IDX {
                    break 'fault (Trap::BadPc { pc, target: pc }, pc);
                }
                let xp = &xl.packets[idx as usize];
                let run = xl.exec_packet(idx as usize, pc, &self.regs, &mut self.ws, &mut self.mem);
                tally.loads += run.loads;
                tally.stores += run.stores;
                if let Some(trap) = run.trap {
                    break 'fault (trap, pc);
                }
                self.ws.apply(&mut self.regs);
                tally.width_hist[xp.width as usize - 1] += 1;
                tally.branches += xp.branch_add as u64;
                match run.flow {
                    Flow::Next => {
                        pc += xp.bytes;
                        idx = xp.fall;
                    }
                    Flow::Taken(t) => {
                        tally.taken += 1;
                        let ti = match xp.ctrl {
                            Ctrl::Br { .. } | Ctrl::Call => xp.taken,
                            _ => xl.lookup(t),
                        };
                        debug_assert_eq!(ti, xl.lookup(t), "stale taken link at {pc:#x}");
                        if ti == NO_IDX {
                            // The branch packet committed: resume past it.
                            break 'fault (Trap::BadPc { pc, target: t }, pc + xp.bytes);
                        }
                        pc = t;
                        idx = ti;
                    }
                    Flow::Rte => {
                        if !self.trap.active {
                            break 'fault (Trap::BadRte { pc }, pc + xp.bytes);
                        }
                        self.trap.active = false;
                        pc = self.trap.tnpc;
                        idx = xl.lookup(pc);
                    }
                    Flow::Halt => {
                        self.halted = true;
                        break 'run Ok(());
                    }
                }
                continue 'run;
            };
            // Vectored delivery, as `FuncSim::deliver`: no vector, or a
            // trap inside the handler, ends the run.
            match vector {
                Some(base) if !self.trap.active => {
                    self.trap.latch(trap, pc, npc);
                    pc = base;
                    idx = xl.lookup(base);
                    tally.traps += 1;
                }
                _ => break Err(trap),
            }
        };
        self.pc = pc;
        self.idx = idx;
        let packets = fold_run(&mut self.stats, &tally);
        end.map(|()| packets)
    }

    /// [`XlateSim::run`] with a watchdog, mirroring `FuncSim::run_to_halt`.
    pub fn run_to_halt(&mut self, max_steps: u64) -> Result<u64, SimError> {
        let n = self.run(max_steps).map_err(SimError::Trap)?;
        if self.halted {
            Ok(n)
        } else {
            Err(SimError::Hang { at: self.stats.packets, pcs: vec![self.pc] })
        }
    }

    /// Capture the complete architectural state at the current packet
    /// boundary (memory is snapshotted separately — it may be shared).
    pub fn capture(&self) -> CpuSnap {
        CpuSnap::capture(&self.regs, self.pc, self.halted, self.trap)
    }

    /// Rebuild a simulator from a captured state: the bit-identical
    /// continuation of the run `snap` was captured from — including a snap
    /// captured on a `FuncSim`.
    pub fn resume(prog: impl Into<Arc<Program>>, mem: FlatMem, snap: &CpuSnap) -> XlateSim {
        let prog = prog.into();
        let xl = global_xlate_cache().translate(&prog);
        XlateSim::resume_translated(xl, mem, snap)
    }

    /// [`XlateSim::resume`] from an already-built translation (e.g. from
    /// a private [`XlateCache`]).
    pub fn resume_translated(xl: Arc<Translation>, mem: FlatMem, snap: &CpuSnap) -> XlateSim {
        let mut sim = XlateSim::from_translation(xl, mem);
        snap.apply_regs(&mut sim.regs);
        sim.pc = snap.pc;
        sim.halted = snap.halted;
        sim.trap = snap.trap;
        sim.idx = sim.xl.lookup(snap.pc);
        sim
    }
}

/// Add one run's `tally` to `stats`, deriving the per-packet counters from
/// the committed packets' width histogram. Returns the packets committed.
fn fold_run(stats: &mut FuncStats, tally: &FuncStats) -> u64 {
    let mut packets = 0;
    for (w, &n) in tally.width_hist.iter().enumerate() {
        packets += n;
        stats.width_hist[w] += n;
        stats.instrs += n * (w as u64 + 1);
        for slot in &mut stats.slot_instrs[..=w] {
            *slot += n;
        }
    }
    stats.packets += packets;
    stats.loads += tally.loads;
    stats.stores += tally.stores;
    stats.branches += tally.branches;
    stats.taken += tally.taken;
    stats.traps += tally.traps;
    packets
}

impl crate::engine::ExecEngine for XlateSim {
    fn step(&mut self) -> Result<bool, Trap> {
        XlateSim::step(self)
    }

    fn pc(&self) -> u32 {
        XlateSim::pc(self)
    }

    fn halted(&self) -> bool {
        XlateSim::halted(self)
    }

    fn program(&self) -> &Program {
        XlateSim::program(self)
    }

    fn regs(&self) -> &RegFile {
        &self.regs
    }

    fn regs_mut(&mut self) -> &mut RegFile {
        &mut self.regs
    }

    fn mem(&self) -> &FlatMem {
        &self.mem
    }

    fn mem_mut(&mut self) -> &mut FlatMem {
        &mut self.mem
    }

    fn stats(&self) -> &FuncStats {
        &self.stats
    }

    fn set_trap_vector(&mut self, base: u32) {
        XlateSim::set_trap_vector(self, base)
    }

    fn trap_regs(&self) -> &TrapRegs {
        XlateSim::trap_regs(self)
    }

    fn capture(&self) -> CpuSnap {
        XlateSim::capture(self)
    }

    fn engine_name(&self) -> &'static str {
        "func-xlate"
    }

    fn run(&mut self, max_steps: u64) -> Result<u64, Trap> {
        XlateSim::run(self, max_steps)
    }

    fn run_to_halt(&mut self, max_steps: u64) -> Result<u64, SimError> {
        XlateSim::run_to_halt(self, max_steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func_sim::FuncSim;
    use majc_isa::{Cond, Packet};

    fn assert_same_arch(f: &FuncSim, x: &XlateSim) {
        assert_eq!(f.regs.raw(), x.regs.raw(), "register files diverge");
        assert_eq!(f.pc(), x.pc(), "pc diverges");
        assert_eq!(f.halted(), x.halted(), "halt state diverges");
        assert_eq!(f.trap_regs(), x.trap_regs(), "trap registers diverge");
        assert_eq!(f.stats, x.stats, "counters diverge");
        assert!(f.mem.first_diff(&x.mem).is_none(), "memory diverges");
    }

    fn lockstep(prog: Program, budget: u64) -> (FuncSim, XlateSim) {
        let prog = Arc::new(prog);
        let mut f = FuncSim::new(Arc::clone(&prog), FlatMem::new());
        let mut x = XlateSim::new(prog, FlatMem::new());
        for _ in 0..budget {
            let a = f.step();
            let b = x.step();
            assert_eq!(a.is_ok(), b.is_ok(), "outcome kind diverges");
            match (a, b) {
                (Ok(fa), Ok(xa)) => assert_eq!(fa, xa, "running state diverges"),
                (Err(ft), Err(xt)) => {
                    assert_eq!(ft, xt, "trap diverges");
                    break;
                }
                _ => unreachable!(),
            }
            assert_same_arch(&f, &x);
            if f.halted() {
                break;
            }
        }
        (f, x)
    }

    #[test]
    fn straight_line_and_loop_match_interpreter() {
        let loop_pkt = Packet::new(&[
            Instr::Alu { op: AluOp::Sub, rd: Reg::g(0), rs1: Reg::g(0), src2: Src::Imm(1) },
            Instr::Alu { op: AluOp::Add, rd: Reg::g(1), rs1: Reg::g(1), src2: Src::Reg(Reg::g(0)) },
        ])
        .unwrap();
        let br =
            Packet::solo(Instr::Br { cond: Cond::Ne, rs: Reg::g(0), off: -8, hint: true }).unwrap();
        let p = Program::new(
            0,
            vec![
                Packet::solo(Instr::SetLo { rd: Reg::g(0), imm: 10 }).unwrap(),
                loop_pkt,
                br,
                Packet::solo(Instr::Halt).unwrap(),
            ],
        );
        let (f, x) = lockstep(p, 1000);
        assert!(f.halted() && x.halted());
        assert_eq!(x.regs.get(Reg::g(1)), 55);
        assert_eq!(x.stats.taken, 9);
    }

    #[test]
    fn memory_and_trap_delivery_match_interpreter() {
        // Store, misaligned load (traps to the vector), handler fixes the
        // address and returns via rte.
        let p = Program::new(
            0,
            vec![
                Packet::solo(Instr::SetLo { rd: Reg::g(0), imm: 0x100 }).unwrap(),
                Packet::solo(Instr::SetLo { rd: Reg::g(1), imm: 0x77 }).unwrap(),
                Packet::solo(Instr::St {
                    w: MemWidth::W,
                    pol: CachePolicy::Cached,
                    rs: Reg::g(1),
                    base: Reg::g(0),
                    off: Off::Imm(0),
                })
                .unwrap(),
                Packet::solo(Instr::Alu {
                    op: AluOp::Add,
                    rd: Reg::g(0),
                    rs1: Reg::g(0),
                    src2: Src::Imm(1),
                })
                .unwrap(),
                // Misaligned word load: traps on the first pass.
                Packet::solo(Instr::Ld {
                    w: MemWidth::W,
                    pol: CachePolicy::Cached,
                    rd: Reg::g(2),
                    base: Reg::g(0),
                    off: Off::Imm(0),
                })
                .unwrap(),
                Packet::solo(Instr::Halt).unwrap(),
                // Trap handler at 0x18: realign g0 and rte.
                Packet::solo(Instr::Alu {
                    op: AluOp::Sub,
                    rd: Reg::g(0),
                    rs1: Reg::g(0),
                    src2: Src::Imm(1),
                })
                .unwrap(),
                Packet::solo(Instr::Rte).unwrap(),
            ],
        );
        let prog = Arc::new(p);
        let mut f = FuncSim::new(Arc::clone(&prog), FlatMem::new());
        let mut x = XlateSim::new(prog, FlatMem::new());
        f.set_trap_vector(0x18);
        x.set_trap_vector(0x18);
        for _ in 0..64 {
            assert_eq!(f.step().unwrap(), x.step().unwrap());
            assert_same_arch(&f, &x);
            if f.halted() {
                break;
            }
        }
        assert!(x.halted());
        assert_eq!(x.stats.traps, 1);
        assert_eq!(x.regs.get(Reg::g(2)), 0x77);
    }

    #[test]
    fn off_program_jump_is_trapped() {
        let p = Program::new(
            0,
            vec![Packet::solo(Instr::Br { cond: Cond::Eq, rs: Reg::g(0), off: 400, hint: false })
                .unwrap()],
        );
        let mut x = XlateSim::new(p, FlatMem::new());
        let e = x.step().unwrap_err();
        assert!(matches!(e, Trap::BadPc { target: 400, .. }));
    }

    /// The address a `br`/`call` at `pc` jumps to when taken, by the
    /// interpreter's own `exec_slot`; `None` for every other instruction.
    fn static_target(ins: &Instr, pc: u32, pkt_bytes: u32) -> Option<u32> {
        if !matches!(ins, Instr::Br { .. } | Instr::Call { .. }) {
            return None;
        }
        // Some value among 0, 1 and -1 satisfies every branch condition.
        [0, 1, u32::MAX].into_iter().find_map(|v| {
            let mut regs = RegFile::new();
            if let Instr::Br { rs, .. } = *ins {
                regs.set(rs, v);
            }
            let mut ws = WriteSet::default();
            let out = exec_slot(ins, &regs, &mut ws, &mut FlatMem::new(), pc, pkt_bytes);
            match out.expect("br and call cannot trap").flow {
                Some(Flow::Taken(t)) => Some(t),
                _ => None,
            }
        })
    }

    /// Every `br`/`call` packet's pre-linked taken index is
    /// `Program::index_of` of the address the interpreter jumps to, and
    /// `NO_IDX` exactly when that address is off-program; no other packet
    /// carries a link. Over the kernel suite, a corpus slice and a fuzz
    /// slice.
    #[test]
    fn taken_links_agree_with_the_address_map() {
        let mut progs: Vec<Arc<Program>> =
            majc_kernels::suite::cases().into_iter().map(|c| c.prog).collect();
        progs.extend(majc_kernels::suite::corpus_cases(3).into_iter().map(|c| c.prog));
        progs.extend((0..256).map(|seed| Arc::new(majc_bench::diff::fuzz_program(seed))));
        let (mut inside, mut outside) = (0, 0);
        for prog in progs {
            let xl = Translation::build(Arc::clone(&prog));
            for (i, pkt) in prog.packets().iter().enumerate() {
                let pc = prog.addr_of(i);
                let link = xl.packet(i).taken;
                let Some(target) = static_target(pkt.slot(0).unwrap(), pc, pkt.len_bytes()) else {
                    assert_eq!(link, NO_IDX, "packet {i} at {pc:#x} has no static target");
                    continue;
                };
                match prog.index_of(target) {
                    Some(j) => {
                        assert_eq!(link, j as u32, "taken link of packet {i} at {pc:#x}");
                        inside += 1;
                    }
                    None => {
                        assert_eq!(link, NO_IDX, "off-program target {target:#x} from {pc:#x}");
                        outside += 1;
                    }
                }
            }
        }
        assert!(inside > 0 && outside > 0, "links seen: {inside} in-program, {outside} off");
    }

    #[test]
    fn snapshot_crosses_engines() {
        let loop_pkt = Packet::new(&[Instr::Alu {
            op: AluOp::Sub,
            rd: Reg::g(0),
            rs1: Reg::g(0),
            src2: Src::Imm(1),
        }])
        .unwrap();
        let p = Program::new(
            0x40,
            vec![
                Packet::solo(Instr::SetLo { rd: Reg::g(0), imm: 100 }).unwrap(),
                loop_pkt,
                Packet::solo(Instr::Br { cond: Cond::Ne, rs: Reg::g(0), off: -4, hint: true })
                    .unwrap(),
                Packet::solo(Instr::Halt).unwrap(),
            ],
        );
        let prog = Arc::new(p);
        // Run 37 packets on the interpreter, capture, resume on the
        // translated engine, and confirm the continuation matches an
        // uninterrupted interpreter run.
        let mut f = FuncSim::new(Arc::clone(&prog), FlatMem::new());
        f.run(37).unwrap();
        let snap = f.capture();
        let mut x = XlateSim::resume(Arc::clone(&prog), f.mem.clone(), &snap);
        let mut oracle = FuncSim::new(Arc::clone(&prog), FlatMem::new());
        oracle.run(100_000).unwrap();
        x.run(100_000).unwrap();
        assert!(oracle.halted() && x.halted());
        assert_eq!(oracle.regs.raw(), x.regs.raw());
        assert_eq!(oracle.pc(), x.pc());
        // Stats on the resumed engine cover only the continuation.
        assert_eq!(oracle.stats.packets, 37 + x.stats.packets);
    }

    #[test]
    fn cache_counts_hits_misses_and_evictions() {
        let mk = |imm: i16| {
            Arc::new(Program::new(
                0,
                vec![
                    Packet::solo(Instr::SetLo { rd: Reg::g(0), imm }).unwrap(),
                    Packet::solo(Instr::Halt).unwrap(),
                ],
            ))
        };
        let cache = XlateCache::new(2);
        let (a, b, c) = (mk(1), mk(2), mk(3));
        cache.translate(&a);
        cache.translate(&a); // hit
        cache.translate(&b);
        assert_eq!(
            cache.stats(),
            XlateCacheStats { hits: 1, misses: 2, evictions: 0, resident: 2 }
        );
        cache.translate(&c); // past capacity: the smallest digest goes
        let s = cache.stats();
        assert_eq!((s.misses, s.evictions, s.resident), (3, 1, 2));
        // The two largest digests survive, whatever order they arrived
        // in; re-translating a structurally identical copy of a survivor
        // is a hit — the cache keys on content, not identity.
        let mut ds = [a.digest(), b.digest(), c.digest()];
        ds.sort_unstable();
        let imm = (1..=3).find(|&i| mk(i).digest() == ds[2]).unwrap();
        cache.translate(&mk(imm));
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn fallback_forms_still_match_interpreter() {
        // Cas / Swap / CSt / group + non-faulting memory all route through
        // the generic handler; make sure the lowering plumbs them intact.
        let p = Program::new(
            0,
            vec![
                Packet::solo(Instr::SetLo { rd: Reg::g(0), imm: 0x200 }).unwrap(),
                Packet::solo(Instr::SetLo { rd: Reg::g(1), imm: 5 }).unwrap(),
                Packet::solo(Instr::St {
                    w: MemWidth::W,
                    pol: CachePolicy::Cached,
                    rs: Reg::g(1),
                    base: Reg::g(0),
                    off: Off::Imm(0),
                })
                .unwrap(),
                Packet::solo(Instr::Cas { rd: Reg::g(1), base: Reg::g(0), rs: Reg::g(2) }).unwrap(),
                Packet::solo(Instr::Swap { rd: Reg::g(1), base: Reg::g(0) }).unwrap(),
                Packet::solo(Instr::CSt {
                    cond: Cond::Eq,
                    rc: Reg::g(3),
                    rs: Reg::g(1),
                    base: Reg::g(0),
                })
                .unwrap(),
                Packet::solo(Instr::Ld {
                    w: MemWidth::G,
                    pol: CachePolicy::Cached,
                    rd: Reg::g(8),
                    base: Reg::g(0),
                    off: Off::Imm(0),
                })
                .unwrap(),
                Packet::solo(Instr::Halt).unwrap(),
            ],
        );
        let (f, x) = lockstep(p, 100);
        assert!(f.halted() && x.halted());
        assert!(x.stats.stores >= 3);
    }
}
