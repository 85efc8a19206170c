//! VLIW instruction packets.
//!
//! A MAJC packet holds one to four 32-bit instructions. A two-bit header
//! indicates the issue width, "reducing unnecessary nops in the instruction
//! stream" (paper §3.2). Slot `i` of a packet executes on functional unit
//! `i`: slot 0 must be an FU0 instruction (memory, control flow, ALU, or
//! the FU0 math specials), slots 1-3 are compute instructions.

use std::sync::OnceLock;

use crate::hash::{fnv1a, fnv1a_extend};
use crate::instr::Instr;
use crate::IsaError;

/// Maximum instructions per packet.
pub const MAX_SLOTS: usize = 4;

/// One VLIW packet: `width` instructions in slots `0..width`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Packet {
    width: u8,
    slots: [Instr; MAX_SLOTS],
}

impl Packet {
    /// Build a packet from 1-4 instructions; slot `i` runs on FU`i`.
    pub fn new(instrs: &[Instr]) -> Result<Packet, IsaError> {
        if instrs.is_empty() || instrs.len() > MAX_SLOTS {
            return Err(IsaError::BadPacketWidth(instrs.len()));
        }
        let mut slots = [Instr::Nop; MAX_SLOTS];
        for (i, ins) in instrs.iter().enumerate() {
            ins.validate_for_fu(i as u8)?;
            slots[i] = *ins;
        }
        Ok(Packet { width: instrs.len() as u8, slots })
    }

    /// A single-slot packet holding one FU0 instruction.
    pub fn solo(i: Instr) -> Result<Packet, IsaError> {
        Packet::new(&[i])
    }

    /// Issue width (1-4).
    #[inline]
    pub fn width(&self) -> usize {
        self.width as usize
    }

    /// Size of the packet in the instruction stream, in bytes (4-16).
    #[inline]
    pub fn len_bytes(&self) -> u32 {
        self.width as u32 * 4
    }

    /// The occupied slots, as `(fu, instruction)` pairs.
    #[inline]
    pub fn slots(&self) -> impl Iterator<Item = (u8, &Instr)> + '_ {
        self.slots[..self.width as usize].iter().enumerate().map(|(i, ins)| (i as u8, ins))
    }

    /// The instruction in slot `fu`, if the packet is that wide.
    #[inline]
    pub fn slot(&self, fu: usize) -> Option<&Instr> {
        self.slots[..self.width as usize].get(fu)
    }

    /// The packet's control-transfer instruction, if any (always slot 0).
    #[inline]
    pub fn control(&self) -> Option<&Instr> {
        let s0 = &self.slots[0];
        s0.is_control().then_some(s0)
    }

    /// Whether any slot touches memory.
    pub fn has_mem(&self) -> bool {
        self.slots().any(|(_, i)| i.is_mem())
    }
}

/// Marks an instruction word of [`Program`]'s dense index that does not
/// start a packet (slots 1-3 of a wide packet).
const NOT_A_PACKET: u32 = u32::MAX;

/// A sequence of packets plus the byte address of each packet, forming a
/// loaded program image. Packet addresses reflect the variable-length
/// encoding: a packet of width `w` occupies `4*w` bytes. A program is
/// immutable once built, so its content digest is computed at most once.
#[derive(Clone, Debug, Default)]
pub struct Program {
    packets: Vec<Packet>,
    addrs: Vec<u32>,
    /// Packet index of each 4-byte instruction word of the image, by
    /// `(pc - base) / 4`; [`NOT_A_PACKET`] inside a wide packet. Makes
    /// [`Program::index_of`] a bounds check and one load.
    word_index: Vec<u32>,
    base: u32,
    /// [`Program::digest`], once something has asked for it.
    digest: OnceLock<u64>,
}

impl Program {
    /// Lay out packets starting at byte address `base`.
    pub fn new(base: u32, packets: Vec<Packet>) -> Program {
        let mut addrs = Vec::with_capacity(packets.len());
        let mut word_index = Vec::with_capacity(packets.len());
        let mut pc = base;
        for (i, p) in packets.iter().enumerate() {
            addrs.push(pc);
            pc += p.len_bytes();
            word_index.push(i as u32);
            word_index.extend((1..p.width()).map(|_| NOT_A_PACKET));
        }
        Program { packets, addrs, word_index, base, digest: OnceLock::new() }
    }

    /// FNV-1a content digest of the image: the base address followed by
    /// the encoded packet bytes — the key of the translation cache. A
    /// program with a packet that has no binary encoding (the hand-built
    /// `vld` kernel is one) hashes each packet's address and its
    /// instructions' debug text instead. Both are pure functions of the
    /// program value; the first call computes the digest and every later
    /// call, on this program or a clone of it, returns the stored value.
    pub fn digest(&self) -> u64 {
        *self.digest.get_or_init(|| {
            let h = fnv1a(&self.base.to_le_bytes());
            match crate::encode::encode_program(&self.packets) {
                Ok(bytes) => fnv1a_extend(h, &bytes),
                Err(_) => {
                    let mut h = fnv1a_extend(h, &[0xFF]);
                    for (p, addr) in self.packets.iter().zip(&self.addrs) {
                        h = fnv1a_extend(h, &addr.to_le_bytes());
                        for (_fu, ins) in p.slots() {
                            h = fnv1a_extend(h, format!("{ins:?}").as_bytes());
                        }
                    }
                    h
                }
            }
        })
    }

    #[inline]
    pub fn base(&self) -> u32 {
        self.base
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Total size of the encoded instruction stream in bytes.
    pub fn len_bytes(&self) -> u32 {
        self.packets.iter().map(|p| p.len_bytes()).sum()
    }

    #[inline]
    pub fn packets(&self) -> &[Packet] {
        &self.packets
    }

    /// Byte address of packet `idx`.
    #[inline]
    pub fn addr_of(&self, idx: usize) -> u32 {
        self.addrs[idx]
    }

    /// Index of the packet starting at byte address `pc`: `None` for a
    /// misaligned `pc`, one inside a wide packet, or one outside the image.
    #[inline]
    pub fn index_of(&self, pc: u32) -> Option<usize> {
        let off = pc.wrapping_sub(self.base);
        if !off.is_multiple_of(4) {
            return None;
        }
        match self.word_index.get((off / 4) as usize) {
            Some(&i) if i != NOT_A_PACKET => Some(i as usize),
            _ => None,
        }
    }

    /// The packet starting at byte address `pc`.
    #[inline]
    pub fn fetch(&self, pc: u32) -> Option<&Packet> {
        self.index_of(pc).map(|i| &self.packets[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Src;
    use crate::ops::AluOp;
    use crate::reg::Reg;

    fn alu(rd: u8) -> Instr {
        Instr::Alu { op: AluOp::Add, rd: Reg::g(rd), rs1: Reg::g(0), src2: Src::Imm(1) }
    }

    fn fma(rd: u8) -> Instr {
        Instr::FMAdd { rd: Reg::g(rd), rs1: Reg::g(0), rs2: Reg::g(1) }
    }

    #[test]
    fn packet_widths() {
        for w in 1..=4usize {
            let instrs: Vec<Instr> = (0..w).map(|i| if i == 0 { alu(1) } else { fma(2) }).collect();
            let p = Packet::new(&instrs).unwrap();
            assert_eq!(p.width(), w);
            assert_eq!(p.len_bytes(), 4 * w as u32);
        }
        assert!(Packet::new(&[]).is_err());
        assert!(Packet::new(&[alu(0); 5]).is_err());
    }

    #[test]
    fn slot0_must_accept_fu0() {
        // A compute-only op cannot occupy slot 0.
        assert!(Packet::new(&[fma(0)]).is_err());
        // FU0 ops cannot occupy slots 1-3.
        assert!(Packet::new(&[alu(0), Instr::Membar]).is_err());
    }

    #[test]
    fn program_layout() {
        let p1 = Packet::new(&[alu(0)]).unwrap(); // 4 bytes
        let p2 = Packet::new(&[alu(1), fma(2), fma(3)]).unwrap(); // 12 bytes
        let p3 = Packet::new(&[alu(4), fma(5)]).unwrap(); // 8 bytes
        let prog = Program::new(0x1000, vec![p1, p2, p3]);
        assert_eq!(prog.addr_of(0), 0x1000);
        assert_eq!(prog.addr_of(1), 0x1004);
        assert_eq!(prog.addr_of(2), 0x1010);
        assert_eq!(prog.len_bytes(), 24);
        assert_eq!(prog.index_of(0x1004), Some(1));
        assert_eq!(prog.index_of(0x1006), None);
        assert!(prog.fetch(0x1010).is_some());
    }

    #[test]
    fn a_clone_reports_the_same_digest() {
        let fresh = mixed_widths();
        let asked = mixed_widths();
        let d = asked.digest();
        // Cloned after the memo is set, and before.
        assert_eq!(asked.clone().digest(), d);
        assert_eq!(fresh.clone().digest(), d);
        assert_eq!(fresh.digest(), d);
        assert_ne!(Program::new(0x2004, fresh.packets().to_vec()).digest(), d, "base is hashed");
    }

    /// A program at a non-zero base: widths 1, 4, 2 at 0x2000, 0x2004, 0x2014.
    fn mixed_widths() -> Program {
        let p1 = Packet::new(&[alu(0)]).unwrap();
        let p4 = Packet::new(&[alu(1), fma(2), fma(3), fma(4)]).unwrap();
        let p2 = Packet::new(&[alu(5), fma(6)]).unwrap();
        Program::new(0x2000, vec![p1, p4, p2])
    }

    #[test]
    fn index_of_finds_every_packet_start() {
        let prog = mixed_widths();
        for i in 0..prog.len() {
            assert_eq!(prog.index_of(prog.addr_of(i)), Some(i));
        }
        assert_eq!(prog.fetch(0x2004).map(Packet::width), Some(4));
    }

    #[test]
    fn index_of_rejects_pcs_inside_a_wide_packet() {
        let prog = mixed_widths();
        for pc in [0x2008, 0x200C, 0x2010, 0x2018] {
            assert_eq!(prog.index_of(pc), None, "{pc:#x} is inside a packet");
            assert!(prog.fetch(pc).is_none());
        }
    }

    #[test]
    fn index_of_rejects_misaligned_pcs() {
        let prog = mixed_widths();
        for pc in [0x2001, 0x2002, 0x2003, 0x2005, 0x2015] {
            assert_eq!(prog.index_of(pc), None, "{pc:#x} is misaligned");
        }
    }

    #[test]
    fn index_of_rejects_pcs_outside_the_image() {
        let prog = mixed_widths();
        let end = prog.base() + prog.len_bytes();
        assert_eq!(end, 0x201C);
        for pc in [0, 0x1FFC, 0x1FFF, end, end + 4, u32::MAX - 3, u32::MAX] {
            assert_eq!(prog.index_of(pc), None, "{pc:#x} is outside the image");
        }
    }

    #[test]
    fn empty_program_has_no_packets() {
        let prog = Program::default();
        for pc in [0, 4, 0x1000, u32::MAX] {
            assert_eq!(prog.index_of(pc), None);
            assert!(prog.fetch(pc).is_none());
        }
    }
}
