//! Structured lint diagnostics.
//!
//! Every finding carries enough machine-readable context to locate it
//! (packet index, byte address, slot/FU) and to explain it (register,
//! cycles short, producing packet). Rendering is available both as a
//! human-readable line and as JSON for tooling.

use majc_isa::Reg;

/// How bad a finding is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Informational note (e.g. an interlock stall the scoreboard covers).
    Info,
    /// Suspicious but not a correctness problem on the modelled hardware.
    Warning,
    /// A correctness problem: the program is wrong or would be wrong on
    /// hardware without the protecting interlock.
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// What kind of finding.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// A deterministic-latency result is read before the bypass network
    /// makes it visible to the consuming FU (paper §3.2: such latencies are
    /// *not* interlocked on the MAJC-5200 — the read returns stale data).
    ExposedLatency,
    /// A deterministic-latency operand forces an interlock stall. On the
    /// modelled (scoreboarded) machine this only costs cycles.
    ScheduleStall,
    /// Two slots of one packet write the same register.
    PacketWaw,
    /// A register is read on some path before any instruction writes it.
    UseBeforeDef,
    /// A register write that no path can observe: every path overwrites it
    /// before reading it.
    DeadWrite,
    /// The packet cannot be reached from the entry packet.
    Unreachable,
    /// A branch or call whose target is not the start of any packet.
    BadBranchTarget,
    /// Execution can fall past the last packet of the program.
    FallsOffEnd,
    /// A store whose bytes are overwritten on every path before any
    /// instruction can read them (and before anything that could trap and
    /// make memory externally observable).
    DeadStore,
    /// A load from an address whose value was loaded or stored earlier on
    /// every path with no possibly-clobbering store in between.
    RedundantLoad,
    /// A conditional branch the value analysis proves is taken on every
    /// execution that reaches it.
    BranchAlwaysTaken,
    /// A conditional branch the value analysis proves is never taken.
    BranchNeverTaken,
    /// A packet with no architectural effect: no memory access, no control
    /// transfer, nothing that can trap, and every register it writes is
    /// dead on every path.
    IneffectualPacket,
    /// Two CPUs access overlapping absolute addresses and at least one
    /// access is a non-atomic write.
    SharedRace,
}

impl Kind {
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::ExposedLatency => "exposed-latency",
            Kind::ScheduleStall => "schedule-stall",
            Kind::PacketWaw => "packet-waw",
            Kind::UseBeforeDef => "use-before-def",
            Kind::DeadWrite => "dead-write",
            Kind::Unreachable => "unreachable",
            Kind::BadBranchTarget => "bad-branch-target",
            Kind::FallsOffEnd => "falls-off-end",
            Kind::DeadStore => "dead-store",
            Kind::RedundantLoad => "redundant-load",
            Kind::BranchAlwaysTaken => "branch-always-taken",
            Kind::BranchNeverTaken => "branch-never-taken",
            Kind::IneffectualPacket => "ineffectual-packet",
            Kind::SharedRace => "shared-race",
        }
    }
}

/// One finding.
#[derive(Clone, Debug)]
pub struct Diag {
    pub severity: Severity,
    pub kind: Kind,
    /// Index of the offending packet in the program.
    pub packet: usize,
    /// Byte address of the offending packet.
    pub addr: u32,
    /// Slot (= functional unit) within the packet, where meaningful.
    pub slot: Option<u8>,
    /// The register involved, where meaningful.
    pub reg: Option<Reg>,
    /// For latency findings: how many cycles before visibility the read
    /// happens (exposed) or how many cycles the interlock stalls.
    pub cycles_short: Option<u64>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diag {
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"severity\":\"");
        s.push_str(self.severity.as_str());
        s.push_str("\",\"kind\":\"");
        s.push_str(self.kind.as_str());
        s.push_str("\",\"packet\":");
        s.push_str(&self.packet.to_string());
        s.push_str(",\"addr\":");
        s.push_str(&self.addr.to_string());
        if let Some(slot) = self.slot {
            s.push_str(",\"slot\":");
            s.push_str(&slot.to_string());
        }
        if let Some(r) = self.reg {
            s.push_str(",\"reg\":\"");
            s.push_str(&r.to_string());
            s.push('"');
        }
        if let Some(c) = self.cycles_short {
            s.push_str(",\"cycles_short\":");
            s.push_str(&c.to_string());
        }
        s.push_str(",\"message\":");
        s.push_str(&majc_core::json::quote(&self.message));
        s.push('}');
        s
    }
}

impl core::fmt::Display for Diag {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}: packet {} @{:#x}: [{}] {}",
            self.severity.as_str(),
            self.packet,
            self.addr,
            self.kind.as_str(),
            self.message
        )
    }
}

/// Render a whole report as a JSON array.
pub fn to_json(diags: &[Diag]) -> String {
    let mut s = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('\n');
        s.push_str("  ");
        s.push_str(&d.to_json());
    }
    if !diags.is_empty() {
        s.push('\n');
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_orders() {
        let d = Diag {
            severity: Severity::Error,
            kind: Kind::PacketWaw,
            packet: 3,
            addr: 0x40,
            slot: Some(2),
            reg: Some(Reg::g(5)),
            cycles_short: None,
            message: "a \"quoted\"\\ message".into(),
        };
        let j = d.to_json();
        assert!(j.contains("\"kind\":\"packet-waw\""));
        assert!(j.contains("\\\"quoted\\\"\\\\"));
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        let arr = to_json(&[d]);
        assert!(arr.starts_with('[') && arr.ends_with(']'));
    }
}
