//! # majc-soc
//!
//! The MAJC-5200 system-on-chip (paper Figure 1): two CPUs over the
//! shared dual-ported D-cache ([`Majc5200`]), the central crossbar
//! ([`Crossbar`]), the DRDRAM memory controller behind it, the PCI and
//! North/South UPA interfaces ([`io`]), and the Data Transfer Engine
//! ([`Dte`]) doing DMA among all of them. The graphics preprocessor's
//! GPP→CPU pipeline model lives in `majc-gfx`.

pub mod chip;
pub mod crossbar;
pub mod dte;
pub mod io;

pub use chip::{ChipMem, ChipMemStats, ChipState, Majc5200};
pub use crossbar::{Crossbar, Routed, Source, SourceStats, XbarGrantRec};
pub use dte::{DmaResult, Dte, Endpoint};
pub use io::Link;
