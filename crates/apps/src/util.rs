//! Shared infrastructure for the Table 3 application models.
//!
//! Each application is composed from *measured* kernel costs: the
//! constituent kernels run on the cycle-accurate simulator under the real
//! memory system (DRDRAM + 16 KB caches) and under perfect memory, giving
//! the "with/without memory effects" pair the paper reports. The
//! composition counts (kernels per second of media) come from the codec
//! structure and are documented per application.

use std::sync::OnceLock;

use majc_core::TimingConfig;
use majc_isa::XorShift64;
use majc_kernels::harness::{run_warm, MemModel};
use majc_kernels::{biquad, colorconv, convolve, dct, fft, idct, lms, motion, vld};

/// The 500 MHz clock every Table 3 number is quoted against.
pub const CLOCK_HZ: f64 = 500e6;

/// A cycle cost measured under real and ideal memory.
#[derive(Clone, Copy, Debug)]
pub struct Cost {
    pub dram: f64,
    pub perfect: f64,
}

impl Cost {
    pub fn scale(self, k: f64) -> Cost {
        Cost { dram: self.dram * k, perfect: self.perfect * k }
    }

    pub fn plus(self, o: Cost) -> Cost {
        Cost { dram: self.dram + o.dram, perfect: self.perfect + o.perfect }
    }

    /// A fixed analytic cost (same under both memory models).
    pub fn flat(c: f64) -> Cost {
        Cost { dram: c, perfect: c }
    }
}

/// CPU utilisation as the paper quotes it: cycles needed per second of
/// media over the 5×10⁸ available.
#[derive(Clone, Copy, Debug)]
pub struct Utilization {
    /// Percent with memory effects.
    pub with_mem: f64,
    /// Percent without memory effects.
    pub without_mem: f64,
}

impl Utilization {
    pub fn from_cycles_per_sec(c: Cost) -> Utilization {
        Utilization {
            with_mem: c.dram / CLOCK_HZ * 100.0,
            without_mem: c.perfect / CLOCK_HZ * 100.0,
        }
    }
}

fn pair(prog: &majc_isa::Program, mem: majc_mem::FlatMem) -> Cost {
    let d = run_warm(prog, mem.clone(), MemModel::Dram, TimingConfig::default()).stats.cycles;
    let p = run_warm(prog, mem, MemModel::Perfect, TimingConfig::default()).stats.cycles;
    Cost { dram: d as f64, perfect: p as f64 }
}

/// Measured kernel costs, computed once per process.
#[derive(Clone, Copy, Debug)]
pub struct KernelCosts {
    /// 8×8 IDCT, per block.
    pub idct: Cost,
    /// 8×8 DCT + quantisation, per block.
    pub dctq: Cost,
    /// VLD+IZZ+IQ, per symbol.
    pub vld_sym: Cost,
    /// Motion estimation (±16 log search), per macroblock.
    pub motion: Cost,
    /// Colour conversion, per pixel.
    pub colorconv_px: Cost,
    /// 5×5 convolution, per pixel.
    pub conv_px: Cost,
    /// Biquad cascade (8 sections), per sample (steady state).
    pub biquad_sample: Cost,
    /// 16-tap LMS step, per sample.
    pub lms: Cost,
    /// 1024-point radix-4 complex FFT.
    pub fft1024: Cost,
}

static COSTS: OnceLock<KernelCosts> = OnceLock::new();

impl KernelCosts {
    pub fn get() -> &'static KernelCosts {
        COSTS.get_or_init(KernelCosts::measure)
    }

    fn measure() -> KernelCosts {
        let mut rng = XorShift64::new(1234);

        let idct = {
            let mut c = [0i16; 64];
            for _ in 0..12 {
                c[rng.next_range(64)] = rng.next_i16(300);
            }
            let (p, m) = idct::build(&c);
            pair(&p, m)
        };
        let dctq = {
            let px: [i16; 64] = std::array::from_fn(|_| rng.next_i16(255));
            let (p, m) = dct::build(&px, &dct::demo_qmatrix(2));
            pair(&p, m)
        };
        let vld_sym = {
            let blocks = vld::workload(9, 32);
            let (stream, nsym) = vld::encode(&blocks);
            let (p, m) = vld::build(&stream, blocks.len());
            pair(&p, m).scale(1.0 / nsym as f64)
        };
        let motion = {
            let (frame, cur) = motion::workload(3, 5, -3);
            let (p, m) = motion::build(&frame, &cur);
            pair(&p, m)
        };
        let colorconv_px = {
            let n = colorconv::WIDTH * colorconv::HEIGHT;
            let r: Vec<i16> = (0..n).map(|_| rng.next_i16(255).abs()).collect();
            let g: Vec<i16> = (0..n).map(|_| rng.next_i16(255).abs()).collect();
            let b: Vec<i16> = (0..n).map(|_| rng.next_i16(255).abs()).collect();
            let (p, m) = colorconv::build(&r, &g, &b);
            pair(&p, m).scale(1.0 / n as f64)
        };
        let conv_px = {
            let img: Vec<i16> =
                (0..convolve::WIDTH * convolve::HEIGHT).map(|_| rng.next_i16(255).abs()).collect();
            let (p, m) = convolve::build(&img, &convolve::demo_kernel());
            pair(&p, m).scale(1.0 / (convolve::OUT_W * convolve::OUT_H) as f64)
        };
        let biquad_sample = {
            let c = biquad::Cascade::demo(8);
            let input: Vec<f32> = (0..64).map(|_| rng.next_f32()).collect();
            let (p, m) = biquad::build(&c, &input);
            pair(&p, m).scale(1.0 / 64.0)
        };
        let lms = {
            let w: Vec<f32> = (0..lms::ORDER).map(|_| rng.next_f32() * 0.3).collect();
            let x: Vec<f32> = (0..lms::ORDER).map(|_| rng.next_f32()).collect();
            let (p, m) = lms::build(&w, &x, rng.next_f32(), 0.05);
            pair(&p, m)
        };
        let fft1024 = {
            let xs: Vec<(f32, f32)> =
                (0..fft::N).map(|_| (rng.next_f32(), rng.next_f32())).collect();
            let pre: Vec<(f32, f32)> = (0..fft::N).map(|i| xs[fft::digit_rev4(i)]).collect();
            let (p, m) = fft::build_radix4(&pre);
            pair(&p, m)
        };
        KernelCosts {
            idct,
            dctq,
            vld_sym,
            motion,
            colorconv_px,
            conv_px,
            biquad_sample,
            lms,
            fft1024,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_are_sane_and_memoised() {
        let k = KernelCosts::get();
        assert!(k.idct.dram >= k.idct.perfect * 0.9);
        assert!(k.vld_sym.dram > 5.0 && k.vld_sym.dram < 100.0);
        assert!(k.fft1024.dram > 5_000.0);
        // Memoised: second call is the same instance.
        assert!(std::ptr::eq(k, KernelCosts::get()));
    }

    #[test]
    fn utilization_math() {
        let u = Utilization::from_cycles_per_sec(Cost { dram: 5e7, perfect: 2.5e7 });
        assert!((u.with_mem - 10.0).abs() < 1e-9);
        assert!((u.without_mem - 5.0).abs() < 1e-9);
    }
}
