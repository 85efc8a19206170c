//! Synthetic scene generation: smooth triangle strips approximating the
//! meshes a geometry-compression pipeline carries.

use majc_isa::XorShift64;

use crate::compress::{Strip, Vertex};

/// `n_strips` strips of `len` vertices each, walking a smooth wavy surface
/// (small deltas => realistic compression behaviour).
pub fn demo_strips(n_strips: usize, len: usize, seed: u64) -> Vec<Strip> {
    let mut rng = XorShift64::new(seed);
    (0..n_strips)
        .map(|s| {
            let y0 = s as f32 * 2.0 - n_strips as f32;
            let mut vertices = Vec::with_capacity(len);
            for i in 0..len {
                let x = i as f32 * 0.5 - len as f32 * 0.25;
                let y = y0 + if i % 2 == 0 { 0.0 } else { 1.0 };
                let z = (x * 0.3).sin() * 3.0 + (y * 0.2).cos() * 2.0 + rng.next_f32() * 0.05;
                // Surface normal from the analytic gradient.
                let dzdx = 0.3 * (x * 0.3).cos() * 3.0;
                let dzdy = -0.2 * (y * 0.2).sin() * 2.0;
                let len_n = (dzdx * dzdx + dzdy * dzdy + 1.0).sqrt();
                vertices.push(Vertex {
                    pos: [x, y, z],
                    normal: [-dzdx / len_n, -dzdy / len_n, 1.0 / len_n],
                });
            }
            Strip { vertices }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_have_requested_shape() {
        let s = demo_strips(3, 25, 1);
        assert_eq!(s.len(), 3);
        assert!(s.iter().all(|st| st.vertices.len() == 25));
        assert_eq!(s[0].triangles(), 23);
        // Normals are unit length.
        for v in &s[0].vertices {
            let l = (v.normal[0].powi(2) + v.normal[1].powi(2) + v.normal[2].powi(2)).sqrt();
            assert!((l - 1.0).abs() < 1e-3);
        }
    }
}
