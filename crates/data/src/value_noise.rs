//! Seeded lattice value noise and fractal Brownian motion — the texture
//! generator for the ionomer film and background granularity.

/// Deterministic lattice value noise: smooth pseudo-random field in
/// `[0, 1]` with feature size ~`1/frequency` pixels.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ValueNoise {
    seed: u64,
}

impl ValueNoise {
    pub(crate) fn new(seed: u64) -> Self {
        ValueNoise { seed }
    }

    /// Hash a lattice point to `[0, 1]`.
    fn lattice(&self, ix: i64, iy: i64) -> f32 {
        let mut h = self
            .seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((ix as u64).wrapping_mul(0xBF58476D1CE4E5B9))
            .wrapping_add((iy as u64).wrapping_mul(0x94D049BB133111EB));
        h ^= h >> 31;
        h = h.wrapping_mul(0xD6E8FEB86659FD93);
        h ^= h >> 32;
        (h >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Sample the field at continuous coordinates with smoothstep
    /// interpolation between lattice values.
    pub(crate) fn sample(&self, x: f32, y: f32) -> f32 {
        let ix = x.floor() as i64;
        let iy = y.floor() as i64;
        let fx = x - ix as f32;
        let fy = y - iy as f32;
        let sx = fx * fx * (3.0 - 2.0 * fx);
        let sy = fy * fy * (3.0 - 2.0 * fy);
        let v00 = self.lattice(ix, iy);
        let v10 = self.lattice(ix + 1, iy);
        let v01 = self.lattice(ix, iy + 1);
        let v11 = self.lattice(ix + 1, iy + 1);
        let top = v00 * (1.0 - sx) + v10 * sx;
        let bot = v01 * (1.0 - sx) + v11 * sx;
        top * (1.0 - sy) + bot * sy
    }
}

/// Fractal Brownian motion: `octaves` layers of value noise at doubling
/// frequency and halving amplitude, normalized into `[0, 1]`.
pub(crate) fn fbm(noise: &ValueNoise, x: f32, y: f32, base_freq: f32, octaves: usize) -> f32 {
    let mut sum = 0.0f32;
    let mut amp = 1.0f32;
    let mut freq = base_freq;
    let mut norm = 0.0f32;
    for o in 0..octaves {
        // Different octaves sample shifted coordinates to decorrelate.
        let off = o as f32 * 311.7;
        sum += amp * noise.sample(x * freq + off, y * freq + off);
        norm += amp;
        amp *= 0.5;
        freq *= 2.0;
    }
    sum / norm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = ValueNoise::new(5);
        let b = ValueNoise::new(5);
        let c = ValueNoise::new(6);
        assert_eq!(a.sample(1.3, 2.7), b.sample(1.3, 2.7));
        assert_ne!(a.sample(1.3, 2.7), c.sample(1.3, 2.7));
    }

    #[test]
    fn range_bounded() {
        let n = ValueNoise::new(9);
        for i in 0..500 {
            let v = n.sample(i as f32 * 0.37, i as f32 * 0.91);
            assert!((0.0..=1.0).contains(&v));
            let f = fbm(&n, i as f32 * 0.11, i as f32 * 0.23, 0.05, 4);
            assert!((0.0..=1.0).contains(&f));
        }
    }

    #[test]
    fn continuity_small_step_small_change() {
        let n = ValueNoise::new(3);
        for i in 0..100 {
            let x = i as f32 * 0.31;
            let y = i as f32 * 0.17;
            let d = (n.sample(x, y) - n.sample(x + 0.01, y)).abs();
            assert!(d < 0.05, "jump {d} at ({x},{y})");
        }
    }

    #[test]
    fn lattice_points_interpolated_exactly() {
        let n = ValueNoise::new(11);
        // At integer coordinates the sample equals the lattice value.
        let v = n.sample(4.0, 7.0);
        assert_eq!(v, n.sample(4.0, 7.0));
        assert!((0.0..=1.0).contains(&v));
    }

    #[test]
    fn fbm_has_spatial_variation() {
        let n = ValueNoise::new(21);
        let vals: Vec<f32> = (0..100)
            .map(|i| fbm(&n, (i % 10) as f32 * 3.0, (i / 10) as f32 * 3.0, 0.2, 4))
            .collect();
        let mean = vals.iter().sum::<f32>() / 100.0;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 100.0;
        assert!(var > 1e-4, "fbm should not be flat (var {var})");
    }
}
