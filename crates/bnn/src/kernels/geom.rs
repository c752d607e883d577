//! Precomputed, geometry-only convolution tables.
//!
//! Everything in here depends only on the shapes `(c, h, w, kh, kw,
//! stride, pad)` — never on weights or activations — so a
//! [`ConvGeometry`] is computed once per `Step::Conv` at plan-compile
//! time and shared across every batch item, filter, and forward call.
//! Previously `xnor_plane` rebuilt the `taps_hit` table on every
//! single (batch, filter) plane.

/// The output rectangle whose every pixel sees all `kh·kw` taps in
/// bounds (no padding).  Half-open: rows `oy0..oy1`, cols `ox0..ox1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interior {
    pub oy0: usize,
    pub oy1: usize,
    pub ox0: usize,
    pub ox1: usize,
}

/// Shape-derived tables for one packed convolution (see module docs).
#[derive(Debug, Clone)]
pub struct ConvGeometry {
    pub c: usize,
    pub h: usize,
    pub w: usize,
    pub kh: usize,
    pub kw: usize,
    pub stride: usize,
    pub pad: usize,
    pub oh: usize,
    pub ow: usize,
    /// Packed words per pixel: `c.div_ceil(64)`.
    pub wpp: usize,
    taps_hit: Vec<i32>,
    interior: Option<Interior>,
}

impl ConvGeometry {
    /// Builds the tables for one conv shape.
    ///
    /// # Panics
    ///
    /// Panics when `stride == 0`, when a kernel dimension is zero, or
    /// when the padded input is smaller than the kernel.
    pub fn new(
        c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        assert!(stride > 0, "stride must be positive");
        assert!(kh > 0 && kw > 0, "kernel dims must be positive");
        assert!(
            h + 2 * pad >= kh && w + 2 * pad >= kw,
            "kernel larger than padded input"
        );
        let oh = (h + 2 * pad - kh) / stride + 1;
        let ow = (w + 2 * pad - kw) / stride + 1;

        // taps_hit is separable: (valid ky count) x (valid kx count).
        let valid = |k_dim: usize, dim: usize, o: usize| -> i32 {
            (0..k_dim)
                .filter(|&k| {
                    let i = o * stride + k;
                    i >= pad && i - pad < dim
                })
                .count() as i32
        };
        let vy: Vec<i32> = (0..oh).map(|oy| valid(kh, h, oy)).collect();
        let vx: Vec<i32> = (0..ow).map(|ox| valid(kw, w, ox)).collect();
        let mut taps_hit = Vec::with_capacity(oh * ow);
        for &y in &vy {
            for &x in &vx {
                taps_hit.push(y * x);
            }
        }

        // Interior: oy*stride >= pad and oy*stride + kh - pad <= h.
        let axis = |k_dim: usize, dim: usize, o: usize| {
            let lo = pad.div_ceil(stride);
            let hi = if dim + pad >= k_dim {
                ((dim + pad - k_dim) / stride + 1).min(o)
            } else {
                0
            };
            (lo, hi)
        };
        let (oy0, oy1) = axis(kh, h, oh);
        let (ox0, ox1) = axis(kw, w, ow);
        let interior = (oy0 < oy1 && ox0 < ox1).then_some(Interior { oy0, oy1, ox0, ox1 });

        ConvGeometry {
            c,
            h,
            w,
            kh,
            kw,
            stride,
            pad,
            oh,
            ow,
            wpp: c.div_ceil(64),
            taps_hit,
            interior,
        }
    }

    /// Number of in-bounds taps for every output pixel (`oh*ow`).
    pub fn taps_hit(&self) -> &[i32] {
        &self.taps_hit
    }

    /// The fully-in-bounds output rectangle, when non-empty.
    pub fn interior(&self) -> Option<Interior> {
        self.interior
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force reference for every derived table.
    fn check(c: usize, h: usize, w: usize, k: usize, stride: usize, pad: usize) {
        let g = ConvGeometry::new(c, h, w, k, k, stride, pad);
        assert_eq!(g.oh, (h + 2 * pad - k) / stride + 1);
        assert_eq!(g.ow, (w + 2 * pad - k) / stride + 1);
        for oy in 0..g.oh {
            for ox in 0..g.ow {
                let mut hits = 0;
                for ky in 0..k {
                    for kx in 0..k {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        let inb = iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w;
                        if inb {
                            hits += 1;
                        }
                    }
                }
                assert_eq!(g.taps_hit()[oy * g.ow + ox], hits);
                let interior_says = g
                    .interior()
                    .map(|i| (i.oy0..i.oy1).contains(&oy) && (i.ox0..i.ox1).contains(&ox))
                    .unwrap_or(false);
                assert_eq!(
                    interior_says,
                    hits == (k * k) as i32,
                    "interior at ({oy},{ox}) h={h} w={w} k={k} s={stride} p={pad}"
                );
            }
        }
    }

    #[test]
    fn tables_match_brute_force() {
        for (h, w) in [(1, 1), (3, 5), (4, 4), (7, 3), (8, 8), (9, 2)] {
            for k in 1..=3usize {
                for stride in 1..=2 {
                    for pad in 0..=1 {
                        if h + 2 * pad >= k && w + 2 * pad >= k {
                            check(3, h, w, k, stride, pad);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn no_pad_is_all_interior() {
        let g = ConvGeometry::new(8, 6, 6, 3, 3, 1, 0);
        assert_eq!(
            g.interior(),
            Some(Interior {
                oy0: 0,
                oy1: 4,
                ox0: 0,
                ox1: 4
            })
        );
        assert!(g.taps_hit().iter().all(|&t| t == 9));
    }
}
