//! Reference kernels: one `u64` word at a time via `count_ones`.
//!
//! Always correct on every platform; the other backends are pinned to
//! these loops by the equivalence tests.

pub fn xor_popcount(x: &[u64], y: &[u64]) -> u32 {
    x.iter().zip(y).map(|(&a, &b)| (a ^ b).count_ones()).sum()
}
