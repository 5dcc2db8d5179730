//! Contract fixture (crate_a): a zero_alloc contract whose violation
//! lives in a different crate.

// xtask-contract(zero_alloc)
pub fn tick_all(n: u64) -> u64 {
    seed_label(n)
}
