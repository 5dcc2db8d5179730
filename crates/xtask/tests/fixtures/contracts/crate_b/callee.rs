//! Contract fixture (crate_b): the allocation site reached by
//! crate_a's contracted entry point.

pub fn seed_label(n: u64) -> u64 {
    let label = format!("{n}");
    n ^ label.len() as u64
}
