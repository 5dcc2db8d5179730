//! DESIGN.md §16 allocation contract, asserted exactly: a quiescent
//! tick — `deliver` with an empty outbox, nothing scheduled, nobody
//! woken, followed by the wake-list drain — performs **zero** heap
//! allocations at 1k and at 20k nodes, which is what makes 1M-node
//! quiescent simulation affordable. These are the sweep's
//! `quiescent/*` cases (`zero_alloc/mod.rs`); its counting allocator
//! is process-wide, so this file holds exactly one test.

mod zero_alloc;

#[test]
fn warm_quiescent_tick_makes_zero_heap_allocations() {
    zero_alloc::assert_zero_alloc("quiescent/");
}
