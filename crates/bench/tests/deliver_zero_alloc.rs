//! DESIGN.md §12 allocation contract, asserted exactly: once warm, a
//! dense broadcast → `deliver` → `take_inbox_into` round performs
//! **zero** heap allocations with telemetry off, under every link
//! model. These are the sweep's `deliver/*` cases (`zero_alloc/mod.rs`);
//! its counting allocator is process-wide, so this file holds exactly
//! one test.

mod zero_alloc;

#[test]
fn warm_deliver_round_makes_zero_heap_allocations() {
    zero_alloc::assert_zero_alloc("deliver/");
}
