//! The allocation sweep: every zero-alloc case of netsim's per-tick
//! entry points and of the cache manager (DESIGN.md §15), each named in
//! the failure when it allocates. The cases live in `zero_alloc/mod.rs`, whose counting
//! allocator is process-wide, so this file holds exactly one test.

mod zero_alloc;

#[test]
fn warm_contracted_entry_points_make_zero_heap_allocations() {
    zero_alloc::assert_zero_alloc();
}
