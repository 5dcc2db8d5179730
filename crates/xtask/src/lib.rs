//! Workspace automation (`cargo xtask`): the micro-benchmark
//! regression gate, [`benchcmp`]. The workspace's other rules are held
//! by rustc, clippy and tests (DESIGN.md §10, §15).

pub mod benchcmp;
