//! Model management (Section 4 of the paper).
//!
//! Each sensor maintains a byte-budgeted cache of `(x_i, x_j)`
//! measurement pairs, one *cache line* per neighbor (a FIFO chain over
//! the cache's one pair slab), feeding the linear models of
//! [`crate::model`]. Because the cache exists solely
//! to improve the models, admission and replacement are *model-aware*:
//! a new observation is admitted, used to shift its line, or rejected
//! according to which choice yields the most accurate model, and
//! victims are chosen from the line whose model loses the least by
//! shrinking.

mod line;
mod manager;
mod policy;

pub use line::LineRef;
pub use manager::{CacheConfig, CacheDecision, LineKey, MeasurementId, ModelCache};
pub use policy::CachePolicy;
