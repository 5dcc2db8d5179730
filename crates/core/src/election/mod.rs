//! Discovery and maintenance of representative nodes (Section 5).
//!
//! The election is a localized protocol of at most five messages per
//! node (six during maintenance, counting the heartbeat exchange):
//!
//! | Phase             | Msgs | Engine function (span)              | What happens                                   |
//! |-------------------|------|-------------------------------------|------------------------------------------------|
//! | Invitation        | 1    | `invite` (`ElectionInvite`)         | every node broadcasts its current measurement  |
//! | Model evaluation  | 1    | `candidates` (`ElectionCandidates`) | nodes broadcast the candidate lists they built |
//! | Initial selection | 1    | `accept` (`ElectionAccept`)         | each node accepts the best candidate           |
//! | Refinement        | 0–2  | `refine` (`ElectionRefine`)         | Rules 0–4 (Figure 5) settle ACTIVE/PASSIVE     |
//!
//! The engine executes these phases as real messages over the lossy
//! simulator broadcast, so loss perturbs candidate lists, acceptances
//! and recalls exactly as it would in a deployment — the effect the
//! paper quantifies in Figures 7 and 13. Each phase reads its rounds
//! through `Network::drain`, which visits only the alive nodes a round
//! woke (DESIGN.md §16).

mod engine;
mod messages;

pub use engine::{run_full_election, run_maintenance_election, ElectionOutcome};
pub use messages::ProtocolMsg;
