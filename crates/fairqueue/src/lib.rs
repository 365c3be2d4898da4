//! # gqos-fairqueue — proportional-share scheduling substrate
//!
//! Virtual-time fair queueing algorithms built from scratch for the `gqos`
//! workspace. The paper's *FairQueue* recombination policy multiplexes the
//! primary and overflow classes through one of these schedulers in the
//! ratio `Cmin : ΔC`:
//!
//! - [`Sfq`] — start-time fair queueing (rate-oblivious virtual clock),
//!   the FairQueue policy's scheduler;
//! - [`Wf2q`] — WF²Q+ (eligibility-gated, worst-case fair);
//! - [`HierarchicalSfq`] — two-level SFQ (group shares, sibling-first
//!   spare-capacity redistribution), behind the multi-tenant scheduler;
//! - [`TokenBucket`] — network-style `(σ, ρ)` policing, used by the
//!   shaping ablation.
//!
//! All schedulers implement [`FlowScheduler`] over unit-cost requests.
//!
//! # Examples
//!
//! ```
//! use gqos_fairqueue::{FlowId, FlowScheduler, Sfq};
//! use gqos_trace::{Request, SimTime};
//!
//! // Give the primary class 9x the overflow class's share.
//! let mut sched = Sfq::new(&[9.0, 1.0]);
//! sched.enqueue(FlowId::new(0), Request::at(SimTime::ZERO));
//! sched.enqueue(FlowId::new(1), Request::at(SimTime::ZERO));
//! let (flow, _request) = sched.dequeue().unwrap();
//! assert_eq!(flow, FlowId::new(0));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod flow;
mod hsfq;
mod scheduler;
mod sfq;
mod token_bucket;
mod wf2q;

pub use flow::FlowId;
pub use hsfq::{HierarchicalSfq, LeafId};
pub use scheduler::FlowScheduler;
pub use sfq::Sfq;
pub use token_bucket::TokenBucket;
pub use wf2q::Wf2q;
