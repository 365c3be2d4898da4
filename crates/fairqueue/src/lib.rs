//! # gqos-fairqueue — proportional-share scheduling substrate
//!
//! Virtual-time fair queueing built from scratch for the `gqos`
//! workspace, over unit-cost requests:
//!
//! - [`Sfq`] — start-time fair queueing (rate-oblivious virtual clock).
//!   The paper's *FairQueue* recombination policy multiplexes the primary
//!   and overflow classes through it in the ratio `Cmin : ΔC`, and the
//!   multi-tenant scheduler runs every tenant's two classes through one;
//! - [`TokenBucket`] — network-style `(σ, ρ)` policing, used by the
//!   shaping ablation.
//!
//! # Examples
//!
//! ```
//! use gqos_fairqueue::{FlowId, Sfq};
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
mod sfq;
mod token_bucket;

pub use flow::FlowId;
pub use sfq::Sfq;
pub use token_bucket::TokenBucket;
