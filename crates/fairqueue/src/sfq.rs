//! Start-time fair queueing (Goyal, Vin, Cheng).

use std::collections::VecDeque;

use gqos_trace::Request;

use crate::flow::{validate_weights, FlowId};

/// Start-time fair queueing over unit-cost requests: each request gets a
/// virtual *start* tag `S = max(v, F_prev)` and finish tag `F = S + 1/w`
/// at arrival; dispatch picks the smallest start tag, and the virtual
/// clock `v` is set to the start tag of the request in service.
///
/// SFQ's defining property (and why the storage QoS literature favours it)
/// is that the virtual clock needs no rate information about the server —
/// it works unchanged over servers of fluctuating capacity, such as a disk
/// whose throughput depends on locality.
///
/// # Examples
///
/// ```
/// use gqos_fairqueue::{FlowId, Sfq};
/// use gqos_trace::{Request, SimTime};
///
/// let mut sfq = Sfq::new(&[1.0, 1.0]);
/// sfq.enqueue(FlowId::new(0), Request::at(SimTime::ZERO));
/// sfq.enqueue(FlowId::new(1), Request::at(SimTime::ZERO));
/// assert_eq!(sfq.len(), 2);
/// assert!(sfq.dequeue().is_some());
/// ```
#[derive(Clone, Debug)]
pub struct Sfq {
    weights: Vec<f64>,
    queues: Vec<VecDeque<(Request, f64)>>, // (request, start tag)
    last_finish: Vec<f64>,
    virtual_time: f64,
    len: usize,
}

impl Sfq {
    /// Creates a scheduler with one flow per weight.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or any weight is not finite and
    /// positive.
    pub fn new(weights: &[f64]) -> Self {
        validate_weights(weights);
        Sfq {
            weights: weights.to_vec(),
            queues: weights.iter().map(|_| VecDeque::new()).collect(),
            last_finish: vec![0.0; weights.len()],
            virtual_time: 0.0,
            len: 0,
        }
    }

    /// Queues `request` on `flow`.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is out of range.
    pub fn enqueue(&mut self, flow: FlowId, request: Request) {
        let i = flow.index();
        assert!(i < self.queues.len(), "unknown flow {flow}");
        let start = self.virtual_time.max(self.last_finish[i]);
        self.last_finish[i] = start + 1.0 / self.weights[i];
        self.queues[i].push_back((request, start));
        self.len += 1;
    }

    /// Removes and returns the next request to serve, with its flow.
    /// Returns `None` when all flows are empty.
    pub fn dequeue(&mut self) -> Option<(FlowId, Request)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, q) in self.queues.iter().enumerate() {
            if let Some(&(_, start)) = q.front() {
                let better = match best {
                    None => true,
                    Some((_, best_s)) => start < best_s,
                };
                if better {
                    best = Some((i, start));
                }
            }
        }
        let (i, start) = best?;
        let (request, _) = self.queues[i].pop_front().expect("non-empty head");
        self.virtual_time = start;
        self.len -= 1;
        Some((FlowId::new(i), request))
    }

    /// Total queued requests across all flows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no requests are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queued requests on one flow.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is out of range.
    pub fn flow_len(&self, flow: FlowId) -> usize {
        self.queues[flow.index()].len()
    }

    /// Replaces the flow weights, e.g. when an effective-capacity change
    /// renegotiates the shares. Only future tags are affected; requests
    /// already queued keep the tags they were stamped with.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is invalid (see [`Sfq::new`]) or its length
    /// differs from the flow count.
    pub fn set_weights(&mut self, weights: &[f64]) {
        validate_weights(weights);
        assert_eq!(
            weights.len(),
            self.weights.len(),
            "weight count must match flow count"
        );
        self.weights = weights.to_vec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqos_trace::SimTime;

    fn request(n: u64) -> Request {
        Request::at(SimTime::from_millis(n))
    }

    /// While both flows stay backlogged, dispatch shares must approach the
    /// weight ratio.
    fn check_weighted_share(mut s: Sfq, w0: f64, w1: f64) {
        const N: usize = 600;
        for i in 0..N {
            s.enqueue(FlowId::new(0), request(i as u64));
            s.enqueue(FlowId::new(1), request(i as u64));
        }
        let mut served = [0usize; 2];
        // Serve while both are backlogged.
        for _ in 0..N {
            let (f, _) = s.dequeue().expect("backlogged");
            served[f.index()] += 1;
            if s.flow_len(FlowId::new(0)) == 0 || s.flow_len(FlowId::new(1)) == 0 {
                break;
            }
        }
        let expected = w0 / (w0 + w1);
        let got = served[0] as f64 / (served[0] + served[1]) as f64;
        assert!(
            (got - expected).abs() < 0.05,
            "weighted share: expected {expected:.3}, got {got:.3} ({served:?})"
        );
    }

    #[test]
    fn weighted_share_2_to_1() {
        check_weighted_share(Sfq::new(&[2.0, 1.0]), 2.0, 1.0);
    }

    #[test]
    fn weighted_share_1_to_4() {
        check_weighted_share(Sfq::new(&[1.0, 4.0]), 1.0, 4.0);
    }

    /// An idle flow must not block a backlogged one.
    #[test]
    fn work_conserving() {
        let mut s = Sfq::new(&[1.0, 1.0]);
        for i in 0..10 {
            s.enqueue(FlowId::new(1), request(i));
        }
        for _ in 0..10 {
            let (f, _) = s.dequeue().expect("flow 1 backlogged");
            assert_eq!(f, FlowId::new(1));
        }
        assert!(s.dequeue().is_none());
        assert!(s.is_empty());
    }

    /// A flow that goes idle must not accumulate credit: after rejoining it
    /// may not monopolise the server.
    #[test]
    fn no_idle_credit() {
        let mut s = Sfq::new(&[1.0, 1.0]);
        // Flow 1 serves alone for a long stretch.
        for i in 0..100 {
            s.enqueue(FlowId::new(1), request(i));
        }
        for _ in 0..100 {
            s.dequeue().expect("backlogged");
        }
        // Flow 0 becomes active; both now backlogged with equal weights.
        for i in 0..100 {
            s.enqueue(FlowId::new(0), request(i));
            s.enqueue(FlowId::new(1), request(i));
        }
        let mut first_20 = [0usize; 2];
        for _ in 0..20 {
            let (f, _) = s.dequeue().expect("backlogged");
            first_20[f.index()] += 1;
        }
        // Without idle-credit protection flow 0 would win all 20.
        assert!(
            first_20[1] >= 8,
            "flow 1 starved after flow 0 rejoined: {first_20:?}"
        );
    }

    #[test]
    fn fifo_within_flow() {
        let mut s = Sfq::new(&[1.0, 1.0]);
        for i in 0..5 {
            s.enqueue(FlowId::new(0), request(i));
        }
        let mut last = None;
        while let Some((_, r)) = s.dequeue() {
            if let Some(prev) = last {
                assert!(r.arrival > prev, "within-flow order violated");
            }
            last = Some(r.arrival);
        }
    }

    #[test]
    fn start_tags_never_precede_virtual_time() {
        let mut s = Sfq::new(&[1.0, 1.0]);
        // Serve flow 0 alone for a while; v advances.
        for i in 0..50 {
            s.enqueue(FlowId::new(0), request(i));
        }
        for _ in 0..50 {
            s.dequeue();
        }
        let v = s.virtual_time;
        assert!(v > 0.0);
        // Newly active flow 1 starts at v, not at 0.
        s.enqueue(FlowId::new(1), request(99));
        let (_, _) = s.dequeue().expect("one pending");
        assert!(s.virtual_time >= v);
    }

    #[test]
    fn empty_dequeue_is_none() {
        let mut s = Sfq::new(&[1.0]);
        assert!(s.dequeue().is_none());
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown flow")]
    fn enqueue_validates_flow() {
        let mut s = Sfq::new(&[1.0]);
        s.enqueue(FlowId::new(1), Request::at(SimTime::ZERO));
    }

    #[test]
    fn renegotiated_weights_shift_future_shares() {
        let mut s = Sfq::new(&[1.0, 1.0]);
        s.set_weights(&[4.0, 1.0]);
        check_weighted_share(s, 4.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "weight count")]
    fn set_weights_validates_flow_count() {
        let mut s = Sfq::new(&[1.0, 1.0]);
        s.set_weights(&[1.0]);
    }
}
