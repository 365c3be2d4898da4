//! Service models: how long a server takes to serve one request.

use std::fmt;

use gqos_trace::{Iops, Request, SimDuration, SimTime};

/// Identifier of a server within one simulation.
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Default, Debug)]
pub struct ServerId(usize);

impl ServerId {
    /// Creates a server id from its index.
    pub const fn new(index: usize) -> Self {
        ServerId(index)
    }

    /// The server's index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "server{}", self.0)
    }
}

/// Computes the service time of each dispatched request.
///
/// Implementations may keep state (e.g. a disk head position), which is why
/// [`service_time`] takes `&mut self`.
///
/// [`service_time`]: ServiceModel::service_time
pub trait ServiceModel {
    /// Time to serve `request` when dispatched at `now`.
    fn service_time(&mut self, request: &Request, now: SimTime) -> SimDuration;
}

/// The paper's service model: a server of constant capacity `C` IOPS, i.e.
/// a deterministic service time of `1/C` per request.
///
/// # Examples
///
/// ```
/// use gqos_sim::{FixedRateServer, ServiceModel};
/// use gqos_trace::{Iops, Request, SimDuration, SimTime};
///
/// let mut server = FixedRateServer::new(Iops::new(1000.0));
/// let r = Request::at(SimTime::ZERO);
/// assert_eq!(server.service_time(&r, SimTime::ZERO), SimDuration::from_millis(1));
/// ```
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct FixedRateServer {
    rate: Iops,
    per_request: SimDuration,
}

impl FixedRateServer {
    /// Creates a server of the given capacity.
    pub fn new(rate: Iops) -> Self {
        FixedRateServer {
            rate,
            per_request: rate.service_time(),
        }
    }

    /// The configured capacity.
    pub fn rate(&self) -> Iops {
        self.rate
    }
}

impl ServiceModel for FixedRateServer {
    fn service_time(&mut self, _request: &Request, _now: SimTime) -> SimDuration {
        self.per_request
    }
}

/// A time-varying distortion of a server's service rate — the hook a fault
/// schedule (see the `gqos-faults` crate) uses to turn a constant-capacity
/// server into an effective-rate step function `C_eff(t)`.
///
/// Implementations map "`work` nanoseconds of full-rate service dispatched
/// at `start`" to the wall-clock instant it finishes.
pub trait CapacityModulation: fmt::Debug {
    /// When `work` full-rate service time dispatched at `start` completes.
    /// Must return an instant at or after `start`.
    fn finish_time(&self, start: SimTime, work: SimDuration) -> SimTime;

    /// `true` when the modulation never changes anything. Identity
    /// modulations are bypassed entirely, guaranteeing byte-identical
    /// outputs to an unwrapped server.
    fn is_identity(&self) -> bool {
        false
    }
}

/// A service model whose underlying server misbehaves according to a
/// [`CapacityModulation`]: each request's nominal service time is stretched
/// by the modulation's effective-rate function at the dispatch instant.
///
/// # Examples
///
/// ```
/// use gqos_sim::{CapacityModulation, FixedRateServer, ModulatedServer, ServiceModel};
/// use gqos_trace::{Iops, Request, SimDuration, SimTime};
///
/// #[derive(Debug)]
/// struct HalfSpeed;
/// impl CapacityModulation for HalfSpeed {
///     fn finish_time(&self, start: SimTime, work: SimDuration) -> SimTime {
///         start + work + work // every request takes twice as long
///     }
/// }
///
/// let mut server = ModulatedServer::new(FixedRateServer::new(Iops::new(100.0)), HalfSpeed);
/// let r = Request::at(SimTime::ZERO);
/// assert_eq!(server.service_time(&r, SimTime::ZERO), SimDuration::from_millis(20));
/// ```
#[derive(Debug)]
pub struct ModulatedServer<M> {
    inner: M,
    modulation: Box<dyn CapacityModulation>,
}

impl<M: ServiceModel> ModulatedServer<M> {
    /// Wraps `inner` under `modulation`.
    pub fn new<C: CapacityModulation + 'static>(inner: M, modulation: C) -> Self {
        ModulatedServer {
            inner,
            modulation: Box::new(modulation),
        }
    }

    /// The wrapped service model.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: ServiceModel> ServiceModel for ModulatedServer<M> {
    fn service_time(&mut self, request: &Request, now: SimTime) -> SimDuration {
        let nominal = self.inner.service_time(request, now);
        if self.modulation.is_identity() {
            // Exact pass-through: no float arithmetic may touch the
            // fault-free path.
            return nominal;
        }
        let finish = self.modulation.finish_time(now, nominal);
        debug_assert!(finish >= now, "modulation finished before dispatch");
        finish.saturating_duration_since(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_id_round_trips() {
        let id = ServerId::new(3);
        assert_eq!(id.index(), 3);
        assert_eq!(id.to_string(), "server3");
    }

    #[test]
    fn fixed_rate_is_deterministic() {
        let mut s = FixedRateServer::new(Iops::new(250.0));
        let r = Request::at(SimTime::ZERO);
        let t1 = s.service_time(&r, SimTime::ZERO);
        let t2 = s.service_time(&r, SimTime::from_secs(100));
        assert_eq!(t1, t2);
        assert_eq!(t1, SimDuration::from_millis(4));
    }

    #[test]
    fn rate_reported() {
        let s = FixedRateServer::new(Iops::new(100.0));
        assert_eq!(s.rate().get(), 100.0);
    }

    #[derive(Debug)]
    struct DoubleTime;

    impl CapacityModulation for DoubleTime {
        fn finish_time(&self, start: SimTime, work: SimDuration) -> SimTime {
            start + work + work
        }
    }

    #[derive(Debug)]
    struct ExplicitIdentity;

    impl CapacityModulation for ExplicitIdentity {
        fn finish_time(&self, start: SimTime, work: SimDuration) -> SimTime {
            start + work
        }

        fn is_identity(&self) -> bool {
            true
        }
    }

    #[test]
    fn modulated_server_stretches_service() {
        let mut s = ModulatedServer::new(FixedRateServer::new(Iops::new(100.0)), DoubleTime);
        let r = Request::at(SimTime::ZERO);
        assert_eq!(
            s.service_time(&r, SimTime::from_secs(3)),
            SimDuration::from_millis(20)
        );
        assert_eq!(s.inner().rate(), Iops::new(100.0));
    }

    #[test]
    fn identity_modulation_is_bypassed() {
        let mut plain = FixedRateServer::new(Iops::new(333.0));
        let mut wrapped = ModulatedServer::new(plain, ExplicitIdentity);
        let r = Request::at(SimTime::ZERO);
        for t in [0u64, 1, 7, 1_000_000] {
            let now = SimTime::from_nanos(t);
            assert_eq!(
                wrapped.service_time(&r, now),
                plain.service_time(&r, now),
                "identity wrapper diverged at t={t}"
            );
        }
    }
}
