//! A `(σ, ρ)` token bucket — the network-style traffic shaper the paper's
//! related-work section contrasts with decomposition.

use std::fmt;

use gqos_trace::SimTime;

/// A token bucket of depth `σ` (burst) refilled at `ρ` tokens per second.
///
/// Network QoS shapes traffic by *policing*: requests that find no token are
/// dropped (or marked). The paper argues this is unsuitable for storage —
/// protocols cannot retry dropped block I/O — which the
/// `ablation_token_bucket` benchmark quantifies against RTT decomposition.
///
/// # Examples
///
/// ```
/// use gqos_fairqueue::TokenBucket;
/// use gqos_trace::SimTime;
///
/// let mut tb = TokenBucket::new(100.0, 2.0); // 100 tokens/s, burst of 2
/// assert!(tb.try_consume(SimTime::ZERO));
/// assert!(tb.try_consume(SimTime::ZERO));
/// assert!(!tb.try_consume(SimTime::ZERO)); // bucket exhausted
/// assert!(tb.try_consume(SimTime::from_millis(10))); // one token refilled
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last_refill: SimTime,
}

impl TokenBucket {
    /// Creates a bucket that starts full.
    ///
    /// # Panics
    ///
    /// Panics if `rate` or `burst` is not finite and strictly positive.
    pub fn new(rate: f64, burst: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "invalid token rate: {rate}");
        assert!(
            burst.is_finite() && burst > 0.0,
            "invalid bucket depth: {burst}"
        );
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            last_refill: SimTime::ZERO,
        }
    }

    /// The refill rate in tokens per second.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    fn refill(&mut self, now: SimTime) {
        if now > self.last_refill {
            let elapsed = (now - self.last_refill).as_secs_f64();
            self.tokens = (self.tokens + elapsed * self.rate).min(self.burst);
            self.last_refill = now;
        }
    }

    /// Consumes one token if available. Returns whether the request
    /// conforms.
    pub fn try_consume(&mut self, now: SimTime) -> bool {
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

impl fmt::Display for TokenBucket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "token bucket ({:.1}/s, depth {:.1}, {:.2} available)",
            self.rate, self.burst, self.tokens
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The token count after refilling to `now`.
    fn available(tb: &mut TokenBucket, now: SimTime) -> f64 {
        tb.refill(now);
        tb.tokens
    }

    #[test]
    fn starts_full_and_drains() {
        let mut tb = TokenBucket::new(10.0, 3.0);
        assert_eq!(available(&mut tb, SimTime::ZERO), 3.0);
        assert!(tb.try_consume(SimTime::ZERO));
        assert!(tb.try_consume(SimTime::ZERO));
        assert!(tb.try_consume(SimTime::ZERO));
        assert!(!tb.try_consume(SimTime::ZERO));
    }

    #[test]
    fn refills_at_rate_and_caps_at_burst() {
        let mut tb = TokenBucket::new(10.0, 5.0);
        for _ in 0..5 {
            assert!(tb.try_consume(SimTime::ZERO));
        }
        // 100 ms at 10/s -> 1 token.
        assert!((available(&mut tb, SimTime::from_millis(100)) - 1.0).abs() < 1e-9);
        // A long idle period cannot exceed the depth.
        assert_eq!(available(&mut tb, SimTime::from_secs(1000)), 5.0);
    }

    #[test]
    fn sustained_rate_is_enforced() {
        // Offer 2x the rate for 1 s; about rate + burst conform.
        let mut tb = TokenBucket::new(100.0, 10.0);
        let mut conforming = 0;
        for i in 0..200 {
            let t = SimTime::from_millis(i * 5); // 200 requests over 1 s
            if tb.try_consume(t) {
                conforming += 1;
            }
        }
        assert!((100..=115).contains(&conforming), "conforming {conforming}");
    }

    #[test]
    fn stale_now_does_not_rewind() {
        let mut tb = TokenBucket::new(10.0, 2.0);
        assert!(tb.try_consume(SimTime::from_secs(10)));
        // Earlier timestamp: no refill, but no panic either.
        let avail = available(&mut tb, SimTime::from_secs(5));
        assert!(avail >= 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid token rate")]
    fn zero_rate_rejected() {
        let _ = TokenBucket::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid bucket depth")]
    fn zero_depth_rejected() {
        let _ = TokenBucket::new(1.0, 0.0);
    }

    #[test]
    fn accessors_and_display() {
        let tb = TokenBucket::new(50.0, 4.0);
        assert_eq!(tb.rate(), 50.0);
        assert_eq!(tb.burst, 4.0);
        assert!(tb.to_string().contains("token bucket"));
    }
}
