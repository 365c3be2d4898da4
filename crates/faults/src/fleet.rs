//! Correlated multi-node fault timelines for a whole fleet.
//!
//! A rack-level power event hits many servers at once; an isolated disk
//! rebuild hits one. [`FleetFaultSchedule`] spans that range with a
//! single `correlation` knob: each node either shares one *common*
//! [`FaultSchedule`] (probability `correlation`) or draws its own
//! independent schedule from a node-derived seed. At `correlation = 1`
//! every node fails in lockstep; at `0` the nodes are fully independent.
//! Everything is a pure function of `(seed, nodes, span, severity,
//! correlation)`, so the control-plane chaos harness can replay a whole
//! fleet's failure pattern from one pinned seed.

use std::fmt;

use gqos_trace::{SimDuration, SimTime};

use crate::schedule::{splitmix64, FaultKind, FaultSchedule, ScheduleError};

/// Per-node fault schedules with tunable cross-node correlation.
#[derive(Clone, PartialEq, Debug)]
pub struct FleetFaultSchedule {
    nodes: Vec<FaultSchedule>,
    seed: u64,
    correlation: f64,
}

impl FleetFaultSchedule {
    /// Generates one schedule per node.
    ///
    /// # Panics
    ///
    /// Panics with the [`ScheduleError`] message on malformed inputs;
    /// [`try_generate`](Self::try_generate) returns the typed error.
    pub fn generate(
        seed: u64,
        nodes: usize,
        span: SimDuration,
        severity: f64,
        correlation: f64,
    ) -> FleetFaultSchedule {
        match FleetFaultSchedule::try_generate(seed, nodes, span, severity, correlation) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Generates one schedule per node: node `i` shares the common
    /// schedule when its seeded draw falls below `correlation`, and
    /// otherwise gets an independent schedule derived from `seed` and
    /// `i`. Identical inputs yield identical fleets.
    ///
    /// # Errors
    ///
    /// The [`FaultSchedule::try_generate`] span/severity contract, plus
    /// [`ScheduleError::BadCorrelation`] when `correlation` is not
    /// finite or outside `[0, 1]`.
    pub fn try_generate(
        seed: u64,
        nodes: usize,
        span: SimDuration,
        severity: f64,
        correlation: f64,
    ) -> Result<FleetFaultSchedule, ScheduleError> {
        if !(correlation.is_finite() && (0.0..=1.0).contains(&correlation)) {
            return Err(ScheduleError::BadCorrelation { correlation });
        }
        let common = FaultSchedule::try_generate(seed, span, severity)?;
        let schedules = (0..nodes)
            .map(|i| {
                let h = splitmix64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let draw = (h >> 11) as f64 / (1u64 << 53) as f64;
                if draw < correlation {
                    Ok(common.clone())
                } else {
                    let node_seed = splitmix64(seed.wrapping_add(1 + i as u64));
                    FaultSchedule::try_generate(node_seed, span, severity)
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FleetFaultSchedule {
            nodes: schedules,
            seed,
            correlation,
        })
    }

    /// The fleet seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The cross-node correlation the fleet was generated with.
    pub fn correlation(&self) -> f64 {
        self.correlation
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` for a zero-node fleet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Every outage across the fleet as `(node, start, end)`, sorted by
    /// start time with ties on node index — the raw material a control
    /// plane turns into `NodeDown`/`NodeUp` command pairs.
    pub fn outages(&self) -> Vec<(usize, SimTime, SimTime)> {
        let mut out: Vec<(usize, SimTime, SimTime)> = self
            .nodes
            .iter()
            .enumerate()
            .flat_map(|(i, s)| {
                s.windows()
                    .iter()
                    .filter(|w| matches!(w.kind, FaultKind::Outage))
                    .map(move |w| (i, w.start, w.end()))
            })
            .collect();
        out.sort_by_key(|&(node, start, _)| (start, node));
        out
    }
}

impl fmt::Display for FleetFaultSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes, correlation {:.2} (seed {})",
            self.nodes.len(),
            self.correlation,
            self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_is_reproducible() {
        let span = SimDuration::from_secs(120);
        let a = FleetFaultSchedule::generate(42, 8, span, 0.8, 0.5);
        let b = FleetFaultSchedule::generate(42, 8, span, 0.8, 0.5);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert_eq!(a.seed(), 42);
        assert_eq!(a.correlation(), 0.5);
        assert!(a.to_string().contains("8 nodes"));
    }

    #[test]
    fn full_correlation_fails_every_node_in_lockstep() {
        let span = SimDuration::from_secs(120);
        let fleet = FleetFaultSchedule::generate(7, 6, span, 0.9, 1.0);
        let first = &fleet.nodes[0];
        for i in 1..fleet.len() {
            assert_eq!(&fleet.nodes[i], first, "node {i} diverged at correlation 1");
        }
    }

    #[test]
    fn zero_correlation_decorrelates_the_nodes() {
        let span = SimDuration::from_secs(120);
        let fleet = FleetFaultSchedule::generate(7, 6, span, 0.9, 0.0);
        let first = &fleet.nodes[0];
        assert!(
            (1..fleet.len()).any(|i| &fleet.nodes[i] != first),
            "independent nodes all drew the same schedule"
        );
    }

    #[test]
    fn outages_list_is_sorted_and_severity_gated() {
        let span = SimDuration::from_secs(120);
        // High severity: every node schedule includes an outage.
        let fleet = FleetFaultSchedule::generate(11, 4, span, 0.9, 0.0);
        let outages = fleet.outages();
        assert_eq!(outages.len(), 4);
        for pair in outages.windows(2) {
            assert!(pair[0].1 <= pair[1].1, "outages out of order");
        }
        for &(node, start, end) in &outages {
            assert!(node < 4);
            assert!(start < end);
        }
        // Low severity: no outages anywhere.
        let calm = FleetFaultSchedule::generate(11, 4, span, 0.3, 0.0);
        assert!(calm.outages().is_empty());
    }

    #[test]
    fn bad_inputs_are_typed() {
        let span = SimDuration::from_secs(1);
        assert!(matches!(
            FleetFaultSchedule::try_generate(1, 4, span, 0.5, f64::NAN),
            Err(ScheduleError::BadCorrelation { .. })
        ));
        assert!(matches!(
            FleetFaultSchedule::try_generate(1, 4, span, 0.5, 1.5),
            Err(ScheduleError::BadCorrelation { .. })
        ));
        assert!(matches!(
            FleetFaultSchedule::try_generate(1, 4, SimDuration::ZERO, 0.5, 0.5),
            Err(ScheduleError::ZeroSpan)
        ));
        assert!(matches!(
            FleetFaultSchedule::try_generate(1, 4, span, 2.0, 0.5),
            Err(ScheduleError::BadSeverity { .. })
        ));
        assert!(FleetFaultSchedule::try_generate(1, 0, span, 0.5, 0.5)
            .unwrap()
            .is_empty());
    }
}
