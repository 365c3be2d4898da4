//! Ablation: network-style token-bucket policing versus RTT decomposition.
//!
//! Related work (Section 5) shapes traffic by dropping requests that do not
//! conform to a token bucket — viable for networks with retransmission, not
//! for storage where a dropped block I/O is lost. This experiment gives both
//! shapers the same primary capacity and compares: the token bucket *loses*
//! its non-conforming requests, while decomposition serves them best-effort
//! from the overflow class at a small extra cost.

use std::collections::VecDeque;

use gqos_core::{CapacityPlanner, Provision, RecombinePolicy, WorkloadShaper};
use gqos_fairqueue::TokenBucket;
use gqos_sim::{simulate, Dispatch, FixedRateServer, Scheduler, ServerId, ServiceClass};
use gqos_trace::gen::profiles::TraceProfile;
use gqos_trace::{Request, SimDuration, SimTime};

use crate::config::ExpConfig;
use crate::outln;
use crate::output::{CsvWriter, Table};

/// A policing scheduler: requests that find no token are dropped outright;
/// conforming requests are served FCFS.
struct PolicedFcfs {
    bucket: TokenBucket,
    queue: VecDeque<Request>,
    dropped: usize,
}

impl PolicedFcfs {
    fn new(rate: f64, burst: f64) -> Self {
        PolicedFcfs {
            bucket: TokenBucket::new(rate, burst),
            queue: VecDeque::new(),
            dropped: 0,
        }
    }
}

impl Scheduler for PolicedFcfs {
    fn on_arrival(&mut self, request: Request, now: SimTime) {
        if self.bucket.try_consume(now) {
            self.queue.push_back(request);
        } else {
            self.dropped += 1;
        }
    }

    fn next_for(&mut self, _server: ServerId, _now: SimTime) -> Dispatch {
        match self.queue.pop_front() {
            Some(r) => Dispatch::Serve(r, ServiceClass::PRIMARY),
            None => Dispatch::Idle,
        }
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// Renders the experiment report and writes `ablation_token_bucket.csv`.
pub fn report(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    let deadline = SimDuration::from_millis(10);
    outln!(
        out,
        "Ablation: token-bucket policing vs RTT decomposition (delta = 10 ms)  [{cfg}]"
    );
    outln!(out);

    let mut table = Table::new(vec![
        "workload".into(),
        "shaper".into(),
        "within 10 ms".into(),
        "served".into(),
        "LOST".into(),
    ]);
    let mut csv = vec![vec![
        "workload".to_string(),
        "shaper".to_string(),
        "within_deadline".to_string(),
        "served".to_string(),
        "lost".to_string(),
    ]];

    // One independent cell per workload — fan them over the pool and
    // render in profile order.
    let cells = cfg.pool().map(TraceProfile::ALL.to_vec(), |profile| {
        let workload = profile.generate(cfg.span, cfg.seed);
        let cmin = CapacityPlanner::new(&workload, deadline).min_capacity(0.90);
        let provision = Provision::with_default_surplus(cmin, deadline);

        // Token bucket: rate Cmin, burst sized like RTT's queue bound C·δ.
        let burst = cmin.requests_within(deadline).max(1) as f64;
        let policed = simulate(
            &workload,
            PolicedFcfs::new(cmin.get(), burst),
            FixedRateServer::new(provision.total()),
        );
        // Decomposition: same capacity, nothing dropped.
        let shaped =
            WorkloadShaper::new(provision, deadline).run(&workload, RecombinePolicy::Miser);
        (profile, policed, shaped)
    });

    for (profile, policed, shaped) in &cells {
        for (name, report) in [("TokenBucket", policed), ("RTT+Miser", shaped)] {
            let within = report.stats().fraction_within(deadline);
            let lost = report.unfinished();
            table.row(vec![
                profile.abbrev().into(),
                name.into(),
                format!("{:.1}%", within * 100.0),
                report.completed().to_string(),
                if lost > 0 {
                    format!(
                        "{lost} ({:.1}%)",
                        100.0 * lost as f64 / report.total_requests() as f64
                    )
                } else {
                    "0".into()
                },
            ]);
            csv.push(vec![
                profile.abbrev().into(),
                name.into(),
                format!("{within:.4}"),
                report.completed().to_string(),
                lost.to_string(),
            ]);
        }
    }
    outln!(out, "{}", table.render());
    outln!(
        out,
        "Expected: similar deadline compliance, but the token bucket LOSES a\n\
         tail of requests outright — unacceptable for storage protocols with\n\
         no retry (the paper's argument against network-style shaping)."
    );

    let writer = CsvWriter::new(&cfg.out_dir).expect("create output directory");
    let path = writer
        .write("ablation_token_bucket", &csv)
        .expect("write CSV");
    outln!(out, "wrote {}", path.display());
    out
}
