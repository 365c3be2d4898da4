//! Streaming ingestion — the online pipeline validated against offline.
//!
//! Exercises [`gqos_stream`] end to end and renders the evidence for its
//! two headline contracts:
//!
//! - **offline equivalence**: [`WorkloadShaper`] runs fed chunk-by-chunk
//!   (chunk sizes 1, 7, 4096, and the whole trace) must produce completion
//!   records and latency-sketch buckets *bit-identical* to
//!   [`WorkloadShaper::run`] over the same workload, for every
//!   recombination policy — chunking is an execution detail, never a
//!   result;
//! - **sharding invariance**: the multi-tenant [`IngestGateway`] must
//!   return byte-identical per-tenant reports on 1, 2, 4, and 8 workers,
//!   including the shed counts produced by tight inbox bounds.
//!
//! Peak resident bytes per chunk are reported next to the trace size as a
//! memory proxy: the streaming path holds one chunk (plus the kernel's
//! O(maxQ1) queue), not the trace. Everything printed here and written to
//! `stream_equiv.csv` / `stream_gateway.csv` is deterministic — no wall
//! clock — so serial and sharded runs byte-diff clean.

use gqos_core::{CapacityPlanner, Provision, RecombinePolicy, WorkloadShaper};
use gqos_sim::{FixedRateServer, RunReport, TraceHandle};
use gqos_stream::{IngestGateway, TenantReport, TenantSpec, WorkloadStream};
use gqos_trace::gen::profiles::TraceProfile;
use gqos_trace::{SimDuration, Workload};

use crate::config::ExpConfig;
use crate::outln;
use crate::output::{CsvWriter, Table};

/// The run's deadline (ms) — fig5/fig6's 50 ms.
const STREAM_DEADLINE_MS: u64 = 50;
/// The planned guaranteed fraction.
const STREAM_FRACTION: f64 = 0.90;
/// Chunk sizes the equivalence sweep drives (`0` marks "whole trace").
const STREAM_CHUNKS: [usize; 4] = [1, 7, 4096, 0];
/// Worker counts the gateway must be invariant across.
const STREAM_WORKERS: [usize; 4] = [1, 2, 4, 8];

/// One policy × chunk-size equivalence cell.
struct EquivCell {
    /// The recombination policy.
    pub policy: RecombinePolicy,
    /// Requested chunk size (requests per chunk).
    pub chunk: usize,
    /// Chunks the stream actually delivered.
    pub chunks: usize,
    /// Peak resident bytes of buffered arrivals.
    pub peak_chunk_bytes: usize,
    /// Completions observed.
    pub completed: usize,
    /// Streamed completion records equal offline's, element for element.
    pub records_identical: bool,
    /// Streamed sketch buckets equal offline's, bit for bit.
    pub sketch_identical: bool,
}

impl EquivCell {
    /// Both identity checks passed.
    pub fn ok(&self) -> bool {
        self.records_identical && self.sketch_identical
    }
}

/// One tenant's gateway outcome plus the cross-worker verdict.
struct GatewayCell {
    /// Tenant name.
    pub name: String,
    /// The tenant's recombination policy.
    pub policy: RecombinePolicy,
    /// Requests offered.
    pub offered: usize,
    /// Requests completed (shed requests still complete, demoted to Q2).
    pub completed: usize,
    /// Requests shed to the overflow class by the inbox bound.
    pub shed: usize,
    /// This tenant's report was byte-identical on every worker count.
    pub workers_identical: bool,
}

fn planned(cfg: &ExpConfig) -> (Workload, WorkloadShaper) {
    let deadline = SimDuration::from_millis(STREAM_DEADLINE_MS);
    let workload = TraceProfile::OpenMail.generate(cfg.span, cfg.seed);
    let planner = CapacityPlanner::new(&workload, deadline);
    let provision =
        Provision::with_default_surplus(planner.min_capacity(STREAM_FRACTION), deadline);
    (workload, WorkloadShaper::new(provision, deadline))
}

/// Runs the policy × chunk equivalence sweep over [`ExpConfig::pool`].
fn compute_equiv(cfg: &ExpConfig) -> Vec<EquivCell> {
    let (workload, shaper) = planned(cfg);
    let cells: Vec<(RecombinePolicy, usize)> = RecombinePolicy::ALL
        .iter()
        .flat_map(|&p| STREAM_CHUNKS.iter().map(move |&c| (p, c)))
        .collect();
    let workload = &workload;
    cfg.pool.map(cells, move |(policy, requested)| {
        let chunk = if requested == 0 {
            workload.len().max(1)
        } else {
            requested
        };
        let baseline = shaper.run(workload, policy);
        let mut records = Vec::new();
        let run = shaper
            .simulation(
                policy,
                TraceHandle::disabled(),
                |s, _| s,
                FixedRateServer::new,
            )
            .run_stream(&mut WorkloadStream::new(workload.clone(), chunk), |r| {
                records.push(r)
            })
            .expect("in-memory stream cannot fail");
        let streamed = RunReport::new(records, run.offered, run.end_time);
        EquivCell {
            policy,
            chunk,
            chunks: run.chunks,
            peak_chunk_bytes: run.peak_chunk_bytes,
            completed: streamed.completed(),
            records_identical: streamed.records() == baseline.records(),
            sketch_identical: streamed.response_sketch() == baseline.response_sketch(),
        }
    })
}

fn tenants(shaper: WorkloadShaper, workload: &Workload) -> Vec<TenantSpec> {
    // Four lanes over shifted copies of the trace; the last two get inbox
    // bounds tight enough to shed under OpenMail's bursts, so the
    // cross-worker identity check also covers the backpressure path.
    let lanes = [
        ("tenant-a", RecombinePolicy::Fcfs, usize::MAX),
        ("tenant-b", RecombinePolicy::Split, usize::MAX),
        ("tenant-c", RecombinePolicy::FairQueue, 8),
        ("tenant-d", RecombinePolicy::Miser, 4),
    ];
    lanes
        .iter()
        .enumerate()
        .map(|(i, &(name, policy, inbox_bound))| TenantSpec {
            name: name.to_string(),
            workload: workload.shifted(SimDuration::from_millis(i as u64)),
            shaper,
            policy,
            inbox_bound,
            chunk: gqos_stream::DEFAULT_CHUNK,
        })
        .collect()
}

/// Runs the gateway on every worker count in [`STREAM_WORKERS`] and
/// cross-checks byte-identity against the serial run.
fn compute_gateway(cfg: &ExpConfig) -> Vec<GatewayCell> {
    let (workload, shaper) = planned(cfg);
    let runs: Vec<Vec<TenantReport>> = STREAM_WORKERS
        .iter()
        .map(|&workers| {
            let gateway = IngestGateway::new(gqos_parallel::WorkerPool::new(workers));
            gateway.run(tenants(shaper, &workload))
        })
        .collect();
    let (serial, sharded) = runs.split_first().expect("at least one worker count");
    serial
        .iter()
        .enumerate()
        .map(|(i, report)| GatewayCell {
            name: report.name.clone(),
            policy: report.policy,
            offered: report.offered,
            completed: report.completed,
            shed: report.shed,
            workers_identical: sharded.iter().all(|run| run[i] == *report),
        })
        .collect()
}

/// Renders the experiment report and writes the two CSV files.
pub fn report(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    outln!(
        out,
        "Streaming ingestion: online-vs-offline equivalence, sharded gateway  [{cfg}]"
    );
    outln!(out);

    let (workload, _) = planned(cfg);
    let equiv = compute_equiv(cfg);
    let mut table = Table::new(vec![
        "policy".into(),
        "chunk".into(),
        "chunks".into(),
        "peak KiB".into(),
        "completed".into(),
        "records".into(),
        "sketch".into(),
    ]);
    let verdict = |same: bool| {
        if same {
            "identical".to_string()
        } else {
            "DIVERGED".to_string()
        }
    };
    for cell in &equiv {
        table.row(vec![
            cell.policy.to_string(),
            cell.chunk.to_string(),
            cell.chunks.to_string(),
            format!("{:.1}", cell.peak_chunk_bytes as f64 / 1024.0),
            cell.completed.to_string(),
            verdict(cell.records_identical),
            verdict(cell.sketch_identical),
        ]);
    }
    outln!(out, "{}", table.render());
    let smallest = equiv
        .iter()
        .filter(|c| c.chunk < workload.len())
        .map(|c| c.peak_chunk_bytes)
        .max()
        .unwrap_or(0);
    outln!(
        out,
        "Memory: trace is {} requests; chunked runs buffer at most {:.1} KiB \
         of arrivals at once.",
        workload.len(),
        smallest as f64 / 1024.0
    );
    let equiv_failures = equiv.iter().filter(|c| !c.ok()).count();
    if equiv_failures > 0 {
        outln!(
            out,
            "STREAMING DIVERGED FROM OFFLINE in {equiv_failures} cell(s)"
        );
    }
    outln!(out);

    let gateway = compute_gateway(cfg);
    let mut table = Table::new(vec![
        "tenant".into(),
        "policy".into(),
        "offered".into(),
        "completed".into(),
        "shed".into(),
        format!("workers {STREAM_WORKERS:?}"),
    ]);
    for cell in &gateway {
        table.row(vec![
            cell.name.clone(),
            cell.policy.to_string(),
            cell.offered.to_string(),
            cell.completed.to_string(),
            cell.shed.to_string(),
            verdict(cell.workers_identical),
        ]);
    }
    outln!(out, "{}", table.render());
    outln!(
        out,
        "Shed requests are demoted to the overflow class, never dropped:\n\
         every tenant completes all offered requests on every worker count."
    );
    let gateway_failures = gateway.iter().filter(|c| !c.workers_identical).count();
    if gateway_failures > 0 {
        outln!(
            out,
            "GATEWAY DIVERGED ACROSS WORKER COUNTS in {gateway_failures} tenant(s)"
        );
    }

    let csv = CsvWriter::new(&cfg.out_dir).expect("create output dir");
    let mut rows = vec![vec![
        "policy".to_string(),
        "chunk".to_string(),
        "chunks".to_string(),
        "peak_chunk_bytes".to_string(),
        "completed".to_string(),
        "records_identical".to_string(),
        "sketch_identical".to_string(),
    ]];
    rows.extend(equiv.iter().map(|c| {
        vec![
            c.policy.to_string(),
            c.chunk.to_string(),
            c.chunks.to_string(),
            c.peak_chunk_bytes.to_string(),
            c.completed.to_string(),
            c.records_identical.to_string(),
            c.sketch_identical.to_string(),
        ]
    }));
    let equiv_path = csv
        .write("stream_equiv", &rows)
        .expect("write stream_equiv");
    let mut rows = vec![vec![
        "tenant".to_string(),
        "policy".to_string(),
        "offered".to_string(),
        "completed".to_string(),
        "shed".to_string(),
        "workers_identical".to_string(),
    ]];
    rows.extend(gateway.iter().map(|c| {
        vec![
            c.name.clone(),
            c.policy.to_string(),
            c.offered.to_string(),
            c.completed.to_string(),
            c.shed.to_string(),
            c.workers_identical.to_string(),
        ]
    }));
    let gateway_path = csv
        .write("stream_gateway", &rows)
        .expect("write stream_gateway");
    outln!(out, "wrote {}", equiv_path.display());
    outln!(out, "wrote {}", gateway_path.display());
    out
}
