//! Golden streaming-vs-offline equivalence suite.
//!
//! The streaming contract: a `WorkloadShaper` run streamed through the
//! chunk driver over *any* chunking of a workload is bit-identical to the
//! offline batch run — same completion records (ids, classes, nanosecond
//! timestamps), same end time, same sketch buckets. Checked here for all four recombination
//! policies × chunk sizes {1, 7, 4096, whole-trace}, for the traced event
//! stream, for SPC-file ingestion, and for the sharded gateway across
//! 1/2/4/8 workers.

use gqos_core::{QosTarget, RecombinePolicy, WorkloadShaper};
use gqos_parallel::WorkerPool;
use gqos_sim::{FixedRateServer, RunReport, TraceHandle};
use gqos_stream::{ArrivalStream, IngestGateway, SpcStream, TenantSpec, WorkloadStream};
use gqos_trace::gen::profiles::TraceProfile;
use gqos_trace::{SimDuration, Workload};

/// A planned shaper over a calibrated bursty workload — the same setup the
/// paper's figures use, so the equivalence check exercises real queueing,
/// overflow, and tie-breaking rather than a trivially idle server.
fn planned() -> (Workload, WorkloadShaper) {
    let workload = TraceProfile::OpenMail.generate(SimDuration::from_secs(20), 42);
    let target = QosTarget::new(0.90, SimDuration::from_millis(20));
    let shaper = WorkloadShaper::plan(&workload, target);
    (workload, shaper)
}

/// Streams `stream` through `policy` with the chunk driver, traced into
/// `trace`, and collects every completion record into a report.
fn streamed(
    shaper: &WorkloadShaper,
    stream: &mut impl ArrivalStream,
    policy: RecombinePolicy,
    trace: TraceHandle,
) -> RunReport {
    let mut records = Vec::new();
    let run = shaper
        .simulation(policy, trace, |s, _| s, FixedRateServer::new)
        .run_stream(stream, |r| records.push(r))
        .expect("stream");
    RunReport::new(records, run.offered, run.end_time)
}

#[test]
fn every_policy_and_chunking_is_bit_identical_to_offline() {
    let (workload, offline) = planned();
    let chunk_sizes = [1usize, 7, 4096, workload.len()];
    for policy in RecombinePolicy::ALL {
        let reference = offline.run(&workload, policy);
        let ref_sketch = reference.response_sketch();
        for chunk in chunk_sizes {
            let streamed = streamed(
                &offline,
                &mut WorkloadStream::new(workload.clone(), chunk),
                policy,
                TraceHandle::disabled(),
            );
            assert_eq!(
                reference.records(),
                streamed.records(),
                "{policy} records diverged at chunk size {chunk}"
            );
            assert_eq!(
                reference.end_time(),
                streamed.end_time(),
                "{policy} end time diverged at chunk size {chunk}"
            );
            assert_eq!(
                ref_sketch.nonzero_buckets(),
                streamed.response_sketch().nonzero_buckets(),
                "{policy} sketch buckets diverged at chunk size {chunk}"
            );
        }
    }
}

#[test]
fn observed_sketches_are_bit_identical_to_offline() {
    let (workload, offline) = planned();
    for policy in RecombinePolicy::ALL {
        let reference = offline.run(&workload, policy);
        let obs = offline
            .run_observed(
                &mut WorkloadStream::new(workload.clone(), 7),
                policy,
                |_| {},
            )
            .expect("workload stream");
        assert_eq!(obs.sketch, reference.response_sketch(), "{policy}");
        assert_eq!(obs.completed, reference.completed(), "{policy}");
        assert_eq!(obs.end_time, reference.end_time(), "{policy}");
    }
}

#[test]
fn spc_ingestion_matches_the_offline_reader() {
    // Round-trip a workload through SPC text, then stream the text back in
    // small chunks: the run must match the offline run over the parsed
    // trace exactly.
    let (workload, offline) = planned();
    let mut spc = String::new();
    for r in workload.requests() {
        spc.push_str(&format!(
            "0,{},{},R,{:.6}\n",
            r.block.get(),
            r.bytes,
            r.arrival.as_nanos() as f64 / 1e9,
        ));
    }
    let parsed = gqos_trace::spc::read_trace(spc.as_bytes()).expect("round-trip parse");
    for policy in [RecombinePolicy::Fcfs, RecombinePolicy::Miser] {
        let reference = offline.run(&parsed, policy);
        let streamed = streamed(
            &offline,
            &mut SpcStream::new(spc.as_bytes(), 64),
            policy,
            TraceHandle::disabled(),
        );
        assert_eq!(
            reference.records(),
            streamed.records(),
            "{policy} SPC streaming diverged"
        );
    }
}

#[test]
fn peak_memory_tracks_chunk_size_not_trace_length() {
    // The acceptance bound: on a trace at least 10× the chunk size, the
    // resident-chunk footprint must equal chunk × size_of::<Request>(),
    // independent of trace length.
    let (workload, offline) = planned();
    let chunk = 4096.min(workload.len() / 10).max(1);
    assert!(
        workload.len() >= 10 * chunk,
        "trace must dwarf the chunk for the bound to mean anything"
    );
    let obs = offline
        .run_observed(
            &mut WorkloadStream::new(workload.clone(), chunk),
            RecombinePolicy::Miser,
            |_| {},
        )
        .expect("workload stream");
    assert_eq!(
        obs.peak_chunk_bytes,
        chunk * std::mem::size_of::<gqos_trace::Request>()
    );
    assert_eq!(obs.chunks, workload.len().div_ceil(chunk));
    assert_eq!(obs.completed, workload.len());
}

#[test]
fn sharded_gateway_is_byte_identical_across_worker_counts() {
    let specs = || -> Vec<TenantSpec> {
        let (workload, offline) = planned();
        RecombinePolicy::ALL
            .iter()
            .enumerate()
            .map(|(i, &policy)| TenantSpec {
                name: format!("tenant-{i}"),
                workload: workload.clone().shifted(SimDuration::from_millis(i as u64)),
                shaper: offline,
                policy,
                inbox_bound: 32,
                chunk: 128,
            })
            .collect()
    };
    let reference = IngestGateway::new(WorkerPool::new(1)).run(specs());
    for workers in [2usize, 4, 8] {
        let sharded = IngestGateway::new(WorkerPool::new(workers)).run(specs());
        assert_eq!(
            reference, sharded,
            "gateway reports diverged at {workers} workers"
        );
    }
    for report in &reference {
        assert_eq!(report.completed, report.offered, "{}", report.name);
    }
}

#[test]
fn streamed_trace_events_are_identical_to_offline() {
    let (workload, offline) = planned();
    for policy in RecombinePolicy::ALL {
        let (trace, sink) = TraceHandle::memory();
        offline.run_traced(&workload, policy, trace);
        let reference = sink.borrow().events();
        assert!(!reference.is_empty(), "{policy}: no events captured");
        for chunk in [1usize, 7, 4096, workload.len()] {
            let (trace, sink) = TraceHandle::memory();
            streamed(
                &offline,
                &mut WorkloadStream::new(workload.clone(), chunk),
                policy,
                trace,
            );
            assert!(
                reference == sink.borrow().events(),
                "{policy} trace events diverged at chunk size {chunk}"
            );
        }
    }
}
