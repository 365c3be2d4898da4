//! Micro-benchmark: enqueue/dequeue throughput of the fair queueing
//! schedulers (the per-request cost of the FairQueue recombination path).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gqos_fairqueue::{FlowId, FlowScheduler, Sfq, Wf2q};
use gqos_trace::{Request, SimTime};

const N: usize = 10_000;

fn run_cycle<S: FlowScheduler>(mut s: S) -> usize {
    for i in 0..N {
        s.enqueue(
            FlowId::new(i % 2),
            Request::at(SimTime::from_micros(i as u64)),
        );
    }
    let mut served = 0;
    while s.dequeue().is_some() {
        served += 1;
    }
    served
}

fn bench_fairqueue(c: &mut Criterion) {
    let mut group = c.benchmark_group("fairqueue_cycle");
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function(BenchmarkId::new("sfq", N), |b| {
        b.iter(|| std::hint::black_box(run_cycle(Sfq::new(&[9.0, 1.0]))));
    });
    group.bench_function(BenchmarkId::new("wf2q", N), |b| {
        b.iter(|| std::hint::black_box(run_cycle(Wf2q::new(&[9.0, 1.0]))));
    });
    group.finish();
}

criterion_group!(benches, bench_fairqueue);
criterion_main!(benches);
