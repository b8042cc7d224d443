//! Criterion benchmark: end-to-end symmetric total-order latency of a small
//! group, NewTOP vs FS-NewTOP (a scaled-down Figure 6 point).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fs_bench::measure::{measure, System};
use fs_common::time::SimDuration;
use fs_harness::{NewTopService, Scenario, Workload};
use fs_newtop::suspector::SuspectorConfig;

fn scenario(members: u32) -> Scenario {
    let workload = Workload::paper_default()
        .messages(20)
        .interval(SimDuration::from_millis(30));
    Scenario::new(NewTopService::new().suspector(SuspectorConfig::disabled()))
        .members(members)
        .workload(workload)
}

fn bench_order_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("order_latency_sim");
    group.sample_size(10);
    for members in [3u32, 5] {
        group.bench_with_input(BenchmarkId::new("newtop", members), &members, |b, &n| {
            b.iter(|| measure(System::NewTop, scenario(n)))
        });
        group.bench_with_input(BenchmarkId::new("fs_newtop", members), &members, |b, &n| {
            b.iter(|| measure(System::FsNewTop, scenario(n)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_order_latency);
criterion_main!(benches);
