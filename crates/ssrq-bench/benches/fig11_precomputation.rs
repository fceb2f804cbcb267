//! Criterion bench for Figure 11: the pre-computation method ("AIS-Cache")
//! for different cached-list lengths `t`, against plain AIS.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ssrq_bench::{BenchDataset, Scale};
use ssrq_core::{Algorithm, QueryRequest};
use std::time::Duration;

fn bench_precomputation(c: &mut Criterion) {
    let mut bench = BenchDataset::gowalla(Scale::quick());
    let users = bench.workload.users.clone();
    let n = bench.engine.dataset().user_count();
    let mut group = c.benchmark_group("fig11_precomputation/gowalla-like");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    group.bench_function("AIS", |b| {
        let mut next = 0usize;
        b.iter(|| {
            let user = users[next % users.len()];
            next += 1;
            bench
                .engine
                .run(
                    &QueryRequest::for_user(user)
                        .k(30)
                        .alpha(0.3)
                        .algorithm(Algorithm::Ais)
                        .build()
                        .expect("valid request"),
                )
                .expect("query succeeds")
        });
    });

    for fraction in [0.01f64, 0.05, 0.2] {
        let t = ((n as f64 * fraction) as usize).max(50);
        // Swap only the cache per list length; the base indexes are reused.
        bench
            .engine
            .install_social_cache(ssrq_core::SocialNeighborCache::build(
                bench.engine.dataset().graph(),
                &users,
                t,
            ))
            .expect("cache built over the engine's own graph");
        group.bench_with_input(BenchmarkId::new("AIS-Cache", t), &t, |b, _| {
            let mut next = 0usize;
            b.iter(|| {
                let user = users[next % users.len()];
                next += 1;
                bench
                    .engine
                    .run(
                        &QueryRequest::for_user(user)
                            .k(30)
                            .alpha(0.3)
                            .algorithm(Algorithm::SfaCached)
                            .build()
                            .expect("valid request"),
                    )
                    .expect("query succeeds")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_precomputation);
criterion_main!(benches);
