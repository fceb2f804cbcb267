//! Side-by-side comparison of every SSRQ processing algorithm on the same
//! workload — a miniature version of the paper's Figure 8.
//!
//! Run with:
//! ```sh
//! cargo run --release --example algorithm_comparison [users] [--with-ch]
//! ```
//!
//! The `*-CH` baselines are skipped unless `--with-ch` is passed: their
//! lazy Contraction Hierarchies build is (as the paper observes) extremely
//! expensive on hub-heavy social graphs.

use geosocial_ssrq::data::QueryWorkload;
use geosocial_ssrq::prelude::*;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let with_ch = args.iter().any(|a| a == "--with-ch");
    let users = args
        .iter()
        .find_map(|a| a.parse::<usize>().ok())
        .unwrap_or(15_000);
    println!("generating a foursquare-like dataset with {users} users...");
    let dataset = DatasetConfig::foursquare_like(users).generate();
    let workload = QueryWorkload::generate(&dataset, 30, 7)
        .with_k(30)
        .with_alpha(0.3);

    // Declare every auxiliary index at construction time: the Contraction
    // Hierarchies index builds when the first *-CH query arrives, the
    // social neighbour cache for the workload users right away.
    let engine = GeoSocialEngine::builder(dataset)
        .with_ch()
        .cache_social_neighbors(workload.users.clone(), 2_000)
        .build()
        .expect("engine builds");
    engine.require_social_cache().expect("cache was declared");
    let names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
    println!("algorithms: {names:?}");
    println!(
        "running {} queries (k = {}, alpha = {}) with every algorithm\n",
        workload.len(),
        workload.k,
        workload.alpha
    );

    let mut algorithms = vec![
        Algorithm::Sfa,
        Algorithm::Spa,
        Algorithm::Tsa,
        Algorithm::TsaQc,
        Algorithm::AisBid,
        Algorithm::AisMinus,
        Algorithm::Ais,
        Algorithm::SfaCached,
    ];
    if with_ch {
        algorithms.extend([Algorithm::SpaCh, Algorithm::TsaCh]);
    } else {
        println!("(pass --with-ch to include the SPA-CH / TSA-CH baselines — their lazy CH build is slow)");
    }

    println!(
        "{:<10} {:>14} {:>12} {:>14} {:>12}",
        "algorithm", "avg time", "pop ratio", "users eval.", "speed vs SFA"
    );
    let mut session = engine.session();
    let mut baseline: Option<Duration> = None;
    for algorithm in algorithms {
        let mut total = Duration::ZERO;
        let mut pops = 0usize;
        let mut evaluated = 0usize;
        let mut verified = false;
        for request in workload.requests(algorithm) {
            let result = session.run(&request).expect("query succeeds");
            total += result.stats.runtime;
            pops += result.stats.social_pops;
            evaluated += result.stats.evaluated_users;
            // Verify all algorithms agree on the first query.
            if !verified {
                let oracle = session
                    .run(&request.clone().with_algorithm(Algorithm::Exhaustive))
                    .expect("query succeeds");
                assert!(result.same_users_and_scores(&oracle, 1e-9));
                verified = true;
            }
        }
        let avg = total / workload.len() as u32;
        let pop_ratio = pops as f64 / (workload.len() * engine.dataset().user_count()) as f64;
        let speedup = baseline
            .map(|b| format!("{:>11.2}x", b.as_secs_f64() / avg.as_secs_f64().max(1e-12)))
            .unwrap_or_else(|| "    baseline".into());
        if baseline.is_none() {
            baseline = Some(avg);
        }
        println!(
            "{:<10} {:>14?} {:>12.4} {:>14} {:>12}",
            algorithm.name(),
            avg,
            pop_ratio,
            evaluated / workload.len(),
            speedup
        );
    }

    println!(
        "\nAIS settles a small fraction of the graph per query while the \
         one-domain baselines touch most of it — the headline result of the paper."
    );
}
