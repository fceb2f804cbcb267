//! Manual timing probe for `ContractionHierarchy::new` on the 160-user
//! test graph (the scale `tests/algorithm_agreement.rs` uses for the `*-CH`
//! variants).  Ignored by default; run with
//!
//! ```sh
//! cargo test --release --test ch_build_timing -- --ignored --nocapture
//! ```

use geosocial_ssrq::data::DatasetConfig;
use geosocial_ssrq::graph::ContractionHierarchy;
use std::time::Instant;

#[test]
#[ignore = "timing probe, run manually with --nocapture"]
fn ch_build_timing_on_160_user_graph() {
    let dataset = DatasetConfig::gowalla_like(160).with_seed(77).generate();
    // Warm-up build, then timed builds.
    let _ = ContractionHierarchy::new(dataset.graph());
    let rounds = 5;
    let start = Instant::now();
    let mut shortcuts = 0;
    for _ in 0..rounds {
        let ch = ContractionHierarchy::new(dataset.graph());
        shortcuts = ch.shortcut_count();
    }
    let avg = start.elapsed() / rounds;
    println!(
        "CH build on gowalla_like(160): avg {avg:?} over {rounds} rounds, {shortcuts} shortcuts"
    );
}
