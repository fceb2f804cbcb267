//! Norm-regression test for the double sweep.
//!
//! Dataset construction normalizes social distances by a pseudo-diameter
//! estimated with a double Dijkstra sweep.  Every normalized score in the
//! system depends on this constant, so it must stay **bit-identical** to
//! the sweep it was historically computed with — not approximately equal —
//! on exactly the graphs the generator produces.

use ssrq_data::DatasetConfig;
use ssrq_graph::{dijkstra_all, SocialGraph};

/// The sequential double sweep the normalization constant was historically
/// computed with, reproduced verbatim as the regression reference.
fn sequential_double_sweep(graph: &SocialGraph) -> f64 {
    if graph.node_count() == 0 {
        return 1.0;
    }
    let start = graph.nodes().find(|&v| graph.degree(v) > 0).unwrap_or(0);
    let farthest = |dist: &[f64]| {
        let mut best = (0u32, 0.0f64);
        for (v, &d) in dist.iter().enumerate() {
            if d.is_finite() && d > best.1 {
                best = (v as u32, d);
            }
        }
        best
    };
    let (far, far_dist) = farthest(&dijkstra_all(graph, start));
    if far_dist <= 0.0 {
        return 1.0;
    }
    let (_, diameter) = farthest(&dijkstra_all(graph, far));
    if diameter > 0.0 {
        diameter
    } else {
        1.0
    }
}

#[test]
fn dataset_social_norm_matches_the_sequential_sweep() {
    // End-to-end: the constant baked into a generated dataset equals the
    // sequential double sweep of its own graph.
    for config in [
        DatasetConfig::gowalla_like(1_200).with_seed(5),
        DatasetConfig::twitter_like(600).with_seed(13),
    ] {
        let dataset = config.generate();
        let expected = sequential_double_sweep(dataset.graph()).max(f64::MIN_POSITIVE);
        assert_eq!(dataset.social_norm().to_bits(), expected.to_bits());
    }
}
