//! Shared harness for the figure-regeneration binaries.
//!
//! Every binary regenerates one figure of the paper's evaluation (§4) on
//! scaled-down synthetic stand-ins for the Flickr/Twitter crawls (see
//! DESIGN.md for the substitution rationale). Binaries accept an optional
//! first argument overriding the node count, e.g.
//!
//! ```text
//! cargo run --release -p piggyback-bench --bin fig4 -- 20000
//! ```

use piggyback_graph::{gen, stats, CsrGraph};
use piggyback_workload::Rates;

/// Default node count for figure runs: small enough for debug-ci, big
/// enough to show the trends. Override via the binary's CLI argument.
pub const DEFAULT_NODES: usize = 4000;

/// The reference read/write ratio of §4.1 (Silberstein et al.).
pub const REFERENCE_RW_RATIO: f64 = 5.0;

/// A named (graph, rates) pair for an experiment.
pub struct Dataset {
    /// Display name (`flickr` / `twitter`).
    pub name: &'static str,
    /// The social graph.
    pub graph: CsrGraph,
    /// The §4.1 log-degree workload at the reference r/w ratio.
    pub rates: Rates,
}

/// Builds the scaled-down Flickr stand-in.
pub fn flickr_dataset(nodes: usize, seed: u64) -> Dataset {
    let graph = gen::flickr_like(nodes, seed);
    let rates = Rates::log_degree(&graph, REFERENCE_RW_RATIO);
    Dataset {
        name: "flickr",
        graph,
        rates,
    }
}

/// Builds the scaled-down Twitter stand-in.
pub fn twitter_dataset(nodes: usize, seed: u64) -> Dataset {
    let graph = gen::twitter_like(nodes, seed);
    let rates = Rates::log_degree(&graph, REFERENCE_RW_RATIO);
    Dataset {
        name: "twitter",
        graph,
        rates,
    }
}

/// Both stand-ins at the same scale.
pub fn both_datasets(nodes: usize, seed: u64) -> Vec<Dataset> {
    vec![flickr_dataset(nodes, seed), twitter_dataset(nodes, seed)]
}

/// Parses the node-count CLI override (first positional argument).
pub fn nodes_from_args() -> usize {
    std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(DEFAULT_NODES)
}

/// Prints the dataset header every binary emits: sizes plus the structural
/// stats that justify the substitution.
pub fn print_dataset_banner(d: &Dataset) {
    let g = &d.graph;
    let cc = stats::sampled_clustering_coefficient(g, 300, 7);
    let rec = stats::reciprocity(g);
    println!(
        "# dataset={} nodes={} edges={} clustering~{:.3} reciprocity={:.3}",
        d.name,
        g.node_count(),
        g.edge_count(),
        cc,
        rec
    );
}

/// Formats a data row: tab-separated, stable column order — trivially
/// plottable with gnuplot or pandas.
pub fn print_row(cols: &[String]) {
    println!("{}", cols.join("\t"));
}

/// A `#`-prefixed header row naming the columns.
pub fn print_header(cols: &[&str]) {
    println!("# {}", cols.join("\t"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_build() {
        let f = flickr_dataset(500, 1);
        let t = twitter_dataset(500, 1);
        assert!(f.graph.edge_count() > 0);
        assert!(t.graph.edge_count() > f.graph.edge_count());
        assert_eq!(f.rates.len(), f.graph.node_count());
    }
}
