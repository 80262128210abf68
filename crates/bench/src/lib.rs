//! Shared fixtures for the benchmark harness: lazily built worlds at the
//! scales the benches need, so expensive setup is not measured.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use analysis::Study;
use std::sync::OnceLock;
use webgen::PopulationConfig;

/// A tiny study (80-entry lists): fast enough for per-iteration benching.
pub fn tiny_study() -> &'static Study {
    static S: OnceLock<Study> = OnceLock::new();
    S.get_or_init(|| Study::new(PopulationConfig::tiny()))
}

/// A small study (400-entry lists, 30 walls): the table/figure benches.
pub fn small_study() -> &'static Study {
    static S: OnceLock<Study> = OnceLock::new();
    S.get_or_init(Study::small)
}

/// Crawls of the small study from every vantage point, computed once and
/// shared by the analysis benches.
pub fn small_crawls() -> &'static Vec<analysis::VantageCrawl> {
    static C: OnceLock<Vec<analysis::VantageCrawl>> = OnceLock::new();
    C.get_or_init(|| analysis::run_crawls_with_metrics(small_study()).0)
}
