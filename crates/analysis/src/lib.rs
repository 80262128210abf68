//! # analysis — measurement orchestration and experiment reproduction
//!
//! The crate that re-runs the paper's evaluation end to end:
//!
//! * [`Study`] assembles the world (population + network + detector);
//! * [`crawl`] runs the BannerClick pipeline over the 45k-target list from
//!   all eight vantage points, in parallel;
//! * [`measure`] implements the cookie-counting methodology (five
//!   repetitions, fresh profiles, justdomains tracking classification);
//! * [`experiments`] holds one driver per table/figure — Table 1, the §3
//!   accuracy and embedding numbers, Figures 1–6, the §4.5 adblock bypass,
//!   and the §4.4 SMP report;
//! * [`runner::run_all`] produces a [`StudyReport`] with text rendering
//!   ([`StudyReport::render`]) and JSON export.
//!
//! ## Example
//!
//! ```no_run
//! use analysis::{runner, Study};
//!
//! let study = Study::small();
//! let report = runner::run_all(&study);
//! println!("{}", report.render());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod crawl;
pub mod experiments;
pub mod measure;
pub mod persist;
pub mod query;
pub mod render;
pub mod runner;
pub mod stats;

pub use context::Study;
pub use crawl::{
    crawl_regions, crawl_regions_persistent, crawl_variants, CheckpointPolicy, CrawlMetrics,
    CrawlRecord, CrawlVariant, FailureKind, FailureTaxonomy, PassCounters, RegionFailures,
    RetryPolicy, VantageCrawl, VariantPass, Verdict, WorkerCounters,
};
pub use measure::{
    measure_site, measure_sites, InteractionMode, SiteCookieMeasurement, REPETITIONS,
};
pub use runner::{
    run_all, run_all_persistent, run_all_with_crawls, run_crawls_with_metrics, StudyReport,
};
