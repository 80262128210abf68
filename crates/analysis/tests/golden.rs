//! Golden snapshot: the full small-scale study, serialized, against a
//! checked-in fixture.
//!
//! The study is deterministic end to end — the population is seeded, the
//! synthetic web is a pure function of it, and the crawl scheduler is
//! required to produce records independent of worker count, interleaving,
//! and which vantage points share page work. Any diff against the fixture is therefore a behavior
//! change that must be reviewed (and the fixture regenerated with
//! `UPDATE_GOLDEN=1 cargo test -p analysis --test golden`).

use analysis::{crawl_regions, run_all_with_crawls, RetryPolicy, Study, VantageCrawl};
use bannerclick::BannerClick;
use httpsim::{FaultConfig, FaultPlan, Network, Region};
use std::sync::Arc;
use webgen::{Population, PopulationConfig};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_small.json"
);

fn report_json() -> String {
    analysis::run_all(&Study::small()).to_json()
}

fn fixture() -> String {
    std::fs::read_to_string(FIXTURE).expect(
        "golden fixture missing — regenerate with \
         UPDATE_GOLDEN=1 cargo test -p analysis --test golden",
    )
}

#[test]
fn small_study_matches_golden_snapshot() {
    let json = report_json();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(FIXTURE, &json).expect("write fixture");
        eprintln!("fixture regenerated: {FIXTURE}");
        return;
    }
    assert_eq!(
        fixture(),
        json,
        "StudyReport JSON drifted from the golden fixture; if the change \
         is intended, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_snapshot_matches_per_region_crawls() {
    // Sharing page work across vantage points must be a pure optimization:
    // crawling each region in its own call, where nothing can be shared,
    // may not change a single byte of the report.
    let study = Study::small();
    let targets = study.targets();
    let crawls: Vec<VantageCrawl> = Region::ALL
        .iter()
        .flat_map(|&region| {
            crawl_regions(
                &study.net,
                &[region],
                &targets,
                &study.tool,
                study.workers,
                &study.retry,
            )
            .0
        })
        .collect();
    assert_eq!(fixture(), run_all_with_crawls(&study, &crawls).to_json());
}

#[test]
fn disabled_fault_layer_matches_golden_snapshot() {
    // A zero-rate fault config is recognized as a no-op and installs no
    // fault plan at all, so the report (including the absence of the
    // `failures` section) is byte-identical to the fixture.
    let study = Study::with_fault_config(PopulationConfig::small(), Some(FaultConfig::new(7)));
    assert!(
        study.fault_plan.is_none(),
        "zero-rate fault config must be a no-op"
    );
    assert_eq!(fixture(), analysis::run_all(&study).to_json());
}

#[test]
fn zero_rate_faulty_server_is_byte_transparent() {
    // Stronger than the no-op filter: with the FaultyServer wrapper
    // actually interposed in front of every origin at rate zero, it must
    // inject nothing and forward every byte unchanged.
    let population = Arc::new(Population::generate(PopulationConfig::small()));
    let net = Network::new();
    let plan = Arc::new(FaultPlan::new(FaultConfig::new(7)));
    webgen::server::install_with_faults(Arc::clone(&population), &net, Some(Arc::clone(&plan)));
    let study = Study {
        population,
        net,
        tool: BannerClick::new(),
        workers: 4,
        retry: RetryPolicy::default(),
        // No plan on the study: the report must omit the failure section,
        // exactly like a fault-free run.
        fault_plan: None,
    };
    assert_eq!(fixture(), analysis::run_all(&study).to_json());
    assert_eq!(plan.injected().total(), 0, "zero rates may never fire");
}
