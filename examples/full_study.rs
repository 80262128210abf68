//! Full paper-scale reproduction: 45,222 targets × 8 vantage points,
//! every table and figure. Writes the text report and JSON results.
//!
//! Run with: `cargo run --release --example full_study`

fn main() {
    let t0 = std::time::Instant::now();
    eprintln!("generating the synthetic web (45,222 targets, 280 walls)…");
    let study = analysis::Study::paper();
    eprintln!("  population ready in {:?}", t0.elapsed());

    let t1 = std::time::Instant::now();
    eprintln!("crawling from 8 vantage points…");
    let crawls = analysis::run_crawls_with_metrics(&study).0;
    eprintln!("  crawls done in {:?}", t1.elapsed());

    let t2 = std::time::Instant::now();
    eprintln!("running every experiment…");
    let report = analysis::run_all_with_crawls(&study, &crawls);
    eprintln!("  experiments done in {:?}", t2.elapsed());

    println!("{}", report.render());
    if let Err(e) = std::fs::write("full_study_results.json", report.to_json()) {
        eprintln!("could not write JSON results: {e}");
    } else {
        eprintln!("machine-readable results: full_study_results.json");
    }
    eprintln!("total wall time: {:?}", t0.elapsed());
}
