//! `study`: the paper's reproduction on the quarter world — the crawl
//! sweep, all 15 experiments, and the report JSON — then the finished
//! epoch published to a store and read back.

use crate::backend::CountingBackend;
use crate::common::{
    cells, check_report, class_metrics, mean, median, peak_rss_mb, store_meta, Metrics, Outcome,
    Setups, WorkDir,
};
use crate::readback::{io_metrics, publish, read_back, read_metrics};
use crate::trace::Tracer;
use crate::{visits, Opts};
use analysis::crawl::VantageCrawl;
use analysis::experiments::{
    ablation, accuracy, banners, botdetect, bypass, darkpatterns, fig1, fig2, fig3, fig4, fig5,
    fig6, smp, table1,
};
use analysis::{runner, Study, StudyReport};
use std::sync::Arc;
use std::time::Instant;

/// The timed phase, untraced: `run_all`'s two halves (kept apart so the
/// crawls can be published afterwards), then the report JSON.
fn reproduce(study: &Study) -> (Vec<VantageCrawl>, StudyReport, String) {
    let (crawls, metrics) = runner::run_crawls_with_metrics(study);
    let mut report = runner::run_all_with_crawls(study, &crawls);
    report.crawl_metrics = metrics;
    let json = report.to_json();
    (crawls, report, json)
}

pub fn run(opts: &Opts) -> Outcome {
    let work = WorkDir::new("study").expect("create the work directory");
    let mut setups = Setups::new(opts.world, opts.seed);
    setups.group();
    let mut study = setups.build();
    let mut metrics = Metrics::default();
    let mut correct = true;

    // Untraced timed phase: repeated while another round fits in
    // `--seconds`, each time on a fresh world (origins count visits, so a
    // second sweep on the same world would produce a different report).
    let mut walls = Vec::new();
    let started = Instant::now();
    let (crawls, failed) = loop {
        let t = Instant::now();
        let (crawls, report, json) = reproduce(&study);
        correct &= check_report(&study, &report, &json, opts.world, opts.seed, opts.expect());
        walls.push(t.elapsed().as_secs_f64());
        if !crate::another_round(started, &walls, opts) {
            break (crawls, report.crawl_metrics.failures.total_failures as u64);
        }
        study = setups.build();
    };
    let untraced_wall = median(&mut walls);
    setups.group();

    let mut tracer = if opts.trace {
        Tracer::new(Instant::now())
    } else {
        Tracer::off()
    };
    let crawls = if opts.trace {
        let (traced_crawls, wall, ok) = traced_phase(opts, &mut tracer, &mut metrics);
        correct &= ok;
        metrics.set("trace.wall_s", wall);
        metrics.set("trace.overhead_s", wall - untraced_wall);
        traced_crawls
    } else {
        crawls
    };

    let attempted_cells = crawls.iter().map(|c| c.records.len() as u64).sum::<u64>();
    let cells = cells(&crawls);
    drop(crawls);
    let payload_bytes: u64 = cells.iter().map(|c| c.2.len() as u64).sum();
    let backend = CountingBackend::fs();
    let meta = store_meta(&study, opts.world, opts.seed);
    drop(study);
    let t = Instant::now();
    let publish_span = tracer.open("publish", None);
    let (snapshot, times) =
        publish(&work.join("epoch"), &meta, &cells, &backend).expect("publish the epoch");
    tracer.close(publish_span);
    let mut publishes = vec![t.elapsed().as_secs_f64()];
    let snapshot = Arc::new(snapshot);
    // Between read-back chunks: one world build for `setup_s` and one more
    // publish into a fresh store for `ingest_s`, so both are medians of
    // samples spread over the run.
    let readback_span = tracer.open("read_back", None);
    let (answered, secs, wrong) = read_back(Arc::clone(&snapshot), opts.world, || {
        drop(setups.build());
        let dir = work.join(&format!("epoch-{}", publishes.len()));
        let t = Instant::now();
        drop(publish(&dir, &meta, &cells, &CountingBackend::fs()).expect("publish the epoch"));
        publishes.push(t.elapsed().as_secs_f64());
        let _ = std::fs::remove_dir_all(&dir);
    });
    tracer.close(readback_span);
    correct &= wrong == 0;
    drop(cells);

    metrics.set("wall_s", untraced_wall);
    metrics.set("ingest_s", median(&mut publishes));
    read_metrics(&mut metrics, &answered, secs);
    if opts.trace {
        metrics.set("store.put_us", mean(&times.puts) * 1e6);
        metrics.set("store.seal_ms", times.seal * 1e3);
        metrics.set("store.seals", 1.0);
        metrics.set("store.snapshot_open_ms", times.open * 1e3);
        io_metrics(&mut metrics, &backend, payload_bytes);
        class_metrics(&mut metrics, &answered.iter().collect::<Vec<_>>());
        // The stage pass needs unvisited origins: a world of its own.
        let fresh = Study::new(opts.world.config(opts.seed));
        visits::stage_pass(&fresh, &mut tracer, &mut metrics, true);
        crate::write_trace(opts, &tracer);
    }
    setups.group();
    metrics.set("setup_s", setups.median());
    metrics.set("peak_rss_mb", peak_rss_mb());
    Outcome {
        correct,
        attempted: attempted_cells + answered.len() as u64,
        failed: failed + wrong,
        metrics,
    }
}

/// The traced reproduction: setup, sweep, each experiment in
/// `run_all_with_crawls` order, and serialisation, each in a top-level
/// span under one root. Returns the crawls, the traced wall time
/// excluding setup (comparable to the untraced `wall_s`), and whether the
/// report matched.
fn traced_phase(
    opts: &Opts,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> (Vec<VantageCrawl>, f64, bool) {
    let root = tracer.open("study", None);
    let study = tracer.span("setup", || Study::new(opts.world.config(opts.seed)));
    let (crawls, crawl_metrics) =
        tracer.span("analysis.sweep", || runner::run_crawls_with_metrics(&study));
    let c = &crawls[..];
    let s = &study;
    let table1 = tracer.span("experiment.table1", || table1::compute(s, c));
    let accuracy = tracer.span("experiment.accuracy", || accuracy::compute(s, c));
    let embedding = tracer.span("experiment.embedding", || smp::embedding_split(s, c));
    let fig1 = tracer.span("experiment.fig1", || fig1::compute(s, c));
    let fig2 = tracer.span("experiment.fig2", || fig2::compute(s, c));
    let fig3 = tracer.span("experiment.fig3", || fig3::compute(s, &fig2));
    let fig4 = tracer.span("experiment.fig4", || fig4::compute(s, c));
    let fig5 = tracer.span("experiment.fig5", || fig5::compute(s));
    let fig6 = tracer.span("experiment.fig6", || fig6::compute(&fig2, &fig4));
    let bypass = tracer.span("experiment.bypass", || bypass::compute(s, c));
    let smp_report = tracer.span("experiment.smp", || smp::compute(s, c));
    let banners = tracer.span("experiment.banners", || banners::compute(c));
    let ablation = tracer.span("experiment.ablation", || ablation::compute(s));
    let darkpatterns = tracer.span("experiment.darkpatterns", || darkpatterns::compute(s, c));
    let botdetect = tracer.span("experiment.botdetect", || botdetect::compute(s));
    let report = StudyReport {
        table1,
        accuracy,
        embedding,
        fig1,
        fig2,
        fig3,
        fig4,
        fig5,
        fig6,
        bypass,
        smp: smp_report,
        banners,
        ablation,
        darkpatterns,
        botdetect,
        failures: None,
        crawl_metrics,
    };
    let json = tracer.span("analysis.report_json", || report.to_json());
    let traced = tracer.close(root);
    let ok = check_report(&study, &report, &json, opts.world, opts.seed, opts.expect());

    let setup = tracer.total_secs("setup");
    for (name, _) in crate::common::PER_LAYER {
        if let Some(stem) = name.strip_suffix("_s") {
            if stem.starts_with("experiment.") || stem == "analysis.report_json" {
                metrics.set(name, tracer.total_secs(stem));
            }
        }
    }
    metrics.set("analysis.sweep_s", tracer.total_secs("analysis.sweep"));
    metrics.set(
        "analysis.sweep_tasks",
        report.crawl_metrics.tasks_completed as f64,
    );
    metrics.set(
        "analysis.sweep_cache_hit_ratio",
        report.crawl_metrics.hit_rate(),
    );
    metrics.set(
        "analysis.sweep_utilization",
        report.crawl_metrics.utilization(),
    );
    metrics.set("trace.top_span_coverage", tracer.child_coverage(root));
    (crawls, traced - setup, ok)
}
