//! Bench: Table 1 — the eight-vantage-point crawl and its aggregation,
//! plus the parallel-crawl scaling ablation.

use analysis::{crawl_regions, experiments::table1, run_crawls_with_metrics, RetryPolicy};
use bannerclick::BannerClick;
use bench::{small_crawls, small_study, tiny_study};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use httpsim::Region;
use std::hint::black_box;

fn bench_crawl(c: &mut Criterion) {
    let tiny = tiny_study();
    let targets = tiny.targets();
    let tool = BannerClick::new();
    let retry = RetryPolicy::default();
    let crawl = |regions: &[Region], workers: usize| {
        crawl_regions(&tiny.net, regions, &targets, &tool, workers, &retry).0
    };

    let mut g = c.benchmark_group("table1");
    g.sample_size(10);

    // One vantage point over the tiny target list.
    g.bench_function("crawl_one_region_tiny", |b| {
        b.iter(|| black_box(crawl(&[Region::Germany], tiny.workers)[0].wall_count()))
    });

    // All eight vantage points (the full Table 1 measurement, tiny scale).
    g.bench_function("crawl_eight_regions_tiny", |b| {
        b.iter(|| black_box(run_crawls_with_metrics(tiny).0.len()))
    });

    // Aggregation only, on the precomputed small crawls.
    let small = small_study();
    let crawls = small_crawls();
    g.bench_function("compute_table_small", |b| {
        b.iter(|| {
            let t = table1::compute(small, crawls);
            black_box(t.unique_walls)
        })
    });
    g.finish();

    // One sweep vs. one call per region, at equal worker counts: the
    // per-region calls pay eight sequential barriers and share no page
    // work; the sweep crawls each domain from every region in one task
    // and loads each distinct document once.
    let mut g = c.benchmark_group("table1/sweep_8_regions");
    g.sample_size(10);
    let workers = 4usize;
    g.bench_function("serial_loop", |b| {
        b.iter(|| {
            let n: usize = Region::ALL
                .iter()
                .map(|&region| crawl(&[region], workers).len())
                .sum();
            black_box(n)
        })
    });
    g.bench_function("scheduler_cached", |b| {
        b.iter(|| black_box(crawl(&Region::ALL, workers).len()))
    });
    g.finish();

    // Ablation: crawl parallelism 1 … 64 workers. The high counts
    // oversubscribe the machine on purpose: with per-worker counters and
    // task-local page memos the extra workers should cost contention-free
    // queue churn, not lock convoys on shared state.
    let mut g = c.benchmark_group("table1/worker_scaling");
    g.sample_size(10);
    for workers in [1usize, 2, 4, 8, 16, 32, 64] {
        g.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| black_box(crawl(&[Region::Germany], w)[0].records.len()))
        });
    }
    g.finish();

    // The full eight-region sweep at high worker counts: 64 workers share
    // one claim cursor and the striped circuit breaker, nothing else.
    let mut g = c.benchmark_group("table1/sweep_worker_scaling");
    g.sample_size(10);
    for workers in [4usize, 16, 64] {
        g.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| black_box(crawl(&Region::ALL, w).len()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_crawl);
criterion_main!(benches);
