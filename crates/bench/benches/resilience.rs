//! Bench: the fault-injection/retry layer — what the chaos harness costs
//! when it is off, and what a transient-faulted sweep pays for its
//! retries relative to the fault-free baseline.
//!
//! Transient fault windows are stateful (they drain as attempts are
//! spent), so each measured sweep gets a freshly installed network and
//! fault plan via `iter_batched`; only the population is shared.

use analysis::{crawl_regions, RetryPolicy};
use bannerclick::BannerClick;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use httpsim::{FaultConfig, FaultPlan, Network, Region};
use std::hint::black_box;
use std::sync::Arc;
use webgen::{Population, PopulationConfig};

const WORKERS: usize = 4;

/// A fresh network over `pop`, wrapped in a fault plan when a config is
/// given (zero-rate configs still install the wrapper here — that is the
/// pass-through overhead one of the benches measures).
fn world(pop: &Arc<Population>, fault: Option<FaultConfig>) -> Network {
    let net = Network::new();
    let plan = fault.map(|f| Arc::new(FaultPlan::new(f)));
    webgen::server::install_with_faults(Arc::clone(pop), &net, plan);
    net
}

fn bench_resilience(c: &mut Criterion) {
    let pop = Arc::new(Population::generate(PopulationConfig::tiny()));
    let targets = pop.merged_targets();
    let tool = BannerClick::new();
    let sweep = |net: &Network, retry: RetryPolicy| {
        crawl_regions(net, &Region::ALL, &targets, &tool, WORKERS, &retry)
            .0
            .len()
    };

    let zero_rate = FaultConfig::new(42);
    let chaos = FaultConfig {
        transient_rate: 0.3,
        ..FaultConfig::new(42)
    };

    let mut g = c.benchmark_group("resilience");
    g.sample_size(10);
    g.bench_function("sweep_fault_free", |b| {
        b.iter_batched(
            || world(&pop, None),
            |net| black_box(sweep(&net, RetryPolicy::default())),
            BatchSize::PerIteration,
        )
    });
    g.bench_function("sweep_zero_rate_wrapper", |b| {
        b.iter_batched(
            || world(&pop, Some(zero_rate)),
            |net| black_box(sweep(&net, RetryPolicy::default())),
            BatchSize::PerIteration,
        )
    });
    g.bench_function("sweep_transient_30pct_retrying", |b| {
        b.iter_batched(
            || world(&pop, Some(chaos)),
            |net| black_box(sweep(&net, RetryPolicy::default())),
            BatchSize::PerIteration,
        )
    });
    g.bench_function("sweep_transient_30pct_single_shot", |b| {
        b.iter_batched(
            || world(&pop, Some(chaos)),
            |net| black_box(sweep(&net, RetryPolicy::none())),
            BatchSize::PerIteration,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_resilience);
criterion_main!(benches);
