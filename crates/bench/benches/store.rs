//! Bench: journal write overhead of the persistent crawl store on an
//! eight-region sweep — `run` with `--store` versus without. The store's
//! buffered puts and periodic journal flushes should cost well under 5%
//! of a sweep's wall time.

use analysis::{crawl_regions, crawl_regions_persistent, CheckpointPolicy, RetryPolicy};
use bannerclick::BannerClick;
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use httpsim::{Network, Region};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use store::{DiskFaultConfig, FaultyBackend, FsBackend, Store};
use webgen::{Population, PopulationConfig};

const WORKERS: usize = 4;

fn world(pop: &Arc<Population>) -> Network {
    let net = Network::new();
    webgen::server::install(Arc::clone(pop), &net);
    net
}

fn fresh_store_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cookiewall-store-bench-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench_store(c: &mut Criterion) {
    let pop = Arc::new(Population::generate(PopulationConfig::tiny()));
    let targets = pop.merged_targets();
    let tool = BannerClick::new();
    let retry = RetryPolicy::default();

    let mut g = c.benchmark_group("store");
    g.sample_size(10);
    g.bench_function("cached_sweep_no_store", |b| {
        b.iter_batched(
            || world(&pop),
            |net| {
                let (crawls, _) =
                    crawl_regions(&net, &Region::ALL, &targets, &tool, WORKERS, &retry);
                black_box(crawls.len())
            },
            BatchSize::PerIteration,
        )
    });
    g.bench_function("cached_sweep_journaled", |b| {
        b.iter_batched(
            || {
                let dir = fresh_store_dir();
                let store = Store::create(&dir, Region::ALL.len(), &[]).expect("store creates");
                (world(&pop), store, dir)
            },
            |(net, store, dir)| {
                let policy = CheckpointPolicy::default();
                let (crawls, _) = crawl_regions_persistent(
                    &net, &targets, &tool, WORKERS, &retry, &store, &policy,
                )
                .expect("checkpoint flush succeeds");
                let n = black_box(crawls.expect("sweep completes").len());
                drop(store);
                let _ = std::fs::remove_dir_all(&dir);
                n
            },
            BatchSize::PerIteration,
        )
    });
    // Same journaled sweep through a `FaultyBackend` at rate 0: the fault
    // layer's hash/branch bookkeeping must vanish into the noise against
    // `cached_sweep_journaled` — the chaos VFS is free when unused.
    g.bench_function("cached_sweep_journaled_faulty_noop", |b| {
        b.iter_batched(
            || {
                let dir = fresh_store_dir();
                let backend = Arc::new(FaultyBackend::new(
                    Arc::new(FsBackend),
                    DiskFaultConfig::noop(),
                ));
                let store = Store::create_with(&dir, Region::ALL.len(), &[], backend)
                    .expect("store creates");
                (world(&pop), store, dir)
            },
            |(net, store, dir)| {
                let policy = CheckpointPolicy::default();
                let (crawls, _) = crawl_regions_persistent(
                    &net, &targets, &tool, WORKERS, &retry, &store, &policy,
                )
                .expect("checkpoint flush succeeds");
                let n = black_box(crawls.expect("sweep completes").len());
                drop(store);
                let _ = std::fs::remove_dir_all(&dir);
                n
            },
            BatchSize::PerIteration,
        )
    });
    // Resume half-way through: what restoring + replaying costs relative
    // to crawling the cells outright.
    g.bench_function("cached_sweep_resume_half", |b| {
        b.iter_batched(
            || {
                let dir = fresh_store_dir();
                let store = Store::create(&dir, Region::ALL.len(), &[]).expect("store creates");
                let net = world(&pop);
                let half = Region::ALL.len() * targets.len() / 2;
                let policy = CheckpointPolicy {
                    abort_after: Some(half),
                    ..CheckpointPolicy::default()
                };
                let _ = crawl_regions_persistent(
                    &net, &targets, &tool, WORKERS, &retry, &store, &policy,
                )
                .expect("checkpoint flush succeeds");
                drop(store);
                let store = Store::open(&dir).expect("store reopens");
                (world(&pop), store, dir)
            },
            |(net, store, dir)| {
                let policy = CheckpointPolicy::default();
                let (crawls, _) = crawl_regions_persistent(
                    &net, &targets, &tool, WORKERS, &retry, &store, &policy,
                )
                .expect("checkpoint flush succeeds");
                let n = black_box(crawls.expect("sweep completes").len());
                drop(store);
                let _ = std::fs::remove_dir_all(&dir);
                n
            },
            BatchSize::PerIteration,
        )
    });
    g.finish();

    // Journaled sweep at high worker counts: 64 crawl workers funnel puts
    // into the sharded buffers while auto-checkpoints pipeline through the
    // single `io` appender — writers must not stall behind the disk.
    let mut g = c.benchmark_group("store/journaled_worker_scaling");
    g.sample_size(10);
    for workers in [4usize, 16, 64] {
        g.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter_batched(
                || {
                    let dir = fresh_store_dir();
                    let store = Store::create(&dir, Region::ALL.len(), &[]).expect("store creates");
                    (world(&pop), store, dir)
                },
                |(net, store, dir)| {
                    let policy = CheckpointPolicy::default();
                    let (crawls, _) =
                        crawl_regions_persistent(&net, &targets, &tool, w, &retry, &store, &policy)
                            .expect("checkpoint flush succeeds");
                    let n = black_box(crawls.expect("sweep completes").len());
                    drop(store);
                    let _ = std::fs::remove_dir_all(&dir);
                    n
                },
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();

    // Raw put throughput: N threads race distinct cells into the sharded
    // buffers under a tight auto-checkpoint cadence. Pure store-side
    // contention, no crawl work in the way.
    let mut g = c.benchmark_group("store/concurrent_puts");
    g.sample_size(10);
    let put_targets: Vec<String> = (0..96).map(|i| format!("bench-{i}.example")).collect();
    for threads in [1usize, 8, 64] {
        g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter_batched(
                || {
                    let dir = fresh_store_dir();
                    let store = Store::create(&dir, Region::ALL.len(), &[]).expect("store creates");
                    store.set_checkpoint_every(16);
                    (store, dir)
                },
                |(store, dir)| {
                    std::thread::scope(|scope| {
                        for k in 0..t {
                            let store = &store;
                            let put_targets = &put_targets;
                            scope.spawn(move || {
                                for (i, domain) in put_targets.iter().enumerate().skip(k).step_by(t)
                                {
                                    let region = (i % Region::ALL.len()) as u8;
                                    store
                                        .put(region, domain, domain.as_bytes())
                                        .expect("put succeeds");
                                }
                            });
                        }
                    });
                    store.checkpoint().expect("final checkpoint");
                    let n = black_box(store.len());
                    drop(store);
                    let _ = std::fs::remove_dir_all(&dir);
                    n
                },
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
