//! Retry, panic-containment, and circuit-breaker behaviour of the crawl
//! scheduler, exercised against hand-built hosts (a flaky origin, a
//! panicking origin, a dead origin) rather than the generated population.

use analysis::{crawl_regions, CrawlMetrics, FailureKind, RetryPolicy, VantageCrawl};
use bannerclick::BannerClick;
use httpsim::{Network, Region, Response};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

const PAGE: &str = "<html><head><title>plain</title></head>\
                    <body><p>nothing to consent to here</p></body></html>";

/// A host that refuses its first `failures` navigations, then recovers.
fn install_flaky(net: &Network, host: &str, failures: u32) -> Arc<AtomicU32> {
    let calls = Arc::new(AtomicU32::new(0));
    let counter = Arc::clone(&calls);
    net.register_fn(host, move |_req| {
        if counter.fetch_add(1, Ordering::SeqCst) < failures {
            Response::connection_error()
        } else {
            Response::html(PAGE)
        }
    });
    calls
}

/// Crawl `targets` from Germany alone on one worker.
fn crawl_germany(net: &Network, targets: &[String], policy: &RetryPolicy) -> VantageCrawl {
    let (mut crawls, _) = crawl_regions(
        net,
        &[Region::Germany],
        targets,
        &BannerClick::new(),
        1,
        policy,
    );
    crawls.remove(0)
}

/// Crawl `targets` from every region on one worker.
fn sweep(
    net: &Network,
    targets: &[String],
    policy: &RetryPolicy,
) -> (Vec<VantageCrawl>, CrawlMetrics) {
    crawl_regions(net, &Region::ALL, targets, &BannerClick::new(), 1, policy)
}

#[test]
fn retries_recover_a_flaky_host() {
    let net = Network::new();
    let calls = install_flaky(&net, "flaky.example", 2);
    let targets = vec!["flaky.example".to_string()];

    let crawl = crawl_germany(&net, &targets, &RetryPolicy::default());
    let record = &crawl.records[0];
    assert!(record.reachable, "third attempt must succeed");
    assert_eq!(record.failure, None);
    assert_eq!(record.attempts, 3);
    assert!(record.retried_ok());
    assert_eq!(calls.load(Ordering::SeqCst), 3);
}

#[test]
fn exhausted_retries_become_a_failure_record() {
    let net = Network::new();
    // More consecutive failures than the retry budget can absorb.
    let calls = install_flaky(&net, "down.example", 100);
    let targets = vec!["down.example".to_string()];

    let crawl = crawl_germany(&net, &targets, &RetryPolicy::with_max_retries(2));
    let record = &crawl.records[0];
    assert!(!record.reachable);
    assert_eq!(record.failure, Some(FailureKind::Unreachable));
    assert_eq!(record.attempts, 3, "one initial try plus two retries");
    assert!(record.gave_up());
    assert_eq!(calls.load(Ordering::SeqCst), 3);
}

#[test]
fn analysis_panics_become_failure_records() {
    let net = Network::new();
    net.register_fn("panicky.example", |_req| panic!("handler exploded"));
    net.register_fn("fine.example", |_req| Response::html(PAGE));
    let targets = vec!["panicky.example".to_string(), "fine.example".to_string()];

    // Silence the default panic hook for the intentional casualty.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let crawl = crawl_germany(&net, &targets, &RetryPolicy::default());
    std::panic::set_hook(prev);

    let casualty = &crawl.records[0];
    assert_eq!(casualty.failure, Some(FailureKind::Panic));
    assert!(!casualty.reachable);
    assert!(
        !casualty.gave_up(),
        "a panic is a first-attempt verdict, not a retry giveup"
    );
    // The worker survived the panic and completed the rest of its queue.
    let survivor = &crawl.records[1];
    assert!(survivor.reachable);
    assert_eq!(survivor.failure, None);
}

#[test]
fn circuit_breaker_caps_retry_spend_on_dead_hosts() {
    let net = Network::new();
    net.register_fn("alive.example", |_req| Response::html(PAGE));
    // "gone.example" is never registered: every navigation is unresolved.
    let targets = vec!["gone.example".to_string(), "alive.example".to_string()];

    let (crawls, metrics) = sweep(&net, &targets, &RetryPolicy::default());

    let dead_records: Vec<_> = crawls
        .iter()
        .map(|c| {
            c.records
                .iter()
                .find(|r| r.domain == "gone.example")
                .unwrap()
        })
        .collect();
    for record in &dead_records {
        assert_eq!(record.failure, Some(FailureKind::Unreachable));
        assert!(record.gave_up());
    }
    // Exactly one region paid the full retry budget; once the breaker
    // opened, every other vantage point skipped the host outright.
    let exhausted = dead_records.iter().filter(|r| r.attempts > 1).count();
    let skipped = dead_records.iter().filter(|r| r.attempts == 0).count();
    assert_eq!(exhausted, 1);
    assert_eq!(skipped, dead_records.len() - 1);
    assert_eq!(metrics.breaker_open_hosts, 1);
    assert_eq!(metrics.breaker_skips, skipped);
    // The live host is untouched by the breaker.
    for crawl in &crawls {
        let live = crawl
            .records
            .iter()
            .find(|r| r.domain == "alive.example")
            .unwrap();
        assert!(live.reachable, "{:?}", crawl.region);
    }
}

#[test]
fn disabling_retries_disables_the_breaker() {
    let net = Network::new();
    let targets = vec!["gone.example".to_string()];

    let (crawls, metrics) = sweep(&net, &targets, &RetryPolicy::none());
    assert_eq!(metrics.breaker_open_hosts, 0);
    assert_eq!(metrics.breaker_skips, 0);
    assert_eq!(metrics.retries, 0);
    for crawl in &crawls {
        assert_eq!(
            crawl.records[0].attempts, 1,
            "single-shot crawl never skips"
        );
        assert_eq!(crawl.records[0].failure, Some(FailureKind::Unreachable));
    }
}
