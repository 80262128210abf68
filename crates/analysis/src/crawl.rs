//! Crawl orchestration: run the BannerClick pipeline over a target list
//! from one or more vantage points, in parallel.
//!
//! ## The sweep engine
//!
//! Table 1 crawls the same target list from eight vantage points.
//! [`crawl_regions`] runs that sweep domain-major on one pool of workers:
//! a task is one domain, and the worker that claims it crawls the domain
//! from every requested region in order, each region on the worker's own
//! browser profile for that vantage point. All regions advance together
//! and the sweep ends when the target list is drained, with no per-region
//! phase to wait out. [`crawl_regions_persistent`] is the same engine with
//! a [`Store`]: the task restores (and replays) stored cells and persists
//! new ones as it goes.
//!
//! ## The per-domain page memo
//!
//! The synthetic web is deterministic: for a cookie-less (fresh-profile)
//! navigation, the main document a site serves is a pure function of
//! `(domain, region)` — and every downstream observation (subresources,
//! injected fragments, parsed DOM, detection verdict) is in turn a pure
//! function of that document. Two vantage points that receive
//! byte-identical documents would do byte-identical analysis work. A task
//! therefore keeps a memo of the documents it loaded for its domain: the
//! navigation request is always dispatched (so origin servers observe
//! every vantage point's visit and per-site counters advance exactly as in
//! one crawl per region), but the subresource loading, DOM parse, and
//! BannerClick analysis run only once per distinct document body. Regions
//! that get geo-gated content (a wall hidden from a non-EU visitor) get a
//! different body and are analyzed separately, so region-dependent
//! observations are never shared by construction. The memo holds at most
//! one entry per region and is cleared when the task ends: the sweep keeps
//! no state across domains, and which cells share work does not depend on
//! the worker count.
//!
//! ## The multi-variant pass
//!
//! The ablation and bot-detection experiments crawl one region under
//! several browser configurations ([`CrawlVariant`]). [`crawl_variants`]
//! runs them as one pass over the target list: a worker claims a domain
//! and dispatches every variant's navigation in variant order, each under
//! that variant's own retry loop and circuit breaker, so origins see the
//! same visits as separate crawls would. The page work is shared: a
//! fetched document is loaded once per `(user agent, body bytes)`, banners
//! are detected once per distinct [`bannerclick::DetectorOptions`] on
//! that page, and a banner text is classified once per corpus mode.

use bannerclick::{
    classify_wall, detect_banners, BannerClick, CorpusMode, DetectorOptions, ObservedEmbedding,
};
use browser::{Browser, FetchError, FetchedDocument};
use crossbeam::thread;
use httpsim::{content_hash, Network, Region};
use serde::Serialize;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;
use store::Store;

/// One crawled site, as the measurement pipeline saw it (no ground truth).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CrawlRecord {
    /// The crawled domain.
    pub domain: String,
    /// The site answered.
    pub reachable: bool,
    /// A banner of any kind was detected.
    pub banner: bool,
    /// The banner was classified as a cookiewall.
    pub cookiewall: bool,
    /// Structural embedding of the detected banner.
    #[serde(skip)]
    pub embedding: Option<ObservedEmbedding>,
    /// Extracted subscription price, EUR/month.
    pub monthly_eur: Option<f64>,
    /// Observed consent-infrastructure host (SMP/CMP CDN).
    pub provider: Option<String>,
    /// Detected page language (ISO 639-1), from page + banner text.
    pub language: Option<&'static str>,
    /// Navigation attempts spent on this record (1 = first try succeeded;
    /// 0 = skipped by an open circuit breaker). Excluded from serialized
    /// reports: under concurrency the breaker may or may not fire first,
    /// so this is diagnostic, not part of the measurement.
    #[serde(skip)]
    pub attempts: u32,
    /// Why the crawl gave up, when it did. Excluded from the serialized
    /// record (the report-level [`FailureTaxonomy`] aggregates it) so the
    /// per-record JSON stays identical to a fault-free crawl.
    #[serde(skip)]
    pub failure: Option<FailureKind>,
}

impl CrawlRecord {
    /// Did the crawl abandon this target only after retrying (retries
    /// exhausted, or a circuit breaker skipped it)? First-attempt verdicts
    /// — clean success, 4xx, panic — are not "gave up".
    pub fn gave_up(&self) -> bool {
        self.failure.is_some() && self.attempts != 1
    }

    /// Did a retry rescue this record after at least one failed attempt?
    pub fn retried_ok(&self) -> bool {
        self.failure.is_none() && self.attempts > 1
    }
}

/// The failure classes of the crawl taxonomy, derived from
/// [`browser::FetchError`] plus the panic bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum FailureKind {
    /// No server answered (dead origin) — or a circuit breaker, already
    /// open for the host, skipped the attempt.
    Unreachable,
    /// Connection reset mid-handshake or mid-response.
    ConnectionReset,
    /// Virtual transfer time exceeded the browser's timeout budget.
    Timeout,
    /// The origin answered 5xx for the top document.
    ServerError,
    /// The origin answered 4xx for the top document (not retried).
    ClientError,
    /// The top document body stopped mid-transfer.
    Truncated,
    /// The analysis pipeline panicked; the worker survived and recorded
    /// the casualty instead of tearing down the sweep.
    Panic,
}

impl FailureKind {
    fn from_error(err: &FetchError) -> Self {
        match err {
            FetchError::Unreachable(_) => FailureKind::Unreachable,
            FetchError::ConnectionReset(_) => FailureKind::ConnectionReset,
            FetchError::Timeout { .. } => FailureKind::Timeout,
            FetchError::Truncated(_) => FailureKind::Truncated,
            FetchError::HttpError(status) if *status >= 500 => FailureKind::ServerError,
            FetchError::HttpError(_) => FailureKind::ClientError,
        }
    }

    /// Stable lowercase label used in renders and JSON keys.
    pub fn label(&self) -> &'static str {
        match self {
            FailureKind::Unreachable => "unreachable",
            FailureKind::ConnectionReset => "connection-reset",
            FailureKind::Timeout => "timeout",
            FailureKind::ServerError => "server-error",
            FailureKind::ClientError => "client-error",
            FailureKind::Truncated => "truncated",
            FailureKind::Panic => "panic",
        }
    }
}

/// How the crawl reacts to transient failures: bounded retries with
/// exponential backoff in *virtual* time (no thread ever sleeps — the
/// simulated network has no real latency, so backoff is accounted, not
/// waited out), plus a per-host circuit breaker for dead origins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 disables retries *and* the
    /// circuit breaker — single-shot crawls match the pre-resilience
    /// behaviour exactly).
    pub max_retries: u32,
    /// Backoff before retry `n` is `base_backoff_ms << (n-1)` virtual ms.
    pub base_backoff_ms: u64,
    /// Unresolved-host give-ups on one registrable domain before the
    /// breaker opens and later attempts for that host are skipped.
    pub breaker_threshold: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff_ms: 250,
            breaker_threshold: 1,
        }
    }
}

impl RetryPolicy {
    /// Single-shot policy: no retries, no breaker.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            ..Self::default()
        }
    }

    /// Default policy with an explicit retry budget.
    pub fn with_max_retries(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            ..Self::default()
        }
    }

    /// Virtual backoff charged before retrying after `failures` failed
    /// attempts (1-based), exponential with a cap against shift overflow.
    pub fn backoff_ms(&self, failures: u32) -> u64 {
        self.base_backoff_ms << failures.saturating_sub(1).min(10)
    }
}

/// Stripes of the circuit breaker's give-up map: two workers giving up on
/// hosts in different stripes never contend on a common mutex.
const STRIPES: usize = 16;

/// Which stripe a host's give-up count lives in.
fn stripe_of(domain: &str) -> usize {
    (content_hash(domain.as_bytes()) % STRIPES as u64) as usize
}

/// Per-host failure memory shared by all workers of a sweep, sharded by
/// host hash so concurrent give-ups on unrelated hosts never serialize.
///
/// The breaker only opens on *unresolved-host* exhaustion: name resolution
/// in the simulated network is region-independent, so one region proving a
/// host dead proves it dead for every region — skipping the remaining
/// `(region, host)` cells cannot change any record, only save attempts.
/// Injected faults (resets, 5xx, stalls) never open it; they are
/// region-scoped and must stay retryable everywhere.
struct CircuitBreaker {
    /// Give-ups needed to open; 0 disables the breaker entirely.
    threshold: u32,
    /// Give-up counts, keyed by registrable host within the host's stripe.
    giveups: Vec<parking_lot::Mutex<HashMap<String, u32>>>,
}

impl CircuitBreaker {
    fn new(threshold: u32) -> Self {
        CircuitBreaker {
            threshold,
            giveups: (0..STRIPES)
                .map(|_| parking_lot::Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn is_open(&self, host_key: &str) -> bool {
        self.threshold > 0
            && self.giveups[stripe_of(host_key)]
                .lock()
                .get(host_key)
                .copied()
                .unwrap_or(0)
                >= self.threshold
    }

    /// Record one unresolved-host give-up; true when this give-up is the
    /// one that opened the breaker (the caller counts opened hosts in its
    /// private [`WorkerCounters`]).
    fn record_unresolved_giveup(&self, host_key: &str) -> bool {
        if self.threshold == 0 {
            return false;
        }
        let mut giveups = self.giveups[stripe_of(host_key)].lock();
        let count = giveups.entry(host_key.to_string()).or_insert(0);
        *count += 1;
        *count == self.threshold
    }
}

/// Hot-path observations a worker keeps in plain private fields and the
/// sweep merges exactly once at join — no shared atomic is bumped per
/// cell. Merging is commutative and associative: any merge order yields
/// the same totals, which the metrics tests pin.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerCounters {
    /// `(region, domain)` cells completed (crawled or restored) by this
    /// worker.
    pub tasks: usize,
    /// Summed per-task busy time, microseconds.
    pub busy_us: u64,
    /// Cells whose document the task's page memo already held.
    pub cache_hits: usize,
    /// Cells that did the full load + analysis.
    pub cache_misses: usize,
    /// Navigation retries spent.
    pub retries: u64,
    /// Exponential backoff charged across retries, virtual ms.
    pub backoff_virtual_ms: u64,
    /// Panics converted to failure records.
    pub panics: usize,
    /// Hosts whose circuit breaker this worker's give-up opened.
    pub breaker_opened: usize,
    /// `(region, host)` attempts skipped because a breaker was open.
    pub breaker_skips: usize,
}

impl WorkerCounters {
    /// Fold another worker's counters into this one.
    pub fn merge(&mut self, other: &WorkerCounters) {
        self.tasks += other.tasks;
        self.busy_us += other.busy_us;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.retries += other.retries;
        self.backoff_virtual_ms += other.backoff_virtual_ms;
        self.panics += other.panics;
        self.breaker_opened += other.breaker_opened;
        self.breaker_skips += other.breaker_skips;
    }

    /// Charge the retries of a cell that took `attempts` attempts: every
    /// attempt before the last was a transient retry.
    fn charge_retries(&mut self, policy: &RetryPolicy, attempts: u32) {
        for failures in 1..attempts {
            self.retries += 1;
            self.backoff_virtual_ms += policy.backoff_ms(failures);
        }
    }
}

/// Failure counts for one vantage point, by taxonomy class.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct RegionFailures {
    /// Region label ([`Region::label`]).
    pub region: String,
    /// Dead origins (including breaker skips).
    pub unreachable: usize,
    /// Connection resets that survived every retry.
    pub connection_reset: usize,
    /// Navigations that stalled past the timeout budget on every attempt.
    pub timeout: usize,
    /// Persistent 5xx answers.
    pub server_error: usize,
    /// Definitive 4xx answers (never retried).
    pub client_error: usize,
    /// Truncated top-document transfers.
    pub truncated: usize,
    /// Analysis panics converted to failure records.
    pub panic: usize,
    /// Records abandoned only after retrying (subset of the above).
    pub gave_up: usize,
    /// Records rescued by a retry after ≥1 failed attempt.
    pub retried_ok: usize,
}

impl RegionFailures {
    /// Total failed records for this region.
    pub fn total(&self) -> usize {
        self.unreachable
            + self.connection_reset
            + self.timeout
            + self.server_error
            + self.client_error
            + self.truncated
            + self.panic
    }
}

/// The §4-style failure taxonomy of a sweep: what the crawl could not
/// measure, and why, per vantage point. Deterministic for a fixed
/// population, fault seed, and retry budget.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct FailureTaxonomy {
    /// Per-region counts, in [`Region::ALL`] order.
    pub per_region: Vec<RegionFailures>,
    /// Failed records across all regions.
    pub total_failures: usize,
    /// Records abandoned only after retrying, across all regions.
    pub gave_up: usize,
    /// Records rescued by retries, across all regions.
    pub retried_ok: usize,
}

impl FailureTaxonomy {
    /// Aggregate the taxonomy from finished vantage crawls.
    pub fn from_crawls(crawls: &[VantageCrawl]) -> Self {
        let mut per_region = Vec::with_capacity(crawls.len());
        for crawl in crawls {
            let mut rf = RegionFailures {
                region: crawl.region.label().to_string(),
                ..RegionFailures::default()
            };
            for record in &crawl.records {
                match record.failure {
                    Some(FailureKind::Unreachable) => rf.unreachable += 1,
                    Some(FailureKind::ConnectionReset) => rf.connection_reset += 1,
                    Some(FailureKind::Timeout) => rf.timeout += 1,
                    Some(FailureKind::ServerError) => rf.server_error += 1,
                    Some(FailureKind::ClientError) => rf.client_error += 1,
                    Some(FailureKind::Truncated) => rf.truncated += 1,
                    Some(FailureKind::Panic) => rf.panic += 1,
                    None => {}
                }
                if record.gave_up() {
                    rf.gave_up += 1;
                }
                if record.retried_ok() {
                    rf.retried_ok += 1;
                }
            }
            per_region.push(rf);
        }
        let total_failures = per_region.iter().map(RegionFailures::total).sum();
        let gave_up = per_region.iter().map(|r| r.gave_up).sum();
        let retried_ok = per_region.iter().map(|r| r.retried_ok).sum();
        FailureTaxonomy {
            per_region,
            total_failures,
            gave_up,
            retried_ok,
        }
    }

    /// True when nothing failed and no retry was ever needed.
    pub fn is_clean(&self) -> bool {
        self.total_failures == 0 && self.retried_ok == 0
    }

    /// Human-readable table, one region per line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "failure taxonomy: {} failed records ({} gave up after retries), {} rescued by retries\n",
            self.total_failures, self.gave_up, self.retried_ok
        );
        for r in &self.per_region {
            out.push_str(&format!(
                "  {:<13} {:>3} failed (unreachable {}, reset {}, timeout {}, 5xx {}, 4xx {}, truncated {}, panic {}), {} rescued\n",
                r.region,
                r.total(),
                r.unreachable,
                r.connection_reset,
                r.timeout,
                r.server_error,
                r.client_error,
                r.truncated,
                r.panic,
                r.retried_ok,
            ));
        }
        out
    }
}

/// What a multi-region sweep observed.
#[derive(Debug, Clone, Default)]
pub struct CrawlMetrics {
    /// Worker threads in the pool.
    pub workers: usize,
    /// `(region, domain)` cells completed (crawled or restored).
    pub tasks_completed: usize,
    /// Cells whose document the task's page memo already held.
    pub cache_hits: usize,
    /// Cells that did the full load + analysis.
    pub cache_misses: usize,
    /// Wall-clock for the whole sweep, milliseconds.
    pub wall_ms: u64,
    /// Summed per-task busy time across workers, microseconds.
    pub busy_us: u64,
    /// Navigation retries spent across the sweep.
    pub retries: u64,
    /// Exponential backoff charged across all retries, virtual ms.
    pub backoff_virtual_ms: u64,
    /// Worker panics converted to failure records.
    pub panics: usize,
    /// Hosts whose circuit breaker opened.
    pub breaker_open_hosts: usize,
    /// `(region, host)` attempts skipped by an open breaker.
    pub breaker_skips: usize,
    /// Requests that hit no registered host during the sweep
    /// ([`httpsim::NetworkStats::unresolved`] delta).
    pub unresolved_requests: u64,
    /// Failure taxonomy aggregated over every vantage point.
    pub failures: FailureTaxonomy,
}

impl CrawlMetrics {
    /// Busy time / available worker time: 1.0 means no worker ever idled.
    pub fn utilization(&self) -> f64 {
        let available = self.wall_ms as f64 * 1000.0 * self.workers.max(1) as f64;
        if available == 0.0 {
            return 0.0;
        }
        (self.busy_us as f64 / available).min(1.0)
    }

    /// Page-memo hits / cells, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.tasks_completed == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / self.tasks_completed as f64
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "crawl sweep: {} cells on {} workers in {} ms ({:.0}% utilization), page memo {} hits / {} misses ({:.0}% hit rate)\n",
            self.tasks_completed,
            self.workers,
            self.wall_ms,
            self.utilization() * 100.0,
            self.cache_hits,
            self.cache_misses,
            self.hit_rate() * 100.0
        );
        out.push_str(&format!(
            "resilience: {} retries ({} virtual ms backoff), {} unresolved requests, {} panics, breaker opened for {} hosts ({} skips)\n",
            self.retries,
            self.backoff_virtual_ms,
            self.unresolved_requests,
            self.panics,
            self.breaker_open_hosts,
            self.breaker_skips,
        ));
        if !self.failures.is_clean() {
            out.push_str(&self.failures.render());
        }
        out
    }
}

/// One vantage point's crawl over the full target list.
#[derive(Debug)]
pub struct VantageCrawl {
    /// Where the crawl ran from.
    pub region: Region,
    /// Per-domain records, in target-list order.
    pub records: Vec<CrawlRecord>,
}

impl VantageCrawl {
    /// Records classified as cookiewalls.
    pub fn detected_walls(&self) -> impl Iterator<Item = &CrawlRecord> {
        self.records.iter().filter(|r| r.cookiewall)
    }

    /// Number of detected cookiewalls.
    pub fn wall_count(&self) -> usize {
        self.detected_walls().count()
    }
}

/// Sweep-wide resilience state: the policy and the shared breaker.
/// Resilience *counters* (retries, backoff, panics) live in each worker's
/// private [`WorkerCounters`], off the hot path.
struct Resilience {
    policy: RetryPolicy,
    breaker: CircuitBreaker,
}

impl Resilience {
    fn new(policy: &RetryPolicy) -> Self {
        // With retries off the breaker must stay off too: it exists to cap
        // *retry* spend on dead hosts, and a single-shot crawl has none to
        // cap — opening it would only make records order-dependent.
        let threshold = if policy.max_retries == 0 {
            0
        } else {
            policy.breaker_threshold
        };
        Resilience {
            policy: policy.clone(),
            breaker: CircuitBreaker::new(threshold),
        }
    }
}

/// How one cell ended under [`with_retries`].
enum Tried<T> {
    /// The host's breaker was open: nothing was dispatched.
    Skipped,
    /// An attempt succeeded.
    Done(T),
    /// The last attempt failed for good; `opened` if this give-up opened
    /// the host's breaker.
    GaveUp { kind: FailureKind, opened: bool },
    /// An attempt panicked.
    Panicked,
}

/// Run `attempt` for `domain` under `res`: skip it while the host's
/// breaker is open, retry transient errors up to the policy's budget,
/// catch a panic, and report an unresolved give-up to the breaker.
/// Returns the outcome and the number of attempts made; every attempt
/// before the last was a transient retry.
fn with_retries<T>(
    res: &Resilience,
    domain: &str,
    mut attempt: impl FnMut() -> Result<T, FetchError>,
) -> (Tried<T>, u32) {
    let host_key = httpsim::registrable_domain(domain).unwrap_or(domain);
    if res.breaker.is_open(host_key) {
        return (Tried::Skipped, 0);
    }
    let mut attempts: u32 = 0;
    loop {
        attempts += 1;
        let tried = match catch_unwind(AssertUnwindSafe(&mut attempt)) {
            Err(_) => Tried::Panicked,
            Ok(Ok(value)) => Tried::Done(value),
            Ok(Err(err)) => {
                if err.is_transient() && attempts <= res.policy.max_retries {
                    continue;
                }
                let kind = FailureKind::from_error(&err);
                let opened = kind == FailureKind::Unreachable
                    && res.breaker.record_unresolved_giveup(host_key);
                Tried::GaveUp { kind, opened }
            }
        };
        return (tried, attempts);
    }
}

/// Run `task` once per target (given with its index) on `workers` scoped
/// threads. Each worker claims the next target from a shared atomic cursor
/// and keeps its own state, built by `init`. Returns the results in target
/// order (`None`
/// where a worker died outside its task's panic guard) and the final
/// state of every worker that finished.
pub(crate) fn claim_pool<S: Send, R: Send>(
    targets: &[String],
    workers: usize,
    init: impl Fn() -> S + Sync,
    task: impl Fn(&mut S, usize, &str) -> R + Sync,
) -> (Vec<Option<R>>, Vec<S>) {
    let next = AtomicUsize::new(0);
    let slots: Vec<parking_lot::Mutex<Option<R>>> = targets
        .iter()
        .map(|_| parking_lot::Mutex::new(None))
        .collect();
    let (init, task, next, slots_ref) = (&init, &task, &next, &slots);
    let states = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                scope.spawn(move |_| {
                    let mut state = init();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= targets.len() {
                            break;
                        }
                        let result = task(&mut state, i, &targets[i]);
                        *slots_ref[i].lock() = Some(result);
                    }
                    state
                })
            })
            .collect();
        // A dead worker's state is lost; its unclaimed slots stay empty.
        handles
            .into_iter()
            .filter_map(|h| h.join().ok())
            .collect::<Vec<S>>()
    })
    .unwrap_or_default();
    let results = slots.into_iter().map(|slot| slot.into_inner()).collect();
    (results, states)
}

/// Checkpoint/abort behaviour for a persistent sweep.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Flush buffered store writes to disk every N newly completed cells
    /// (per-put granularity; `0` flushes on every put).
    pub every: usize,
    /// Test hook: stop claiming work once N *new* (non-restored) cells
    /// have completed, leaving the buffered tail unflushed — simulating a
    /// kill at an arbitrary point. `Some(0)` aborts before any work.
    pub abort_after: Option<usize>,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            every: store::DEFAULT_CHECKPOINT_EVERY,
            abort_after: None,
        }
    }
}

/// Crawl `targets` from every region in `regions` with `workers` parallel
/// workers under `policy` — Table 1's measurement when `regions` is
/// [`Region::ALL`].
///
/// Returns one [`VantageCrawl`] per region, in `regions` order, and what
/// the sweep observed. Each domain is visited with a fresh cookie state
/// (profiles are reused across domains but cleared, like the paper's
/// stateless crawl). The records depend neither on `workers` nor on how
/// the regions are split across calls: one call per region gives the same
/// records, only without sharing page work across vantage points. (Only
/// the serde-skipped `attempts` can differ: a sweep's shared breaker skips
/// a host that an earlier region proved dead.)
pub fn crawl_regions(
    net: &Network,
    regions: &[Region],
    targets: &[String],
    tool: &BannerClick,
    workers: usize,
    policy: &RetryPolicy,
) -> (Vec<VantageCrawl>, CrawlMetrics) {
    let (crawls, metrics) = Sweep::new(net, regions, tool, policy, None).run(targets, workers);
    // Only a store's checkpoint policy can abort a sweep.
    (crawls.unwrap_or_default(), metrics)
}

/// [`crawl_regions`] over [`Region::ALL`], persisting every completed cell
/// into `store` and restoring already-stored cells instead of recomputing
/// them. A cell's store region is its [`Region::ALL`] index.
///
/// Returns `(None, metrics)` when the sweep aborted early via
/// [`CheckpointPolicy::abort_after`]; otherwise the crawls are complete,
/// the store holds every `(region, domain)` cell, and a final checkpoint
/// has flushed the journal.
///
/// ## Byte-identical resume
///
/// A resumed sweep must produce the same report as an uninterrupted one,
/// and reports depend on origin-side per-site visit counters (they seed
/// the per-visit cookie noise the measure phase consumes). A restored
/// *reachable* cell therefore replays exactly one successful navigation —
/// same retry policy, same fault schedule — so the origin observes the
/// same visit it observed in the interrupted run; the expensive
/// load/parse/analysis is skipped and the stored record reused. Restored
/// *failure* cells replay nothing: their attempts never produced a
/// successful fetch, and the deterministic fault plan would re-inject the
/// same failures before any attempt reached the origin.
pub fn crawl_regions_persistent(
    net: &Network,
    targets: &[String],
    tool: &BannerClick,
    workers: usize,
    policy: &RetryPolicy,
    store: &Store,
    checkpoint: &CheckpointPolicy,
) -> std::io::Result<(Option<Vec<VantageCrawl>>, CrawlMetrics)> {
    store.set_checkpoint_every(checkpoint.every);
    let sweep = Sweep::new(net, &Region::ALL, tool, policy, Some((store, checkpoint)));
    let (crawls, metrics) = sweep.run(targets, workers);
    if crawls.is_some() {
        // Durability point: every cell is in the store, flush the tail.
        // A failed flush is a real durability loss — unlike a single
        // failed put, the whole journal tail may be unsynced — so it
        // surfaces to the caller instead of being discarded.
        store.checkpoint()?;
    }
    Ok((crawls, metrics))
}

/// One sweep: what every worker shares.
struct Sweep<'a> {
    net: &'a Network,
    regions: &'a [Region],
    tool: &'a BannerClick,
    /// The sweep's retry policy and circuit breaker.
    res: Resilience,
    /// The same retry policy with the breaker off, for replays.
    replay: Resilience,
    /// The store and checkpoint policy of a persistent sweep.
    store: Option<(&'a Store, &'a CheckpointPolicy)>,
    /// New (non-restored) cells completed, for the abort hook.
    new_cells: AtomicUsize,
    aborted: AtomicBool,
}

/// One worker of a sweep: a profile per region, the page memo of the
/// domain in hand, and its private counters.
struct SweepWorker {
    /// Lazily built profile per region, in the sweep's region order.
    browsers: Vec<Option<Browser>>,
    /// Each distinct document fetched for the current domain, with its
    /// record: at most one entry per region, cleared after every task.
    memo: Vec<(FetchedDocument, CrawlRecord)>,
    counters: WorkerCounters,
}

impl<'a> Sweep<'a> {
    fn new(
        net: &'a Network,
        regions: &'a [Region],
        tool: &'a BannerClick,
        policy: &RetryPolicy,
        store: Option<(&'a Store, &'a CheckpointPolicy)>,
    ) -> Self {
        let replay = RetryPolicy {
            breaker_threshold: 0,
            ..policy.clone()
        };
        Sweep {
            net,
            regions,
            tool,
            res: Resilience::new(policy),
            replay: Resilience::new(&replay),
            store,
            new_cells: AtomicUsize::new(0),
            aborted: AtomicBool::new(store.is_some_and(|(_, c)| c.abort_after == Some(0))),
        }
    }

    /// Run every domain of `targets` as one task on `workers` threads.
    /// The crawls are `None` when the abort hook fired.
    fn run(&self, targets: &[String], workers: usize) -> (Option<Vec<VantageCrawl>>, CrawlMetrics) {
        let workers = workers.max(1);
        // lint:allow(determinism) — wall-clock here feeds CrawlMetrics only, which is serde-skipped and never serialized into reports
        let start = Instant::now();
        let unresolved_before = self.net.stats().unresolved();
        // Region-major result cells, so each region's records are
        // collected without holding a second copy of the whole sweep.
        let cells: Vec<Vec<parking_lot::Mutex<Option<CrawlRecord>>>> = self
            .regions
            .iter()
            .map(|_| {
                targets
                    .iter()
                    .map(|_| parking_lot::Mutex::new(None))
                    .collect()
            })
            .collect();
        let (_, states) = claim_pool(
            targets,
            workers,
            || SweepWorker {
                browsers: self.regions.iter().map(|_| None).collect(),
                memo: Vec::new(),
                counters: WorkerCounters::default(),
            },
            |worker, i, domain| {
                // lint:allow(determinism) — per-task busy time is diagnostic-only metrics, excluded from serialized output
                let task_start = Instant::now();
                // One task: the domain from every region in order, then
                // its pages are forgotten.
                for (r, column) in cells.iter().enumerate() {
                    if self.aborted.load(Ordering::Relaxed) {
                        break;
                    }
                    *column[i].lock() = Some(self.cell(worker, r, domain));
                }
                worker.memo.clear();
                worker.counters.busy_us += task_start.elapsed().as_micros() as u64;
            },
        );
        let mut merged = WorkerCounters::default();
        for state in &states {
            merged.merge(&state.counters);
        }
        // A worker can only die outside the per-cell panic guard through a
        // bug; its missing cells become panic records, so the sweep
        // degrades instead of unwinding.
        let crawls = (!self.aborted.load(Ordering::Relaxed)).then(|| {
            cells
                .into_iter()
                .zip(self.regions)
                .map(|(column, &region)| VantageCrawl {
                    region,
                    records: column
                        .into_iter()
                        .zip(targets)
                        .map(|(cell, domain)| {
                            cell.into_inner()
                                .unwrap_or_else(|| failure_record(domain, FailureKind::Panic, 1))
                        })
                        .collect(),
                })
                .collect()
        });
        let failures = crawls
            .as_deref()
            .map(FailureTaxonomy::from_crawls)
            .unwrap_or_default();
        let metrics = CrawlMetrics {
            workers,
            tasks_completed: merged.tasks,
            cache_hits: merged.cache_hits,
            cache_misses: merged.cache_misses,
            wall_ms: start.elapsed().as_millis() as u64,
            busy_us: merged.busy_us,
            retries: merged.retries,
            backoff_virtual_ms: merged.backoff_virtual_ms,
            panics: merged.panics,
            breaker_open_hosts: merged.breaker_opened,
            breaker_skips: merged.breaker_skips,
            unresolved_requests: self
                .net
                .stats()
                .unresolved()
                .saturating_sub(unresolved_before),
            failures,
        };
        (crawls, metrics)
    }

    /// One `(region, domain)` cell: restored from the store (and replayed)
    /// when a persistent sweep already holds it, crawled (and persisted)
    /// otherwise.
    fn cell(&self, worker: &mut SweepWorker, r: usize, domain: &str) -> CrawlRecord {
        worker.counters.tasks += 1;
        let Some((store, checkpoint)) = self.store else {
            return self.crawl_one(worker, r, domain);
        };
        // A payload that fails to decode (codec version skew) degrades to
        // a recompute of the cell.
        let restored = store
            .get(r as u8, domain)
            .and_then(|bytes| crate::persist::decode_record(&bytes).ok())
            .filter(|record| record.domain == domain);
        if let Some(record) = restored {
            self.replay_restored(worker, r, domain, &record);
            return record;
        }
        let record = self.crawl_one(worker, r, domain);
        // A failed put is a durability loss, not a correctness loss: the
        // journal stays valid (open() truncates any torn tail) and resume
        // simply recomputes the cell.
        // lint:allow(r11) — per-cell put loss is recoverable by design: resume recomputes the cell
        let _ = store.put(r as u8, domain, &crate::persist::encode_record(&record));
        let done = self.new_cells.fetch_add(1, Ordering::Relaxed) + 1;
        if checkpoint.abort_after.is_some_and(|limit| done >= limit) {
            self.aborted.store(true, Ordering::Relaxed);
        }
        record
    }

    /// Region `r`'s profile of this worker, built on first use, with its
    /// cookies cleared for a fresh visit.
    fn profile<'b>(&self, slot: &'b mut Option<Browser>, r: usize) -> &'b mut Browser {
        let browser = slot.get_or_insert_with(|| Browser::new(self.net.clone(), self.regions[r]));
        browser.clear_cookies();
        browser
    }

    /// Crawl one cell to a record, applying the retry policy and converting
    /// panics into failure records. A document whose body the memo already
    /// holds reuses that record; any other is loaded, analyzed and memoized.
    ///
    /// The region's profile is discarded after a panic (the pipeline may
    /// have left it in an arbitrary half-updated state) and lazily rebuilt
    /// on the next cell.
    fn crawl_one(&self, worker: &mut SweepWorker, r: usize, domain: &str) -> CrawlRecord {
        let SweepWorker {
            browsers,
            memo,
            counters,
        } = worker;
        let (tried, attempts) = with_retries(&self.res, domain, || {
            let browser = self.profile(&mut browsers[r], r);
            let fetched = browser.fetch_domain_document(domain)?;
            if let Some((_, record)) = memo.iter().find(|(doc, _)| doc.body() == fetched.body()) {
                counters.cache_hits += 1;
                return Ok(record.clone());
            }
            counters.cache_misses += 1;
            let mut page = browser.load_fetched(&fetched)?;
            let record = record_from_page(self.tool, domain, &mut page);
            memo.push((fetched, record.clone()));
            Ok(record)
        });
        counters.charge_retries(&self.res.policy, attempts);
        match tried {
            Tried::Skipped => {
                counters.breaker_skips += 1;
                failure_record(domain, FailureKind::Unreachable, 0)
            }
            Tried::Done(mut record) => {
                record.attempts = attempts;
                record
            }
            Tried::GaveUp { kind, opened } => {
                counters.breaker_opened += usize::from(opened);
                failure_record(domain, kind, attempts)
            }
            Tried::Panicked => {
                browsers[r] = None;
                counters.panics += 1;
                failure_record(domain, FailureKind::Panic, attempts)
            }
        }
    }

    /// Re-drive the origin-visible side effects of a restored reachable
    /// cell: one successful navigation under the sweep's retry policy,
    /// without the load/parse/analysis that the stored record already
    /// holds. The fetched document is memoized with the stored record, so
    /// later regions of this domain share it exactly as they would have
    /// shared the computed record.
    ///
    /// The replay's breaker is off: it neither checks nor feeds the
    /// sweep's. The original run fetched this cell successfully, so under
    /// the deterministic fault plan the replay succeeds too; the stored
    /// record is kept either way, and a panic only drops the profile.
    fn replay_restored(
        &self,
        worker: &mut SweepWorker,
        r: usize,
        domain: &str,
        record: &CrawlRecord,
    ) {
        if !record.reachable {
            // Failure cells never completed a fetch: the origin saw no visit,
            // so there is nothing to replay.
            return;
        }
        let SweepWorker {
            browsers,
            memo,
            counters,
        } = worker;
        let (tried, attempts) = with_retries(&self.replay, domain, || {
            self.profile(&mut browsers[r], r)
                .fetch_domain_document(domain)
        });
        counters.charge_retries(&self.replay.policy, attempts);
        match tried {
            Tried::Done(fetched) => {
                if !memo.iter().any(|(doc, _)| doc.body() == fetched.body()) {
                    memo.push((fetched, record.clone()));
                }
            }
            Tried::Panicked => browsers[r] = None,
            Tried::Skipped | Tried::GaveUp { .. } => {}
        }
    }
}

/// One browser configuration of a [`crawl_variants`] pass.
#[derive(Debug, Clone)]
pub struct CrawlVariant {
    /// User agent the variant's browser presents.
    pub user_agent: String,
    /// Detector and corpus configuration.
    pub tool: BannerClick,
    /// Retry/backoff/breaker behaviour (each variant has its own breaker).
    pub retry: RetryPolicy,
}

impl CrawlVariant {
    /// The configuration of a [`crawl_regions`] sweep under
    /// [`RetryPolicy::default`]: default user agent and retry policy.
    pub fn new(tool: BannerClick) -> Self {
        CrawlVariant {
            user_agent: httpsim::DEFAULT_USER_AGENT.to_string(),
            tool,
            retry: RetryPolicy::default(),
        }
    }
}

/// What a multi-variant pass keeps of one `(variant, domain)` cell.
/// An unreachable cell (failed navigation, open breaker, panic) is the
/// all-false default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// The site answered.
    pub reachable: bool,
    /// A banner of any kind was detected.
    pub banner: bool,
    /// The banner was classified as a cookiewall.
    pub cookiewall: bool,
}

/// Page work a multi-variant pass did, kept per worker and merged once
/// after the join, like [`WorkerCounters`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassCounters {
    /// Pages loaded ([`Browser::load_fetched`]).
    pub loads: u64,
    /// [`detect_banners`] runs.
    pub detects: u64,
    /// [`classify_wall`] runs.
    pub classifies: u64,
}

impl PassCounters {
    /// Fold another worker's counters into this one.
    pub fn merge(&mut self, other: &PassCounters) {
        self.loads += other.loads;
        self.detects += other.detects;
        self.classifies += other.classifies;
    }
}

/// The result of a [`crawl_variants`] pass.
#[derive(Debug)]
pub struct VariantPass {
    /// `verdicts[v][i]` is variant `v` on target `i`.
    pub verdicts: Vec<Vec<Verdict>>,
    /// The merged per-worker counters.
    pub counters: PassCounters,
}

/// Crawl `targets` from `region` under every variant in one pass.
///
/// Each domain is one task: the worker dispatches the variants'
/// navigations in variant order, each on the variant's own profile and
/// under its own retry loop and breaker, exactly as a separate
/// one-region [`crawl_regions`] call per variant would per domain. Origin visit counters and
/// the fault plan's per-cell attempt ordinals therefore end where those
/// calls would leave them. Only the page work is shared, as the module
/// docs describe: each attempt starts from a reset profile, so loads of
/// byte-identical documents under one user agent are the same load.
pub fn crawl_variants(
    net: &Network,
    region: Region,
    targets: &[String],
    workers: usize,
    variants: &[CrawlVariant],
) -> VariantPass {
    let breakers: Vec<Resilience> = variants.iter().map(|v| Resilience::new(&v.retry)).collect();
    let (rows, workers) = claim_pool(
        targets,
        workers,
        || PassWorker {
            net,
            region,
            variants,
            browsers: variants.iter().map(|_| None).collect(),
            pages: Vec::new(),
            detections: Vec::new(),
            classes: Vec::new(),
            counters: PassCounters::default(),
        },
        |worker, _, domain| worker.crawl_domain(&breakers, domain),
    );

    let mut counters = PassCounters::default();
    for worker in &workers {
        counters.merge(&worker.counters);
    }
    // Panics are caught per cell; a worker dying anyway leaves its slots
    // empty, which become unreachable rows.
    let mut verdicts = vec![Vec::with_capacity(targets.len()); variants.len()];
    for row in rows {
        let row = row.unwrap_or_else(|| vec![Verdict::default(); variants.len()]);
        for (column, verdict) in verdicts.iter_mut().zip(row) {
            column.push(verdict);
        }
    }
    VariantPass { verdicts, counters }
}

/// A page loaded for the domain in hand.
struct LoadedPage<'a> {
    /// User agent of the variant that loaded it.
    user_agent: &'a str,
    /// The fetched document; a variant shares the page only on equal bytes.
    document: browser::FetchedDocument,
    page: browser::Page,
}

/// One worker of a [`crawl_variants`] pass: a profile per variant plus
/// the current domain's pages, detections and classifications.
struct PassWorker<'a> {
    net: &'a Network,
    region: Region,
    variants: &'a [CrawlVariant],
    /// Lazily built profile per variant; all dropped after a panic.
    browsers: Vec<Option<Browser>>,
    pages: Vec<LoadedPage<'a>>,
    /// `(page index, detector options, first banner's text)`.
    detections: Vec<(usize, &'a DetectorOptions, Option<String>)>,
    /// `(detection index, corpus mode, is a cookiewall)`.
    classes: Vec<(usize, CorpusMode, bool)>,
    counters: PassCounters,
}

impl<'a> PassWorker<'a> {
    /// Crawl one domain under every variant, in variant order.
    fn crawl_domain(&mut self, breakers: &[Resilience], domain: &str) -> Vec<Verdict> {
        let row = breakers
            .iter()
            .enumerate()
            .map(|(v, res)| self.crawl_cell(res, v, domain))
            .collect();
        self.forget_domain();
        row
    }

    fn forget_domain(&mut self) {
        self.pages.clear();
        self.detections.clear();
        self.classes.clear();
    }

    /// One `(variant, domain)` cell under the variant's retry loop and
    /// breaker, with [`crawl_one`]'s semantics.
    fn crawl_cell(&mut self, res: &Resilience, v: usize, domain: &str) -> Verdict {
        match with_retries(res, domain, || self.attempt(v, domain)).0 {
            Tried::Done(verdict) => verdict,
            Tried::Panicked => {
                // Any profile or shared page may be half-updated.
                self.browsers.iter_mut().for_each(|b| *b = None);
                self.forget_domain();
                Verdict::default()
            }
            Tried::Skipped | Tried::GaveUp { .. } => Verdict::default(),
        }
    }

    /// One navigation attempt of variant `v`, reusing this domain's page,
    /// detection and classification work where the variant allows.
    fn attempt(&mut self, v: usize, domain: &str) -> Result<Verdict, FetchError> {
        let variant: &'a CrawlVariant = &self.variants[v];
        let browser = self.browsers[v].get_or_insert_with(|| {
            Browser::new(self.net.clone(), self.region).with_user_agent(variant.user_agent.clone())
        });
        // A pass never clicks, and clicking is the only thing that writes
        // localStorage, so clearing cookies leaves a fully fresh profile:
        // the same reset as `clear_all_data`.
        debug_assert_eq!(browser.storage().origin_count(), 0);
        browser.clear_cookies();
        let fetched = browser.fetch_domain_document(domain)?;
        let p =
            match self.pages.iter().position(|l| {
                l.user_agent == variant.user_agent && l.document.body() == fetched.body()
            }) {
                Some(p) => p,
                None => {
                    // A reset profile holds no SMP session, so the load never
                    // re-navigates (the entitlement reload): a variant reusing
                    // this page skips no navigation.
                    let page = browser.load_fetched(&fetched)?;
                    self.counters.loads += 1;
                    self.pages.push(LoadedPage {
                        user_agent: &variant.user_agent,
                        document: fetched,
                        page,
                    });
                    self.pages.len() - 1
                }
            };

        let options = &variant.tool.detector;
        let d = match self
            .detections
            .iter()
            .position(|&(page, o, _)| page == p && o == options)
        {
            Some(d) => d,
            None => {
                let findings = detect_banners(&mut self.pages[p].page, options);
                self.counters.detects += 1;
                let text = findings.into_iter().next().map(|b| b.text);
                self.detections.push((p, options, text));
                self.detections.len() - 1
            }
        };
        let Some(text) = self.detections[d].2.as_deref() else {
            return Ok(Verdict {
                reachable: true,
                ..Verdict::default()
            });
        };

        let corpus = variant.tool.corpus;
        let known = self.classes.iter().find(|&&(dd, mode, _)| {
            mode == corpus && self.detections[dd].2.as_deref() == Some(text)
        });
        let cookiewall = match known {
            Some(&(_, _, wall)) => wall,
            None => {
                let wall = classify_wall(text, corpus).is_cookiewall;
                self.counters.classifies += 1;
                self.classes.push((d, corpus, wall));
                wall
            }
        };
        Ok(Verdict {
            reachable: true,
            banner: true,
            cookiewall,
        })
    }
}

fn record_from_page(tool: &BannerClick, domain: &str, page: &mut browser::Page) -> CrawlRecord {
    let analysis = tool.analyze_page(domain, page);
    // Language identification over page prose plus banner copy —
    // the CLD3 step of §4.1.
    let mut text = page.main_text();
    if let Some(b) = &analysis.banner {
        text.push(' ');
        text.push_str(&b.text);
    }
    let language = langid::detect(&text).map(|d| d.language.code());
    CrawlRecord {
        domain: domain.to_string(),
        reachable: true,
        banner: analysis.banner_detected(),
        cookiewall: analysis.cookiewall_detected(),
        embedding: analysis.embedding(),
        monthly_eur: analysis.price().map(|p| p.monthly_eur),
        provider: analysis.provider.clone(),
        language,
        attempts: 1,
        failure: None,
    }
}

fn failure_record(domain: &str, kind: FailureKind, attempts: u32) -> CrawlRecord {
    CrawlRecord {
        domain: domain.to_string(),
        reachable: false,
        banner: false,
        cookiewall: false,
        embedding: None,
        monthly_eur: None,
        provider: None,
        language: None,
        attempts,
        failure: Some(kind),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use webgen::{Population, PopulationConfig};

    fn install_tiny() -> (Arc<Population>, Network) {
        let pop = Arc::new(Population::generate(PopulationConfig::tiny()));
        let net = Network::new();
        webgen::server::install(Arc::clone(&pop), &net);
        (pop, net)
    }

    /// One region's crawl under the default retry policy.
    fn crawl_region(
        net: &Network,
        region: Region,
        targets: &[String],
        tool: &BannerClick,
        workers: usize,
    ) -> VantageCrawl {
        let (mut crawls, _) = crawl_regions(
            net,
            &[region],
            targets,
            tool,
            workers,
            &RetryPolicy::default(),
        );
        crawls.remove(0)
    }

    /// Render a record including the serde-skipped embedding and failure
    /// class, so equality checks really cover every observation — but not
    /// `attempts`, which legitimately differs between per-region crawls
    /// (retries exhausted per region) and one sweep with a shared breaker
    /// (later regions skip a proven-dead host).
    fn fingerprint(records: &[CrawlRecord]) -> String {
        records
            .iter()
            .map(|r| {
                format!(
                    "{} reachable={} banner={} wall={} embedding={:?} eur={:?} provider={:?} lang={:?} failure={:?}\n",
                    r.domain,
                    r.reachable,
                    r.banner,
                    r.cookiewall,
                    r.embedding,
                    r.monthly_eur,
                    r.provider,
                    r.language,
                    r.failure,
                )
            })
            .collect()
    }

    #[test]
    fn parallel_crawl_matches_serial() {
        let (pop, net) = install_tiny();
        let targets: Vec<String> = pop.merged_targets().into_iter().take(60).collect();
        let tool = BannerClick::new();
        let serial = crawl_region(&net, Region::Germany, &targets, &tool, 1);
        let parallel = crawl_region(&net, Region::Germany, &targets, &tool, 4);
        assert_eq!(serial.records.len(), parallel.records.len());
        for (a, b) in serial.records.iter().zip(&parallel.records) {
            assert_eq!(a.domain, b.domain);
            assert_eq!(a.cookiewall, b.cookiewall, "{}", a.domain);
            assert_eq!(a.banner, b.banner, "{}", a.domain);
        }
    }

    #[test]
    fn scheduler_matches_serial_for_all_regions() {
        let (pop, net) = install_tiny();
        let targets = pop.merged_targets();
        let tool = BannerClick::new();
        // The serial reference: one call per region, where no page work
        // can be shared across vantage points.
        let serial: Vec<VantageCrawl> = Region::ALL
            .iter()
            .map(|&region| crawl_region(&net, region, &targets, &tool, 1))
            .collect();
        let (swept, metrics) = crawl_regions(
            &net,
            &Region::ALL,
            &targets,
            &tool,
            4,
            &RetryPolicy::default(),
        );
        assert_eq!(swept.len(), Region::ALL.len());
        assert_eq!(metrics.tasks_completed, Region::ALL.len() * targets.len());
        for (s, p) in serial.iter().zip(&swept) {
            assert_eq!(s.region, p.region);
            assert_eq!(
                fingerprint(&s.records),
                fingerprint(&p.records),
                "region {} must be byte-identical to the serial crawl",
                s.region.label()
            );
        }
        assert!(
            metrics.cache_hits > 0,
            "EU vantage points serve identical documents; hits expected"
        );
    }

    #[test]
    fn scheduler_metrics_are_consistent() {
        let (pop, net) = install_tiny();
        let targets: Vec<String> = pop.merged_targets().into_iter().take(40).collect();
        let tool = BannerClick::new();
        let (crawls, metrics) = crawl_regions(
            &net,
            &Region::ALL,
            &targets,
            &tool,
            3,
            &RetryPolicy::default(),
        );
        assert_eq!(metrics.workers, 3);
        assert_eq!(
            metrics.cache_hits + metrics.cache_misses,
            metrics.tasks_completed
        );
        for (crawl, region) in crawls.iter().zip(Region::ALL) {
            assert_eq!(crawl.region, region);
            assert_eq!(crawl.records.len(), targets.len());
        }
        // The memo is cleared per domain, so a domain misses at most once
        // per region and at least once.
        assert!(metrics.cache_misses >= targets.len());
        let util = metrics.utilization();
        assert!((0.0..=1.0).contains(&util), "utilization {util}");
        assert!(metrics.hit_rate() > 0.0);
        assert!(metrics.render().contains("crawl sweep"));
    }

    #[test]
    fn eu_sees_more_walls_than_non_eu() {
        let pop = Arc::new(Population::generate(PopulationConfig::small()));
        let net = Network::new();
        webgen::server::install(Arc::clone(&pop), &net);
        let targets = pop.merged_targets();
        let tool = BannerClick::new();
        let (crawls, _) = crawl_regions(
            &net,
            &[Region::Germany, Region::UsEast],
            &targets,
            &tool,
            4,
            &RetryPolicy::default(),
        );
        let (de, us) = (&crawls[0], &crawls[1]);
        assert_eq!((de.region, us.region), (Region::Germany, Region::UsEast));
        assert!(
            de.wall_count() > us.wall_count(),
            "DE {} vs US {}",
            de.wall_count(),
            us.wall_count()
        );
    }
}
