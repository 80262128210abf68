//! What every workload shares: the world, the pinned report digests,
//! statistics, the metric catalogue, the result line, and the closed-loop
//! read-back over a sealed store.

use analysis::crawl::VantageCrawl;
use analysis::persist::encode_record;
use analysis::query::{self, Query};
use analysis::{Study, StudyReport};
use httpsim::Region;
use serve::{QueryService, RequestStream, Response};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;
use store::{StoreRead, StoreSnapshot};
use webgen::PopulationConfig;

/// Which population the workloads build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum World {
    /// Paper structure at a quarter of its size: 11,310 targets, 72
    /// ground-truth walls at epoch 0. The benchmark's world.
    Quarter,
    /// `PopulationConfig::tiny()`: for the smoke tests only.
    Tiny,
}

impl World {
    pub fn parse(s: &str) -> Option<World> {
        match s {
            "quarter" => Some(World::Quarter),
            "tiny" => Some(World::Tiny),
            _ => None,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            World::Quarter => "quarter",
            World::Tiny => "tiny",
        }
    }

    /// A request count of the quarter world, scaled to this world (the
    /// tiny world serves a twentieth, so smoke tests stay short).
    pub fn requests(self, quarter: usize) -> usize {
        match self {
            World::Quarter => quarter,
            World::Tiny => quarter / 20,
        }
    }

    /// The population at `epoch` (the benchmark seed).
    pub fn config(self, epoch: u64) -> PopulationConfig {
        let base = match self {
            World::Quarter => PopulationConfig {
                list_size: 2_500,
                top1k_size: 250,
                global_sites: 990,
                dual_sites: 250,
                roster_divisor: 4,
                banner_fraction: 0.38,
                smp_divisor: 4,
                unreachable_per_mille: 0,
                epoch: 0,
            },
            World::Tiny => PopulationConfig::tiny(),
        };
        base.with_epoch(epoch)
    }
}

/// Report digests of the current code, per world and seed. Seed 0 is the
/// default (the paper snapshot); 1000 is held out (never used while the
/// benchmark was tuned).
const PINS: &[(World, u64, &str)] = &[
    (World::Quarter, 0, "8fd5d7c975102bd2"),
    (World::Quarter, 1, "3f8239c05f890ac8"),
    (World::Quarter, 2, "c5f204caddfa3ac6"),
    (World::Quarter, 3, "f764d5f80a20aaaf"),
    (World::Quarter, 4, "73ac9e21a90ac4d6"),
    (World::Quarter, 5, "b1ea2680868d1657"),
    (World::Quarter, 6, "51da860556c0eb0d"),
    (World::Quarter, 7, "3294ddc1b8fd7312"),
    (World::Quarter, 8, "c4ab2f4b5f82c300"),
    (World::Quarter, 9, "feec84fc248cbc5f"),
    (World::Quarter, 10, "7fef4b1963183304"),
    (World::Quarter, 11, "93527e0ac791fcab"),
    (World::Quarter, 12, "080eda011a912e1a"),
    (World::Quarter, 13, "5b9ead763dbc97ee"),
    (World::Quarter, 14, "b7a6e631a334cf24"),
    (World::Quarter, 15, "fa2f657971d74424"),
    (World::Quarter, 1000, "03b2f34ce4f942fd"),
    (World::Tiny, 0, "17adafecf179c561"),
    (World::Tiny, 1, "53924b7d6f4fc6e8"),
];

pub fn pinned_digest(world: World, seed: u64) -> Option<&'static str> {
    PINS.iter()
        .find(|(w, s, _)| *w == world && *s == seed)
        .map(|(_, _, d)| *d)
}

/// FNV-1a over the report JSON, as 16 hex digits.
pub fn digest(json: &str) -> String {
    serve::format_digest(httpsim::content_hash(json.as_bytes()))
}

/// Check a finished report: against the pin for its seed when there is
/// one (or the `expected` override), else against invariants any correct
/// report satisfies. Prints the digest and the verdict on stderr.
pub fn check_report(
    study: &Study,
    report: &StudyReport,
    json: &str,
    world: World,
    seed: u64,
    expected: Option<&str>,
) -> bool {
    let got = digest(json);
    let pin = expected.or_else(|| pinned_digest(world, seed));
    let ok = match pin {
        Some(want) => got == want,
        None => {
            let acc = &report.accuracy;
            report.table1.total_targets == study.targets().len()
                && acc.true_positives + acc.false_positives == acc.detected
                && acc.true_positives <= study.population.ground_truth_walls().len()
                && report.table1.unique_walls > 0
        }
    };
    eprintln!(
        "report_digest={got} pin={} {}",
        pin.unwrap_or("none (invariants checked)"),
        if ok { "ok" } else { "MISMATCH" }
    );
    ok
}

/// One store cell: `(region index, domain, payload)`.
pub type Cell = (u8, String, Vec<u8>);

/// Every crawl record as a store cell `(region index, domain, payload)`,
/// domain-major so that every region fills at the same pace.
pub fn cells(crawls: &[VantageCrawl]) -> Vec<Cell> {
    let regions: Vec<(u8, &VantageCrawl)> = crawls
        .iter()
        .map(|c| {
            let r = Region::ALL
                .iter()
                .position(|x| *x == c.region)
                .expect("every crawl runs from a known region");
            (r as u8, c)
        })
        .collect();
    let n = crawls.first().map_or(0, |c| c.records.len());
    let mut out = Vec::with_capacity(n * regions.len());
    for i in 0..n {
        for (r, crawl) in &regions {
            let record = &crawl.records[i];
            out.push((*r, record.domain.clone(), encode_record(record)));
        }
    }
    out
}

/// Store metadata in the CLI's format, so the longitudinal diff labels
/// epochs the same way.
pub fn store_meta(study: &Study, world: World, epoch: u64) -> Vec<(String, String)> {
    vec![
        ("scale".to_string(), world.label().to_string()),
        ("epoch".to_string(), epoch.to_string()),
        (
            "targets_hash".to_string(),
            analysis::persist::targets_hash(&study.targets()).to_string(),
        ),
        (
            "max_retries".to_string(),
            study.retry.max_retries.to_string(),
        ),
    ]
}

/// Every domain of a sealed snapshot: the request stream's key universe.
pub fn domains(snapshot: &StoreSnapshot) -> Vec<String> {
    let mut out = Vec::new();
    for region in 0..snapshot.regions() as u8 {
        snapshot.for_each_region_entry(region, &mut |domain, _| out.push(domain.to_string()));
    }
    out
}

/// One answered request, with the generation of the second epoch seen
/// just before and just after the answer: the answer was served from a
/// view between the two.
pub struct Answered {
    pub query: Query,
    pub response: Response,
    pub before: Option<u64>,
    pub after: Option<u64>,
    /// When the request was due (open loop) or sent (closed loop).
    pub due: Instant,
    /// When answering started and ended.
    pub start: Instant,
    pub end: Instant,
}

impl Answered {
    /// Seconds from due time to answer.
    pub fn latency(&self) -> f64 {
        (self.end - self.due).as_secs_f64()
    }

    /// Seconds of service time.
    pub fn service(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Answer one request, reading the second-epoch slot around it.
pub fn answer(service: &QueryService, query: Query, due: Instant) -> Answered {
    let generation = || service.second_epoch().map(|s| s.generation());
    let start = Instant::now();
    let before = generation();
    let response = service.answer(&query);
    let after = generation();
    let end = Instant::now();
    Answered {
        query,
        response,
        before,
        after,
        due,
        start,
        end,
    }
}

/// The cells one sealed snapshot of a single-writer store must hold: the
/// first `len` cells put. Reads like the snapshot itself (domain order
/// within a region), so the query evaluators run on it unchanged.
struct PrefixView<'a> {
    ingest: &'a Ingested<'a>,
    len: usize,
}

impl StoreRead for PrefixView<'_> {
    fn regions(&self) -> usize {
        self.ingest.by_region.len()
    }

    fn meta_value(&self, key: &str) -> Option<&str> {
        self.ingest
            .meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn read_note(&self, _name: &str) -> std::io::Result<Option<String>> {
        Ok(None)
    }

    fn payload(&self, region: u8, domain: &str) -> Option<Vec<u8>> {
        let cells = self.ingest.by_region.get(region as usize)?;
        let at = cells.binary_search_by(|(d, _)| (*d).cmp(domain)).ok()?;
        let i = cells[at].1;
        (i < self.len).then(|| self.ingest.cells[i].2.clone())
    }

    fn for_each_region_entry(&self, region: u8, f: &mut dyn FnMut(&str, &[u8])) {
        for (domain, i) in self
            .ingest
            .by_region
            .get(region as usize)
            .into_iter()
            .flatten()
        {
            if *i < self.len {
                f(domain, &self.ingest.cells[*i].2);
            }
        }
    }
}

/// An epoch ingested cell by cell into a second store while it was
/// served: which generation held how many cells.
pub struct Ingested<'a> {
    cells: &'a [Cell],
    meta: Vec<(String, String)>,
    /// Per region, `(domain, index into cells)` in domain order.
    by_region: Vec<Vec<(&'a str, usize)>>,
    /// `(generation, cells sealed)` of every installed snapshot.
    installs: Vec<(u64, usize)>,
}

impl<'a> Ingested<'a> {
    pub fn new(
        cells: &'a [Cell],
        meta: Vec<(String, String)>,
        regions: usize,
        installs: Vec<(u64, usize)>,
    ) -> Ingested<'a> {
        let mut by_region: Vec<Vec<(&str, usize)>> = vec![Vec::new(); regions];
        for (i, (r, d, _)) in cells.iter().enumerate() {
            by_region[*r as usize].push((d.as_str(), i));
        }
        for region in &mut by_region {
            region.sort_unstable();
        }
        Ingested {
            cells,
            meta,
            by_region,
            installs,
        }
    }
}

/// Re-evaluates served answers with `analysis::query::evaluate`, against
/// the first epoch or against the cells a second-epoch generation must
/// hold. Evaluations are memoized per (query, view).
pub struct Verifier<'a> {
    epoch_a: &'a StoreSnapshot,
    second: Option<&'a Ingested<'a>>,
    memo: HashMap<(String, Option<u64>), String>,
}

impl<'a> Verifier<'a> {
    pub fn new(epoch_a: &'a StoreSnapshot, second: Option<&'a Ingested<'a>>) -> Verifier<'a> {
        Verifier {
            epoch_a,
            second,
            memo: HashMap::new(),
        }
    }

    /// Whether `a` equals the evaluation over some view it can have been
    /// served from: the first epoch alone if no second epoch was installed
    /// before it, and every generation from the one seen before the
    /// answer to the one seen after it.
    pub fn check(&mut self, a: &Answered) -> bool {
        let mut views: Vec<Option<u64>> = Vec::new();
        if a.before.is_none() {
            views.push(None);
        }
        if let (Some(hi), Some(second)) = (a.after, self.second) {
            views.extend(
                second
                    .installs
                    .iter()
                    .map(|(g, _)| *g)
                    .filter(|g| a.before.is_none_or(|lo| *g >= lo) && *g <= hi)
                    .map(Some),
            );
        }
        views.into_iter().any(|view| {
            a.response.from_second_epoch == view.is_some()
                && self.expected(&a.query, view).as_deref() == Some(a.response.text.as_str())
        })
    }

    fn expected(&mut self, q: &Query, view: Option<u64>) -> Option<String> {
        let key = (q.render(), view);
        if let Some(text) = self.memo.get(&key) {
            return Some(text.clone());
        }
        let text = match view {
            None => query::evaluate(q, self.epoch_a, None::<&StoreSnapshot>).text,
            Some(generation) => {
                let second = self.second?;
                let (_, len) = second.installs.iter().find(|(g, _)| *g == generation)?;
                let prefix = PrefixView {
                    ingest: second,
                    len: *len,
                };
                match q {
                    Query::EpochDiff => query::evaluate(q, &prefix, Some(self.epoch_a)).text,
                    _ => query::evaluate(q, &prefix, None::<&StoreSnapshot>).text,
                }
            }
        };
        self.memo.insert(key, text.clone());
        Some(text)
    }
}

/// A closed loop: one reader sends the requests `range` of `lane`, each
/// after the previous answer. Returns the answers and the seconds the
/// loop took.
pub fn closed_loop(
    service: &QueryService,
    stream: &RequestStream,
    lane: usize,
    range: Range<usize>,
) -> (Vec<Answered>, f64) {
    let t0 = Instant::now();
    let answered: Vec<Answered> = range
        .map(|i| answer(service, stream.request(lane, i), Instant::now()))
        .collect();
    (answered, t0.elapsed().as_secs_f64())
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * p / 100.0).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// Median, sorting in place (0 when empty).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// World builds per group of [`Setups::group`].
pub const SETUP_GROUP: usize = 5;

/// The timed world builds behind `study`'s `setup_s`. They are spread
/// over the run (a group at the start, one build per timed round, a group
/// after the timed phase, one build after every read-back chunk, a group
/// at the end), so their median does not hang on the machine's speed in
/// one moment.
pub struct Setups {
    world: World,
    epoch: u64,
    times: Vec<f64>,
}

impl Setups {
    pub fn new(world: World, epoch: u64) -> Setups {
        Setups {
            world,
            epoch,
            times: Vec::new(),
        }
    }

    /// Build the study, timing the build.
    pub fn build(&mut self) -> Study {
        let t = Instant::now();
        let study = Study::new(self.world.config(self.epoch));
        self.times.push(t.elapsed().as_secs_f64());
        study
    }

    /// Build and drop [`SETUP_GROUP`] studies.
    pub fn group(&mut self) {
        for _ in 0..SETUP_GROUP {
            drop(self.build());
        }
    }

    /// Median seconds of the builds so far.
    pub fn median(&self) -> f64 {
        median(&mut self.times.clone())
    }
}

/// A scratch directory under the run's working directory, removed when
/// dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(workload: &str) -> std::io::Result<WorkDir> {
        let dir = Path::new(".bench_out").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Metric values by name, with units.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// End-to-end metrics `(name, unit)`: printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ingest_s", "s"),
    ("query_mean_ms", "ms"),
    ("read_qps", "1/s"),
];

/// Per-layer metrics `(name, unit)`: printed by every traced run. A layer
/// the workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("visit.count", "count"),
    ("visit.doc_bytes", "bytes"),
    ("browser.fetch_us", "us"),
    ("browser.fetch_allocs", "count"),
    ("browser.fetch_alloc_bytes", "bytes"),
    ("webdom.parse_us", "us"),
    ("webdom.parse_allocs", "count"),
    ("webdom.parse_alloc_bytes", "bytes"),
    ("browser.load_us", "us"),
    ("browser.load_allocs", "count"),
    ("browser.load_alloc_bytes", "bytes"),
    ("bannerclick.analyze_us", "us"),
    ("bannerclick.analyze_allocs", "count"),
    ("bannerclick.analyze_alloc_bytes", "bytes"),
    ("browser.main_text_us", "us"),
    ("langid.detect_us", "us"),
    ("langid.detect_allocs", "count"),
    ("langid.detect_alloc_bytes", "bytes"),
    ("measure.site_ms", "ms"),
    ("measure.sites", "count"),
    ("analysis.sweep_s", "s"),
    ("analysis.sweep_tasks", "count"),
    ("analysis.sweep_cache_hit_ratio", "ratio"),
    ("analysis.sweep_utilization", "ratio"),
    ("experiment.table1_s", "s"),
    ("experiment.accuracy_s", "s"),
    ("experiment.embedding_s", "s"),
    ("experiment.fig1_s", "s"),
    ("experiment.fig2_s", "s"),
    ("experiment.fig3_s", "s"),
    ("experiment.fig4_s", "s"),
    ("experiment.fig5_s", "s"),
    ("experiment.fig6_s", "s"),
    ("experiment.bypass_s", "s"),
    ("experiment.smp_s", "s"),
    ("experiment.banners_s", "s"),
    ("experiment.ablation_s", "s"),
    ("experiment.darkpatterns_s", "s"),
    ("experiment.botdetect_s", "s"),
    ("analysis.report_json_s", "s"),
    ("store.open_ms", "ms"),
    ("store.restored_cells", "count"),
    ("store.fsck_ms", "ms"),
    ("store.bytes_read", "bytes"),
    ("store.put_us", "us"),
    ("store.seal_ms", "ms"),
    ("store.seals", "count"),
    ("store.snapshot_open_ms", "ms"),
    ("store.bytes_written", "bytes"),
    ("store.write_calls", "count"),
    ("store.append_calls", "count"),
    ("store.sync_calls", "count"),
    ("store.write_amp", "ratio"),
    ("query.wall_status_us", "us"),
    ("query.prevalence_us", "us"),
    ("query.prices_us", "us"),
    ("query.diff_us", "us"),
    ("query.wall_status_sim_us", "us"),
    ("query.prevalence_sim_us", "us"),
    ("query.prices_sim_us", "us"),
    ("query.diff_sim_us", "us"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.generator_late_ms", "ms"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.top_span_coverage", "ratio"),
];

/// A workload's verdict and measurements.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// The result line: every metric of `catalogue`, in order. An
    /// end-to-end metric the workload did not set is a bug; an unset
    /// per-layer metric is a layer the workload does not call (0).
    pub fn to_json(&self, catalogue: &[(&str, &str)], required: bool) -> String {
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(v) => v,
                    None if required => panic!("workload did not measure {name}"),
                    None => 0.0,
                };
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `query_mean_ms` of a set of answers: mean latency from due time.
/// Neither the median nor the 99th percentile held still between runs of
/// the same code on a shared host: the median answer is a point lookup of
/// a few microseconds that moved with the machine's memory latency, and
/// the 99th percentile (the slowest diffs and the answers queued behind
/// them) followed hypervisor steal, 111 to 182 ms. The mean keeps the
/// diffs' service time and the queueing they cause.
pub fn latency_metrics<'a>(metrics: &mut Metrics, answers: impl Iterator<Item = &'a Answered>) {
    let ms: Vec<f64> = answers.map(|a| a.latency() * 1e3).collect();
    metrics.set("query_mean_ms", mean(&ms));
}

/// Query-class metric stems, in [`PER_LAYER`] order.
pub const CLASSES: &[(&str, &str, &str)] = &[
    (
        "wall-status",
        "query.wall_status_us",
        "query.wall_status_sim_us",
    ),
    (
        "prevalence",
        "query.prevalence_us",
        "query.prevalence_sim_us",
    ),
    ("prices", "query.prices_us", "query.prices_sim_us"),
    ("diff", "query.diff_us", "query.diff_sim_us"),
];

/// Per-class median service time and simulated cost of `answered`.
pub fn class_metrics(metrics: &mut Metrics, answered: &[&Answered]) {
    for (class, real, sim) in CLASSES {
        let mut us: Vec<f64> = Vec::new();
        let mut sim_us: Vec<f64> = Vec::new();
        for a in answered.iter().filter(|a| a.response.class == *class) {
            us.push(a.service() * 1e6);
            sim_us.push(a.response.sim_micros as f64);
        }
        metrics.set(real, median(&mut us));
        metrics.set(sim, median(&mut sim_us));
    }
}
