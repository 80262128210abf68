//! `cookiewall-study` — command-line front end for the reproduction.
//!
//! ```text
//! cookiewall-study run     [--scale tiny|small|paper] [--workers N] [--json PATH]
//!                          [--store DIR | --resume DIR] [--checkpoint-every N] [--epoch N]
//! cookiewall-study crawl   --region <vp> [--scale …] [--workers N] [--epoch N]
//! cookiewall-study detect  <domain> [--region <vp>] [--adblock] [--scale …]
//! cookiewall-study walls   [--scale …] [--epoch N]
//! cookiewall-study diff    <store-a> <store-b> [--json PATH]
//! cookiewall-study fsck    <store> [--json PATH] [--dry-run]
//! cookiewall-study serve   <store-a> [<store-b>] [--script FILE] [--requests N] [--seed N]
//!                          [--readers N] [--zipf S] [--json PATH]
//! cookiewall-study stats   <store> [--json PATH]
//! cookiewall-study help
//! ```
//!
//! Every command parses its flags against an explicit allow-list: an
//! unrecognized `--flag` is a usage error, not a silent no-op.

use analysis::experiments::longitudinal;
use analysis::persist::targets_hash;
use analysis::{CheckpointPolicy, Study};
use bannerclick::BannerClick;
use browser::Browser;
use httpsim::{FaultConfig, Region};
use serve::{chain_digest, format_digest, parse_script, Query, QueryService, RequestStream};
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use store::{DiskFaultConfig, FaultyBackend, FsBackend, StorageBackend, Store, StoreSnapshot};
use webgen::PopulationConfig;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("crawl") => cmd_crawl(&args[1..]),
        Some("detect") => cmd_detect(&args[1..]),
        Some("walls") => cmd_walls(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("fsck") => cmd_fsck(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("help") | None => {
            print_help();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command {other:?}\n");
            print_help();
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "cookiewall-study — reproduction of 'Thou Shalt Not Reject' (IMC '23)\n\
         \n\
         USAGE:\n\
         \u{20}  cookiewall-study run    [--scale tiny|small|paper] [--workers N] [--json PATH]\n\
         \u{20}                          [--store DIR | --resume DIR] [--checkpoint-every N] [--epoch N]\n\
         \u{20}      Run every experiment (Table 1, Figures 1-6, accuracy, bypass, SMPs)\n\
         \u{20}  cookiewall-study crawl  --region <vp> [--scale …] [--workers N] [--epoch N]\n\
         \u{20}      Crawl the target list from one vantage point, print detections\n\
         \u{20}  cookiewall-study detect <domain> [--region <vp>] [--adblock] [--scale …]\n\
         \u{20}      Analyze a single site and explain what the pipeline saw\n\
         \u{20}  cookiewall-study walls  [--scale …] [--epoch N]\n\
         \u{20}      List the ground-truth cookiewall roster of the synthetic web\n\
         \u{20}  cookiewall-study diff   <store-a> <store-b> [--json PATH]\n\
         \u{20}      Longitudinal churn between two persistent snapshots: walls that\n\
         \u{20}      appeared/disappeared, price deltas, per-region tracking drift\n\
         \u{20}  cookiewall-study fsck   <store> [--json PATH] [--dry-run]\n\
         \u{20}      Scrub a store: verify every cell against its journal hash,\n\
         \u{20}      quarantine torn/corrupt cells into a sidecar, and repair the\n\
         \u{20}      journal so `run --resume` re-crawls exactly the lost cells\n\
         \u{20}  cookiewall-study serve  <store-a> [<store-b>] [--script FILE] [--requests N]\n\
         \u{20}                          [--seed N] [--readers N] [--zipf S] [--json PATH]\n\
         \u{20}      Answer a deterministic query stream from sealed snapshots: wall\n\
         \u{20}      status, prevalence, price percentiles, and (with two stores)\n\
         \u{20}      epoch diffs; prints every response, a chained response digest,\n\
         \u{20}      and a per-class simulated-latency ledger. --script replaces the\n\
         \u{20}      seeded Zipf stream with a query script (one query per line)\n\
         \u{20}  cookiewall-study stats  <store> [--json PATH]\n\
         \u{20}      Read-only store census: cells per region, sealed generation and\n\
         \u{20}      segments, index coverage, quarantine count\n\
         \n\
         Vantage points: germany sweden us-east us-west brazil south-africa india australia\n\
         \n\
         The eight-vantage-point sweep crawls one domain at a time from every\n\
         vantage point, sharing the page work between vantage points served the\n\
         same document; --workers sizes the pool (default: CPU count). The sweep\n\
         prints cell/memo/utilization metrics to stderr after each run.\n\
         \n\
         PERSISTENT STORE (run):\n\
         \u{20}  --store DIR          checkpoint every completed (region, domain) cell into\n\
         \u{20}                       a journaled on-disk store as the sweep progresses\n\
         \u{20}  --resume DIR         continue an interrupted --store run: restores finished\n\
         \u{20}                       cells, recomputes only the missing ones, and produces\n\
         \u{20}                       a report byte-identical to an uninterrupted run; the\n\
         \u{20}                       study configuration is read back from the store\n\
         \u{20}  --checkpoint-every N flush the journal every N cells (default 64)\n\
         \u{20}  --abort-after N      stop after N newly crawled cells without flushing the\n\
         \u{20}                       buffered tail (simulated kill; testing hook)\n\
         \u{20}  --epoch N            generate the population at a later epoch: walls come\n\
         \u{20}                       and go, prices move, trackers churn — deterministically\n\
         \n\
         FAULT INJECTION (run and crawl):\n\
         \u{20}  --fault-rate F       probability a (region, domain) cell starts with a\n\
         \u{20}                       transient fault window (reset/5xx/stall/truncation,\n\
         \u{20}                       heals after 1-2 attempts); default 0\n\
         \u{20}  --fault-permanent F  probability a domain is dead for the whole run; default 0\n\
         \u{20}  --fault-seed N       seed for the deterministic fault schedule; default 0\n\
         \u{20}  --max-retries N      retry budget per navigation (exponential backoff in\n\
         \u{20}                       virtual time, per-host circuit breaker); default 3\n\
         \n\
         Faults are deterministic: same seed, same rates, same injected chaos. With\n\
         only transient faults and retries enabled, the report is byte-identical to\n\
         a fault-free run; a chaos summary goes to stderr.\n\
         \n\
         DISK-FAULT INJECTION (run, with --store/--resume):\n\
         \u{20}  --disk-fault-rate F  probability each store disk operation misbehaves:\n\
         \u{20}                       torn writes, short reads, ENOSPC, lying fsyncs,\n\
         \u{20}                       single-byte bit rot; default 0\n\
         \u{20}  --disk-fault-seed N  seed for the deterministic disk-fault schedule\n\
         \n\
         Disk faults are operator knobs, allowed with --resume: they model the disk,\n\
         not the study. Damage is always detected (every payload is hash-verified on\n\
         read — corrupt data is dropped, never decoded) and `fsck` + `run --resume`\n\
         re-crawl whatever was lost."
    );
}

/// Parsed command-line flags, validated against an explicit allow-list.
#[derive(Debug, Default)]
struct Flags {
    values: Vec<(String, String)>,
    switches: Vec<String>,
    positionals: Vec<String>,
}

impl Flags {
    fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

/// Strict flag parser: every `--flag` must appear in `valued` (consumes
/// the next argument, or `--flag=value`) or in `switches`; anything else
/// is a usage error. At most `max_positionals` bare arguments are
/// accepted, and repeating a flag is rejected.
fn parse_flags(
    args: &[String],
    valued: &[&str],
    switches: &[&str],
    max_positionals: usize,
) -> Result<Flags, String> {
    let mut out = Flags::default();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if let Some(rest) = arg.strip_prefix("--") {
            let (name, inline) = match rest.split_once('=') {
                Some((n, v)) => (format!("--{n}"), Some(v.to_string())),
                None => (arg.clone(), None),
            };
            if valued.contains(&name.as_str()) {
                let value = match inline {
                    Some(v) => v,
                    None => {
                        let next = args
                            .get(i + 1)
                            .filter(|v| !v.starts_with("--"))
                            .ok_or_else(|| format!("{name} needs a value"))?;
                        i += 1;
                        next.clone()
                    }
                };
                if out.value(&name).is_some() {
                    return Err(format!("{name} given more than once"));
                }
                out.values.push((name, value));
            } else if switches.contains(&name.as_str()) {
                if inline.is_some() {
                    return Err(format!("{name} does not take a value"));
                }
                if !out.has(&name) {
                    out.switches.push(name);
                }
            } else {
                return Err(format!(
                    "unknown flag {name} for this command (see `cookiewall-study help`)"
                ));
            }
        } else {
            if out.positionals.len() >= max_positionals {
                return Err(format!("unexpected argument {arg:?}"));
            }
            out.positionals.push(arg.clone());
        }
        i += 1;
    }
    Ok(out)
}

/// Parse the chaos flags into an optional fault config. Absent flags mean
/// no fault layer at all; `--fault-seed`/`--max-retries` alone keep rates
/// at zero, which the study treats the same way.
fn parse_fault_config(flags: &Flags) -> Result<Option<FaultConfig>, String> {
    let seed = flags.value("--fault-seed");
    let transient = flags.value("--fault-rate");
    let permanent = flags.value("--fault-permanent");
    if seed.is_none() && transient.is_none() && permanent.is_none() {
        return Ok(None);
    }
    let mut config = match seed {
        None => FaultConfig::new(0),
        Some(raw) => FaultConfig::new(
            raw.parse::<u64>()
                .map_err(|_| format!("--fault-seed needs an integer, got {raw:?}"))?,
        ),
    };
    if let Some(raw) = transient {
        config.transient_rate = parse_rate(raw, "--fault-rate")?;
    }
    if let Some(raw) = permanent {
        config.permanent_rate = parse_rate(raw, "--fault-permanent")?;
    }
    Ok(Some(config))
}

fn parse_rate(raw: &str, flag: &str) -> Result<f64, String> {
    raw.parse::<f64>()
        .ok()
        .filter(|r| (0.0..=1.0).contains(r))
        .ok_or_else(|| format!("{flag} needs a probability in [0, 1], got {raw:?}"))
}

/// Parse `--max-retries` into a retry-budget override.
fn parse_max_retries(flags: &Flags) -> Result<Option<u32>, String> {
    match flags.value("--max-retries") {
        None => Ok(None),
        Some(raw) => raw
            .parse::<u32>()
            .map(Some)
            .map_err(|_| format!("--max-retries needs a non-negative integer, got {raw:?}")),
    }
}

/// One-line chaos summary for studies that ran with fault injection.
fn report_chaos(study: &Study) {
    let Some(plan) = &study.fault_plan else {
        return;
    };
    let config = plan.config();
    let injected = plan.injected();
    eprintln!(
        "chaos: seed {} transient {} permanent {} → {} faults injected \
         ({} resets, {} 5xx, {} stalls, {} truncated); retry budget {}",
        config.seed,
        config.transient_rate,
        config.permanent_rate,
        injected.total(),
        injected.resets,
        injected.server_errors,
        injected.stalls,
        injected.truncated,
        study.retry.max_retries,
    );
}

/// Parse `--workers`, defaulting to `default` when absent.
fn parse_workers(flags: &Flags, default: usize) -> Result<usize, String> {
    match flags.value("--workers") {
        None => Ok(default),
        Some(raw) => raw
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("--workers needs a positive integer, got {raw:?}")),
    }
}

fn scale_config(name: &str) -> Result<PopulationConfig, String> {
    match name {
        "small" => Ok(PopulationConfig::small()),
        "tiny" => Ok(PopulationConfig::tiny()),
        "paper" => Ok(PopulationConfig::paper()),
        other => Err(format!("unknown scale {other:?} (tiny|small|paper)")),
    }
}

/// Parse `--scale` and `--epoch` into a population config plus the scale
/// name (recorded in store metadata so `--resume` can rebuild the study).
fn parse_population(flags: &Flags) -> Result<(PopulationConfig, String, u64), String> {
    let scale = flags.value("--scale").unwrap_or("small");
    let epoch = match flags.value("--epoch") {
        None => 0,
        Some(raw) => raw
            .parse::<u64>()
            .map_err(|_| format!("--epoch needs a non-negative integer, got {raw:?}"))?,
    };
    Ok((
        scale_config(scale)?.with_epoch(epoch),
        scale.to_string(),
        epoch,
    ))
}

fn parse_region(flags: &Flags) -> Result<Region, String> {
    let name = flags.value("--region").unwrap_or("germany");
    match name.to_ascii_lowercase().as_str() {
        "germany" | "de" => Ok(Region::Germany),
        "sweden" | "se" => Ok(Region::Sweden),
        "us-east" | "useast" => Ok(Region::UsEast),
        "us-west" | "uswest" => Ok(Region::UsWest),
        "brazil" | "br" => Ok(Region::Brazil),
        "south-africa" | "za" => Ok(Region::SouthAfrica),
        "india" | "in" => Ok(Region::India),
        "australia" | "au" => Ok(Region::Australia),
        other => Err(format!("unknown vantage point {other:?}")),
    }
}

const RUN_VALUED: &[&str] = &[
    "--scale",
    "--workers",
    "--json",
    "--fault-rate",
    "--fault-permanent",
    "--fault-seed",
    "--max-retries",
    "--store",
    "--resume",
    "--checkpoint-every",
    "--abort-after",
    "--epoch",
    "--disk-fault-seed",
    "--disk-fault-rate",
];

/// Parse the disk-chaos flags. These are operator knobs describing the
/// disk, not the study, so they are *not* resume conflicts — a store
/// written by a healthy disk can be resumed on a flaky one.
fn parse_disk_fault(flags: &Flags) -> Result<Option<DiskFaultConfig>, String> {
    let seed = flags.value("--disk-fault-seed");
    let rate = flags.value("--disk-fault-rate");
    if seed.is_none() && rate.is_none() {
        return Ok(None);
    }
    let mut config = DiskFaultConfig::noop();
    if let Some(raw) = seed {
        config.seed = raw
            .parse::<u64>()
            .map_err(|_| format!("--disk-fault-seed needs an integer, got {raw:?}"))?;
    }
    if let Some(raw) = rate {
        config.rate = parse_rate(raw, "--disk-fault-rate")?;
    }
    Ok(Some(config))
}

/// Flags that configure the study itself — forbidden with `--resume`,
/// which reads the configuration back from the store instead.
const RESUME_CONFLICTS: &[&str] = &[
    "--scale",
    "--epoch",
    "--fault-rate",
    "--fault-permanent",
    "--fault-seed",
    "--max-retries",
    "--store",
];

fn cmd_run(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args, RUN_VALUED, &[], 0) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let t0 = std::time::Instant::now();

    // The disk the store runs on: the real filesystem, optionally wrapped
    // in the deterministic disk-fault layer.
    let disk_fault = match parse_disk_fault(&flags) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    if disk_fault.is_some() && flags.value("--store").is_none() && flags.value("--resume").is_none()
    {
        return fail("--disk-fault-seed/--disk-fault-rate need --store or --resume");
    }
    let faulty_disk = disk_fault.map(|cfg| Arc::new(FaultyBackend::new(Arc::new(FsBackend), cfg)));
    let backend: Arc<dyn StorageBackend> = match &faulty_disk {
        Some(f) => f.clone(),
        None => Arc::new(FsBackend),
    };

    // Assemble the study: either from flags, or — on resume — from the
    // configuration the store recorded when it was created.
    let resume_dir = flags.value("--resume").map(String::from);
    let (mut study, store) = if let Some(dir) = &resume_dir {
        if let Some(conflict) = RESUME_CONFLICTS.iter().find(|f| flags.value(f).is_some()) {
            return fail(&format!(
                "{conflict} conflicts with --resume: the store already records the \
                 study configuration"
            ));
        }
        let store = match Store::open_with(Path::new(dir), backend.clone()) {
            Ok(s) => s,
            Err(e) => return fail(&format!("opening store {dir}: {e}")),
        };
        eprintln!("resuming from {dir} ({} cells restored)…", store.len());
        match store::quarantine_ledger(Path::new(dir), backend.as_ref()) {
            Ok(cells) if !cells.is_empty() => eprintln!(
                "quarantine: {} cell(s) in this store's quarantine ledger; any still \
                 missing will be re-crawled",
                cells.len()
            ),
            Ok(_) => {}
            Err(e) => eprintln!("quarantine: ledger unreadable ({e}); continuing"),
        }
        match study_from_store(&store) {
            Ok(study) => (study, Some(store)),
            Err(e) => return fail(&e),
        }
    } else {
        let (config, scale_name, epoch) = match parse_population(&flags) {
            Ok(p) => p,
            Err(e) => return fail(&e),
        };
        let fault = match parse_fault_config(&flags) {
            Ok(f) => f,
            Err(e) => return fail(&e),
        };
        eprintln!("building the synthetic web…");
        let mut study = Study::with_fault_config(config, fault);
        match parse_max_retries(&flags) {
            Ok(Some(n)) => study.retry.max_retries = n,
            Ok(None) => {}
            Err(e) => return fail(&e),
        }
        let store = match flags.value("--store") {
            None => None,
            Some(dir) => {
                let meta = store_meta(&study, &scale_name, epoch);
                match Store::create_with(Path::new(dir), Region::ALL.len(), &meta, backend.clone())
                {
                    Ok(s) => Some(s),
                    Err(e) => {
                        return fail(&format!(
                            "creating store {dir}: {e} (use --resume for an existing store)"
                        ))
                    }
                }
            }
        };
        (study, store)
    };
    match parse_workers(&flags, study.workers) {
        Ok(w) => study.workers = w,
        Err(e) => return fail(&e),
    }

    let policy = match parse_policy(&flags, store.is_some()) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    eprintln!(
        "  {} sites, {} targets, {} ground-truth walls ({:?})",
        study.population.sites().len(),
        study.targets().len(),
        study.population.ground_truth_walls().len(),
        t0.elapsed()
    );
    eprintln!("running every experiment…");
    let report = match &store {
        None => analysis::run_all(&study),
        Some(store) => match analysis::run_all_persistent(&study, store, &policy) {
            Err(e) => return fail(&e),
            Ok(None) => {
                let dir = store.dir().display();
                eprintln!(
                    "stopped after {} newly crawled cells; finished work is checkpointed.\n\
                     resume with: cookiewall-study run --resume {dir}",
                    policy.abort_after.unwrap_or(0),
                );
                report_disk_chaos(&faulty_disk);
                return ExitCode::SUCCESS;
            }
            Ok(Some(report)) => report,
        },
    };
    println!("{}", report.render());
    eprint!("{}", report.crawl_metrics.render());
    report_chaos(&study);
    report_disk_chaos(&faulty_disk);
    if let Some(path) = flags.value("--json") {
        match std::fs::write(path, report.to_json()) {
            Ok(()) => eprintln!("JSON results written to {path}"),
            Err(e) => return fail(&format!("writing {path}: {e}")),
        }
    }
    eprintln!("total: {:?}", t0.elapsed());
    ExitCode::SUCCESS
}

/// One-line summary of injected disk chaos, mirroring [`report_chaos`].
fn report_disk_chaos(faulty: &Option<Arc<FaultyBackend>>) {
    if let Some(disk) = faulty {
        eprintln!(
            "disk chaos: {} disk fault(s) injected (run `cookiewall-study fsck` \
             to scrub the store)",
            disk.trace().len()
        );
    }
}

/// Store metadata recorded at creation: everything `--resume` needs to
/// rebuild an identical study, plus the target-list hash that guards
/// against resuming across different universes.
fn store_meta(study: &Study, scale_name: &str, epoch: u64) -> Vec<(String, String)> {
    let mut meta = vec![
        ("scale".to_string(), scale_name.to_string()),
        ("epoch".to_string(), epoch.to_string()),
        (
            "targets_hash".to_string(),
            targets_hash(&study.targets()).to_string(),
        ),
        (
            "max_retries".to_string(),
            study.retry.max_retries.to_string(),
        ),
    ];
    if let Some(plan) = &study.fault_plan {
        let config = plan.config();
        meta.push(("fault_seed".to_string(), config.seed.to_string()));
        meta.push(("fault_rate".to_string(), config.transient_rate.to_string()));
        meta.push((
            "fault_permanent".to_string(),
            config.permanent_rate.to_string(),
        ));
    }
    meta
}

/// Rebuild the study a store was created for, from its metadata.
fn study_from_store(store: &Store) -> Result<Study, String> {
    let scale = store
        .meta_value("scale")
        .ok_or("store has no scale metadata (not created by `run --store`?)")?;
    let epoch = match store.meta_value("epoch") {
        None => 0,
        Some(raw) => raw
            .parse::<u64>()
            .map_err(|_| format!("store has invalid epoch metadata {raw:?}"))?,
    };
    let config = scale_config(scale)?.with_epoch(epoch);
    let fault = match store.meta_value("fault_seed") {
        None => None,
        Some(seed) => {
            let mut f = FaultConfig::new(
                seed.parse::<u64>()
                    .map_err(|_| format!("store has invalid fault_seed metadata {seed:?}"))?,
            );
            if let Some(raw) = store.meta_value("fault_rate") {
                f.transient_rate = raw
                    .parse::<f64>()
                    .map_err(|_| format!("store has invalid fault_rate metadata {raw:?}"))?;
            }
            if let Some(raw) = store.meta_value("fault_permanent") {
                f.permanent_rate = raw
                    .parse::<f64>()
                    .map_err(|_| format!("store has invalid fault_permanent metadata {raw:?}"))?;
            }
            Some(f)
        }
    };
    eprintln!("rebuilding the synthetic web (scale {scale}, epoch {epoch})…");
    let mut study = Study::with_fault_config(config, fault);
    if let Some(raw) = store.meta_value("max_retries") {
        study.retry.max_retries = raw
            .parse::<u32>()
            .map_err(|_| format!("store has invalid max_retries metadata {raw:?}"))?;
    }
    Ok(study)
}

/// Parse `--checkpoint-every` / `--abort-after` into a checkpoint policy;
/// both require a store to act on.
fn parse_policy(flags: &Flags, has_store: bool) -> Result<CheckpointPolicy, String> {
    let mut policy = CheckpointPolicy::default();
    match flags.value("--checkpoint-every") {
        None => {}
        Some(_) if !has_store => {
            return Err("--checkpoint-every needs --store or --resume".to_string())
        }
        Some(raw) => {
            policy.every = raw.parse::<usize>().map_err(|_| {
                format!("--checkpoint-every needs a non-negative integer, got {raw:?}")
            })?;
        }
    }
    match flags.value("--abort-after") {
        None => {}
        Some(_) if !has_store => return Err("--abort-after needs --store or --resume".to_string()),
        Some(raw) => {
            policy.abort_after =
                Some(raw.parse::<usize>().map_err(|_| {
                    format!("--abort-after needs a non-negative integer, got {raw:?}")
                })?);
        }
    }
    Ok(policy)
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args, &["--json"], &[], 2) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let [a, b] = flags.positionals.as_slice() else {
        return fail("diff needs two store directories: cookiewall-study diff <store-a> <store-b>");
    };
    let before = match Store::open(Path::new(a)) {
        Ok(s) => s,
        Err(e) => return fail(&format!("opening store {a}: {e}")),
    };
    let after = match Store::open(Path::new(b)) {
        Ok(s) => s,
        Err(e) => return fail(&format!("opening store {b}: {e}")),
    };
    let churn = match longitudinal::diff_stores(&before, &after) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    println!("{}", churn.render());
    if let Some(path) = flags.value("--json") {
        match std::fs::write(path, churn.to_json()) {
            Ok(()) => eprintln!("JSON churn report written to {path}"),
            Err(e) => return fail(&format!("writing {path}: {e}")),
        }
    }
    ExitCode::SUCCESS
}

fn cmd_fsck(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args, &["--json"], &["--dry-run"], 1) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let Some(dir) = flags.positionals.first() else {
        return fail("fsck needs a store directory: cookiewall-study fsck <store>");
    };
    let backend = FsBackend;
    let report = match store::fsck(Path::new(dir), &backend, flags.has("--dry-run")) {
        Ok(r) => r,
        Err(e) => return fail(&format!("fsck {dir}: {e}")),
    };
    print!("{}", report.render());
    if let Some(path) = flags.value("--json") {
        match std::fs::write(path, report.to_json()) {
            Ok(()) => eprintln!("JSON fsck report written to {path}"),
            Err(e) => return fail(&format!("writing {path}: {e}")),
        }
    }
    ExitCode::SUCCESS
}

const CRAWL_VALUED: &[&str] = &[
    "--scale",
    "--workers",
    "--region",
    "--fault-rate",
    "--fault-permanent",
    "--fault-seed",
    "--max-retries",
    "--epoch",
];

fn cmd_crawl(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args, CRAWL_VALUED, &[], 0) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let (config, _, _) = match parse_population(&flags) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let region = match parse_region(&flags) {
        Ok(r) => r,
        Err(e) => return fail(&e),
    };
    let fault = match parse_fault_config(&flags) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let mut study = Study::with_fault_config(config, fault);
    let workers = match parse_workers(&flags, study.workers) {
        Ok(w) => w,
        Err(e) => return fail(&e),
    };
    match parse_max_retries(&flags) {
        Ok(Some(n)) => study.retry.max_retries = n,
        Ok(None) => {}
        Err(e) => return fail(&e),
    }
    let targets = study.targets();
    eprintln!(
        "crawling {} targets from {}…",
        targets.len(),
        region.label()
    );
    let (crawls, metrics) = analysis::crawl_regions(
        &study.net,
        &[region],
        &targets,
        &study.tool,
        workers,
        &study.retry,
    );
    let crawl = &crawls[0];
    let mut banners = 0;
    let mut out = std::io::stdout().lock();
    for r in &crawl.records {
        if r.banner {
            banners += 1;
        }
        if r.cookiewall {
            let line = format!(
                "{}\tembedding={:?}\tprice={}\tlang={}\tprovider={}",
                r.domain,
                r.embedding,
                r.monthly_eur
                    .map(|p| format!("{p:.2}€/mo"))
                    .unwrap_or_else(|| "-".into()),
                r.language.unwrap_or("-"),
                r.provider.as_deref().unwrap_or("first-party"),
            );
            if writeln!(out, "{line}").is_err() {
                return ExitCode::SUCCESS; // downstream pipe closed (e.g. head)
            }
        }
    }
    eprintln!(
        "{} cookiewalls, {} banners, {} reachable of {} targets ({} ms on {} workers)",
        crawl.wall_count(),
        banners,
        crawl.records.iter().filter(|r| r.reachable).count(),
        targets.len(),
        metrics.wall_ms,
        workers
    );
    eprintln!(
        "{} failed ({} gave up after retries, {} rescued by retries), {} unresolved requests",
        crawl.records.iter().filter(|r| r.failure.is_some()).count(),
        crawl.records.iter().filter(|r| r.gave_up()).count(),
        crawl.records.iter().filter(|r| r.retried_ok()).count(),
        study.net.stats().unresolved(),
    );
    report_chaos(&study);
    ExitCode::SUCCESS
}

fn cmd_detect(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args, &["--scale", "--region"], &["--adblock"], 1) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let Some(domain) = flags.positionals.first() else {
        return fail("detect needs a domain argument");
    };
    let (config, _, _) = match parse_population(&flags) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let region = match parse_region(&flags) {
        Ok(r) => r,
        Err(e) => return fail(&e),
    };
    let study = Study::new(config);
    let mut browser = Browser::new(study.net.clone(), region);
    if flags.has("--adblock") {
        browser = browser.with_blocker(blocklist::FilterEngine::ublock_with_annoyances());
    }
    let tool = BannerClick::new();
    let analysis = tool.analyze(&mut browser, domain);
    if !analysis.reachable {
        return fail(&format!(
            "{domain} is not reachable in this synthetic web \
            (use `walls` to list sites)"
        ));
    }
    println!("domain:       {domain}");
    println!("vantage:      {}", region.label());
    println!("banner:       {}", analysis.banner_detected());
    println!("cookiewall:   {}", analysis.cookiewall_detected());
    if let Some(e) = analysis.embedding() {
        println!("embedding:    {e:?}");
    }
    if let Some(p) = analysis.price() {
        println!(
            "price:        {} {} ≙ {:.2} €/month{}",
            p.amount,
            p.currency,
            p.monthly_eur,
            if p.per_year { " (yearly offer)" } else { "" }
        );
    }
    if let Some(provider) = &analysis.provider {
        println!("provider:     {provider}");
    }
    if let Some(b) = &analysis.banner {
        println!("banner text:  {}", b.text);
    }
    if analysis.page_flags.anything_blocked {
        println!("blocked:      content blocker cancelled requests");
    }
    if analysis.page_flags.adblock_interstitial {
        println!("interstitial: site demands the blocker be disabled");
    }
    // Ground truth comparison (the 'manual verification' step).
    let truth = study
        .population
        .site(domain)
        .map(|s| s.banner.is_cookiewall())
        .unwrap_or(false);
    println!(
        "ground truth: {}",
        if truth {
            "cookiewall"
        } else {
            "not a cookiewall"
        }
    );
    ExitCode::SUCCESS
}

fn cmd_walls(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args, &["--scale", "--epoch"], &[], 0) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let (config, _, _) = match parse_population(&flags) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let study = Study::new(config);
    let mut out = std::io::stdout().lock();
    for site in study.population.ground_truth_walls() {
        let webgen::BannerKind::Cookiewall(cw) = &site.banner else {
            continue;
        };
        let line = format!(
            "{}\t{:?}\t{:?}\t{:.2}€/mo\t{}",
            site.domain,
            cw.embedding,
            cw.visibility,
            cw.price.monthly_eur(),
            cw.smp.map(|s| s.name()).unwrap_or("independent"),
        );
        if writeln!(out, "{line}").is_err() {
            return ExitCode::SUCCESS; // downstream pipe closed (e.g. head)
        }
    }
    ExitCode::SUCCESS
}

const SERVE_VALUED: &[&str] = &[
    "--script",
    "--requests",
    "--seed",
    "--readers",
    "--zipf",
    "--json",
];

/// Parse an optional unsigned-integer flag with a default.
fn parse_count(flags: &Flags, name: &str, default: usize, min: usize) -> Result<usize, String> {
    match flags.value(name) {
        None => Ok(default),
        Some(raw) => raw
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= min)
            .ok_or_else(|| format!("{name} needs an integer ≥ {min}, got {raw:?}")),
    }
}

/// Parse `--seed` (any u64, default 0).
fn parse_seed(flags: &Flags) -> Result<u64, String> {
    match flags.value("--seed") {
        None => Ok(0),
        Some(raw) => raw
            .parse::<u64>()
            .map_err(|_| format!("--seed needs a non-negative integer, got {raw:?}")),
    }
}

/// Parse `--zipf` (exponent ≥ 0, default 1.1).
fn parse_zipf(flags: &Flags) -> Result<f64, String> {
    match flags.value("--zipf") {
        None => Ok(1.1),
        Some(raw) => raw
            .parse::<f64>()
            .ok()
            .filter(|z| z.is_finite() && *z >= 0.0)
            .ok_or_else(|| format!("--zipf needs a non-negative exponent, got {raw:?}")),
    }
}

/// Split a query script across reader lanes, round-robin by line index —
/// the same partition every run, so the response digest is stable.
fn partition_script(queries: Vec<Query>, readers: usize) -> Vec<Vec<Query>> {
    let mut lanes = vec![Vec::new(); readers.max(1)];
    for (i, q) in queries.into_iter().enumerate() {
        lanes[i % readers.max(1)].push(q);
    }
    lanes
}

/// Minimal JSON string escaping for the hand-rolled reports.
fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args, SERVE_VALUED, &[], 2) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let Some(dir_a) = flags.positionals.first() else {
        return fail(
            "serve needs a sealed store: cookiewall-study serve <store-a> [<store-b>] \
             (run `run --store DIR` first, or `fsck` to repair the index)",
        );
    };
    let readers = match parse_count(&flags, "--readers", 3, 1) {
        Ok(n) => n,
        Err(e) => return fail(&e),
    };
    let requests = match parse_count(&flags, "--requests", 256, 0) {
        Ok(n) => n,
        Err(e) => return fail(&e),
    };
    let seed = match parse_seed(&flags) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let zipf = match parse_zipf(&flags) {
        Ok(z) => z,
        Err(e) => return fail(&e),
    };
    let epoch_a = match StoreSnapshot::open(Path::new(dir_a)) {
        Ok(s) => Arc::new(s),
        Err(e) => return fail(&format!("opening snapshot {dir_a}: {e}")),
    };
    let epoch_b = match flags.positionals.get(1) {
        None => None,
        Some(dir) => match StoreSnapshot::open(Path::new(dir)) {
            Ok(s) => Some(Arc::new(s)),
            Err(e) => return fail(&format!("opening snapshot {dir}: {e}")),
        },
    };

    let service = QueryService::new(Arc::clone(&epoch_a), epoch_b.is_some());
    if let Some(b) = &epoch_b {
        service.install_second_epoch(Arc::clone(b));
    }

    // The request stream: a query script if given, otherwise the seeded
    // Zipf workload over the sealed domain universe.
    let lanes: Vec<Vec<Query>> = match flags.value("--script") {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => return fail(&format!("reading script {path}: {e}")),
            };
            match parse_script(&text) {
                Ok(queries) => partition_script(queries, readers),
                Err(e) => return fail(&format!("script {path}: {e}")),
            }
        }
        None => {
            let mut domains = Vec::new();
            for region in 0..epoch_a.regions() as u8 {
                epoch_a.for_each_region_entry(region, &mut |domain, _| {
                    domains.push(domain.to_string());
                });
            }
            let stream = RequestStream::new(
                seed,
                domains,
                zipf,
                epoch_a.regions() as u8,
                epoch_b.is_some(),
            );
            (0..readers).map(|r| stream.lane(r, requests)).collect()
        }
    };

    // Answer reader-major: every lane in order, every request in order.
    // The digest chains response texts only, so it is the same whether
    // the stream came from a script or from the synthesizer.
    let mut digest = 0u64;
    let mut responses = 0usize;
    let mut out = std::io::stdout().lock();
    for (reader, lane) in lanes.iter().enumerate() {
        for query in lane {
            let response = service.answer(query);
            digest = chain_digest(digest, &response.text);
            responses += 1;
            if writeln!(out, "r{reader}\t{}", response.text).is_err() {
                return ExitCode::SUCCESS; // downstream pipe closed (e.g. head)
            }
        }
    }
    let ledger = service.ledger();
    println!("digest={}", format_digest(digest));
    println!("clock_us={}", service.clock().now_micros());
    for s in ledger.summaries() {
        println!(
            "latency class={} count={} p50_us={} p99_us={}",
            s.class, s.count, s.p50_micros, s.p99_micros
        );
    }
    if let Some(path) = flags.value("--json") {
        let classes: Vec<String> = ledger
            .summaries()
            .iter()
            .map(|s| {
                format!(
                    "{{\"class\":\"{}\",\"count\":{},\"p50_us\":{},\"p99_us\":{}}}",
                    s.class, s.count, s.p50_micros, s.p99_micros
                )
            })
            .collect();
        let json = format!(
            "{{\"store_a\":\"{}\",\"store_b\":{},\"responses\":{},\"digest\":\"{}\",\
             \"clock_us\":{},\"classes\":[{}]}}\n",
            json_escape(dir_a),
            flags
                .positionals
                .get(1)
                .map(|d| format!("\"{}\"", json_escape(d)))
                .unwrap_or_else(|| "null".to_string()),
            responses,
            format_digest(digest),
            service.clock().now_micros(),
            classes.join(",")
        );
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("JSON serve ledger written to {path}"),
            Err(e) => return fail(&format!("writing {path}: {e}")),
        }
    }
    ExitCode::SUCCESS
}

fn cmd_stats(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args, &["--json"], &[], 1) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let Some(dir) = flags.positionals.first() else {
        return fail("stats needs a store directory: cookiewall-study stats <store>");
    };
    let store = match Store::open(Path::new(dir)) {
        Ok(s) => s,
        Err(e) => return fail(&format!("opening store {dir}: {e}")),
    };
    let quarantined = match store::quarantine_ledger(Path::new(dir), &FsBackend) {
        Ok(cells) => cells.len(),
        Err(_) => 0,
    };
    // Per-region census over the live store (streaming, no buffering).
    let mut region_cells: Vec<(String, usize)> = Vec::new();
    for region in 0..store.regions() as u8 {
        let mut n = 0usize;
        store.for_each_region_entry(region, &mut |_, _| n += 1);
        region_cells.push((analysis::query::region_label(region), n));
    }
    // The sealed view, if the store has ever been sealed and its index
    // slots verify; a damaged index is reported, not fatal.
    let snapshot = StoreSnapshot::open(Path::new(dir));
    println!("store: {dir}");
    println!("cells: {}", store.len());
    for (label, n) in &region_cells {
        println!("  {label}: {n}");
    }
    match &snapshot {
        Ok(snap) => {
            let mut segments = std::collections::BTreeSet::new();
            for region in 0..snap.regions() as u8 {
                snap.for_each_region_entry(region, &mut |domain, _| {
                    if let Some(segment) = snap.segment_of(region, domain) {
                        segments.insert(segment);
                    }
                });
            }
            let coverage = if store.is_empty() {
                100.0
            } else {
                snap.len() as f64 * 100.0 / store.len() as f64
            };
            println!("sealed generation: {}", snap.generation());
            println!("sealed segments: {}", segments.len());
            println!(
                "index coverage: {:.1}% ({} of {} cells sealed)",
                coverage,
                snap.len(),
                store.len()
            );
        }
        Err(e) => println!("index: unreadable ({e})"),
    }
    println!("quarantined cells: {quarantined}");
    if let Some(path) = flags.value("--json") {
        let regions: Vec<String> = region_cells
            .iter()
            .map(|(label, n)| format!("{{\"region\":\"{}\",\"cells\":{n}}}", json_escape(label)))
            .collect();
        let sealed = match &snapshot {
            Ok(snap) => {
                let mut segments = std::collections::BTreeSet::new();
                for region in 0..snap.regions() as u8 {
                    snap.for_each_region_entry(region, &mut |domain, _| {
                        if let Some(segment) = snap.segment_of(region, domain) {
                            segments.insert(segment);
                        }
                    });
                }
                let coverage = if store.is_empty() {
                    100.0
                } else {
                    snap.len() as f64 * 100.0 / store.len() as f64
                };
                format!(
                    "{{\"generation\":{},\"segments\":{},\"sealed_cells\":{},\
                     \"coverage_percent\":{coverage:.1}}}",
                    snap.generation(),
                    segments.len(),
                    snap.len()
                )
            }
            Err(e) => format!("{{\"error\":\"{}\"}}", json_escape(&e.to_string())),
        };
        let json = format!(
            "{{\"store\":\"{}\",\"cells\":{},\"regions\":[{}],\"index\":{},\
             \"quarantined\":{}}}\n",
            json_escape(dir),
            store.len(),
            regions.join(","),
            sealed,
            quarantined
        );
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("JSON stats written to {path}"),
            Err(e) => return fail(&format!("writing {path}: {e}")),
        }
    }
    ExitCode::SUCCESS
}

fn fail(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        let err =
            parse_flags(&argv(&["--scael", "paper"]), RUN_VALUED, &["--adblock"], 0).unwrap_err();
        assert!(err.contains("unknown flag --scael"), "{err}");
        let err = parse_flags(&argv(&["--adbloc"]), RUN_VALUED, &["--adblock"], 0).unwrap_err();
        assert!(err.contains("unknown flag --adbloc"), "{err}");
    }

    #[test]
    fn valued_flags_parse_space_and_equals_forms() {
        let flags =
            parse_flags(&argv(&["--scale", "paper"]), RUN_VALUED, &["--adblock"], 0).unwrap();
        assert_eq!(flags.value("--scale"), Some("paper"));
        let flags = parse_flags(&argv(&["--scale=tiny"]), RUN_VALUED, &["--adblock"], 0).unwrap();
        assert_eq!(flags.value("--scale"), Some("tiny"));
    }

    #[test]
    fn missing_values_and_duplicates_are_rejected() {
        let err = parse_flags(&argv(&["--scale"]), RUN_VALUED, &["--adblock"], 0).unwrap_err();
        assert!(err.contains("--scale needs a value"), "{err}");
        let err = parse_flags(
            &argv(&["--scale", "--adblock"]),
            RUN_VALUED,
            &["--adblock"],
            0,
        )
        .unwrap_err();
        assert!(err.contains("--scale needs a value"), "{err}");
        let err = parse_flags(
            &argv(&["--scale", "tiny", "--scale", "paper"]),
            RUN_VALUED,
            &["--adblock"],
            0,
        )
        .unwrap_err();
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn switches_reject_values_and_positionals_are_bounded() {
        let err = parse_flags(&argv(&["--adblock=1"]), RUN_VALUED, &["--adblock"], 0).unwrap_err();
        assert!(err.contains("does not take a value"), "{err}");
        let err = parse_flags(&argv(&["stray"]), RUN_VALUED, &["--adblock"], 0).unwrap_err();
        assert!(err.contains("unexpected argument"), "{err}");
        let flags = parse_flags(&argv(&["a", "b"]), &["--json"], &[], 2).unwrap();
        assert_eq!(flags.positionals, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn resume_conflicts_cover_every_study_shaping_flag() {
        for conflict in RESUME_CONFLICTS {
            assert!(
                RUN_VALUED.contains(conflict),
                "{conflict} must be a run flag"
            );
        }
    }

    #[test]
    fn disk_fault_flags_are_operator_knobs_compatible_with_resume() {
        for flag in ["--disk-fault-seed", "--disk-fault-rate"] {
            assert!(RUN_VALUED.contains(&flag), "{flag} must be a run flag");
            assert!(
                !RESUME_CONFLICTS.contains(&flag),
                "{flag} models the disk, not the study — it must stay legal with --resume"
            );
        }
    }

    #[test]
    fn serve_flags_parse_with_defaults_and_validate() {
        let flags = parse_flags(&argv(&["store-a", "store-b"]), SERVE_VALUED, &[], 2).unwrap();
        assert_eq!(parse_count(&flags, "--readers", 3, 1).unwrap(), 3);
        assert_eq!(parse_count(&flags, "--requests", 256, 0).unwrap(), 256);
        assert_eq!(parse_seed(&flags).unwrap(), 0);
        assert!((parse_zipf(&flags).unwrap() - 1.1).abs() < 1e-12);

        let flags = parse_flags(
            &argv(&[
                "store-a",
                "--readers",
                "5",
                "--requests=64",
                "--seed",
                "9",
                "--zipf",
                "0.0",
            ]),
            SERVE_VALUED,
            &[],
            2,
        )
        .unwrap();
        assert_eq!(parse_count(&flags, "--readers", 3, 1).unwrap(), 5);
        assert_eq!(parse_count(&flags, "--requests", 256, 0).unwrap(), 64);
        assert_eq!(parse_seed(&flags).unwrap(), 9);
        assert_eq!(parse_zipf(&flags).unwrap(), 0.0);

        let flags = parse_flags(&argv(&["a", "--readers", "0"]), SERVE_VALUED, &[], 2).unwrap();
        let err = parse_count(&flags, "--readers", 3, 1).unwrap_err();
        assert!(err.contains("--readers"), "{err}");
        let flags = parse_flags(&argv(&["a", "--zipf", "-1"]), SERVE_VALUED, &[], 2).unwrap();
        assert!(parse_zipf(&flags).is_err());

        let err = parse_flags(&argv(&["a", "b", "c"]), SERVE_VALUED, &[], 2).unwrap_err();
        assert!(err.contains("unexpected argument"), "{err}");
        let err = parse_flags(&argv(&["a", "--dry-run"]), SERVE_VALUED, &[], 2).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
    }

    #[test]
    fn script_partition_is_round_robin_and_survives_zero_readers() {
        let queries = vec![
            Query::EpochDiff,
            Query::Prevalence { region: 0 },
            Query::Prices { region: None },
            Query::EpochDiff,
        ];
        let lanes = partition_script(queries.clone(), 3);
        assert_eq!(lanes.len(), 3);
        assert_eq!(lanes[0].len(), 2);
        assert_eq!(lanes[1].len(), 1);
        assert_eq!(lanes[2].len(), 1);
        let lanes = partition_script(queries, 0);
        assert_eq!(lanes.len(), 1, "zero readers clamp to one lane");
        assert_eq!(lanes[0].len(), 4);
    }

    #[test]
    fn json_escape_covers_quotes_and_control_bytes() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("a\nb"), "a\\nb");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn disk_fault_flags_parse_and_validate() {
        let none = parse_disk_fault(&Flags::default()).unwrap();
        assert!(none.is_none(), "no flags, no fault layer");
        let flags = parse_flags(
            &argv(&["--disk-fault-seed", "7", "--disk-fault-rate", "0.25"]),
            RUN_VALUED,
            &[],
            0,
        )
        .unwrap();
        let config = parse_disk_fault(&flags).unwrap().unwrap();
        assert_eq!(config.seed, 7);
        assert!((config.rate - 0.25).abs() < 1e-12);
        let flags = parse_flags(&argv(&["--disk-fault-rate", "1.5"]), RUN_VALUED, &[], 0).unwrap();
        let err = parse_disk_fault(&flags).unwrap_err();
        assert!(err.contains("probability"), "{err}");
    }
}
