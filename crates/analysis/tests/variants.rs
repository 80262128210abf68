//! Differential tests of the multi-variant crawl pass.
//!
//! `crawl_variants` replaces separate per-configuration crawls of one
//! region. Each test runs the old crawls in one fresh world and the pass in
//! another, at 1 and 4 workers, with the fault plan off and on, and
//! requires (a) the same `reachable` / `banner` / `cookiewall` per domain
//! and (b) origins left in lockstep: a later accept-mode cookie
//! measurement, which consumes the per-site visit counters, gives
//! identical counts in both worlds.

use analysis::experiments::ablation;
use analysis::experiments::botdetect::NAIVE_BOT_UA;
use analysis::{
    crawl_regions, crawl_variants, measure_sites, CrawlRecord, CrawlVariant, InteractionMode,
    RetryPolicy, Study, VantageCrawl, Verdict,
};
use bannerclick::BannerClick;
use browser::Browser;
use httpsim::{FaultConfig, Region};
use webgen::PopulationConfig;

const WORKER_COUNTS: [usize; 2] = [1, 4];

fn fault_config() -> FaultConfig {
    let mut f = FaultConfig::new(1234);
    f.transient_rate = 0.12;
    f.permanent_rate = 0.04;
    f
}

fn fresh_study(workers: usize, fault: bool) -> Study {
    let mut study = Study::with_fault_config(PopulationConfig::tiny(), fault.then(fault_config));
    study.workers = workers;
    study
}

/// The single-attempt analysis the naive bot crawl ran per domain: one
/// visit, failures folded into an unreachable record.
fn analyze_domain(tool: &BannerClick, browser: &mut Browser, domain: &str) -> CrawlRecord {
    let analysis = tool.analyze(browser, domain);
    CrawlRecord {
        domain: domain.to_string(),
        reachable: analysis.reachable,
        banner: analysis.banner_detected(),
        cookiewall: analysis.cookiewall_detected(),
        embedding: analysis.embedding(),
        monthly_eur: analysis.price().map(|p| p.monthly_eur),
        provider: analysis.provider.clone(),
        language: None,
        attempts: 1,
        failure: None,
    }
}

/// The naive bot crawl as `botdetect` ran it before the multi-variant
/// pass: a private pool, a UA-overridden profile per worker, every
/// profile fully cleared per domain, one attempt, no breaker.
fn crawl_with_ua(study: &Study, targets: &[String], user_agent: &str) -> VantageCrawl {
    use crossbeam::thread;
    use std::sync::atomic::{AtomicUsize, Ordering};
    let tool = BannerClick {
        detector: study.tool.detector.clone(),
        corpus: study.tool.corpus,
    };
    let next = AtomicUsize::new(0);
    let slots: Vec<parking_lot::Mutex<Option<CrawlRecord>>> = targets
        .iter()
        .map(|_| parking_lot::Mutex::new(None))
        .collect();
    thread::scope(|scope| {
        for _ in 0..study.workers.max(1) {
            scope.spawn(|_| {
                let mut browser = Browser::new(study.net.clone(), Region::Germany)
                    .with_user_agent(user_agent.to_string());
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= targets.len() {
                        break;
                    }
                    browser.clear_all_data();
                    let record = analyze_domain(&tool, &mut browser, &targets[i]);
                    *slots[i].lock() = Some(record);
                }
            });
        }
    })
    .expect("bot-crawl workers");
    let records: Vec<CrawlRecord> = slots
        .into_iter()
        .map(|s| s.into_inner().expect("crawled"))
        .collect();
    VantageCrawl {
        region: Region::Germany,
        records,
    }
}

/// A one-config crawl of Germany under the default retry policy.
fn crawl_germany(study: &Study, targets: &[String], tool: &BannerClick) -> VantageCrawl {
    let (mut crawls, _) = crawl_regions(
        &study.net,
        &[Region::Germany],
        targets,
        tool,
        study.workers,
        &RetryPolicy::default(),
    );
    crawls.remove(0)
}

fn assert_same_verdicts(context: &str, reference: &VantageCrawl, verdicts: &[Verdict]) {
    assert_eq!(reference.records.len(), verdicts.len(), "{context}");
    for (r, v) in reference.records.iter().zip(verdicts) {
        let expected = Verdict {
            reachable: r.reachable,
            banner: r.banner,
            cookiewall: r.cookiewall,
        };
        assert_eq!(*v, expected, "{context}: {}", r.domain);
    }
}

/// Both worlds' origins must have seen the same visits: accept-mode
/// measurements over the wall domains draw the same per-visit cookie noise.
fn assert_lockstep(context: &str, reference: &Study, pass: &Study) {
    let walls: Vec<String> = reference
        .population
        .ground_truth_walls()
        .iter()
        .map(|s| s.domain.clone())
        .collect();
    assert!(!walls.is_empty());
    let measure = |study: &Study| {
        measure_sites(
            &study.net,
            Region::Germany,
            &walls,
            InteractionMode::Accept,
            &study.tool,
            study.workers,
        )
        .iter()
        .map(|m| {
            format!(
                "{} fp={} tp={} tracking={} reps={}\n",
                m.domain, m.first_party, m.third_party, m.tracking, m.successful_reps
            )
        })
        .collect::<String>()
    };
    assert_eq!(
        measure(reference),
        measure(pass),
        "{context}: origins out of lockstep"
    );
}

#[test]
fn ablation_pass_matches_one_crawl_per_config() {
    let configs = ablation::configs();
    let variants: Vec<CrawlVariant> = configs
        .iter()
        .map(|(_, tool)| CrawlVariant::new(tool.clone()))
        .collect();
    let mut detectors: Vec<_> = Vec::new();
    for (_, tool) in &configs {
        if !detectors.contains(&tool.detector) {
            detectors.push(tool.detector.clone());
        }
    }
    for workers in WORKER_COUNTS {
        for fault in [false, true] {
            let context = format!("workers={workers} fault={fault}");
            let reference = fresh_study(workers, fault);
            let targets = reference.targets();
            let crawls: Vec<VantageCrawl> = configs
                .iter()
                .map(|(_, tool)| crawl_germany(&reference, &targets, tool))
                .collect();

            let world = fresh_study(workers, fault);
            let pass = crawl_variants(&world.net, Region::Germany, &targets, workers, &variants);
            assert_eq!(pass.verdicts.len(), configs.len());
            for ((label, _), (crawl, verdicts)) in
                configs.iter().zip(crawls.iter().zip(&pass.verdicts))
            {
                assert_same_verdicts(&format!("{context} config={label}"), crawl, verdicts);
            }
            assert_lockstep(&context, &reference, &world);

            // The sharing itself: one page load per reachable domain (all
            // five configs present the same UA and get the same document),
            // one detection per distinct detector configuration.
            let reachable = pass.verdicts[0].iter().filter(|v| v.reachable).count() as u64;
            assert!(reachable > 0, "{context}");
            assert_eq!(pass.counters.loads, reachable, "{context}");
            assert_eq!(
                pass.counters.detects,
                detectors.len() as u64 * reachable,
                "{context}"
            );
            // One classification per (banner text, corpus mode): the three
            // full-detector configs see one text under three corpus modes,
            // and the other two mostly reuse the full pipeline's text.
            let banners = |v: usize| pass.verdicts[v].iter().filter(|x| x.banner).count() as u64;
            let all_banners: u64 = (0..configs.len()).map(banners).sum();
            assert!(
                (3 * banners(0)..all_banners).contains(&pass.counters.classifies),
                "{context}: {} classifications for {} full-pipeline banners",
                pass.counters.classifies,
                banners(0)
            );
        }
    }
}

#[test]
fn botdetect_pass_matches_stealth_and_naive_crawls() {
    for workers in WORKER_COUNTS {
        for fault in [false, true] {
            let context = format!("workers={workers} fault={fault}");
            let reference = fresh_study(workers, fault);
            let targets = reference.targets();
            let stealth = crawl_germany(&reference, &targets, &reference.tool);
            let naive = crawl_with_ua(&reference, &targets, NAIVE_BOT_UA);

            let world = fresh_study(workers, fault);
            let stealth_variant = CrawlVariant::new(world.tool.clone());
            let naive_variant = CrawlVariant {
                user_agent: NAIVE_BOT_UA.to_string(),
                retry: RetryPolicy::none(),
                ..stealth_variant.clone()
            };
            let pass = crawl_variants(
                &world.net,
                Region::Germany,
                &targets,
                workers,
                &[stealth_variant, naive_variant],
            );
            assert_same_verdicts(&format!("{context} stealth"), &stealth, &pass.verdicts[0]);
            assert_same_verdicts(&format!("{context} naive"), &naive, &pass.verdicts[1]);
            assert_lockstep(&context, &reference, &world);
            assert!(
                naive
                    .records
                    .iter()
                    .zip(&stealth.records)
                    .any(|(n, s)| n.banner != s.banner),
                "{context}: the bot UA must change some observation"
            );
        }
    }
}
