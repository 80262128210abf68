//! §3's bot-detection limitation, quantified: some sites behave differently
//! when the visitor looks like a crawler. OpenWPM mitigates this with a
//! realistic browser fingerprint; a naive crawler user agent loses part of
//! the measurement.

use crate::context::Study;
use crate::crawl::crawl_region;
use crate::render::TextTable;
use bannerclick::BannerClick;
use browser::Browser;
use httpsim::Region;
use serde::Serialize;

/// The obviously-automated user agent the degraded crawl presents.
pub const NAIVE_BOT_UA: &str = "cookiewall-crawler/1.0 (+research; bot)";

/// Bot-detection impact.
#[derive(Debug, Clone, Serialize)]
pub struct BotDetection {
    /// Verified walls detected with the OpenWPM-style (stealthy) UA.
    pub walls_stealth: usize,
    /// Verified walls detected with the naive bot UA.
    pub walls_naive: usize,
    /// Walls lost to bot detection.
    pub lost: usize,
    /// Banners (any consent UI) with the stealthy UA.
    pub banners_stealth: usize,
    /// Banners with the naive UA.
    pub banners_naive: usize,
}

/// Crawl the target list from Germany with both user agents.
pub fn compute(study: &Study) -> BotDetection {
    let targets = study.targets();
    let stealth = crawl_region(
        &study.net,
        Region::Germany,
        &targets,
        &study.tool,
        study.workers,
    );

    // A degraded crawl: identical pipeline, honest bot UA.
    let naive = crawl_with_ua(study, &targets, NAIVE_BOT_UA);

    let verified = |crawl: &crate::crawl::VantageCrawl| {
        crawl
            .detected_walls()
            .filter(|r| study.verify_wall(&r.domain))
            .count()
    };
    let banners =
        |crawl: &crate::crawl::VantageCrawl| crawl.records.iter().filter(|r| r.banner).count();
    let walls_stealth = verified(&stealth);
    let walls_naive = verified(&naive);
    BotDetection {
        walls_stealth,
        walls_naive,
        lost: walls_stealth.saturating_sub(walls_naive),
        banners_stealth: banners(&stealth),
        banners_naive: banners(&naive),
    }
}

/// Crawl `targets` from Germany with a custom user agent (the degraded
/// configuration) on a pool of `study.workers` threads.
fn crawl_with_ua(
    study: &Study,
    targets: &[String],
    user_agent: &str,
) -> crate::crawl::VantageCrawl {
    // Reuse the parallel machinery by cloning the tool; the UA lives on the
    // browser, so run a dedicated worker pool here.
    use crossbeam::thread;
    use std::sync::atomic::{AtomicUsize, Ordering};
    let tool = BannerClick {
        detector: study.tool.detector.clone(),
        corpus: study.tool.corpus,
    };
    let next = AtomicUsize::new(0);
    let slots: Vec<parking_lot::Mutex<Option<crate::crawl::CrawlRecord>>> = targets
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
                    let record = crate::crawl::analyze_domain(&tool, &mut browser, &targets[i]);
                    *slots[i].lock() = Some(record);
                }
            });
        }
    })
    .expect("bot-crawl workers");
    let records: Vec<crate::crawl::CrawlRecord> = slots
        .into_iter()
        .map(|s| s.into_inner().expect("crawled"))
        .collect();
    let metrics = crate::crawl::RegionMetrics {
        tasks: records.len(),
        ..Default::default()
    };
    crate::crawl::VantageCrawl {
        region: Region::Germany,
        records,
        metrics,
    }
}

impl BotDetection {
    /// Render the comparison.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["User agent", "Walls detected", "Banners detected"]);
        t.row([
            "OpenWPM-style (stealth)".to_string(),
            self.walls_stealth.to_string(),
            self.banners_stealth.to_string(),
        ]);
        t.row([
            "naive crawler UA".to_string(),
            self.walls_naive.to_string(),
            self.banners_naive.to_string(),
        ]);
        format!(
            "Bot-detection impact (§3 limitation)\n{}\
             Walls lost to bot detection with a naive UA: {}\n",
            t.render(),
            self.lost
        )
    }
}
