//! §3's bot-detection limitation, quantified: some sites behave differently
//! when the visitor looks like a crawler. OpenWPM mitigates this with a
//! realistic browser fingerprint; a naive crawler user agent loses part of
//! the measurement.

use crate::context::Study;
use crate::crawl::{crawl_variants, CrawlVariant, RetryPolicy, Verdict};
use crate::render::TextTable;
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

/// Crawl the target list from Germany with both user agents, as one
/// two-variant pass.
pub fn compute(study: &Study) -> BotDetection {
    let targets = study.targets();
    // The stealth crawl is what `crawl_regions` runs; the degraded one is
    // the identical pipeline with an honest bot UA and a single attempt.
    // Both start every domain from a fully fresh profile: a pass never
    // clicks, so its profiles hold no localStorage.
    let stealth = CrawlVariant::new(study.tool.clone());
    let naive = CrawlVariant {
        user_agent: NAIVE_BOT_UA.to_string(),
        retry: RetryPolicy::none(),
        ..stealth.clone()
    };
    let pass = crawl_variants(
        &study.net,
        Region::Germany,
        &targets,
        study.workers,
        &[stealth, naive],
    );

    let verified = |verdicts: &[Verdict]| {
        targets
            .iter()
            .zip(verdicts)
            .filter(|(domain, v)| v.cookiewall && study.verify_wall(domain))
            .count()
    };
    let banners = |verdicts: &[Verdict]| verdicts.iter().filter(|v| v.banner).count();
    let (stealth, naive) = (&pass.verdicts[0], &pass.verdicts[1]);
    let walls_stealth = verified(stealth);
    let walls_naive = verified(naive);
    BotDetection {
        walls_stealth,
        walls_naive,
        lost: walls_stealth.saturating_sub(walls_naive),
        banners_stealth: banners(stealth),
        banners_naive: banners(naive),
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
