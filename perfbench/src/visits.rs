//! The per-visit stage pass of a traced run: every target visited once
//! from the Germany vantage point, single-threaded and uncached, with a
//! span and allocation counts around each stage of the crawl pipeline,
//! then the cookie measurement of every detected wall.

use crate::alloc;
use crate::common::{mean, Metrics};
use crate::trace::Tracer;
use analysis::{measure_site, InteractionMode, Study};
use blocklist::TrackerDb;
use browser::Browser;
use httpsim::Region;
use std::hint::black_box;

/// One stage's totals across the pass.
#[derive(Default)]
struct Stage {
    secs: f64,
    calls: u64,
    allocs: u64,
    alloc_bytes: u64,
}

impl Stage {
    /// Run `f` as one call of this stage, inside a span of `visit`.
    fn call<T>(
        &mut self,
        tracer: &mut Tracer,
        name: &'static str,
        visit: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let (a0, b0) = alloc::snapshot();
        let id = tracer.open(name, Some(visit));
        let out = f();
        self.secs += tracer.close(id);
        let (a1, b1) = alloc::snapshot();
        self.calls += 1;
        self.allocs += a1 - a0;
        self.alloc_bytes += b1 - b0;
        out
    }

    fn per_call(&self, total: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            total / self.calls as f64
        }
    }

    fn report(
        &self,
        metrics: &mut Metrics,
        us: &'static str,
        allocs: Option<(&'static str, &'static str)>,
    ) {
        metrics.set(us, self.per_call(self.secs * 1e6));
        if let Some((count, bytes)) = allocs {
            metrics.set(count, self.per_call(self.allocs as f64));
            metrics.set(bytes, self.per_call(self.alloc_bytes as f64));
        }
    }
}

/// Visit every target of `study` once from Germany; with `measure`, also
/// run the cookie measurement over each detected wall. `study` must be
/// fresh (its origins unvisited) and is used for nothing else.
pub fn stage_pass(study: &Study, tracer: &mut Tracer, metrics: &mut Metrics, measure: bool) {
    let root = tracer.open("visits", None);
    alloc::enable();
    let targets = study.targets();
    let mut browser = Browser::new(study.net.clone(), Region::Germany);
    let [mut fetch, mut parse, mut load, mut analyze, mut text, mut langid] =
        std::array::from_fn::<Stage, 6, _>(|_| Stage::default());
    let mut doc_bytes = 0usize;
    let mut walls: Vec<String> = Vec::new();
    for (v, domain) in targets.iter().enumerate() {
        let v = v as u32;
        let visit = tracer.open("visit", Some(v));
        browser.clear_cookies();
        let fetched = fetch.call(tracer, "browser.fetch", v, || {
            browser.fetch_domain_document(domain)
        });
        if let Ok(fetched) = fetched {
            doc_bytes += fetched.body().len();
            parse.call(tracer, "webdom.parse", v, || {
                black_box(webdom::parse(black_box(fetched.body())))
            });
            let page = load.call(tracer, "browser.load", v, || browser.load_fetched(&fetched));
            if let Ok(mut page) = page {
                let analysis = analyze.call(tracer, "bannerclick.analyze", v, || {
                    study.tool.analyze_page(domain, &mut page)
                });
                let mut prose = text.call(tracer, "browser.main_text", v, || page.main_text());
                if let Some(b) = &analysis.banner {
                    prose.push(' ');
                    prose.push_str(&b.text);
                }
                black_box(langid.call(tracer, "langid.detect", v, || langid::detect(&prose)));
                if analysis.cookiewall_detected() {
                    walls.push(domain.clone());
                }
            }
        }
        tracer.close(visit);
    }
    metrics.set("visit.count", fetch.calls as f64);
    metrics.set("visit.doc_bytes", fetch.per_call(doc_bytes as f64));
    fetch.report(
        metrics,
        "browser.fetch_us",
        Some(("browser.fetch_allocs", "browser.fetch_alloc_bytes")),
    );
    parse.report(
        metrics,
        "webdom.parse_us",
        Some(("webdom.parse_allocs", "webdom.parse_alloc_bytes")),
    );
    load.report(
        metrics,
        "browser.load_us",
        Some(("browser.load_allocs", "browser.load_alloc_bytes")),
    );
    analyze.report(
        metrics,
        "bannerclick.analyze_us",
        Some((
            "bannerclick.analyze_allocs",
            "bannerclick.analyze_alloc_bytes",
        )),
    );
    text.report(metrics, "browser.main_text_us", None);
    langid.report(
        metrics,
        "langid.detect_us",
        Some(("langid.detect_allocs", "langid.detect_alloc_bytes")),
    );
    alloc::disable();

    if measure {
        let trackers = TrackerDb::justdomains();
        let mut site_ms = Vec::with_capacity(walls.len());
        for (v, domain) in walls.iter().enumerate() {
            let id = tracer.open("measure.site", Some(v as u32));
            black_box(measure_site(
                &study.net,
                Region::Germany,
                domain,
                InteractionMode::Accept,
                &study.tool,
                &trackers,
            ));
            site_ms.push(tracer.close(id) * 1e3);
        }
        metrics.set("measure.site_ms", mean(&site_ms));
        metrics.set("measure.sites", site_ms.len() as f64);
    }
    tracer.close(root);
}
