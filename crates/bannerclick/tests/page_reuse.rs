//! `detect_banners` leaves the page structurally unchanged on return (the
//! shadow workaround clones into the body and detaches again). A crawl may
//! therefore run several detector configurations on one loaded page: each
//! must find exactly what it finds on a freshly loaded copy, whatever ran
//! before it.

use bannerclick::{detect_banners, BannerFinding, DetectorOptions, ObservedEmbedding};
use browser::{Browser, ElementRef};
use httpsim::{Network, Region};
use std::sync::Arc;
use webgen::{Population, PopulationConfig};

/// The three detector configurations of the mechanism ablation.
fn option_triples() -> [DetectorOptions; 3] {
    let full = DetectorOptions::default();
    [
        full.clone(),
        DetectorOptions {
            pierce_shadow: false,
            ..full.clone()
        },
        DetectorOptions {
            descend_iframes: false,
            ..full
        },
    ]
}

fn summary(findings: &[BannerFinding]) -> Vec<(ElementRef, ObservedEmbedding, String)> {
    findings
        .iter()
        .map(|f| (f.root, f.embedding, f.text.clone()))
        .collect()
}

#[test]
fn detection_on_a_reused_page_matches_a_fresh_load() {
    let pop = Arc::new(Population::generate(PopulationConfig::tiny()));
    let net = Network::new();
    webgen::server::install(Arc::clone(&pop), &net);
    let mut browser = Browser::new(net, Region::Germany);
    let options = option_triples();
    let mut shadow_walls = 0;
    let walls = pop.ground_truth_walls();
    assert!(!walls.is_empty());

    for site in walls {
        let domain = &site.domain;
        let mut load = || {
            browser.clear_cookies();
            browser
                .visit_domain(domain)
                .expect("tiny-world walls answer")
        };
        let fresh: Vec<_> = options
            .iter()
            .map(|o| summary(&detect_banners(&mut load(), o)))
            .collect();
        assert!(
            !fresh[0].is_empty(),
            "{domain}: the full pipeline finds the wall"
        );
        if fresh[0][0].1 == ObservedEmbedding::ShadowDom {
            shadow_walls += 1;
        }

        for order in [[0, 1, 2], [2, 1, 0]] {
            let mut page = load();
            for k in order {
                assert_eq!(
                    summary(&detect_banners(&mut page, &options[k])),
                    fresh[k],
                    "{domain}: options {:?} after {order:?} on one page",
                    options[k]
                );
            }
        }
    }
    assert!(
        shadow_walls > 0,
        "the mutating shadow workaround must be exercised"
    );
}
