//! Fine-grained tests of the individual experiment drivers, sharing one
//! crawl set over the small population.

use analysis::experiments::{
    accuracy, banners, bypass, darkpatterns, fig1, fig2, fig3, fig4, fig5, fig6, smp, table1,
};
use analysis::{run_crawls_with_metrics, RetryPolicy, Study, VantageCrawl};
use httpsim::Region;
use std::sync::OnceLock;

fn world() -> &'static (Study, Vec<VantageCrawl>) {
    static W: OnceLock<(Study, Vec<VantageCrawl>)> = OnceLock::new();
    W.get_or_init(|| {
        let study = Study::small();
        let crawls = run_crawls_with_metrics(&study).0;
        (study, crawls)
    })
}

#[test]
fn table1_internal_consistency() {
    let (study, crawls) = world();
    let t = table1::compute(study, crawls);
    assert_eq!(t.rows.len(), 8, "one row per vantage point");
    for row in &t.rows {
        // Column invariants: the breakdowns never exceed the detections.
        assert!(row.toplist <= row.cookiewalls, "{}", row.vp);
        assert!(row.cctld <= row.cookiewalls, "{}", row.vp);
        assert!(row.language <= row.cookiewalls, "{}", row.vp);
    }
    // Germany's count equals the unique union (it sees everything).
    let de = t.row(Region::Germany).unwrap();
    assert_eq!(de.cookiewalls, t.unique_walls);
    // Rendered table contains every VP label.
    let rendered = t.render();
    for region in Region::ALL {
        assert!(rendered.contains(region.label()), "{region}");
    }
}

#[test]
fn accuracy_counts_are_conserved() {
    let (study, crawls) = world();
    let a = accuracy::compute(study, crawls);
    assert_eq!(a.detected, a.true_positives + a.false_positives);
    assert!(a.precision > 0.0 && a.precision <= 1.0);
    assert!(a.recall > 0.0 && a.recall <= 1.0);
    assert!(a.sample_detected <= a.sample_walls);
    assert!(a.sample_size <= 1000);
}

#[test]
fn fig1_shares_partition_the_walls() {
    let (study, crawls) = world();
    let f = fig1::compute(study, crawls);
    let total: usize = f.shares.iter().map(|s| s.count).sum();
    assert_eq!(total, f.total, "every wall lands in exactly one category");
    // Sorted descending.
    for w in f.shares.windows(2) {
        assert!(w[0].count >= w[1].count);
    }
}

#[test]
fn fig2_heatmap_partitions_prices() {
    let (study, crawls) = world();
    let f = fig2::compute(study, crawls);
    let heat_total: usize = f
        .heatmap
        .values()
        .map(|row| row.iter().sum::<usize>())
        .sum();
    assert_eq!(
        heat_total,
        f.prices.len(),
        "heatmap cells partition the sites"
    );
    // ECDF sanity.
    assert!(f.at_most_3 <= f.at_most_4);
    assert!(f.at_least_9 <= 1.0 - f.at_most_4 + 1e-9);
    // Every wall with a price is on a TLD present in the heatmap.
    for (domain, _) in &f.prices {
        let tld = domain.rsplit('.').next().unwrap();
        assert!(f.heatmap.contains_key(tld), "{domain}");
    }
}

#[test]
fn fig3_groups_cover_fig2_prices() {
    let (study, crawls) = world();
    let f2 = fig2::compute(study, crawls);
    let f3 = fig3::compute(study, &f2);
    let total: usize = f3.categories.iter().map(|c| c.count).sum();
    assert_eq!(total, f2.prices.len());
    for c in f3.categories.iter().filter(|c| c.count > 0) {
        assert!(c.mean_price > 0.0);
        assert_eq!(c.prices.len(), c.count);
    }
}

#[test]
fn fig4_measurements_align_with_detections() {
    let (study, crawls) = world();
    let f4 = fig4::compute(study, crawls);
    assert_eq!(f4.wall.sites, f4.wall_measurements.len());
    assert_eq!(
        f4.banner.sites, f4.wall.sites,
        "equal-size comparison groups"
    );
    for m in &f4.wall_measurements {
        assert!(m.successful_reps > 0, "{}", m.domain);
        assert!(
            m.third_party >= m.tracking,
            "{}: tracking ⊆ third-party",
            m.domain
        );
    }
}

#[test]
fn fig5_and_fig6_join_correctly() {
    let (study, crawls) = world();
    let f2 = fig2::compute(study, crawls);
    let f4 = fig4::compute(study, crawls);
    let f5 = fig5::compute(study);
    let f6 = fig6::compute(&f2, &f4);
    assert_eq!(
        f5.partners,
        study
            .population
            .smp_partners(webgen::Smp::Contentpass)
            .len()
    );
    // Figure 6 joins on domains present in both inputs.
    assert!(f6.points.len() <= f2.prices.len());
    assert!(f6.points.len() <= f4.wall_measurements.len());
    for (price, tracking) in &f6.points {
        assert!(*price > 0.0 && *tracking >= 0.0);
    }
}

#[test]
fn bypass_records_match_totals() {
    let (study, crawls) = world();
    let b = bypass::compute(study, crawls);
    assert_eq!(b.records.len(), b.total);
    assert_eq!(b.records.iter().filter(|r| r.bypassed).count(), b.bypassed);
    assert!(b.misbehaving <= b.bypassed);
    // First-party walls are never bypassed; SMP/CMP walls are.
    for r in &b.records {
        let site = study.population.site(&r.domain).unwrap();
        let webgen::BannerKind::Cookiewall(cw) = &site.banner else {
            panic!()
        };
        assert_eq!(
            r.bypassed,
            cw.serving != webgen::Serving::FirstParty,
            "{}: serving {:?}",
            r.domain,
            cw.serving
        );
    }
}

#[test]
fn smp_attribution_is_a_subset_of_claims() {
    let (study, crawls) = world();
    let report = smp::compute(study, crawls);
    for p in &report.platforms {
        assert!(p.in_toplist <= p.claimed_partners, "{}", p.name);
        assert!(p.attributed_by_crawl <= p.in_toplist, "{}", p.name);
    }
}

#[test]
fn banner_prevalence_has_all_vps() {
    let (_study, crawls) = world();
    let b = banners::compute(crawls);
    assert_eq!(b.rows.len(), 8);
    for row in &b.rows {
        assert!(row.banners >= row.cookiewalls, "{}", row.vp);
        assert!(row.rate >= 0.0 && row.rate <= 1.0);
    }
}

#[test]
fn darkpatterns_controls_consistent() {
    let (study, crawls) = world();
    let dp = darkpatterns::compute(study, crawls);
    for g in [&dp.banners, &dp.walls] {
        assert!(g.with_accept <= g.inspected);
        assert!(g.with_reject <= g.inspected);
        assert!(g.with_subscribe <= g.inspected);
    }
    assert_eq!(dp.walls.with_reject, 0);
    assert!(dp.banners.with_settings > 0, "some banners offer settings");
}

#[test]
fn crawl_handles_dead_domains() {
    // A population with unreachable sites: the crawl records them as
    // unreachable and the experiments still run.
    let mut cfg = webgen::PopulationConfig::tiny();
    cfg.unreachable_per_mille = 150;
    let study = Study::new(cfg);
    assert!(study.population.dead_count() > 0);
    let (crawls, _) = analysis::crawl_regions(
        &study.net,
        &[Region::Germany],
        &study.targets(),
        &study.tool,
        study.workers,
        &RetryPolicy::default(),
    );
    let dead_in_targets = study
        .targets()
        .iter()
        .filter(|d| study.population.is_dead(d))
        .count();
    let unreachable = crawls[0].records.iter().filter(|r| !r.reachable).count();
    assert_eq!(
        unreachable, dead_in_targets,
        "every dead target is recorded"
    );
    // Experiments degrade gracefully.
    let t = table1::compute(&study, &crawls);
    assert!(t.unique_walls > 0);
    let b = banners::compute(&crawls);
    assert!(b.rows[0].reachable < study.targets().len());
}
