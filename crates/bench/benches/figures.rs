//! Bench: Figures 1–6 — the per-figure computation on shared crawls, the
//! cookie-measurement experiments at tiny scale, and the two multi-variant
//! German passes (mechanism ablation and bot detection).

use analysis::experiments::{ablation, botdetect, fig1, fig2, fig3, fig4, fig5, fig6};
use analysis::{measure_site, InteractionMode};
use bannerclick::BannerClick;
use bench::{small_crawls, small_study, tiny_study};
use blocklist::TrackerDb;
use criterion::{criterion_group, criterion_main, Criterion};
use httpsim::Region;
use std::hint::black_box;

fn bench_crawl_derived_figures(c: &mut Criterion) {
    let study = small_study();
    let crawls = small_crawls();
    let f2 = fig2::compute(study, crawls);

    let mut g = c.benchmark_group("figures");
    g.bench_function("fig1_categories", |b| {
        b.iter(|| black_box(fig1::compute(study, crawls).total))
    });
    g.bench_function("fig2_prices", |b| {
        b.iter(|| black_box(fig2::compute(study, crawls).median))
    });
    g.bench_function("fig3_category_price", |b| {
        b.iter(|| black_box(fig3::compute(study, &f2).grand_mean))
    });
    g.finish();
}

fn bench_measurement_figures(c: &mut Criterion) {
    let tiny = tiny_study();
    let tool = BannerClick::new();
    let trackers = TrackerDb::justdomains();
    let wall = tiny.population.ground_truth_walls()[0].domain.clone();
    let partner = tiny.population.smp_partners(webgen::Smp::Contentpass)[0].clone();

    let mut g = c.benchmark_group("figures/measurement");
    g.sample_size(10);

    // Figure 4's unit of work: one site, five accept repetitions.
    g.bench_function("fig4_measure_one_wall", |b| {
        b.iter(|| {
            let m = measure_site(
                &tiny.net,
                Region::Germany,
                &wall,
                InteractionMode::Accept,
                &tool,
                &trackers,
            );
            black_box(m.tracking)
        })
    });

    // Figure 5's unit of work: one partner, subscriber flow (login +
    // entitlement + reload), five repetitions.
    g.bench_function("fig5_measure_one_subscriber", |b| {
        b.iter(|| {
            let m = measure_site(
                &tiny.net,
                Region::Germany,
                &partner,
                InteractionMode::Subscribed {
                    account_host: webgen::Smp::Contentpass.account_host(),
                },
                &tool,
                &trackers,
            );
            black_box(m.first_party)
        })
    });

    // Figures 4+5+6 end to end at tiny scale.
    g.bench_function("fig4_fig5_fig6_tiny", |b| {
        b.iter(|| {
            let crawls = analysis::run_crawls_with_metrics(tiny).0;
            let f2 = fig2::compute(tiny, &crawls);
            let f4 = fig4::compute(tiny, &crawls);
            let f5 = fig5::compute(tiny);
            let f6 = fig6::compute(&f2, &f4);
            black_box((f4.tracking_ratio, f5.partners, f6.pearson_r))
        })
    });
    g.finish();
}

fn bench_variant_passes(c: &mut Criterion) {
    let tiny = tiny_study();
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    // The ablation's five detector configs and botdetect's two user
    // agents, each one multi-variant pass over the German vantage point.
    g.bench_function("ablation_botdetect_tiny", |b| {
        b.iter(|| {
            let abl = ablation::compute(tiny);
            let bot = botdetect::compute(tiny);
            black_box((abl.rows.len(), bot.lost))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_crawl_derived_figures,
    bench_measurement_figures,
    bench_variant_passes
);
criterion_main!(benches);
