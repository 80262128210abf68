//! `serve`: the query service with live ingest. Set-up crawls epochs N
//! and N+1 and seals epoch N into store A. In the live phase one writer
//! puts epoch N+1 into store B, sealing and installing a snapshot every
//! [`SEAL_EVERY`] puts, while one reader answers an open-loop stream at
//! [`READ_RATE`]. A closed-loop read-only pass over the final two-epoch
//! service follows, then store B is reopened (journal replay) and checked
//! with a dry-run fsck.

use crate::backend::CountingBackend;
use crate::common::{
    answer, cells, class_metrics, closed_loop, domains, latency_metrics, mean, median, peak_rss_mb,
    store_meta, Answered, Cell, Ingested, Metrics, Outcome, Verifier, WorkDir,
};
use crate::readback::{io_metrics, STREAM_SEED, ZIPF};
use crate::trace::Tracer;
use crate::{visits, Opts};
use analysis::{runner, CrawlMetrics, Study};
use httpsim::Region;
use serve::{QueryService, RequestStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use store::{Store, StoreSnapshot};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 2;
/// Puts between seals of store B during the live phase.
pub const SEAL_EVERY: usize = 1_024;
/// Open-loop request rate of the live phase, answers per second. A diff
/// takes about 90 ms: at 40/s the queues behind diffs that came close
/// together moved the latency from run to run more than the machine did.
pub const READ_RATE: f64 = 25.0;
/// The live phase answers at least this many requests (quarter world).
pub const LIVE_MIN_ANSWERS: usize = 1_000;
/// Requests of the closed-loop read-only pass (quarter world): about
/// eight seconds of reads. Passes of 400 varied by a third between runs
/// with the machine's speed.
pub const CLOSED_REQUESTS: usize = 1_200;
/// Latency limit of a live answer, from its due time; an answer over it
/// counts as failed.
pub const LATENCY_LIMIT_MS: f64 = 1_000.0;

/// Answers of the live phase: `--seconds` at [`READ_RATE`], at least
/// [`LIVE_MIN_ANSWERS`].
fn live_answers(opts: &Opts) -> usize {
    let min = opts.world.requests(LIVE_MIN_ANSWERS);
    min.max((READ_RATE * opts.seconds).ceil() as usize)
}

/// What set-up leaves for the live phase.
struct Prepared {
    epoch_a: Arc<StoreSnapshot>,
    cells_b: Vec<Cell>,
    meta_b: Vec<(String, String)>,
    sweeps: Vec<CrawlMetrics>,
}

/// Crawl both epochs and seal epoch N into a fresh store A at `dir`.
fn prepare(opts: &Opts, dir: &Path, tracer: &mut Tracer) -> Prepared {
    let study_a = tracer.span("setup", || Study::new(opts.world.config(opts.seed)));
    let study_b = tracer.span("setup", || Study::new(opts.world.config(opts.seed + 1)));
    let (crawls_a, sweep_a) = tracer.span("analysis.sweep", || {
        runner::run_crawls_with_metrics(&study_a)
    });
    let (crawls_b, sweep_b) = tracer.span("analysis.sweep", || {
        runner::run_crawls_with_metrics(&study_b)
    });
    let cells_a = cells(&crawls_a);
    let meta_a = store_meta(&study_a, opts.world, opts.seed);
    let epoch_a = tracer.span("store.seal_epoch_a", || {
        let store = Store::create(dir, Region::ALL.len(), &meta_a).expect("create store A");
        for (region, domain, payload) in &cells_a {
            store
                .put(*region, domain, payload)
                .expect("put into store A");
        }
        store.checkpoint().expect("seal store A");
        Arc::new(StoreSnapshot::open(dir).expect("open store A"))
    });
    Prepared {
        epoch_a,
        cells_b: cells(&crawls_b),
        meta_b: store_meta(&study_b, opts.world, opts.seed + 1),
        sweeps: vec![sweep_a, sweep_b],
    }
}

/// The writer's record of the live phase.
struct Ingest {
    /// `(generation, cells sealed)` of every installed snapshot. Only the
    /// last snapshot is kept: the others are checked against the cells
    /// they must hold.
    installs: Vec<(u64, usize)>,
    last: Option<Arc<StoreSnapshot>>,
    put_secs: Vec<f64>,
    seal_secs: Vec<f64>,
    open_secs: Vec<f64>,
    /// First put until the last snapshot is installed.
    secs: f64,
}

/// One live answer and how its due time was missed, in seconds: by the
/// generator waking late, or by waiting for the previous answer.
struct LiveAnswer {
    answered: Answered,
    generator_late: f64,
    queue_wait: f64,
}

struct Live {
    ingest: Ingest,
    answers: Vec<LiveAnswer>,
    closed: Vec<Answered>,
    /// Seconds of the closed-loop pass.
    closed_secs: f64,
    /// Seconds of the journal replay that reopened store B, and the cells
    /// it restored.
    replay: f64,
    restored_cells: usize,
    /// Seconds of the dry-run fsck of store B, and whether it was clean.
    fsck: f64,
    fsck_clean: bool,
    /// Live phase, closed-loop pass, replay and fsck.
    wall: f64,
}

fn ingest(
    store: &Store,
    dir: &Path,
    backend: &Arc<CountingBackend>,
    cells: &[Cell],
    service: &QueryService,
    tracer: &mut Tracer,
) -> Ingest {
    let mut out = Ingest {
        installs: Vec::new(),
        last: None,
        put_secs: Vec::with_capacity(cells.len()),
        seal_secs: Vec::new(),
        open_secs: Vec::new(),
        secs: 0.0,
    };
    let first = Instant::now();
    let mut batch = tracer.open("store.put_batch", None);
    for (i, (region, domain, payload)) in cells.iter().enumerate() {
        let t = Instant::now();
        store
            .put(*region, domain, payload)
            .expect("put into store B");
        out.put_secs.push(t.elapsed().as_secs_f64());
        if (i + 1) % SEAL_EVERY == 0 || i + 1 == cells.len() {
            tracer.close(batch);
            let id = tracer.open("store.seal", None);
            let t = Instant::now();
            store.checkpoint().expect("seal store B");
            out.seal_secs.push(t.elapsed().as_secs_f64());
            tracer.close(id);
            let id = tracer.open("store.snapshot_open", None);
            let t = Instant::now();
            let snapshot = Arc::new(
                StoreSnapshot::open_with(dir, backend.clone()).expect("open store B snapshot"),
            );
            out.open_secs.push(t.elapsed().as_secs_f64());
            tracer.close(id);
            service.install_second_epoch(Arc::clone(&snapshot));
            out.installs.push((snapshot.generation(), i + 1));
            out.last = Some(snapshot);
            batch = tracer.open("store.put_batch", None);
        }
    }
    tracer.close(batch);
    out.secs = first.elapsed().as_secs_f64();
    out
}

/// Sleep until shortly before `due`, then spin, so the generator's
/// lateness is not the scheduler's wake-up latency. Returns the time the
/// wait ended.
fn wait_until(due: Instant) -> Instant {
    const SPIN: Duration = Duration::from_micros(500);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    loop {
        let now = Instant::now();
        if now >= due {
            return now;
        }
        std::hint::spin_loop();
    }
}

fn read_open_loop(
    service: &QueryService,
    stream: &RequestStream,
    n: usize,
    t0: Instant,
    tracer: &mut Tracer,
) -> Vec<LiveAnswer> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let due = t0 + Duration::from_secs_f64(i as f64 / READ_RATE);
        let woke = (Instant::now() < due).then(|| wait_until(due));
        let query = stream.request(0, i);
        let id = tracer.open(query.class(), Some(i as u32));
        let answered = answer(service, query, due);
        tracer.close(id);
        let (generator_late, queue_wait) = match woke {
            Some(w) => ((w - due).as_secs_f64(), 0.0),
            None => (0.0, (answered.start - due).as_secs_f64()),
        };
        out.push(LiveAnswer {
            answered,
            generator_late,
            queue_wait,
        });
    }
    out
}

/// The live phase and the closed-loop pass, against a fresh store B at
/// `dir`; spans are recorded when `traced`.
fn live(
    opts: &Opts,
    prepared: &Prepared,
    dir: &Path,
    backend: &Arc<CountingBackend>,
    origin: Instant,
    traced: bool,
) -> (Live, Tracer) {
    let n_live = live_answers(opts);
    let service = QueryService::new(Arc::clone(&prepared.epoch_a), true);
    let stream = RequestStream::new(
        STREAM_SEED,
        domains(&prepared.epoch_a),
        ZIPF,
        Region::ALL.len() as u8,
        true,
    );
    let store = Store::create_with(dir, Region::ALL.len(), &prepared.meta_b, backend.clone())
        .expect("create store B");
    let tracer = || {
        if traced {
            Tracer::new(origin)
        } else {
            Tracer::off()
        }
    };
    let (mut writer_trace, mut reader_trace) = (tracer(), tracer());
    let mut tracer = tracer();
    let root = tracer.open("serve.live", None);
    let t0 = Instant::now();
    let (ingest, answers) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            ingest(
                &store,
                dir,
                backend,
                &prepared.cells_b,
                &service,
                &mut writer_trace,
            )
        });
        let reader = s.spawn(|| read_open_loop(&service, &stream, n_live, t0, &mut reader_trace));
        (
            writer.join().expect("writer thread"),
            reader.join().expect("reader thread"),
        )
    });
    tracer.absorb(writer_trace, Some(root));
    tracer.absorb(reader_trace, Some(root));
    let closed_id = tracer.open("serve.closed_loop", None);
    let (closed, closed_secs) = closed_loop(
        &service,
        &stream,
        1,
        0..opts.world.requests(CLOSED_REQUESTS),
    );
    tracer.close(closed_id);
    // The writer's process ends; the next one replays store B's journal.
    drop(store);
    let id = tracer.open("store.open", None);
    let t = Instant::now();
    let reopened = Store::open_with(dir, backend.clone()).expect("reopen store B");
    let replay = t.elapsed().as_secs_f64();
    tracer.close(id);
    let restored_cells = reopened.len();
    drop(reopened);
    let id = tracer.open("store.fsck", None);
    let t = Instant::now();
    let fsck = store::fsck(dir, backend.as_ref(), true);
    let fsck_secs = t.elapsed().as_secs_f64();
    tracer.close(id);
    tracer.close(root);
    let wall = t0.elapsed().as_secs_f64();
    (
        Live {
            ingest,
            answers,
            closed,
            closed_secs,
            replay,
            restored_cells,
            fsck: fsck_secs,
            fsck_clean: matches!(&fsck, Ok(r) if r.is_clean()),
            wall,
        },
        tracer,
    )
}

/// Count wrong, missing and late answers, and check that the last
/// snapshot holds exactly epoch N+1, that the replay restored every cell,
/// and that fsck found store B clean.
fn check(prepared: &Prepared, live: &Live, n_live: usize) -> (u64, u64, bool) {
    let Some(last) = &live.ingest.last else {
        return (n_live as u64, n_live as u64, false);
    };
    let ingested = Ingested::new(
        &prepared.cells_b,
        last.meta().to_vec(),
        last.regions(),
        live.ingest.installs.clone(),
    );
    let mut verifier = Verifier::new(&prepared.epoch_a, Some(&ingested));
    let wrong = live
        .answers
        .iter()
        .map(|l| &l.answered)
        .chain(&live.closed)
        .filter(|x| !verifier.check(x))
        .count() as u64;
    let late = live
        .answers
        .iter()
        .filter(|l| l.answered.latency() * 1e3 > LATENCY_LIMIT_MS)
        .count() as u64;
    let missing = n_live.saturating_sub(live.answers.len()) as u64;
    let final_ok = last.len() == prepared.cells_b.len()
        && prepared
            .cells_b
            .iter()
            .all(|(r, d, p)| last.get(*r, d) == Some(p.as_slice()))
        && live.restored_cells == prepared.cells_b.len()
        && live.fsck_clean;
    if wrong + missing + late > 0 || !final_ok {
        eprintln!(
            "serve: wrong={wrong} missing={missing} late={late} final_snapshot_ok={final_ok} \
             restored={} fsck_clean={}",
            live.restored_cells, live.fsck_clean
        );
    }
    (
        (live.answers.len() + live.closed.len()) as u64 + missing,
        wrong + missing + late,
        final_ok,
    )
}

pub fn run(opts: &Opts) -> Outcome {
    let work = WorkDir::new("serve").expect("create the work directory");
    let mut metrics = Metrics::default();
    let mut setups = Vec::new();
    let mut prepared = None;
    let origin = Instant::now();
    let mut setup_trace = Tracer::off();
    for rep in 0..SETUP_REPS {
        drop(prepared.take());
        let mut tracer = if opts.trace {
            Tracer::new(origin)
        } else {
            Tracer::off()
        };
        let t = Instant::now();
        prepared = Some(prepare(opts, &work.join(&format!("a-{rep}")), &mut tracer));
        setups.push(t.elapsed().as_secs_f64());
        setup_trace = tracer;
    }
    let prepared = prepared.expect("at least one set-up");
    let n_live = live_answers(opts);

    let backend = CountingBackend::fs();
    let (live_run, _) = live(opts, &prepared, &work.join("b"), &backend, origin, false);
    let (attempted, mut failed, mut correct) = check(&prepared, &live_run, n_live);

    metrics.set("setup_s", median(&mut setups));
    metrics.set("wall_s", live_run.wall);
    metrics.set("ingest_s", live_run.ingest.secs);
    latency_metrics(&mut metrics, live_run.answers.iter().map(|l| &l.answered));
    metrics.set(
        "read_qps",
        live_run.closed.len() as f64 / live_run.closed_secs,
    );

    if opts.trace {
        let traced_backend = CountingBackend::fs();
        let (traced, mut tracer) = live(
            opts,
            &prepared,
            &work.join("b-traced"),
            &traced_backend,
            origin,
            true,
        );
        let (_, traced_failed, traced_ok) = check(&prepared, &traced, n_live);
        failed += traced_failed;
        correct &= traced_ok;
        metrics.set("trace.wall_s", traced.wall);
        metrics.set("trace.overhead_s", traced.wall - live_run.wall);
        let root = tracer
            .spans()
            .iter()
            .position(|s| s.name == "serve.live")
            .unwrap_or(0);
        metrics.set("trace.top_span_coverage", tracer.child_coverage(root));
        let sweeps = &prepared.sweeps;
        let n = sweeps.len() as f64;
        metrics.set(
            "analysis.sweep_s",
            setup_trace.total_secs("analysis.sweep") / n,
        );
        metrics.set(
            "analysis.sweep_tasks",
            sweeps.iter().map(|m| m.tasks_completed as f64).sum::<f64>() / n,
        );
        metrics.set(
            "analysis.sweep_cache_hit_ratio",
            sweeps.iter().map(CrawlMetrics::hit_rate).sum::<f64>() / n,
        );
        metrics.set(
            "analysis.sweep_utilization",
            sweeps.iter().map(CrawlMetrics::utilization).sum::<f64>() / n,
        );
        let ingest = &traced.ingest;
        metrics.set("store.put_us", mean(&ingest.put_secs) * 1e6);
        metrics.set("store.seal_ms", mean(&ingest.seal_secs) * 1e3);
        metrics.set("store.seals", ingest.seal_secs.len() as f64);
        metrics.set("store.snapshot_open_ms", mean(&ingest.open_secs) * 1e3);
        metrics.set("store.open_ms", traced.replay * 1e3);
        metrics.set("store.restored_cells", traced.restored_cells as f64);
        metrics.set("store.fsck_ms", traced.fsck * 1e3);
        let payload_bytes: u64 = prepared.cells_b.iter().map(|c| c.2.len() as u64).sum();
        io_metrics(&mut metrics, &traced_backend, payload_bytes);
        let all: Vec<&Answered> = traced
            .answers
            .iter()
            .map(|l| &l.answered)
            .chain(&traced.closed)
            .collect();
        class_metrics(&mut metrics, &all);
        let waits: Vec<f64> = traced.answers.iter().map(|l| l.queue_wait * 1e3).collect();
        let lates: Vec<f64> = traced
            .answers
            .iter()
            .map(|l| l.generator_late * 1e3)
            .collect();
        metrics.set("serve.queue_wait_ms", mean(&waits));
        metrics.set("serve.generator_late_ms", mean(&lates));
        drop(traced);
        tracer.absorb(setup_trace, None);
        let fresh = Study::new(opts.world.config(opts.seed));
        visits::stage_pass(&fresh, &mut tracer, &mut metrics, false);
        crate::write_trace(opts, &tracer);
    }
    drop(live_run);
    metrics.set("peak_rss_mb", peak_rss_mb());
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
    }
}
