//! The end of the `study` workload: the finished epoch is sealed into a
//! store, opened as a snapshot, and served to one closed-loop reader, so
//! both workloads report the same end-to-end read metrics.

use crate::backend::CountingBackend;
use crate::common::{
    closed_loop, domains, latency_metrics, Answered, Cell, Metrics, Verifier, World,
};
use serve::{QueryService, RequestStream};
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use store::{Store, StoreSnapshot};

/// Closed-loop read-back requests per run (quarter world): about ten
/// seconds of reads, so the read metrics do not hang on the machine's
/// speed in one moment.
pub const READBACK_REQUESTS: usize = 5_000;
/// Read-back requests between two calls of the `between` hook.
pub const READBACK_CHUNK: usize = 500;
/// Zipf exponent of every request stream.
pub const ZIPF: f64 = 1.1;
/// Seed of every request stream. Fixed, not the run's seed: the class
/// mix of 1,000 seeded requests varies by about 15% between seeds (the 5%
/// of diffs take half the read time), which would hide smaller changes.
/// The run's seed still picks the world the requests are answered from.
pub const STREAM_SEED: u64 = 0x5eed;

/// Where a [`publish`] spent its time, in seconds.
pub struct PublishTimes {
    pub puts: Vec<f64>,
    pub seal: f64,
    pub open: f64,
}

/// Put every cell into a fresh store at `dir`, seal it, and open the
/// sealed snapshot.
pub fn publish(
    dir: &Path,
    meta: &[(String, String)],
    cells: &[Cell],
    backend: &Arc<CountingBackend>,
) -> io::Result<(StoreSnapshot, PublishTimes)> {
    let store = Store::create_with(dir, httpsim::Region::ALL.len(), meta, backend.clone())?;
    let mut puts = Vec::with_capacity(cells.len());
    for (region, domain, payload) in cells {
        let t = Instant::now();
        store.put(*region, domain, payload)?;
        puts.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    store.checkpoint()?;
    let seal = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let snapshot = StoreSnapshot::open_with(dir, backend.clone())?;
    let open = t.elapsed().as_secs_f64();
    Ok((snapshot, PublishTimes { puts, seal, open }))
}

/// Serve `snapshot` to one closed-loop reader in chunks of
/// [`READBACK_CHUNK`] requests, calling `between` (untimed) after each
/// chunk, and verify every answer. Returns the answers, the seconds spent
/// answering, and the wrong-answer count.
pub fn read_back(
    snapshot: Arc<StoreSnapshot>,
    world: World,
    mut between: impl FnMut(),
) -> (Vec<Answered>, f64, u64) {
    let regions = snapshot.regions() as u8;
    let stream = RequestStream::new(STREAM_SEED, domains(&snapshot), ZIPF, regions, false);
    let service = QueryService::new(Arc::clone(&snapshot), false);
    let (n, chunk) = (
        world.requests(READBACK_REQUESTS),
        world.requests(READBACK_CHUNK),
    );
    let mut answered = Vec::with_capacity(n);
    let mut secs = 0.0;
    for start in (0..n).step_by(chunk) {
        let (answers, s) = closed_loop(&service, &stream, 0, start..n.min(start + chunk));
        answered.extend(answers);
        secs += s;
        between();
    }
    let mut verifier = Verifier::new(&snapshot, None);
    let wrong = answered.iter().filter(|a| !verifier.check(a)).count() as u64;
    (answered, secs, wrong)
}

/// The read metrics of a closed loop: latency from send time, and
/// answers per second.
pub fn read_metrics(metrics: &mut Metrics, answered: &[Answered], secs: f64) {
    latency_metrics(metrics, answered.iter());
    metrics.set("read_qps", answered.len() as f64 / secs);
}

/// The store-side per-layer metrics of one counting backend.
pub fn io_metrics(metrics: &mut Metrics, backend: &CountingBackend, payload_bytes: u64) {
    let io = backend.counts();
    metrics.set("store.bytes_written", io.bytes_written as f64);
    metrics.set("store.bytes_read", io.bytes_read as f64);
    metrics.set("store.write_calls", io.write_calls as f64);
    metrics.set("store.append_calls", io.append_calls as f64);
    metrics.set("store.sync_calls", io.sync_calls as f64);
    metrics.set(
        "store.write_amp",
        io.bytes_written as f64 / payload_bytes.max(1) as f64,
    );
}
