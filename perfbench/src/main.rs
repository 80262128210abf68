//! The cookiewall study's benchmark: two workloads (`study`, `serve`)
//! against the library's public API, each checking its outputs and
//! printing its metrics as one JSON line. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <study|serve> --seed N --seconds S --trace <0|1>
//! ```

mod alloc;
mod backend;
mod common;
mod readback;
mod serve;
mod study;
mod trace;
mod visits;

use common::{World, END_TO_END, PER_LAYER};
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Parsed command line.
pub struct Opts {
    pub workload: String,
    /// Population epoch of the world.
    pub seed: u64,
    /// Length of the timed phase (see `another_round` and `serve`).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    pub world: World,
    /// Expected report digest, overriding the pin for the seed.
    pub expect_digest: Option<String>,
}

impl Opts {
    pub fn expect(&self) -> Option<&str> {
        self.expect_digest.as_deref()
    }
}

const USAGE: &str = "usage: perfbench --workload <study|serve> [--seed N] [--seconds S] \
                     [--trace 0|1] [--world quarter|tiny] [--expect-digest HEX]";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        world: World::Quarter,
        expect_digest: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--world" => {
                opts.world = World::parse(value).ok_or(format!("unknown world {value:?}"))?
            }
            "--expect-digest" => opts.expect_digest = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["study", "serve"].contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload {:?}", opts.workload));
    }
    Ok(opts)
}

/// Whether a batch workload runs another timed round: one more round of
/// the median length still ends within `--seconds`. A traced run times
/// one untraced round only.
pub fn another_round(started: std::time::Instant, rounds: &[f64], opts: &Opts) -> bool {
    let mut sorted = rounds.to_vec();
    let next = common::median(&mut sorted);
    !opts.trace && started.elapsed().as_secs_f64() + next <= opts.seconds
}

/// Write the run's spans to `.bench_out/trace-<workload>-<world>-seed<N>.jsonl`.
pub fn write_trace(opts: &Opts, tracer: &trace::Tracer) {
    let path = std::path::Path::new(".bench_out").join(format!(
        "trace-{}-{}-seed{}.jsonl",
        opts.workload,
        opts.world.label(),
        opts.seed
    ));
    match std::fs::write(&path, tracer.to_jsonl()) {
        Ok(()) => eprintln!(
            "trace: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("trace: writing {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match opts.workload.as_str() {
        "study" => study::run(&opts),
        _ => serve::run(&opts),
    };
    let catalogue = if opts.trace { PER_LAYER } else { END_TO_END };
    println!("{}", outcome.to_json(catalogue, !opts.trace));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
