//! The three workloads and the two passes over them.
//!
//! The untraced pass (`--trace 0`) measures the end-to-end metrics with
//! every tracing facility off. The traced pass (`--trace 1`) first
//! alternates untraced and traced operations to measure the tracing
//! overhead, then profiles every layer on the workload's input.

use std::path::{Path, PathBuf};
use std::time::Instant;

use dakc_sim::MachineConfig;

use crate::input::{Input, Oracle};
use crate::ops::{count, Engine};
use crate::probes::layer_profile;
use crate::report::{metric, Metric, Outcome, Tally};
use crate::serve::{self, closed_loop, Queries, Service};
use crate::spans::Spans;
use crate::stats::{median as med, tail};

/// A named workload. See `perfbench/README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `dakc count` on a uniform genome larger than the LLC.
    CountUniform,
    /// `dakc launch --l3` over TCP on the human surrogate.
    LaunchRepeats,
    /// Back-to-back read lookups against a 2-server TCP service.
    ServeReads,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload::CountUniform,
    Workload::LaunchRepeats,
    Workload::ServeReads,
];

impl Workload {
    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CountUniform => "count-uniform",
            Workload::LaunchRepeats => "launch-repeats",
            Workload::ServeReads => "serve-reads",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// The Table V dataset and scale shift of the workload's input.
    fn dataset(self, toy: bool) -> (&'static str, u32) {
        match (self, toy) {
            (Workload::CountUniform, false) => ("Synthetic 26", 7),
            (Workload::CountUniform, true) => TOY_SIM_DATASET,
            (_, false) => ("SRR28206931", 12),
            (_, true) => ("SRR28206931", 20),
        }
    }
}

/// The simulator probe's input: Synthetic 26 at shift 10, ~3.5 reads
/// per PE.
const SIM_DATASET: (&str, u32) = ("Synthetic 26", 10);
const TOY_SIM_DATASET: (&str, u32) = ("Synthetic 20", 12);

/// The simulated machine: Phoenix Intel nodes (24 PEs each).
pub fn sim_machine(toy: bool) -> MachineConfig {
    MachineConfig::phoenix_intel(if toy { 1 } else { 256 })
}

/// Reads the simulator probe counts: the first reads of the workload's
/// input, as many as [`SIM_DATASET`] has, so the simulator's cost stays
/// comparable across workloads.
pub fn sim_reads(toy: bool) -> usize {
    let (name, shift) = if toy { TOY_SIM_DATASET } else { SIM_DATASET };
    let spec = dakc_io::table_v()
        .into_iter()
        .find(|d| d.name == name)
        .expect("Table V row");
    spec.scaled(shift).num_reads
}

/// serve-reads: closed-loop requests per `kmers_per_s` window.
const WINDOW: usize = 64;

/// serve-reads: untimed warm-up before the measured closed loop, as a
/// share of `--seconds`.
const WARMUP: f64 = 0.05;

/// Distinct query reads generated per run (requests cycle through them).
const QUERY_READS: usize = 20_000;

/// Salt separating the query-read seed from the genome and read seeds.
pub const QUERY_SALT: u64 = 0x0051_E7E5_EED5;

/// Set-up repeats at least this many times and for at least
/// [`SETUP_MIN_SECS`]; `setup_s` is the median.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_MIN_SECS: f64 = 2.0;

/// Minimum measured operations per counting run.
const MIN_OPS: usize = 5;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// The traced pass instead of the untraced one.
    pub trace: bool,
    /// Toy-sized inputs (the smoke test).
    pub toy: bool,
}

/// Everything set up for a run: the input, its oracle, and for
/// serve-reads the running service with its query stream.
struct Prepared {
    input: Input,
    oracle: Oracle,
    service: Option<(Service, Queries)>,
    setup_s: Vec<f64>,
}

/// A scratch directory inside the working directory, removed on drop.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Runs one pass of one workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let tmp = Scratch(PathBuf::from(".perfbench_tmp").join(std::process::id().to_string()));
    let outcome = run_in(opts, &tmp.0)?;
    match outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("{} measured {}", m.name, m.value)),
        None => Ok(outcome),
    }
}

fn run_in(opts: &Opts, tmp: &Path) -> Result<Outcome, String> {
    std::fs::create_dir_all(tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let prepared = prepare(opts, tmp, !opts.trace)?;
    if opts.trace {
        traced_pass(opts, prepared, tmp)
    } else {
        untraced_pass(opts, prepared, tmp)
    }
}

/// Generates the input, builds whatever the workload serves from, and
/// connects it, once or (`repeat`) several times, keeping the last; then
/// computes the oracle, which is not part of set-up.
fn prepare(opts: &Opts, tmp: &Path, repeat: bool) -> Result<Prepared, String> {
    let (name, shift) = opts.workload.dataset(opts.toy);
    let mut setup_s = Vec::new();
    let mut last: Option<(Input, Option<(Service, Queries)>)> = None;
    let start = Instant::now();
    while setup_s.is_empty()
        || repeat
            && (setup_s.len() < SETUP_MIN_REPEATS || start.elapsed().as_secs_f64() < SETUP_MIN_SECS)
    {
        // Shut the previous repetition's service down first.
        if let Some((_, Some((svc, _)))) = last.take() {
            svc.stop()?;
        }
        let t = Instant::now();
        let input = Input::generate(name, shift, opts.seed)?;
        let service = match opts.workload {
            Workload::ServeReads => {
                let shards = serve::shards(&input)?;
                let svc = Service::start(&shards, tmp)?;
                let q = Queries::new(
                    &input,
                    QUERY_READS,
                    opts.seed ^ QUERY_SALT,
                    svc.client.canonical(),
                );
                Some((svc, q))
            }
            Workload::LaunchRepeats => {
                // Every count connects a fresh mesh; time one connect here.
                serve::connect_mesh(tmp, "connect", crate::ops::PARALLELISM)?;
                None
            }
            _ => None,
        };
        setup_s.push(t.elapsed().as_secs_f64());
        last = Some((input, service));
    }
    let (input, mut service) = last.expect("at least one set-up");
    let oracle = Oracle::of(&input.reads);
    if let Some((_, q)) = &mut service {
        q.check_against(&oracle);
    }
    Ok(Prepared {
        input,
        oracle,
        service,
        setup_s,
    })
}

/// The engine a counting workload times.
fn engine(w: Workload) -> Engine {
    match w {
        Workload::LaunchRepeats => Engine::Launch,
        _ => Engine::Threaded,
    }
}

fn untraced_pass(opts: &Opts, p: Prepared, tmp: &Path) -> Result<Outcome, String> {
    let mut setup_s = p.setup_s;
    let setup = med(&mut setup_s);
    let mut tally = Tally::default();
    // Heap the program needs on top of the benchmark's own inputs: each
    // count's peak above what was live when it started, or the service's
    // holdings plus the peak its measured traffic adds.
    let (mut op_ms, mut kmers_per_s, mut peaks, tail_note) = match p.service {
        Some((mut svc, mut q)) => {
            let s = opts.seconds;
            // Warm-up: excluded from every figure, but still checked.
            closed_loop(
                &mut svc.client,
                &mut q,
                WARMUP * s,
                WINDOW,
                &mut tally,
                None,
            );
            crate::alloc::reset_peak();
            let base = crate::alloc::live_mib();
            let measured = closed_loop(&mut svc.client, &mut q, s, WINDOW, &mut tally, None);
            let peak = svc.held_mib + crate::alloc::peak_mib() - base;
            let note = format!(
                "closed loop: {} requests in {} windows of {WINDOW}",
                measured.latency_ms.len(),
                measured.rates.len()
            );
            svc.stop()?;
            (measured.latency_ms, measured.rates, vec![peak], note)
        }
        None => {
            let engine = engine(opts.workload);
            let kmers = p.oracle.occurrences as f64;
            let warm = count(&engine, &p.input.fastq, &p.oracle, tmp, false)?;
            tally.record(warm.ok);
            drop(warm);
            let (mut op_ms, mut rates, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
            let start = Instant::now();
            while start.elapsed().as_secs_f64() < opts.seconds || op_ms.len() < MIN_OPS {
                crate::alloc::reset_peak();
                let base = crate::alloc::live_mib();
                let c = count(&engine, &p.input.fastq, &p.oracle, tmp, false)?;
                peaks.push(crate::alloc::peak_mib() - base);
                tally.record(c.ok);
                op_ms.push(c.secs * 1e3);
                rates.push(kmers / c.secs);
            }
            let n = op_ms.len();
            (op_ms, rates, peaks, format!("{n} counts of {kmers} k-mers"))
        }
    };
    let n = op_ms.len();
    let (tail_p, tail_ms) = tail(&mut op_ms).ok_or("no operations measured")?;
    eprintln!(
        "{}: {tail_note}; tail p{} of {n} samples: {tail_ms:.3} ms",
        opts.workload.name(),
        tail_p * 100.0
    );
    print_properties(&p.oracle);
    let metrics = vec![
        metric("setup_s", setup, "s"),
        metric("peak_heap_mib", med(&mut peaks), "MiB"),
        metric("kmers_per_s", med(&mut kmers_per_s), "1/s"),
        metric("op_ms.p50", med(&mut op_ms), "ms"),
    ];
    Ok(Outcome::new(tally, metrics))
}

fn print_properties(oracle: &Oracle) {
    for (name, v, unit) in oracle.properties(crate::input::llc_bytes()) {
        eprintln!("  {name:<32} {v:>16.6} {unit}");
    }
}

fn traced_pass(opts: &Opts, p: Prepared, tmp: &Path) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut spans = Spans::default();
    // Tracing overhead: alternate untraced and traced operations of the
    // workload's own kind over half the measured time.
    let half = 0.5 * opts.seconds;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    match p.service {
        Some((mut svc, mut q)) => {
            let start = Instant::now();
            while start.elapsed().as_secs_f64() < half || traced.is_empty() {
                let block = 0.05 * opts.seconds;
                let a = closed_loop(&mut svc.client, &mut q, block, WINDOW, &mut tally, None);
                let b = closed_loop(
                    &mut svc.client,
                    &mut q,
                    block,
                    WINDOW,
                    &mut tally,
                    Some(&mut spans),
                );
                plain.extend(a.latency_ms);
                traced.extend(b.latency_ms);
            }
            svc.stop()?;
        }
        None => {
            let engine = engine(opts.workload);
            let start = Instant::now();
            while start.elapsed().as_secs_f64() < half || traced.is_empty() {
                for (on, out) in [(false, &mut plain), (true, &mut traced)] {
                    let c = count(&engine, &p.input.fastq, &p.oracle, tmp, on)?;
                    tally.record(c.ok);
                    out.push(c.secs * 1e3);
                }
            }
        }
    }
    let (plain_ms, traced_ms) = (med(&mut plain), med(&mut traced));
    let mut metrics: Vec<Metric> = p
        .oracle
        .properties(crate::input::llc_bytes())
        .into_iter()
        .map(|(n, v, u)| metric(n, v, u))
        .collect();
    metrics.push(metric("trace.op_ms_untraced", plain_ms, "ms"));
    metrics.push(metric("trace.op_ms_traced", traced_ms, "ms"));
    metrics.push(metric(
        "trace.overhead_pct",
        (traced_ms / plain_ms - 1.0) * 100.0,
        "%",
    ));
    metrics.extend(layer_profile(
        opts, &p.input, &p.oracle, tmp, &mut spans, &mut tally,
    )?);
    write_spans(opts, &spans);
    // Time per top-level call name, in first-call order.
    let mut totals: Vec<(&str, f64, usize)> = Vec::new();
    for s in spans.spans().iter().filter(|s| s.parent.is_none()) {
        match totals.iter_mut().find(|t| t.0 == s.name) {
            Some(t) => (t.1, t.2) = (t.1 + s.end - s.start, t.2 + 1),
            None => totals.push((s.name, s.end - s.start, 1)),
        }
    }
    for (name, secs, calls) in totals {
        eprintln!("span {name:<24} {secs:>10.3} s over {calls} call(s)");
    }
    Ok(Outcome::new(tally, metrics))
}

/// Writes the traced run's spans under `.perfbench_out/`.
fn write_spans(opts: &Opts, spans: &Spans) {
    let dir = Path::new(".perfbench_out");
    let path = dir.join(format!("spans-{}-{}.json", opts.workload.name(), opts.seed));
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, spans.to_chrome_json()))
    {
        eprintln!("warning: {}: {e}", path.display());
    }
}
