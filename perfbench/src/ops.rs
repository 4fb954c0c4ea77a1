//! One full count on each engine: FASTQ bytes in memory to a sorted
//! histogram checked against the serial oracle.

use std::path::Path;
use std::time::Instant;

use dakc::{
    count_kmers_sim_traced, count_kmers_threaded_traced, run_rank_opts, DakcConfig, DakcRun,
    NetRun, RunOpts, ThreadedRun,
};
use dakc_sim::{MachineConfig, TraceSink};

use crate::input::{digest, parse, Oracle, K, MODE};
use crate::serve::{connect_mesh, tuning};

/// Worker threads of `dakc count` and ranks of `dakc launch`: the two
/// cores the load may use.
pub const PARALLELISM: usize = 2;

/// Flow sampling rate the CLI uses when tracing is on (1 in 64).
const TRACE_SAMPLE: u32 = 64;

/// Which engine counts.
#[derive(Debug, Clone)]
pub enum Engine {
    /// `dakc count`: the threaded engine on [`PARALLELISM`] threads.
    Threaded,
    /// `dakc launch --l3`: [`PARALLELISM`] ranks over an in-process TCP
    /// mesh.
    Launch,
    /// `dakc simulate --l3` on the given machine.
    Sim(MachineConfig),
}

/// The engine's own output, kept for the traced run's layer metrics.
pub enum RunData {
    /// From the threaded engine.
    Threaded(ThreadedRun<u64>),
    /// Rank 0's merged result of a distributed run.
    Net(NetRun<u64>),
    /// A simulated run.
    Sim(DakcRun<u64>),
}

/// One timed, checked count.
pub struct Counted {
    /// Wall seconds from FASTQ bytes to the checked histogram.
    pub secs: f64,
    /// The histogram matched the oracle.
    pub ok: bool,
    /// What the engine returned.
    pub data: RunData,
}

/// The distributed engines' configuration: CLI defaults plus L3.
fn l3_config(traced: bool) -> DakcConfig {
    let mut cfg = DakcConfig::scaled_defaults(K).with_l3();
    cfg.canonical = MODE;
    if traced {
        cfg = cfg.with_trace_sample(TRACE_SAMPLE);
    }
    cfg
}

/// Counts `fastq` on `engine`, with the engine's own tracing on when
/// `traced`. `tmp` holds rendezvous directories. A launch's mesh is
/// connected before the clock starts: connecting is set-up.
pub fn count(
    engine: &Engine,
    fastq: &[u8],
    oracle: &Oracle,
    tmp: &Path,
    traced: bool,
) -> Result<Counted, String> {
    match engine {
        Engine::Threaded => {
            let t = Instant::now();
            let reads = parse(fastq)?;
            let run =
                count_kmers_threaded_traced::<u64>(&reads, K, MODE, PARALLELISM, None, traced);
            let ok = digest(&run.counts) == oracle.digest;
            Ok(Counted {
                secs: t.elapsed().as_secs_f64(),
                ok,
                data: RunData::Threaded(run),
            })
        }
        Engine::Launch => launch(fastq, oracle, tmp, traced),
        Engine::Sim(machine) => {
            let t = Instant::now();
            let reads = parse(fastq)?;
            let mut sink = if traced {
                TraceSink::ring_default()
            } else {
                TraceSink::Off
            };
            let run = count_kmers_sim_traced::<u64>(&reads, &l3_config(traced), machine, &mut sink)
                .map_err(|e| format!("simulate: {e}"))?;
            let ok = digest(&run.counts) == oracle.digest;
            let secs = t.elapsed().as_secs_f64();
            Ok(Counted {
                secs,
                ok,
                data: RunData::Sim(run),
            })
        }
    }
}

fn launch(fastq: &[u8], oracle: &Oracle, tmp: &Path, traced: bool) -> Result<Counted, String> {
    let mesh = connect_mesh(tmp, "launch", PARALLELISM)?;
    let cfg = l3_config(traced);
    let opts = RunOpts {
        tuning: tuning(),
        trace: traced,
        ..RunOpts::default()
    };
    let start = Instant::now();
    let results: Vec<Result<Option<NetRun<u64>>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = mesh
            .into_iter()
            .enumerate()
            .map(|(rank, t)| {
                let (cfg, opts) = (&cfg, &opts);
                s.spawn(move || {
                    // Every rank parses the input itself, as `dakc worker` does.
                    let reads = parse(fastq)?;
                    run_rank_opts::<u64, _>(&reads, cfg, t, opts)
                        .map_err(|e| format!("rank {rank}: {e}"))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("rank thread panicked".to_string()))
            })
            .collect()
    });
    let mut merged = None;
    for r in results {
        if let Some(run) = r? {
            merged = Some(run);
        }
    }
    let run = merged.ok_or("no rank returned the merged result")?;
    let ok = digest(&run.counts) == oracle.digest;
    Ok(Counted {
        secs: start.elapsed().as_secs_f64(),
        ok,
        data: RunData::Net(run),
    })
}
