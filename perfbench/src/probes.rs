//! The traced pass's layer profile: every layer's public entry points,
//! called from outside on the workload's input, plus the tracing each
//! layer already records (threaded flight recorder, distributed
//! `RunOpts::trace` read by `dakc_analyze`, the client's `flow.serve.*`
//! histograms and the simulator's `SimReport`).
//!
//! Every workload reports every layer, so that a layer's numbers can be
//! compared across inputs; only the layers on a workload's own path move
//! its end-to-end metrics (see `perfbench/README.md`).

use std::path::Path;

use dakc_analyze::analyze;
use dakc_kmer::{extract_into, KmerCount};
use dakc_sim::telemetry::{EventKind, ParsedTrace};
use dakc_sort::{accumulate_into, hybrid_sort};

use crate::bench::{sim_machine, sim_reads, Opts, QUERY_SALT};
use crate::input::{digest, parse, to_fastq, Input, Oracle, K, MODE};
use crate::ops::{count, Counted, Engine, RunData};
use crate::report::{metric, Metric, Tally};
use crate::serve::{self, open_loop, slo_rate, time_shard_scans, Queries, Service, LADDER};
use crate::spans::Spans;
use crate::stats::{median as med, percentile};

/// The serve probe's nominal open-loop rate, requests per second.
const NOMINAL_RATE: f64 = 500.0;

/// Runs every layer probe and returns the per-layer metrics.
pub fn layer_profile(
    opts: &Opts,
    input: &Input,
    oracle: &Oracle,
    tmp: &Path,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let mut m = Vec::new();
    pipeline(input, oracle, spans, tally, &mut m)?;
    let threaded = spans.time("threaded.count", |_| {
        count(&Engine::Threaded, &input.fastq, oracle, tmp, true)
    });
    threaded_metrics(checked(threaded.0?, tally), &mut m);
    let launch = spans.time("net.launch", |_| {
        count(&Engine::Launch, &input.fastq, oracle, tmp, true)
    });
    net_metrics(checked(launch.0?, tally), oracle, &mut m)?;
    serve_probe(opts, input, oracle, tmp, spans, tally, &mut m)?;
    sim_probe(opts, input, tmp, spans, tally, &mut m)?;
    Ok(m)
}

/// Tallies a count's check and hands back the engine's output.
fn checked(c: Counted, tally: &mut Tally) -> RunData {
    tally.record(c.ok);
    c.data
}

/// `io`, `kmer` and `sort` one after another, as serial phase 1 and 2.
fn pipeline(
    input: &Input,
    oracle: &Oracle,
    spans: &mut Spans,
    tally: &mut Tally,
    m: &mut Vec<Metric>,
) -> Result<(), String> {
    let (reads, parse_s) = spans.time("io.parse", |_| parse(&input.fastq));
    let reads = reads?;
    let mut words: Vec<u64> = Vec::with_capacity(reads.total_kmers(K));
    let ((), extract_s) = spans.time("kmer.extract", |_| {
        for r in reads.iter() {
            extract_into::<u64>(r, K, MODE, |w| words.push(w));
        }
    });
    let ((), sort_s) = spans.time("sort.hybrid_sort", |_| hybrid_sort(&mut words));
    let mut acc = Vec::new();
    let ((), acc_s) = spans.time("sort.accumulate", |_| accumulate_into(&words, &mut acc));
    let counts: Vec<KmerCount<u64>> = acc.iter().map(|&(w, c)| KmerCount::new(w, c)).collect();
    tally.record(digest(&counts) == oracle.digest);
    m.push(metric("io.parse_s", parse_s, "s"));
    m.push(metric("kmer.extract_s", extract_s, "s"));
    m.push(metric("sort.hybrid_sort_s", sort_s, "s"));
    m.push(metric("sort.accumulate_s", acc_s, "s"));
    m.push(metric("sort.distinct", counts.len() as f64, "count"));
    Ok(())
}

/// Phase times of the slowest worker, from the threaded flight recorder.
fn threaded_metrics(data: RunData, m: &mut Vec<Metric>) {
    let RunData::Threaded(run) = data else {
        unreachable!("threaded engine")
    };
    let events = run.trace.unwrap_or_default();
    let (mut phase1, mut wait, mut phase2_start) = (0.0f64, 0.0f64, 0.0f64);
    for w in 0..run.threads as u32 {
        let mine = events.iter().filter(|e| e.pe == w);
        let (mut start, mut enter) = (0.0, 0.0);
        for e in mine {
            match e.kind {
                EventKind::Phase { phase: 0 } => start = e.ts,
                EventKind::BarrierEnter => enter = e.ts,
                EventKind::BarrierExit { waited_s } => wait = wait.max(waited_s),
                EventKind::Phase { phase: 1 } => phase2_start = phase2_start.max(e.ts),
                _ => {}
            }
        }
        phase1 = phase1.max(enter - start);
    }
    m.push(metric("threaded.phase1_s", phase1, "s"));
    // No event closes phase 2: it runs from the last worker's start to
    // the merged result.
    m.push(metric(
        "threaded.phase2_s",
        run.elapsed.as_secs_f64() - phase2_start,
        "s",
    ));
    m.push(metric("threaded.barrier_wait_s", wait, "s"));
}

/// Aggregation, conveyor and transport counters of a traced launch, and
/// `dakc_analyze` over its merged trace.
fn net_metrics(data: RunData, oracle: &Oracle, m: &mut Vec<Metric>) -> Result<(), String> {
    let RunData::Net(run) = data else {
        unreachable!("launch engine")
    };
    let c = |name: &str| run.metrics.counter(name) as f64;
    // Records that left L2 (k-mers plus heavy pairs), from the trace.
    let shipped: u64 = run
        .trace
        .iter()
        .map(|e| match e.kind {
            EventKind::L2Ship { records, .. } => u64::from(records),
            _ => 0,
        })
        .sum();
    let added = c("agg.kmers_added");
    m.push(metric("agg.kmers_added", added, "count"));
    m.push(metric("agg.heavy_pairs", c("agg.heavy_pairs"), "count"));
    m.push(metric("agg.l3_flushes", c("agg.l3_flushes"), "count"));
    m.push(metric(
        "agg.l3_absorb_ratio",
        1.0 - shipped as f64 / added.max(1.0),
        "ratio",
    ));
    m.push(metric("conv.puts", c("conv.puts"), "count"));
    m.push(metric(
        "conv.items_per_put",
        c("conv.items_pushed") / c("conv.puts").max(1.0),
        "items/put",
    ));
    let fill = run
        .metrics
        .histogram("l0.put_fill_pct")
        .and_then(|h| h.quantile(0.5));
    m.push(metric("l0.put_fill_pct.p50", fill.unwrap_or(0.0), "%"));
    m.push(metric("net.frames_sent", c("net.frames_sent"), "count"));
    m.push(metric(
        "net.bytes_per_kmer",
        c("net.bytes_sent") / oracle.occurrences.max(1) as f64,
        "B",
    ));
    m.push(metric("net.term_rounds", c("net.term_rounds"), "count"));
    m.push(metric("net.retries", c("net.retries"), "count"));
    m.push(metric("net.send_stalls", c("net.send_stalls"), "count"));
    // A merged launch trace puts rank r on node r.
    let parsed = ParsedTrace {
        events: run.trace,
        pe_node: (0..run.ranks as u32).map(|r| (r, r)).collect(),
        ..ParsedTrace::default()
    };
    let analysis = analyze(&parsed);
    let crit = analysis.critical.as_ref();
    let span = crit.map_or(0.0, |c| c.span_s);
    for (i, stage) in dakc_analyze::critical::stage_names().iter().enumerate() {
        let s = crit.map_or(0.0, |c| c.stage_s[i]);
        m.push(metric(
            format!("net.crit.{stage}_share"),
            share(s, span),
            "ratio",
        ));
    }
    let compute = crit.map_or(0.0, |c| c.compute_s);
    m.push(metric(
        "net.crit.compute_share",
        share(compute, span),
        "ratio",
    ));
    let ranks = &analysis.load.ranks;
    let overlap = if ranks.is_empty() {
        0.0
    } else {
        ranks.iter().map(|r| r.overlap).sum::<f64>() / ranks.len() as f64
    };
    m.push(metric("net.overlap", overlap, "ratio"));
    m.push(metric(
        "net.rank_imbalance",
        analysis.load.imbalance,
        "ratio",
    ));
    Ok(())
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Shards built from this input behind a TCP service: shard calls timed
/// directly, then client traffic (nominal open loop, the rate ladder,
/// scans).
#[allow(clippy::too_many_arguments)]
fn serve_probe(
    opts: &Opts,
    input: &Input,
    oracle: &Oracle,
    tmp: &Path,
    spans: &mut Spans,
    tally: &mut Tally,
    m: &mut Vec<Metric>,
) -> Result<(), String> {
    let s = opts.seconds;
    let (shards, _) = spans.time("serve.build_shards", |_| serve::shards(input));
    let shards = shards?;
    let svc = spans
        .time("serve.start", |_| Service::start(&shards, tmp))
        .0;
    let mut svc = svc?;
    let mut q = Queries::new(input, 2_000, opts.seed ^ QUERY_SALT, svc.client.canonical());
    q.check_against(oracle);
    let (hit, hot) = q.hit_and_hot(oracle.hot_threshold());
    let ((get_ns, gets_ok), _) = spans.time("serve.shard_get", |_| q.time_shard_gets(&shards));
    tally.record(gets_ok);
    let (scan_s, _) = spans.time("serve.shard_scan", |_| time_shard_scans(&shards));
    let client = &mut svc.client;
    // Warm-up: checked, not timed.
    open_loop(client, &mut q, NOMINAL_RATE, 0.02 * s, tally, None);
    let mut nominal = spans
        .time("serve.open_loop", |sp| {
            open_loop(client, &mut q, NOMINAL_RATE, 0.1 * s, tally, Some(sp))
        })
        .0;
    let per_rate = 0.2 * s / LADDER.len() as f64;
    let (rate, _) = spans.time("serve.ladder", |_| {
        slo_rate(client, &mut q, per_rate, tally)
    });
    let (mut scan_ms, _) = spans.time("serve.scans", |_| {
        serve::scans(client, oracle, 0.05 * s, tally)
    });
    let (client_metrics, stats) = svc.stop()?;
    let lookup = client_metrics.histogram("flow.serve.lookup_s");
    let q_of = |p: f64| lookup.and_then(|h| h.quantile(p)).unwrap_or(0.0);
    m.push(metric("serve.shard_get_ns", get_ns, "ns"));
    m.push(metric("serve.shard_scan_s", scan_s, "s"));
    m.push(metric("serve.hit_ratio", hit, "ratio"));
    m.push(metric("serve.hot_share", hot, "ratio"));
    m.push(metric("serve.client_lookup_s.p50", q_of(0.5), "s"));
    m.push(metric("serve.client_lookup_s.p99", q_of(0.99), "s"));
    m.push(metric(
        "serve.lookup_ms.p50",
        med(&mut nominal.latency_ms),
        "ms",
    ));
    let p99 = percentile(&mut nominal.latency_ms, 0.99).unwrap_or(0.0);
    m.push(metric("serve.lookup_ms.p99", p99, "ms"));
    m.push(metric(
        "serve.requests",
        stats.iter().map(|s| s.requests).sum::<u64>() as f64,
        "count",
    ));
    m.push(metric(
        "serve.failovers",
        client_metrics.counter("serve.failovers") as f64,
        "count",
    ));
    let lag = percentile(&mut nominal.lateness_ms, 0.99).unwrap_or(0.0);
    m.push(metric("serve.gen_lag_ms", lag, "ms"));
    let backlog = nominal.backlog.iter().max().copied().unwrap_or(0);
    m.push(metric("serve.backlog_max", backlog as f64, "count"));
    m.push(metric("serve.slo_rate", rate, "1/s"));
    m.push(metric("serve.scan_ms.p50", med(&mut scan_ms), "ms"));
    Ok(())
}

/// The simulator with L3 on the first [`sim_reads`] reads of the input,
/// on the [`sim_machine`].
fn sim_probe(
    opts: &Opts,
    input: &Input,
    tmp: &Path,
    spans: &mut Spans,
    tally: &mut Tally,
    m: &mut Vec<Metric>,
) -> Result<(), String> {
    let reads = input.prefix(sim_reads(opts.toy));
    let fastq = to_fastq(&reads)?;
    let oracle = Oracle::of(&reads);
    let machine = sim_machine(opts.toy);
    let pes = machine.num_pes() as f64;
    let (c, secs) = spans.time("sim.count", |_| {
        count(&Engine::Sim(machine), &fastq, &oracle, tmp, false)
    });
    let RunData::Sim(run) = checked(c?, tally) else {
        unreachable!("sim engine")
    };
    let r = &run.report;
    // The span also covers parsing: the simulator's per-PE stepping cost
    // dominates either way.
    m.push(metric("sim.wall_per_pe_us", secs * 1e6 / pes, "us"));
    m.push(metric("sim.total_msgs", r.total_msgs() as f64, "count"));
    m.push(metric("sim.barriers", r.barriers_completed as f64, "count"));
    for p in 0..2 {
        let t = r.phase_time.get(p).copied().unwrap_or(0.0);
        m.push(metric(format!("sim.phase{p}_s"), t, "virtual_s"));
    }
    m.push(metric("sim.model_makespan_s", r.total_time, "virtual_s"));
    Ok(())
}
