//! The query service over an in-process TCP mesh, and the traffic the
//! benchmark drives through it.
//!
//! Servers `0..S` each run `serve_shard` on their own thread; the client
//! is the mesh's last rank on the calling thread. Every request carries
//! the k-mers of one fresh read, so traffic follows the genome's
//! occurrence skew and includes sequencing-error misses.

use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dakc::DakcConfig;
use dakc_kmer::{extract_into, owner_pe, CanonicalMode};
use dakc_net::{NetTuning, TcpTransport};
use dakc_serve::{
    build_shards, serve_shard, LookupResult, QueryClient, ServeOpts, ServeResult, ServeStats, Shard,
};

use crate::input::{Input, Oracle, K, MODE};
use crate::report::Tally;
use crate::spans::Spans;
use crate::stats::percentile;

/// Server ranks of the service.
pub const SERVERS: usize = 2;

/// Multiplicity cap of the histogram scan.
const SPECTRUM_MAX: u32 = 64;

/// Records returned by the top-N scan.
const TOP_N: usize = 16;

/// Deadline for every mesh wait, well inside the benchmark's time limit.
pub fn tuning() -> NetTuning {
    NetTuning::default().with_timeout(Duration::from_secs(20))
}

/// Counts `input` into [`SERVERS`] owner-partitioned shards.
pub fn shards(input: &Input) -> Result<Vec<Shard<u64>>, String> {
    let mut cfg = DakcConfig::scaled_defaults(K);
    cfg.canonical = MODE;
    build_shards::<u64>(&input.reads, &cfg, SERVERS).map_err(|e| format!("build shards: {e}"))
}

/// A running service and its connected client.
pub struct Service {
    /// The query client (the mesh's last rank).
    pub client: QueryClient<u64, TcpTransport>,
    /// Heap the service holds once connected (server shard copies,
    /// transports, client), MiB.
    pub held_mib: f64,
    servers: Vec<JoinHandle<ServeResult<ServeStats>>>,
}

impl Service {
    /// Stands `shards` up behind server threads on a fresh mesh under
    /// `tmp` and connects the client.
    pub fn start(shards: &[Shard<u64>], tmp: &Path) -> Result<Self, String> {
        let before = crate::alloc::live_mib();
        let mut mesh = connect_mesh(tmp, "serve", shards.len() + 1)?;
        let client = mesh.pop().expect("mesh has a client rank");
        let servers = mesh
            .into_iter()
            .zip(shards.iter().cloned())
            .map(|(t, shard)| {
                std::thread::spawn(move || serve_shard(&shard, t, &ServeOpts::default()))
            })
            .collect();
        let client = QueryClient::connect(client, tuning());
        match client {
            Ok(client) => Ok(Self {
                client,
                held_mib: crate::alloc::live_mib() - before,
                servers,
            }),
            Err(e) => {
                // The servers exit once the client's transport closes.
                for h in servers {
                    let _ = h.join();
                }
                Err(format!("client connect: {e}"))
            }
        }
    }

    /// Ends the session and returns the client metrics and each server's
    /// stats.
    pub fn stop(self) -> Result<(dakc_sim::MetricsRegistry, Vec<ServeStats>), String> {
        let metrics = self
            .client
            .shutdown()
            .map_err(|e| format!("client shutdown: {e}"))?;
        let stats = self
            .servers
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "server thread panicked".to_string())?
                    .map_err(|e| format!("server: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((metrics, stats))
    }
}

/// Connects a `ranks`-rank TCP mesh on localhost through a fresh
/// rendezvous directory under `root`; the transports come back in rank
/// order.
pub fn connect_mesh(root: &Path, tag: &str, ranks: usize) -> Result<Vec<TcpTransport>, String> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = root.join(format!("{tag}-{}", NEXT.fetch_add(1, Ordering::Relaxed)));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let c0 = DakcConfig::scaled_defaults(K).c0_bytes;
    let mesh = std::thread::scope(|s| {
        let handles: Vec<_> = (0..ranks)
            .map(|rank| {
                let dir = &dir;
                s.spawn(move || {
                    TcpTransport::rendezvous_tuned(rank, ranks, dir, c0, tuning())
                        .map_err(|e| format!("rank {rank} rendezvous: {e}"))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("rendezvous thread panicked".into()))
            })
            .collect()
    });
    let _ = std::fs::remove_dir_all(&dir);
    mesh
}

/// Query requests: the k-mers of fresh reads with their expected counts.
pub struct Queries {
    keys: Vec<u64>,
    expected: Vec<u32>,
    /// `keys[offsets[i]..offsets[i + 1]]` is request `i`.
    offsets: Vec<usize>,
    next: usize,
}

impl Queries {
    /// `n` requests from reads drawn under `seed`, extracted in the
    /// index's mode (`canonical` as the client reports it).
    pub fn new(input: &Input, n: usize, seed: u64, canonical: bool) -> Self {
        let mode = if canonical {
            CanonicalMode::Canonical
        } else {
            CanonicalMode::Forward
        };
        let reads = input.fresh_reads(n, seed);
        let mut keys = Vec::with_capacity(reads.total_kmers(K));
        let mut offsets = vec![0];
        for r in reads.iter() {
            extract_into::<u64>(r, K, mode, |w| keys.push(w));
            offsets.push(keys.len());
        }
        Self {
            keys,
            expected: Vec::new(),
            offsets,
            next: 0,
        }
    }

    /// Fills in the expected counts from the serial oracle.
    pub fn check_against(&mut self, oracle: &Oracle) {
        self.expected = self.keys.iter().map(|&k| oracle.count_of(k)).collect();
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The next request (cycling), as `(keys, expected)`.
    fn next(&mut self) -> (&[u64], &[u32]) {
        let i = self.next % self.len();
        self.next += 1;
        let r = self.offsets[i]..self.offsets[i + 1];
        (&self.keys[r.clone()], &self.expected[r])
    }

    /// Share of lookups that hit the index, and share that go to the top
    /// 1% of distinct k-mers by count.
    pub fn hit_and_hot(&self, hot_threshold: u32) -> (f64, f64) {
        let n = self.expected.len().max(1) as f64;
        let hits = self.expected.iter().filter(|&&c| c > 0).count() as f64;
        let hot = self
            .expected
            .iter()
            .filter(|&&c| c >= hot_threshold)
            .count() as f64;
        (hits / n, hot / n)
    }

    /// Times `Shard::get` on every key, each routed to its owner's shard,
    /// and returns nanoseconds per call and whether every count matched.
    pub fn time_shard_gets(&self, shards: &[Shard<u64>]) -> (f64, bool) {
        let t = Instant::now();
        let mut ok = true;
        for (&k, &want) in self.keys.iter().zip(&self.expected) {
            let got = shards[owner_pe(k, shards.len())].get(std::hint::black_box(k));
            ok &= got.unwrap_or(0) == want;
        }
        (
            t.elapsed().as_secs_f64() * 1e9 / self.keys.len().max(1) as f64,
            ok,
        )
    }
}

/// Sends one request and checks every key's count.
fn request(client: &mut QueryClient<u64, TcpTransport>, keys: &[u64], want: &[u32]) -> bool {
    match client.lookup_batch(keys) {
        Ok(out) => {
            out.complete()
                && out
                    .results
                    .iter()
                    .zip(want)
                    .all(|(r, &w)| matches!(r, LookupResult::Count(c) if *c == w))
        }
        Err(_) => false,
    }
}

/// What one open-loop step measured.
pub struct OpenLoop {
    /// Latency per request in ms, from when it was due.
    pub latency_ms: Vec<f64>,
    /// How late the generator sent each request, ms.
    pub lateness_ms: Vec<f64>,
    /// Requests already due but not yet sent, at each send.
    pub backlog: Vec<usize>,
}

impl OpenLoop {
    /// Whether the backlog grew: the last quarter waited on more overdue
    /// requests than the second quarter by over one request on average.
    pub fn backlog_grows(&self) -> bool {
        let q = self.backlog.len() / 4;
        if q == 0 {
            return false;
        }
        let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
        mean(&self.backlog[3 * q..]) > mean(&self.backlog[q..2 * q]) + 1.0
    }
}

/// Issues requests at `rate` per second for `secs`, each timed from when
/// it was due, so a stall also delays the requests queued behind it.
pub fn open_loop(
    client: &mut QueryClient<u64, TcpTransport>,
    q: &mut Queries,
    rate: f64,
    secs: f64,
    tally: &mut Tally,
    mut spans: Option<&mut Spans>,
) -> OpenLoop {
    let n = ((rate * secs) as usize).max(1);
    let interval = 1.0 / rate;
    let mut out = OpenLoop {
        latency_ms: Vec::with_capacity(n),
        lateness_ms: Vec::with_capacity(n),
        backlog: Vec::with_capacity(n),
    };
    let start = Instant::now();
    for i in 0..n {
        let due = start + Duration::from_secs_f64(i as f64 * interval);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let late = sent.duration_since(due).as_secs_f64();
        let (keys, want) = q.next();
        let ok = match spans.as_mut() {
            Some(sp) => sp.time("serve.request", |_| request(client, keys, want)).0,
            None => request(client, keys, want),
        };
        out.latency_ms.push(due.elapsed().as_secs_f64() * 1e3);
        out.lateness_ms.push(late * 1e3);
        out.backlog.push((late / interval) as usize);
        tally.record(ok);
    }
    out
}

/// What one closed-loop step measured.
pub struct ClosedLoop {
    /// Latency per request in ms.
    pub latency_ms: Vec<f64>,
    /// K-mers answered per second in each window of requests.
    pub rates: Vec<f64>,
}

/// Requests back to back, in windows of `window` requests, for `secs`.
pub fn closed_loop(
    client: &mut QueryClient<u64, TcpTransport>,
    q: &mut Queries,
    secs: f64,
    window: usize,
    tally: &mut Tally,
    mut spans: Option<&mut Spans>,
) -> ClosedLoop {
    let start = Instant::now();
    let mut out = ClosedLoop {
        latency_ms: Vec::new(),
        rates: Vec::new(),
    };
    while start.elapsed().as_secs_f64() < secs || out.rates.is_empty() {
        let t = Instant::now();
        let mut keys_done = 0usize;
        for _ in 0..window {
            let (keys, want) = q.next();
            keys_done += keys.len();
            let sent = Instant::now();
            let ok = match spans.as_mut() {
                Some(sp) => sp.time("serve.request", |_| request(client, keys, want)).0,
                None => request(client, keys, want),
            };
            out.latency_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            tally.record(ok);
        }
        out.rates.push(keys_done as f64 / t.elapsed().as_secs_f64());
    }
    out
}

/// Fixed request-rate ladder (requests per second) for the SLO search.
pub const LADDER: [f64; 7] = [250.0, 500.0, 1000.0, 1500.0, 2000.0, 3000.0, 4000.0];

/// Latency limit on the p99 of one request.
pub const P99_LIMIT_MS: f64 = 10.0;

/// The highest ladder rate whose p99 meets [`P99_LIMIT_MS`] with no
/// growing backlog (climbing stops at the first rate that misses), or 0
/// when even the lowest misses.
pub fn slo_rate(
    client: &mut QueryClient<u64, TcpTransport>,
    q: &mut Queries,
    secs_per_rate: f64,
    tally: &mut Tally,
) -> f64 {
    let mut best = 0.0;
    for rate in LADDER {
        let before = tally.failed;
        let mut step = open_loop(client, q, rate, secs_per_rate, tally, None);
        let p99 = percentile(&mut step.latency_ms, 0.99).unwrap_or(f64::INFINITY);
        if p99 > P99_LIMIT_MS || step.backlog_grows() || tally.failed > before {
            break;
        }
        best = rate;
    }
    best
}

/// Alternates histogram and top-N scans for `secs`, checking each against
/// the oracle; returns each scan's latency in ms.
pub fn scans(
    client: &mut QueryClient<u64, TcpTransport>,
    oracle: &Oracle,
    secs: f64,
    tally: &mut Tally,
) -> Vec<f64> {
    let spectrum = oracle.spectrum(SPECTRUM_MAX);
    let top = oracle.top_n(TOP_N);
    let start = Instant::now();
    let mut lat = Vec::new();
    while start.elapsed().as_secs_f64() < secs || lat.len() < 2 {
        let t = Instant::now();
        let ok = if lat.len() % 2 == 0 {
            matches!(client.histogram(SPECTRUM_MAX), Ok(a) if a.unavailable.is_empty() && a.value == spectrum)
        } else {
            matches!(client.top_n(TOP_N), Ok(a) if a.unavailable.is_empty() && a.value == top)
        };
        lat.push(t.elapsed().as_secs_f64() * 1e3);
        tally.record(ok);
    }
    lat
}

/// Time to run both scans directly on every shard, seconds.
pub fn time_shard_scans(shards: &[Shard<u64>]) -> f64 {
    let t = Instant::now();
    for s in shards {
        std::hint::black_box(s.spectrum(SPECTRUM_MAX));
        std::hint::black_box(s.top_n(TOP_N));
    }
    t.elapsed().as_secs_f64()
}
