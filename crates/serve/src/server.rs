//! The resident server runtime: one rank's request loop over its shard.
//!
//! The serve mesh has `S + 1` ranks: servers `0..S` (each holding the
//! shard its rank owns under the count-time `owner_pe` hash) and the
//! client frontend as the last rank. Unlike the count path, the loop
//! never runs termination rounds — quiescence is the *opposite* of what
//! a service wants — which is exactly why [`dakc::count_partition`]
//! hands the transport back alive. The loop blocks on its inbox between
//! requests ([`Transport::recv_timeout`]) and wakes the moment a query
//! lands, so per-request latency carries no polling sleep. Liveness is
//! the supervisor's job: the worker's heartbeat thread keeps beating
//! while this loop waits, so a hung server surfaces at the launcher as a
//! stale rank, and the phase it reports is [`Phase::Serve`].
//!
//! Exit conditions: a client SHUTDOWN (clean, returns stats), the client
//! disconnecting (clean — the session is over), or a typed transport
//! error (propagated so the worker can file an obituary).
//!
//! [`Phase::Serve`]: dakc_net::Phase::Serve

use std::sync::Arc;
use std::time::{Duration, Instant};

use dakc_kmer::{owner_pe, KmerWord};
use dakc_net::{FrameKind, HeartbeatState, Phase, Transport};

use crate::error::{ServeError, ServeResult};
use crate::shard::Shard;
use crate::wire::{
    decode_request, encode_ready, encode_response, Ready, Request, Response,
};

/// How often idle-loop traffic totals are pushed to the heartbeat state;
/// also the longest the loop blocks on its inbox in one wait.
const MONITOR_PERIOD: Duration = Duration::from_millis(100);

/// Server-side options.
#[derive(Debug, Clone, Default)]
pub struct ServeOpts {
    /// When set, the request loop publishes [`Phase::Serve`] and traffic
    /// totals here for the worker's heartbeat sender.
    pub monitor: Option<Arc<HeartbeatState>>,
}

/// What one serve session handled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered (lookup batches, histograms, top-Ns).
    pub requests: u64,
    /// Individual keys looked up.
    pub lookups: u64,
    /// Lookups that found their key.
    pub hits: u64,
}

/// Runs one rank's request loop until shutdown, answering queries
/// against `shard`. `transport` must be an `S + 1`-rank mesh with this
/// endpoint at a server rank (`rank < num_ranks - 1`); the last rank is
/// the client. Announces READY, then serves until the client says
/// SHUTDOWN or disconnects.
pub fn serve_shard<W, T>(
    shard: &Shard<W>,
    transport: T,
    opts: &ServeOpts,
) -> ServeResult<ServeStats>
where
    W: KmerWord,
    T: Transport,
{
    serve_shards(std::slice::from_ref(shard), transport, opts)
}

/// [`serve_shard`] over a replicated shard set: this rank's own shard
/// plus the replica copies it holds for its predecessor owners (owner
/// `o`'s shard lives on ranks `o..o+R-1 (mod S)`). Each shard's
/// `meta.rank` names the owner it answers for. Lookups hash every key
/// to its owner and consult that owner's copy; aggregate requests name
/// a shard explicitly via the `_OWNER` opcodes when failing over. The
/// READY hello announces the rank's *own* shard (so the client's record
/// total counts each owner partition once) plus the replication factor.
pub fn serve_shards<W, T>(
    shards: &[Shard<W>],
    mut transport: T,
    opts: &ServeOpts,
) -> ServeResult<ServeStats>
where
    W: KmerWord,
    T: Transport,
{
    let me = transport.rank();
    let n = transport.num_ranks();
    let client = n - 1;
    assert!(me < client, "serve_shards must run on a server rank, not the client");
    let servers = client;
    let own = shards
        .iter()
        .find(|s| s.meta().rank as usize == me)
        .expect("serve_shards: the rank's own shard must be in the set");
    for s in shards {
        assert_eq!(
            (s.meta().k, s.meta().word_bytes, s.meta().canonical),
            (own.meta().k, own.meta().word_bytes, own.meta().canonical),
            "serve_shards: replica shards must share the job parameters"
        );
    }
    // owner rank → shard held here (the owner-routing table for lookups
    // and `_OWNER` aggregates).
    let mut by_owner: Vec<Option<&Shard<W>>> = vec![None; servers];
    for s in shards {
        let o = s.meta().rank as usize;
        assert!(o < servers, "serve_shards: shard owner {o} out of range 0..{servers}");
        by_owner[o] = Some(s);
    }
    if let Some(m) = &opts.monitor {
        m.set_phase(Phase::Serve);
    }
    let shard_for = |owner: usize, src: usize| -> ServeResult<&Shard<W>> {
        by_owner.get(owner).copied().flatten().ok_or_else(|| ServeError::Wire {
            from: src,
            detail: format!("rank {me} holds no replica of owner {owner}'s shard"),
        })
    };
    let word_bytes = own.meta().word_bytes as usize;
    let hello = Ready {
        rank: me as u32,
        k: own.meta().k,
        word_bytes: own.meta().word_bytes,
        canonical: own.meta().canonical,
        n_records: own.meta().n_records,
        replicas: shards.len() as u32,
    };
    transport.send_kind(client, FrameKind::Reply, &encode_ready(&hello))?;
    transport.flush()?;

    let mut stats = ServeStats::default();
    let mut last_monitor = Instant::now();
    loop {
        let wait = MONITOR_PERIOD.saturating_sub(last_monitor.elapsed());
        let frame = transport.recv_timeout(wait)?;
        let Some((src, bytes)) = frame else {
            if transport.peer_dead(client) {
                // The client is gone: the session is over. Not an error —
                // a one-shot client that exits after its queries is the
                // normal end of a serve session.
                break;
            }
            if last_monitor.elapsed() >= MONITOR_PERIOD {
                if let Some(m) = &opts.monitor {
                    let s = transport.stats();
                    m.record_traffic(s.frames_sent(), s.frames_recv(), s.retries);
                }
                last_monitor = Instant::now();
            }
            continue;
        };
        if src != client {
            // Server peers never originate requests; their frames would
            // be protocol confusion. Tolerate nothing.
            return Err(ServeError::Wire {
                from: src,
                detail: "request from a non-client rank".to_string(),
            });
        }
        let reply = match decode_request::<W>(src, &bytes, word_bytes)? {
            Request::Shutdown => break,
            Request::Lookup { id, keys } => {
                stats.lookups += keys.len() as u64;
                // Each key is answered from its owner's shard — the
                // same hash that routed it at count time — so a batch
                // failed over to this replica holder needs no special
                // request form.
                let counts: Vec<u32> = keys
                    .iter()
                    .map(|&k| {
                        let c = shard_for(owner_pe(k, servers), src)?.get(k).unwrap_or(0);
                        if c > 0 {
                            stats.hits += 1;
                        }
                        Ok(c)
                    })
                    .collect::<ServeResult<_>>()?;
                Response::Lookup { id, counts }
            }
            Request::Histogram { id, max, owner } => {
                let shard = shard_for(owner.map_or(me, |o| o as usize), src)?;
                // Bound the reply size: a hostile max must not allocate
                // gigabytes of buckets.
                let max = max.min(1 << 20);
                Response::Histogram { id, buckets: shard.spectrum(max) }
            }
            Request::TopN { id, n, owner } => {
                let shard = shard_for(owner.map_or(me, |o| o as usize), src)?;
                Response::TopN { id, records: shard.top_n(n as usize) }
            }
        };
        stats.requests += 1;
        transport.send_kind(client, FrameKind::Reply, &encode_response(&reply, word_bytes))?;
        transport.flush()?;
    }
    if let Some(m) = &opts.monitor {
        let s = transport.stats();
        m.record_traffic(s.frames_sent(), s.frames_recv(), s.retries);
        m.set_phase(Phase::Done);
    }
    Ok(stats)
}
