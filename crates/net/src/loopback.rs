//! In-process [`Transport`] backend over shared queues.
//!
//! [`Loopback::mesh`] builds all N endpoints at once; hand one to each
//! thread (they are `Send`). Delivery is a per-rank FIFO of `(src, bytes)`
//! pairs, so per-peer ordering matches the TCP backend; a condition
//! variable per inbox wakes a rank blocked in `recv_timeout` the moment a
//! frame is pushed. Barriers use a
//! deadline-aware [`TimedBarrier`]: when a peer errors out and never
//! arrives, the survivors fail with [`NetError::Timeout`] after the
//! configured collective deadline instead of hanging forever — the same
//! contract the TCP backend gives. Termination rounds publish per-rank
//! totals to a shared table between two barrier waits, so every rank sums
//! the same snapshot.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::error::{NetError, NetResult};
use crate::transport::{NetStats, NetTuning, Rank, TermDetector, Transport};

/// A reusable N-party barrier whose wait takes a deadline.
///
/// Unlike [`std::sync::Barrier`], a waiter that times out *withdraws* its
/// arrival, so a partially-assembled generation does not strand later
/// arrivals: every survivor of a failed generation times out, and the
/// barrier is left consistent for (hypothetical) later use.
#[derive(Debug)]
pub struct TimedBarrier {
    state: Mutex<BarrierState>,
    cvar: Condvar,
    n: usize,
}

#[derive(Debug)]
struct BarrierState {
    arrived: usize,
    generation: u64,
}

impl TimedBarrier {
    /// A barrier for `n` parties.
    pub fn new(n: usize) -> Self {
        Self {
            state: Mutex::new(BarrierState { arrived: 0, generation: 0 }),
            cvar: Condvar::new(),
            n,
        }
    }

    /// Blocks until all `n` parties arrive or `timeout` passes. `Ok`
    /// means the barrier tripped; `Err` carries the time actually waited.
    pub fn wait(&self, timeout: Duration) -> Result<(), Duration> {
        let start = Instant::now();
        let mut state = self.state.lock().expect("barrier state");
        state.arrived += 1;
        if state.arrived == self.n {
            state.arrived = 0;
            state.generation = state.generation.wrapping_add(1);
            self.cvar.notify_all();
            return Ok(());
        }
        let gen = state.generation;
        while state.generation == gen {
            let waited = start.elapsed();
            if waited >= timeout {
                // Withdraw our arrival so a straggler that shows up later
                // does not trip the barrier with a phantom party.
                state.arrived = state.arrived.saturating_sub(1);
                return Err(waited);
            }
            let (s, _) = self
                .cvar
                .wait_timeout(state, timeout.saturating_sub(waited))
                .expect("barrier wait");
            state = s;
        }
        Ok(())
    }
}

/// A rank's delivery FIFO of `(src, frame bytes)` pairs.
type Inbox = Mutex<VecDeque<(Rank, Vec<u8>)>>;

#[derive(Debug)]
struct Shared {
    /// One inbox per rank.
    inboxes: Vec<Inbox>,
    /// Signalled on every push into the matching inbox.
    arrivals: Vec<Condvar>,
    barrier: TimedBarrier,
    /// Per-rank `(sent, received)` contributions for the current
    /// termination round.
    term: Mutex<Vec<(u64, u64)>>,
}

/// One rank's endpoint of an in-process mesh.
#[derive(Debug)]
pub struct Loopback {
    rank: Rank,
    n: usize,
    shared: Arc<Shared>,
    detector: TermDetector,
    stats: NetStats,
    tuning: NetTuning,
}

impl Loopback {
    /// Builds the full mesh with default tuning: element `i` is rank `i`'s
    /// endpoint.
    pub fn mesh(n: usize) -> Vec<Loopback> {
        Self::mesh_tuned(n, NetTuning::default())
    }

    /// Builds the full mesh with explicit deadlines/retry tuning.
    pub fn mesh_tuned(n: usize, tuning: NetTuning) -> Vec<Loopback> {
        assert!(n > 0, "mesh needs at least one rank");
        let shared = Arc::new(Shared {
            inboxes: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
            arrivals: (0..n).map(|_| Condvar::new()).collect(),
            barrier: TimedBarrier::new(n),
            term: Mutex::new(vec![(0, 0); n]),
        });
        (0..n)
            .map(|rank| Loopback {
                rank,
                n,
                shared: Arc::clone(&shared),
                detector: TermDetector::new(),
                stats: NetStats::new(n),
                tuning: tuning.clone(),
            })
            .collect()
    }

    /// Counts a frame pulled from the inbox as received.
    fn delivered(&mut self, got: Option<(Rank, Vec<u8>)>) -> Option<(Rank, Vec<u8>)> {
        if let Some((src, bytes)) = &got {
            self.stats.peers[*src].frames_recv += 1;
            self.stats.peers[*src].bytes_recv += bytes.len() as u64;
        }
        got
    }

    fn wait_barrier(&self, phase: &str) -> NetResult<()> {
        self.shared
            .barrier
            .wait(self.tuning.collective_timeout)
            .map_err(|waited| NetError::timeout(phase, waited, self.diagnostics()))
    }
}

impl Transport for Loopback {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn num_ranks(&self) -> usize {
        self.n
    }

    fn send(&mut self, dest: Rank, frame: &[u8]) -> NetResult<()> {
        self.stats.peers[dest].frames_sent += 1;
        self.stats.peers[dest].bytes_sent += frame.len() as u64;
        self.shared.inboxes[dest]
            .lock()
            .expect("inbox")
            .push_back((self.rank, frame.to_vec()));
        self.shared.arrivals[dest].notify_one();
        Ok(())
    }

    fn try_recv(&mut self) -> NetResult<Option<(Rank, Vec<u8>)>> {
        let got = self.shared.inboxes[self.rank]
            .lock()
            .expect("inbox")
            .pop_front();
        Ok(self.delivered(got))
    }

    fn recv_timeout(&mut self, timeout: Duration) -> NetResult<Option<(Rank, Vec<u8>)>> {
        let start = Instant::now();
        let got = {
            let mut inbox = self.shared.inboxes[self.rank].lock().expect("inbox");
            loop {
                if let Some(frame) = inbox.pop_front() {
                    break Some(frame);
                }
                let left = timeout.saturating_sub(start.elapsed());
                if left.is_zero() {
                    break None;
                }
                inbox = self.shared.arrivals[self.rank]
                    .wait_timeout(inbox, left)
                    .expect("inbox")
                    .0;
            }
        };
        Ok(self.delivered(got))
    }

    fn flush(&mut self) -> NetResult<()> {
        // Sends are delivered eagerly; nothing is buffered.
        Ok(())
    }

    fn barrier(&mut self) -> NetResult<()> {
        self.wait_barrier("barrier")?;
        self.stats.barriers += 1;
        Ok(())
    }

    fn termination_round(&mut self) -> NetResult<bool> {
        self.flush()?;
        {
            let mut term = self.shared.term.lock().expect("term table");
            term[self.rank] = (self.stats.frames_sent(), self.stats.frames_recv());
        }
        // Everyone has published; the table is stable while we sum it.
        self.wait_barrier("termination")?;
        let (sent, received) = {
            let term = self.shared.term.lock().expect("term table");
            term.iter()
                .fold((0, 0), |(s, r), &(ps, pr)| (s + ps, r + pr))
        };
        // Everyone has summed; the table may be overwritten next round.
        self.wait_barrier("termination")?;
        self.stats.term_rounds += 1;
        Ok(self.detector.decide(sent, received))
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut NetStats {
        &mut self.stats
    }

    fn last_global_totals(&self) -> Option<(u64, u64)> {
        self.detector.last()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_terminates_after_two_rounds() {
        let mut mesh = Loopback::mesh(1);
        let mut t = mesh.remove(0);
        assert!(!t.termination_round().unwrap());
        assert!(t.termination_round().unwrap());
        assert_eq!(t.stats().term_rounds, 2);
    }

    #[test]
    fn self_send_roundtrip() {
        let mut mesh = Loopback::mesh(1);
        let mut t = mesh.remove(0);
        t.send(0, b"abc").unwrap();
        assert_eq!(t.try_recv().unwrap(), Some((0, b"abc".to_vec())));
        assert_eq!(t.try_recv().unwrap(), None);
        assert!(!t.termination_round().unwrap());
        assert!(t.termination_round().unwrap());
    }

    #[test]
    fn two_ranks_exchange_and_terminate() {
        let mut mesh = Loopback::mesh(2);
        let mut t1 = mesh.pop().unwrap();
        let mut t0 = mesh.pop().unwrap();
        let h = std::thread::spawn(move || {
            t1.send(0, b"from1").unwrap();
            let mut got = None;
            while got.is_none() {
                got = t1.try_recv().unwrap();
            }
            assert_eq!(got, Some((0, b"from0".to_vec())));
            while !t1.termination_round().unwrap() {}
            t1.barrier().unwrap();
            t1.stats().frames_sent()
        });
        t0.send(1, b"from0").unwrap();
        let mut got = None;
        while got.is_none() {
            got = t0.try_recv().unwrap();
        }
        assert_eq!(got, Some((1, b"from1".to_vec())));
        while !t0.termination_round().unwrap() {}
        t0.barrier().unwrap();
        assert_eq!(h.join().unwrap(), 1);
        assert_eq!(t0.stats().frames_sent(), 1);
        assert_eq!(t0.stats().frames_recv(), 1);
    }

    #[test]
    fn recv_timeout_wakes_on_send_and_times_out_when_idle() {
        let mut mesh = Loopback::mesh(2);
        let mut t1 = mesh.pop().unwrap();
        let mut t0 = mesh.pop().unwrap();
        let start = Instant::now();
        assert_eq!(t0.recv_timeout(Duration::from_millis(40)).unwrap(), None);
        assert!(start.elapsed() >= Duration::from_millis(40));
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            t1.send(0, b"late").unwrap();
        });
        let start = Instant::now();
        let got = t0.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(got, Some((1, b"late".to_vec())));
        assert!(start.elapsed() < Duration::from_secs(10), "woken by the send");
        assert_eq!(t0.stats().frames_recv(), 1);
        h.join().unwrap();
    }

    #[test]
    fn per_peer_fifo_order() {
        let mut mesh = Loopback::mesh(2);
        let mut t1 = mesh.pop().unwrap();
        let mut t0 = mesh.pop().unwrap();
        for i in 0..10u8 {
            t0.send(1, &[i]).unwrap();
        }
        for i in 0..10u8 {
            assert_eq!(t1.try_recv().unwrap(), Some((0, vec![i])));
        }
    }

    #[test]
    fn abandoned_barrier_times_out_with_typed_error() {
        let tuning = NetTuning::default().with_timeout(Duration::from_millis(80));
        let mut mesh = Loopback::mesh_tuned(2, tuning);
        // Rank 1's endpoint never calls barrier (simulated dead peer).
        let mut t0 = mesh.remove(0);
        let err = t0.barrier().unwrap_err();
        match err {
            NetError::Timeout { phase, waited_ms, .. } => {
                assert_eq!(phase, "barrier");
                assert!(waited_ms >= 80, "waited {waited_ms} ms");
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn timed_barrier_withdraws_timed_out_waiters() {
        let b = Arc::new(TimedBarrier::new(2));
        // First waiter times out alone and withdraws.
        assert!(b.wait(Duration::from_millis(30)).is_err());
        // Two fresh waiters then trip the barrier normally — the stale
        // arrival did not leave a phantom party behind.
        let b2 = Arc::clone(&b);
        let h = std::thread::spawn(move || b2.wait(Duration::from_secs(5)));
        assert!(b.wait(Duration::from_secs(5)).is_ok());
        assert!(h.join().unwrap().is_ok());
    }

    #[test]
    fn stalled_termination_round_times_out() {
        let tuning = NetTuning::default().with_timeout(Duration::from_millis(80));
        let mut mesh = Loopback::mesh_tuned(2, tuning);
        let mut t0 = mesh.remove(0);
        let err = t0.termination_round().unwrap_err();
        assert!(matches!(err, NetError::Timeout { ref phase, .. } if phase == "termination"));
    }
}
