//! The executed communication layer every parallelism axis shares.
//!
//! Data, tensor and pipeline parallelism all speak through this module:
//!
//! * `Ring` (crate-private) — one worker's pair of directed ring
//!   links, executing the
//!   chunked reduce-scatter / allgather schedule RCCL rings run on
//!   Frontier, with bounded receives ([`CollectiveError`], never a
//!   hang) and per-endpoint wire-byte / wait-time accounting — DP
//!   groups, TP groups and the grad-norm group are all this one
//!   audited object;
//! * [`PipeLink`] — a bidirectional stage-boundary link for pipeline
//!   parallelism, built from a 2-ring, emitting `Domain::Pipe` flow
//!   arrows whose ids both endpoints derive without communicating;
//! * [`RingComm`] — the [`TapeComm`] adapter that lets autograd tape
//!   ops ([`Tape::sync_sum`], [`Tape::sync_grad`]) run ring allreduces
//!   mid-graph, latching the first failure instead of panicking inside
//!   the backward sweep.
//!
//! [`Tape::sync_sum`]: matgpt_tensor::Tape::sync_sum
//! [`Tape::sync_grad`]: matgpt_tensor::Tape::sync_grad

use crossbeam::channel::{unbounded, Receiver, Sender};
use matgpt_frontier_sim::collectives::Collective as CollKind;
use matgpt_obs::flow::{self, Domain, FlowScope};
use matgpt_obs::{pids, FlowPhase, Span};
use matgpt_tensor::{ring_chunks, TapeComm};
use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Ring-receive bound for fault-free runs: long enough that no healthy
/// worker can trip it, short enough that a genuinely wedged run turns
/// into a typed error instead of an eternal hang. Resilient runs use
/// the much tighter `ResilienceConfig::collective_timeout_ms`.
pub(crate) const DEFAULT_RING_TIMEOUT: Duration = Duration::from_secs(120);

/// Typed failure of a bounded collective — what a worker observes when
/// a peer dies or stalls instead of blocking forever.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollectiveError {
    /// A link disconnected: the named peer dropped its endpoints (its
    /// thread exited or was killed mid-step).
    RankLost {
        /// The peer this rank lost contact with.
        rank: usize,
    },
    /// No traffic from the named peer within the bounded wait — a stall
    /// longer than the collective timeout is indistinguishable from a
    /// dead rank and is treated as one.
    Timeout {
        /// The peer that went silent.
        rank: usize,
        /// How long this rank waited before giving up, milliseconds.
        waited_ms: u64,
    },
}

impl std::fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollectiveError::RankLost { rank } => write!(f, "ring peer {rank} lost (disconnected)"),
            CollectiveError::Timeout { rank, waited_ms } => {
                write!(f, "ring peer {rank} silent for {waited_ms} ms")
            }
        }
    }
}

impl std::error::Error for CollectiveError {}

/// One worker's pair of ring links: it only ever sends to its successor
/// and receives from its predecessor, like one RCCL ring channel.
pub(crate) struct Ring {
    pub(crate) rank: usize,
    pub(crate) n: usize,
    tx_next: Sender<Vec<f32>>,
    rx_prev: Receiver<Vec<f32>>,
    timeout: Duration,
    pub(crate) sent_bytes: u64,
    pub(crate) wait_ms: f64,
    /// Collective sequence number for flow-id scoping. Every rank of a
    /// ring group runs the same collectives in the same order, so the
    /// counters stay in lockstep and both ends of a hop derive the
    /// same flow id without communicating.
    flow_seq: u64,
    /// Current training step, for tagging flow events (`u64::MAX` =
    /// outside a step).
    pub(crate) step: u64,
}

/// One directed ring link: the channel carrying rank r's sends to r+1.
type RingLink = (Sender<Vec<f32>>, Receiver<Vec<f32>>);

impl Ring {
    /// Build the n ring endpoints (rank r sends to rank (r+1) mod n),
    /// each bounding its receives by `timeout`.
    pub(crate) fn build(n: usize, timeout: Duration) -> Vec<Ring> {
        // Each ring group gets a disjoint block of collective sequence
        // numbers, so flow ids from different pools (reruns, elastic
        // re-shards, the many groups of a topology grid) never collide
        // in one process-wide trace.
        static RING_GROUP: AtomicU64 = AtomicU64::new(0);
        let seq_base = RING_GROUP.fetch_add(1, Ordering::Relaxed) << 20;
        let links: Vec<RingLink> = (0..n).map(|_| unbounded()).collect();
        let mut txs: Vec<Option<Sender<Vec<f32>>>> = Vec::new();
        let mut rxs: Vec<Option<Receiver<Vec<f32>>>> = Vec::new();
        for (tx, rx) in links {
            txs.push(Some(tx));
            rxs.push(Some(rx));
        }
        (0..n)
            .map(|r| Ring {
                rank: r,
                n,
                // link r carries r -> r+1 traffic
                tx_next: txs[r].take().expect("unique sender"),
                rx_prev: rxs[(r + n - 1) % n].take().expect("unique receiver"),
                timeout,
                sent_bytes: 0,
                wait_ms: 0.0,
                flow_seq: seq_base,
                step: u64::MAX,
            })
            .collect()
    }

    /// Open the next collective's flow scope (same number on every
    /// rank — see `flow_seq`).
    fn begin_collective(&mut self) -> FlowScope {
        let scope = FlowScope::new(Domain::Ring, self.flow_seq);
        self.flow_seq += 1;
        scope
    }

    fn prev_rank(&self) -> usize {
        (self.rank + self.n - 1) % self.n
    }

    pub(crate) fn send(&mut self, buf: Vec<f32>) -> Result<(), CollectiveError> {
        self.sent_bytes += 4 * buf.len() as u64;
        self.tx_next
            .send(buf)
            .map_err(|_| CollectiveError::RankLost {
                rank: (self.rank + 1) % self.n,
            })
    }

    pub(crate) fn recv(&mut self) -> Result<Vec<f32>, CollectiveError> {
        let t0 = Instant::now();
        let got = self.rx_prev.recv_timeout(self.timeout).map_err(|e| {
            use crossbeam::channel::RecvTimeoutError;
            match e {
                RecvTimeoutError::Disconnected => CollectiveError::RankLost {
                    rank: self.prev_rank(),
                },
                RecvTimeoutError::Timeout => CollectiveError::Timeout {
                    rank: self.prev_rank(),
                    waited_ms: self.timeout.as_millis() as u64,
                },
            }
        });
        self.wait_ms += t0.elapsed().as_secs_f64() * 1e3;
        got
    }

    /// Chunked ring reduce-scatter over `bounds`: after N−1 steps rank
    /// `r` holds the fully reduced chunk `bounds[r]`; other chunks hold
    /// partial sums. Each chunk's additions happen in ring order
    /// starting from rank `r+1` — the order
    /// [`matgpt_tensor::ring_fold`] replays.
    pub(crate) fn reduce_scatter(
        &mut self,
        buf: &mut [f32],
        bounds: &[Range<usize>],
    ) -> Result<(), CollectiveError> {
        let scope = self.begin_collective();
        let n = self.n;
        for s in 0..n.saturating_sub(1) {
            let send_idx = (self.rank + n - 1 - s) % n;
            let t_send = Instant::now();
            self.send(buf[bounds[send_idx].clone()].to_vec())?;
            flow::emit(
                FlowPhase::Start,
                pids::PARALLEL,
                "ring",
                "ring.send",
                scope.ring_edge(s as u64, self.rank as u64),
                t_send,
                self.step,
            );
            let recv_idx = (self.rank + 2 * n - 2 - s) % n;
            let t_recv = Instant::now();
            let incoming = self.recv()?;
            flow::emit(
                FlowPhase::Finish,
                pids::PARALLEL,
                "ring",
                "ring.recv",
                scope.ring_edge(s as u64, self.prev_rank() as u64),
                t_recv,
                self.step,
            );
            for (dst, src) in buf[bounds[recv_idx].clone()].iter_mut().zip(&incoming) {
                *dst += *src;
            }
        }
        Ok(())
    }

    /// Chunked ring allgather over `bounds`: rank `r` starts with the
    /// authoritative `bounds[r]` and after N−1 steps every rank holds
    /// every chunk.
    pub(crate) fn allgather(
        &mut self,
        buf: &mut [f32],
        bounds: &[Range<usize>],
    ) -> Result<(), CollectiveError> {
        let scope = self.begin_collective();
        let n = self.n;
        for s in 0..n.saturating_sub(1) {
            let send_idx = (self.rank + n - s) % n;
            let t_send = Instant::now();
            self.send(buf[bounds[send_idx].clone()].to_vec())?;
            flow::emit(
                FlowPhase::Start,
                pids::PARALLEL,
                "ring",
                "ring.send",
                scope.ring_edge(s as u64, self.rank as u64),
                t_send,
                self.step,
            );
            let recv_idx = (self.rank + n - 1 - s) % n;
            let t_recv = Instant::now();
            let incoming = self.recv()?;
            flow::emit(
                FlowPhase::Finish,
                pids::PARALLEL,
                "ring",
                "ring.recv",
                scope.ring_edge(s as u64, self.prev_rank() as u64),
                t_recv,
                self.step,
            );
            buf[bounds[recv_idx].clone()].copy_from_slice(&incoming);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Per-rank wire-byte closed forms.
// ---------------------------------------------------------------------------

/// Exact bytes rank `rank` sends in one ring allreduce over `len` f32
/// scalars across `n` ranks: the reduce-scatter sends every chunk
/// except its own, the allgather every chunk except its successor's.
/// The rank-mean of this is the paper's `2(N−1)/N · 4·len` closed form.
pub fn ring_allreduce_rank_bytes(len: usize, n: usize, rank: usize) -> u64 {
    if n <= 1 {
        return 0;
    }
    let bounds = ring_chunks(len, n);
    let rs: usize = (0..n).filter(|&c| c != rank).map(|c| bounds[c].len()).sum();
    let ag: usize = (0..n)
        .filter(|&c| c != (rank + 1) % n)
        .map(|c| bounds[c].len())
        .sum();
    (4 * (rs + ag)) as u64
}

/// Exact bytes rank `rank` sends in one ring allgather over the given
/// per-rank chunk `bounds` (possibly unequal): every chunk except its
/// successor's.
pub fn ring_allgather_rank_bytes(bounds: &[Range<usize>], rank: usize) -> u64 {
    let n = bounds.len();
    if n <= 1 {
        return 0;
    }
    let sent: usize = (0..n)
        .filter(|&c| c != (rank + 1) % n)
        .map(|c| bounds[c].len())
        .sum();
    (4 * sent) as u64
}

/// Exact bytes rank `rank` sends in one ring reduce-scatter over the
/// given per-rank chunk `bounds` (possibly unequal): every chunk except
/// its own.
pub fn ring_reduce_scatter_rank_bytes(bounds: &[Range<usize>], rank: usize) -> u64 {
    let n = bounds.len();
    if n <= 1 {
        return 0;
    }
    let sent: usize = (0..n).filter(|&c| c != rank).map(|c| bounds[c].len()).sum();
    (4 * sent) as u64
}

/// Run a real threaded ring allreduce (sum) over the given per-rank
/// buffers and chunk bounds. Returns each rank's resulting buffer plus
/// the bytes each rank sent — the unit-testable surface of the ring.
///
/// Receives are bounded: a dead or wedged participant surfaces as a
/// typed [`CollectiveError`] instead of blocking the caller forever.
pub fn ring_allreduce_sum(
    parts: Vec<Vec<f32>>,
    bounds: &[Range<usize>],
) -> Result<(Vec<Vec<f32>>, Vec<u64>), CollectiveError> {
    let n = parts.len();
    assert!(n > 0, "need at least one rank");
    assert_eq!(bounds.len(), n, "one chunk per rank");
    let rings = Ring::build(n, DEFAULT_RING_TIMEOUT);
    std::thread::scope(|scope| {
        let handles: Vec<_> = rings
            .into_iter()
            .zip(parts)
            .map(|(mut ring, mut buf)| {
                scope.spawn(move || -> Result<(Vec<f32>, u64), CollectiveError> {
                    ring.reduce_scatter(&mut buf, bounds)?;
                    ring.allgather(&mut buf, bounds)?;
                    Ok((buf, ring.sent_bytes))
                })
            })
            .collect();
        let mut bufs = Vec::with_capacity(n);
        let mut bytes = Vec::with_capacity(n);
        for h in handles {
            let (b, sent) = h.join().expect("ring worker")?;
            bufs.push(b);
            bytes.push(sent);
        }
        Ok((bufs, bytes))
    })
}

// ---------------------------------------------------------------------------
// Pipeline-parallel stage boundary link.
// ---------------------------------------------------------------------------

/// Direction of a pipeline boundary transfer, for flow-id derivation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipeDir {
    /// Activation hop, stage s → s+1.
    Forward,
    /// Boundary-gradient hop, stage s+1 → s.
    Backward,
}

/// One endpoint of a bidirectional stage-boundary link — built from a
/// 2-ring, whose single hop in each direction is exactly a p2p channel
/// with a deadline. Endpoint 0 is the earlier stage.
///
/// Flow arrows use `Domain::Pipe` ids derived from
/// `(link id, step, chunk, direction)` rather than lockstep sequence
/// counters: the two endpoints interleave their sends and receives
/// differently under 1F1B, so only coordinates both sides already know
/// can name the same hop.
pub struct PipeLink {
    ring: Ring,
    link_id: u64,
    /// Current training step, folded into flow-arrow ids.
    pub step: u64,
}

impl PipeLink {
    /// Build the two endpoints of one stage boundary; receives on
    /// either end are bounded by `timeout`.
    pub fn pair(timeout: Duration) -> (PipeLink, PipeLink) {
        static LINK_ID: AtomicU64 = AtomicU64::new(0);
        let link_id = LINK_ID.fetch_add(1, Ordering::Relaxed);
        let mut rings = Ring::build(2, timeout);
        let later = rings.pop().expect("endpoint 1");
        let earlier = rings.pop().expect("endpoint 0");
        (
            PipeLink {
                ring: earlier,
                link_id,
                step: u64::MAX,
            },
            PipeLink {
                ring: later,
                link_id,
                step: u64::MAX,
            },
        )
    }

    /// Both endpoints derive the id of a hop from coordinates they
    /// independently know. The scope packs link and step, the edge
    /// packs chunk and direction.
    fn flow_scope(&self) -> FlowScope {
        FlowScope::new(Domain::Pipe, (self.link_id << 16) | (self.step & 0xFFFF))
    }

    fn edge(chunk: usize, dir: PipeDir) -> u64 {
        ((chunk as u64 & 0x7FFF) << 1) | (dir == PipeDir::Backward) as u64
    }

    /// Send one boundary tensor (activation or gradient) for `chunk`.
    pub fn send(
        &mut self,
        buf: Vec<f32>,
        chunk: usize,
        dir: PipeDir,
    ) -> Result<(), CollectiveError> {
        let scope = self.flow_scope();
        let _s = Span::enter(pids::PARALLEL, "pp", "pipe.send");
        let t0 = Instant::now();
        self.ring.send(buf)?;
        flow::emit(
            FlowPhase::Start,
            pids::PARALLEL,
            "pp",
            "pipe.send",
            scope.edge(Self::edge(chunk, dir)),
            t0,
            self.step,
        );
        Ok(())
    }

    /// Receive the boundary tensor for `chunk`, bounded by the link
    /// timeout — a dead or stalled neighbour stage is a typed
    /// [`CollectiveError`], never a hang.
    pub fn recv(&mut self, chunk: usize, dir: PipeDir) -> Result<Vec<f32>, CollectiveError> {
        let scope = self.flow_scope();
        let _s = Span::enter(pids::PARALLEL, "pp", "pipe.recv");
        let t0 = Instant::now();
        let got = self.ring.recv()?;
        flow::emit(
            FlowPhase::Finish,
            pids::PARALLEL,
            "pp",
            "pipe.recv",
            scope.edge(Self::edge(chunk, dir)),
            t0,
            self.step,
        );
        Ok(got)
    }

    /// Map a neighbour-loss error to the neighbour's pipeline stage.
    /// (The inner 2-ring reports peer rank 0/1; callers know which
    /// stage sits at the other end.)
    pub fn sent_bytes(&self) -> u64 {
        self.ring.sent_bytes
    }

    /// Milliseconds this endpoint has spent blocked on receives.
    pub fn wait_ms(&self) -> f64 {
        self.ring.wait_ms
    }
}

// ---------------------------------------------------------------------------
// Tape-side adapter: ring allreduce as an autograd communication hook.
// ---------------------------------------------------------------------------

/// A ring endpoint wrapped for use inside autograd tape ops
/// ([`matgpt_tensor::TapeComm`]): interior-mutable, error-latching, and
/// message-logging.
///
/// Tape construction and the backward sweep cannot propagate `Result`s
/// mid-graph, so the first [`CollectiveError`] is latched, every later
/// allreduce becomes a no-op, and the executor calls
/// [`RingComm::take_failure`] after the sweep to turn the latch into a
/// typed step failure. Each completed allreduce is also appended to a
/// message log (`(kind, buffer bytes)`) — the measured side of the
/// Fig. 11 message-size histogram comparison.
pub struct RingComm {
    ring: RefCell<Ring>,
    error: RefCell<Option<CollectiveError>>,
    log: RefCell<Vec<(CollKind, u64)>>,
}

impl RingComm {
    /// Wrap a ring endpoint.
    pub(crate) fn new(ring: Ring) -> Self {
        Self {
            ring: RefCell::new(ring),
            error: RefCell::new(None),
            log: RefCell::new(Vec::new()),
        }
    }

    /// Tag subsequent collectives with the current training step.
    pub fn set_step(&self, step: u64) {
        self.ring.borrow_mut().step = step;
    }

    /// Take the first latched typed failure, clearing the latch.
    pub fn take_failure(&self) -> Option<CollectiveError> {
        self.error.borrow_mut().take()
    }

    /// Total bytes this endpoint has sent.
    pub fn sent_bytes(&self) -> u64 {
        self.ring.borrow().sent_bytes
    }

    /// Milliseconds spent blocked on ring receives.
    pub fn wait_ms(&self) -> f64 {
        self.ring.borrow().wait_ms
    }

    /// Drain the `(collective kind, buffer bytes)` message log.
    pub fn drain_log(&self) -> Vec<(CollKind, u64)> {
        std::mem::take(&mut *self.log.borrow_mut())
    }
}

impl TapeComm for RingComm {
    fn allreduce(&self, buf: &mut [f32]) {
        if self.error.borrow().is_some() {
            return; // latched: stay a no-op so the sweep can finish
        }
        let _s = Span::enter(pids::PARALLEL, "tp", "allreduce");
        let mut ring = self.ring.borrow_mut();
        let bounds = ring_chunks(buf.len(), ring.n);
        let res = ring
            .reduce_scatter(buf, &bounds)
            .and_then(|()| ring.allgather(buf, &bounds));
        match res {
            Ok(()) => self
                .log
                .borrow_mut()
                .push((CollKind::AllReduce, 4 * buf.len() as u64)),
            Err(e) => *self.error.borrow_mut() = Some(e),
        }
    }

    fn take_error(&self) -> Option<String> {
        self.take_failure().map(|e| e.to_string())
    }

    fn group(&self) -> usize {
        self.ring.borrow().n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgpt_frontier_sim::collectives::wire_bytes;
    use matgpt_tensor::ring_fold;

    #[test]
    fn threaded_ring_matches_fold_bitwise() {
        let parts: Vec<Vec<f32>> = (0..3)
            .map(|r| {
                (0..11)
                    .map(|i| (0.1 + r as f32 * 0.37 + i as f32 * 0.013).sin())
                    .collect()
            })
            .collect();
        let bounds = ring_chunks(11, 3); // non-divisible remainder chunks
        let expect = ring_fold(&parts, &bounds);
        let (results, bytes) = ring_allreduce_sum(parts, &bounds).expect("healthy ring");
        for buf in &results {
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(buf), bits(&expect));
        }
        // Each rank sends 2(n-1) chunks; mean volume hits the closed
        // form, and each rank individually hits the exact schedule sum.
        let mean = bytes.iter().sum::<u64>() as f64 / bytes.len() as f64;
        let formula = wire_bytes(CollKind::AllReduce, 11.0 * 4.0, 3);
        assert!((mean - formula).abs() < 1e-9, "{mean} vs {formula}");
        for (rank, &sent) in bytes.iter().enumerate() {
            assert_eq!(sent, ring_allreduce_rank_bytes(11, 3, rank), "rank {rank}");
        }
    }

    #[test]
    fn rank_bytes_closed_forms_average_to_paper_formula() {
        for (len, n) in [(12usize, 4usize), (13, 4), (7, 3), (100, 8)] {
            let total: u64 = (0..n).map(|r| ring_allreduce_rank_bytes(len, n, r)).sum();
            let mean = total as f64 / n as f64;
            let formula = wire_bytes(CollKind::AllReduce, (len * 4) as f64, n);
            assert!(
                (mean - formula).abs() < 1e-9,
                "len={len} n={n}: {mean} vs {formula}"
            );
        }
        assert_eq!(ring_allreduce_rank_bytes(64, 1, 0), 0, "no wire at n=1");
    }

    #[test]
    fn ring_recv_from_dropped_peer_is_rank_lost_not_a_hang() {
        // rank 1's endpoints are dropped before it ever sends: rank 0's
        // reduce-scatter must come back with a typed RankLost, and rank
        // 1's vanishing must cascade to rank 2 rather than deadlock.
        let mut rings = Ring::build(3, Duration::from_secs(5));
        let r2 = rings.pop().expect("rank 2");
        let r1 = rings.pop().expect("rank 1");
        let r0 = rings.pop().expect("rank 0");
        drop(r1);
        let bounds = ring_chunks(9, 3);
        std::thread::scope(|scope| {
            for mut ring in [r0, r2] {
                let bounds = &bounds;
                scope.spawn(move || {
                    let mut buf = vec![1.0f32; 9];
                    let err = ring
                        .reduce_scatter(&mut buf, bounds)
                        .expect_err("peer is gone");
                    assert!(matches!(err, CollectiveError::RankLost { .. }), "{err}");
                });
            }
        });
    }

    #[test]
    fn ring_recv_from_silent_peer_times_out() {
        // rank 1 stays alive but never participates: rank 0 must give
        // up after the bounded wait and name the silent predecessor.
        let mut rings = Ring::build(2, Duration::from_millis(50));
        let _r1 = rings.pop().expect("rank 1 held alive, silent");
        let mut r0 = rings.pop().expect("rank 0");
        let bounds = ring_chunks(4, 2);
        let mut buf = vec![1.0f32; 4];
        let err = r0
            .reduce_scatter(&mut buf, &bounds)
            .expect_err("peer never sends");
        assert_eq!(
            err,
            CollectiveError::Timeout {
                rank: 1,
                waited_ms: 50
            }
        );
    }

    #[test]
    fn pipe_link_round_trips_and_counts_bytes() {
        let (mut a, mut b) = PipeLink::pair(Duration::from_secs(5));
        a.send(vec![1.0, 2.0, 3.0], 0, PipeDir::Forward).unwrap();
        assert_eq!(b.recv(0, PipeDir::Forward).unwrap(), vec![1.0, 2.0, 3.0]);
        b.send(vec![9.0], 0, PipeDir::Backward).unwrap();
        assert_eq!(a.recv(0, PipeDir::Backward).unwrap(), vec![9.0]);
        assert_eq!(a.sent_bytes(), 12);
        assert_eq!(b.sent_bytes(), 4);
    }

    #[test]
    fn pipe_link_deadline_expiry_is_typed_never_a_hang() {
        let (mut a, _b) = PipeLink::pair(Duration::from_millis(40));
        let err = a.recv(0, PipeDir::Forward).expect_err("silent peer");
        assert!(matches!(err, CollectiveError::Timeout { .. }), "{err}");
        let (mut a, b) = PipeLink::pair(Duration::from_millis(40));
        drop(b);
        let err = a.recv(0, PipeDir::Forward).expect_err("dropped peer");
        assert!(matches!(err, CollectiveError::RankLost { .. }), "{err}");
    }

    #[test]
    fn ring_comm_latches_errors_and_logs_messages() {
        let mut rings = Ring::build(2, Duration::from_millis(40));
        let r1 = rings.pop().expect("rank 1");
        let r0 = rings.pop().expect("rank 0");
        // healthy pair first: both sides allreduce concurrently
        let h = std::thread::spawn(move || {
            let comm = RingComm::new(r1);
            let mut buf = vec![1.0f32, 2.0];
            TapeComm::allreduce(&comm, &mut buf);
            (buf, comm.take_failure(), comm.drain_log())
        });
        let comm0 = RingComm::new(r0);
        let mut buf0 = vec![3.0f32, 4.0];
        TapeComm::allreduce(&comm0, &mut buf0);
        let (buf1, err1, log1) = h.join().unwrap();
        assert_eq!(buf0, vec![4.0, 6.0]);
        assert_eq!(buf1, vec![4.0, 6.0]);
        assert!(err1.is_none() && comm0.take_failure().is_none());
        assert_eq!(log1, vec![(CollKind::AllReduce, 8)]);

        // dead peer: first allreduce latches, later ones no-op
        let mut rings = Ring::build(2, Duration::from_millis(40));
        drop(rings.pop());
        let comm = RingComm::new(rings.pop().expect("rank 0"));
        let mut buf = vec![1.0f32; 4];
        TapeComm::allreduce(&comm, &mut buf);
        TapeComm::allreduce(&comm, &mut buf); // latched no-op
        assert!(comm.take_failure().is_some());
        assert!(comm.take_failure().is_none(), "latch cleared");
        assert!(comm.drain_log().is_empty(), "failed calls are not logged");
    }
}
