//! Ring-collective cost models (the RCCL substitute).
//!
//! Standard α-β models: an `n`-rank ring all-reduce moves `2(n-1)/n · S`
//! bytes per rank in `2(n-1)` latency-bound steps; all-gather and
//! reduce-scatter each move `(n-1)/n · S`. Bandwidth is the bottleneck link
//! of the ring, degraded by the machine's contention factor when the
//! collective spans many nodes.

use crate::machine::MachineConfig;

/// The collective operations the training strategies issue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Collective {
    /// Reduce + broadcast (gradient sync, TP activation sync).
    AllReduce,
    /// Gather shards to all ranks (ZeRO parameter refresh).
    AllGather,
    /// Reduce with scattered results (ZeRO gradient shard).
    ReduceScatter,
    /// Point-to-point send/recv (pipeline stage boundary).
    P2p,
}

impl Collective {
    /// Short RCCL-style name for logs.
    pub fn name(&self) -> &'static str {
        match self {
            Collective::AllReduce => "AllReduce",
            Collective::AllGather => "AllGather",
            Collective::ReduceScatter => "ReduceScatter",
            Collective::P2p => "SendRecv",
        }
    }
}

/// Time in seconds for one collective of `bytes` over `ranks`.
pub fn collective_time(
    machine: &MachineConfig,
    coll: Collective,
    bytes: f64,
    ranks: &[usize],
) -> f64 {
    let n = ranks.len();
    if n < 2 {
        return 0.0;
    }
    let nodes: std::collections::BTreeSet<usize> =
        ranks.iter().map(|&r| machine.node_of(r)).collect();
    let bw = machine.ring_bandwidth(ranks) * 1e9 * machine.msg_efficiency(bytes)
        / machine.contention_factor(nodes.len());
    let nf = n as f64;
    let log_n = (n as f64).log2().ceil() as usize;
    let (volume, steps) = match coll {
        Collective::AllReduce => (2.0 * (nf - 1.0) / nf * bytes, 2 * log_n),
        Collective::AllGather | Collective::ReduceScatter => ((nf - 1.0) / nf * bytes, log_n),
        Collective::P2p => (bytes, 1),
    };
    volume / bw + steps as f64 * machine.link_latency_s
}

/// Per-rank bytes moved on the wire by one collective (for the Fig. 11
/// aggregated message-size accounting).
pub fn wire_bytes(coll: Collective, bytes: f64, n: usize) -> f64 {
    if n < 2 {
        return 0.0;
    }
    let nf = n as f64;
    match coll {
        Collective::AllReduce => 2.0 * (nf - 1.0) / nf * bytes,
        Collective::AllGather | Collective::ReduceScatter => (nf - 1.0) / nf * bytes,
        Collective::P2p => bytes,
    }
}

/// The chunk partition a ring reduce-scatter/all-gather rotates
/// through. `core::parallel` executes its real in-process ring over
/// exactly these bounds, which is what makes its measured per-rank
/// traffic land on the [`wire_bytes`] `2(n−1)/n · S` closed form (up to
/// remainder chunks).
pub use matgpt_tensor::ring_chunks;

#[cfg(test)]
mod tests {
    use super::*;

    fn frontier() -> MachineConfig {
        MachineConfig::frontier()
    }

    #[test]
    fn ring_chunk_traffic_matches_wire_bytes_formula() {
        // A rank sends n-1 chunks per reduce-scatter; across the divisible
        // case that is exactly (n-1)/n · len elements, i.e. the all-reduce
        // (RS + AG) volume is the wire_bytes closed form.
        let (len, n) = (1 << 20, 8);
        let chunks = ring_chunks(len, n);
        let per_rank_rs: usize = chunks.iter().skip(1).map(|c| c.len()).sum();
        let ar_elems = 2 * per_rank_rs;
        let formula = wire_bytes(Collective::AllReduce, (len * 4) as f64, n);
        assert_eq!(ar_elems as f64 * 4.0, formula);
    }

    #[test]
    fn allreduce_matches_closed_form_small() {
        let m = frontier();
        // 2 ranks on one MI250X: volume = S, bw 200 GB/s (large message, so
        // near-full utilisation), 2 latency steps
        let t = collective_time(&m, Collective::AllReduce, 200e9, &[0, 1]);
        let expect = 1.0 / m.msg_efficiency(200e9) + 2.0 * m.link_latency_s;
        assert!((t - expect).abs() / expect < 1e-6, "{t} vs {expect}");
    }

    #[test]
    fn allreduce_is_twice_allgather_volume() {
        let m = frontier();
        let ranks: Vec<usize> = (0..8).collect();
        let ar = collective_time(&m, Collective::AllReduce, 1e9, &ranks);
        let ag = collective_time(&m, Collective::AllGather, 1e9, &ranks);
        assert!(ar > 1.9 * ag && ar < 2.2 * ag, "{ar} vs {ag}");
    }

    #[test]
    fn cross_node_collectives_pay_contention() {
        let m = frontier();
        let one_node: Vec<usize> = (0..8).collect();
        let four_nodes: Vec<usize> = (0..32).collect();
        let t1 = collective_time(&m, Collective::AllReduce, 1e9, &one_node);
        let t4 = collective_time(&m, Collective::AllReduce, 1e9, &four_nodes);
        // same bottleneck bandwidth, but more contention and more steps
        assert!(t4 > t1);
    }

    #[test]
    fn tp_pair_is_faster_than_cross_node_pair() {
        let m = frontier();
        let fast = collective_time(&m, Collective::AllReduce, 1e9, &[0, 1]);
        let slow = collective_time(&m, Collective::AllReduce, 1e9, &[0, 8]);
        assert!(
            slow / fast > 1.8,
            "intra-MI250X {fast} vs cross-node {slow}"
        );
    }

    #[test]
    fn degenerate_groups_cost_nothing() {
        let m = frontier();
        assert_eq!(collective_time(&m, Collective::AllReduce, 1e9, &[0]), 0.0);
        assert_eq!(wire_bytes(Collective::AllGather, 1e9, 1), 0.0);
    }

    #[test]
    fn volume_monotone_in_ranks() {
        // per-rank wire volume approaches the asymptote S (or 2S) from below
        let v8 = wire_bytes(Collective::AllReduce, 1e9, 8);
        let v256 = wire_bytes(Collective::AllReduce, 1e9, 256);
        assert!(v8 < v256);
        assert!(v256 < 2e9);
    }
}
