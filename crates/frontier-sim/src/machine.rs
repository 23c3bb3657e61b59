//! The Frontier machine model.
//!
//! Frontier (OLCF): 9408 nodes, each with four AMD MI250X GPUs. Every
//! MI250X carries two Graphics Compute Dies (GCDs); a GCD is one
//! "effective GPU" with 64 GB HBM. The two GCDs of an MI250X are linked at
//! 200 GB/s; all GPUs within a node at 100 GB/s Infinity Fabric; nodes via
//! Slingshot-11 at 100 GB/s — exactly the numbers of the paper's Sec. IV-A.

/// Static description of the machine.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// GCDs (effective GPUs) per node.
    pub gcds_per_node: usize,
    /// Peak bf16 throughput per GCD in TFLOPS (383/2 for an MI250X).
    pub gcd_peak_tflops: f64,
    /// HBM per GCD in GiB.
    pub gcd_memory_gib: f64,
    /// Bandwidth between the two GCDs of one MI250X (GB/s).
    pub intra_mi250x_gbps: f64,
    /// Bandwidth between GPUs within a node (GB/s).
    pub intra_node_gbps: f64,
    /// Slingshot bandwidth between nodes (GB/s).
    pub inter_node_gbps: f64,
    /// Per-message link latency (seconds).
    pub link_latency_s: f64,
    /// Total nodes in the machine.
    pub total_nodes: usize,
    /// Contention growth per doubling of participating nodes (dimensionless;
    /// models Slingshot congestion for large collectives).
    pub contention_per_doubling: f64,
    /// Host-to-device/device-to-device staging bandwidth (GB/s), for the IO
    /// kernel class of the rocprof breakdown.
    pub staging_gbps: f64,
    /// Message size at which a link reaches half its peak bandwidth
    /// (RCCL small-message inefficiency), bytes.
    pub half_peak_msg_bytes: f64,
}

impl MachineConfig {
    /// The Frontier configuration from the paper.
    pub fn frontier() -> Self {
        Self {
            gcds_per_node: 8,
            gcd_peak_tflops: 191.5,
            gcd_memory_gib: 64.0,
            intra_mi250x_gbps: 200.0,
            intra_node_gbps: 100.0,
            inter_node_gbps: 100.0,
            link_latency_s: 5e-6,
            total_nodes: 9408,
            contention_per_doubling: 0.30,
            staging_gbps: 50.0,
            half_peak_msg_bytes: 64e6,
        }
    }

    /// Total effective GPUs on the machine.
    pub fn total_gcds(&self) -> usize {
        self.total_nodes * self.gcds_per_node
    }

    /// Node index of a global rank.
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.gcds_per_node
    }

    /// MI250X index (within its node) of a global rank.
    pub fn mi250x_of(&self, rank: usize) -> usize {
        (rank % self.gcds_per_node) / 2
    }

    /// Point-to-point bandwidth between two ranks in GB/s.
    pub fn bandwidth_between(&self, a: usize, b: usize) -> f64 {
        if a == b {
            return f64::INFINITY;
        }
        if self.node_of(a) != self.node_of(b) {
            self.inter_node_gbps
        } else if self.mi250x_of(a) == self.mi250x_of(b) {
            self.intra_mi250x_gbps
        } else {
            self.intra_node_gbps
        }
    }

    /// The bottleneck bandwidth of a ring over `ranks` (the slowest link
    /// dominates a ring collective).
    pub fn ring_bandwidth(&self, ranks: &[usize]) -> f64 {
        if ranks.len() < 2 {
            return f64::INFINITY;
        }
        let mut min_bw = f64::INFINITY;
        for i in 0..ranks.len() {
            let a = ranks[i];
            let b = ranks[(i + 1) % ranks.len()];
            min_bw = min_bw.min(self.bandwidth_between(a, b));
        }
        min_bw
    }

    /// Bandwidth utilisation (0..1] of a message of `bytes` — small
    /// messages cannot saturate a link.
    pub fn msg_efficiency(&self, bytes: f64) -> f64 {
        bytes / (bytes + self.half_peak_msg_bytes)
    }

    /// Congestion multiplier (≥ 1) for a collective spanning `nodes` nodes.
    pub fn contention_factor(&self, nodes: usize) -> f64 {
        if nodes <= 1 {
            1.0
        } else {
            1.0 + self.contention_per_doubling * (nodes as f64).log2()
        }
    }

    /// The first `n` global ranks (the usual contiguous allocation).
    pub fn ranks(&self, n: usize) -> Vec<usize> {
        assert!(
            n <= self.total_gcds(),
            "machine has {} GCDs",
            self.total_gcds()
        );
        (0..n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_headline_numbers() {
        let m = MachineConfig::frontier();
        assert_eq!(m.total_gcds(), 75_264);
        assert_eq!(m.gcds_per_node, 8);
        assert!((m.gcd_peak_tflops * 2.0 - 383.0).abs() < 0.1);
    }

    #[test]
    fn bandwidth_hierarchy() {
        let m = MachineConfig::frontier();
        // ranks 0,1 share an MI250X; 0,2 share a node; 0,8 are cross-node
        assert_eq!(m.bandwidth_between(0, 1), 200.0);
        assert_eq!(m.bandwidth_between(0, 2), 100.0);
        assert_eq!(m.bandwidth_between(0, 7), 100.0);
        assert_eq!(m.bandwidth_between(0, 8), 100.0);
        assert!(m.bandwidth_between(0, 1) > m.bandwidth_between(0, 8));
    }

    #[test]
    fn topology_mapping() {
        let m = MachineConfig::frontier();
        assert_eq!(m.node_of(0), 0);
        assert_eq!(m.node_of(8), 1);
        assert_eq!(m.mi250x_of(0), 0);
        assert_eq!(m.mi250x_of(1), 0);
        assert_eq!(m.mi250x_of(2), 1);
        assert_eq!(m.mi250x_of(9), 0);
    }

    #[test]
    fn ring_bandwidth_is_bottleneck() {
        let m = MachineConfig::frontier();
        // TP pair inside one MI250X gets the fast link
        assert_eq!(m.ring_bandwidth(&[0, 1]), 200.0);
        // a ring spanning two nodes is limited by Slingshot
        assert_eq!(m.ring_bandwidth(&(0..16).collect::<Vec<_>>()), 100.0);
        // single rank: no communication
        assert_eq!(m.ring_bandwidth(&[3]), f64::INFINITY);
    }

    #[test]
    fn contention_grows_with_node_count() {
        let m = MachineConfig::frontier();
        assert_eq!(m.contention_factor(1), 1.0);
        assert!(m.contention_factor(32) > m.contention_factor(4));
        assert!(m.contention_factor(32) < 3.0, "contention should stay sane");
    }
}
