//! The deterministic reduction order shared by every executed
//! collective, plus the tape-side communication hook tensor parallelism
//! threads through the autograd graph.
//!
//! `matgpt_core::parallel` executes ring collectives over real channels;
//! the tape needs the *same* fold order to build bitwise-equivalent
//! sequential reference graphs ([`crate::tape::Tape::ring_sum`],
//! [`crate::tape::Tape::tp_branches`]). Since the tape cannot depend on
//! the executor crate, the pure math lives here at the bottom of the
//! stack: [`ring_chunks`] (the chunk partition a ring rotates through)
//! and [`ring_fold`] (the reduce-scatter's fixed fold order as a
//! sequential function). The executor re-exports both so existing
//! callers keep working.

use std::fmt;
use std::ops::Range;
use std::rc::Rc;

/// Split `len` elements into `n` contiguous ring chunks whose sizes
/// differ by at most one — the chunk partition a ring
/// reduce-scatter/all-gather rotates through. The simulator, which sits
/// above the tape in the crate graph, re-exports it as
/// `matgpt_frontier_sim::collectives::ring_chunks`.
pub fn ring_chunks(len: usize, n: usize) -> Vec<Range<usize>> {
    assert!(n > 0, "ring needs at least one rank");
    (0..n).map(|i| (i * len / n)..((i + 1) * len / n)).collect()
}

/// The ring reduce-scatter's fixed fold order as a pure sequential
/// function: chunk `c` is the left fold of the ranks' contributions in
/// ring order starting at rank `(c+1) mod N`. A threaded ring allreduce
/// over the same `bounds` is bit-identical to this by construction
/// (f32 addition is commutative, and the ring fixes the grouping).
pub fn ring_fold(parts: &[Vec<f32>], bounds: &[Range<usize>]) -> Vec<f32> {
    let n = parts.len();
    assert!(n > 0, "ring_fold needs at least one contribution");
    assert_eq!(bounds.len(), n, "one chunk per rank");
    let mut out = vec![0.0f32; parts[0].len()];
    for (c, b) in bounds.iter().enumerate() {
        out[b.clone()].copy_from_slice(&parts[(c + 1) % n][b.clone()]);
        for k in 2..=n {
            let r = (c + k) % n;
            for (dst, src) in out[b.clone()].iter_mut().zip(&parts[r][b.clone()]) {
                *dst += *src;
            }
        }
    }
    out
}

/// The communication surface a tensor-parallel tape op needs: an
/// in-place allreduce-sum across the op's group, with the ring-fold
/// reduction order.
///
/// Implementations are expected to **latch** failures instead of
/// returning them: tape construction and the backward sweep cannot
/// propagate `Result`s mid-graph, so on a collective error the hook
/// records the first failure, becomes a no-op, and the executor checks
/// [`TapeComm::take_error`] after the sweep — a dead peer turns into a
/// typed step failure, never a hang and never a panic inside autograd.
pub trait TapeComm {
    /// Allreduce-sum `buf` in place across the group (ring-fold order).
    /// After a latched error this must be a no-op.
    fn allreduce(&self, buf: &mut [f32]);
    /// Take the first latched failure, if any, clearing the latch. The
    /// error is reported as a human-readable string so this trait does
    /// not need to know the executor's error enum.
    fn take_error(&self) -> Option<String>;
    /// Group size (1 = no-op hook).
    fn group(&self) -> usize;
}

/// Cloneable shared handle to a [`TapeComm`], storable inside tape ops.
#[derive(Clone)]
pub struct CommHook(pub Rc<dyn TapeComm>);

impl CommHook {
    /// Wrap a comm implementation.
    pub fn new(comm: Rc<dyn TapeComm>) -> Self {
        Self(comm)
    }
}

impl fmt::Debug for CommHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CommHook(group={})", self.0.group())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_chunks_cover_and_balance() {
        for (len, n) in [(0usize, 1usize), (7, 3), (8, 4), (10, 4), (3, 8), (1024, 7)] {
            let chunks = ring_chunks(len, n);
            assert_eq!(chunks.len(), n);
            assert_eq!(chunks[0].start, 0);
            assert_eq!(chunks[n - 1].end, len);
            for w in chunks.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            let sizes: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "balanced within one: {sizes:?}");
        }
    }

    #[test]
    fn ring_fold_matches_naive_sum_on_integers() {
        let parts: Vec<Vec<f32>> = (0..4)
            .map(|r| (0..10).map(|i| ((r * 10 + i) % 7) as f32).collect())
            .collect();
        let bounds = ring_chunks(10, 4);
        let folded = ring_fold(&parts, &bounds);
        for i in 0..10 {
            let naive: f32 = parts.iter().map(|p| p[i]).sum();
            assert_eq!(folded[i].to_bits(), naive.to_bits());
        }
    }

    #[test]
    fn ring_fold_of_one_part_is_identity() {
        let part = vec![0.123f32, -4.5, 6.789];
        let folded = ring_fold(std::slice::from_ref(&part), &ring_chunks(3, 1));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&folded), bits(&part));
    }
}
