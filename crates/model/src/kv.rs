//! The one KV storage: a fixed-size-block slab with a free-list
//! allocator, per-sequence block tables, and reference-counted
//! copy-on-write prefix sharing.
//!
//! * [`BlockPool`] — one slab of fixed-size KV blocks (each holding
//!   `block_size` token positions for **all** layers, keys and values),
//!   handed out through a free list and returned by reference count.
//!   Memory is claimed at block granularity as sequences actually grow.
//! * [`PagedKv`] — a sequence's block table over a pool, mapping logical
//!   token positions to physical blocks; every tape-free forward
//!   ([`GptModel::forward_batch`]) attends through one. A block's keys
//!   are key-major, `[kv_dim, block_size]`, and the one attention scan
//!   sums every score in the same order whatever the block size, so the
//!   logits are the tape's bit for bit at any block size (tested below).
//!   [`GptModel::new_cache`] is a sequence on a private pool of
//!   [`KEYS`]-row blocks that no segment the forward accepts can
//!   exhaust; the serving engine's paged backend puts every request on
//!   one shared pool instead.
//! * **COW prefix sharing** — [`PagedKv::fork`] shares every block with
//!   the parent by incrementing refcounts; a later append into a shared
//!   partial tail block copies it first ([`PagedKv::reserve_rows`]), so
//!   writes never alias. [`PrefixCache`] keeps recently prefilled
//!   prompt prefixes alive (block-aligned, token-verified — no hash
//!   collisions) so a wave of requests with a common system prompt
//!   shares one set of prefill blocks and skips recomputing them.
//!
//! Allocation failures are typed ([`KvExhausted`]): on a shared pool the
//! serving scheduler reserves a forward's rows first and reacts to a
//! failure by evicting prefix-cache entries and, if that is not enough,
//! preempting the lowest-priority request (freeing its blocks,
//! recomputing it later). A forward that finds its rows unreserved takes
//! them itself, and panics only when the pool cannot supply them.

use crate::gpt::GptModel;
use matgpt_tensor::kernels::attention::KEYS;
use matgpt_tensor::kernels::infer::{key_major_attention, KvPieces};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sizing knobs for a [`BlockPool`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KvBlockConfig {
    /// Token positions per block. Smaller blocks waste less tail
    /// capacity but cost more table/locking overhead; 16 is the usual
    /// sweet spot (vLLM's default).
    pub block_size: usize,
    /// Total blocks in the slab — the hard KV memory capacity the
    /// engine serves within. Exhaustion triggers prefix-cache eviction
    /// and then preemption, never allocation beyond the slab.
    pub num_blocks: usize,
}

impl Default for KvBlockConfig {
    fn default() -> Self {
        Self {
            block_size: 16,
            num_blocks: 1024,
        }
    }
}

/// Typed allocation failure: the free list is empty (or too short for
/// the request). Recoverable by freeing blocks; only a forward whose
/// rows nobody reserved turns it into a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KvExhausted {
    /// Blocks the failed reservation needed.
    pub needed: usize,
    /// Blocks free at the time of the failure.
    pub free: usize,
    /// Total blocks in the pool.
    pub capacity: usize,
}

impl std::fmt::Display for KvExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "KV block pool exhausted: needed {} blocks, {} free of {}",
            self.needed, self.free, self.capacity
        )
    }
}

impl std::error::Error for KvExhausted {}

/// Point-in-time pool accounting for metrics and admission control.
#[derive(Clone, Copy, Debug)]
pub struct PoolStats {
    /// Blocks currently referenced by at least one holder.
    pub allocated: usize,
    /// High-water mark of `allocated` over the pool's lifetime.
    pub peak_allocated: usize,
    /// Blocks on the free list.
    pub free: usize,
    /// Extra references beyond the first across all allocated blocks —
    /// the number of block copies prefix sharing is currently avoiding.
    pub shared_extra: usize,
    /// Fresh allocations since construction (monotone).
    pub allocs_total: u64,
    /// Sharing increfs since construction (monotone): every block a
    /// fork reused instead of allocating and refilling.
    pub shares_total: u64,
    /// Bytes of KV data one block holds.
    pub block_bytes: usize,
}

/// Free list + refcounts, guarded by one short-critical-section mutex.
struct Meta {
    free: Vec<u32>,
    refs: Vec<u32>,
    allocated: usize,
    peak_allocated: usize,
}

struct PoolShared {
    block_size: usize,
    layers: usize,
    kv_dim: usize,
    /// Floats per block: `2 * layers * block_size * kv_dim` (keys and
    /// values for every layer). Within a block, section
    /// `(layer, k|v)` starts at `((layer * 2 + kv) * block_size) * kv_dim`;
    /// a key section is key-major `[kv_dim, block_size]` (the layout the
    /// attention scan scores), a value section token-major
    /// `[block_size, kv_dim]`.
    stride: usize,
    /// The slab. Block data is lazily sized on first allocation and
    /// kept across free/realloc cycles. The per-block `RwLock` is a
    /// safety certificate more than a contention point: a block is
    /// written only by its exclusive owner (refcount 1) appending to
    /// the tail, while shared blocks are full and only ever read.
    blocks: Vec<RwLock<Vec<f32>>>,
    meta: Mutex<Meta>,
    allocs_total: AtomicU64,
    shares_total: AtomicU64,
}

/// A shared slab of fixed-size KV blocks with free-list allocation and
/// per-block reference counts. Cloning is cheap (an `Arc` bump); all
/// clones address the same slab.
#[derive(Clone)]
pub struct BlockPool {
    shared: Arc<PoolShared>,
}

impl BlockPool {
    /// A pool of `cfg.num_blocks` blocks shaped for a model with
    /// `layers` layers and `kv_dim = kv_heads * head_dim` K/V rows.
    pub fn new(cfg: KvBlockConfig, layers: usize, kv_dim: usize) -> Self {
        assert!(cfg.block_size > 0, "block_size must be positive");
        assert!(cfg.num_blocks > 0, "num_blocks must be positive");
        let shared = PoolShared {
            block_size: cfg.block_size,
            layers,
            kv_dim,
            stride: 2 * layers * cfg.block_size * kv_dim,
            blocks: (0..cfg.num_blocks)
                .map(|_| RwLock::new(Vec::new()))
                .collect(),
            meta: Mutex::new(Meta {
                free: (0..cfg.num_blocks as u32).rev().collect(),
                refs: vec![0; cfg.num_blocks],
                allocated: 0,
                peak_allocated: 0,
            }),
            allocs_total: AtomicU64::new(0),
            shares_total: AtomicU64::new(0),
        };
        Self {
            shared: Arc::new(shared),
        }
    }

    /// A pool shaped for `model` (layers and KV row width read from its
    /// config).
    pub fn for_model(cfg: KvBlockConfig, model: &GptModel) -> Self {
        let kv_dim = model.cfg.kv_head_count() * model.cfg.head_dim();
        Self::new(cfg, model.cfg.layers, kv_dim)
    }

    /// Token positions per block.
    pub fn block_size(&self) -> usize {
        self.shared.block_size
    }

    /// Total blocks in the slab.
    pub fn num_blocks(&self) -> usize {
        self.shared.blocks.len()
    }

    /// Bytes of KV data one block holds (all layers, keys and values).
    pub fn block_bytes(&self) -> usize {
        self.shared.stride * std::mem::size_of::<f32>()
    }

    /// Blocks currently on the free list.
    pub fn free_blocks(&self) -> usize {
        self.shared.meta.lock().free.len()
    }

    /// Point-in-time accounting snapshot.
    pub fn stats(&self) -> PoolStats {
        let meta = self.shared.meta.lock();
        let shared_extra = meta
            .refs
            .iter()
            .map(|&r| (r as usize).saturating_sub(1))
            .sum();
        PoolStats {
            allocated: meta.allocated,
            peak_allocated: meta.peak_allocated,
            free: meta.free.len(),
            shared_extra,
            allocs_total: self.shared.allocs_total.load(Ordering::Relaxed),
            shares_total: self.shared.shares_total.load(Ordering::Relaxed),
            block_bytes: self.block_bytes(),
        }
    }

    /// An empty paged sequence handle over this pool with the given
    /// attention window.
    pub fn new_seq(&self, max_seq: usize) -> PagedKv {
        PagedKv {
            pool: self.clone(),
            table: Vec::new(),
            rows: 0,
            dropped: 0,
            next_pos: 0,
            pending: 0,
            max_seq,
        }
    }

    /// Pop a free block (refcount 1). Typed error on exhaustion.
    fn alloc(&self) -> Result<u32, KvExhausted> {
        let id = {
            let mut meta = self.shared.meta.lock();
            let Some(id) = meta.free.pop() else {
                return Err(KvExhausted {
                    needed: 1,
                    free: 0,
                    capacity: self.num_blocks(),
                });
            };
            meta.refs[id as usize] = 1;
            meta.allocated += 1;
            meta.peak_allocated = meta.peak_allocated.max(meta.allocated);
            id
        };
        self.shared.allocs_total.fetch_add(1, Ordering::Relaxed);
        // lazily size the block's data on first use; freed blocks keep
        // their buffer so the slab stops allocating once warmed up
        let mut data = self.shared.blocks[id as usize].write();
        if data.len() != self.shared.stride {
            data.resize(self.shared.stride, 0.0);
        }
        Ok(id)
    }

    /// Add a reference to `block` (a fork sharing it).
    fn incref(&self, block: u32) {
        let mut meta = self.shared.meta.lock();
        debug_assert!(meta.refs[block as usize] > 0, "incref of a free block");
        meta.refs[block as usize] += 1;
    }

    /// Drop a reference to `block`; returns it to the free list when
    /// the count reaches zero.
    fn release(&self, block: u32) {
        let mut meta = self.shared.meta.lock();
        let r = &mut meta.refs[block as usize];
        debug_assert!(*r > 0, "release of a free block");
        *r -= 1;
        if *r == 0 {
            meta.free.push(block);
            meta.allocated -= 1;
        }
    }

    /// Current reference count of `block`.
    fn ref_of(&self, block: u32) -> u32 {
        self.shared.meta.lock().refs[block as usize]
    }
}

/// A sequence's KV state: a block table over a [`BlockPool`], the
/// storage [`GptModel::forward_batch`] attends through.
///
/// A forward of `n` new tokens runs `begin` (claim the next `n` absolute
/// positions, reserving their rows), then per layer `write` (store the
/// rotated K/V rows) and `attend` (causal attention of the new queries
/// over every row of that layer, the ones just written included), then
/// `commit` (advance the counters and apply the window).
///
/// Positions are absolute, and once the visible length exceeds
/// `max_seq` the oldest rows drop from the front at **row** granularity
/// (a `dropped` offset inside the front block); whole blocks return to
/// the pool as the offset passes them.
pub struct PagedKv {
    pool: BlockPool,
    /// Physical block ids, in logical order.
    table: Vec<u32>,
    /// Committed physical rows (including `dropped` front rows).
    rows: usize,
    /// Front rows outside the attention window, `< block_size`.
    dropped: usize,
    /// Absolute position the next appended token will occupy.
    next_pos: usize,
    /// Rows of the in-flight forward (between `begin` and `commit`).
    pending: usize,
    /// Attention window, in rows.
    max_seq: usize,
}

impl PagedKv {
    fn block_size(&self) -> usize {
        self.pool.shared.block_size
    }

    fn kv_dim(&self) -> usize {
        self.pool.shared.kv_dim
    }

    /// Offset of the `(layer, k|v)` section inside a block.
    fn section(&self, layer: usize, v: bool) -> usize {
        ((layer * 2 + v as usize) * self.block_size()) * self.kv_dim()
    }

    /// Rows the current table can hold.
    fn capacity_rows(&self) -> usize {
        self.table.len() * self.block_size()
    }

    /// Blocks this sequence currently references.
    pub fn blocks_held(&self) -> usize {
        self.table.len()
    }

    /// Ensure capacity for `n` more appended rows, allocating blocks
    /// from the pool as needed and **copy-on-write**-copying a shared
    /// partial tail block before it would be appended into. A forward of
    /// `n` tokens does this itself; a caller on a shared pool does it
    /// first, so exhaustion is this typed error (nothing allocated stays
    /// leaked) rather than the forward's panic.
    pub fn reserve_rows(&mut self, n: usize) -> Result<(), KvExhausted> {
        debug_assert_eq!(self.pending, 0, "reserve during an in-flight forward");
        if n == 0 {
            return Ok(());
        }
        // COW: appends will land in the partial tail block; if a fork
        // still shares it, copy it first so writes never alias.
        if let Some(tail_idx) = self.shared_tail() {
            let tail = self.table[tail_idx];
            let fresh = self.pool.alloc().map_err(|e| self.exhausted(n, e))?;
            {
                let src = self.pool.shared.blocks[tail as usize].read();
                let mut dst = self.pool.shared.blocks[fresh as usize].write();
                dst.copy_from_slice(&src);
            }
            self.pool.release(tail);
            self.table[tail_idx] = fresh;
        }
        for _ in 0..self.blocks_past_table(n) {
            let b = self.pool.alloc().map_err(|e| self.exhausted(n, e))?;
            self.table.push(b);
        }
        Ok(())
    }

    /// Blocks [`Self::reserve_rows`]`(n)` would take from the pool: a
    /// copy of a shared partial tail, and the blocks past the table.
    pub fn blocks_to_reserve(&self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        usize::from(self.shared_tail().is_some()) + self.blocks_past_table(n)
    }

    /// Table index of the partial tail block when a fork still shares
    /// it, so the next append must copy it first.
    fn shared_tail(&self) -> Option<usize> {
        let bs = self.block_size();
        let idx = self.rows / bs;
        (!self.rows.is_multiple_of(bs) && self.pool.ref_of(self.table[idx]) > 1).then_some(idx)
    }

    /// Blocks `n` more rows need beyond the current table.
    fn blocks_past_table(&self, n: usize) -> usize {
        (self.rows + n)
            .div_ceil(self.block_size())
            .saturating_sub(self.table.len())
    }

    fn exhausted(&self, n: usize, e: KvExhausted) -> KvExhausted {
        KvExhausted {
            needed: self.blocks_past_table(n),
            ..e
        }
    }

    /// Fork this sequence: the child shares **every** block (full ones
    /// and the partial tail) by reference count; the first append on
    /// either side into the shared partial tail copies it
    /// ([`Self::reserve_rows`]), so divergence never aliases writes.
    /// Spare tail capacity beyond the committed rows is not shared.
    pub fn fork(&self) -> PagedKv {
        assert_eq!(self.pending, 0, "fork during an in-flight forward");
        assert_eq!(self.dropped, 0, "fork of a window-truncated sequence");
        let bs = self.block_size();
        let used = self.rows.div_ceil(bs);
        let table: Vec<u32> = self.table[..used].to_vec();
        for &b in &table {
            self.pool.incref(b);
        }
        self.pool
            .shared
            .shares_total
            .fetch_add(used as u64, Ordering::Relaxed);
        PagedKv {
            pool: self.pool.clone(),
            table,
            rows: self.rows,
            dropped: 0,
            next_pos: self.next_pos,
            pending: 0,
            max_seq: self.max_seq,
        }
    }

    /// A sequence sharing `blocks` (which hold `rows` committed,
    /// block-aligned rows starting at position 0) — the prefix-cache
    /// fork path.
    fn fork_prefix(pool: &BlockPool, blocks: &[u32], rows: usize, max_seq: usize) -> PagedKv {
        debug_assert_eq!(rows % pool.block_size(), 0, "prefix must be block-aligned");
        debug_assert_eq!(blocks.len() * pool.block_size(), rows);
        for &b in blocks {
            pool.incref(b);
        }
        pool.shared
            .shares_total
            .fetch_add(blocks.len() as u64, Ordering::Relaxed);
        PagedKv {
            pool: pool.clone(),
            table: blocks.to_vec(),
            rows,
            dropped: 0,
            next_pos: rows,
            pending: 0,
            max_seq,
        }
    }

    /// Number of transformer layers the pool is shaped for.
    pub(crate) fn layers(&self) -> usize {
        self.pool.shared.layers
    }

    /// Positions currently visible to attention (committed, ≤ window).
    pub fn len(&self) -> usize {
        self.rows - self.dropped
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.next_pos == 0
    }

    /// Total tokens ever fed through this sequence (monotone, unaffected
    /// by window truncation).
    pub fn positions_seen(&self) -> usize {
        self.next_pos
    }

    /// Bytes of the keys and values visible to attention: visible rows ×
    /// the bytes one row takes across layers. Blocks' spare rows are not
    /// counted; a pool's own footprint is [`BlockPool::stats`].
    pub fn kv_bytes(&self) -> usize {
        self.len() * 2 * self.layers() * self.kv_dim() * std::mem::size_of::<f32>()
    }

    /// Claim the next `n` absolute positions for an in-flight forward,
    /// reserving their rows ([`Self::reserve_rows`]) unless the caller
    /// already did; returns the absolute position of the first new
    /// token. Panics when the pool cannot supply the rows.
    pub(crate) fn begin(&mut self, n: usize) -> usize {
        assert_eq!(self.pending, 0, "begin with a forward already in flight");
        if let Err(e) = self.reserve_rows(n) {
            panic!("forward of {n} rows: {e}");
        }
        self.pending = n;
        let start = self.next_pos;
        self.next_pos += n;
        start
    }

    /// Store the rotated K/V rows (`[n, kv_dim]` each) for `layer` of
    /// the in-flight forward.
    pub(crate) fn write(&mut self, layer: usize, k: &[f32], v: &[f32]) {
        let bs = self.block_size();
        let kv_dim = self.kv_dim();
        debug_assert_eq!(k.len(), self.pending * kv_dim, "k rows mismatch");
        debug_assert_eq!(v.len(), self.pending * kv_dim, "v rows mismatch");
        let k_off = self.section(layer, false);
        let v_off = self.section(layer, true);
        let mut r = 0;
        while r < self.pending {
            let p = self.rows + r;
            let (block, slot) = (self.table[p / bs], p % bs);
            // rows for this block: until the block or the batch ends
            let run = (bs - slot).min(self.pending - r);
            let mut data = self.pool.shared.blocks[block as usize].write();
            let keys = &mut data[k_off..k_off + bs * kv_dim];
            for (i, key) in k[r * kv_dim..(r + run) * kv_dim]
                .chunks_exact(kv_dim)
                .enumerate()
            {
                let column = keys[slot + i..].iter_mut().step_by(bs);
                for (x, &e) in column.zip(key) {
                    *x = e;
                }
            }
            data[v_off + slot * kv_dim..v_off + (slot + run) * kv_dim]
                .copy_from_slice(&v[r * kv_dim..(r + run) * kv_dim]);
            r += run;
        }
    }

    /// Causal attention of `q` (`[n_new, heads*d]`, rotated) over every
    /// row cached in `layer` — committed rows plus the in-flight rows
    /// already written — into `out` (`[n_new, heads*d]`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn attend(
        &self,
        layer: usize,
        q: &[f32],
        out: &mut [f32],
        n_new: usize,
        heads: usize,
        kv_heads: usize,
        d: usize,
    ) {
        let bs = self.block_size();
        let kv_dim = self.kv_dim();
        let t_total = (self.rows - self.dropped) + self.pending;
        let k_off = self.section(layer, false);
        let v_off = self.section(layer, true);
        let guards: Vec<_> = self
            .table
            .iter()
            .map(|&b| self.pool.shared.blocks[b as usize].read())
            .collect();
        let k_blocks: Vec<&[f32]> = guards
            .iter()
            .map(|g| &g[k_off..k_off + bs * kv_dim])
            .collect();
        let v_blocks: Vec<&[f32]> = guards
            .iter()
            .map(|g| &g[v_off..v_off + bs * kv_dim])
            .collect();
        let kv = KvPieces {
            k: &k_blocks,
            v: &v_blocks,
            w: bs,
            skip: self.dropped,
        };
        key_major_attention(q, kv, out, n_new, t_total, heads, kv_heads, d);
    }

    /// Finish the in-flight forward: commit the written rows and apply
    /// the window.
    pub(crate) fn commit(&mut self) {
        self.rows += self.pending;
        self.pending = 0;
        let visible = self.rows - self.dropped;
        if visible > self.max_seq {
            self.dropped += visible - self.max_seq;
        }
        let bs = self.block_size();
        while self.dropped >= bs {
            let front = self.table.remove(0);
            self.pool.release(front);
            self.dropped -= bs;
            self.rows -= bs;
        }
    }

    /// Drop the last `n` committed rows and rewind the position counter,
    /// as if the tokens that produced them were never forwarded.
    ///
    /// Speculative decoding commits `k + 1` verify rows optimistically
    /// and rolls the rejected tail back through this. The state after
    /// `rollback(n)` is bitwise indistinguishable from never having
    /// forwarded those `n` tokens, which is only possible while the
    /// sequence still holds every row it has ever seen: this panics if
    /// rows were already lost to window truncation (the speculative
    /// decode falls back to plain decode before the window fills, so it
    /// never rolls back across a truncation). No forward may be in
    /// flight.
    pub fn rollback(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        assert_eq!(self.pending, 0, "rollback with a forward in flight");
        assert!(
            self.dropped == 0 && self.rows == self.next_pos,
            "rollback across window truncation is unsupported"
        );
        assert!(
            n <= self.rows,
            "rollback of {n} rows but only {} committed",
            self.rows
        );
        self.rows -= n;
        self.next_pos -= n;
        // Return whole tail blocks past the new length to the pool.
        // Rolled-back rows were appended by this sequence after any
        // fork/registration (COW guarantees exclusive ownership at
        // write time), so dropping the reference frees them; a kept
        // partial tail block simply has its stale slots overwritten by
        // the next append.
        let keep = self.rows.div_ceil(self.block_size());
        while self.table.len() > keep {
            let b = self.table.pop().expect("table shorter than keep");
            self.pool.release(b);
        }
    }
}

impl Drop for PagedKv {
    fn drop(&mut self) {
        // every exit path — retire, cancel, failure, preemption —
        // returns this sequence's block references to the pool
        for &b in &self.table {
            self.pool.release(b);
        }
    }
}

impl GptModel {
    /// An empty KV cache shaped for this model: a [`PagedKv`] on a pool
    /// of its own, of [`KEYS`]-row blocks. Before a forward the sequence
    /// holds at most `max_seq` visible rows plus a dropped front part of
    /// under one block, and a segment adds at most `max_seq` rows, so
    /// `(2·max_seq + KEYS − 1) / KEYS` blocks, rounded up, hold any
    /// segment [`GptModel::forward_batch`] accepts: the pool never runs
    /// dry. A block's data is allocated when it is first taken.
    pub fn new_cache(&self) -> PagedKv {
        let max_seq = self.cfg.max_seq;
        let cfg = KvBlockConfig {
            block_size: KEYS,
            num_blocks: (2 * max_seq + KEYS - 1).div_ceil(KEYS),
        };
        BlockPool::for_model(cfg, self).new_seq(max_seq)
    }
}

/// Keeps recently admitted, block-aligned prompt prefixes alive (the
/// cache holds a reference on their blocks) so later requests with the
/// same system prompt fork the blocks instead of recomputing the
/// prefill. Token-verified — a hit compares the actual token ids, so
/// there are no collision corruptions. Bounded LRU; entries are also
/// evicted on demand when the pool runs dry.
pub struct PrefixCache {
    pool: BlockPool,
    entries: Vec<PrefixEntry>,
    cap: usize,
    tick: u64,
}

struct PrefixEntry {
    /// The block-aligned prompt prefix these blocks hold.
    tokens: Vec<u32>,
    /// Blocks covering `tokens` (one reference held by this cache).
    table: Vec<u32>,
    last_used: u64,
    /// Registered from reserved rows the next forward has yet to write
    /// ([`PrefixCache::settle`] decides its fate).
    unwritten: bool,
}

impl PrefixCache {
    /// An empty cache over `pool`, holding at most `cap` prefixes.
    pub fn new(pool: &BlockPool, cap: usize) -> Self {
        Self {
            pool: pool.clone(),
            entries: Vec::new(),
            cap,
            tick: 0,
        }
    }

    /// Registered prefixes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no prefix is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Fork a new sequence off the longest registered prefix of
    /// `prompt`, sharing its blocks. At least one prompt token is left
    /// for the caller to prefill (a forward needs a non-empty suffix to
    /// produce logits). `None` when no block-aligned prefix matches.
    pub fn fork_longest(&mut self, prompt: &[u32], max_seq: usize) -> Option<PagedKv> {
        let bs = self.pool.block_size();
        // longest usable share: block-aligned, strictly shorter than
        // the prompt
        let usable = (prompt.len().saturating_sub(1) / bs) * bs;
        if usable == 0 {
            return None;
        }
        let (mut best, mut best_len) = (None, 0);
        for (i, e) in self.entries.iter().enumerate() {
            let lim = usable.min(e.tokens.len());
            // tokens in a registered entry are block-aligned, so the
            // common prefix only needs rounding down to a block
            let common = e.tokens[..lim]
                .iter()
                .zip(&prompt[..lim])
                .take_while(|(a, b)| a == b)
                .count();
            let aligned = (common / bs) * bs;
            if aligned > best_len {
                best_len = aligned;
                best = Some(i);
            }
        }
        let i = best?;
        self.tick += 1;
        self.entries[i].last_used = self.tick;
        let blocks = &self.entries[i].table[..best_len / bs];
        Some(PagedKv::fork_prefix(&self.pool, blocks, best_len, max_seq))
    }

    /// Register the block-aligned prefix of `prompt` that `kv` holds
    /// from position 0 — committed, or reserved for the next forward to
    /// write (the caller checks `kv` is not window-truncated). No-op when
    /// the aligned prefix is empty or already registered. Evicts
    /// least-recently used entries beyond the capacity bound.
    ///
    /// A new entry counts as unwritten until [`Self::settle`]: a fork of
    /// it shares blocks that forward fills, which is sound because the
    /// forward writes a segment's K/V for a layer before that segment
    /// attends, and forks ride after their source.
    pub fn register(&mut self, prompt: &[u32], kv: &PagedKv) {
        let bs = self.pool.block_size();
        debug_assert_eq!(kv.dropped, 0, "register of a window-truncated sequence");
        let aligned = (prompt.len().min(kv.capacity_rows()) / bs) * bs;
        if aligned == 0 {
            return;
        }
        self.tick += 1;
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.tokens.len() == aligned && e.tokens == prompt[..aligned])
        {
            e.last_used = self.tick;
            return;
        }
        let table: Vec<u32> = kv.table[..aligned / bs].to_vec();
        for &b in &table {
            self.pool.incref(b);
        }
        self.entries.push(PrefixEntry {
            tokens: prompt[..aligned].to_vec(),
            table,
            last_used: self.tick,
            unwritten: true,
        });
        while self.entries.len() > self.cap {
            self.evict_one();
        }
    }

    /// Settle the entries registered since the last call, once the
    /// forward meant to write their blocks is over: they stay as
    /// ordinary entries when it `wrote` them, and are withdrawn when it
    /// failed, so no entry points at blocks nothing wrote.
    pub fn settle(&mut self, wrote: bool) {
        for e in &mut self.entries {
            e.unwritten &= !wrote;
        }
        while let Some(i) = self.entries.iter().position(|e| e.unwritten) {
            self.remove(i);
        }
    }

    /// Drop the least-recently-used prefix, releasing its block
    /// references. Returns how many block references were released
    /// (0 when the cache is empty) — the scheduler calls this under
    /// pool pressure before resorting to preemption.
    pub fn evict_one(&mut self) -> usize {
        let Some(i) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(i, _)| i)
        else {
            return 0;
        };
        self.remove(i)
    }

    /// Drop entry `i`, releasing its block references; returns how many.
    fn remove(&mut self, i: usize) -> usize {
        let e = self.entries.swap_remove(i);
        for &b in &e.table {
            self.pool.release(b);
        }
        e.table.len()
    }

    /// Drop every prefix, releasing all held block references.
    pub fn clear(&mut self) {
        while self.evict_one() > 0 {}
    }
}

impl Drop for PrefixCache {
    fn drop(&mut self) {
        self.clear();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{ArchKind, GptConfig};
    use matgpt_tensor::{init, ParamStore, Tape};

    fn pool(bs: usize, n: usize) -> BlockPool {
        // 2 layers, kv_dim 4
        BlockPool::new(
            KvBlockConfig {
                block_size: bs,
                num_blocks: n,
            },
            2,
            4,
        )
    }

    /// The cached key (or, with `v`, value) row at visible position
    /// `pos` of `layer`.
    pub(crate) fn cached_row(kv: &PagedKv, layer: usize, pos: usize, v: bool) -> Vec<f32> {
        let (bs, kv_dim) = (kv.block_size(), kv.kv_dim());
        let p = kv.dropped + pos;
        assert!(p < kv.rows + kv.pending, "row {pos} not cached");
        let data = kv.pool.shared.blocks[kv.table[p / bs] as usize].read();
        let section = &data[kv.section(layer, v)..][..bs * kv_dim];
        if v {
            section[p % bs * kv_dim..][..kv_dim].to_vec()
        } else {
            (0..kv_dim).map(|c| section[c * bs + p % bs]).collect()
        }
    }

    /// Drive a fake forward of `n` rows with recognisable values.
    fn push_rows(kv: &mut PagedKv, n: usize, tag: f32) {
        let start = kv.begin(n);
        for layer in 0..2 {
            let mut k = Vec::new();
            let mut v = Vec::new();
            for r in 0..n {
                let base = tag + (start + r) as f32 + layer as f32 * 1000.0;
                k.extend([base, base + 0.1, base + 0.2, base + 0.3]);
                v.extend([-base, -base - 0.1, -base - 0.2, -base - 0.3]);
            }
            kv.write(layer, &k, &v);
        }
        kv.commit();
    }

    /// `tokens` forwarded through `cache` in chunks of `schedule` (a
    /// prefill, decode steps, a verify), the logits of every position
    /// stacked.
    fn served(
        model: &GptModel,
        store: &ParamStore,
        tokens: &[u32],
        schedule: &[usize],
        cache: &mut PagedKv,
    ) -> Vec<f32> {
        let mut at = 0;
        let mut logits = Vec::new();
        for &n in schedule {
            logits.extend(model.forward_cached(store, &tokens[at..at + n], cache));
            at += n;
        }
        assert_eq!(at, tokens.len(), "schedule covers the tokens");
        logits
    }

    /// The theorem the one score order buys: while a sequence fits
    /// `max_seq`, every logit the serving forward produces is the
    /// tape's `GptModel::logits` row to the bit — on NeoX, LLaMA and
    /// LLaMA with GQA, for one token, a prefill, an incremental decode
    /// and a multi-row verify on a non-empty cache, on
    /// `GptModel::new_cache`'s private pool and on shared pools of 3-,
    /// 4- and 16-row blocks.
    #[test]
    fn served_logits_equal_the_tape_bitwise() {
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (arch, kv_heads) in [
            (ArchKind::NeoX, None),
            (ArchKind::Llama, None),
            (ArchKind::Llama, Some(2)),
        ] {
            for seed in 0..4 {
                let cfg = GptConfig {
                    vocab_size: 40,
                    hidden: 32,
                    layers: 2,
                    heads: 4,
                    kv_heads,
                    max_seq: 24,
                    ..GptConfig::tiny(arch, 40)
                };
                let mut store = ParamStore::new();
                let model = GptModel::new(cfg, &mut store, &mut init::rng(seed));
                let long: Vec<u32> = (0..20)
                    .map(|i| (i * 7 + seed as u32 * 5 + 3) % 40)
                    .collect();
                let inputs: [(&[u32], &[usize]); 4] = [
                    (&[0], &[1]),
                    (&[17], &[1]),
                    (&[39], &[1]),
                    (&long, &[10, 1, 1, 1, 1, 6]),
                ];
                for (tokens, schedule) in inputs {
                    let mut tape = Tape::new();
                    let l = model.logits(&mut tape, &store, tokens, 1, tokens.len());
                    let want = bits(tape.value(l).data());
                    let at = format!("{arch:?}/{kv_heads:?} seed {seed} {schedule:?}");
                    let got = served(&model, &store, tokens, schedule, &mut model.new_cache());
                    assert_eq!(bits(&got), want, "new_cache, {at}");
                    for bs in [3, 4, 16] {
                        let pool = BlockPool::for_model(
                            KvBlockConfig {
                                block_size: bs,
                                num_blocks: 16,
                            },
                            &model,
                        );
                        let mut kv = pool.new_seq(model.cfg.max_seq);
                        let got = served(&model, &store, tokens, schedule, &mut kv);
                        assert_eq!(bits(&got), want, "paged {bs}, {at}");
                    }
                }
            }
        }
    }

    /// `GptModel::new_cache`'s private pool holds whatever the forward
    /// accepts: decodes past the window, `max_seq`-row segments on a
    /// full window at every front offset, and a `k + 1` verify rolled
    /// back, without ever running dry — and the segments fill it, so it
    /// is no larger than they need.
    #[test]
    fn a_private_pool_never_runs_dry() {
        for max_seq in [16, 24, 37] {
            let cfg = GptConfig {
                vocab_size: 40,
                hidden: 16,
                layers: 2,
                heads: 2,
                max_seq,
                ..GptConfig::tiny(ArchKind::Llama, 40)
            };
            let mut store = ParamStore::new();
            let model = GptModel::new(cfg, &mut store, &mut init::rng(3));
            let toks = |n: usize| (0..n as u32).map(|i| i * 7 % 40).collect::<Vec<_>>();
            let k = 4;
            for ctx in [0, 1, max_seq / 2, max_seq - k - 1] {
                let mut kv = model.new_cache();
                if ctx > 0 {
                    model.forward_cached(&store, &toks(ctx), &mut kv);
                }
                // a verify of k + 1 rows, all but one rolled back
                model.forward_cached(&store, &toks(k + 1), &mut kv);
                kv.rollback(k);
                assert_eq!(kv.len(), ctx + 1);
                // past the window one row at a time, then whole windows
                // at every front offset a decode leaves
                for step in 0..2 * max_seq {
                    model.decode_step(&store, step as u32 % 40, &mut kv);
                    if step % 5 == 0 {
                        model.forward_cached(&store, &toks(max_seq), &mut kv);
                    }
                }
                assert_eq!(kv.len(), max_seq);
                let st = kv.pool.stats();
                assert_eq!(st.peak_allocated, kv.pool.num_blocks(), "max_seq {max_seq}");
            }
        }
    }

    #[test]
    fn alloc_free_roundtrip_and_typed_exhaustion() {
        let p = pool(4, 3);
        let mut kv = p.new_seq(64);
        assert_eq!(p.free_blocks(), 3);
        push_rows(&mut kv, 9, 0.0); // 3 blocks
        assert_eq!(p.free_blocks(), 0);
        let err = p.new_seq(64).reserve_rows(1).expect_err("pool is dry");
        assert_eq!(err.capacity, 3);
        assert_eq!(err.free, 0);
        assert!(err.needed >= 1);
        drop(kv);
        assert_eq!(p.free_blocks(), 3, "drop returns every block");
    }

    #[test]
    fn fork_shares_and_cow_unshares_the_partial_tail() {
        let p = pool(4, 8);
        let mut a = p.new_seq(64);
        push_rows(&mut a, 6, 0.0); // blocks: [full, half]
        assert_eq!(p.stats().allocated, 2);
        let mut b = a.fork();
        // fork shares both blocks — no new allocation
        assert_eq!(p.stats().allocated, 2);
        assert_eq!(p.stats().shared_extra, 2);
        // diverge: each appends different rows; the shared half block
        // must be COW-copied by whichever side appends first
        push_rows(&mut a, 1, 100.0);
        push_rows(&mut b, 1, 200.0);
        assert_eq!(
            p.stats().allocated,
            3,
            "one COW copy, full block still shared"
        );
        // row 6 differs between the forks; rows 0..6 stay identical
        assert_ne!(cached_row(&a, 0, 6, false), cached_row(&b, 0, 6, false));
        for pos in 0..6 {
            assert_eq!(
                cached_row(&a, 0, pos, false),
                cached_row(&b, 0, pos, false),
                "prefix row {pos} aliased"
            );
            assert_eq!(cached_row(&a, 1, pos, true), cached_row(&b, 1, pos, true));
        }
        drop(a);
        drop(b);
        assert_eq!(p.free_blocks(), 8);
    }

    #[test]
    fn reserve_takes_exactly_the_counted_blocks() {
        let p = pool(4, 16);
        let mut a = p.new_seq(64);
        push_rows(&mut a, 6, 0.0); // [full, half]
        let (mut b, mut c) = (a.fork(), a.fork()); // the half tail is shared
        let mut solo = p.new_seq(64);
        push_rows(&mut solo, 6, 0.0); // [full, half], unshared
                                      // (sequence, rows, blocks): a copy of the shared tail only; the
                                      // copy plus two new blocks; nothing once the tail is c's alone;
                                      // the new blocks of an unshared tail
        let cases = [
            (&mut a, 2, 1),
            (&mut b, 7, 3),
            (&mut c, 1, 0),
            (&mut solo, 7, 2),
        ];
        for (kv, n, want) in cases {
            let free = p.free_blocks();
            assert_eq!(kv.blocks_to_reserve(n), want);
            kv.reserve_rows(n).expect("reserve");
            assert_eq!(free - p.free_blocks(), want, "n = {n}");
        }
        assert_eq!(a.blocks_to_reserve(0), 0);
    }

    #[test]
    fn window_truncation_releases_whole_front_blocks() {
        let p = pool(4, 8);
        let mut kv = p.new_seq(8); // window of 2 blocks
        for i in 0..20 {
            push_rows(&mut kv, 1, i as f32 * 10.0);
        }
        assert_eq!(kv.len(), 8);
        assert_eq!(kv.positions_seen(), 20);
        // at most window + one partially-dropped front block
        assert!(kv.blocks_held() <= 3, "held {}", kv.blocks_held());
        drop(kv);
        assert_eq!(p.free_blocks(), 8);
    }

    #[test]
    fn rollback_releases_tail_blocks_and_rewrites_cleanly() {
        let p = pool(4, 8);
        let mut kv = p.new_seq(64);
        push_rows(&mut kv, 5, 0.0); // blocks: [full, 1-row tail]
        let snapshot: Vec<_> = (0..5).map(|pos| cached_row(&kv, 0, pos, false)).collect();
        // speculative burst: 5 more rows (crosses into a third block)
        push_rows(&mut kv, 5, 500.0);
        assert_eq!(p.stats().allocated, 3);
        kv.rollback(5);
        assert_eq!(kv.len(), 5);
        assert_eq!(kv.positions_seen(), 5);
        assert_eq!(p.stats().allocated, 2, "speculative tail block released");
        // committed rows untouched; re-append overwrites stale slots
        for (pos, row) in snapshot.iter().enumerate() {
            assert_eq!(&cached_row(&kv, 0, pos, false), row);
        }
        push_rows(&mut kv, 2, 900.0);
        assert_eq!(
            cached_row(&kv, 0, 5, false),
            vec![905.0, 905.1, 905.2, 905.3]
        );
        drop(kv);
        assert_eq!(p.free_blocks(), 8);
    }

    #[test]
    fn rollback_after_cow_never_touches_the_forked_prefix() {
        let p = pool(4, 8);
        let mut parent = p.new_seq(64);
        push_rows(&mut parent, 6, 0.0); // [full, half]
        let child = parent.fork();
        // parent speculates: COW copies the shared half block, then two
        // speculative rows land in the copy
        push_rows(&mut parent, 2, 300.0);
        parent.rollback(2);
        assert_eq!(parent.len(), 6);
        // the child's view of every shared row is untouched
        for pos in 0..6 {
            assert_eq!(
                cached_row(&parent, 0, pos, false),
                cached_row(&child, 0, pos, false)
            );
            assert_eq!(
                cached_row(&parent, 1, pos, true),
                cached_row(&child, 1, pos, true)
            );
        }
        drop(parent);
        drop(child);
        assert_eq!(p.free_blocks(), 8);
    }

    #[test]
    #[should_panic(expected = "window truncation")]
    fn rollback_past_truncation_panics() {
        let p = pool(4, 8);
        let mut kv = p.new_seq(8);
        for i in 0..12 {
            push_rows(&mut kv, 1, i as f32);
        }
        kv.rollback(1);
    }

    #[test]
    fn prefix_cache_forks_longest_match_and_verifies_tokens() {
        let p = pool(4, 16);
        let mut cache = PrefixCache::new(&p, 8);
        let prompt: Vec<u32> = (0..10).collect();
        let mut kv = p.new_seq(64);
        push_rows(&mut kv, 10, 0.0);
        cache.register(&prompt, &kv);
        assert_eq!(cache.len(), 1);

        // same prompt: shares the 8-row aligned prefix
        let forked = cache.fork_longest(&prompt, 64).expect("prefix hit");
        assert_eq!(forked.len(), 8);
        assert_eq!(forked.positions_seen(), 8);
        assert_eq!(
            cached_row(&forked, 1, 3, false),
            cached_row(&kv, 1, 3, false)
        );

        // diverging tokens after position 4: only one block shared
        let mut other = prompt.clone();
        other[5] = 99;
        let forked2 = cache.fork_longest(&other, 64).expect("partial hit");
        assert_eq!(forked2.len(), 4);

        // diverging inside the first block: no usable prefix
        let mut early = prompt.clone();
        early[0] = 77;
        assert!(cache.fork_longest(&early, 64).is_none());

        drop(kv);
        drop(forked);
        drop(forked2);
        assert!(p.free_blocks() < 16, "cache still pins the prefix");
        cache.clear();
        assert_eq!(p.free_blocks(), 16, "clear releases pinned blocks");
    }

    #[test]
    fn prefix_cache_lru_eviction_bounds_entries() {
        let p = pool(4, 64);
        let mut cache = PrefixCache::new(&p, 2);
        let mut kvs = Vec::new();
        for i in 0..3u32 {
            let prompt: Vec<u32> = (0..8).map(|t| t + i * 100).collect();
            let mut kv = p.new_seq(64);
            push_rows(&mut kv, 8, i as f32);
            cache.register(&prompt, &kv);
            kvs.push((prompt, kv));
        }
        assert_eq!(cache.len(), 2, "LRU bound enforced");
        // the oldest registration was evicted
        assert!(cache.fork_longest(&kvs[0].0, 64).is_none());
        assert!(cache.fork_longest(&kvs[2].0, 64).is_some());
        // evict_one under pressure frees blocks
        let freed = cache.evict_one();
        assert_eq!(freed, 2);
    }
}
