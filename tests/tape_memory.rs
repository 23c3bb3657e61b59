//! What one training step of the benchmark's model `T` holds on the
//! heap, counted by a global allocator private to this test binary.
//!
//! Three properties, for a LLaMA and a NeoX `T` step:
//!
//! * the forward copies no weight: `Tape::param` shares the store's
//!   values, so no allocation during forward has a weight matrix's
//!   size;
//! * the reverse sweep recycles: once a node's backward has run, its
//!   value and gradient feed the gradients and scratch still to come
//!   (`matmul_bt_acc`'s packed bᵀ and temp among them), so backward adds
//!   at most 1.59 MiB to the heap forward left live. At the benchmark's
//!   batch (4 × 32) it adds 1.17 MiB for LLaMA (6.36 MiB live after
//!   forward, 7.53 MiB peak) and 1.02 MiB for NeoX (7.95, 8.97). The
//!   bound is what 1.25 × the forward's live heap allowed LLaMA, the
//!   smaller of the two, and it stays put when the forward gets leaner,
//!   where a ratio would tighten. While `matmul_bt_acc` allocated its
//!   bᵀ and temp on every call it added 1.45 MiB (6.36, 7.81) and
//!   1.46 MiB (7.95, 9.41); while the tape copied q/k/v into heads and
//!   back and kept the loss's probabilities through the sweep, 1.70 MiB
//!   (7.61, 9.31) and 1.71 MiB (9.20, 10.91); when it copied every
//!   weight and kept every node and gradient, 10.84 MiB (11.13, 21.97)
//!   and 12.40 MiB (12.73, 25.13);
//! * a warm step allocates nothing: a `Trainer` keeps its tape's
//!   buffers from one step to the next, so after one warm-up step a
//!   whole `Trainer::step_once` (data, forward, backward,
//!   `accumulate_param_grads`, clip and AdamW) makes no allocation of
//!   4 KiB or more, and what tapes carry between steps is never more
//!   than the first step's peak. Each step built a fresh tape before:
//!   a warm LLaMA `T` step then made 2 510 allocations, 13.5 MiB.
//!
//! There is one `#[test]`, so no other test thread allocates while it
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};

use matgpt::core::{train_tokenizer, OptChoice, PretrainConfig, SizeRole, Trainer};
use matgpt::corpus::{build_corpus, CorpusConfig};
use matgpt::tokenizer::TokenizerKind;
use matgpt_model::{ArchKind, GptConfig, GptModel};
use matgpt_tensor::{init, ParamStore, Tape, TapeBuffers};

/// Live heap bytes and their high-water mark; while `WATCH` is set,
/// allocations whose size is one of `SIZES[..N_SIZES]` are counted in
/// `HITS`, and while `WATCH_BIG` is set, those of `BIG` bytes or more
/// in `BIG_HITS`, the first few sizes kept in `BIG_SIZES`.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static WATCH: AtomicBool = AtomicBool::new(false);
static HITS: AtomicUsize = AtomicUsize::new(0);
static N_SIZES: AtomicUsize = AtomicUsize::new(0);
static SIZES: [AtomicUsize; 64] = [const { AtomicUsize::new(0) }; 64];
static WATCH_BIG: AtomicBool = AtomicBool::new(false);
static BIG_HITS: AtomicUsize = AtomicUsize::new(0);
static BIG_SIZES: [AtomicUsize; 16] = [const { AtomicUsize::new(0) }; 16];

/// The size from which a warm step's allocation counts: a page.
const BIG: usize = 4096;

// SAFETY: both methods hand the caller's layout and pointer to `System`
// unchanged and return what it returns; the bookkeeping around them only
// touches atomics and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let size = layout.size();
            let live = LIVE.fetch_add(size, Relaxed) + size;
            PEAK.fetch_max(live, Relaxed);
            if WATCH.load(Relaxed)
                && SIZES[..N_SIZES.load(Relaxed)]
                    .iter()
                    .any(|s| s.load(Relaxed) == size)
            {
                HITS.fetch_add(1, Relaxed);
            }
            if WATCH_BIG.load(Relaxed) && size >= BIG {
                let i = BIG_HITS.fetch_add(1, Relaxed);
                if let Some(slot) = BIG_SIZES.get(i) {
                    slot.store(size, Relaxed);
                }
            }
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const MIB: f64 = (1 << 20) as f64;

/// One `T` tape step, on a fresh tape or on `buffers`: its
/// `(forward-live, backward-peak)` bytes above the live heap before the
/// tape existed, the count of parameter-sized allocations during
/// forward, and the buffers it leaves.
fn step_footprint(
    arch: ArchKind,
    batch: usize,
    seq: usize,
    buffers: TapeBuffers,
) -> (usize, usize, usize, TapeBuffers) {
    // model `T` as the benchmark builds it: `small` at vocab 512, with
    // room for 4 × its training sequence
    let cfg = GptConfig {
        max_seq: 128,
        ..GptConfig::small(arch, 512)
    };
    let mut store = ParamStore::new();
    let model = GptModel::new(cfg, &mut store, &mut init::rng(7));
    let n = batch * seq;
    let inputs: Vec<u32> = (0..n as u32).map(|i| (i * 37 + 11) % 512).collect();
    let targets: Vec<u32> = (0..n as u32).map(|i| (i * 53 + 5) % 512).collect();

    // the weight matrices' sizes: a 128-float gain or bias shares its
    // 512 bytes with bookkeeping (the 32-entry staged-parameter list,
    // rayon's list of 32 head chunks)
    let mut sizes: Vec<usize> = store
        .ids()
        .map(|id| store.value(id))
        .filter(|v| v.rank() == 2)
        .map(|v| 4 * v.numel())
        .collect();
    sizes.sort_unstable();
    sizes.dedup();
    for (slot, &s) in SIZES.iter().zip(&sizes) {
        slot.store(s, Relaxed);
    }
    N_SIZES.store(sizes.len().min(SIZES.len()), Relaxed);

    let base = LIVE.load(Relaxed);
    let mut tape = Tape::with_buffers(buffers);
    HITS.store(0, Relaxed);
    WATCH.store(true, Relaxed);
    let loss = model.loss(&mut tape, &store, &inputs, &targets, batch, seq);
    WATCH.store(false, Relaxed);
    let forward_live = LIVE.load(Relaxed) - base;
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    tape.backward(loss);
    let backward_peak = PEAK.load(Relaxed) - base;
    tape.accumulate_param_grads(&mut store);
    let buffers = tape.into_buffers();
    (forward_live, backward_peak, HITS.load(Relaxed), buffers)
}

/// The benchmark's `Trainer` for `arch`: model `T`, batch 4 × 32.
fn trainer(arch: ArchKind) -> Trainer {
    let documents = build_corpus(&CorpusConfig {
        n_materials: 50,
        total_docs: 150,
        offtopic_fraction: 0.2,
        seed: 5,
    })
    .documents;
    let cfg = PretrainConfig {
        batch_seqs: 4,
        seq: 32,
        ..PretrainConfig::scaled(
            arch,
            TokenizerKind::Hf,
            512,
            OptChoice::Adam,
            SizeRole::Large,
        )
    };
    let tokenizer = train_tokenizer(cfg.tokenizer, cfg.vocab, &documents);
    Trainer::with_tokenizer(&documents, &cfg, tokenizer)
}

#[test]
fn a_t_step_copies_no_weight_and_backward_peaks_near_forward() {
    for arch in [ArchKind::Llama, ArchKind::NeoX] {
        // The size check runs on 5 × 20 rows: with the benchmark's
        // 4 × 32 = 128 rows = hidden, every `[rows, n]` activation has
        // the size of the `[hidden, n]` weight beside it, while no
        // buffer of a 100-row forward has a weight matrix's size.
        let (_, _, hits, _) = step_footprint(arch, 5, 20, TapeBuffers::default());
        assert_eq!(
            hits, 0,
            "{arch}: the forward allocated {hits} parameter-sized buffers"
        );

        // The benchmark's batch for what backward adds.
        let base = LIVE.load(Relaxed);
        let (fwd, peak, _, mut buffers) = step_footprint(arch, 4, 32, TapeBuffers::default());
        let added = (peak - fwd) as f64 / MIB;
        eprintln!(
            "{arch} T step: forward leaves {:.2} MiB live, backward peaks at {:.2} MiB (+{added:.2} MiB)",
            fwd as f64 / MIB,
            peak as f64 / MIB,
        );
        assert!(
            added <= 1.59,
            "{arch}: backward added {added:.2} MiB to the forward's live heap"
        );
        // Steps that carry the buffers keep no more than the first
        // step's peak between them, however many run.
        for step in 2..=3 {
            buffers = step_footprint(arch, 4, 32, buffers).3;
            let carried = LIVE.load(Relaxed) - base;
            assert!(
                carried <= peak,
                "{arch}: step {step} carries {carried} bytes, past the first step's peak {peak}"
            );
        }
        drop(buffers);

        // A warm `Trainer` step: one warm-up step (Adam's moments and the
        // first tape's buffers are allocated there), then a counted one.
        let mut trainer = trainer(arch);
        trainer.step_once();
        BIG_HITS.store(0, Relaxed);
        WATCH_BIG.store(true, Relaxed);
        trainer.step_once();
        WATCH_BIG.store(false, Relaxed);
        let big = BIG_HITS.load(Relaxed);
        let sizes: Vec<usize> = BIG_SIZES[..big.min(BIG_SIZES.len())]
            .iter()
            .map(|s| s.load(Relaxed))
            .collect();
        assert_eq!(
            big, 0,
            "{arch}: a warm Trainer step made {big} allocations of {BIG} bytes or more, sizes {sizes:?}…"
        );
    }
}
