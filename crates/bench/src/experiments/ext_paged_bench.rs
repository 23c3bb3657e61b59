//! Extension: paged KV cache — a fleet of concurrent requests sharing
//! one system prompt, served twice over the same weights: once on the
//! contiguous per-request KV backend, once on the block-paged pool with
//! copy-on-write prefix sharing. The comparison isolates what paging
//! buys (peak KV memory, prefill reuse) at equal output (greedy decode
//! must produce identical token streams on both backends). What it
//! costs in time is `serve_tok_s` on `paged_prefix` in `perf/`.

use super::Ctx;
use crate::{compare, print_table, verdict};
use matgpt_model::{ArchKind, GptConfig, GptModel, SampleOptions};
use matgpt_serve::{Engine, EngineConfig, KvBackend, KvBlockConfig, MetricsSnapshot};
use matgpt_tensor::{init, ParamStore};

/// What [`run`] prints, for `tests/executed_claims.rs`.
pub struct PagedNumbers {
    /// Both backends produced the same token stream for every request.
    pub streams_equal: bool,
    /// Peak KV bytes on the contiguous backend.
    pub contig_kv_peak_bytes: u64,
    /// Peak KV bytes on the paged backend.
    pub paged_kv_peak_bytes: u64,
    /// Blocks the paged run allocated.
    pub block_allocs: u64,
    /// Blocks the paged run shared copy-on-write instead.
    pub block_shares: u64,
}

impl PagedNumbers {
    /// Contiguous peak KV over paged peak KV.
    pub fn kv_peak_reduction(&self) -> f64 {
        self.contig_kv_peak_bytes as f64 / self.paged_kv_peak_bytes as f64
    }

    /// Share of the paged run's block acquisitions that were shares.
    pub fn prefix_reuse(&self) -> f64 {
        self.block_shares as f64 / (self.block_allocs + self.block_shares) as f64
    }
}

/// One serving run: `n_req` concurrent requests, every prompt opening
/// with the same `prefix_len`-token system prompt and diverging into a
/// unique `suffix_len`-token tail. Returns each request's final token
/// stream (submission order) and the engine metrics.
fn run_backend(
    backend: KvBackend,
    n_req: usize,
    prefix_len: usize,
    suffix_len: usize,
    max_new: usize,
) -> (Vec<Vec<u32>>, MetricsSnapshot) {
    // identical seed both runs → identical weights, so the token
    // streams are comparable request-for-request
    let cfg = GptConfig {
        max_seq: 512,
        ..GptConfig::tiny(ArchKind::Llama, 256)
    };
    let mut store = ParamStore::new();
    let mut rng = init::rng(0);
    let model = GptModel::new(cfg, &mut store, &mut rng);
    let engine = Engine::new(
        model,
        store,
        EngineConfig {
            max_batch: n_req,
            token_budget: 1 << 20, // not the constraint under test
            max_queue: 2 * n_req,
            kv_backend: backend,
            ..EngineConfig::default()
        },
    );
    let opts = SampleOptions {
        temperature: 0.0,
        top_k: 0,
        max_new_tokens: max_new,
        stop_token: None,
    };
    let system: Vec<u32> = (0..prefix_len as u32).map(|t| (t * 13 + 7) % 251).collect();
    let handles: Vec<_> = (0..n_req)
        .map(|i| {
            let mut p = system.clone();
            p.extend((0..suffix_len as u32).map(|t| (t * 31 + i as u32) % 251));
            engine.submit(&p, opts).expect("admitted")
        })
        .collect();
    let outs: Vec<Vec<u32>> = handles
        .into_iter()
        .map(|h| {
            let r = h.wait().expect("response");
            assert_eq!(r.generated, max_new, "finish: {:?}", r.finish);
            r.tokens
        })
        .collect();
    engine.shutdown();
    (outs, engine.metrics())
}

/// Serve the shared-prefix fleet on both KV backends.
pub fn run(ctx: &Ctx) -> Result<PagedNumbers, String> {
    let smoke = ctx.smoke;
    let (n_req, prefix_len) = if smoke { (16, 64) } else { (128, 256) };
    let (suffix_len, max_new) = (8, 16);
    let block = KvBlockConfig {
        block_size: 16,
        num_blocks: if smoke { 256 } else { 1024 },
    };

    let (contig_out, contig_m) = run_backend(
        KvBackend::Contiguous,
        n_req,
        prefix_len,
        suffix_len,
        max_new,
    );
    let (paged_out, paged_m) = run_backend(
        KvBackend::Paged(block),
        n_req,
        prefix_len,
        suffix_len,
        max_new,
    );
    let n = PagedNumbers {
        streams_equal: contig_out == paged_out,
        contig_kv_peak_bytes: contig_m.kv_bytes_peak,
        paged_kv_peak_bytes: paged_m.kv_bytes_peak,
        block_allocs: paged_m.kv_block_allocs,
        block_shares: paged_m.kv_block_shares,
    };

    print_table(
        &format!(
            "{n_req} concurrent requests, shared {prefix_len}-token system prompt, \
             {suffix_len}-token unique tails, {max_new} new tokens each"
        ),
        &["metric", "contiguous", "paged"],
        &[
            vec![
                "peak KV bytes".to_string(),
                n.contig_kv_peak_bytes.to_string(),
                n.paged_kv_peak_bytes.to_string(),
            ],
            vec![
                "blocks allocated".to_string(),
                "-".to_string(),
                n.block_allocs.to_string(),
            ],
            vec![
                "blocks shared (COW)".to_string(),
                "-".to_string(),
                n.block_shares.to_string(),
            ],
            vec![
                "blocks evicted".to_string(),
                "-".to_string(),
                paged_m.kv_blocks_evicted.to_string(),
            ],
        ],
    );

    println!("\n-- reference vs measured --");
    compare(
        "greedy token streams, paged vs contiguous",
        "identical, request for request",
        if n.streams_equal {
            "identical"
        } else {
            "differ"
        },
        verdict(n.streams_equal),
    );
    compare(
        "paged KV halves peak memory under shared prompts",
        ">= 2x less peak KV than contiguous",
        &format!("{:.2}x", n.kv_peak_reduction()),
        verdict(n.kv_peak_reduction() >= 2.0),
    );
    compare(
        "prefix sharing carries the fleet's prefills",
        "most prefix blocks reused, not recomputed",
        &format!("{:.1}% reuse", n.prefix_reuse() * 100.0),
        verdict(n.prefix_reuse() >= 0.5),
    );
    Ok(n)
}
