//! The four workloads: what each one runs, why, and the generator that
//! turns `--seed` into its inputs.
//!
//! The generator is a pure function of `(workload, seed, wave index)`;
//! the product sees only the generated tokens and documents, and the
//! seed also initialises every model. Plain decode, prefill and
//! training do the same arithmetic whatever the token values.
//! Speculative decode does not — how many verify steps a request takes
//! depends on which draft tokens the f32 model accepts — so `dram_spec`
//! draws a fresh prompt for every wave and lets the median over waves
//! find the commonest step count (see [`Workload::speculative`]).

use matgpt_corpus::CorpusConfig;
use matgpt_model::{ArchKind, GptConfig};

/// Tokenizer vocabulary budget, and so model `T`'s vocabulary.
pub const TRAIN_VOCAB: usize = 512;
/// Sequences per training batch.
pub const TRAIN_BATCH: usize = 4;
/// Tokens per training sequence: `TRAIN_BATCH * TRAIN_SEQ` = 128 rows,
/// a ~100 ms single-worker step, so 60 units fit a quarter of a run.
pub const TRAIN_SEQ: usize = 32;
/// Optimizer steps inside one `train_topology` / `DataParallel` call.
pub const CALL_STEPS: usize = 2;
/// Step budget of the persistent `Trainer`: far more than a run takes,
/// so it never finishes, its 1 % warm-up spans the run and its
/// every-tenth evaluation happens once, in the untimed first step.
pub const TRAINER_STEPS: usize = 10_000;

/// Which serving model a workload decodes with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeModel {
    /// ~0.46 M parameters, 1.8 MB of f32: stays in a private L2.
    S,
    /// ~92 M parameters, 352 MiB of f32: every decode step streams it
    /// from DRAM. Nothing in between is allowed — an 8–128 MiB weight
    /// set lives in the host-shared L3 and its stream rate moved 5–12 %
    /// between back-to-back runs.
    D,
}

impl ServeModel {
    pub fn config(self, smoke: bool) -> GptConfig {
        match (self, smoke) {
            (ServeModel::S, _) => GptConfig {
                vocab_size: 256,
                hidden: 128,
                layers: 2,
                heads: 4,
                max_seq: 256,
                ..GptConfig::tiny(ArchKind::Llama, 256)
            },
            (ServeModel::D, false) => GptConfig {
                vocab_size: 2048,
                hidden: 1024,
                layers: 7,
                heads: 8,
                max_seq: 64,
                ..GptConfig::tiny(ArchKind::Llama, 2048)
            },
            // --smoke: same code path, weights small enough to build in
            // milliseconds; its numbers say nothing about DRAM
            (ServeModel::D, true) => GptConfig {
                vocab_size: 2048,
                hidden: 256,
                layers: 2,
                heads: 8,
                max_seq: 64,
                ..GptConfig::tiny(ArchKind::Llama, 2048)
            },
        }
    }
}

/// KV storage of the serving engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kv {
    Contiguous,
    /// Block-paged with 16-token blocks and this many blocks.
    Paged {
        blocks: usize,
    },
}

/// Tokens per KV block on the paged workloads.
pub const KV_BLOCK: usize = 16;

/// The prompts of one wave.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaveShape {
    /// `clients` unrelated prompts of `prompt` tokens; the run cycles
    /// through `distinct` such waves.
    Unshared { prompt: usize, distinct: usize },
    /// Requests 0, 1, 2 are hot prefix A, B, A (`prefix` tokens) plus
    /// `tail` fresh tokens; request 3 is `prefix + tail` fresh tokens.
    /// Tails and the unique prompt are new in every wave.
    PrefixMix { prefix: usize, tail: usize },
    /// `clients` unrelated prompts of `prompt` tokens, new in every
    /// wave.
    Fresh { prompt: usize },
}

/// What one training unit is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrainUnit {
    /// One `Trainer::step_once`.
    Step,
    /// `train_topology` at `{2,1,1}`, `{1,2,1}`, `{1,1,2}` in turn.
    Grid,
    /// One `DataParallel::train` with `ParallelConfig::zero1(2)`.
    Zero1,
}

impl TrainUnit {
    /// Tokens one unit trains on.
    pub fn tokens(self) -> usize {
        let step = TRAIN_BATCH * TRAIN_SEQ;
        match self {
            TrainUnit::Step => step,
            TrainUnit::Grid => 3 * CALL_STEPS * step,
            TrainUnit::Zero1 => CALL_STEPS * step,
        }
    }
}

/// How a request's prompt relates to the rest of its wave.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PromptKind {
    Solo,
    Shared,
    Unique,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Prompt {
    pub tokens: Vec<u32>,
    pub kind: PromptKind,
}

/// One workload of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line: which layers do the work here and which do not.
    pub why: &'static str,
    pub model: ServeModel,
    pub kv: Kv,
    /// `Some(k)` = `DecodeMode::Speculative { k }`. The benchmark uses
    /// k = 1, for two measured reasons. A request's decode time is its
    /// verify-step count times one step, and the count is discrete:
    /// over 24 seeded prompts x 3 model seeds, 24 new tokens took 12-14
    /// steps at k = 1 with 54-67 % of the prompts on 13, but 5-9 steps
    /// at k = 4 with only 33-46 % on the commonest count, so the median
    /// over a run's waves stays on one mode at k = 1 and flips between
    /// modes 17 % apart at k = 4. And with k > 1 the draft's
    /// back-to-back passes over 86 MiB of int8 hit or miss the
    /// host-shared L3 depending on the neighbours: `tpot_ms` moved 15 %
    /// between runs at k = 4 against 3.4 % at k = 1, where the f32
    /// verify stream evicts the draft every step.
    pub speculative: Option<usize>,
    /// Requests per wave, and the engine's `max_batch`.
    pub clients: usize,
    pub new_tokens: usize,
    pub wave: WaveShape,
    pub train: TrainUnit,
    pub arch: ArchKind,
    /// Share of the timed seconds spent in train blocks.
    pub train_share: f64,
    /// Fewest timed train units / waves a full run must collect: 60 for
    /// step- and request-sized units, 20 for whole calls and DRAM waves.
    pub floor_train: usize,
    pub floor_serve: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "l2_solo",
        why: "plain single-worker baseline: per-call overhead (Vecs, tape, channel hop, optimizer loop) does the work; bandwidth, paging and collectives do none",
        model: ServeModel::S,
        kv: Kv::Contiguous,
        speculative: None,
        clients: 1,
        new_tokens: 32,
        wave: WaveShape::Unshared {
            prompt: 64,
            distinct: 8,
        },
        train: TrainUnit::Step,
        arch: ArchKind::Llama,
        train_share: 0.5,
        floor_train: 60,
        floor_serve: 60,
    },
    Workload {
        name: "dram_batch",
        why: "each iteration streams 352 MiB once per active request, so tpot and serve tok/s sit on the DRAM roofline; batching the stream must show ~4x here and nothing on l2_solo",
        model: ServeModel::D,
        kv: Kv::Contiguous,
        speculative: None,
        clients: 4,
        new_tokens: 4,
        wave: WaveShape::Unshared {
            prompt: 8,
            distinct: 1,
        },
        train: TrainUnit::Step,
        arch: ArchKind::NeoX,
        train_share: 0.35,
        floor_train: 60,
        floor_serve: 20,
    },
    Workload {
        name: "paged_prefix",
        why: "admission, BlockPool, PrefixCache and prefill do the work under an undersized pool; shared requests fork blocks, unique ones allocate and evict; the train side is where Ring and PipeLink carry traffic",
        model: ServeModel::S,
        kv: Kv::Paged { blocks: 34 },
        speculative: None,
        clients: 4,
        new_tokens: 16,
        wave: WaveShape::PrefixMix {
            prefix: 192,
            tail: 16,
        },
        train: TrainUnit::Grid,
        arch: ArchKind::Llama,
        train_share: 0.8,
        floor_train: 20,
        floor_serve: 60,
    },
    Workload {
        name: "dram_spec",
        why: "same tensor and model layers used differently: int8 draft, batched small-m f32 verify and paged KV rollback instead of m=1 streams; ZeRO-1 shards the optimizer on the train side",
        model: ServeModel::D,
        kv: Kv::Paged { blocks: 16 },
        speculative: Some(1),
        clients: 1,
        new_tokens: 24,
        wave: WaveShape::Fresh { prompt: 8 },
        train: TrainUnit::Zero1,
        arch: ArchKind::Llama,
        train_share: 0.3,
        floor_train: 20,
        floor_serve: 20,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: small, seedable and identical on every platform, so a
/// seed names the same inputs everywhere.
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, purpose, index)`.
    pub fn new(seed: u64, purpose: u64, index: u64) -> Self {
        let mut r = Rng(seed
            ^ purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ index.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn tokens(&mut self, n: usize, vocab: usize) -> Vec<u32> {
        (0..n)
            .map(|_| (self.next_u64() % vocab as u64) as u32)
            .collect()
    }
}

const PURPOSE_PROMPT: u64 = 1;
const PURPOSE_PREFIX: u64 = 2;
const PURPOSE_TAIL: u64 = 3;

impl Workload {
    /// Waves whose every token stream is compared with
    /// `model::generate`. Cycling workloads list their whole cycle, so
    /// every response of the run is compared; `PrefixMix` and `Fresh`
    /// waves are all different, so a fixed sample of them is (wave 0 is
    /// an untimed warm-up wave; a `D` reference stream costs a second).
    pub fn reference_waves(&self) -> Vec<usize> {
        match self.wave {
            WaveShape::Unshared { distinct, .. } => (0..distinct).collect(),
            WaveShape::PrefixMix { .. } => vec![0, 1, 2, 33],
            WaveShape::Fresh { .. } => vec![0, 2],
        }
    }

    /// The wave whose prompts wave `index` repeats.
    pub fn canonical_wave(&self, index: usize) -> usize {
        match self.wave {
            WaveShape::Unshared { distinct, .. } => index % distinct,
            WaveShape::PrefixMix { .. } | WaveShape::Fresh { .. } => index,
        }
    }

    /// The prompts of wave `index`, a pure function of the arguments.
    pub fn wave_prompts(&self, seed: u64, index: usize, vocab: usize) -> Vec<Prompt> {
        let index = self.canonical_wave(index) as u64;
        match self.wave {
            WaveShape::Unshared { prompt, .. } | WaveShape::Fresh { prompt } => (0..self.clients
                as u64)
                .map(|c| Prompt {
                    tokens: Rng::new(seed, PURPOSE_PROMPT, index * 64 + c).tokens(prompt, vocab),
                    kind: PromptKind::Solo,
                })
                .collect(),
            WaveShape::PrefixMix { prefix, tail } => {
                assert_eq!(self.clients, 4, "PrefixMix is three shared plus one unique");
                let hot = |p: u64| Rng::new(seed, PURPOSE_PREFIX, p).tokens(prefix, vocab);
                let fresh =
                    |c: u64, n: usize| Rng::new(seed, PURPOSE_TAIL, index * 4 + c).tokens(n, vocab);
                let mut wave: Vec<Prompt> = [0u64, 1, 0]
                    .iter()
                    .enumerate()
                    .map(|(c, &p)| {
                        let mut tokens = hot(p);
                        tokens.extend(fresh(c as u64, tail));
                        Prompt {
                            tokens,
                            kind: PromptKind::Shared,
                        }
                    })
                    .collect();
                wave.push(Prompt {
                    tokens: fresh(3, prefix + tail),
                    kind: PromptKind::Unique,
                });
                wave
            }
        }
    }

    /// Tokens one wave generates.
    pub fn wave_tokens(&self) -> usize {
        self.clients * self.new_tokens
    }
}

/// The synthetic corpus the tokenizer and model `T` train on. Small on
/// purpose: `train_topology` and `DataParallel::train` retrain the
/// tokenizer and rebuild the dataset inside every call.
pub fn corpus_config(seed: u64) -> CorpusConfig {
    CorpusConfig {
        n_materials: 100,
        total_docs: 96,
        offtopic_fraction: 0.2,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waves_are_a_pure_function_of_the_seed() {
        for w in &WORKLOADS {
            let vocab = w.model.config(false).vocab_size;
            for index in [0usize, 1, 7, 33] {
                let a = w.wave_prompts(11, index, vocab);
                let b = w.wave_prompts(11, index, vocab);
                assert_eq!(a, b, "{} wave {index} differs under one seed", w.name);
                assert_eq!(a.len(), w.clients);
                assert!(a
                    .iter()
                    .all(|p| p.tokens.iter().all(|&t| (t as usize) < vocab)));
                let other = w.wave_prompts(12, index, vocab);
                assert_ne!(a, other, "{} ignores the seed", w.name);
            }
        }
    }

    #[test]
    fn wave_composition_matches_the_shape() {
        let w = find("paged_prefix").unwrap();
        let (w0, w1) = (w.wave_prompts(5, 0, 256), w.wave_prompts(5, 1, 256));
        let kinds: Vec<PromptKind> = w0.iter().map(|p| p.kind).collect();
        assert_eq!(
            kinds,
            [
                PromptKind::Shared,
                PromptKind::Shared,
                PromptKind::Shared,
                PromptKind::Unique
            ]
        );
        // requests 0 and 2 share hot prefix A, request 1 carries B, and
        // the hot prefixes survive from wave to wave while tails do not
        assert_eq!(w0[0].tokens[..192], w0[2].tokens[..192]);
        assert_ne!(w0[0].tokens[..192], w0[1].tokens[..192]);
        assert_eq!(w0[0].tokens[..192], w1[0].tokens[..192]);
        assert_ne!(w0[0].tokens[192..], w1[0].tokens[192..]);
        assert_ne!(w0[0].tokens[192..], w0[2].tokens[192..]);
        assert_ne!(w0[3].tokens, w1[3].tokens);
        assert!(w0.iter().all(|p| p.tokens.len() == 208));

        let solo = find("l2_solo").unwrap();
        assert_eq!(solo.wave_prompts(5, 3, 256), solo.wave_prompts(5, 11, 256));
        assert_ne!(solo.wave_prompts(5, 3, 256), solo.wave_prompts(5, 4, 256));

        let spec = find("dram_spec").unwrap();
        assert_ne!(
            spec.wave_prompts(5, 3, 2048),
            spec.wave_prompts(5, 11, 2048)
        );
    }

    #[test]
    fn corpus_follows_the_seed() {
        let docs = |seed| matgpt_corpus::build_corpus(&corpus_config(seed)).documents;
        assert_eq!(docs(3), docs(3));
        assert_ne!(docs(3), docs(4));
    }

    #[test]
    fn serving_weights_avoid_the_shared_l3_band() {
        for w in &WORKLOADS {
            let bytes = 4 * matgpt_model::count::total_params(&w.model.config(false));
            let mib = bytes as f64 / (1 << 20) as f64;
            assert!(
                mib <= 2.0 || mib >= 320.0,
                "{}: {mib:.1} MiB of weights sit in the shared L3",
                w.name
            );
        }
    }

    #[test]
    fn shares_and_names_are_well_formed() {
        for w in &WORKLOADS {
            assert!(w.train_share > 0.0 && w.train_share < 1.0);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            assert!(find(w.name).is_some());
        }
    }
}
