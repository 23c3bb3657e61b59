#![warn(missing_docs)]

//! Offline shim for `rand_chacha`: ChaCha-family RNGs over the shim
//! `rand` traits.
//!
//! The core is a faithful ChaCha block function (Bernstein's quarter
//! round, configurable round count) with upstream's state layout:
//! "expand 32-byte k" constants, little-endian key words, a 64-bit
//! block counter in words 12/13 and a zero stream id in words 14/15.
//! Words are served sequentially from each block, so together with the
//! shim `rand` traits (low-word-first `next_u64`, PCG32
//! `seed_from_u64`) seeded output streams are bit-compatible with
//! upstream `rand_chacha` 0.3 on the paths this workspace uses.
//!
//! `next_u32` computes one block per refill. `fill_bytes`, the bulk path
//! (weight initialisation draws through it), computes sixteen
//! consecutive blocks at once as the lanes of one array per state word,
//! so its loops run at vector width; it returns the same words in the
//! same order and leaves the generator in the same state as one
//! `next_u32` call per word.

use rand::{RngCore, SeedableRng};

const BLOCK_WORDS: usize = 16;

/// A ChaCha RNG with `R` double-rounds worth of mixing (`R = 8` gives
/// ChaCha8 and so on).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaChaRng<const R: usize> {
    key: [u32; 8],
    counter: u64,
    buf: [u32; BLOCK_WORDS],
    /// Next unread word in `buf`; `BLOCK_WORDS` means exhausted.
    idx: usize,
}

/// ChaCha with 8 rounds — the workspace's standard seeded RNG.
pub type ChaCha8Rng = ChaChaRng<8>;
/// ChaCha with 12 rounds.
pub type ChaCha12Rng = ChaChaRng<12>;
/// ChaCha with 20 rounds (the original cipher strength).
pub type ChaCha20Rng = ChaChaRng<20>;

/// Blocks [`ChaChaRng::fill_bytes`] computes at once, one per lane.
const GROUP: usize = 16;
/// Bytes of one group's output.
const GROUP_BYTES: usize = 4 * BLOCK_WORDS * GROUP;

/// One state word across `L` blocks.
type Lanes<const L: usize> = [u32; L];

/// The block function's input for block `counter`: the "expand 32-byte
/// k" constants, the key, the counter and stream id 0.
#[inline(always)]
fn input(key: &[u32; 8], counter: u64) -> [u32; BLOCK_WORDS] {
    let [k0, k1, k2, k3, k4, k5, k6, k7] = *key;
    [
        0x6170_7865,
        0x3320_646e,
        0x7962_2d32,
        0x6b20_6574,
        k0,
        k1,
        k2,
        k3,
        k4,
        k5,
        k6,
        k7,
        counter as u32,
        (counter >> 32) as u32,
        0,
        0,
    ]
}

/// The quarter round on state words `a, b, c, d` of every lane.
#[inline(always)]
// one lane index across four rows of `x` is the loop the vectorizer reads
#[allow(clippy::needless_range_loop)]
fn quarter_round<const L: usize>(
    x: &mut [Lanes<L>; BLOCK_WORDS],
    a: usize,
    b: usize,
    c: usize,
    d: usize,
) {
    for l in 0..L {
        x[a][l] = x[a][l].wrapping_add(x[b][l]);
        x[d][l] = (x[d][l] ^ x[a][l]).rotate_left(16);
        x[c][l] = x[c][l].wrapping_add(x[d][l]);
        x[b][l] = (x[b][l] ^ x[c][l]).rotate_left(12);
        x[a][l] = x[a][l].wrapping_add(x[b][l]);
        x[d][l] = (x[d][l] ^ x[a][l]).rotate_left(8);
        x[c][l] = x[c][l].wrapping_add(x[d][l]);
        x[b][l] = (x[b][l] ^ x[c][l]).rotate_left(7);
    }
}

/// The rounds of the `L` blocks at counters `counter, counter + 1, …`,
/// as lanes: `x[w][l]` is word `w` of block `counter + l` before the
/// block's input is added back. Each lane is one block's rounds alone,
/// so any `L` gives the same words; at `L = 16` the lane loops run at
/// vector width. (Adding the input here, word-major, vectorizes as
/// gathers and scatters; the callers add it block by block.)
#[inline(always)]
fn rounds<const R: usize, const L: usize>(key: &[u32; 8], counter: u64) -> [Lanes<L>; BLOCK_WORDS] {
    let mut x = input(key, counter).map(|word| [word; L]);
    let block = |l: usize| counter.wrapping_add(l as u64);
    x[12] = std::array::from_fn(|l| block(l) as u32);
    x[13] = std::array::from_fn(|l| (block(l) >> 32) as u32);
    for _ in 0..R / 2 {
        // column round
        quarter_round(&mut x, 0, 4, 8, 12);
        quarter_round(&mut x, 1, 5, 9, 13);
        quarter_round(&mut x, 2, 6, 10, 14);
        quarter_round(&mut x, 3, 7, 11, 15);
        // diagonal round
        quarter_round(&mut x, 0, 5, 10, 15);
        quarter_round(&mut x, 1, 6, 11, 12);
        quarter_round(&mut x, 2, 7, 8, 13);
        quarter_round(&mut x, 3, 4, 9, 14);
    }
    x
}

/// The [`GROUP`] blocks from `counter` on into `out`, little-endian, in
/// stream order: the portable lane loops.
fn group_portable<const R: usize>(key: &[u32; 8], counter: u64, out: &mut [u8; GROUP_BYTES]) {
    let x = rounds::<R, GROUP>(key, counter);
    for (l, block) in out.chunks_exact_mut(4 * BLOCK_WORDS).enumerate() {
        let input = input(key, counter.wrapping_add(l as u64));
        for (w, (bytes, i)) in block.chunks_exact_mut(4).zip(input).enumerate() {
            bytes.copy_from_slice(&x[w][l].wrapping_add(i).to_le_bytes());
        }
    }
}

/// [`group_portable`] in AVX-512: one `zmm` per state word, the rounds
/// with `vprold`, and the 16 × 16 word transpose to stream order in
/// three shuffle stages (32-bit and 64-bit unpacks, then two rounds of
/// 128-bit lane shuffles).
///
/// # Safety
/// `avx512f` must have been detected.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn group_avx512<const R: usize>(key: &[u32; 8], counter: u64, out: &mut [u8; GROUP_BYTES]) {
    use std::arch::x86_64::*;
    // zero rounds: the lanes' input, whose counter rows differ by lane
    let counters = rounds::<0, GROUP>(key, counter);
    // SAFETY: every load and store below stays inside `counters` (16
    // words a row) and `out` (GROUP_BYTES = 16 blocks of 64 bytes)
    unsafe {
        let mut init = input(key, counter).map(|word| _mm512_set1_epi32(word as i32));
        init[12] = _mm512_loadu_si512(counters[12].as_ptr().cast());
        init[13] = _mm512_loadu_si512(counters[13].as_ptr().cast());
        let mut x = init;
        let qr = |x: &mut [__m512i; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize| {
            x[a] = _mm512_add_epi32(x[a], x[b]);
            x[d] = _mm512_rol_epi32::<16>(_mm512_xor_si512(x[d], x[a]));
            x[c] = _mm512_add_epi32(x[c], x[d]);
            x[b] = _mm512_rol_epi32::<12>(_mm512_xor_si512(x[b], x[c]));
            x[a] = _mm512_add_epi32(x[a], x[b]);
            x[d] = _mm512_rol_epi32::<8>(_mm512_xor_si512(x[d], x[a]));
            x[c] = _mm512_add_epi32(x[c], x[d]);
            x[b] = _mm512_rol_epi32::<7>(_mm512_xor_si512(x[b], x[c]));
        };
        for _ in 0..R / 2 {
            qr(&mut x, 0, 4, 8, 12);
            qr(&mut x, 1, 5, 9, 13);
            qr(&mut x, 2, 6, 10, 14);
            qr(&mut x, 3, 7, 11, 15);
            qr(&mut x, 0, 5, 10, 15);
            qr(&mut x, 1, 6, 11, 12);
            qr(&mut x, 2, 7, 8, 13);
            qr(&mut x, 3, 4, 9, 14);
        }
        for (w, i) in x.iter_mut().zip(init) {
            *w = _mm512_add_epi32(*w, i);
        }
        // t[2i], t[2i+1]: words 4k, 4k+1 and 4k+2, 4k+3 of rows 2i, 2i+1
        // interleaved, in each 128-bit lane k
        let t: [__m512i; BLOCK_WORDS] = std::array::from_fn(|j| {
            let (a, b) = (x[j & !1], x[j | 1]);
            if j % 2 == 0 {
                _mm512_unpacklo_epi32(a, b)
            } else {
                _mm512_unpackhi_epi32(a, b)
            }
        });
        // u[4g + m], lane k: word 4k + m of rows 4g .. 4g + 3
        let u: [__m512i; BLOCK_WORDS] = std::array::from_fn(|j| {
            let (g, m) = (j & !3, j & 3);
            let (a, b) = (t[g + m / 2], t[g + 2 + m / 2]);
            if m % 2 == 0 {
                _mm512_unpacklo_epi64(a, b)
            } else {
                _mm512_unpackhi_epi64(a, b)
            }
        });
        // block 4k + m is lane k of u[m], u[4 + m], u[8 + m], u[12 + m]
        let p = out.as_mut_ptr();
        for m in 0..4 {
            let p0 = _mm512_shuffle_i32x4::<0x44>(u[m], u[4 + m]);
            let p1 = _mm512_shuffle_i32x4::<0xee>(u[m], u[4 + m]);
            let p2 = _mm512_shuffle_i32x4::<0x44>(u[8 + m], u[12 + m]);
            let p3 = _mm512_shuffle_i32x4::<0xee>(u[8 + m], u[12 + m]);
            let blocks = [
                _mm512_shuffle_i32x4::<0x88>(p0, p2),
                _mm512_shuffle_i32x4::<0xdd>(p0, p2),
                _mm512_shuffle_i32x4::<0x88>(p1, p3),
                _mm512_shuffle_i32x4::<0xdd>(p1, p3),
            ];
            for (k, block) in blocks.into_iter().enumerate() {
                _mm512_storeu_si512(p.add(4 * BLOCK_WORDS * (4 * k + m)).cast(), block);
            }
        }
    }
}

/// Whether the host can run [`group_avx512`].
fn has_avx512() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

impl<const R: usize> ChaChaRng<R> {
    /// Number of 32-bit words produced so far — the stream cursor, as
    /// upstream's `get_word_pos`. Together with the seed this fully
    /// determines the remaining output, so it is what checkpoints store
    /// to make an RNG resumable.
    pub fn get_word_pos(&self) -> u128 {
        // `counter` points at the *next* block; the buffer holds block
        // `counter - 1` with `idx` words already served. A fresh RNG has
        // counter 0 and idx == BLOCK_WORDS, which also yields 0 here.
        (self.counter as u128) * BLOCK_WORDS as u128 + self.idx as u128 - BLOCK_WORDS as u128
    }

    /// Seek the stream to an absolute word position (upstream's
    /// `set_word_pos`). Only positions on the same keyed stream make
    /// sense: seed identically, then seek.
    pub fn set_word_pos(&mut self, pos: u128) {
        self.counter = (pos / BLOCK_WORDS as u128) as u64;
        self.idx = BLOCK_WORDS; // force refill on next draw
        let within = (pos % BLOCK_WORDS as u128) as usize;
        if within != 0 {
            self.refill(); // regenerates the block and bumps counter
            self.idx = within;
        }
    }

    fn refill(&mut self) {
        let x = rounds::<R, 1>(&self.key, self.counter);
        let input = input(&self.key, self.counter);
        self.buf = std::array::from_fn(|w| x[w][0].wrapping_add(input[w]));
        self.idx = 0;
        self.counter = self.counter.wrapping_add(1);
    }

    /// `dest` word by word through [`RngCore::next_u32`], a last partial
    /// word taking the low bytes of a whole one.
    fn fill_words(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(4) {
            let bytes = self.next_u32().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<const R: usize> RngCore for ChaChaRng<R> {
    fn next_u32(&mut self) -> u32 {
        if self.idx >= BLOCK_WORDS {
            self.refill();
        }
        let word = self.buf[self.idx];
        self.idx += 1;
        word
    }

    /// The words `next_u32` would return, little-endian, sixteen blocks
    /// at a time: the rest of the buffered block word by word, then whole
    /// groups straight into `dest`, then what is left word by word. The
    /// generator ends where as many `next_u32` calls leave it — counter,
    /// buffered block and cursor — so [`ChaChaRng::get_word_pos`] counts
    /// every word `dest` took, a last partial one included.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.fill_bytes_on(false, dest);
    }
}

impl<const R: usize> ChaChaRng<R> {
    /// [`RngCore::fill_bytes`] with the groups computed by the AVX-512
    /// body where the host has it, unless `portable` asks for the
    /// portable one, so a test can hold both to `next_u32`. Built for an
    /// AVX-512 host, the intrinsic body takes about 0.45× the portable
    /// one's time (0.5 against 1.2 ns a word on a Xeon with AVX-512,
    /// interleaved runs).
    fn fill_bytes_on(&mut self, portable: bool, dest: &mut [u8]) {
        let avx512 = !portable && has_avx512();
        let buffered = 4 * (BLOCK_WORDS - self.idx);
        // after the head, the buffered block is spent whenever a group
        // follows, as it is after each group
        let (head, rest) = dest.split_at_mut(buffered.min(dest.len()));
        self.fill_words(head);
        let mut groups = rest.chunks_exact_mut(GROUP_BYTES);
        for group in &mut groups {
            let group: &mut [u8; GROUP_BYTES] = group.try_into().expect("chunks_exact");
            #[cfg(target_arch = "x86_64")]
            if avx512 {
                // SAFETY: `avx512` holds only where avx512f was detected
                unsafe { group_avx512::<R>(&self.key, self.counter, group) };
            }
            if !avx512 {
                group_portable::<R>(&self.key, self.counter, group);
            }
            // the group's last block is the one its last word came from
            let last = &group[GROUP_BYTES - 4 * BLOCK_WORDS..];
            for (word, bytes) in self.buf.iter_mut().zip(last.chunks_exact(4)) {
                *word = u32::from_le_bytes(bytes.try_into().expect("chunks_exact"));
            }
            self.counter = self.counter.wrapping_add(GROUP as u64);
        }
        self.fill_words(groups.into_remainder());
    }
}

impl<const R: usize> SeedableRng for ChaChaRng<R> {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (k, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes(chunk.try_into().unwrap());
        }
        Self {
            key,
            counter: 0,
            buf: [0; BLOCK_WORDS],
            idx: BLOCK_WORDS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn deterministic_per_seed_and_distinct_across_seeds() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        let mut c = ChaCha8Rng::seed_from_u64(43);
        let va: Vec<u32> = (0..64).map(|_| a.next_u32()).collect();
        let vb: Vec<u32> = (0..64).map(|_| b.next_u32()).collect();
        let vc: Vec<u32> = (0..64).map(|_| c.next_u32()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn floats_look_uniform() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn clone_preserves_stream_position() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..10 {
            rng.next_u32();
        }
        let mut fork = rng.clone();
        assert_eq!(rng.next_u32(), fork.next_u32());
    }

    /// The words `next_u32` draws, laid out as `fill_bytes` lays them.
    fn by_words(rng: &mut ChaCha8Rng, len: usize) -> Vec<u8> {
        let mut out: Vec<u8> = (0..len.div_ceil(4))
            .flat_map(|_| rng.next_u32().to_le_bytes())
            .collect();
        out.truncate(len);
        out
    }

    #[test]
    fn bulk_fill_equals_next_u32_and_leaves_the_same_state() {
        let group = GROUP_BYTES;
        // every start within a block and one past it, lengths around a
        // word, a block and one, two and several groups
        for start in 0..18usize {
            let to_boundary = 4 * ((BLOCK_WORDS - start % BLOCK_WORDS) % BLOCK_WORDS);
            for len in [
                0,
                1,
                3,
                4,
                5,
                63,
                64,
                65,
                group - 1,
                group,
                group + 1,
                to_boundary + group,
                to_boundary + 2 * group - 2,
                3 * group + 7,
                5 * group + 64 * 3 + 2,
            ] {
                // the portable body, and the AVX-512 one where the host
                // has it
                for portable in [true, false] {
                    let mut bulk = ChaCha8Rng::seed_from_u64(77);
                    for _ in 0..start {
                        bulk.next_u32();
                    }
                    let mut words = bulk.clone();
                    let mut got = vec![0u8; len];
                    bulk.fill_bytes_on(portable, &mut got);
                    let at = format!("start {start} len {len} portable {portable}");
                    assert_eq!(got, by_words(&mut words, len), "{at}");
                    // counter, buffered block and cursor alike
                    assert_eq!(bulk, words, "{at}");
                    assert_eq!(bulk.get_word_pos(), (start + len.div_ceil(4)) as u128);
                }
            }
        }
    }

    #[test]
    fn bulk_fill_carries_the_counter_into_its_high_word() {
        for portable in [true, false] {
            let mut bulk = ChaCha8Rng::seed_from_u64(3);
            bulk.set_word_pos(((1u128 << 32) - 5) * BLOCK_WORDS as u128 + 2);
            let mut words = bulk.clone();
            let mut got = vec![0u8; 2 * GROUP_BYTES];
            bulk.fill_bytes_on(portable, &mut got);
            assert_eq!(got, by_words(&mut words, got.len()), "portable {portable}");
            assert_eq!(bulk, words, "portable {portable}");
        }
    }

    #[test]
    fn word_pos_round_trips_after_a_bulk_fill() {
        for (start, len) in [
            (0usize, 4096usize),
            (5, 4097),
            (17, 3 * 1024 + 12),
            (16, 1024),
        ] {
            let mut rng = ChaCha8Rng::seed_from_u64(99);
            for _ in 0..start {
                rng.next_u32();
            }
            rng.fill_bytes(&mut vec![0u8; len]);
            let pos = rng.get_word_pos();
            assert_eq!(pos, (start + len.div_ceil(4)) as u128);
            let mut fresh = ChaCha8Rng::seed_from_u64(99);
            fresh.set_word_pos(pos);
            assert_eq!(fresh.get_word_pos(), pos);
            let (mut a, mut b) = (vec![0u8; 5000], vec![0u8; 5000]);
            rng.fill_bytes(&mut a);
            fresh.fill_bytes(&mut b);
            assert_eq!(a, b, "diverged after {pos} words");
            assert_eq!(rng.next_u32(), fresh.next_u32());
        }
    }

    #[test]
    fn word_pos_roundtrip_resumes_the_stream() {
        // every offset within and across block boundaries
        for consumed in [0usize, 1, 7, 15, 16, 17, 31, 32, 100] {
            let mut rng = ChaCha8Rng::seed_from_u64(99);
            for _ in 0..consumed {
                rng.next_u32();
            }
            assert_eq!(rng.get_word_pos(), consumed as u128);
            let mut fresh = ChaCha8Rng::seed_from_u64(99);
            fresh.set_word_pos(consumed as u128);
            let a: Vec<u32> = (0..40).map(|_| rng.next_u32()).collect();
            let b: Vec<u32> = (0..40).map(|_| fresh.next_u32()).collect();
            assert_eq!(a, b, "diverged after {consumed} words");
        }
    }
}
