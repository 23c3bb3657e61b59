//! Checkpointing: serialise a [`ParamStore`] to a compact binary format
//! and restore it bit-exactly.
//!
//! Format v2 (little-endian):
//!
//! ```text
//! magic "MGPT" | version u32 | n_params u32 |
//!   per param: name_len u32 | name bytes | rank u32 | dims u64… | f32 data…
//! n_sections u32 |
//!   per section: name_len u32 | name bytes | byte_len u64 | bytes…
//! ```
//!
//! Version 2 appends a list of named opaque *sections* after the
//! parameter table. Training code uses them to carry everything a
//! bit-identical restart needs beyond the weights: optimizer moments,
//! the LR-schedule step, the data-loader RNG cursor, and recorded loss
//! curves (see `matgpt_core::pretrain::Trainer`). Version 1 checkpoints
//! (no section table) remain readable; [`load`] and [`load_full`]
//! accept both. Decoding is panic-free on arbitrary bytes: truncated or
//! bit-flipped input yields a [`CheckpointError`], never a crash or an
//! attacker-controlled allocation.

use crate::param::ParamStore;
use crate::tensor::Tensor;

const MAGIC: &[u8; 4] = b"MGPT";
const V1: u32 = 1;
const V2: u32 = 2;

/// Errors from checkpoint decoding.
#[derive(Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Missing or wrong magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// Buffer ended prematurely or lengths are inconsistent.
    Truncated,
    /// A declared shape does not match its payload.
    ShapeMismatch,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a MatGPT checkpoint (bad magic)"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::ShapeMismatch => write!(f, "checkpoint shape mismatch"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A fully decoded v2 checkpoint: the weights plus any named sections.
pub struct Checkpoint {
    /// The decoded parameter table.
    pub store: ParamStore,
    /// Named opaque sections, in file order (empty for v1 inputs).
    pub sections: Vec<(String, Vec<u8>)>,
}

impl Checkpoint {
    /// The bytes of the first section named `name`, if present.
    pub fn section(&self, name: &str) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
    }
}

/// Serialise all parameters (names, shapes, values) of `store` with no
/// extra sections.
pub fn save(store: &ParamStore) -> Vec<u8> {
    save_with_sections(store, &[])
}

/// Serialise `store` plus named opaque `sections` (format v2).
pub fn save_with_sections(store: &ParamStore, sections: &[(String, Vec<u8>)]) -> Vec<u8> {
    fn put_name(buf: &mut Vec<u8>, name: &str) {
        buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
    }
    let extra: usize = sections.iter().map(|(n, b)| 12 + n.len() + b.len()).sum();
    let mut buf = Vec::with_capacity(64 + store.num_scalars() * 4 + extra);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&V2.to_le_bytes());
    buf.extend_from_slice(&(store.len() as u32).to_le_bytes());
    for id in store.ids() {
        put_name(&mut buf, store.name(id));
        let t = store.value(id);
        buf.extend_from_slice(&(t.rank() as u32).to_le_bytes());
        for &d in t.shape() {
            buf.extend_from_slice(&(d as u64).to_le_bytes());
        }
        for &v in t.data() {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    buf.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (name, bytes) in sections {
        put_name(&mut buf, name);
        buf.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        buf.extend_from_slice(bytes);
    }
    buf
}

/// Bounds-checked cursor over an image: a read past the end is
/// [`CheckpointError::Truncated`] and consumes nothing.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    /// The next `n` bytes; `None` (a length that overflowed) is past
    /// the end of any image.
    fn take(&mut self, n: Option<usize>) -> Result<&'a [u8], CheckpointError> {
        let (head, rest) = n
            .and_then(|n| self.0.split_at_checked(n))
            .ok_or(CheckpointError::Truncated)?;
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        let head = self.take(Some(N))?;
        Ok(head.try_into().expect("take returns the length asked for"))
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A length-prefixed name.
    fn name(&mut self) -> Result<String, CheckpointError> {
        let len = self.u32()? as usize;
        Ok(String::from_utf8_lossy(self.take(Some(len))?).into_owned())
    }
}

/// Decode a checkpoint (v1 or v2) into a fresh [`ParamStore`],
/// discarding any sections.
pub fn load(bytes: &[u8]) -> Result<ParamStore, CheckpointError> {
    load_full(bytes).map(|c| c.store)
}

/// Decode a checkpoint (v1 or v2) keeping the section table.
pub fn load_full(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
    if bytes.len() < 12 {
        return Err(CheckpointError::Truncated);
    }
    let mut buf = Reader(bytes);
    if &buf.array::<4>()? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = buf.u32()?;
    if version != V1 && version != V2 {
        return Err(CheckpointError::BadVersion(version));
    }
    let n = buf.u32()?;
    let mut store = ParamStore::new();
    for _ in 0..n {
        let name = buf.name()?;
        let rank = buf.u32()? as usize;
        // taken before any shape-sized work: each dim is 8 bytes
        let shape: Vec<usize> = buf
            .take(rank.checked_mul(8))?
            .chunks_exact(8)
            .map(|d| u64::from_le_bytes(d.try_into().expect("8-byte chunk")) as usize)
            .collect();
        // corrupt dims can overflow the element count; use checked math
        // so a bit flip yields an error instead of a panic or huge alloc
        let numel = shape
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or(CheckpointError::ShapeMismatch)?;
        let data = buf
            .take(numel.checked_mul(4))?
            .chunks_exact(4)
            .map(|v| f32::from_le_bytes(v.try_into().expect("4-byte chunk")))
            .collect();
        store.add(name, Tensor::from_vec(&shape, data));
    }
    let mut sections = Vec::new();
    if version >= V2 {
        for _ in 0..buf.u32()? {
            let name = buf.name()?;
            let len = buf.u64()?;
            sections.push((name, buf.take(usize::try_from(len).ok())?.to_vec()));
        }
    }
    Ok(Checkpoint { store, sections })
}

/// Copy values from `src` into `dst` by matching names and shapes.
/// Returns the number of parameters restored; parameters present in only
/// one store are left untouched.
pub fn restore_into(dst: &mut ParamStore, src: &ParamStore) -> usize {
    let mut restored = 0;
    let src_ids: Vec<_> = src.ids().collect();
    for id in dst.ids().collect::<Vec<_>>() {
        let name = dst.name(id).to_string();
        if let Some(&sid) = src_ids.iter().find(|&&sid| src.name(sid) == name) {
            if src.value(sid).shape() == dst.value(id).shape() {
                let data = src.value(sid).data().to_vec();
                dst.value_mut(id).data_mut().copy_from_slice(&data);
                restored += 1;
            }
        }
    }
    restored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    fn sample_store() -> ParamStore {
        let mut rng = init::rng(5);
        let mut s = ParamStore::new();
        s.add("w1", init::randn(&[3, 4], 1.0, &mut rng));
        s.add("b1", init::randn(&[4], 1.0, &mut rng));
        s.add("scalar", Tensor::scalar(7.25));
        s
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let store = sample_store();
        let bytes = save(&store);
        let loaded = load(&bytes).unwrap();
        assert_eq!(loaded.len(), store.len());
        for (a, b) in store.ids().zip(loaded.ids()) {
            assert_eq!(store.name(a), loaded.name(b));
            assert_eq!(store.value(a).shape(), loaded.value(b).shape());
            assert_eq!(store.value(a).data(), loaded.value(b).data());
        }
    }

    #[test]
    fn sections_roundtrip() {
        let store = sample_store();
        let sections = vec![
            ("opt_state".to_string(), vec![1u8, 2, 3, 4, 5]),
            ("cursor".to_string(), Vec::new()),
        ];
        let bytes = save_with_sections(&store, &sections);
        let ck = load_full(&bytes).unwrap();
        assert_eq!(ck.sections, sections);
        assert_eq!(ck.section("opt_state"), Some(&[1u8, 2, 3, 4, 5][..]));
        assert_eq!(ck.section("cursor"), Some(&[][..]));
        assert_eq!(ck.section("missing"), None);
        assert_eq!(ck.store.len(), store.len());
    }

    #[test]
    fn v1_checkpoints_stay_readable() {
        // hand-build a v1 image: header + one scalar param, no sections
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&V1.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes()); // name len
        buf.extend_from_slice(b"s");
        buf.extend_from_slice(&0u32.to_le_bytes()); // rank 0
        buf.extend_from_slice(&2.5f32.to_le_bytes());
        let ck = load_full(&buf).unwrap();
        assert_eq!(ck.store.len(), 1);
        assert!(ck.sections.is_empty());
        let id = ck.store.ids().next().unwrap();
        assert_eq!(ck.store.value(id).data(), &[2.5]);
    }

    #[test]
    fn image_bytes_are_pinned() {
        // FNV-1a of a fixed store's image, taken from the encoder this
        // one replaced: the format is a contract with every checkpoint
        // already on disk, so no byte of it may move
        let mut store = ParamStore::new();
        let w = (0..6).map(|i| i as f32 * 0.25 - 0.5).collect();
        store.add("w", Tensor::from_vec(&[2, 3], w));
        store.add("b", Tensor::from_vec(&[3], vec![1.5, -2.0, 0.0]));
        store.add("s", Tensor::scalar(7.25));
        let sections = [
            ("opt".to_string(), vec![1u8, 2, 3, 4, 5]),
            ("cursor".to_string(), Vec::new()),
        ];
        let image = save_with_sections(&store, &sections);
        let fnv = image.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!((image.len(), fnv), (145, 0x0f1d_fe6f_8031_3f4a));
    }

    #[test]
    fn bad_magic_and_truncation_detected() {
        let store = sample_store();
        let bytes = save(&store);
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert_eq!(load(&bad).err(), Some(CheckpointError::BadMagic));
        assert_eq!(
            load(&bytes[..bytes.len() - 3]).err(),
            Some(CheckpointError::Truncated)
        );
        assert_eq!(load(&[]).err(), Some(CheckpointError::Truncated));
    }

    #[test]
    fn version_is_checked() {
        let store = sample_store();
        let bytes = save(&store);
        let mut bad = bytes.to_vec();
        bad[4] = 99;
        assert!(matches!(load(&bad), Err(CheckpointError::BadVersion(_))));
    }

    #[test]
    fn restore_into_matches_by_name_and_shape() {
        let src = sample_store();
        let mut dst = ParamStore::new();
        let mut rng = init::rng(9);
        let w = dst.add("w1", init::randn(&[3, 4], 1.0, &mut rng));
        dst.add("extra", Tensor::zeros(&[2])); // not in src
        dst.add("b1", Tensor::zeros(&[5])); // wrong shape
        let restored = restore_into(&mut dst, &src);
        assert_eq!(restored, 1);
        let src_w = src.ids().next().unwrap();
        assert_eq!(dst.value(w).data(), src.value(src_w).data());
    }

    #[test]
    fn checkpoint_size_is_as_expected() {
        let store = sample_store();
        let bytes = save(&store);
        // header 12 + per-param (4 + name + 4 + 8*rank) + 4*scalars
        // + trailing empty section table (4)
        let expected =
            12 + (4 + 2 + 4 + 16) + (4 + 2 + 4 + 8) + (4 + 6 + 4) + 4 * store.num_scalars() + 4;
        assert_eq!(bytes.len(), expected);
    }
}
