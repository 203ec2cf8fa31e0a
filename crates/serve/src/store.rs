//! The on-disk artifact store: content-hash keys to checksummed BGWR
//! checkpoint records.
//!
//! Every record (`art_<hex16>.bgwr`) is a screening (stage
//! `WScreening`); a batch's Sigma rows live in memory for its one step,
//! so the store holds nothing else. Writes go
//! through `bgw_io::write_checkpoint_file` (tmp + rename, so a torn write leaves
//! either the old artifact or a `.tmp` residue, never a half-written
//! record under the live name). Any load failure — missing file, bad
//! header, checksum mismatch — degrades to `None` (a recompute), counted
//! on `serve_store_invalid`.
//!
//! The file name's 64-bit FNV-1a digest is only a lookup address, not the
//! record's identity: every save appends the canonical [`KeySpec`] string
//! (byte-per-f64, tagged and length-framed) to the checkpoint's
//! checksummed `meta`, and every load strips it back out and compares it
//! to the requesting spec's canonical string. A digest collision between
//! two distinct parameter sets therefore degrades to a recompute, never a
//! wrong hit — the full spec is compared, not its hash.
//!
//! [`KeySpec`]: crate::key::KeySpec

use crate::key::ArtifactKey;
use bgw_io::{read_checkpoint_file, write_checkpoint_file, Checkpoint, IoError};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Sentinel closing the spec suffix in a record's meta ("BGWSPEC1" as an
/// f64 bit pattern — compared by bits, never arithmetically).
const SPEC_MAGIC_BITS: u64 = 0x4247_5753_5045_4331;

/// Appends the canonical spec string to `meta`: one byte per f64, then
/// the byte count, then the closing sentinel.
fn push_spec_suffix(meta: &mut Vec<f64>, canonical: &str) {
    meta.reserve(canonical.len() + 2);
    meta.extend(canonical.bytes().map(|b| b as f64));
    meta.push(canonical.len() as f64);
    meta.push(f64::from_bits(SPEC_MAGIC_BITS));
}

/// Strips the spec suffix from `meta` and returns the embedded canonical
/// string; `None` if the suffix is absent or malformed.
fn pop_spec_suffix(meta: &mut Vec<f64>) -> Option<String> {
    let n = meta.len();
    if n < 2 || meta[n - 1].to_bits() != SPEC_MAGIC_BITS {
        return None;
    }
    // The length is read off disk and `as usize` saturates, so bound it
    // by the n - 2 values it can frame before it becomes an index.
    let len_f = meta[n - 2];
    if !(len_f.fract() == 0.0 && (0.0..=(n - 2) as f64).contains(&len_f)) {
        return None;
    }
    let len = len_f as usize;
    let mut bytes = Vec::with_capacity(len);
    for &v in &meta[n - 2 - len..n - 2] {
        if !(v.is_finite() && (0.0..=255.0).contains(&v) && v.fract() == 0.0) {
            return None;
        }
        bytes.push(v as u8);
    }
    let spec = String::from_utf8(bytes).ok()?;
    meta.truncate(n - 2 - len);
    Some(spec)
}

/// Process-shared bookkeeping behind a store directory: pins held by
/// in-flight batches and an access clock for oldest-access-first GC.
/// Cloned [`ArtifactStore`]s — one per dispatcher shard over the same
/// directory — share this state, so a GC pass on any shard sees every
/// shard's pins.
#[derive(Debug, Default)]
struct StoreShared {
    state: Mutex<StoreState>,
}

#[derive(Debug, Default)]
struct StoreState {
    /// Keys owned by an in-flight batch (refcounted; GC never touches).
    pins: HashMap<u64, usize>,
    /// Last-access sequence per key: the GC eviction order. Keys never
    /// accessed this process (stale files from an earlier run) sort
    /// oldest.
    access: HashMap<u64, u64>,
    tick: u64,
}

fn lock_state(shared: &StoreShared) -> MutexGuard<'_, StoreState> {
    // Bookkeeping survives a panicked shard: the maps are always
    // internally consistent (every mutation is a single insert/remove),
    // so recover the guard instead of propagating the poison.
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// RAII pin on one store key: while alive, GC will not reclaim the
/// key's artifact. Held by a dispatcher shard for the duration of one
/// batch.
pub struct StorePin {
    shared: Arc<StoreShared>,
    key: u64,
}

impl Drop for StorePin {
    fn drop(&mut self) {
        let mut st = lock_state(&self.shared);
        if let Some(n) = st.pins.get_mut(&self.key) {
            *n -= 1;
            if *n == 0 {
                st.pins.remove(&self.key);
            }
        }
    }
}

/// One store-GC pass's outcome.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Store bytes before the pass.
    pub bytes_before: u64,
    /// Store bytes after the pass.
    pub bytes_after: u64,
    /// Artifact records reclaimed by the byte budget.
    pub removed_artifacts: usize,
}

/// Parses an `art_<hex16>.bgwr` file name into its key.
fn parse_entry(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("art_")?.strip_suffix(".bgwr")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// A directory of content-hash-keyed BGWR artifact records.
#[derive(Clone, Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    shared: Arc<StoreShared>,
}

impl ArtifactStore {
    /// A store rooted at `dir` (created lazily on first write). Clones
    /// share the pin/access bookkeeping — shards over one
    /// directory must clone one store, not call `new` repeatedly.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            shared: Arc::new(StoreShared::default()),
        }
    }

    fn touch(&self, key: ArtifactKey) {
        let mut st = lock_state(&self.shared);
        st.tick += 1;
        let tick = st.tick;
        st.access.insert(key.0, tick);
    }

    /// Pins `key` against GC for the guard's lifetime (an in-flight
    /// batch's screening is never reclaimed under it).
    pub fn pin(&self, key: ArtifactKey) -> StorePin {
        let mut st = lock_state(&self.shared);
        *st.pins.entry(key.0).or_insert(0) += 1;
        StorePin {
            shared: self.shared.clone(),
            key: key.0,
        }
    }

    /// Total bytes of artifact records currently on disk.
    pub fn disk_bytes(&self) -> u64 {
        self.scan().iter().map(|(_, sz, _)| sz).sum()
    }

    /// Scans the directory: `(key, bytes, path)` per record.
    fn scan(&self) -> Vec<(u64, u64, PathBuf)> {
        let Ok(rd) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for entry in rd.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(key) = parse_entry(name) else {
                continue;
            };
            let Ok(meta) = entry.metadata() else { continue };
            out.push((key, meta.len(), entry.path()));
        }
        // Deterministic order regardless of read_dir order.
        out.sort_by_key(|a| a.0);
        out
    }

    /// One garbage-collection pass over the store directory: if
    /// `budget_bytes > 0` and the records exceed it, reclaims files
    /// oldest-access-first until the store fits the budget — but never a
    /// record pinned by an in-flight batch. Reclaiming a live artifact is
    /// always safe (the next request recomputes and rewrites); the budget
    /// is a size cap, not a correctness boundary.
    pub fn gc(&self, budget_bytes: u64) -> GcReport {
        let _s = bgw_trace::span!("serve.store.gc");
        // Hold the state lock across the whole pass: a shard trying to
        // pin mid-GC blocks until the pass finishes, so "pinned" can
        // never race with "being reclaimed".
        let st = lock_state(&self.shared);
        let mut report = GcReport::default();
        let mut files = self.scan();
        let mut total: u64 = files.iter().map(|(_, sz, _)| sz).sum();
        report.bytes_before = total;
        if budget_bytes > 0 && total > budget_bytes {
            // Oldest access first; never-accessed (stale from an earlier
            // process) sorts oldest. Ties break on the scan order, which
            // is itself deterministic.
            files.sort_by_key(|(key, _, _)| st.access.get(key).copied().unwrap_or(0));
            for (key, sz, path) in &files {
                if total <= budget_bytes {
                    break;
                }
                if st.pins.contains_key(key) {
                    continue;
                }
                if std::fs::remove_file(path).is_err() {
                    continue;
                }
                total -= sz;
                report.removed_artifacts += 1;
                bgw_perf::counters::record_serve_gc(1, *sz);
            }
        }
        report.bytes_after = total;
        report
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the artifact record for `key`.
    pub fn artifact_path(&self, key: ArtifactKey) -> PathBuf {
        self.dir.join(format!("art_{}.bgwr", key.hex()))
    }

    /// Atomically writes the artifact record for `key`, embedding the
    /// key's canonical spec string in the checksummed meta; returns bytes.
    pub fn save(
        &self,
        key: ArtifactKey,
        canonical: &str,
        mut ckpt: Checkpoint,
    ) -> Result<u64, IoError> {
        let _s = bgw_trace::span!("serve.store.save");
        self.touch(key);
        push_spec_suffix(&mut ckpt.meta, canonical);
        write_checkpoint_file(&self.artifact_path(key), &ckpt)
    }

    /// Loads and verifies the artifact for `key`: the checksummed read
    /// must succeed *and* the record's embedded spec string must equal
    /// `canonical` (the requesting key's canonical form). A missing file
    /// is an ordinary miss (`None`, uncounted); a *present but unusable*
    /// record — torn write residue, corruption, wrong format, or a digest
    /// collision with a different parameter set — also returns `None` but
    /// bumps the `serve_store_invalid` counter: the cache degrades to a
    /// recompute, never a wrong hit.
    pub fn load(&self, key: ArtifactKey, canonical: &str) -> Option<Checkpoint> {
        let _s = bgw_trace::span!("serve.store.load");
        self.touch(key);
        let path = self.artifact_path(key);
        if !path.exists() {
            return None;
        }
        let mut ck = match read_checkpoint_file(&path) {
            Ok(ck) => ck,
            Err(_) => {
                bgw_perf::counters::record_serve_store_invalid();
                return None;
            }
        };
        match pop_spec_suffix(&mut ck.meta) {
            Some(spec) if spec == canonical => Some(ck),
            _ => {
                bgw_perf::counters::record_serve_store_invalid();
                None
            }
        }
    }

    /// True when an artifact record exists for `key` (readable or not).
    pub fn contains(&self, key: ArtifactKey) -> bool {
        self.artifact_path(key).exists()
    }

    /// Removes the artifact for `key`, if present. Deleting store entries
    /// is always safe: the next request recomputes and rewrites.
    pub fn remove(&self, key: ArtifactKey) {
        let _ = std::fs::remove_file(self.artifact_path(key));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("bgw_serve_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn sample() -> Checkpoint {
        Checkpoint {
            stage: 5,
            step: 0,
            meta: vec![0.0],
            matrices: vec![bgw_linalg::CMatrix::zeros(2, 2)],
        }
    }

    const SPEC: &str = "ecut_centi_ry=i220;mode=sgpp;n_bands=i24";

    #[test]
    fn save_load_roundtrip_and_remove() {
        let store = ArtifactStore::new(tmpdir("rt"));
        let key = ArtifactKey(0xabcd);
        assert!(store.load(key, SPEC).is_none(), "empty store misses");
        assert!(!store.contains(key));
        store.save(key, SPEC, sample()).expect("save");
        assert!(store.contains(key));
        let back = store.load(key, SPEC).expect("load");
        assert_eq!(back.stage, 5);
        assert_eq!(back.meta, vec![0.0], "spec suffix stripped on load");
        assert_eq!(back.matrices.len(), 1);
        store.remove(key);
        assert!(!store.contains(key));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_record_degrades_to_miss_and_counts() {
        let store = ArtifactStore::new(tmpdir("corrupt"));
        let key = ArtifactKey(1);
        store.save(key, SPEC, sample()).expect("save");
        // A torn write: one payload byte of the record flipped on disk.
        let path = store.artifact_path(key);
        let mut bytes = std::fs::read(&path).expect("record on disk");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, bytes).expect("rewrite record");
        let before = bgw_perf::counters::snapshot();
        assert!(
            store.load(key, SPEC).is_none(),
            "corrupt record must not load"
        );
        let d = before.delta(&bgw_perf::counters::snapshot());
        assert!(d.serve_store_invalid >= 1);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn key_collision_with_different_spec_degrades_to_recompute() {
        // Two distinct parameter sets landing on the same 64-bit digest
        // (simulated by reusing the key) must never serve each other's
        // physics: the embedded canonical spec disagrees, so the load
        // counts as store-invalid and the caller recomputes.
        let store = ArtifactStore::new(tmpdir("collision"));
        let key = ArtifactKey(0xc0111);
        store.save(key, SPEC, sample()).expect("save");
        let before = bgw_perf::counters::snapshot();
        assert!(
            store.load(key, "ecut_centi_ry=i240;mode=sgpp").is_none(),
            "a colliding key with a different spec must miss"
        );
        let d = before.delta(&bgw_perf::counters::snapshot());
        assert!(d.serve_store_invalid >= 1, "collision must be counted");
        assert!(store.load(key, SPEC).is_some(), "the true owner still hits");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn spec_length_past_the_meta_degrades_to_miss_and_counts() {
        // A checksum-valid record whose spec suffix claims 1e20 bytes: a
        // finite integral length no meta can hold.
        let store = ArtifactStore::new(tmpdir("spec_len"));
        let key = ArtifactKey(2);
        let mut ck = sample();
        ck.meta.extend([1e20, f64::from_bits(SPEC_MAGIC_BITS)]);
        write_checkpoint_file(&store.artifact_path(key), &ck).expect("plant record");
        let before = bgw_perf::counters::snapshot();
        assert!(store.load(key, SPEC).is_none(), "bad spec length must miss");
        let d = before.delta(&bgw_perf::counters::snapshot());
        assert!(d.serve_store_invalid >= 1);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn entry_names_parse_and_reject_noise() {
        assert_eq!(parse_entry("art_000000000000002a.bgwr"), Some(0x2a));
        assert_eq!(parse_entry("partial_00000000000000ff.bgwr"), None);
        assert_eq!(parse_entry("art_2a.bgwr"), None, "short hex");
        assert_eq!(parse_entry("art_000000000000002a.tmp"), None);
        assert_eq!(parse_entry("other_000000000000002a.bgwr"), None);
    }

    #[test]
    fn gc_reclaims_oldest_access_first_and_never_pinned() {
        let store = ArtifactStore::new(tmpdir("gc_budget"));
        let (a, b, c) = (ArtifactKey(10), ArtifactKey(11), ArtifactKey(12));
        store.save(a, SPEC, sample()).unwrap();
        store.save(b, SPEC, sample()).unwrap();
        store.save(c, SPEC, sample()).unwrap();
        // Refresh a's access so b becomes the oldest.
        assert!(store.load(a, SPEC).is_some());
        let per_file = store.disk_bytes() / 3;
        let pin_b = store.pin(b);
        // Budget for two records: GC must skip pinned b and take the
        // oldest unpinned entry (c was saved after b but never re-read;
        // a was re-read last — so c goes).
        let report = store.gc(2 * per_file);
        assert_eq!(report.removed_artifacts, 1);
        assert!(store.disk_bytes() <= 2 * per_file);
        assert!(store.contains(a), "most recently accessed survives");
        assert!(store.contains(b), "pinned survives even though oldest");
        assert!(!store.contains(c), "oldest unpinned entry reclaimed");
        drop(pin_b);
        // With the pin gone and a one-record budget, b (older access
        // than a) is reclaimed next.
        store.gc(per_file);
        assert!(store.contains(a));
        assert!(!store.contains(b));
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
