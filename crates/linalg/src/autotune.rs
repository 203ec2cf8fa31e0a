//! Persistent per-host ZGEMM autotune table: the record of the tile sweep.
//!
//! The sweep in `bgw-bench`'s `ablation_gemm_tuning` measures every
//! registered microkernel shape x cache-tile candidate per (ISA,
//! shape-class) and persists the winners here, so a second run on the same
//! host sweeps nothing. No GEMM reads the table: `zgemm` runs the ISA's
//! default kernel at fixed tiles, as the paper's production runs use one
//! vendor ZGEMM per platform (Sec. 7.3).
//!
//! The file is versioned JSON (`bgw-autotune/1`), written atomically
//! (tmp + rename, like the checkpoint writer). A corrupt, stale-version or
//! otherwise surprising file loads as "no table" and the sweep starts
//! over. The file is host-specific and always safe to delete.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::gemm::TileParams;
use bgw_num::simd::Isa;
use bgw_trace::report::json;

/// Format tag checked on load; bump on breaking layout changes so stale
/// tables from older builds are re-swept instead of misparsed.
pub const FORMAT: &str = "bgw-autotune/1";

/// Environment variable overriding the table location (tests point it at a
/// scratch file to isolate runs).
pub const PATH_ENV: &str = "BGW_AUTOTUNE_PATH";

/// Coarse problem-shape bucket keyed alongside the ISA, by the effective
/// cubic dimension `cbrt(m*k*n)`; the sweep times each at
/// [`ShapeClass::representative_dim`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ShapeClass {
    /// Effective dimension below 96: panel fits in L2, tiling barely
    /// matters.
    Small,
    /// Effective dimension 96..=224: the crossover region the tile sweep
    /// cares most about.
    Moderate,
    /// Effective dimension above 224: streaming regime, big `kc`/`nc`
    /// win.
    Large,
}

impl ShapeClass {
    /// Stable lowercase name used in the table file and benchmark JSON.
    pub fn name(self) -> &'static str {
        match self {
            ShapeClass::Small => "small",
            ShapeClass::Moderate => "moderate",
            ShapeClass::Large => "large",
        }
    }

    /// Inverse of [`ShapeClass::name`]; `None` for unknown strings.
    pub fn from_name(s: &str) -> Option<ShapeClass> {
        match s {
            "small" => Some(ShapeClass::Small),
            "moderate" => Some(ShapeClass::Moderate),
            "large" => Some(ShapeClass::Large),
            _ => None,
        }
    }

    /// Every class, small to large.
    pub fn all() -> [ShapeClass; 3] {
        [ShapeClass::Small, ShapeClass::Moderate, ShapeClass::Large]
    }

    /// A representative square dimension for sweeping this class.
    pub fn representative_dim(self) -> usize {
        match self {
            ShapeClass::Small => 64,
            ShapeClass::Moderate => 160,
            ShapeClass::Large => 384,
        }
    }
}

/// Winning configuration for one (ISA, shape-class) bucket.
#[derive(Clone, Debug, PartialEq)]
pub struct AutotuneEntry {
    /// Register-tile rows of the winning microkernel.
    pub mr: usize,
    /// Register-tile columns of the winning microkernel.
    pub nr: usize,
    /// Winning cache tiles.
    pub tiles: TileParams,
    /// Measured throughput of the winner, for reporting only.
    pub gflops: f64,
}

/// The persisted table: winners keyed by (ISA, shape class). `BTreeMap`
/// keeps the serialized entry order deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AutotuneTable {
    entries: BTreeMap<(Isa, ShapeClass), AutotuneEntry>,
}

impl AutotuneTable {
    /// An empty table.
    pub fn new() -> AutotuneTable {
        AutotuneTable::default()
    }

    /// Number of stored winners.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no winners are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Winner for one (ISA, shape-class) bucket.
    pub fn get(&self, isa: Isa, class: ShapeClass) -> Option<&AutotuneEntry> {
        self.entries.get(&(isa, class))
    }

    /// Records (or replaces) the winner for one bucket.
    pub fn set(&mut self, isa: Isa, class: ShapeClass, entry: AutotuneEntry) {
        self.entries.insert((isa, class), entry);
    }

    /// Iterates stored winners in deterministic key order.
    pub fn iter(&self) -> impl Iterator<Item = (&(Isa, ShapeClass), &AutotuneEntry)> {
        self.entries.iter()
    }

    /// Serializes to the versioned JSON format. Throughput is stored as
    /// integer milli-GFLOP/s (the table format, like the run reports,
    /// keeps to integer JSON numbers).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"format\": {},\n", json::quote(FORMAT)));
        out.push_str("  \"entries\": [\n");
        let mut first = true;
        for (&(isa, class), e) in &self.entries {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "    {{\"isa\": {}, \"class\": {}, \"mr\": {}, \"nr\": {}, \"mc\": {}, \"kc\": {}, \"nc\": {}, \"mgflops\": {}}}",
                json::quote(isa.name()),
                json::quote(class.name()),
                e.mr,
                e.nr,
                e.tiles.mc,
                e.tiles.kc,
                e.tiles.nc,
                (e.gflops * 1000.0).round().max(0.0) as u64,
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses a table file. Returns `None` for anything unexpected —
    /// malformed JSON, wrong/missing format tag — and silently skips
    /// individual entries with unknown ISA/class names or implausible
    /// dimensions (a stale table loads with fewer entries, never panics).
    pub fn parse(text: &str) -> Option<AutotuneTable> {
        let doc = json::parse(text).ok()?;
        let obj = doc.as_object()?;
        if json::get(obj, "format")?.as_str()? != FORMAT {
            return None;
        }
        let mut table = AutotuneTable::new();
        for item in json::get(obj, "entries")?.as_array()? {
            let e = match item.as_object() {
                Some(e) => e,
                None => continue,
            };
            let parsed = (|| {
                let isa = Isa::from_name(json::get(e, "isa")?.as_str()?)?;
                let class = ShapeClass::from_name(json::get(e, "class")?.as_str()?)?;
                let dim = |key: &str| -> Option<usize> {
                    let v = json::get(e, key)?.as_u64()? as usize;
                    (1..=65536).contains(&v).then_some(v)
                };
                let entry = AutotuneEntry {
                    mr: dim("mr")?,
                    nr: dim("nr")?,
                    tiles: TileParams {
                        mc: dim("mc")?,
                        kc: dim("kc")?,
                        nc: dim("nc")?,
                    },
                    gflops: json::get(e, "mgflops")?.as_u64()? as f64 / 1000.0,
                };
                Some((isa, class, entry))
            })();
            if let Some((isa, class, entry)) = parsed {
                table.set(isa, class, entry);
            }
        }
        Some(table)
    }
}

/// Resolves the table path: [`PATH_ENV`] override, else
/// `$XDG_CACHE_HOME/bgw-autotune.json`, else `$HOME/.cache/...`, else the
/// current directory.
pub fn default_path() -> PathBuf {
    if let Ok(p) = std::env::var(PATH_ENV) {
        if !p.is_empty() {
            return PathBuf::from(p);
        }
    }
    if let Ok(cache) = std::env::var("XDG_CACHE_HOME") {
        if !cache.is_empty() {
            return Path::new(&cache).join("bgw-autotune.json");
        }
    }
    if let Ok(home) = std::env::var("HOME") {
        if !home.is_empty() {
            return Path::new(&home).join(".cache").join("bgw-autotune.json");
        }
    }
    PathBuf::from("bgw-autotune.json")
}

/// Loads a table from `path`; `None` on any read or parse problem.
pub fn load(path: &Path) -> Option<AutotuneTable> {
    AutotuneTable::parse(&std::fs::read_to_string(path).ok()?)
}

/// Atomically persists `table` to `path` (unique sibling tmp file, then
/// rename — a concurrent reader sees the old table or the new one, never
/// a torn write). Creates parent directories as needed.
pub fn save(path: &Path, table: &AutotuneTable) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, table.to_json())?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AutotuneTable {
        let mut t = AutotuneTable::new();
        t.set(
            Isa::Scalar,
            ShapeClass::Moderate,
            AutotuneEntry {
                mr: 4,
                nr: 4,
                tiles: TileParams {
                    mc: 48,
                    kc: 192,
                    nc: 192,
                },
                gflops: 3.125,
            },
        );
        t.set(
            Isa::Avx512,
            ShapeClass::Large,
            AutotuneEntry {
                mr: 8,
                nr: 8,
                tiles: TileParams {
                    mc: 96,
                    kc: 384,
                    nc: 384,
                },
                gflops: 55.5,
            },
        );
        t
    }

    #[test]
    fn roundtrips_through_json() {
        let t = sample();
        let parsed = AutotuneTable::parse(&t.to_json()).expect("own output must parse");
        assert_eq!(parsed, t);
    }

    #[test]
    fn corrupt_and_stale_inputs_fall_back_to_none() {
        assert_eq!(AutotuneTable::parse(""), None);
        assert_eq!(AutotuneTable::parse("not json at all {"), None);
        assert_eq!(
            AutotuneTable::parse("{\"entries\": []}"),
            None,
            "missing format tag"
        );
        let stale = sample().to_json().replace(FORMAT, "bgw-autotune/0");
        assert_eq!(
            AutotuneTable::parse(&stale),
            None,
            "stale version must be rejected"
        );
    }

    #[test]
    fn unknown_entries_are_skipped_not_fatal() {
        let text = format!(
            "{{\"format\": {q}, \"entries\": [\
               {{\"isa\": \"sve\", \"class\": \"large\", \"mr\": 4, \"nr\": 4, \"mc\": 64, \"kc\": 128, \"nc\": 256, \"mgflops\": 1000}},\
               {{\"isa\": \"scalar\", \"class\": \"small\", \"mr\": 4, \"nr\": 4, \"mc\": 0, \"kc\": 128, \"nc\": 256, \"mgflops\": 1000}},\
               {{\"isa\": \"scalar\", \"class\": \"small\", \"mr\": 4, \"nr\": 4, \"mc\": 64, \"kc\": 128, \"nc\": 256, \"mgflops\": 2500}}\
             ]}}",
            q = json::quote(FORMAT)
        );
        let t = AutotuneTable::parse(&text).expect("valid envelope");
        assert_eq!(t.len(), 1, "unknown ISA and zero tile entries are dropped");
        let e = t
            .get(Isa::Scalar, ShapeClass::Small)
            .expect("good entry kept");
        assert!((e.gflops - 2.5).abs() < 1e-12);
    }

    #[test]
    fn save_load_roundtrip_is_atomic_and_creates_dirs() {
        let dir = std::env::temp_dir().join(format!("bgw-autotune-test-{}", std::process::id()));
        let path = dir.join("nested").join("table.json");
        let t = sample();
        save(&path, &t).expect("save");
        assert_eq!(load(&path), Some(t.clone()));
        // Overwrite must not leave tmp droppings behind.
        save(&path, &t).expect("re-save");
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(leftovers, vec![std::ffi::OsString::from("table.json")]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
