//! Autotune persistence across processes: the `repro ablation_gemm_tuning`
//! tuner sweeps and persists a table on its first run, and its second run
//! picks that table up without re-sweeping and without changing a byte of
//! it. The table is the sweep's record; no GEMM reads it.

use bgw_linalg::autotune;
use std::path::Path;
use std::process::Command;

/// Runs the tuner against `table` and returns its `AUTOTUNE_SWEPT` count.
fn tuner_swept(table: &Path) -> usize {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["ablation_gemm_tuning", "--quick", "--autotune-only"])
        .env(autotune::PATH_ENV, table)
        .output()
        .expect("spawn repro ablation_gemm_tuning");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "tuner failed with {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("AUTOTUNE_SWEPT "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no AUTOTUNE_SWEPT line in tuner output:\n{stdout}"))
}

#[test]
fn tuned_table_persists_across_processes() {
    let dir = std::env::temp_dir().join(format!("bgw_autotune_it_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let table = dir.join("autotune.json");

    assert!(tuner_swept(&table) > 0, "first tuner run swept nothing");
    let persisted = std::fs::read(&table).expect("tuner persisted its table");
    let loaded = autotune::load(&table).expect("persisted table parses");
    assert!(!loaded.is_empty());
    assert_eq!(tuner_swept(&table), 0, "second tuner run re-swept");
    assert_eq!(
        std::fs::read(&table).expect("table still there"),
        persisted,
        "a run that swept nothing must not rewrite the table"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
