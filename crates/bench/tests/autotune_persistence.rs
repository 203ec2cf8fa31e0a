//! Autotune persistence across processes: the `repro ablation_gemm_tuning`
//! tuner sweeps and persists a table on its first run, picks it up without
//! re-sweeping on its second, and a different process (this one) resolves
//! `GemmBackend::Tuned` through that file.
//!
//! One test fn in its own binary: it sets `BGW_AUTOTUNE_PATH` for this
//! process before the table's `OnceLock` is first read, which no other test
//! may race.

use bgw_linalg::{autotune, matmul, CMatrix, GemmBackend, Op, TileParams};
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
    assert_eq!(tuner_swept(&table), 0, "second tuner run re-swept");

    // This process has not touched the table yet: point it at the file and
    // resolve Tuned(AUTO) through it.
    std::env::set_var(autotune::PATH_ENV, &table);
    let cached = autotune::cached().expect("persisted table is picked up");
    assert!(!cached.is_empty());
    let n = 160;
    let a = CMatrix::random(n, n, 21);
    let b = CMatrix::random(n, n, 22);
    let want = matmul(&a, Op::None, &b, Op::None, GemmBackend::Naive);
    let got = matmul(
        &a,
        Op::None,
        &b,
        Op::None,
        GemmBackend::Tuned(TileParams::AUTO),
    );
    let diff = got.max_abs_diff(&want);
    assert!(diff <= 1e-12, "Tuned vs Naive: {diff:e}");
    assert_eq!(
        std::fs::read(&table).expect("table still there"),
        persisted,
        "consumers must not rewrite the table"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
