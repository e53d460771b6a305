//! The committed repo-root artifacts (`BENCH_cluster.json`,
//! `BENCH_scale.json`) hold the smoke profile at seed 42. An `experiments`
//! run at another seed writes its artifacts under `--out` only and must
//! leave the committed file byte-for-byte as it was.

use std::path::Path;
use std::process::Command;

#[test]
fn run_at_another_seed_leaves_the_root_artifact_alone() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_cluster.json");
    let before = std::fs::read(&root).expect("committed BENCH_cluster.json");
    let out = std::env::temp_dir().join(format!("iorch-root-artifacts-{}", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args([
            "run",
            "cluster",
            "--profile",
            "smoke",
            "--seed",
            "1337",
            "--quiet",
        ])
        .arg("--out")
        .arg(&out)
        .status()
        .expect("run the experiments binary");
    let wrote = out.join("cluster").is_dir();
    let _ = std::fs::remove_dir_all(&out);
    assert!(status.success(), "experiments run cluster failed: {status}");
    assert!(wrote, "the run wrote no artifacts under --out");
    let after = std::fs::read(&root).expect("BENCH_cluster.json still present");
    assert!(
        before == after,
        "a seed-1337 run rewrote the committed BENCH_cluster.json"
    );
}
