//! CLI driver for the declarative experiment registry.
//!
//! ```text
//! experiments list
//! experiments run <name>|all [--profile smoke|full] [--seed N] [--out DIR] [--quiet]
//! experiments validate <DIR|FILE>
//! ```
//!
//! `run` executes named experiments and writes per-figure JSON/CSV
//! artifacts plus a summary under `<out>/<experiment>/`. `run all` skips
//! wall-clock (`timing`) specs — those only run when named. `validate`
//! checks every `.json` artifact under a directory (or one artifact
//! file, e.g. `BENCH_scale.json`) against the `iorch-exp/v1` schema
//! (required keys, finite numbers, nonzero sample counts) — the tier-1
//! gate runs a smoke sweep and then validates it.
//!
//! `run` is also the only writer of the repo-root artifacts of the
//! experiment families listed in `ROOT_ARTIFACTS`: at the committed
//! profile and seed (`smoke`, `ROOT_SEED`), the figure whose id is the
//! spec name goes to `BENCH_<name>.json`. A run at any other profile or
//! seed leaves those committed files alone, and so do library calls (the
//! test suites).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use iorch_bench::exp::{self, gate, Profile};

/// Specs whose figure is also committed at the repo root.
const ROOT_ARTIFACTS: [&str; 2] = ["cluster", "scale"];
/// Seed of the committed root artifacts (their profile is smoke).
const ROOT_SEED: u64 = 42;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  experiments list\n  experiments run <name>|all [--profile smoke|full] \
         [--seed N] [--out DIR] [--quiet]\n  experiments validate <DIR|FILE>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            for s in exp::registry() {
                println!("{:<16} {}", s.name, s.title);
            }
            ExitCode::SUCCESS
        }
        Some("run") => run(&args[1..]),
        Some("validate") => match args.get(1) {
            Some(dir) => validate(Path::new(dir)),
            None => usage(),
        },
        _ => usage(),
    }
}

fn run(args: &[String]) -> ExitCode {
    let Some(name) = args.first() else {
        return usage();
    };
    let mut profile = Profile::Smoke;
    let mut seed = 42u64;
    let mut out = PathBuf::from("target/experiments");
    let mut quiet = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--profile" => {
                i += 1;
                match args.get(i).map(String::as_str).and_then(Profile::parse) {
                    Some(p) => profile = p,
                    None => return usage(),
                }
            }
            "--seed" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(v) => seed = v,
                    None => return usage(),
                }
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(v) => out = PathBuf::from(v),
                    None => return usage(),
                }
            }
            "--quiet" => quiet = true,
            _ => return usage(),
        }
        i += 1;
    }
    let specs: Vec<&exp::Spec> = if name == "all" {
        // Timing specs measure wall clock and are not byte-deterministic;
        // they only run when named explicitly (tier1 names them).
        exp::registry().iter().filter(|s| !s.timing).collect()
    } else {
        match exp::find(name) {
            Some(s) => vec![s],
            None => {
                eprintln!("unknown experiment {name:?}; `experiments list` shows the registry");
                return ExitCode::FAILURE;
            }
        }
    };
    for spec in specs {
        if !quiet {
            println!(
                "== {} [{} profile, seed {seed}] ==",
                spec.title,
                profile.name()
            );
        }
        let figures = match exp::run_spec(spec, profile, seed, &out, quiet) {
            Ok(figures) => figures,
            Err(e) => {
                eprintln!("{}: artifact write failed: {e}", spec.name);
                return ExitCode::FAILURE;
            }
        };
        if ROOT_ARTIFACTS.contains(&spec.name) && profile == Profile::Smoke && seed == ROOT_SEED {
            let fig = figures
                .iter()
                .find(|f| f.id == spec.name)
                .unwrap_or_else(|| panic!("{}: no figure with the spec's id", spec.name));
            let file = format!("BENCH_{}.json", spec.name);
            let path = gate::write_root_artifact(&file, fig, spec.name, profile.name(), seed);
            println!("wrote {}", path.display());
        }
    }
    println!("artifacts: {}", out.display());
    ExitCode::SUCCESS
}

fn validate(dir: &Path) -> ExitCode {
    let mut files = Vec::new();
    if dir.is_file() {
        // Single-artifact mode, e.g. `experiments validate BENCH_scale.json`.
        files.push(dir.to_path_buf());
    } else if let Err(e) = collect_json(dir, &mut files) {
        eprintln!("cannot read {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    files.sort();
    if files.is_empty() {
        eprintln!("no .json artifacts under {}", dir.display());
        return ExitCode::FAILURE;
    }
    let mut bad = 0;
    for f in &files {
        let text = match std::fs::read_to_string(f) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("FAIL {}: {e}", f.display());
                bad += 1;
                continue;
            }
        };
        match exp::validate_artifact(&text) {
            Ok(()) => {}
            Err(e) => {
                eprintln!("FAIL {}: {e}", f.display());
                bad += 1;
            }
        }
    }
    println!(
        "validated {} artifacts under {}: {} bad",
        files.len(),
        dir.display(),
        bad
    );
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn collect_json(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_json(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "json") {
            out.push(path);
        }
    }
    Ok(())
}
