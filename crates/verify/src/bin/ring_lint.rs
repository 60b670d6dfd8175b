//! `ring-lint` — workspace linter for Ring protocol invariants.
//!
//! Usage:
//!
//! ```text
//! ring-lint --workspace [--json] [--root PATH]
//! ring-lint [--det] [--allowlist PATH] [--tla SPEC] [--json] FILE...
//! ```
//!
//! `--workspace` discovers every `.rs` under `crates/*/src` (shims and
//! test trees exempt) and applies path-based deterministic scoping.
//! Explicit-file mode is used by the fixture tests: `--det` marks the
//! files as deterministic-path, `--allowlist` points at a
//! relaxed-ordering allowlist (default: none), `--tla` at a TLA+ spec
//! for the model-drift rule.
//!
//! Every file is parsed and all nine rules run; a file that does not
//! parse is an error (exit 2), never a partial verdict.
//!
//! Stale-suppression warnings go to stderr and never affect the exit
//! code.
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/IO/parse error.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ring_verify::{rules, to_json, Workspace, RELAXED_ALLOWLIST};

struct Args {
    workspace: bool,
    json: bool,
    det: bool,
    root: PathBuf,
    allowlist: Option<PathBuf>,
    tla: Option<PathBuf>,
    files: Vec<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ring-lint --workspace [--json] [--root PATH]\n\
         \u{20}      ring-lint [--det] [--allowlist PATH] [--tla SPEC] [--json] FILE..."
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut args = Args {
        workspace: false,
        json: false,
        det: false,
        root: PathBuf::from("."),
        allowlist: None,
        tla: None,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => args.workspace = true,
            "--json" => args.json = true,
            "--det" => args.det = true,
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or_else(usage)?);
            }
            "--allowlist" => {
                args.allowlist = Some(PathBuf::from(it.next().ok_or_else(usage)?));
            }
            "--tla" => {
                args.tla = Some(PathBuf::from(it.next().ok_or_else(usage)?));
            }
            "--help" | "-h" => {
                return Err(usage());
            }
            f if !f.starts_with('-') => args.files.push(f.to_string()),
            _ => return Err(usage()),
        }
    }
    if args.workspace == args.files.is_empty() {
        // Exactly one of --workspace / explicit files must be given.
        Ok(args)
    } else {
        Err(usage())
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };

    let ws = if args.workspace {
        let root = find_workspace_root(&args.root);
        match Workspace::discover(&root) {
            Ok(ws) => ws,
            Err(e) => {
                eprintln!("ring-lint: failed to scan {}: {e}", root.display());
                return ExitCode::from(2);
            }
        }
    } else {
        let allowlist = match &args.allowlist {
            Some(p) => match rules::load_relaxed_allowlist(p) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("ring-lint: failed to read allowlist {}: {e}", p.display());
                    return ExitCode::from(2);
                }
            },
            None => BTreeSet::new(),
        };
        let ws = Workspace::explicit(&args.root, args.files.clone(), args.det, allowlist);
        match &args.tla {
            Some(p) => match std::fs::read_to_string(p) {
                Ok(text) => ws.with_tla_actions(rules::parse_tla_actions(&text)),
                Err(e) => {
                    eprintln!("ring-lint: failed to read spec {}: {e}", p.display());
                    return ExitCode::from(2);
                }
            },
            None => ws,
        }
    };

    let outcome = match ws.run() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ring-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let diags = outcome.diagnostics;
    for w in &outcome.warnings {
        eprintln!("ring-lint: warning: {w}");
    }

    if args.json {
        print!("{}", to_json(&diags));
    } else {
        for d in &diags {
            println!("{d}");
        }
        if diags.is_empty() {
            eprintln!(
                "ring-lint: {} files clean ({} rules)",
                ws.files().len(),
                rules::ALL_RULES.len()
            );
        } else {
            eprintln!("ring-lint: {} finding(s)", diags.len());
        }
    }

    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Walks up from `start` to the directory containing the workspace's
/// `Cargo.toml` + allowlist (so `cargo run -p ring-verify` works from
/// any subdirectory).
fn find_workspace_root(start: &Path) -> PathBuf {
    let mut dir = start.canonicalize().unwrap_or_else(|_| start.to_path_buf());
    loop {
        if dir.join(RELAXED_ALLOWLIST).is_file()
            || (dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir())
        {
            return dir;
        }
        match dir.parent() {
            Some(p) => dir = p.to_path_buf(),
            None => return start.to_path_buf(),
        }
    }
}
