//! Table printing and JSON result persistence.

use std::io::Write;
use std::path::{Path, PathBuf};

/// The repository root (two levels above this crate's manifest).
pub fn repo_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Directory where experiment results are written by default
/// (`<repo>/results`).
pub fn results_dir() -> PathBuf {
    repo_root().join("results")
}

/// Writes a serializable result set to `<dir>/<name>.json` and says
/// so on stdout.
pub fn write_json<T: serde::Serialize>(dir: &Path, name: &str, value: &T) {
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(json) = serde_json::to_string_pretty(value) {
        if let Ok(mut f) = std::fs::File::create(&path) {
            let _ = f.write_all(json.as_bytes());
            let _ = f.write_all(b"\n");
            println!("wrote {}", path.display());
        }
    }
}

/// A fresh, empty directory under the system temp dir (tests).
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ring-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_points_at_repo_root() {
        let d = results_dir();
        assert!(d.ends_with("results"));
        assert_eq!(d.parent(), Some(repo_root().as_path()));
    }

    #[test]
    fn write_json_round_trips() {
        let dir = scratch_dir("write-json");
        write_json(&dir, "unit_test_row", &vec![1, 2, 3]);
        let text = std::fs::read_to_string(dir.join("unit_test_row.json")).unwrap();
        assert_eq!(text.trim(), "[\n  1,\n  2,\n  3\n]");
        let _ = std::fs::remove_dir_all(dir);
    }
}
