//! `report`: regenerates EXPERIMENTS.md from the JSON rows in the
//! results directory. Each artefact renders its own section (see
//! [`crate::COMMANDS`]); this module owns the file around them.
//!
//! Only the generated region is rewritten: everything from [`MARKER`]
//! on is hand-written evidence and is kept byte-for-byte.

use std::fmt::Write as _;
use std::path::Path;

use serde_json::Value;

use crate::{output, Args, Report, COMMANDS};

/// The line that closes the generated region of EXPERIMENTS.md.
pub const MARKER: &str =
    "<!-- end of `ring-bench report` output: everything below is hand-written and kept -->";

const INTRO: &str = "# EXPERIMENTS — paper vs. measured

Regenerated by `cargo run --release -p ring-bench -- report` from the
JSON rows in `results/`, which `ring-bench all` produces. `report`
rewrites only the sections above its end-of-output marker; the
hand-written sections after it are kept as they are. Absolute
numbers come from a **simulated RDMA fabric inside one process** (see
DESIGN.md §2) running on whatever host executes the suite — on a small
(2-core) host the medians carry substantial scheduler noise. The claims
under reproduction are therefore the *shapes*: orderings, ratios, and
trends, noted per experiment.

";

/// The generated region: the intro and every artefact's section,
/// rendered from the rows in `results`.
pub fn render(results: &Path) -> String {
    let mut md = INTRO.to_string();
    for report in COMMANDS.iter().filter_map(|c| c.report) {
        section(&mut md, report, results);
    }
    md
}

/// Appends one artefact's section, closed by `_missing_` when its
/// rows are.
pub fn section(md: &mut String, report: Report, results: &Path) {
    if report(md, results).is_none() {
        let _ = writeln!(md, "_missing_\n");
    }
}

/// Rewrites the generated region of the markdown file `md` from
/// `results`, keeping everything from [`MARKER`] on. Refuses to touch
/// an existing file that has no marker rather than drop its contents.
pub fn regenerate(results: &Path, md: &Path) -> Result<(), String> {
    let kept = match std::fs::read_to_string(md) {
        Ok(old) => match old.find(MARKER) {
            Some(at) => old[at + MARKER.len()..].to_string(),
            None => return Err(format!("{} has no marker line `{MARKER}`", md.display())),
        },
        Err(_) => "\n".to_string(),
    };
    std::fs::write(md, render(results) + MARKER + &kept).map_err(|e| e.to_string())
}

/// The `report` subcommand.
pub fn run(args: &Args) -> i32 {
    let md = args
        .out
        .clone()
        .unwrap_or_else(|| output::repo_root().join("EXPERIMENTS.md"));
    let result = regenerate(&output::results_dir(), &md);
    match &result {
        Ok(()) => println!("{} regenerated.", md.display()),
        Err(e) => eprintln!("report: {e}"),
    }
    i32::from(result.is_err())
}

/// The rows `results/<name>.json` holds, if it parses.
pub fn load(results: &Path, name: &str) -> Option<Value> {
    let text = std::fs::read_to_string(results.join(format!("{name}.json"))).ok()?;
    serde_json::from_str(&text).ok()
}

/// Numeric field at the dotted `path` of `v` (`"put.median_us"`), NaN
/// when absent.
pub fn f(v: &Value, path: &str) -> f64 {
    let field = path.split('.').try_fold(v, |v, key| v.get(key));
    field.and_then(Value::as_f64).unwrap_or(f64::NAN)
}

/// String field `key` of `v`, `?` when absent.
pub fn s<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or("?")
}

/// The rows of a JSON array (none for anything else).
pub fn rows(v: &Value) -> &[Value] {
    v.as_array().map(|a| a.as_slice()).unwrap_or(&[])
}

/// Field `path` of the first row `pick` accepts, NaN when none does.
pub fn find(v: &Value, pick: impl Fn(&Value) -> bool, path: &str) -> f64 {
    rows(v)
        .iter()
        .find(|r| pick(r))
        .map_or(f64::NAN, |r| f(r, path))
}

/// Median of the `field` latency summary on the row whose `scheme_key`
/// is `scheme` at object size `size`.
pub fn med_at(v: &Value, scheme_key: &str, scheme: &str, size: u64, field: &str) -> f64 {
    let pick = |r: &Value| s(r, scheme_key) == scheme && r["size"].as_u64() == Some(size);
    find(v, pick, &format!("{field}.median_us"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::{repo_root, scratch_dir};

    /// The committed EXPERIMENTS.md's generated region is exactly what
    /// the committed rows render to: every artefact's writer and its
    /// section's reader agree on the row keys.
    #[test]
    fn committed_rows_render_the_committed_region() {
        let md = std::fs::read_to_string(repo_root().join("EXPERIMENTS.md")).unwrap();
        let (region, _) = md
            .split_once(MARKER)
            .expect("EXPERIMENTS.md has the marker");
        assert_eq!(render(&repo_root().join("results")), region);
    }

    #[test]
    fn every_section_renders_missing_without_rows() {
        let empty = scratch_dir("report-empty");
        for c in &COMMANDS {
            if let Some(report) = c.report {
                let mut md = String::new();
                section(&mut md, report, &empty);
                assert!(md.ends_with("_missing_\n\n"), "{}: {md}", c.name);
            }
        }
        let _ = std::fs::remove_dir_all(empty);
    }

    #[test]
    fn regenerate_keeps_what_follows_the_marker() {
        let dir = scratch_dir("report-keep");
        let md = dir.join("EXPERIMENTS.md");
        let tail = "\n\n## Hand-written\n\nmeasured by hand, kept byte-for-byte  \n";
        std::fs::write(&md, format!("stale region\n{MARKER}{tail}")).unwrap();
        regenerate(&dir, &md).unwrap();
        assert_eq!(
            std::fs::read_to_string(&md).unwrap(),
            format!("{}{MARKER}{tail}", render(&dir))
        );

        // Without a marker nothing is known to be generated: refuse.
        std::fs::write(&md, "## Hand-written only\n").unwrap();
        assert!(regenerate(&dir, &md).is_err());
        assert_eq!(
            std::fs::read_to_string(&md).unwrap(),
            "## Hand-written only\n"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}
