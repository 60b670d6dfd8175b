//! Static analysis for the Ring workspace.
//!
//! `ring-verify` packages the repo's verification tooling:
//!
//! - **`ring-lint`** (this library + the `ring-lint` binary): a
//!   parsing, cross-crate linter enforcing protocol invariants that
//!   `rustc` and clippy cannot see. Every file is lexed ([`lexer`]) and
//!   parsed into a skeleton tree ([`parse`], [`ast`]); six per-file
//!   rules ([`rules`]) check that deterministic paths read no ambient
//!   time or entropy, no lock guard is held across a fabric send,
//!   `Ordering::Relaxed` is justified in an allowlist, hash tables are
//!   not iterated where ordering feeds protocol decisions, and every
//!   shared protocol step names its TLA+ action; three workspace
//!   passes ([`passes`], over the [`index`]) check lock order, that no
//!   dispatch over `Msg` hides variants behind a wildcard, and
//!   `Payload` deep copies. A file
//!   that does not parse aborts the run ([`LintError::Parse`]) — there
//!   is one engine and no fallback.
//! - **loom models** (`tests/loom.rs`, compiled under
//!   `RUSTFLAGS="--cfg loom"`): schedule-exploration models of the
//!   Mailbox length mirror, Payload sharing, and the coordinator's
//!   commit-flag publish/observe pair.
//! - **Sanitizer wiring**: Miri and TSan CI jobs (see
//!   `.github/workflows/sanitizers.yml`) with suppressions under
//!   `crates/verify/suppressions/`.
//!
//! Findings are suppressed per-line with `// ring-lint: allow(<rule>)`
//! on the offending line or the line above, or file-wide with
//! `// ring-lint: allow-file(<rule>)`.

pub mod ast;
pub mod index;
pub mod lexer;
pub mod parse;
pub mod passes;
pub mod rules;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

pub use rules::Diagnostic;

/// Why a lint run failed before producing a verdict. Maps to exit
/// code 2 in the binary: these are tool failures, not findings.
#[derive(Debug)]
pub enum LintError {
    /// A source file or config file could not be read.
    Io(std::io::Error),
    /// Files the parser could not structurally parse, as
    /// `file:line: message` strings. The workspace golden test keeps
    /// the live tree parseable, so hitting this means either a broken
    /// input file or a parser bug.
    Parse(Vec<String>),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io(e) => write!(f, "{e}"),
            LintError::Parse(fails) => {
                write!(f, "{} file(s) failed to parse:", fails.len())?;
                for fail in fails {
                    write!(f, "\n  {fail}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for LintError {}

impl From<std::io::Error> for LintError {
    fn from(e: std::io::Error) -> Self {
        LintError::Io(e)
    }
}

/// The result of a lint run: findings plus non-fatal hygiene warnings
/// (stale suppressions). Warnings never affect the exit code — they
/// are the linter linting its own suppression surface.
#[derive(Debug)]
pub struct LintOutcome {
    /// Sorted findings.
    pub diagnostics: Vec<Diagnostic>,
    /// Stale-suppression warnings, human-readable, sorted.
    pub warnings: Vec<String>,
}

/// Default workspace-relative location of the relaxed-ordering
/// allowlist.
pub const RELAXED_ALLOWLIST: &str = "crates/verify/relaxed_allowlist.txt";

/// Default workspace-relative location of the TLA+ write-semantics
/// spec, the source of truth for `// tla:` markers (model-drift rule).
pub const TLA_SPEC: &str = "crates/model/specs/RingWriteSemantics.tla";

/// A linting run over a set of files.
pub struct Workspace {
    root: PathBuf,
    /// Workspace-relative paths of files to lint.
    files: Vec<String>,
    relaxed_allowlist: BTreeSet<String>,
    /// Top-level definitions of the TLA+ spec; empty disables the
    /// model-drift rule.
    tla_actions: BTreeSet<String>,
    /// Override: treat all files as deterministic-path (fixture mode).
    force_deterministic: Option<bool>,
}

impl Workspace {
    /// Discovers the standard lint surface under `root`: every `.rs`
    /// file in `crates/*/src` and the repo-level `src/` if present.
    /// Shims (`shims/*`) are vendored stand-ins and are exempt; test
    /// trees (`tests/`, `benches/`) are exempt — the invariants guard
    /// production protocol paths.
    pub fn discover(root: &Path) -> std::io::Result<Self> {
        let mut files = Vec::new();
        let crates = root.join("crates");
        if crates.is_dir() {
            let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates)?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            crate_dirs.sort();
            for dir in crate_dirs {
                collect_rs(&dir.join("src"), root, &mut files)?;
            }
        }
        collect_rs(&root.join("src"), root, &mut files)?;
        files.sort();
        let allowlist_path = root.join(RELAXED_ALLOWLIST);
        let relaxed_allowlist = if allowlist_path.is_file() {
            rules::load_relaxed_allowlist(&allowlist_path)?
        } else {
            BTreeSet::new()
        };
        let spec_path = root.join(TLA_SPEC);
        let tla_actions = if spec_path.is_file() {
            rules::parse_tla_actions(&std::fs::read_to_string(&spec_path)?)
        } else {
            BTreeSet::new()
        };
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
            relaxed_allowlist,
            tla_actions,
            force_deterministic: None,
        })
    }

    /// A run over explicitly listed files (fixture/test mode). Paths
    /// are kept as given; `deterministic` overrides path-based scoping.
    pub fn explicit(
        root: &Path,
        files: Vec<String>,
        deterministic: bool,
        allowlist: BTreeSet<String>,
    ) -> Self {
        Workspace {
            root: root.to_path_buf(),
            files,
            relaxed_allowlist: allowlist,
            tla_actions: BTreeSet::new(),
            force_deterministic: Some(deterministic),
        }
    }

    /// Supplies TLA+ definition names for the model-drift rule
    /// (fixture/test mode; [`Workspace::discover`] reads them from
    /// [`TLA_SPEC`] automatically). In explicit mode every listed file
    /// is treated as a model-mirror file once actions are supplied.
    pub fn with_tla_actions(mut self, actions: BTreeSet<String>) -> Self {
        self.tla_actions = actions;
        self
    }

    /// The files this run will lint (workspace-relative).
    pub fn files(&self) -> &[String] {
        &self.files
    }

    /// Runs every rule over every file. Diagnostics come back sorted by
    /// (file, line, rule).
    pub fn lint(&self) -> Result<Vec<Diagnostic>, LintError> {
        Ok(self.run()?.diagnostics)
    }

    /// Runs every rule over every file, also returning stale-suppression
    /// warnings. Diagnostics come back sorted by (file, line, rule).
    pub fn run(&self) -> Result<LintOutcome, LintError> {
        // Pass 1: lex and parse everything once, collecting hash-typed
        // names per crate so `self.field` iteration is caught across
        // modules. Structural parse errors abort the run — a file the
        // rules cannot see is a false "clean", never a finding.
        let mut sources = Vec::with_capacity(self.files.len());
        for rel in &self.files {
            let src = std::fs::read_to_string(self.root.join(rel))?;
            let lexed = lexer::lex(&src);
            sources.push((rel.as_str(), src, lexed));
        }
        let mut crate_hash_names: std::collections::BTreeMap<String, BTreeSet<String>> =
            std::collections::BTreeMap::new();
        let mut parse_failures = Vec::new();
        let mut trees = Vec::with_capacity(sources.len());
        for (rel, _, lexed) in &sources {
            crate_hash_names
                .entry(crate_of(rel))
                .or_default()
                .extend(rules::collect_hash_names(lexed));
            let tree = parse::parse(lexed);
            for e in &tree.errors {
                parse_failures.push(format!("{rel}:{}: {}", e.line, e.msg));
            }
            trees.push(tree);
        }
        if !parse_failures.is_empty() {
            return Err(LintError::Parse(parse_failures));
        }

        // Pass 2: the per-file rules, recording suppressed hits per
        // file for the stale-suppression check.
        let mut out = Vec::new();
        let mut warnings = Vec::new();
        let mut sups: Vec<Vec<rules::SuppressedHit>> = vec![Vec::new(); sources.len()];
        let empty = BTreeSet::new();
        for (((rel, src, lexed), tree), sup) in sources.iter().zip(&trees).zip(&mut sups) {
            let deterministic = self
                .force_deterministic
                .unwrap_or_else(|| rules::is_deterministic_path(rel));
            // Explicit (fixture) runs opt in by supplying actions;
            // workspace runs are path-scoped.
            let model_mirror = match self.force_deterministic {
                Some(_) => !self.tla_actions.is_empty(),
                None => rules::is_model_mirror_path(rel),
            };
            let ctx = rules::FileContext {
                rel_path: rel,
                raw: src,
                lexed,
                deterministic,
                model_mirror,
                relaxed_allowlisted: self.relaxed_allowlist.contains(*rel),
                hash_names: crate_hash_names.get(&crate_of(rel)).unwrap_or(&empty),
                tla_actions: &self.tla_actions,
            };
            out.extend(rules::lint_file(&ctx, tree, sup));
        }

        // Pass 3: the workspace-level semantic passes — they reason
        // across files, so they run over the whole set.
        let pass_files: Vec<passes::PassFile<'_>> = sources
            .iter()
            .zip(&trees)
            .map(|((rel, _, lexed), tree)| passes::PassFile { rel, lexed, tree })
            .collect();
        let index = index::WorkspaceIndex::build(&pass_files);
        out.extend(passes::run_passes(
            &pass_files,
            &index,
            self.force_deterministic.is_some(),
            &mut sups,
        ));

        let mut files_with_relaxed_sup: BTreeSet<String> = BTreeSet::new();
        for ((rel, _, lexed), sup) in sources.iter().zip(&sups) {
            if sup.iter().any(|&(_, r)| r == rules::RELAXED_ORDERING) {
                files_with_relaxed_sup.insert(rel.to_string());
            }
            stale_directive_warnings(rel, lexed, sup, &mut warnings);
        }
        for entry in &self.relaxed_allowlist {
            if !self.files.contains(entry) {
                warnings.push(format!(
                    "{RELAXED_ALLOWLIST}: stale entry `{entry}` — file is not in the lint set"
                ));
            } else if !files_with_relaxed_sup.contains(entry) {
                warnings.push(format!(
                    "{RELAXED_ALLOWLIST}: stale entry `{entry}` — no `Ordering::Relaxed` \
                     sites remain in the file"
                ));
            }
        }
        out.sort();
        warnings.sort();
        Ok(LintOutcome {
            diagnostics: out,
            warnings,
        })
    }
}

/// Appends a warning for every `// ring-lint: allow(...)` /
/// `allow-file(...)` directive in `lexed` that suppressed nothing this
/// run. A per-line directive is live when a suppressed hit of its rule
/// landed on its own line or the line below (its coverage span); a
/// file-wide directive is live when any hit of its rule was suppressed
/// anywhere in the file. Unknown rule names are skipped (lexer fixtures
/// and doc examples use placeholder names).
fn stale_directive_warnings(
    rel: &str,
    lexed: &lexer::Lexed,
    sup: &[rules::SuppressedHit],
    warnings: &mut Vec<String>,
) {
    for (line, rule, file_wide) in &lexed.directives {
        if !rules::ALL_RULES.contains(&rule.as_str()) {
            continue;
        }
        let live = if *file_wide {
            sup.iter().any(|(_, r)| r == rule)
        } else {
            sup.iter()
                .any(|(l, r)| r == rule && (*l == *line || *l == *line + 1))
        };
        if !live {
            let form = if *file_wide { "allow-file" } else { "allow" };
            warnings.push(format!(
                "{rel}:{line}: stale `ring-lint: {form}({rule})` — it suppresses nothing"
            ));
        }
    }
}

/// Crate key for grouping files (`crates/net/src/x.rs` → `crates/net`).
pub(crate) fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => format!("crates/{name}"),
        _ => String::new(),
    }
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .expect("path under root")
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Renders diagnostics as a JSON array (machine-readable output for
/// `ring-lint --json`). Hand-rolled: the only values needing escapes
/// are our own messages (quotes and backslashes).
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut s = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n  {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&d.file),
            d.line,
            d.rule,
            json_escape(&d.message)
        ));
    }
    if !diags.is_empty() {
        s.push('\n');
    }
    s.push_str("]\n");
    s
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_of_extracts_crate_dir() {
        assert_eq!(crate_of("crates/net/src/lib.rs"), "crates/net");
        assert_eq!(crate_of("crates/core/src/node/mod.rs"), "crates/core");
        assert_eq!(crate_of("src/main.rs"), "");
    }

    #[test]
    fn json_escapes_quotes_and_newlines() {
        let d = Diagnostic {
            file: "a.rs".into(),
            line: 3,
            rule: rules::AMBIENT_TIME,
            message: "say \"no\"\nplease".into(),
        };
        let j = to_json(&[d]);
        assert!(j.contains("\\\"no\\\""), "{j}");
        assert!(j.contains("\\n"), "{j}");
    }

    #[test]
    fn empty_diags_is_empty_array() {
        assert_eq!(to_json(&[]), "[]\n");
    }
}
