//! Golden test for the ring-lint v2 parser: every `.rs` file in the
//! workspace must parse without structural errors. This is the
//! contract the lint rules depend on — a file the parser cannot
//! walk is a file the semantic passes silently skip.

use std::path::{Path, PathBuf};

use ring_verify::lexer::lex;
use ring_verify::parse::parse;

fn workspace_root() -> PathBuf {
    // crates/verify -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf()
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            // target/ holds generated build artifacts, not our code.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every source, test, bench, and fixture file in `crates/` parses
/// with zero [`ring_verify::ast::ParseError`]s.
#[test]
fn every_workspace_file_parses() {
    let root = workspace_root();
    let mut files = Vec::new();
    collect_rs(&root.join("crates"), &mut files);
    assert!(
        files.len() > 50,
        "expected a real workspace, found {} files",
        files.len()
    );
    let mut failures = Vec::new();
    for path in &files {
        let src = std::fs::read_to_string(path).expect("read source file");
        let tree = parse(&lex(&src));
        for e in &tree.errors {
            failures.push(format!("{}:{}: {}", path.display(), e.line, e.msg));
        }
    }
    assert!(
        failures.is_empty(),
        "{} parse failures across {} files:\n{}",
        failures.len(),
        files.len(),
        failures.join("\n")
    );
}

/// The parser extracts real structure, not just an empty tree: counts
/// of functions and match expressions over the workspace are sane.
#[test]
fn workspace_parse_extracts_structure() {
    use ring_verify::ast::{walk_block_exprs, walk_items, Expr, Item, ItemCtx};

    let root = workspace_root();
    let mut files = Vec::new();
    collect_rs(&root.join("crates"), &mut files);
    let mut fns = 0usize;
    let mut matches = 0usize;
    for path in &files {
        let src = std::fs::read_to_string(path).expect("read source file");
        let tree = parse(&lex(&src));
        walk_items(&tree.items, &ItemCtx::default(), &mut |_ctx, item| {
            if let Item::Fn(f) = item {
                fns += 1;
                if let Some(body) = &f.body {
                    walk_block_exprs(body, &mut |e| {
                        if matches!(e, Expr::Match(_)) {
                            matches += 1;
                        }
                    });
                }
            }
        });
    }
    assert!(
        fns > 500,
        "expected >500 fns across the workspace, got {fns}"
    );
    assert!(
        matches > 100,
        "expected >100 match exprs across the workspace, got {matches}"
    );
}
