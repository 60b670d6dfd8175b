//! The lint rules: repo-specific protocol invariants.
//!
//! This module holds the rule ids, the [`Diagnostic`] type, path
//! scoping, and the six per-file rules, which run over one file's
//! parse tree ([`lint_file`]). The three workspace-level rules
//! (lock-order, protocol-drift, payload-copy) reason across files and
//! live in [`crate::passes`].
//!
//! Every rule reports `file:line` plus a rule id; findings can be
//! suppressed per-line with `// ring-lint: allow(<rule>)` (see
//! [`crate::lexer`]). The rules and their rationale are documented in
//! DESIGN.md §9.

use std::collections::BTreeSet;
use std::path::Path;

use crate::ast::{
    walk_block_exprs, walk_exprs, walk_items, Block, Expr, Item, ItemCtx, LetStmt, PathExpr,
    SourceFile, Stmt, UseItem,
};
use crate::lexer::{Lexed, TokenKind};

/// Rule id: ambient monotonic/wall-clock time in deterministic paths.
pub const AMBIENT_TIME: &str = "ambient-time";
/// Rule id: ambient (OS) entropy in deterministic paths.
pub const AMBIENT_ENTROPY: &str = "ambient-entropy";
/// Rule id: lock guard held across a fabric send.
pub const GUARD_ACROSS_SEND: &str = "guard-across-send";
/// Rule id: `Ordering::Relaxed` outside the documented allowlist.
pub const RELAXED_ORDERING: &str = "relaxed-ordering";
/// Rule id: iteration over a hash table feeding seeded protocol paths.
pub const HASHMAP_ITERATION: &str = "hashmap-iteration";
/// Rule id: shared protocol step without a `// tla:` marker tying it to
/// an action of the TLA+ spec (or naming an action that does not exist).
pub const MODEL_DRIFT: &str = "model-drift";
/// Rule id: a cycle in the cross-crate lock-acquisition graph.
pub const LOCK_ORDER: &str = "lock-order";
/// Rule id: a `match` over the `Msg` enum hides variants behind a
/// wildcard arm. Wire tags need no rule: `ring-wire` expands its
/// encoder and decoder from one table, so the build rejects a variant
/// without a tag, a duplicate tag or a partial decoder.
pub const PROTOCOL_DRIFT: &str = "protocol-drift";
/// Rule id: a deep copy of a zero-copy `Payload` on a hot path.
pub const PAYLOAD_COPY: &str = "payload-copy";

/// All rule ids, in reporting order. The first six are the per-file
/// rules of this module; the last three are the workspace passes
/// ([`crate::passes`]).
pub const ALL_RULES: [&str; 9] = [
    AMBIENT_TIME,
    AMBIENT_ENTROPY,
    GUARD_ACROSS_SEND,
    RELAXED_ORDERING,
    HASHMAP_ITERATION,
    MODEL_DRIFT,
    LOCK_ORDER,
    PROTOCOL_DRIFT,
    PAYLOAD_COPY,
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (one of [`ALL_RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Per-file lint context.
pub struct FileContext<'a> {
    /// Workspace-relative path (diagnostics use this verbatim).
    pub rel_path: &'a str,
    /// Raw source text (the lexer drops comments; `model-drift` reads
    /// the `// tla:` markers from here).
    pub raw: &'a str,
    /// Lexed source.
    pub lexed: &'a Lexed,
    /// Whether the deterministic-path rules apply to this file.
    pub deterministic: bool,
    /// Whether the model-drift rule applies to this file.
    pub model_mirror: bool,
    /// Whether the file is on the relaxed-ordering allowlist.
    pub relaxed_allowlisted: bool,
    /// Hash-typed names collected crate-wide (for hashmap-iteration).
    pub hash_names: &'a BTreeSet<String>,
    /// Top-level definition names of the TLA+ spec (empty when the spec
    /// file is absent, which disables model-drift).
    pub tla_actions: &'a BTreeSet<String>,
}

/// True if `rel_path` is inside a deterministic simulation path: the
/// `src/` trees of `ring-net`, `ring-chaos`, `ring-core`, `ring-wire`
/// and `ring-server`. The wire codec must be a pure function of its
/// input; the server crate sits on the protocol's hot path and reads
/// time only through `ring_net::clock`, so a node behaves identically
/// under the simulated fabric and TCP. Bench and measurement code is
/// exempt by construction (it lives in `crates/bench`), as are test
/// trees (`tests/` is never scanned and inline `#[cfg(test)] mod`
/// blocks are skipped, see [`test_mod_spans`]).
pub fn is_deterministic_path(rel_path: &str) -> bool {
    [
        "crates/net/src/",
        "crates/chaos/src/",
        "crates/core/src/",
        "crates/wire/src/",
        "crates/server/src/",
        "crates/model/src/",
    ]
    .iter()
    .any(|p| rel_path.starts_with(p))
}

/// True if `rel_path` holds protocol logic mirrored by the TLA+ spec:
/// the shared step functions under `crates/core/src/protocol/`. Every
/// `pub fn` there must carry a `// tla: <Action>` marker (see
/// `model_drift`).
pub fn is_model_mirror_path(rel_path: &str) -> bool {
    rel_path.starts_with("crates/core/src/protocol/")
}

/// Parses the top-level definition names of a TLA+ module: lines of the
/// form `Name ==` or `Name(args) ==` starting in column 0. Actions,
/// invariants, and helper operators all count — the marker namespace is
/// the module's namespace.
pub fn parse_tla_actions(text: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for line in text.lines() {
        let Some(first) = line.chars().next() else {
            continue;
        };
        if !(first.is_ascii_alphabetic() || first == '_') {
            continue;
        }
        let name: String = line
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        let rest = line[name.len()..].trim_start();
        let rest = if let Some(stripped) = rest.strip_prefix('(') {
            match stripped.split_once(')') {
                Some((_, after)) => after.trim_start(),
                None => continue,
            }
        } else {
            rest
        };
        if rest.starts_with("==") {
            names.insert(name);
        }
    }
    names
}

/// A finding that a suppression mechanism swallowed: `(line, rule)`.
/// The stale-suppression checker uses these to tell live directives
/// and allowlist entries from dead ones.
pub type SuppressedHit = (u32, &'static str);

/// Runs every applicable per-file rule over one file's parse tree,
/// recording suppressed findings into `sup`.
pub fn lint_file(
    ctx: &FileContext<'_>,
    tree: &SourceFile,
    sup: &mut Vec<SuppressedHit>,
) -> Vec<Diagnostic> {
    let mut sink = Sink {
        ctx,
        spans: test_mod_spans(tree),
        out: Vec::new(),
        sup,
    };
    if ctx.deterministic {
        ambient_time(tree, &mut sink);
        ambient_entropy(tree, &mut sink);
        hashmap_iteration(tree, &mut sink);
    }
    if ctx.model_mirror && !ctx.tla_actions.is_empty() {
        model_drift(&mut sink);
    }
    guard_across_send(tree, &mut sink);
    relaxed_ordering(tree, &mut sink);
    sink.out.sort();
    sink.out
}

/// The one suppression filter of the per-file rules and the workspace
/// passes: a finding at `line` is dropped inside a `#[cfg(test)]` mod
/// (`spans`), recorded into `sup` when `allowed` (a directive or the
/// allowlist covers it), and reported otherwise.
pub(crate) fn reported(
    spans: &[(u32, u32)],
    allowed: bool,
    line: u32,
    rule: &'static str,
    sup: &mut Vec<SuppressedHit>,
) -> bool {
    if spans.iter().any(|&(a, b)| a <= line && line <= b) {
        return false;
    }
    if allowed {
        sup.push((line, rule));
    }
    !allowed
}

/// Where the per-file rules report, through [`reported`].
struct Sink<'a> {
    ctx: &'a FileContext<'a>,
    spans: Vec<(u32, u32)>,
    out: Vec<Diagnostic>,
    sup: &'a mut Vec<SuppressedHit>,
}

impl Sink<'_> {
    fn emit(&mut self, line: u32, rule: &'static str, message: String) {
        // The allowlist is a file-wide suppression of one rule.
        let allowlisted = rule == RELAXED_ORDERING && self.ctx.relaxed_allowlisted;
        let allowed = allowlisted || self.ctx.lexed.allowed(rule, line);
        if reported(&self.spans, allowed, line, rule, self.sup) {
            self.out.push(Diagnostic {
                file: self.ctx.rel_path.to_string(),
                line,
                rule,
                message,
            });
        }
    }
}

/// Line spans covered by `#[cfg(test)] mod ... { ... }`, so rules can
/// skip inline unit tests (ambient time/entropy is fine there).
pub fn test_mod_spans(tree: &SourceFile) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    walk_items(&tree.items, &ItemCtx::default(), &mut |_ctx, item| {
        if let Item::Mod(m) = item {
            if m.cfg_test {
                spans.push((m.start_line, m.end_line));
            }
        }
    });
    spans
}

/// Calls `f` on every expression in the file: function bodies and
/// const/static initializers, at any nesting depth (impls, traits,
/// mods, nested fns).
fn for_each_expr<'a>(tree: &'a SourceFile, f: &mut impl FnMut(&'a Expr)) {
    walk_items(
        &tree.items,
        &ItemCtx::default(),
        &mut |_ctx, item| match item {
            Item::Fn(fun) => {
                if let Some(body) = &fun.body {
                    walk_block_exprs(body, f);
                }
            }
            Item::Const(c) => {
                if let Some(v) = &c.value {
                    walk_exprs(v, f);
                }
            }
            _ => {}
        },
    );
}

/// Calls `f` on every `use` item in the file.
fn for_each_use<'a>(tree: &'a SourceFile, f: &mut impl FnMut(&'a UseItem)) {
    walk_items(&tree.items, &ItemCtx::default(), &mut |_ctx, item| {
        if let Item::Use(u) = item {
            f(u);
        }
    });
}

/// `ambient-time`: `Instant::now()` / `SystemTime::now()` in a
/// deterministic path — a call whose callee path ends in that pair.
/// The clock must come from `ring_net::clock` (the fabric clock) so
/// there is exactly one audited source of time.
fn ambient_time(tree: &SourceFile, sink: &mut Sink<'_>) {
    for_each_expr(tree, &mut |e| {
        let Expr::Call { callee, .. } = e else {
            return;
        };
        let Expr::Path(p) = callee.as_ref() else {
            return;
        };
        if p.segs.len() < 2 {
            return;
        }
        let (ty, line) = {
            let pair = &p.segs[p.segs.len() - 2..];
            if pair[1].0 != "now" {
                return;
            }
            (pair[0].0.as_str(), pair[0].1)
        };
        let hint = match ty {
            "Instant" => "use ring_net::clock::now() instead",
            "SystemTime" => {
                "wall-clock time has no deterministic consumer; derive from the fabric clock"
            }
            _ => return,
        };
        sink.emit(
            line,
            AMBIENT_TIME,
            format!("ambient `{ty}::now()` in a deterministic sim path; {hint}"),
        );
    });
}

const FORBIDDEN_ENTROPY: [&str; 4] = ["thread_rng", "OsRng", "from_entropy", "getrandom"];

/// `ambient-entropy`: OS randomness in a deterministic path. All
/// randomness must be a pure function of `ClusterSpec::seed` (via
/// `derived_seed`) so a printed `u64` replays the run.
///
/// Fires on forbidden names in call or path position — multi-segment
/// paths anywhere, single names only as a direct callee or method,
/// `use` segments only when `::`-adjacent — so a mere mention as a
/// struct field or local cannot trip it.
fn ambient_entropy(tree: &SourceFile, sink: &mut Sink<'_>) {
    fn hit(sink: &mut Sink<'_>, name: &str, line: u32) {
        sink.emit(
            line,
            AMBIENT_ENTROPY,
            format!(
                "ambient entropy source `{name}` in a deterministic sim path; \
                 seed RNGs from ClusterSpec::derived_seed"
            ),
        );
    }
    fn multi_seg(sink: &mut Sink<'_>, p: &PathExpr) {
        if p.segs.len() < 2 {
            return;
        }
        for (name, line) in &p.segs {
            if FORBIDDEN_ENTROPY.contains(&name.as_str()) {
                hit(sink, name, *line);
            }
        }
    }
    for_each_expr(tree, &mut |e| match e {
        // `rand::thread_rng()` / `rand::rngs::OsRng` anywhere: every
        // segment of a multi-segment path is `::`-adjacent.
        Expr::Path(p) => multi_seg(sink, p),
        Expr::StructLit { path, .. } | Expr::MacroCall { path, .. } => multi_seg(sink, path),
        // Bare `thread_rng()` — a single name is only call-like as a
        // direct callee (the multi-segment case fired on the path).
        Expr::Call { callee, .. } => {
            if let Expr::Path(p) = callee.as_ref() {
                if p.segs.len() == 1 && FORBIDDEN_ENTROPY.contains(&p.segs[0].0.as_str()) {
                    hit(sink, &p.segs[0].0, p.segs[0].1)
                }
            }
        }
        // `.from_entropy()`.
        Expr::MethodCall { method, line, .. } if FORBIDDEN_ENTROPY.contains(&method.as_str()) => {
            hit(sink, method, *line);
        }
        // `Msg::OsRng => …` (path position inside a pattern).
        Expr::Match(m) => {
            for arm in &m.arms {
                for pat in &arm.pats {
                    if pat.path.len() >= 2 {
                        for name in &pat.path {
                            if FORBIDDEN_ENTROPY.contains(&name.as_str()) {
                                hit(sink, name, pat.line);
                            }
                        }
                    }
                }
            }
        }
        _ => {}
    });
    for_each_use(tree, &mut |u| {
        for seg in &u.segs {
            if seg.colon_adjacent && FORBIDDEN_ENTROPY.contains(&seg.name.as_str()) {
                hit(sink, &seg.name, seg.line);
            }
        }
    });
}

/// `relaxed-ordering`: `Ordering::Relaxed` outside the allowlist file
/// (`crates/verify/relaxed_allowlist.txt`), which documents why each
/// site is safe. Relaxed is correct for monotonic counters and advisory
/// mirrors; it is never correct for publish/observe pairs, and the
/// allowlist is where that argument has to be written down.
///
/// Fires on an `Ordering::Relaxed` / `AtomicOrdering::Relaxed` segment
/// pair in any expression, pattern, or `use` path.
fn relaxed_ordering(tree: &SourceFile, sink: &mut Sink<'_>) {
    fn hit(sink: &mut Sink<'_>, line: u32) {
        sink.emit(
            line,
            RELAXED_ORDERING,
            "`Ordering::Relaxed` outside the allowlist; add the file to \
             crates/verify/relaxed_allowlist.txt with a per-site justification \
             or use Acquire/Release"
                .to_string(),
        );
    }
    let pair_line = |p: &PathExpr| -> Option<u32> {
        p.segs.windows(2).find_map(|w| {
            (matches!(w[0].0.as_str(), "Ordering" | "AtomicOrdering") && w[1].0 == "Relaxed")
                .then_some(w[0].1)
        })
    };
    for_each_expr(tree, &mut |e| match e {
        Expr::Path(p) => {
            if let Some(line) = pair_line(p) {
                hit(sink, line);
            }
        }
        Expr::StructLit { path, .. } | Expr::MacroCall { path, .. } => {
            if let Some(line) = pair_line(path) {
                hit(sink, line);
            }
        }
        Expr::Match(m) => {
            for arm in &m.arms {
                for pat in &arm.pats {
                    let relaxed_pair = pat.path.windows(2).any(|w| {
                        matches!(w[0].as_str(), "Ordering" | "AtomicOrdering") && w[1] == "Relaxed"
                    });
                    if relaxed_pair {
                        hit(sink, pat.line);
                    }
                }
            }
        }
        _ => {}
    });
    for_each_use(tree, &mut |u| {
        for w in u.segs.windows(2) {
            if matches!(w[0].name.as_str(), "Ordering" | "AtomicOrdering")
                && w[1].name == "Relaxed"
                && w[1].colon_adjacent
            {
                hit(sink, w[0].line);
            }
        }
    });
}

fn ident_at(lexed: &Lexed, i: usize) -> Option<&str> {
    match lexed.tokens.get(i).map(|t| &t.kind) {
        Some(TokenKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(lexed: &Lexed, i: usize, c: char) -> bool {
    lexed.tokens.get(i).map(|t| &t.kind) == Some(&TokenKind::Punct(c))
}

/// Collects names declared with a `HashMap`/`HashSet` type in one file:
/// fields and typed bindings (`name: HashMap<..>`) and seeded locals
/// (`let name = HashMap::new()`). Callers union the sets across a crate
/// so iteration over `self.field` in a sibling module is still caught.
pub fn collect_hash_names(lexed: &Lexed) -> BTreeSet<String> {
    let t = &lexed.tokens;
    let mut names = BTreeSet::new();
    for i in 0..t.len() {
        let TokenKind::Ident(id) = &t[i].kind else {
            continue;
        };
        if id != "HashMap" && id != "HashSet" {
            continue;
        }
        // `name: ... HashMap< ...`: walk back to the nearest `:` within
        // the statement and take the ident before it.
        let mut j = i;
        let mut found_colon = None;
        while j > 0 {
            j -= 1;
            match &t[j].kind {
                TokenKind::Punct(':') => {
                    // `::` is a path, keep walking.
                    if j > 0 && punct_at(lexed, j - 1, ':') {
                        j -= 1;
                        continue;
                    }
                    found_colon = Some(j);
                    break;
                }
                TokenKind::Punct(';')
                | TokenKind::Punct('{')
                | TokenKind::Punct('}')
                | TokenKind::Punct(',')
                | TokenKind::Punct('=')
                | TokenKind::Punct('(') => break,
                _ => continue,
            }
        }
        if let Some(c) = found_colon {
            if c > 0 {
                if let Some(name) = ident_at(lexed, c - 1) {
                    names.insert(name.to_string());
                    continue;
                }
            }
        }
        // `let [mut] name = HashMap::new()` (or with_capacity/default/from).
        if punct_at(lexed, i + 1, ':')
            && punct_at(lexed, i + 2, ':')
            && matches!(
                ident_at(lexed, i + 3),
                Some("new" | "with_capacity" | "default" | "from")
            )
        {
            let mut j = i;
            while j > 0 {
                j -= 1;
                match &t[j].kind {
                    TokenKind::Punct(';') | TokenKind::Punct('{') | TokenKind::Punct('}') => break,
                    TokenKind::Ident(kw) if kw == "let" => {
                        let mut k = j + 1;
                        if ident_at(lexed, k) == Some("mut") {
                            k += 1;
                        }
                        if let Some(name) = ident_at(lexed, k) {
                            names.insert(name.to_string());
                        }
                        break;
                    }
                    _ => continue,
                }
            }
        }
    }
    names
}

/// `hashmap-iteration`: iterating a `HashMap`/`HashSet` in a seeded
/// path. Hash iteration order is randomized per process; anything it
/// feeds — retransmit order, recovery order, checker verdict text —
/// diverges between runs with the same seed. Use `BTreeMap`/`BTreeSet`
/// or sort before iterating.
///
/// Fires on an `ITERS` method whose receiver's terminal name is
/// hash-typed ([`collect_hash_names`]), or a `for` loop directly over
/// one.
fn hashmap_iteration(tree: &SourceFile, sink: &mut Sink<'_>) {
    const ITERS: [&str; 9] = [
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "drain",
        "retain",
        "into_keys",
        "into_values",
    ];
    fn hit(sink: &mut Sink<'_>, name: &str, how: &str, line: u32) {
        sink.emit(
            line,
            HASHMAP_ITERATION,
            format!(
                "iteration over hash-ordered `{name}` via {how} in a seeded path; \
                 hash order is process-random — use BTreeMap/BTreeSet or sort first"
            ),
        );
    }
    for_each_expr(tree, &mut |e| match e {
        Expr::MethodCall { recv, method, .. } if ITERS.contains(&method.as_str()) => {
            // The diagnostic anchors on the *receiver name's* line
            // (`name.iter()` reports `name`).
            let terminal = match recv.as_ref() {
                Expr::Path(p) => p.segs.last().map(|(n, l)| (n.as_str(), *l)),
                Expr::Field { name, line, .. } => Some((name.as_str(), *line)),
                _ => None,
            };
            if let Some((name, line)) = terminal {
                if sink.ctx.hash_names.contains(name) {
                    hit(sink, name, &format!("`.{method}()`"), line);
                }
            }
        }
        Expr::For { iter, .. } => {
            // `for x in [&[mut]] name { … }` — a bare name only; field
            // receivers don't fire here.
            let mut it: &Expr = iter;
            if let Expr::Ref { inner, .. } = it {
                it = inner;
            }
            if let Expr::Path(p) = it {
                if p.segs.len() == 1 && sink.ctx.hash_names.contains(&p.segs[0].0) {
                    hit(sink, &p.segs[0].0, "a `for` loop", p.segs[0].1);
                }
            }
        }
        _ => {}
    });
}

/// A live lock guard during the [`guard_across_send`] dataflow.
struct LiveGuard {
    name: String,
    /// Line of the binding `let` (reported in the diagnostic).
    line: u32,
    /// Block-nesting depth that owns the binding; the guard dies when
    /// that scope closes.
    scope: u32,
}

/// `guard-across-send`: a `let`-bound `Mutex`/`RwLock` guard still live
/// when a fabric `send`/`multicast`/`post` happens. Under a partition
/// the send's target may be wedged; parking a guard across it is how a
/// local stall becomes a cluster-wide deadlock.
///
/// Detection is a guard-liveness dataflow over block scopes, not
/// type-shaped. A guard becomes live at `let g = <expr>.lock()/.read()/.write()`
/// (zero-arg, optionally `.unwrap()` / `.expect("…")`), and dies when
///
/// - its block scope closes (match arms, closures, and inner blocks
///   are all real scopes),
/// - `drop(g)` runs,
/// - it is shadowed by a re-`let` of the same name,
/// - it is *moved*: `let other = g;` transfers liveness to `other`
///   (scoped to the block the move occurs in) and `let _ = g;` drops
///   it on the spot, so a guard moved into an inner block is dead
///   once that block closes (`guard_inner_block_ok.rs` pins this).
///
/// A fabric `.send()` / `.multicast()` / `.post()` while any guard is
/// live reports the most recently acquired one.
fn guard_across_send(tree: &SourceFile, sink: &mut Sink<'_>) {
    struct Flow<'s, 'a> {
        sink: &'s mut Sink<'a>,
        guards: Vec<LiveGuard>,
        depth: u32,
    }
    const SENDS: [&str; 3] = ["send", "multicast", "post"];

    impl Flow<'_, '_> {
        fn block(&mut self, b: &Block) {
            self.depth += 1;
            for stmt in &b.stmts {
                match stmt {
                    Stmt::Let(l) => self.let_stmt(l),
                    Stmt::Expr(e) => self.expr(e),
                    // Nested fns are separate frames: a guard of the
                    // enclosing fn is not live inside them. They get
                    // their own walk via `walk_items`.
                    Stmt::Item(_) => {}
                }
            }
            let depth = self.depth;
            self.guards.retain(|g| g.scope < depth);
            self.depth -= 1;
        }

        fn let_stmt(&mut self, l: &LetStmt) {
            if let Some(name) = &l.name {
                if guard_init(l.init.as_ref()).is_some() {
                    // The initializer is the acquisition itself;
                    // don't scan it for sends.
                    self.guards.retain(|g| g.name != *name);
                    self.guards.push(LiveGuard {
                        name: name.clone(),
                        line: l.line,
                        scope: self.depth,
                    });
                    return;
                }
                // Move: `let other = g;` / `let _ = g;`.
                if let Some(Expr::Path(p)) = &l.init {
                    if p.segs.len() == 1 {
                        if let Some(pos) = self.guards.iter().position(|g| g.name == p.segs[0].0) {
                            let moved = self.guards.remove(pos);
                            if name != "_" {
                                // Re-scoped to the current block: it
                                // dies where the new owner does.
                                self.guards.push(LiveGuard {
                                    name: name.clone(),
                                    line: moved.line,
                                    scope: self.depth,
                                });
                            }
                            return;
                        }
                    }
                }
            }
            if let Some(init) = &l.init {
                self.expr(init);
            }
            if let Some(eb) = &l.else_block {
                self.block(eb);
            }
        }

        fn expr(&mut self, e: &Expr) {
            match e {
                Expr::MethodCall {
                    recv, method, args, ..
                } => {
                    self.expr(recv);
                    if SENDS.contains(&method.as_str()) && !self.guards.is_empty() {
                        self.send(method, e.line());
                    }
                    for a in args {
                        self.expr(a);
                    }
                }
                Expr::Call { callee, args, .. } => {
                    // `drop(g)` ends g's live-range.
                    if let Expr::Path(p) = callee.as_ref() {
                        if p.segs.len() == 1 && p.segs[0].0 == "drop" && args.len() == 1 {
                            if let Expr::Path(arg) = &args[0] {
                                if arg.segs.len() == 1 {
                                    let name = arg.segs[0].0.clone();
                                    self.guards.retain(|g| g.name != name);
                                    return;
                                }
                            }
                        }
                    }
                    self.expr(callee);
                    for a in args {
                        self.expr(a);
                    }
                }
                Expr::Block(b) => self.block(b),
                Expr::If {
                    cond, then, else_, ..
                } => {
                    self.expr(cond);
                    self.block(then);
                    if let Some(e2) = else_ {
                        self.expr(e2);
                    }
                }
                Expr::Match(m) => {
                    self.expr(&m.scrutinee);
                    for arm in &m.arms {
                        self.expr(&arm.body);
                    }
                }
                Expr::While { cond, body, .. } => {
                    self.expr(cond);
                    self.block(body);
                }
                Expr::For { iter, body, .. } => {
                    self.expr(iter);
                    self.block(body);
                }
                Expr::Loop { body, .. } => self.block(body),
                Expr::Closure { body, .. } => self.expr(body),
                Expr::Field { recv, .. } => self.expr(recv),
                Expr::Index { recv, index, .. } => {
                    self.expr(recv);
                    self.expr(index);
                }
                Expr::StructLit { fields, .. } => {
                    for (_, v) in fields {
                        self.expr(v);
                    }
                }
                Expr::MacroCall { args, .. } => {
                    for a in args {
                        self.expr(a);
                    }
                }
                Expr::Ref { inner, .. } => self.expr(inner),
                Expr::Seq { parts, .. } => {
                    for p in parts {
                        self.expr(p);
                    }
                }
                Expr::Path(_) | Expr::Lit { .. } | Expr::Unknown { .. } => {}
            }
        }

        fn send(&mut self, method: &str, line: u32) {
            let g = self.guards.last().expect("non-empty");
            self.sink.emit(
                line,
                GUARD_ACROSS_SEND,
                format!(
                    "fabric `.{method}()` while lock guard `{}` (line {}) is held; \
                     drop the guard first — a send under partition can block \
                     and deadlock every thread queued on the lock",
                    g.name, g.line
                ),
            );
        }
    }

    // Every fn body (nested ones included) is its own frame.
    walk_items(&tree.items, &ItemCtx::default(), &mut |_ctx, item| {
        if let Item::Fn(f) = item {
            if let Some(body) = &f.body {
                let mut flow = Flow {
                    sink,
                    guards: Vec::new(),
                    depth: 0,
                };
                flow.block(body);
            }
        }
    });
}

/// If a `let` initializer is a lock acquisition —
/// `….lock()/.read()/.write()` (zero-arg), under at most two
/// `.unwrap()` / `.expect(<literal>)` wrappers — returns the receiver
/// of the lock call.
pub(crate) fn guard_init(init: Option<&Expr>) -> Option<&Expr> {
    let mut e = init?;
    for _ in 0..2 {
        match e {
            Expr::MethodCall {
                recv, method, args, ..
            } if method == "unwrap" && args.is_empty() => e = recv,
            Expr::MethodCall {
                recv, method, args, ..
            } if method == "expect" && args.len() == 1 && matches!(args[0], Expr::Lit { .. }) => {
                e = recv
            }
            _ => break,
        }
    }
    match e {
        Expr::MethodCall {
            recv, method, args, ..
        } if args.is_empty() && matches!(method.as_str(), "lock" | "read" | "write") => Some(recv),
        _ => None,
    }
}

/// `model-drift`: every `pub fn` in the shared protocol-steps module
/// must carry a `// tla: <Action>` marker in the comment block directly
/// above it, and the marker must name a definition that actually exists
/// in `RingWriteSemantics.tla`. The step functions are the ground truth
/// both the live node and the explicit-state checker execute; the
/// markers are the audited map between them and the spec, so a renamed
/// or deleted spec action — or an unmarked new transition — fails the
/// lint instead of silently diverging.
///
/// Markers live in comments, which the tree cannot represent, so this
/// one rule reads the raw text.
fn model_drift(sink: &mut Sink<'_>) {
    let ctx = sink.ctx;
    let lines: Vec<&str> = ctx.raw.lines().collect();
    for (idx, line) in lines.iter().enumerate() {
        let trimmed = line.trim_start();
        let is_pub_fn = trimmed.starts_with("pub fn ")
            || trimmed.starts_with("pub(crate) fn ")
            || trimmed.starts_with("pub(super) fn ");
        if !is_pub_fn {
            continue;
        }
        let after_fn = trimmed
            .split_once("fn ")
            .map(|(_, rest)| rest)
            .unwrap_or("");
        let fn_name: String = after_fn
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        let line_no = (idx + 1) as u32;
        // Walk the contiguous comment/attribute block directly above
        // the `pub fn` looking for a `// tla: <Action>` marker.
        let mut marker: Option<&str> = None;
        let mut j = idx;
        while j > 0 {
            j -= 1;
            let above = lines[j].trim_start();
            if above.starts_with("#[") || above.starts_with("#!") {
                continue; // Attributes don't break the block.
            }
            if !above.starts_with("//") {
                break;
            }
            let comment = above.trim_start_matches('/').trim_start();
            if let Some(rest) = comment.strip_prefix("tla:") {
                marker = Some(rest.trim());
                break;
            }
        }
        let message = match marker {
            None => format!(
                "protocol step `{fn_name}` has no `// tla: <Action>` marker; every \
                 shared transition must name the spec action it mirrors"
            ),
            Some(action) if !ctx.tla_actions.contains(action) => format!(
                "`// tla: {action}` on `{fn_name}` names no definition in the spec; \
                 the marker must match a top-level action of RingWriteSemantics.tla"
            ),
            Some(_) => continue,
        };
        sink.emit(line_no, MODEL_DRIFT, message);
    }
}

/// Loads the relaxed-ordering allowlist: one workspace-relative path
/// per non-comment line.
pub fn load_relaxed_allowlist(path: &Path) -> std::io::Result<BTreeSet<String>> {
    let text = std::fs::read_to_string(path)?;
    Ok(text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect())
}

/// Parses a file and runs the per-file rules — test convenience.
#[cfg(test)]
pub(crate) fn lint_source(
    rel_path: &str,
    src: &str,
    deterministic: bool,
    hash_names: &std::collections::BTreeSet<String>,
) -> Vec<Diagnostic> {
    let lexed = crate::lexer::lex(src);
    let tree = crate::parse::parse(&lexed);
    assert!(tree.errors.is_empty(), "parse errors: {:?}", tree.errors);
    let ctx = FileContext {
        rel_path,
        raw: src,
        lexed: &lexed,
        deterministic,
        model_mirror: false,
        relaxed_allowlisted: false,
        hash_names,
        tla_actions: &std::collections::BTreeSet::new(),
    };
    lint_file(&ctx, &tree, &mut Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn names(items: &[&str]) -> BTreeSet<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn guard_moved_into_inner_block_does_not_fire() {
        // A brace-depth approximation of liveness would fire here;
        // the dataflow must not.
        let src = r#"
fn f(fabric: &Fabric, state: &Mutex<u32>) {
    let g = state.lock().unwrap();
    {
        let _owned = g;
    }
    fabric.send(1);
}
"#;
        let diags = lint_source("crates/net/src/x.rs", src, true, &names(&[]));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn guard_let_underscore_drops() {
        let src = r#"
fn f(fabric: &Fabric, state: &Mutex<u32>) {
    let g = state.lock().unwrap();
    let _ = g;
    fabric.send(1);
}
"#;
        let diags = lint_source("crates/net/src/x.rs", src, true, &names(&[]));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn guard_move_keeps_liveness_in_same_scope() {
        let src = r#"
fn f(fabric: &Fabric, state: &Mutex<u32>) {
    let g = state.lock().unwrap();
    let held = g;
    fabric.send(1);
}
"#;
        let diags = lint_source("crates/net/src/x.rs", src, true, &names(&[]));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 5);
        assert!(diags[0].message.contains("`held`"), "{}", diags[0].message);
    }

    #[test]
    fn match_arm_scope_ends_guard() {
        let src = r#"
fn f(fabric: &Fabric, state: &Mutex<u32>, x: u8) {
    match x {
        0 => {
            let g = state.lock().unwrap();
            *g += 1;
        }
        _ => {}
    }
    fabric.send(1);
}
"#;
        let diags = lint_source("crates/net/src/x.rs", src, true, &names(&[]));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn send_in_closure_under_guard_fires() {
        let src = r#"
fn f(fabric: &Fabric, state: &Mutex<u32>) {
    let g = state.lock().unwrap();
    let run = || fabric.post(2);
    run();
}
"#;
        let diags = lint_source("crates/net/src/x.rs", src, true, &names(&[]));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 4);
    }

    #[test]
    fn use_line_entropy_fires() {
        let src = "use rand::thread_rng;\nfn f() { let x = 1; }\n";
        let diags = lint_source("crates/net/src/x.rs", src, true, &names(&[]));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 1);
        assert_eq!(diags[0].rule, AMBIENT_ENTROPY);
    }

    #[test]
    fn hashmap_iteration_reports_receiver_name_line() {
        let src = r#"
struct S { pending: HashMap<u32, u32> }
impl S {
    fn f(&self) {
        for (_k, _v) in self.pending.iter() {
        }
    }
}
"#;
        let diags = lint_source("crates/net/src/x.rs", src, true, &names(&["pending"]));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 5);
        assert!(diags[0].message.contains("`.iter()`"));
    }
}
