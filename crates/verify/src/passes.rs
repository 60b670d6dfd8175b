//! The workspace-level semantic passes: lock-order, protocol-drift,
//! and payload-copy.
//!
//! Unlike the per-file rules ([`crate::rules`]), these reason *across* files — the lock
//! graph spans crates, the `Msg` enum lives in a different crate than
//! the `match`es that consume it — so the
//! whole file set is analyzed in one call, over the parse trees and
//! the [`WorkspaceIndex`].
//!
//! Suppression works like every other rule: `// ring-lint:
//! allow(<rule>)` on (or above) the diagnostic's anchor line, and
//! suppressed findings are recorded so the stale-suppression checker
//! can see live directives.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{walk_items, Block, Expr, Item, ItemCtx, LetStmt, SourceFile, Stmt};
use crate::index::WorkspaceIndex;
use crate::lexer::Lexed;
use crate::rules::{
    guard_init, reported, test_mod_spans, Diagnostic, SuppressedHit, LOCK_ORDER, PAYLOAD_COPY,
    PROTOCOL_DRIFT,
};

/// One file's inputs to the workspace passes.
pub struct PassFile<'a> {
    /// Workspace-relative path.
    pub rel: &'a str,
    /// Lexed source (for suppression directives).
    pub lexed: &'a Lexed,
    /// Parse tree.
    pub tree: &'a SourceFile,
}

/// Files whose lock acquisitions feed the lock-order graph: the crates
/// where locks and the fabric interact. Everything else (bench,
/// workload, model) is single-threaded driver code.
fn in_lock_order_scope(rel: &str) -> bool {
    ["crates/net/src/", "crates/core/src/", "crates/chaos/src/"]
        .iter()
        .any(|p| rel.starts_with(p))
}

/// Hot-path modules for the payload-copy pass: everywhere a `Payload`
/// travels between the engine and the wire. A `.to_vec()` here turns
/// the zero-copy design into a per-hop memcpy.
fn in_hot_path_scope(rel: &str) -> bool {
    [
        "crates/net/src/",
        "crates/wire/src/",
        "crates/core/src/",
        "crates/server/src/",
    ]
    .iter()
    .any(|p| rel.starts_with(p))
}

/// Runs the three passes over the whole file set. `explicit` is true
/// for fixture runs (`ring-lint FILE...`), which widens the path
/// scoping to every listed file. `sups` is parallel to `files`;
/// suppressed findings are recorded into the owning file's slot.
pub fn run_passes(
    files: &[PassFile<'_>],
    ix: &WorkspaceIndex,
    explicit: bool,
    sups: &mut [Vec<SuppressedHit>],
) -> Vec<Diagnostic> {
    let spans: Vec<Vec<(u32, u32)>> = files.iter().map(|f| test_mod_spans(f.tree)).collect();
    let mut em = Emitter {
        files,
        spans: &spans,
        sups,
        out: Vec::new(),
    };
    payload_copy(files, ix, explicit, &mut em);
    protocol_drift(files, ix, &mut em);
    lock_order(files, ix, explicit, &mut em);
    em.out.sort();
    em.out
}

/// Where the workspace passes report, through [`reported`].
struct Emitter<'a, 'b> {
    files: &'a [PassFile<'a>],
    spans: &'a [Vec<(u32, u32)>],
    sups: &'b mut [Vec<SuppressedHit>],
    out: Vec<Diagnostic>,
}

impl Emitter<'_, '_> {
    fn emit(&mut self, file_idx: usize, line: u32, rule: &'static str, message: String) {
        let f = &self.files[file_idx];
        let (spans, sup) = (&self.spans[file_idx], &mut self.sups[file_idx]);
        if reported(spans, f.lexed.allowed(rule, line), line, rule, sup) {
            self.out.push(Diagnostic {
                file: f.rel.to_string(),
                line,
                rule,
                message,
            });
        }
    }
}

// ---------------------------------------------------------------------
// payload-copy
// ---------------------------------------------------------------------

/// Flags `.to_vec()` and `Vec::from(..)` applied to `Payload`-typed
/// expressions in hot-path modules. `Payload` is an `Arc<Vec<u8>>`
/// behind a newtype: `.clone()` is a refcount bump (blessed), while
/// `.to_vec()` re-materializes the buffer — one silent call undoes the
/// zero-copy design for every message that crosses it.
fn payload_copy(
    files: &[PassFile<'_>],
    ix: &WorkspaceIndex,
    explicit: bool,
    em: &mut Emitter<'_, '_>,
) {
    for (file_idx, f) in files.iter().enumerate() {
        if !explicit && !in_hot_path_scope(f.rel) {
            continue;
        }
        let crate_fields = ix.payload_fields_of(&crate::crate_of(f.rel));
        walk_items(&f.tree.items, &ItemCtx::default(), &mut |ctx, item| {
            if ctx.in_test_mod {
                return;
            }
            let Item::Fn(fun) = item else {
                return;
            };
            let Some(body) = &fun.body else {
                return;
            };
            // Payload-typed names visible in this fn: crate-wide
            // Payload fields, Payload params, and Payload lets
            // (annotated, or initialized from a payload expression).
            let mut names: BTreeSet<String> = crate_fields.cloned().unwrap_or_default();
            for p in &fun.params {
                if let (Some(n), true) = (&p.name, p.ty.mentions("Payload")) {
                    names.insert(n.clone());
                }
            }
            collect_payload_lets(body, &mut names);
            crate::ast::walk_block_exprs(body, &mut |e| match e {
                Expr::MethodCall {
                    recv,
                    method,
                    args,
                    line,
                } if method == "to_vec" && args.is_empty() => {
                    if let Some(name) = payload_root(recv, &names) {
                        em.emit(
                            file_idx,
                            *line,
                            PAYLOAD_COPY,
                            format!(
                                "`{name}.to_vec()` deep-copies a zero-copy `Payload` on a \
                                 hot path; clone the handle (refcount bump) or borrow \
                                 `as_slice()` instead"
                            ),
                        );
                    }
                }
                Expr::Call { callee, args, line } if args.len() == 1 => {
                    let is_vec_from = matches!(
                        callee.as_ref(),
                        Expr::Path(p) if p.segs.len() >= 2
                            && p.segs[p.segs.len() - 2].0 == "Vec"
                            && p.segs[p.segs.len() - 1].0 == "from"
                    );
                    if is_vec_from {
                        if let Some(name) = payload_root(&args[0], &names) {
                            em.emit(
                                file_idx,
                                *line,
                                PAYLOAD_COPY,
                                format!(
                                    "`Vec::from({name})` deep-copies a zero-copy `Payload` \
                                     on a hot path; clone the handle (refcount bump) or \
                                     borrow `as_slice()` instead"
                                ),
                            );
                        }
                    }
                }
                _ => {}
            });
        });
    }
}

/// Collects `let` bindings that hold a `Payload`: annotated with a
/// `Payload` type, or initialized from a payload-rooted expression
/// (flow-insensitive, whole-fn scope).
fn collect_payload_lets(b: &Block, names: &mut BTreeSet<String>) {
    fn visit_block(b: &Block, names: &mut BTreeSet<String>) {
        for stmt in &b.stmts {
            match stmt {
                Stmt::Let(l) => visit_let(l, names),
                Stmt::Expr(e) => visit_expr(e, names),
                Stmt::Item(_) => {}
            }
        }
    }
    fn visit_let(l: &LetStmt, names: &mut BTreeSet<String>) {
        if let Some(n) = &l.name {
            let annotated = l.ty.as_ref().is_some_and(|t| t.mentions("Payload"));
            let from_payload = l
                .init
                .as_ref()
                .is_some_and(|e| payload_root(e, names).is_some());
            if annotated || from_payload {
                names.insert(n.clone());
            }
        }
        if let Some(init) = &l.init {
            visit_expr(init, names);
        }
        if let Some(eb) = &l.else_block {
            visit_block(eb, names);
        }
    }
    fn visit_expr(e: &Expr, names: &mut BTreeSet<String>) {
        match e {
            Expr::Block(inner) => visit_block(inner, names),
            Expr::If {
                cond, then, else_, ..
            } => {
                visit_expr(cond, names);
                visit_block(then, names);
                if let Some(e2) = else_ {
                    visit_expr(e2, names);
                }
            }
            Expr::While { cond, body, .. } => {
                visit_expr(cond, names);
                visit_block(body, names);
            }
            Expr::For { iter, body, .. } => {
                visit_expr(iter, names);
                visit_block(body, names);
            }
            Expr::Loop { body, .. } => visit_block(body, names),
            Expr::Match(m) => {
                visit_expr(&m.scrutinee, names);
                for arm in &m.arms {
                    visit_expr(&arm.body, names);
                }
            }
            Expr::Closure { body, .. } => visit_expr(body, names),
            Expr::Call { callee, args, .. } => {
                visit_expr(callee, names);
                for a in args {
                    visit_expr(a, names);
                }
            }
            Expr::MethodCall { recv, args, .. } => {
                visit_expr(recv, names);
                for a in args {
                    visit_expr(a, names);
                }
            }
            Expr::Field { recv, .. } => visit_expr(recv, names),
            Expr::Index { recv, index, .. } => {
                visit_expr(recv, names);
                visit_expr(index, names);
            }
            Expr::StructLit { fields, .. } => {
                for (_, v) in fields {
                    visit_expr(v, names);
                }
            }
            Expr::MacroCall { args, .. } => {
                for a in args {
                    visit_expr(a, names);
                }
            }
            Expr::Ref { inner, .. } => visit_expr(inner, names),
            Expr::Seq { parts, .. } => {
                for p in parts {
                    visit_expr(p, names);
                }
            }
            Expr::Path(_) | Expr::Lit { .. } | Expr::Unknown { .. } => {}
        }
    }
    visit_block(b, names);
}

/// If `e` is rooted in a `Payload`-typed name, returns that name:
/// a bare path, a field access chain ending in a payload field, a
/// `.clone()` of either, or a reference to one.
fn payload_root<'e>(e: &'e Expr, names: &BTreeSet<String>) -> Option<&'e str> {
    match e {
        Expr::Path(p) if p.segs.len() == 1 => {
            let n = p.segs[0].0.as_str();
            names.contains(n).then_some(n)
        }
        Expr::Field { name, .. } => names.contains(name).then_some(name.as_str()),
        Expr::MethodCall {
            recv, method, args, ..
        } if method == "clone" && args.is_empty() => payload_root(recv, names),
        Expr::Ref { inner, .. } => payload_root(inner, names),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// protocol-drift
// ---------------------------------------------------------------------

/// Flags a `match` over `Msg` that hides variants behind a wildcard
/// arm: a new message type must fail loudly at every dispatch, not
/// vanish into `_`. Only dispatch-shaped matches count, i.e. ones that
/// already enumerate two or more variants; a single-variant accessor
/// (`match m { Msg::X { .. } => …, _ => None }`) is `if let` in match
/// clothing and exempt.
///
/// The wire codec needs no check here: `ring-wire` expands its encoder
/// and decoder from one table, so a variant without a tag, a duplicate
/// tag or a partial decoder is a build error.
fn protocol_drift(files: &[PassFile<'_>], ix: &WorkspaceIndex, em: &mut Emitter<'_, '_>) {
    let Some(msg) = ix.enums.get("Msg") else {
        return;
    };
    let all_variants: BTreeSet<&str> = msg.iter().map(String::as_str).collect();
    for (file_idx, f) in files.iter().enumerate() {
        for_each_match(f.tree, &mut |m| {
            let mut covered: BTreeSet<&str> = BTreeSet::new();
            let mut wildcard = false;
            for pat in m.arms.iter().flat_map(|arm| &arm.pats) {
                let path = &pat.path;
                if pat.is_wildcard {
                    wildcard = true;
                } else if path.len() >= 2 && path[path.len() - 2] == "Msg" {
                    covered.insert(path.last().expect("len>=2").as_str());
                } else {
                    return; // Mixed match; not a protocol dispatch.
                }
            }
            if covered.len() < 2 || !wildcard {
                return;
            }
            let missing: Vec<&str> = all_variants.difference(&covered).copied().collect();
            if !missing.is_empty() {
                em.emit(
                    file_idx,
                    m.line,
                    PROTOCOL_DRIFT,
                    format!(
                        "match over `Msg` hides {} variant(s) behind a wildcard arm \
                         ({}); enumerate them so a new message type fails loudly here",
                        missing.len(),
                        missing.join(", "),
                    ),
                );
            }
        });
    }
}

/// Calls `f` on every match expression in the file, production code
/// only (test mods excluded by the emitter's span check).
fn for_each_match<'a>(tree: &'a SourceFile, f: &mut impl FnMut(&'a crate::ast::MatchExpr)) {
    walk_items(&tree.items, &ItemCtx::default(), &mut |_ctx, item| {
        if let Item::Fn(fun) = item {
            if let Some(body) = &fun.body {
                crate::ast::walk_block_exprs(body, &mut |e| {
                    if let Expr::Match(m) = e {
                        f(m);
                    }
                });
            }
        }
    });
}

// ---------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------

/// Builds the cross-crate lock-acquisition graph and reports cycles.
///
/// Nodes are declared locks (`Type::field` / static name, from the
/// [`WorkspaceIndex`]). An edge A → B is recorded when B is acquired
/// while A is held:
///
/// - directly — a `.lock()/.read()/.write()` under a live `let` guard
///   (guard liveness is the same dataflow as `guard-across-send`) or
///   a same-statement earlier acquisition (`self.a.lock()` feeding a
///   call that locks `self.b`),
/// - transitively — a call made under a guard, where the (uniquely
///   named) callee may acquire locks, computed as a fixpoint over the
///   call graph.
///
/// Any cycle (including a self-edge: re-acquiring a held lock) is a
/// latent deadlock; one diagnostic is emitted per strongly-connected
/// component, anchored at the edge completing the cycle.
fn lock_order(
    files: &[PassFile<'_>],
    ix: &WorkspaceIndex,
    explicit: bool,
    em: &mut Emitter<'_, '_>,
) {
    // Phase A: per-fn summaries.
    struct FnSummary {
        name: String,
        acquired: BTreeSet<String>,
        /// (held lock, acquired lock, file, line)
        edges: Vec<(String, String, usize, u32)>,
        /// (held lock, callee name, file, line)
        calls_under: Vec<(String, String, usize, u32)>,
        /// All callee names (for may-acquire propagation).
        calls: BTreeSet<String>,
    }
    let mut fns: Vec<FnSummary> = Vec::new();
    for (file_idx, f) in files.iter().enumerate() {
        if !explicit && !in_lock_order_scope(f.rel) {
            continue;
        }
        walk_items(&f.tree.items, &ItemCtx::default(), &mut |ctx, item| {
            if ctx.in_test_mod {
                return;
            }
            let Item::Fn(fun) = item else {
                return;
            };
            let Some(body) = &fun.body else {
                return;
            };
            let mut walker = LockWalker {
                ix,
                impl_ty: ctx.impl_ty.as_deref(),
                file_idx,
                held: Vec::new(),
                depth: 0,
                stmt_locks: Vec::new(),
                acquired: BTreeSet::new(),
                edges: Vec::new(),
                calls_under: Vec::new(),
                calls: BTreeSet::new(),
            };
            walker.block(body);
            fns.push(FnSummary {
                name: fun.name.clone(),
                acquired: walker.acquired,
                edges: walker.edges,
                calls_under: walker.calls_under,
                calls: walker.calls,
            });
        });
    }

    // Phase B: may-acquire fixpoint over uniquely-named callees. A
    // name shared by several fns is skipped — following it would wire
    // unrelated `new`/`tick` implementations together and fabricate
    // cycles.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, s) in fns.iter().enumerate() {
        by_name.entry(&s.name).or_default().push(i);
    }
    let unique: BTreeMap<&str, usize> = by_name
        .iter()
        .filter(|(_, v)| v.len() == 1)
        .map(|(n, v)| (*n, v[0]))
        .collect();
    let mut may_acquire: Vec<BTreeSet<String>> = fns.iter().map(|s| s.acquired.clone()).collect();
    loop {
        let mut changed = false;
        for i in 0..fns.len() {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for callee in &fns[i].calls {
                if let Some(&j) = unique.get(callee.as_str()) {
                    for l in &may_acquire[j] {
                        if !may_acquire[i].contains(l) {
                            add.insert(l.clone());
                        }
                    }
                }
            }
            if !add.is_empty() {
                may_acquire[i].extend(add);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Phase C: assemble the edge set. First writer wins per (A, B) so
    // anchors are deterministic (files and fns walk in order).
    let mut graph: BTreeMap<String, BTreeMap<String, (usize, u32)>> = BTreeMap::new();
    let mut add_edge = |a: &str, b: &str, site: (usize, u32)| {
        graph
            .entry(a.to_string())
            .or_default()
            .entry(b.to_string())
            .or_insert(site);
    };
    for s in &fns {
        for (a, b, fi, line) in &s.edges {
            add_edge(a, b, (*fi, *line));
        }
        for (held, callee, fi, line) in &s.calls_under {
            if let Some(&j) = unique.get(callee.as_str()) {
                for b in &may_acquire[j] {
                    add_edge(held, b, (*fi, *line));
                }
            }
        }
    }

    // Phase D: cycles. Self-edges are immediate re-entrancy deadlocks;
    // larger cycles are reported once per strongly-connected component.
    for (a, succs) in &graph {
        if let Some(&(fi, line)) = succs.get(a) {
            em.emit(
                fi,
                line,
                LOCK_ORDER,
                format!(
                    "lock `{a}` acquired while already held (self-cycle); \
                     std::sync locks are not re-entrant — this deadlocks"
                ),
            );
        }
    }
    for comp in sccs(&graph) {
        if comp.len() < 2 {
            continue;
        }
        let set: BTreeSet<&str> = comp.iter().map(String::as_str).collect();
        // Reconstruct one representative cycle: greedy walk from the
        // smallest node through in-component successors.
        let start = comp.iter().min().expect("non-empty").clone();
        let mut path = vec![start.clone()];
        let mut seen: BTreeSet<String> = BTreeSet::new();
        seen.insert(start.clone());
        let mut cur = start.clone();
        loop {
            let next = graph[&cur].keys().find(|k| {
                // Self-loops already got their own diagnostic above;
                // without this the walk would "close" a multi-node
                // cycle through one, reporting `A → A`.
                set.contains(k.as_str()) && **k != cur && (**k == start || !seen.contains(*k))
            });
            match next {
                Some(n) if *n == start => break,
                Some(n) => {
                    path.push(n.clone());
                    seen.insert(n.clone());
                    cur = n.clone();
                }
                None => break, // Defensive; an SCC always closes.
            }
        }
        let (fi, line) = graph[path.last().expect("non-empty")][&start];
        let cycle = format!("{} → {}", path.join(" → "), start);
        em.emit(
            fi,
            line,
            LOCK_ORDER,
            format!(
                "lock-order cycle: {cycle}; two threads taking these locks in \
                 opposite orders deadlock — pick one global order"
            ),
        );
    }

    /// Strongly-connected components (Kosaraju), deterministic order.
    fn sccs(graph: &BTreeMap<String, BTreeMap<String, (usize, u32)>>) -> Vec<Vec<String>> {
        let mut nodes: BTreeSet<&str> = BTreeSet::new();
        for (a, succs) in graph {
            nodes.insert(a);
            for b in succs.keys() {
                nodes.insert(b);
            }
        }
        let mut order = Vec::new();
        let mut visited: BTreeSet<&str> = BTreeSet::new();
        fn dfs1<'g>(
            n: &'g str,
            graph: &'g BTreeMap<String, BTreeMap<String, (usize, u32)>>,
            visited: &mut BTreeSet<&'g str>,
            order: &mut Vec<&'g str>,
        ) {
            if !visited.insert(n) {
                return;
            }
            if let Some(succs) = graph.get(n) {
                for b in succs.keys() {
                    dfs1(b, graph, visited, order);
                }
            }
            order.push(n);
        }
        for n in &nodes {
            dfs1(n, graph, &mut visited, &mut order);
        }
        let mut rev: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (a, succs) in graph {
            for b in succs.keys() {
                rev.entry(b).or_default().insert(a);
            }
        }
        let mut comp_of: BTreeMap<&str, usize> = BTreeMap::new();
        let mut comps: Vec<Vec<String>> = Vec::new();
        for n in order.iter().rev() {
            if comp_of.contains_key(n) {
                continue;
            }
            let id = comps.len();
            let mut stack = vec![*n];
            let mut members = Vec::new();
            while let Some(m) = stack.pop() {
                if comp_of.contains_key(m) {
                    continue;
                }
                comp_of.insert(m, id);
                members.push(m.to_string());
                if let Some(preds) = rev.get(m) {
                    for p in preds {
                        if !comp_of.contains_key(*p) {
                            stack.push(p);
                        }
                    }
                }
            }
            members.sort();
            comps.push(members);
        }
        comps
    }
}

/// The guard-liveness walker for lock-order: like the
/// `guard-across-send` dataflow, but tracking which *lock* each guard
/// holds, plus same-statement temporary acquisitions and calls made
/// under a guard.
struct LockWalker<'a> {
    ix: &'a WorkspaceIndex,
    impl_ty: Option<&'a str>,
    file_idx: usize,
    /// Live let-bound guards: (binding name, lock id, owning scope).
    held: Vec<(String, Option<String>, u32)>,
    depth: u32,
    /// Locks acquired earlier in the current statement (temporaries
    /// live to the statement's end).
    stmt_locks: Vec<String>,
    acquired: BTreeSet<String>,
    edges: Vec<(String, String, usize, u32)>,
    calls_under: Vec<(String, String, usize, u32)>,
    calls: BTreeSet<String>,
}

impl LockWalker<'_> {
    fn block(&mut self, b: &Block) {
        self.depth += 1;
        for stmt in &b.stmts {
            self.stmt_locks.clear();
            match stmt {
                Stmt::Let(l) => self.let_stmt(l),
                Stmt::Expr(e) => self.expr(e),
                Stmt::Item(_) => {}
            }
        }
        self.stmt_locks.clear();
        let depth = self.depth;
        self.held.retain(|&(_, _, scope)| scope < depth);
        self.depth -= 1;
    }

    fn let_stmt(&mut self, l: &LetStmt) {
        if let Some(name) = &l.name {
            if let Some(recv) = guard_init(l.init.as_ref()) {
                // Walk the receiver chain first — `self.a.lock()` can
                // itself sit under other guards — then register.
                self.expr(recv);
                let lock = self.resolve(recv);
                if let Some(lock) = &lock {
                    self.acquire(lock.clone(), l.line);
                }
                self.held.retain(|(n, _, _)| n != name);
                self.held.push((name.clone(), lock, self.depth));
                return;
            }
            if let Some(Expr::Path(p)) = &l.init {
                if p.segs.len() == 1 {
                    if let Some(pos) = self.held.iter().position(|(n, _, _)| *n == p.segs[0].0) {
                        let (_, lock, _) = self.held.remove(pos);
                        if name != "_" {
                            self.held.push((name.clone(), lock, self.depth));
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

    /// Records an acquisition of `lock`: edges from every held lock
    /// and every earlier same-statement temporary.
    fn acquire(&mut self, lock: String, line: u32) {
        self.acquired.insert(lock.clone());
        let mut froms: Vec<String> = self.held.iter().filter_map(|(_, l, _)| l.clone()).collect();
        froms.extend(self.stmt_locks.iter().cloned());
        for a in froms {
            self.edges.push((a, lock.clone(), self.file_idx, line));
        }
        self.stmt_locks.push(lock);
    }

    /// Resolves a lock receiver to a declared lock id:
    /// `self.f` via the impl type, any `.f` via a unique field name,
    /// a path ending in a known static.
    fn resolve(&self, recv: &Expr) -> Option<String> {
        let mut e = recv;
        while let Expr::Ref { inner, .. } = e {
            e = inner;
        }
        match e {
            Expr::Path(p) => {
                let last = &p.segs.last()?.0;
                self.ix.lock_ids.contains_key(last).then(|| last.clone())
            }
            Expr::Field { recv, name, .. } => {
                if let Expr::Path(p) = recv.as_ref() {
                    if p.segs.len() == 1 && p.segs[0].0 == "self" {
                        if let Some(ty) = self.impl_ty {
                            let id = format!("{ty}::{name}");
                            if self.ix.lock_ids.contains_key(&id) {
                                return Some(id);
                            }
                        }
                    }
                }
                match self.ix.lock_fields.get(name) {
                    Some(decls) if decls.len() == 1 => Some(decls[0].id.clone()),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::MethodCall {
                recv,
                method,
                args,
                line,
            } => {
                self.expr(recv);
                if args.is_empty() && matches!(method.as_str(), "lock" | "read" | "write") {
                    if let Some(lock) = self.resolve(recv) {
                        self.acquire(lock, *line);
                    }
                } else if matches!(
                    recv.as_ref(),
                    Expr::Path(p) if p.segs.len() == 1 && p.segs[0].0 == "self"
                ) {
                    // Only `self.method()` resolves interprocedurally.
                    // A bare method name on any other receiver
                    // (`heap.push(..)`) collides with container
                    // methods and would fabricate edges.
                    self.call(method, *line);
                }
                for a in args {
                    self.expr(a);
                }
            }
            Expr::Call { callee, args, line } => {
                if let Expr::Path(p) = callee.as_ref() {
                    // `drop(g)` ends a guard's live-range.
                    if p.segs.len() == 1 && p.segs[0].0 == "drop" && args.len() == 1 {
                        if let Expr::Path(arg) = &args[0] {
                            if arg.segs.len() == 1 {
                                let name = arg.segs[0].0.clone();
                                self.held.retain(|(n, _, _)| *n != name);
                                return;
                            }
                        }
                    }
                    if let Some((callee_name, _)) = p.segs.last() {
                        self.call(callee_name, *line);
                    }
                } else {
                    self.expr(callee);
                }
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

    /// Records a call event: the callee for may-acquire propagation,
    /// and a call-under-guard when any resolved lock is held.
    fn call(&mut self, callee: &str, line: u32) {
        self.calls.insert(callee.to_string());
        let held: Vec<String> = self.held.iter().filter_map(|(_, l, _)| l.clone()).collect();
        for a in held {
            self.calls_under
                .push((a, callee.to_string(), self.file_idx, line));
        }
    }
}
