//! The `ring-lint` v2 syntax tree.
//!
//! This is a *skeleton* AST, not a full Rust grammar: it models exactly
//! the structure the semantic passes reason about — item nesting, block
//! scopes, `let` bindings with their types, call/method-call chains,
//! `match` scrutinees and arm patterns — and collapses everything else
//! (operators, casts, generics) into ordered child sequences. The
//! parser ([`crate::parse`]) is loss-tolerant by design: unknown shapes
//! degrade to [`Expr::Unknown`] rather than failing, and only
//! *structural* damage (unbalanced delimiters, a truncated file) is
//! reported as a parse error.
//!
//! Line numbers are 1-based and refer to the token that anchors the
//! node (a method name, a `match` keyword, a pattern alternative's first
//! token); diagnostics report them verbatim.

/// A parsed source file.
#[derive(Debug, Default)]
pub struct SourceFile {
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// Structural parse errors. Non-empty means the tree is not
    /// trustworthy and linting must abort with an internal error
    /// (exit code 2), never report partial findings.
    pub errors: Vec<ParseError>,
}

/// One structural parse error.
#[derive(Debug, Clone)]
pub struct ParseError {
    /// 1-based line the damage was detected on.
    pub line: u32,
    /// What went wrong.
    pub msg: String,
}

/// A top-level or nested item.
#[derive(Debug)]
pub enum Item {
    /// `fn` (free, impl method, or trait default method).
    Fn(FnItem),
    /// `struct` with named or tuple fields.
    Struct(StructItem),
    /// `enum` with its variants.
    Enum(EnumItem),
    /// `impl [Trait for] Type { items }`.
    Impl(ImplBlock),
    /// `mod name { items }` or `mod name;`.
    Mod(ModItem),
    /// `trait Name { items }`.
    Trait(TraitItem),
    /// `use` tree, flattened to its identifiers.
    Use(UseItem),
    /// `const`/`static` with optional initializer.
    Const(ConstItem),
    /// Anything else (`type`, `macro_rules!`, `extern` blocks, …).
    Other,
}

/// A function item.
#[derive(Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Parameters (including `self` receivers, whose `name` is `self`).
    pub params: Vec<Param>,
    /// The body; `None` for trait method declarations.
    pub body: Option<Block>,
}

/// One function parameter.
#[derive(Debug)]
pub struct Param {
    /// Simple binding name (`self` for receivers); `None` for complex
    /// patterns like `(a, b): (A, B)`.
    pub name: Option<String>,
    /// Declared type, empty for bare `self` receivers.
    pub ty: TypeStr,
}

/// A type annotation, kept as its token sequence.
#[derive(Debug, Default, Clone)]
pub struct TypeStr {
    /// The type's identifier/punct tokens, in order (e.g.
    /// `["Vec", "<", "Option", "<", "Payload", ">", ">"]`).
    pub toks: Vec<String>,
}

impl TypeStr {
    /// True if `name` appears as a standalone token of the type.
    pub fn mentions(&self, name: &str) -> bool {
        self.toks.iter().any(|t| t == name)
    }

    /// The outermost type name, skipping references and pointers
    /// (`&'a mut Mutex<T>` → `Mutex`).
    pub fn head(&self) -> Option<&str> {
        self.toks.iter().map(String::as_str).find(|t| {
            !matches!(*t, "&" | "*" | "mut" | "const" | "dyn" | "impl")
                && t.chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_')
        })
    }
}

/// A struct definition.
#[derive(Debug)]
pub struct StructItem {
    /// The struct's name.
    pub name: String,
    /// Named fields (tuple fields get positional names `0`, `1`, …).
    pub fields: Vec<Field>,
}

/// A named field (struct or enum-variant).
#[derive(Debug)]
pub struct Field {
    /// The field's name.
    pub name: String,
    /// Declared type.
    pub ty: TypeStr,
    /// Line of the field name.
    pub line: u32,
}

/// An enum definition.
#[derive(Debug)]
pub struct EnumItem {
    /// The enum's name.
    pub name: String,
    /// Line of the `enum` keyword.
    pub line: u32,
    /// The variants, in declaration order.
    pub variants: Vec<Variant>,
}

/// One enum variant.
#[derive(Debug)]
pub struct Variant {
    /// The variant's name.
    pub name: String,
    /// Line of the variant name.
    pub line: u32,
    /// Fields (named or tuple-positional).
    pub fields: Vec<Field>,
}

/// An `impl` block.
#[derive(Debug)]
pub struct ImplBlock {
    /// Head identifier of the self type (`Foo` for `impl Foo<T>`).
    pub self_ty: String,
    /// Items inside the block (fns, consts, `type` aliases → `Other`).
    pub items: Vec<Item>,
}

/// A module.
#[derive(Debug)]
pub struct ModItem {
    /// True if the module carries `#[cfg(test)]`.
    pub cfg_test: bool,
    /// Line the item starts on (its first attribute, so a test-mod
    /// span covers the `#[cfg(test)]` line itself).
    pub start_line: u32,
    /// Line of the closing brace (`start_line` for `mod x;`).
    pub end_line: u32,
    /// Inline items; empty for `mod x;`.
    pub items: Vec<Item>,
}

/// A trait definition.
#[derive(Debug)]
pub struct TraitItem {
    /// Items inside (default methods carry bodies).
    pub items: Vec<Item>,
}

/// A `use` item, flattened.
#[derive(Debug)]
pub struct UseItem {
    /// Every identifier in the use tree, with its line and whether it
    /// is adjacent to a `::` (`a::b` — both; `{a, b}` members — no).
    /// Path-position rules use the adjacency to match only qualified
    /// mentions.
    pub segs: Vec<UseSeg>,
}

/// One identifier inside a `use` tree.
#[derive(Debug)]
pub struct UseSeg {
    /// The identifier.
    pub name: String,
    /// 1-based source line.
    pub line: u32,
    /// Directly preceded or followed by `::`.
    pub colon_adjacent: bool,
}

/// A `const` or `static` item.
#[derive(Debug)]
pub struct ConstItem {
    /// The item's name.
    pub name: String,
    /// Line of the name.
    pub line: u32,
    /// True for `static`.
    pub is_static: bool,
    /// Declared type.
    pub ty: TypeStr,
    /// The initializer expression, when present.
    pub value: Option<Expr>,
}

/// A `{ ... }` block with its statements.
#[derive(Debug, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// Line of the opening brace.
    pub open_line: u32,
}

/// One statement.
#[derive(Debug)]
pub enum Stmt {
    /// A `let` binding.
    Let(LetStmt),
    /// An expression statement.
    Expr(Expr),
    /// A nested item.
    Item(Box<Item>),
}

/// A `let` statement.
#[derive(Debug)]
pub struct LetStmt {
    /// Simple binding name; `None` for tuple/struct patterns.
    pub name: Option<String>,
    /// Declared type annotation, if written.
    pub ty: Option<TypeStr>,
    /// Initializer.
    pub init: Option<Expr>,
    /// `let … else { … }` diverging block.
    pub else_block: Option<Block>,
    /// Line of the `let` keyword.
    pub line: u32,
}

/// A path expression: `a::b::c` (a single identifier is a one-segment
/// path).
#[derive(Debug)]
pub struct PathExpr {
    /// Segments with the line each starts on.
    pub segs: Vec<(String, u32)>,
}

impl PathExpr {
    /// Line of the path's first token.
    pub fn line(&self) -> u32 {
        self.segs.first().map(|&(_, l)| l).unwrap_or(0)
    }
}

/// An expression (skeleton-level).
#[derive(Debug)]
pub enum Expr {
    /// `a::b::c` or a bare identifier.
    Path(PathExpr),
    /// Any literal.
    Lit {
        /// The literal's line.
        line: u32,
    },
    /// `callee(args)`.
    Call {
        /// The called expression (usually a path).
        callee: Box<Expr>,
        /// Arguments in order.
        args: Vec<Expr>,
        /// Line of the opening paren's callee.
        line: u32,
    },
    /// `recv.method(args)`.
    MethodCall {
        /// The receiver chain.
        recv: Box<Expr>,
        /// Method name.
        method: String,
        /// Arguments in order.
        args: Vec<Expr>,
        /// Line of the method name.
        line: u32,
    },
    /// `recv.field` (tuple indices become `0`, `1`, …).
    Field {
        /// The receiver chain.
        recv: Box<Expr>,
        /// Field name.
        name: String,
        /// Line of the field name.
        line: u32,
    },
    /// `recv[index]`.
    Index {
        /// The receiver chain.
        recv: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
        /// Line of the receiver.
        line: u32,
    },
    /// A `{ ... }` block expression (also `unsafe`/`async`/labelled).
    Block(Block),
    /// `if cond { } [else ...]` (also `if let`).
    If {
        /// The condition (scrutinee for `if let`).
        cond: Box<Expr>,
        /// The then-block.
        then: Block,
        /// `else` branch: a Block or another If.
        else_: Option<Box<Expr>>,
        /// Line of the `if`.
        line: u32,
    },
    /// `match scrutinee { arms }`.
    Match(MatchExpr),
    /// `while cond { }` (also `while let`).
    While {
        /// The condition.
        cond: Box<Expr>,
        /// The body.
        body: Block,
        /// Line of the `while`.
        line: u32,
    },
    /// `for pat in iter { }`.
    For {
        /// The iterated expression.
        iter: Box<Expr>,
        /// The body.
        body: Block,
        /// Line of the `for`.
        line: u32,
    },
    /// `loop { }`.
    Loop {
        /// The body.
        body: Block,
        /// Line of the `loop`.
        line: u32,
    },
    /// `|args| body` / `move |args| body`.
    Closure {
        /// The closure body.
        body: Box<Expr>,
        /// Line of the opening `|`.
        line: u32,
    },
    /// `Path { field: expr, .. }`.
    StructLit {
        /// The struct path.
        path: PathExpr,
        /// `(field, value)` pairs (shorthand fields get a Path value).
        fields: Vec<(String, Expr)>,
        /// Line of the path.
        line: u32,
    },
    /// `path!(args)` / `path![args]` / `path! { ... }`; arguments are
    /// parsed leniently so rule-relevant shapes inside macros are seen.
    MacroCall {
        /// The macro path.
        path: PathExpr,
        /// Best-effort parsed arguments.
        args: Vec<Expr>,
        /// Line of the macro name.
        line: u32,
    },
    /// `&expr` / `&mut expr`.
    Ref {
        /// The referenced expression.
        inner: Box<Expr>,
        /// Line of the `&`.
        line: u32,
    },
    /// Operator-joined operands, tuples, array elements: children in
    /// source order with the joining operators dropped.
    Seq {
        /// The operand children.
        parts: Vec<Expr>,
        /// Line of the first child.
        line: u32,
    },
    /// Something the skeleton grammar does not model.
    Unknown {
        /// Line of the unmodelled token.
        line: u32,
    },
}

impl Expr {
    /// Anchor line of the expression.
    pub fn line(&self) -> u32 {
        match self {
            Expr::Path(p) => p.line(),
            Expr::Lit { line }
            | Expr::Call { line, .. }
            | Expr::MethodCall { line, .. }
            | Expr::Field { line, .. }
            | Expr::Index { line, .. }
            | Expr::If { line, .. }
            | Expr::While { line, .. }
            | Expr::For { line, .. }
            | Expr::Loop { line, .. }
            | Expr::Closure { line, .. }
            | Expr::StructLit { line, .. }
            | Expr::MacroCall { line, .. }
            | Expr::Ref { line, .. }
            | Expr::Seq { line, .. }
            | Expr::Unknown { line } => *line,
            Expr::Block(b) => b.open_line,
            Expr::Match(m) => m.line,
        }
    }
}

/// A `match` expression.
#[derive(Debug)]
pub struct MatchExpr {
    /// The scrutinee.
    pub scrutinee: Box<Expr>,
    /// The arms in order.
    pub arms: Vec<Arm>,
    /// Line of the `match` keyword.
    pub line: u32,
}

/// One match arm (possibly `|`-alternated).
#[derive(Debug)]
pub struct Arm {
    /// The `|`-separated alternatives.
    pub pats: Vec<PatInfo>,
    /// The arm body.
    pub body: Box<Expr>,
}

/// Skeleton info about one pattern alternative.
#[derive(Debug)]
pub struct PatInfo {
    /// Leading path of the pattern (`["Msg", "Request"]` for
    /// `Msg::Request { .. }`), when the pattern starts with one.
    pub path: Vec<String>,
    /// True for `_` or a bare lowercase binding — a pattern that
    /// matches every value.
    pub is_wildcard: bool,
    /// Line of the alternative's first token.
    pub line: u32,
}

// ---------------------------------------------------------------------
// Walkers.
// ---------------------------------------------------------------------

/// Calls `f` on `e` and every sub-expression, pre-order. Blocks nested
/// in expressions are descended via [`walk_block_exprs`].
pub fn walk_exprs<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(e);
    match e {
        Expr::Path(_) | Expr::Lit { .. } | Expr::Unknown { .. } => {}
        Expr::Call { callee, args, .. } => {
            walk_exprs(callee, f);
            for a in args {
                walk_exprs(a, f);
            }
        }
        Expr::MethodCall { recv, args, .. } => {
            walk_exprs(recv, f);
            for a in args {
                walk_exprs(a, f);
            }
        }
        Expr::Field { recv, .. } => walk_exprs(recv, f),
        Expr::Index { recv, index, .. } => {
            walk_exprs(recv, f);
            walk_exprs(index, f);
        }
        Expr::Block(b) => walk_block_exprs(b, f),
        Expr::If {
            cond, then, else_, ..
        } => {
            walk_exprs(cond, f);
            walk_block_exprs(then, f);
            if let Some(e) = else_ {
                walk_exprs(e, f);
            }
        }
        Expr::Match(m) => {
            walk_exprs(&m.scrutinee, f);
            for arm in &m.arms {
                walk_exprs(&arm.body, f);
            }
        }
        Expr::While { cond, body, .. } => {
            walk_exprs(cond, f);
            walk_block_exprs(body, f);
        }
        Expr::For { iter, body, .. } => {
            walk_exprs(iter, f);
            walk_block_exprs(body, f);
        }
        Expr::Loop { body, .. } => walk_block_exprs(body, f),
        Expr::Closure { body, .. } => walk_exprs(body, f),
        Expr::StructLit { fields, .. } => {
            for (_, v) in fields {
                walk_exprs(v, f);
            }
        }
        Expr::MacroCall { args, .. } => {
            for a in args {
                walk_exprs(a, f);
            }
        }
        Expr::Ref { inner, .. } => walk_exprs(inner, f),
        Expr::Seq { parts, .. } => {
            for p in parts {
                walk_exprs(p, f);
            }
        }
    }
}

/// Calls `f` on every expression in a block (including `let`
/// initializers), pre-order. Nested *items* are not descended — use
/// [`walk_items`] to reach them.
pub fn walk_block_exprs<'a>(b: &'a Block, f: &mut impl FnMut(&'a Expr)) {
    for s in &b.stmts {
        match s {
            Stmt::Let(l) => {
                if let Some(init) = &l.init {
                    walk_exprs(init, f);
                }
                if let Some(els) = &l.else_block {
                    walk_block_exprs(els, f);
                }
            }
            Stmt::Expr(e) => walk_exprs(e, f),
            Stmt::Item(_) => {}
        }
    }
}

/// Context passed to [`walk_items`] callbacks.
#[derive(Debug, Clone, Default)]
pub struct ItemCtx {
    /// `impl` self-type heads enclosing this item (innermost last).
    pub impl_ty: Option<String>,
    /// True when inside a `#[cfg(test)]` module.
    pub in_test_mod: bool,
}

/// Depth-first walk over every item (including items nested in mods,
/// impls, traits, and function bodies).
pub fn walk_items<'a>(items: &'a [Item], ctx: &ItemCtx, f: &mut impl FnMut(&ItemCtx, &'a Item)) {
    for item in items {
        f(ctx, item);
        match item {
            Item::Fn(fun) => {
                if let Some(body) = &fun.body {
                    walk_block_items(body, ctx, f);
                }
            }
            Item::Impl(imp) => {
                let inner = ItemCtx {
                    impl_ty: Some(imp.self_ty.clone()),
                    ..ctx.clone()
                };
                walk_items(&imp.items, &inner, f);
            }
            Item::Mod(m) => {
                let inner = ItemCtx {
                    in_test_mod: ctx.in_test_mod || m.cfg_test,
                    ..ctx.clone()
                };
                walk_items(&m.items, &inner, f);
            }
            Item::Trait(t) => walk_items(&t.items, ctx, f),
            _ => {}
        }
    }
}

fn walk_block_items<'a>(b: &'a Block, ctx: &ItemCtx, f: &mut impl FnMut(&ItemCtx, &'a Item)) {
    for s in &b.stmts {
        match s {
            Stmt::Item(item) => walk_items(std::slice::from_ref(item.as_ref()), ctx, f),
            Stmt::Expr(e) => walk_expr_items(e, ctx, f),
            Stmt::Let(l) => {
                if let Some(init) = &l.init {
                    walk_expr_items(init, ctx, f);
                }
                if let Some(els) = &l.else_block {
                    walk_block_items(els, ctx, f);
                }
            }
        }
    }
}

fn walk_expr_items<'a>(e: &'a Expr, ctx: &ItemCtx, f: &mut impl FnMut(&ItemCtx, &'a Item)) {
    walk_exprs(e, &mut |sub| {
        if let Expr::Block(b) = sub {
            for s in &b.stmts {
                if let Stmt::Item(item) = s {
                    walk_items(std::slice::from_ref(item.as_ref()), ctx, f);
                }
            }
        }
    });
}
