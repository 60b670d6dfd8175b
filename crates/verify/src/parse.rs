//! A hand-rolled, loss-tolerant Rust parser for `ring-lint` v2.
//!
//! Layered on [`crate::lexer`] (the container vendors no `syn`), it
//! produces the skeleton tree of [`crate::ast`]: items, block scopes,
//! `let` bindings, call/method chains, and `match` arms — the shapes
//! the semantic passes reason about. Everything the passes don't need
//! (operator precedence, generics, full patterns) is skipped or
//! flattened into ordered child lists.
//!
//! The parser is built to *never* wedge: every loop consumes at least
//! one token, unmodelled constructs degrade to [`Expr::Unknown`], and
//! only structural damage — an unbalanced delimiter, a file that ends
//! inside a block — is reported in [`SourceFile::errors`]. The
//! workspace golden test asserts zero errors over every `.rs` file in
//! `crates/`, which is the contract the rules depend on.

use crate::ast::*;
use crate::lexer::{Lexed, Token, TokenKind};

/// Parses a lexed file into the skeleton tree.
pub fn parse(lexed: &Lexed) -> SourceFile {
    let mut p = P {
        t: &lexed.tokens,
        i: 0,
        errors: Vec::new(),
        // A generous linear budget: any loop that stops consuming
        // exhausts it and surfaces as a ParseError instead of a hang.
        fuel: 64 * lexed.tokens.len() + 4096,
    };
    let items = p.parse_items(false);
    if p.i < p.t.len() {
        // Only unbalanced closers can strand tokens at top level.
        let line = p.t[p.i].line;
        p.err(line, "unbalanced closing delimiter at item level");
    }
    SourceFile {
        items,
        errors: p.errors,
    }
}

/// Item-level keywords the statement parser must hand to
/// [`P::parse_item`].
const ITEM_KEYWORDS: [&str; 12] = [
    "fn",
    "struct",
    "enum",
    "impl",
    "mod",
    "trait",
    "use",
    "type",
    "macro_rules",
    "union",
    "extern",
    "pub",
];

/// Expression-terminator configuration for [`P::parse_expr`].
#[derive(Clone, Copy, Default)]
struct Stops {
    /// Single-char punct terminators (checked at top nesting only —
    /// nested delimiters are consumed whole by the unit parser).
    chars: &'static [char],
    /// Stop before `=>` (match-arm guards).
    arrow: bool,
}

impl Stops {
    const fn of(chars: &'static [char]) -> Self {
        Stops {
            chars,
            arrow: false,
        }
    }
}

struct P<'a> {
    t: &'a [Token],
    i: usize,
    errors: Vec<ParseError>,
    fuel: usize,
}

impl<'a> P<'a> {
    // ---- primitives -------------------------------------------------

    fn err(&mut self, line: u32, msg: &str) {
        if self.errors.len() < 16 {
            self.errors.push(ParseError {
                line,
                msg: msg.to_string(),
            });
        }
    }

    fn at_end(&self) -> bool {
        self.i >= self.t.len()
    }

    /// Burns one unit of the linear fuel budget; on exhaustion,
    /// reports an internal error and forces the cursor to EOF so every
    /// loop terminates. A correct parse never comes close to the
    /// budget — this is the backstop for non-progressing loop bugs.
    fn spend_fuel(&mut self) -> bool {
        if self.fuel == 0 {
            let line = self.line();
            self.err(line, "parser fuel exhausted (internal parser bug)");
            self.i = self.t.len();
            return false;
        }
        self.fuel -= 1;
        true
    }

    fn line(&self) -> u32 {
        self.t
            .get(self.i)
            .or_else(|| self.t.last())
            .map(|t| t.line)
            .unwrap_or(1)
    }

    fn kind(&self, off: usize) -> Option<&'a TokenKind> {
        self.t.get(self.i + off).map(|t| &t.kind)
    }

    fn ident(&self, off: usize) -> Option<&'a str> {
        match self.kind(off) {
            Some(TokenKind::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    fn punct(&self, off: usize, c: char) -> bool {
        self.kind(off) == Some(&TokenKind::Punct(c))
    }

    fn literal(&self, off: usize) -> Option<&'a str> {
        match self.kind(off) {
            Some(TokenKind::Literal(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    fn bump(&mut self) {
        self.i += 1;
    }

    /// `::` at `off` (two adjacent colon puncts).
    fn colons(&self, off: usize) -> bool {
        self.punct(off, ':') && self.punct(off + 1, ':')
    }

    /// A `=` that is assignment-like: not part of `==`, `=>`, `<=`,
    /// `>=`, `!=`, `..=`, or a compound-assign operator.
    fn assign_eq(&self, off: usize) -> bool {
        if !self.punct(off, '=') || self.punct(off + 1, '=') || self.punct(off + 1, '>') {
            return false;
        }
        if self.i + off == 0 {
            return true;
        }
        match self.t.get(self.i + off - 1).map(|t| &t.kind) {
            Some(TokenKind::Punct(c)) => !matches!(
                *c,
                '=' | '<' | '>' | '!' | '.' | '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^'
            ),
            _ => true,
        }
    }

    /// Skips a balanced `( )`, `[ ]` or `{ }` group; assumes the
    /// current token is the opener. Reports an error on EOF.
    fn skip_balanced(&mut self) {
        let line = self.line();
        let mut depth = 0i32;
        while !self.at_end() {
            match self.kind(0) {
                Some(TokenKind::Punct('(' | '[' | '{')) => depth += 1,
                Some(TokenKind::Punct(')' | ']' | '}')) => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        return;
                    }
                }
                _ => {}
            }
            self.bump();
        }
        self.err(line, "unterminated delimiter group");
    }

    /// Skips a `< ... >` generics group; assumes the current token is
    /// `<`. `->` arrows inside (fn-pointer types) are skipped whole.
    fn skip_generics(&mut self) {
        let line = self.line();
        let mut depth = 0i32;
        while !self.at_end() {
            if self.punct(0, '-') && self.punct(1, '>') {
                self.bump();
                self.bump();
                continue;
            }
            match self.kind(0) {
                Some(TokenKind::Punct('<')) => depth += 1,
                Some(TokenKind::Punct('>')) => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        return;
                    }
                }
                Some(TokenKind::Punct('(' | '[' | '{')) => {
                    self.skip_balanced();
                    continue;
                }
                _ => {}
            }
            self.bump();
        }
        self.err(line, "unterminated generics group");
    }

    /// Consumes attributes (`#[...]` / `#![...]`), returning
    /// `(saw_cfg_test, first_line)`.
    fn eat_attrs(&mut self) -> (bool, Option<u32>) {
        let mut cfg_test = false;
        let mut first_line = None;
        loop {
            let inner = self.punct(0, '#') && self.punct(1, '!') && self.punct(2, '[');
            let outer = self.punct(0, '#') && self.punct(1, '[');
            if !inner && !outer {
                return (cfg_test, first_line);
            }
            first_line.get_or_insert(self.line());
            self.bump(); // '#'
            if inner {
                self.bump(); // '!'
            }
            // Peek `[cfg(test)]` before skipping the group.
            if self.ident(1) == Some("cfg")
                && self.punct(2, '(')
                && self.ident(3) == Some("test")
                && self.punct(4, ')')
            {
                cfg_test = true;
            }
            self.skip_balanced();
        }
    }

    /// Scans a type annotation. Stops (without consuming) at any of
    /// `stops` or the keyword `where`, at zero delimiter/angle nesting.
    fn parse_type(&mut self, stops: &[char]) -> TypeStr {
        let mut toks = Vec::new();
        let mut angle = 0i32;
        let mut nest = 0i32;
        while !self.at_end() {
            if self.punct(0, '-') && self.punct(1, '>') {
                toks.push("-".into());
                toks.push(">".into());
                self.bump();
                self.bump();
                continue;
            }
            match self.kind(0) {
                Some(TokenKind::Punct(c)) => {
                    let c = *c;
                    if nest == 0 && angle == 0 && stops.contains(&c) {
                        break;
                    }
                    match c {
                        '<' => angle += 1,
                        '>' => {
                            if angle == 0 {
                                break;
                            }
                            angle -= 1;
                        }
                        '(' | '[' | '{' => nest += 1,
                        ')' | ']' | '}' => {
                            if nest == 0 {
                                break;
                            }
                            nest -= 1;
                        }
                        _ => {}
                    }
                    toks.push(c.to_string());
                }
                Some(TokenKind::Ident(s)) => {
                    if nest == 0 && angle == 0 && s == "where" {
                        break;
                    }
                    toks.push(s.clone());
                }
                Some(TokenKind::Literal(s)) => toks.push(s.clone()),
                Some(TokenKind::Lifetime) => toks.push("'_".into()),
                None => break,
            }
            self.bump();
        }
        TypeStr { toks }
    }

    /// Skips a `where` clause: everything up to `{` or `;` at zero
    /// nesting (angle-aware).
    fn skip_where(&mut self) {
        let mut angle = 0i32;
        let mut nest = 0i32;
        while !self.at_end() {
            if self.punct(0, '-') && self.punct(1, '>') {
                self.bump();
                self.bump();
                continue;
            }
            match self.kind(0) {
                Some(TokenKind::Punct('<')) => angle += 1,
                Some(TokenKind::Punct('>')) => angle = (angle - 1).max(0),
                Some(TokenKind::Punct('(' | '[')) => nest += 1,
                Some(TokenKind::Punct(')' | ']')) => nest -= 1,
                Some(TokenKind::Punct('{' | ';')) if nest == 0 && angle == 0 => return,
                _ => {}
            }
            self.bump();
        }
    }

    // ---- items ------------------------------------------------------

    /// Parses items until EOF (`inner == false`) or a closing `}`
    /// (`inner == true`, closer not consumed).
    fn parse_items(&mut self, inner: bool) -> Vec<Item> {
        let mut items = Vec::new();
        loop {
            if !self.spend_fuel() {
                return items;
            }
            if self.at_end() {
                if inner {
                    let line = self.line();
                    self.err(line, "file ended inside a block");
                }
                return items;
            }
            if self.punct(0, '}') {
                if !inner {
                    // Stray closer: report once, consume, continue.
                    let line = self.line();
                    self.err(line, "unbalanced `}` at item level");
                    self.bump();
                    continue;
                }
                return items;
            }
            if self.punct(0, ';') {
                self.bump();
                continue;
            }
            items.push(self.parse_item());
        }
    }

    fn parse_item(&mut self) -> Item {
        let (cfg_test, attr_line) = self.eat_attrs();
        let start_line = attr_line.unwrap_or_else(|| self.line());

        // Visibility.
        if self.ident(0) == Some("pub") {
            self.bump();
            if self.punct(0, '(') {
                self.skip_balanced();
            }
        }

        // Leading modifiers.
        loop {
            match self.ident(0) {
                Some("unsafe" | "async" | "auto" | "default") => self.bump(),
                Some("const") if self.ident(1) == Some("fn") => self.bump(),
                Some("extern") => {
                    if self.literal(1).is_some() && self.ident(2) == Some("fn") {
                        self.bump();
                        self.bump();
                    } else if self.literal(1).is_some() && self.punct(2, '{') {
                        // Foreign block: skip wholesale.
                        self.bump();
                        self.bump();
                        self.skip_balanced();
                        return Item::Other;
                    } else {
                        // `extern crate x;`
                        while !self.at_end() && !self.punct(0, ';') {
                            self.bump();
                        }
                        self.bump();
                        return Item::Other;
                    }
                }
                _ => break,
            }
        }

        match self.ident(0) {
            Some("fn") => Item::Fn(self.parse_fn()),
            Some("struct") => self.parse_struct(),
            Some("enum") => self.parse_enum(),
            Some("impl") => self.parse_impl(),
            Some("mod") => self.parse_mod(cfg_test, start_line),
            Some("trait") => self.parse_trait(),
            Some("use") => self.parse_use(),
            Some("const" | "static") => self.parse_const(),
            Some("type") => {
                self.skip_to_semi();
                Item::Other
            }
            Some("macro_rules") => {
                self.bump();
                if self.punct(0, '!') {
                    self.bump();
                }
                if self.ident(0).is_some() {
                    self.bump();
                }
                if matches!(self.kind(0), Some(TokenKind::Punct('(' | '[' | '{'))) {
                    self.skip_balanced();
                }
                Item::Other
            }
            Some("union") => {
                self.bump();
                if self.ident(0).is_some() {
                    self.bump();
                }
                if self.punct(0, '<') {
                    self.skip_generics();
                }
                if self.punct(0, '{') {
                    self.skip_balanced();
                }
                Item::Other
            }
            Some(_) => {
                // Macro invocation item: `path::mac! { ... }` / `(...)`;`.
                if !self.try_macro_item() {
                    let line = self.line();
                    self.err(line, "unrecognized item");
                    self.bump();
                }
                Item::Other
            }
            None => {
                let line = self.line();
                self.err(line, "expected an item");
                self.bump();
                Item::Other
            }
        }
    }

    /// Consumes `path::to::mac!(...)`-style item macros; returns false
    /// (consuming nothing) if the shape doesn't match.
    fn try_macro_item(&mut self) -> bool {
        let mut off = 0;
        while self.ident(off).is_some() {
            off += 1;
            if self.punct(off, ':') && self.punct(off + 1, ':') {
                off += 2;
            } else {
                break;
            }
        }
        if off == 0 || !self.punct(off, '!') {
            return false;
        }
        for _ in 0..=off {
            self.bump();
        }
        if self.ident(0).is_some() {
            self.bump(); // `macro_rules!`-style name, just in case
        }
        if matches!(self.kind(0), Some(TokenKind::Punct('(' | '[' | '{'))) {
            let brace = self.punct(0, '{');
            self.skip_balanced();
            if !brace && self.punct(0, ';') {
                self.bump();
            }
        }
        true
    }

    fn skip_to_semi(&mut self) {
        while !self.at_end() {
            match self.kind(0) {
                Some(TokenKind::Punct(';')) => {
                    self.bump();
                    return;
                }
                Some(TokenKind::Punct('(' | '[' | '{')) => self.skip_balanced(),
                _ => self.bump(),
            }
        }
    }

    fn parse_fn(&mut self) -> FnItem {
        let line = self.line();
        self.bump(); // fn
        let name = match self.ident(0) {
            Some(n) => {
                self.bump();
                n.to_string()
            }
            None => {
                self.err(line, "fn without a name");
                String::new()
            }
        };
        if self.punct(0, '<') {
            self.skip_generics();
        }
        let mut params = Vec::new();
        if self.punct(0, '(') {
            self.bump();
            while !self.at_end() && !self.punct(0, ')') {
                self.eat_attrs();
                params.push(self.parse_param());
                if self.punct(0, ',') {
                    self.bump();
                }
            }
            self.bump(); // ')'
        } else {
            self.err(line, "fn without a parameter list");
        }
        if self.punct(0, '-') && self.punct(1, '>') {
            self.bump();
            self.bump();
            self.parse_type(&['{', ';']);
        }
        if self.ident(0) == Some("where") {
            self.bump();
            self.skip_where();
        }
        let body = if self.punct(0, '{') {
            Some(self.parse_block())
        } else {
            if self.punct(0, ';') {
                self.bump();
            }
            None
        };
        FnItem { name, params, body }
    }

    fn parse_param(&mut self) -> Param {
        // Receivers: `self`, `&self`, `&'a self`, `&mut self`,
        // `mut self`, `self: Type`.
        let mut off = 0;
        if self.punct(off, '&') {
            off += 1;
            if self.kind(off) == Some(&TokenKind::Lifetime) {
                off += 1;
            }
        }
        if self.ident(off) == Some("mut") {
            off += 1;
        }
        if self.ident(off) == Some("self") {
            for _ in 0..=off {
                self.bump();
            }
            let ty = if self.punct(0, ':') {
                self.bump();
                self.parse_type(&[',', ')'])
            } else {
                TypeStr::default()
            };
            return Param {
                name: Some("self".into()),
                ty,
            };
        }
        // Simple `name: Type` / `mut name: Type` / `_: Type`.
        let mut k = 0;
        if self.ident(k) == Some("mut") {
            k += 1;
        }
        let simple = self.ident(k).is_some() && self.punct(k + 1, ':') && !self.punct(k + 2, ':');
        if simple {
            let name = self.ident(k).map(str::to_string);
            for _ in 0..=k + 1 {
                self.bump();
            }
            let ty = self.parse_type(&[',', ')']);
            return Param { name, ty };
        }
        // Complex pattern: skip to the `:` at zero nesting, then type.
        let mut nest = 0i32;
        while !self.at_end() {
            match self.kind(0) {
                Some(TokenKind::Punct('(' | '[' | '{')) => nest += 1,
                Some(TokenKind::Punct(')')) if nest == 0 => {
                    // Type-only param (fn pointers in trait defs).
                    return Param {
                        name: None,
                        ty: TypeStr::default(),
                    };
                }
                Some(TokenKind::Punct(')' | ']' | '}')) => nest -= 1,
                Some(TokenKind::Punct(':')) if nest == 0 && !self.punct(1, ':') => {
                    self.bump();
                    let ty = self.parse_type(&[',', ')']);
                    return Param { name: None, ty };
                }
                Some(TokenKind::Punct(',')) if nest == 0 => {
                    return Param {
                        name: None,
                        ty: TypeStr::default(),
                    };
                }
                _ => {}
            }
            self.bump();
        }
        Param {
            name: None,
            ty: TypeStr::default(),
        }
    }

    fn parse_struct(&mut self) -> Item {
        self.bump(); // struct
        let name = self.take_ident().unwrap_or_default();
        if self.punct(0, '<') {
            self.skip_generics();
        }
        if self.ident(0) == Some("where") {
            self.bump();
            self.skip_where();
        }
        let mut fields = Vec::new();
        if self.punct(0, '(') {
            // Tuple struct.
            self.bump();
            let mut idx = 0usize;
            while !self.at_end() && !self.punct(0, ')') {
                self.eat_attrs();
                if self.ident(0) == Some("pub") {
                    self.bump();
                    if self.punct(0, '(') {
                        self.skip_balanced();
                    }
                }
                let fline = self.line();
                let ty = self.parse_type(&[',', ')']);
                fields.push(Field {
                    name: idx.to_string(),
                    ty,
                    line: fline,
                });
                idx += 1;
                if self.punct(0, ',') {
                    self.bump();
                }
            }
            self.bump(); // ')'
            if self.ident(0) == Some("where") {
                self.bump();
                self.skip_where();
            }
            if self.punct(0, ';') {
                self.bump();
            }
        } else if self.punct(0, '{') {
            self.bump();
            while !self.at_end() && !self.punct(0, '}') {
                self.eat_attrs();
                if self.ident(0) == Some("pub") {
                    self.bump();
                    if self.punct(0, '(') {
                        self.skip_balanced();
                    }
                }
                let fline = self.line();
                let fname = self.take_ident().unwrap_or_default();
                if self.punct(0, ':') {
                    self.bump();
                }
                let ty = self.parse_type(&[',', '}']);
                fields.push(Field {
                    name: fname,
                    ty,
                    line: fline,
                });
                if self.punct(0, ',') {
                    self.bump();
                }
            }
            self.bump(); // '}'
        } else if self.punct(0, ';') {
            self.bump(); // unit struct
        }
        Item::Struct(StructItem { name, fields })
    }

    fn parse_enum(&mut self) -> Item {
        let line = self.line();
        self.bump(); // enum
        let name = self.take_ident().unwrap_or_default();
        if self.punct(0, '<') {
            self.skip_generics();
        }
        if self.ident(0) == Some("where") {
            self.bump();
            self.skip_where();
        }
        let mut variants = Vec::new();
        if self.punct(0, '{') {
            self.bump();
            while !self.at_end() && !self.punct(0, '}') {
                self.eat_attrs();
                let vline = self.line();
                let vname = match self.take_ident() {
                    Some(n) => n,
                    None => {
                        self.bump();
                        continue;
                    }
                };
                let mut fields = Vec::new();
                if self.punct(0, '(') {
                    self.bump();
                    let mut idx = 0usize;
                    while !self.at_end() && !self.punct(0, ')') {
                        let before = self.i;
                        let fline = self.line();
                        let ty = self.parse_type(&[',', ')']);
                        fields.push(Field {
                            name: idx.to_string(),
                            ty,
                            line: fline,
                        });
                        idx += 1;
                        if self.punct(0, ',') {
                            self.bump();
                        }
                        if self.i == before {
                            // A token neither the type parser nor the
                            // separators accept (e.g. a stray `}` in
                            // `A(}`): bail out rather than spin.
                            break;
                        }
                    }
                    if self.punct(0, ')') {
                        self.bump();
                    }
                } else if self.punct(0, '{') {
                    self.bump();
                    while !self.at_end() && !self.punct(0, '}') {
                        let before = self.i;
                        self.eat_attrs();
                        let fline = self.line();
                        let fname = self.take_ident().unwrap_or_default();
                        if self.punct(0, ':') {
                            self.bump();
                        }
                        let ty = self.parse_type(&[',', '}']);
                        fields.push(Field {
                            name: fname,
                            ty,
                            line: fline,
                        });
                        if self.punct(0, ',') {
                            self.bump();
                        }
                        if self.i == before {
                            break;
                        }
                    }
                    if self.punct(0, '}') {
                        self.bump();
                    }
                } else if self.assign_eq(0) {
                    // Discriminant.
                    self.bump();
                    self.parse_expr(Stops::of(&[',', '}']), false);
                }
                variants.push(Variant {
                    name: vname,
                    line: vline,
                    fields,
                });
                if self.punct(0, ',') {
                    self.bump();
                }
            }
            self.bump(); // '}'
        }
        Item::Enum(EnumItem {
            name,
            line,
            variants,
        })
    }

    fn parse_impl(&mut self) -> Item {
        self.bump(); // impl
        if self.punct(0, '<') {
            self.skip_generics();
        }
        // `impl Type` or `impl Trait for Type`: keep the self type.
        let mut ty = self.parse_type(&['{']);
        if self.ident(0) == Some("for") {
            self.bump();
            ty = self.parse_type(&['{']);
        }
        if self.ident(0) == Some("where") {
            self.bump();
            self.skip_where();
        }
        let self_ty = ty.head().unwrap_or_default().to_string();
        let mut items = Vec::new();
        if self.punct(0, '{') {
            self.bump();
            items = self.parse_items(true);
            self.bump(); // '}'
        }
        Item::Impl(ImplBlock { self_ty, items })
    }

    fn parse_mod(&mut self, cfg_test: bool, start_line: u32) -> Item {
        self.bump(); // mod
        self.take_ident();
        if self.punct(0, ';') {
            self.bump();
            return Item::Mod(ModItem {
                cfg_test,
                start_line,
                end_line: start_line,
                items: Vec::new(),
            });
        }
        let mut items = Vec::new();
        let mut end_line = start_line;
        if self.punct(0, '{') {
            self.bump();
            items = self.parse_items(true);
            end_line = self.line();
            self.bump(); // '}'
        }
        Item::Mod(ModItem {
            cfg_test,
            start_line,
            end_line,
            items,
        })
    }

    fn parse_trait(&mut self) -> Item {
        self.bump(); // trait
        self.take_ident();
        if self.punct(0, '<') {
            self.skip_generics();
        }
        if self.punct(0, ':') {
            // Supertraits: scan to `{` / `where` (angle-aware).
            self.bump();
            self.parse_type(&['{']);
        }
        if self.ident(0) == Some("where") {
            self.bump();
            self.skip_where();
        }
        let mut items = Vec::new();
        if self.punct(0, '{') {
            self.bump();
            items = self.parse_items(true);
            self.bump();
        }
        Item::Trait(TraitItem { items })
    }

    fn parse_use(&mut self) -> Item {
        self.bump(); // use
        let mut segs = Vec::new();
        let mut prev_colons = false;
        while !self.at_end() && !self.punct(0, ';') {
            if let Some(TokenKind::Ident(s)) = self.kind(0) {
                segs.push(UseSeg {
                    name: s.clone(),
                    line: self.line(),
                    colon_adjacent: prev_colons || self.colons(1),
                });
            }
            prev_colons = self.punct(0, ':');
            self.bump();
        }
        self.bump(); // ';'
        Item::Use(UseItem { segs })
    }

    fn parse_const(&mut self) -> Item {
        let is_static = self.ident(0) == Some("static");
        self.bump(); // const / static
        if self.ident(0) == Some("mut") {
            self.bump();
        }
        let line = self.line();
        let name = self.take_ident().unwrap_or_default();
        let ty = if self.punct(0, ':') {
            self.bump();
            self.parse_type(&['=', ';'])
        } else {
            TypeStr::default()
        };
        let mut value = None;
        if self.punct(0, '=') {
            self.bump();
            value = Some(self.parse_expr(Stops::of(&[';']), false));
        }
        if self.punct(0, ';') {
            self.bump();
        }
        Item::Const(ConstItem {
            name,
            line,
            is_static,
            ty,
            value,
        })
    }

    fn take_ident(&mut self) -> Option<String> {
        let s = self.ident(0).map(str::to_string);
        if s.is_some() {
            self.bump();
        }
        s
    }

    // ---- statements -------------------------------------------------

    fn parse_block(&mut self) -> Block {
        let open_line = self.line();
        debug_assert!(self.punct(0, '{'));
        self.bump();
        let mut stmts = Vec::new();
        loop {
            if self.at_end() || !self.spend_fuel() {
                if self.at_end() {
                    self.err(open_line, "file ended inside a block");
                }
                return Block { stmts, open_line };
            }
            if self.punct(0, '}') {
                self.bump();
                return Block { stmts, open_line };
            }
            if self.punct(0, ';') {
                self.bump();
                continue;
            }
            // Attributes may precede items, lets, and expressions
            // alike; the cfg(test) flag only matters for items.
            let before = self.i;
            self.eat_attrs();
            if self.ident(0) == Some("let") {
                stmts.push(Stmt::Let(self.parse_let()));
            } else if self.is_item_start() {
                // Rewind over the attrs so parse_item sees them.
                self.i = before;
                stmts.push(Stmt::Item(Box::new(self.parse_item())));
            } else if self.punct(0, '{')
                || matches!(
                    self.ident(0),
                    Some("if" | "match" | "loop" | "while" | "for" | "unsafe")
                )
            {
                // Block-like expressions end the statement without a
                // semicolon; parse a single unit, not a greedy expr.
                let e = self.parse_unit(Stops::of(&[';', '}']), false);
                if self.punct(0, ';') {
                    self.bump();
                }
                stmts.push(Stmt::Expr(e));
            } else {
                let e = self.parse_expr(Stops::of(&[';', '}']), false);
                if self.punct(0, ';') {
                    self.bump();
                }
                stmts.push(Stmt::Expr(e));
            }
        }
    }

    /// Is the current token the start of a nested item? (`const` is an
    /// item only in `const NAME:`/`const fn` position — `const { … }`
    /// is an inline-const expression.)
    fn is_item_start(&self) -> bool {
        match self.ident(0) {
            Some("const") => self.ident(1) == Some("fn") || self.punct(2, ':'),
            Some("static") => true,
            Some("unsafe") => matches!(self.ident(1), Some("fn" | "impl" | "trait" | "extern")),
            Some("async") => self.ident(1) == Some("fn"),
            Some(kw) => ITEM_KEYWORDS.contains(&kw),
            None => false,
        }
    }

    fn parse_let(&mut self) -> LetStmt {
        let line = self.line();
        self.bump(); // let
        if self.ident(0) == Some("mut") {
            self.bump();
        }
        // Simple binding?
        let name = if self.ident(0).is_some()
            && ((self.punct(1, ':') && !self.punct(2, ':'))
                || self.assign_eq(1)
                || self.punct(1, ';')
                || self.ident(1) == Some("else"))
        {
            self.take_ident()
        } else {
            // Complex pattern: skip to `:`, `=`, or `;` at zero nesting.
            let mut nest = 0i32;
            while !self.at_end() {
                match self.kind(0) {
                    Some(TokenKind::Punct('(' | '[' | '{')) => nest += 1,
                    Some(TokenKind::Punct(')' | ']' | '}')) => nest -= 1,
                    Some(TokenKind::Punct(':')) if nest == 0 && !self.punct(1, ':') => break,
                    Some(TokenKind::Punct(';')) if nest == 0 => break,
                    Some(TokenKind::Punct('=')) if nest == 0 && self.assign_eq(0) => break,
                    _ => {}
                }
                if self.colons(0) {
                    self.bump();
                }
                self.bump();
            }
            None
        };
        let ty = if self.punct(0, ':') && !self.punct(1, ':') {
            self.bump();
            Some(self.parse_type(&['=', ';']))
        } else {
            None
        };
        let init = if self.assign_eq(0) {
            self.bump();
            Some(self.parse_expr(Stops::of(&[';']), false))
        } else {
            None
        };
        let else_block = if self.ident(0) == Some("else") && self.punct(1, '{') {
            self.bump();
            Some(self.parse_block())
        } else {
            None
        };
        if self.punct(0, ';') {
            self.bump();
        }
        LetStmt {
            name,
            ty,
            init,
            else_block,
            line,
        }
    }

    // ---- expressions ------------------------------------------------

    /// Parses an operator-joined expression until a stop token at top
    /// nesting. Operands become children; operators are dropped.
    fn parse_expr(&mut self, stops: Stops, no_struct: bool) -> Expr {
        let first_line = self.line();
        let mut parts: Vec<Expr> = Vec::new();
        let mut prev_operand = false;
        loop {
            if self.at_end() || !self.spend_fuel() {
                break;
            }
            if stops.arrow && self.punct(0, '=') && self.punct(1, '>') {
                break;
            }
            match self.kind(0) {
                Some(TokenKind::Punct(c)) if stops.chars.contains(c) => break,
                // Closers always end the expression: the caller owns them.
                Some(TokenKind::Punct(')' | ']' | '}')) => break,
                _ => {}
            }
            if self.ident(0) == Some("else") {
                break; // let-else; `if` consumes its own `else`.
            }
            if self.ident(0) == Some("as") {
                self.bump();
                self.skip_cast_type();
                prev_operand = true;
                continue;
            }
            if let Some(kw) = self.ident(0) {
                if matches!(
                    kw,
                    "return" | "break" | "continue" | "yield" | "await" | "in"
                ) {
                    self.bump();
                    if self.kind(0) == Some(&TokenKind::Lifetime) {
                        self.bump(); // break 'label
                    }
                    prev_operand = false;
                    continue;
                }
            }
            if self.kind(0) == Some(&TokenKind::Lifetime) {
                // Label (`'a: loop`) or labelled-break target.
                self.bump();
                if self.punct(0, ':') {
                    self.bump();
                }
                prev_operand = false;
                continue;
            }
            if self.punct(0, '|') && prev_operand {
                // Binary or (consume `||` whole so the second pipe is
                // not mistaken for a closure opener).
                self.bump();
                if self.punct(0, '|') {
                    self.bump();
                }
                prev_operand = false;
                continue;
            }
            if self.is_unit_start() {
                parts.push(self.parse_unit(stops, no_struct));
                prev_operand = true;
                continue;
            }
            // Operator / separator: drop it.
            self.bump();
            prev_operand = false;
        }
        match parts.len() {
            0 => Expr::Unknown { line: first_line },
            1 => parts.pop().expect("len checked"),
            _ => Expr::Seq {
                parts,
                line: first_line,
            },
        }
    }

    fn is_unit_start(&self) -> bool {
        match self.kind(0) {
            Some(TokenKind::Ident(_)) | Some(TokenKind::Literal(_)) => true,
            Some(TokenKind::Punct(c)) => {
                matches!(*c, '&' | '*' | '-' | '!' | '(' | '[' | '{' | '|' | '#')
            }
            _ => false,
        }
    }

    /// Parses one operand unit (primary + postfix chain).
    fn parse_unit(&mut self, stops: Stops, no_struct: bool) -> Expr {
        let line = self.line();
        // Prefix operators.
        if self.punct(0, '&') {
            self.bump();
            if self.ident(0) == Some("mut") {
                self.bump();
            }
            if self.kind(0) == Some(&TokenKind::Lifetime) {
                self.bump();
            }
            if !self.is_unit_start() {
                return Expr::Unknown { line };
            }
            let inner = self.parse_unit(stops, no_struct);
            return Expr::Ref {
                inner: Box::new(inner),
                line,
            };
        }
        if self.punct(0, '*') || self.punct(0, '-') || self.punct(0, '!') {
            self.bump();
            if !self.is_unit_start() {
                return Expr::Unknown { line };
            }
            return self.parse_unit(stops, no_struct);
        }
        if self.punct(0, '#') {
            self.eat_attrs();
            if !self.is_unit_start() {
                return Expr::Unknown { line };
            }
            return self.parse_unit(stops, no_struct);
        }
        if self.punct(0, '|') {
            return self.parse_closure(stops, line);
        }

        let primary = match self.kind(0) {
            Some(TokenKind::Literal(_)) => {
                self.bump();
                Expr::Lit { line }
            }
            Some(TokenKind::Punct('(')) => {
                self.bump();
                let inner = self.parse_expr_list(')', &[',', ';']);
                match inner.len() {
                    1 => inner.into_iter().next().expect("len checked"),
                    _ => Expr::Seq { parts: inner, line },
                }
            }
            Some(TokenKind::Punct('[')) => {
                self.bump();
                let inner = self.parse_expr_list(']', &[',', ';']);
                Expr::Seq { parts: inner, line }
            }
            Some(TokenKind::Punct('{')) => Expr::Block(self.parse_block()),
            Some(TokenKind::Ident(_)) => self.parse_keyword_or_path(stops, no_struct),
            _ => {
                self.bump();
                Expr::Unknown { line }
            }
        };
        self.parse_postfix(primary)
    }

    fn parse_closure(&mut self, stops: Stops, line: u32) -> Expr {
        self.bump(); // '|'
                     // Parameters up to the closing '|' at zero nesting.
        let mut nest = 0i32;
        while !self.at_end() {
            match self.kind(0) {
                Some(TokenKind::Punct('(' | '[' | '{')) => nest += 1,
                Some(TokenKind::Punct(')' | ']' | '}')) => nest -= 1,
                Some(TokenKind::Punct('|')) if nest == 0 => {
                    self.bump();
                    break;
                }
                _ => {}
            }
            self.bump();
        }
        if self.punct(0, '-') && self.punct(1, '>') {
            self.bump();
            self.bump();
            self.parse_type(&['{']);
        }
        let body = if self.punct(0, '{') {
            Expr::Block(self.parse_block())
        } else {
            self.parse_expr(stops, false)
        };
        Expr::Closure {
            body: Box::new(body),
            line,
        }
    }

    fn parse_keyword_or_path(&mut self, stops: Stops, no_struct: bool) -> Expr {
        let line = self.line();
        match self.ident(0) {
            Some("if") => return self.parse_if(),
            Some("while") => {
                self.bump();
                self.skip_let_pattern_if_present();
                let cond = self.parse_expr(Stops::of(&['{']), true);
                let body = self.expect_block();
                return Expr::While {
                    cond: Box::new(cond),
                    body,
                    line,
                };
            }
            Some("for") => {
                self.bump();
                // Pattern up to `in` at zero nesting.
                let mut nest = 0i32;
                while !self.at_end() {
                    match self.kind(0) {
                        Some(TokenKind::Punct('(' | '[' | '{')) => nest += 1,
                        Some(TokenKind::Punct(')' | ']' | '}')) => nest -= 1,
                        Some(TokenKind::Ident(s)) if s == "in" && nest == 0 => break,
                        _ => {}
                    }
                    self.bump();
                }
                if self.ident(0) == Some("in") {
                    self.bump();
                }
                let iter = self.parse_expr(Stops::of(&['{']), true);
                let body = self.expect_block();
                return Expr::For {
                    iter: Box::new(iter),
                    body,
                    line,
                };
            }
            Some("loop") => {
                self.bump();
                let body = self.expect_block();
                return Expr::Loop { body, line };
            }
            Some("match") => return self.parse_match(),
            Some("unsafe" | "async") => {
                self.bump();
                if self.ident(0) == Some("move") {
                    self.bump();
                }
                if self.punct(0, '{') {
                    return Expr::Block(self.parse_block());
                }
                if self.punct(0, '|') {
                    return self.parse_closure(stops, line);
                }
                return Expr::Unknown { line };
            }
            Some("const") if self.punct(1, '{') => {
                self.bump();
                return Expr::Block(self.parse_block());
            }
            Some("move") => {
                self.bump();
                if self.punct(0, '|') {
                    return self.parse_closure(stops, line);
                }
                return Expr::Unknown { line };
            }
            _ => {}
        }
        // Path: `a::b::c`, with optional turbofish segments.
        let mut segs = Vec::new();
        while let Some(TokenKind::Ident(s)) = self.kind(0) {
            segs.push((s.clone(), self.line()));
            self.bump();
            if self.colons(0) {
                if self.punct(2, '<') {
                    self.bump();
                    self.bump();
                    self.skip_generics();
                    if self.colons(0) {
                        self.bump();
                        self.bump();
                        continue;
                    }
                    break;
                }
                if self.ident(2).is_some() {
                    self.bump();
                    self.bump();
                    continue;
                }
            }
            break;
        }
        let path = PathExpr { segs };
        // Macro call?
        if self.punct(0, '!') && matches!(self.kind(1), Some(TokenKind::Punct('(' | '[' | '{'))) {
            self.bump(); // '!'
            let close = match self.kind(0) {
                Some(TokenKind::Punct('(')) => ')',
                Some(TokenKind::Punct('[')) => ']',
                _ => '}',
            };
            self.bump();
            let args = self.parse_expr_list(close, &[',', ';']);
            return Expr::MacroCall { path, args, line };
        }
        // Struct literal?
        if self.punct(0, '{') && !no_struct && self.looks_like_struct_lit() {
            self.bump(); // '{'
            let mut fields = Vec::new();
            while !self.at_end() && !self.punct(0, '}') {
                if self.punct(0, '.') && self.punct(1, '.') {
                    // `..base`
                    self.bump();
                    self.bump();
                    let base = self.parse_expr(Stops::of(&[',', '}']), false);
                    fields.push(("..".to_string(), base));
                } else if self.ident(0).is_some() && self.punct(1, ':') && !self.punct(2, ':') {
                    let fname = self.take_ident().unwrap_or_default();
                    self.bump(); // ':'
                    let v = self.parse_expr(Stops::of(&[',', '}']), false);
                    fields.push((fname, v));
                } else if let Some(TokenKind::Ident(s)) = self.kind(0) {
                    // Shorthand.
                    let fline = self.line();
                    let fname = s.clone();
                    self.bump();
                    fields.push((
                        fname.clone(),
                        Expr::Path(PathExpr {
                            segs: vec![(fname, fline)],
                        }),
                    ));
                } else {
                    self.bump();
                }
                if self.punct(0, ',') {
                    self.bump();
                }
            }
            self.bump(); // '}'
            return Expr::StructLit { path, fields, line };
        }
        Expr::Path(path)
    }

    /// After a path followed by `{`: does this look like a struct
    /// literal body rather than a block?
    fn looks_like_struct_lit(&self) -> bool {
        if !self.punct(0, '{') {
            return false;
        }
        if self.punct(1, '}') {
            return true; // `Path {}`
        }
        if self.punct(1, '.') && self.punct(2, '.') {
            return true; // `Path { ..base }`
        }
        if self.ident(1).is_some() {
            return (self.punct(2, ':') && !self.punct(3, ':'))
                || self.punct(2, ',')
                || self.punct(2, '}');
        }
        false
    }

    fn parse_if(&mut self) -> Expr {
        let line = self.line();
        self.bump(); // if
        self.skip_let_pattern_if_present();
        let cond = self.parse_expr(Stops::of(&['{']), true);
        if !self.punct(0, '{') {
            // `pat if guard` inside a macro such as `matches!`: there
            // is no block. Keep the parsed guard, consume nothing more.
            return Expr::If {
                cond: Box::new(cond),
                then: Block {
                    stmts: Vec::new(),
                    open_line: line,
                },
                else_: None,
                line,
            };
        }
        let then = self.expect_block();
        let else_ = if self.ident(0) == Some("else") {
            self.bump();
            if self.ident(0) == Some("if") {
                Some(Box::new(self.parse_if()))
            } else if self.punct(0, '{') {
                Some(Box::new(Expr::Block(self.parse_block())))
            } else {
                None
            }
        } else {
            None
        };
        Expr::If {
            cond: Box::new(cond),
            then,
            else_,
            line,
        }
    }

    /// For `if let` / `while let`: consumes `let <pattern> =` so the
    /// remainder parses as the scrutinee expression.
    fn skip_let_pattern_if_present(&mut self) {
        if self.ident(0) != Some("let") {
            return;
        }
        self.bump();
        let mut nest = 0i32;
        while !self.at_end() {
            match self.kind(0) {
                Some(TokenKind::Punct('(' | '[' | '{')) => nest += 1,
                Some(TokenKind::Punct(')' | ']' | '}')) => nest -= 1,
                Some(TokenKind::Punct('=')) if nest == 0 && self.assign_eq(0) => {
                    self.bump();
                    return;
                }
                _ => {}
            }
            self.bump();
        }
    }

    fn expect_block(&mut self) -> Block {
        if self.punct(0, '{') {
            self.parse_block()
        } else {
            let line = self.line();
            self.err(line, "expected a block");
            Block {
                stmts: Vec::new(),
                open_line: line,
            }
        }
    }

    fn parse_match(&mut self) -> Expr {
        let line = self.line();
        self.bump(); // match
        let scrutinee = self.parse_expr(Stops::of(&['{']), true);
        let mut arms = Vec::new();
        if self.punct(0, '{') {
            self.bump();
            loop {
                if self.at_end() || !self.spend_fuel() {
                    if self.at_end() {
                        self.err(line, "file ended inside a match");
                    }
                    break;
                }
                if self.punct(0, '}') {
                    self.bump();
                    break;
                }
                self.eat_attrs();
                if self.punct(0, '}') {
                    self.bump();
                    break;
                }
                let pats = self.parse_arm_pats();
                if self.punct(0, '=') && self.punct(1, '>') {
                    self.bump();
                    self.bump();
                }
                let body = self.parse_arm_body();
                if self.punct(0, ',') {
                    self.bump();
                }
                arms.push(Arm {
                    pats,
                    body: Box::new(body),
                });
            }
        }
        Expr::Match(MatchExpr {
            scrutinee: Box::new(scrutinee),
            arms,
            line,
        })
    }

    /// Parses one arm's pattern alternatives, up to (not including) the
    /// `=>`. An `if` guard is parsed and discarded.
    fn parse_arm_pats(&mut self) -> Vec<PatInfo> {
        let mut alts = Vec::new();
        let mut cur: Vec<&'a TokenKind> = Vec::new();
        let mut cur_line = self.line();
        let mut nest = 0i32;
        loop {
            if self.at_end() || !self.spend_fuel() {
                break;
            }
            if nest == 0 && self.punct(0, '=') && self.punct(1, '>') {
                break;
            }
            if nest == 0 && self.ident(0) == Some("if") {
                // Guard: parse and discard, then stop at `=>`.
                self.bump();
                self.parse_expr(
                    Stops {
                        chars: &[],
                        arrow: true,
                    },
                    true,
                );
                break;
            }
            if nest == 0 && self.punct(0, '|') {
                alts.push(pat_info(&cur, cur_line));
                cur.clear();
                self.bump();
                cur_line = self.line();
                continue;
            }
            match self.kind(0) {
                Some(TokenKind::Punct('(' | '[' | '{')) => nest += 1,
                Some(TokenKind::Punct(')' | ']' | '}')) => {
                    if nest == 0 {
                        break; // stray closer: the match owns it
                    }
                    nest -= 1;
                }
                _ => {}
            }
            if cur.is_empty() {
                cur_line = self.line();
            }
            if let Some(k) = self.kind(0) {
                cur.push(k);
            }
            self.bump();
        }
        alts.push(pat_info(&cur, cur_line));
        alts
    }

    /// Parses a match-arm body. Block-shaped bodies (block, if, match,
    /// loop forms) are single units — Rust lets them omit the trailing
    /// comma, so the next tokens belong to the next arm.
    fn parse_arm_body(&mut self) -> Expr {
        if self.punct(0, '{') {
            return Expr::Block(self.parse_block());
        }
        if matches!(
            self.ident(0),
            Some("if" | "match" | "loop" | "while" | "for" | "unsafe")
        ) {
            return self.parse_unit(Stops::of(&[',', ';']), false);
        }
        self.parse_expr(Stops::of(&[',']), false)
    }

    /// Parses a `)`-, `]`- or `}`-terminated, separator-split list of
    /// expressions; consumes the closer.
    fn parse_expr_list(&mut self, close: char, seps: &'static [char]) -> Vec<Expr> {
        let stops: Stops = match (close, seps) {
            (')', _) => Stops::of(&[',', ';', ')']),
            (']', _) => Stops::of(&[',', ';', ']']),
            _ => Stops::of(&[',', ';', '}']),
        };
        let open_line = self.line();
        let mut out = Vec::new();
        loop {
            if self.at_end() || !self.spend_fuel() {
                if self.at_end() {
                    self.err(open_line, "unterminated delimiter group");
                }
                return out;
            }
            if self.punct(0, close) {
                self.bump();
                return out;
            }
            if let Some(TokenKind::Punct(c)) = self.kind(0) {
                if seps.contains(c) {
                    self.bump();
                    continue;
                }
            }
            let e = self.parse_expr(stops, false);
            if matches!(e, Expr::Unknown { .. }) && !self.at_end() && !self.punct(0, close) {
                // parse_expr stopped without consuming (stop token it
                // doesn't own): consume one token to guarantee progress.
                if let Some(TokenKind::Punct(c)) = self.kind(0) {
                    if !seps.contains(c) {
                        self.bump();
                    }
                } else {
                    self.bump();
                }
            }
            out.push(e);
        }
    }

    /// Postfix chain: `.method(…)`, `.field`, `.0`, `.await`, `?`,
    /// `(…)` calls, `[…]` indexing.
    fn parse_postfix(&mut self, mut e: Expr) -> Expr {
        loop {
            if !self.spend_fuel() {
                return e;
            }
            if self.punct(0, '.') && !self.punct(1, '.') {
                if self.ident(1) == Some("await") {
                    self.bump();
                    self.bump();
                    continue;
                }
                if let Some(name) = self.ident(1) {
                    let mline = self.t[self.i + 1].line;
                    // Turbofish: `.collect::<T>()`.
                    let mut ahead = 2;
                    let mut had_fish = false;
                    if self.punct(ahead, ':')
                        && self.punct(ahead + 1, ':')
                        && self.punct(ahead + 2, '<')
                    {
                        had_fish = true;
                    }
                    if had_fish {
                        self.bump(); // '.'
                        self.bump(); // name
                        self.bump(); // ':'
                        self.bump(); // ':'
                        self.skip_generics();
                        ahead = 0;
                    } else {
                        self.bump();
                        self.bump();
                        ahead = 0;
                    }
                    if self.punct(ahead, '(') {
                        self.bump();
                        let args = self.parse_expr_list(')', &[',']);
                        e = Expr::MethodCall {
                            recv: Box::new(e),
                            method: name.to_string(),
                            args,
                            line: mline,
                        };
                    } else {
                        e = Expr::Field {
                            recv: Box::new(e),
                            name: name.to_string(),
                            line: mline,
                        };
                    }
                    continue;
                }
                if let Some(lit) = self.literal(1) {
                    let mline = self.t[self.i + 1].line;
                    let name = lit.to_string();
                    self.bump();
                    self.bump();
                    e = Expr::Field {
                        recv: Box::new(e),
                        name,
                        line: mline,
                    };
                    continue;
                }
                // `.` followed by something else: drop the dot.
                self.bump();
                continue;
            }
            if self.punct(0, '?') {
                self.bump();
                continue;
            }
            if self.punct(0, '(') {
                let line = e.line();
                self.bump();
                let args = self.parse_expr_list(')', &[',']);
                e = Expr::Call {
                    callee: Box::new(e),
                    args,
                    line,
                };
                continue;
            }
            if self.punct(0, '[') {
                let line = e.line();
                self.bump();
                let inner = self.parse_expr_list(']', &[',', ';']);
                e = Expr::Index {
                    recv: Box::new(e),
                    index: Box::new(match inner.len() {
                        1 => inner.into_iter().next().expect("len checked"),
                        _ => Expr::Seq { parts: inner, line },
                    }),
                    line,
                };
                continue;
            }
            return e;
        }
    }

    /// Skips the type after `as`.
    fn skip_cast_type(&mut self) {
        loop {
            match self.kind(0) {
                Some(TokenKind::Punct('&' | '*')) => self.bump(),
                Some(TokenKind::Ident(s)) if s == "mut" || s == "const" || s == "dyn" => {
                    self.bump()
                }
                _ => break,
            }
        }
        // Path with generics, or a parenthesized/fn-pointer type.
        if self.punct(0, '(') {
            self.skip_balanced();
            return;
        }
        while self.ident(0).is_some() {
            self.bump();
            if self.punct(0, '<') {
                self.skip_generics();
            }
            if self.colons(0) {
                self.bump();
                self.bump();
                continue;
            }
            break;
        }
    }
}

/// Classifies one pattern alternative's token slice.
fn pat_info(toks: &[&TokenKind], line: u32) -> PatInfo {
    // Strip leading binding modifiers and references.
    let mut i = 0;
    while i < toks.len() {
        match toks[i] {
            TokenKind::Ident(s) if s == "ref" || s == "mut" || s == "box" => i += 1,
            TokenKind::Punct('&') => i += 1,
            _ => break,
        }
    }
    // Leading path.
    let mut path = Vec::new();
    let mut j = i;
    while j < toks.len() {
        if let TokenKind::Ident(s) = toks[j] {
            path.push(s.clone());
            if j + 2 < toks.len()
                && toks[j + 1] == &TokenKind::Punct(':')
                && toks[j + 2] == &TokenKind::Punct(':')
            {
                j += 3;
                continue;
            }
        }
        break;
    }
    // `name @ subpattern` is constrained by the subpattern.
    let has_at = toks.iter().any(|t| t == &&TokenKind::Punct('@'));
    let is_wildcard = !has_at
        && ((toks.len() == i + 1
            && matches!(toks.get(i), Some(TokenKind::Ident(s))
                if *s == "_" || s.chars().next().is_some_and(|c| c.is_lowercase() || c == '_')))
            || toks.is_empty());
    PatInfo {
        path,
        is_wildcard,
        line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> SourceFile {
        parse(&lex(src))
    }

    fn assert_clean(src: &str) -> SourceFile {
        let f = parse_src(src);
        assert!(f.errors.is_empty(), "parse errors: {:?}", f.errors);
        f
    }

    #[test]
    fn items_structs_enums_fns() {
        let f = assert_clean(
            r#"
            pub struct Foo { pub a: u32, b: Vec<Option<Payload>> }
            struct Tup(u8, String);
            enum Msg { A, B { x: u32 }, C(Payload) }
            impl Foo {
                pub fn new(n: u32) -> Self { Foo { a: n, b: Vec::new() } }
            }
            fn free(x: &mut [u8]) {}
            "#,
        );
        assert_eq!(f.items.len(), 5);
        let Item::Struct(s) = &f.items[0] else {
            panic!("expected struct")
        };
        assert_eq!(s.name, "Foo");
        assert_eq!(s.fields.len(), 2);
        assert!(s.fields[1].ty.mentions("Payload"));
        let Item::Enum(e) = &f.items[2] else {
            panic!("expected enum")
        };
        assert_eq!(e.name, "Msg");
        assert_eq!(
            e.variants
                .iter()
                .map(|v| v.name.as_str())
                .collect::<Vec<_>>(),
            vec!["A", "B", "C"]
        );
        let Item::Impl(imp) = &f.items[3] else {
            panic!("expected impl")
        };
        assert_eq!(imp.self_ty, "Foo");
        assert_eq!(imp.items.len(), 1);
    }

    #[test]
    fn match_arms_and_patterns() {
        let f = assert_clean(
            r#"
            fn dispatch(m: Msg) {
                match m {
                    Msg::A => {}
                    Msg::B { x } if x > 0 => handle(x),
                    Msg::C(p) | Msg::D(p) => use_it(p),
                    _ => {}
                }
            }
            "#,
        );
        let Item::Fn(fun) = &f.items[0] else {
            panic!("expected fn")
        };
        let body = fun.body.as_ref().expect("body");
        let Stmt::Expr(Expr::Match(m)) = &body.stmts[0] else {
            panic!("expected match, got {:?}", body.stmts[0])
        };
        assert_eq!(m.arms.len(), 4);
        assert_eq!(m.arms[0].pats[0].path, vec!["Msg", "A"]);
        assert_eq!(m.arms[1].pats[0].path, vec!["Msg", "B"]);
        assert_eq!(m.arms[2].pats.len(), 2);
        assert_eq!(m.arms[2].pats[1].path, vec!["Msg", "D"]);
        assert!(m.arms[3].pats[0].is_wildcard);
        assert!(!m.arms[0].pats[0].is_wildcard);
    }

    #[test]
    fn method_chains_and_calls() {
        let f = assert_clean("fn f() { self.conns.lock().unwrap().send(1, x); }");
        let Item::Fn(fun) = &f.items[0] else { panic!() };
        let Stmt::Expr(e) = &fun.body.as_ref().expect("body").stmts[0] else {
            panic!()
        };
        let Expr::MethodCall { method, recv, .. } = e else {
            panic!("expected method call, got {e:?}")
        };
        assert_eq!(method, "send");
        let Expr::MethodCall { method: m2, .. } = recv.as_ref() else {
            panic!()
        };
        assert_eq!(m2, "unwrap");
    }

    #[test]
    fn let_bindings_and_liveness_shapes() {
        let f = assert_clean(
            r#"
            fn f(m: &Mutex<u32>) {
                let g = m.lock().unwrap();
                let moved = g;
                drop(moved);
                let (a, b) = pair();
                let x: Vec<u8> = Vec::new();
            }
            "#,
        );
        let Item::Fn(fun) = &f.items[0] else { panic!() };
        let stmts = &fun.body.as_ref().expect("body").stmts;
        let Stmt::Let(l0) = &stmts[0] else { panic!() };
        assert_eq!(l0.name.as_deref(), Some("g"));
        let Stmt::Let(l1) = &stmts[1] else { panic!() };
        assert_eq!(l1.name.as_deref(), Some("moved"));
        assert!(matches!(l1.init, Some(Expr::Path(_))));
        let Stmt::Let(l3) = &stmts[3] else { panic!() };
        assert!(l3.name.is_none(), "tuple pattern has no simple name");
        let Stmt::Let(l4) = &stmts[4] else { panic!() };
        assert!(l4.ty.as_ref().expect("ty").mentions("Vec"));
    }

    #[test]
    fn struct_literal_vs_match_block() {
        let f = assert_clean(
            r#"
            fn f() -> Foo {
                match x { _ => {} }
                if cond { return Foo { a: 1 }; }
                Foo { a: 2 }
            }
            "#,
        );
        let Item::Fn(fun) = &f.items[0] else { panic!() };
        let stmts = &fun.body.as_ref().expect("body").stmts;
        assert!(matches!(&stmts[0], Stmt::Expr(Expr::Match(_))));
        assert!(matches!(&stmts[1], Stmt::Expr(Expr::If { .. })));
        assert!(matches!(&stmts[2], Stmt::Expr(Expr::StructLit { .. })));
    }

    #[test]
    fn closures_generics_macros_loops() {
        assert_clean(
            r#"
            fn f<T: Into<Vec<u8>>>(xs: &[T]) -> Vec<u8> {
                let v: Vec<u8> = xs.iter().map(|x| x.len() + 1).collect::<Vec<_>>();
                let total = xs.iter().fold(0u64, |acc, x| acc + go(x));
                for (i, x) in v.iter().enumerate() {
                    println!("{} {}", i, x);
                }
                'outer: loop {
                    while let Some(y) = it.next() {
                        if y == 0 { break 'outer; }
                    }
                }
                assert_eq!(v.len(), xs.len());
                v
            }
            "#,
        );
    }

    #[test]
    fn cfg_test_mod_is_marked() {
        let f = assert_clean(
            r#"
            fn live() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { let now = Instant::now(); }
            }
            "#,
        );
        let Item::Mod(m) = &f.items[1] else {
            panic!("expected mod")
        };
        assert!(m.cfg_test);
        assert_eq!(m.start_line, 3);
        assert_eq!(m.end_line, 7);
    }

    #[test]
    fn unbalanced_braces_is_a_parse_error() {
        let f = parse_src("fn f() { if x { }\n");
        assert!(!f.errors.is_empty());
        let f = parse_src("fn f() { } }");
        assert!(!f.errors.is_empty());
    }

    #[test]
    fn let_else_and_if_let() {
        assert_clean(
            r#"
            fn f(o: Option<u32>) -> u32 {
                let Some(x) = o else { return 0; };
                if let Some(y) = other() {
                    return y;
                }
                x
            }
            "#,
        );
    }

    #[test]
    fn use_items_keep_segments() {
        let f = assert_clean("use std::sync::{Arc, Mutex};\nuse rand::thread_rng;\n");
        let Item::Use(u) = &f.items[1] else { panic!() };
        assert!(u
            .segs
            .iter()
            .any(|s| s.name == "thread_rng" && s.line == 2 && s.colon_adjacent));
        let Item::Use(braced) = &f.items[0] else {
            panic!()
        };
        let arc = braced
            .segs
            .iter()
            .find(|s| s.name == "Arc")
            .expect("Arc seg");
        assert!(!arc.colon_adjacent, "brace members are not ::-qualified");
    }
}
