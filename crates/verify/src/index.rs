//! Workspace symbol index for the workspace-level semantic passes.
//!
//! Built once per lint run from every parsed file, the index answers
//! the cross-crate questions the per-file rules cannot: which struct
//! fields are `Mutex`/`RwLock`-typed (lock-order), which variants the
//! `Msg` enum has (protocol-drift), and which names are
//! `Payload`-typed anywhere in a crate (zero-copy). It deliberately indexes *declarations* only — uses are
//! the passes' job.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{walk_items, Item, ItemCtx, TypeStr};
use crate::passes::PassFile;

/// Which lock primitive a declaration wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// `std::sync::Mutex` (or loom/parking-lot lookalikes by name).
    Mutex,
    /// `std::sync::RwLock`.
    RwLock,
}

impl LockKind {
    fn of(ty: &TypeStr) -> Option<LockKind> {
        // A reference/`Arc`-wrapped lock still counts: `mentions`
        // sees through the token soup.
        if ty.mentions("Mutex") {
            Some(LockKind::Mutex)
        } else if ty.mentions("RwLock") {
            Some(LockKind::RwLock)
        } else {
            None
        }
    }
}

/// A lock-typed declaration site.
#[derive(Debug, Clone)]
pub struct LockDecl {
    /// Canonical lock id: `Type::field` for struct fields, the bare
    /// name for statics.
    pub id: String,
    /// Which primitive.
    pub kind: LockKind,
}

/// The cross-file symbol index.
#[derive(Debug, Default)]
pub struct WorkspaceIndex {
    /// Enum name → its variant names. Last definition wins on
    /// duplicates (fixtures shadowing the live `Msg` never share a run
    /// with it).
    pub enums: BTreeMap<String, Vec<String>>,
    /// `field name` → lock declarations with that field name (used to
    /// resolve `other.field.lock()` when the receiver's type is
    /// unknown).
    pub lock_fields: BTreeMap<String, Vec<LockDecl>>,
    /// `Type::field` and static-name lock ids, for existence checks.
    pub lock_ids: BTreeMap<String, LockDecl>,
    /// Names (fields, enum-variant fields) declared with a
    /// `Payload`-mentioning type, grouped by crate key (see
    /// `crate::lib`'s `crate_of`); the zero-copy pass unions the
    /// crate-local set with declared params/lets it walks itself.
    pub payload_fields: BTreeMap<String, BTreeSet<String>>,
}

impl WorkspaceIndex {
    /// Builds the index over every file of the run.
    pub fn build(files: &[PassFile<'_>]) -> WorkspaceIndex {
        let mut ix = WorkspaceIndex::default();
        for f in files {
            let crate_key = crate::crate_of(f.rel);
            walk_items(&f.tree.items, &ItemCtx::default(), &mut |ctx, item| {
                if ctx.in_test_mod {
                    return;
                }
                match item {
                    Item::Struct(s) => {
                        for f in &s.fields {
                            if let Some(kind) = LockKind::of(&f.ty) {
                                let decl = LockDecl {
                                    id: format!("{}::{}", s.name, f.name),
                                    kind,
                                };
                                ix.lock_ids.insert(decl.id.clone(), decl.clone());
                                ix.lock_fields.entry(f.name.clone()).or_default().push(decl);
                            }
                            if f.ty.mentions("Payload") {
                                ix.payload_fields
                                    .entry(crate_key.clone())
                                    .or_default()
                                    .insert(f.name.clone());
                            }
                        }
                    }
                    Item::Enum(e) => {
                        ix.enums.insert(
                            e.name.clone(),
                            e.variants.iter().map(|v| v.name.clone()).collect(),
                        );
                        for v in &e.variants {
                            for f in &v.fields {
                                if f.ty.mentions("Payload") {
                                    ix.payload_fields
                                        .entry(crate_key.clone())
                                        .or_default()
                                        .insert(f.name.clone());
                                }
                            }
                        }
                    }
                    Item::Const(c) if c.is_static => {
                        if let Some(kind) = LockKind::of(&c.ty) {
                            let decl = LockDecl {
                                id: c.name.clone(),
                                kind,
                            };
                            ix.lock_ids.insert(decl.id.clone(), decl);
                        }
                    }
                    _ => {}
                }
            });
        }
        ix
    }

    /// Payload-typed field names for a crate.
    pub fn payload_fields_of(&self, crate_key: &str) -> Option<&BTreeSet<String>> {
        self.payload_fields.get(crate_key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse;

    fn index_of(src: &str) -> WorkspaceIndex {
        let lexed = lex(src);
        let tree = parse(&lexed);
        assert!(tree.errors.is_empty(), "{:?}", tree.errors);
        WorkspaceIndex::build(&[PassFile {
            rel: "crates/x/src/lib.rs",
            lexed: &lexed,
            tree: &tree,
        }])
    }

    #[test]
    fn locks_enums_consts_payloads() {
        let ix = index_of(
            r#"
            pub struct Hub {
                conns: Mutex<Vec<Conn>>,
                regions: std::sync::RwLock<Map>,
                body: Payload,
            }
            pub enum Msg { Request { body: Payload }, Heartbeat }
            static REGISTRY: Mutex<u32> = Mutex::new(0);
            #[cfg(test)]
            mod tests {
                struct Hidden { l: Mutex<u8> }
            }
            "#,
        );
        assert_eq!(ix.lock_ids["Hub::conns"].kind, LockKind::Mutex);
        assert_eq!(ix.lock_ids["Hub::regions"].kind, LockKind::RwLock);
        assert!(ix.lock_ids.contains_key("REGISTRY"));
        assert!(!ix.lock_ids.contains_key("Hidden::l"), "test mods excluded");
        assert_eq!(ix.enums["Msg"], ["Request", "Heartbeat"]);
        let pf = ix.payload_fields_of("crates/x").expect("payload fields");
        assert!(pf.contains("body"));
    }
}
