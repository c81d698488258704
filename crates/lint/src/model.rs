//! The workspace model: one parse per file, shared by every rule.
//!
//! [`FileModel::parse`] lexes a file once and keeps everything a rule
//! reads: the tokens and their meaningful (non-comment) index, the
//! test-region flags, the suppression markers, and the items — which
//! functions live in which `impl`, what a struct's fields are typed, who
//! calls whom. The per-file token rules in [`crate::rules`] read one
//! [`FileModel`]; the cross-file analyses in [`crate::analyses`] read the
//! [`WorkspaceModel`] that aggregates them. Built on the hand-rolled
//! lexer, with zero external dependencies.
//!
//! The model is *lexical*, not semantic. Documented approximations:
//!
//! * items are found by keyword + brace matching, so macro-generated
//!   items are invisible;
//! * call edges are resolved **by name**: a call to `restore` edges to
//!   every function named `restore` in the workspace. Analyses that walk
//!   the graph (panic reachability) therefore over-approximate, which is
//!   the safe direction for a "can this path abort?" question;
//! * field and binding types are recorded as token text (`Mutex <
//!   ComparisonCache >`), matched by containment, not by resolution.
//!
//! Like the lexer, the model builder is total: it must produce *some*
//! model for any byte sequence without panicking (pinned by the seeded
//! property loops in `tests/lint_never_panics.rs`).

use std::collections::{BTreeMap, BTreeSet};

use crate::context::{classify_path, parse_markers, FileKind, Marker};
use crate::lexer::{lex, Token, TokenKind};

/// How a call site names its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `callee(…)` or `path::callee(…)`.
    Path,
    /// `receiver.callee(…)`.
    Method,
    /// `callee!(…)` — macro invocation, not a function call.
    Macro,
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Callee name as written (the last path segment).
    pub callee: String,
    /// The `::` path segment directly before the callee, when present
    /// (`checkpoint::seal` records `checkpoint`).
    pub qualifier: Option<String>,
    /// For method calls, the identifier directly before the `.`
    /// (`self.collector.record(…)` records `collector`); `None` when the
    /// receiver is a compound expression.
    pub receiver: Option<String>,
    /// Path / method / macro.
    pub kind: CallKind,
}

/// One `fn` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// Function name as written.
    pub name: String,
    /// `Some(TypeName)` when declared inside `impl TypeName` /
    /// `impl Trait for TypeName`.
    pub owner: Option<String>,
    /// Declared with any `pub` visibility.
    pub is_pub: bool,
    /// The parameter list contains `self` (a method, not an associated
    /// function) — method-call edges only resolve to these.
    pub has_self: bool,
    /// Inside a `#[cfg(test)]` / `#[test]` / `#[bench]` region.
    pub in_test: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Meaningful-token range of the body, `(open_brace, close_brace)`
    /// inclusive; `None` for bodiless declarations.
    pub body: Option<(usize, usize)>,
    /// Every call site in the body, in source order.
    pub calls: Vec<CallSite>,
}

impl FnItem {
    /// `Owner::name` when owned, else the bare name.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One struct field: name plus its type as token text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldItem {
    /// Field name.
    pub name: String,
    /// Type tokens joined with spaces (`Mutex < HashMap < u64 , f64 > >`).
    pub type_text: String,
}

/// One `struct` item (named fields only; tuple/unit structs record no
/// fields).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructItem {
    /// Struct name.
    pub name: String,
    /// Named fields, in declaration order.
    pub fields: Vec<FieldItem>,
}

/// The model of one source file.
#[derive(Debug, Clone)]
pub struct FileModel {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// Coarse rule applicability from the path.
    pub kind: FileKind,
    /// The file's bytes.
    pub src: Vec<u8>,
    /// Every token (comments included).
    pub tokens: Vec<Token>,
    /// Indices of meaningful (non-comment) tokens.
    pub meaningful: Vec<usize>,
    /// Per raw-token in-test flag.
    pub in_test: Vec<bool>,
    /// Suppression markers found in the file.
    pub markers: Vec<Marker>,
    /// Every `fn` item, in source order.
    pub fns: Vec<FnItem>,
    /// Every `struct` item with named fields.
    pub structs: Vec<StructItem>,
}

impl FileModel {
    /// Builds the model for one file. Total: never panics, for any
    /// byte sequence.
    pub fn parse(rel_path: &str, src: &[u8]) -> FileModel {
        let tokens = lex(src);
        let markers = parse_markers(&tokens, src);
        let meaningful: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        let mut model = FileModel {
            path: rel_path.to_string(),
            kind: classify_path(rel_path),
            src: src.to_vec(),
            tokens,
            meaningful,
            in_test: Vec::new(),
            markers,
            fns: Vec::new(),
            structs: Vec::new(),
        };
        model.in_test = model.test_regions();
        let impls = model.impl_regions();
        model.collect_fns(&impls);
        model.collect_structs();
        model
    }

    /// Text of the `mi`-th meaningful token (empty slice past the end).
    pub fn text(&self, mi: usize) -> &[u8] {
        self.tok(mi).map(|t| t.bytes(&self.src)).unwrap_or(&[])
    }

    /// The `mi`-th meaningful token.
    pub fn tok(&self, mi: usize) -> Option<&Token> {
        self.meaningful.get(mi).and_then(|&i| self.tokens.get(i))
    }

    /// Whether the `mi`-th meaningful token sits in a test region.
    pub fn is_test(&self, mi: usize) -> bool {
        self.meaningful
            .get(mi)
            .and_then(|&i| self.in_test.get(i))
            .copied()
            .unwrap_or(false)
    }

    /// `(line, col)` of the `mi`-th meaningful token (1,1 past the end).
    pub fn pos(&self, mi: usize) -> (u32, u32) {
        self.tok(mi).map(|t| (t.line, t.col)).unwrap_or((1, 1))
    }

    /// From the meaningful index of a `{`, the index of its matching `}`
    /// (or the last meaningful token when unmatched).
    pub(crate) fn match_brace(&self, open: usize) -> usize {
        let mut depth = 0i64;
        let mut mi = open;
        while mi < self.meaningful.len() {
            match self.text(mi) {
                b"{" => depth += 1,
                b"}" => {
                    depth -= 1;
                    if depth == 0 {
                        return mi;
                    }
                }
                _ => {}
            }
            mi += 1;
        }
        self.meaningful.len().saturating_sub(1)
    }

    /// Marks every token inside a test-gated item (`#[cfg(test)] mod …`,
    /// `#[test] fn …`, `#[bench] fn …`). Returns one flag per token.
    ///
    /// The scan is lexical: an outer attribute whose parenthesised content
    /// mentions the identifier `test` or `bench` — and does *not* mention
    /// `not`, so `#[cfg(not(test))]` stays live code — gates the item that
    /// follows it, up to the matching `}` (or the `;` of a braceless item).
    /// Comment tokens inherit the flag of the next meaningful token, so
    /// markers inside test code are classified with it.
    fn test_regions(&self) -> Vec<bool> {
        let mut in_test = vec![false; self.tokens.len()];
        let last = self.meaningful.len().saturating_sub(1);
        let mut mi = 0usize;
        while mi < self.meaningful.len() {
            // Outer attribute start: `#` `[` (not `#![`).
            if self.text(mi) != b"#" || self.text(mi + 1) != b"[" {
                mi += 1;
                continue;
            }
            let (attr_end, gates_test) = self.scan_attr(mi + 1);
            if !gates_test {
                mi = attr_end + 1;
                continue;
            }
            // Skip any further attributes between this one and the item.
            let mut k = attr_end + 1;
            while self.text(k) == b"#" && self.text(k + 1) == b"[" {
                k = self.scan_attr(k + 1).0 + 1;
            }
            // The item's body: first `{` or `;` at depth 0 from here;
            // `(`/`[` nesting (fn signatures) is tracked so a `;` inside,
            // say, an array type does not end the item.
            let mut depth = 0i64;
            let mut end = last;
            while k < self.meaningful.len() {
                match self.text(k) {
                    b"(" | b"[" => depth += 1,
                    b")" | b"]" => depth -= 1,
                    b"{" if depth == 0 => {
                        end = self.match_brace(k);
                        break;
                    }
                    b";" if depth == 0 => {
                        end = k;
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            for flag_mi in mi..=end.min(last) {
                if let Some(f) = self
                    .meaningful
                    .get(flag_mi)
                    .and_then(|&ti| in_test.get_mut(ti))
                {
                    *f = true;
                }
            }
            mi = end + 1;
        }
        let mut next_flag = false;
        for (t, f) in self.tokens.iter().zip(in_test.iter_mut()).rev() {
            if matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                *f = next_flag;
            } else {
                next_flag = *f;
            }
        }
        in_test
    }

    /// From the meaningful index of an attribute's `[`, returns the
    /// meaningful index of its matching `]` and whether its content gates
    /// test code.
    fn scan_attr(&self, open: usize) -> (usize, bool) {
        let mut depth = 0i64;
        let mut saw_test = false;
        let mut saw_not = false;
        for mi in open..self.meaningful.len() {
            match self.text(mi) {
                b"[" => depth += 1,
                b"]" => {
                    depth -= 1;
                    if depth == 0 {
                        return (mi, saw_test && !saw_not);
                    }
                }
                b"test" | b"bench" => saw_test = true,
                b"not" => saw_not = true,
                _ => {}
            }
        }
        (
            self.meaningful.len().saturating_sub(1),
            saw_test && !saw_not,
        )
    }

    /// Every `impl` block as `(type_name, body_open, body_close)`.
    fn impl_regions(&self) -> Vec<(String, usize, usize)> {
        let mut out = Vec::new();
        let mut mi = 0usize;
        while mi < self.meaningful.len() {
            if self.text(mi) == b"impl" {
                // Collect idents between `impl` and its `{`, at angle
                // depth 0, stopping at `where`. The implemented type is
                // the first such ident after `for` when `for` is present
                // (`impl Trait for Type`), else the first one at all.
                let mut angle = 0i64;
                let mut saw_for = false;
                let mut first: Option<String> = None;
                let mut after_for: Option<String> = None;
                let mut k = mi + 1;
                let mut open = None;
                while k < self.meaningful.len() {
                    let t = self.text(k);
                    match t {
                        b"<" => angle += 1,
                        b">" => angle -= 1,
                        b"{" => {
                            open = Some(k);
                            break;
                        }
                        b";" => break, // `impl Trait for Type;` — skip
                        b"where" => {
                            // Type position is over; scan on for `{`.
                            while k < self.meaningful.len() && self.text(k) != b"{" {
                                k += 1;
                            }
                            if self.text(k) == b"{" {
                                open = Some(k);
                            }
                            break;
                        }
                        b"for" if angle == 0 => saw_for = true,
                        _ => {
                            if angle == 0
                                && self.tok(k).is_some_and(|t| t.kind == TokenKind::Ident)
                                && t != b"dyn"
                                && t != b"mut"
                                && t != b"const"
                            {
                                let name = String::from_utf8_lossy(t).into_owned();
                                if saw_for && after_for.is_none() {
                                    after_for = Some(name);
                                } else if !saw_for {
                                    // Keep overwriting: the *last* ident
                                    // of a path (`vp_core::Collector`) is
                                    // the type name.
                                    first = Some(name);
                                }
                            }
                        }
                    }
                    k += 1;
                }
                if let Some(open) = open {
                    let close = self.match_brace(open);
                    if let Some(name) = after_for.or(first) {
                        out.push((name, open, close));
                    }
                    mi += 1; // descend into the impl body for nested impls
                    continue;
                }
            }
            mi += 1;
        }
        out
    }

    fn owner_of(&self, mi: usize, impls: &[(String, usize, usize)]) -> Option<String> {
        impls
            .iter()
            .rfind(|(_, a, b)| *a <= mi && mi <= *b)
            .map(|(n, _, _)| n.clone())
    }

    fn collect_fns(&mut self, impls: &[(String, usize, usize)]) {
        let mut fns = Vec::new();
        for mi in 0..self.meaningful.len() {
            if self.text(mi) != b"fn" {
                continue;
            }
            let Some(name_tok) = self.tok(mi + 1) else {
                continue;
            };
            if name_tok.kind != TokenKind::Ident {
                continue; // `Fn(` trait sugar or garbage
            }
            let name = String::from_utf8_lossy(name_tok.bytes(&self.src)).into_owned();
            // Visibility: walk back over qualifiers to a `pub` token,
            // stopping at item/body boundaries.
            let mut is_pub = false;
            for back in 1..=8usize {
                let Some(k) = mi.checked_sub(back) else { break };
                match self.text(k) {
                    b"pub" => {
                        is_pub = true;
                        break;
                    }
                    b"const" | b"async" | b"unsafe" | b"extern" | b")" | b"(" | b"crate"
                    | b"super" | b"in" => {}
                    t if self.tok(k).is_some_and(|t| t.kind == TokenKind::Str) && !t.is_empty() => {
                    }
                    _ => break,
                }
            }
            // `self` in the parameter list: scan from the first `(`
            // after the name (past any generics) to its matching `)`.
            let mut has_self = false;
            {
                let mut k = mi + 2;
                let mut angle = 0i64;
                while k < self.meaningful.len() && k < mi + 50 {
                    match self.text(k) {
                        b"<" => angle += 1,
                        b">" => angle -= 1,
                        b"(" if angle <= 0 => break,
                        b"{" | b";" => break,
                        _ => {}
                    }
                    k += 1;
                }
                if self.text(k) == b"(" {
                    let mut depth = 0i64;
                    while k < self.meaningful.len() {
                        match self.text(k) {
                            b"(" => depth += 1,
                            b")" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            b"self" => has_self = true,
                            _ => {}
                        }
                        k += 1;
                    }
                }
            }
            // Body: the first `{` at paren/bracket depth 0 after the
            // signature, or `;` for a bodiless declaration.
            let mut depth = 0i64;
            let mut k = mi + 2;
            let mut body = None;
            while k < self.meaningful.len() {
                match self.text(k) {
                    b"(" | b"[" => depth += 1,
                    b")" | b"]" => depth -= 1,
                    b"{" if depth <= 0 => {
                        body = Some((k, self.match_brace(k)));
                        break;
                    }
                    b";" if depth <= 0 => break,
                    _ => {}
                }
                k += 1;
            }
            let (line, col) = self.pos(mi);
            let calls = match body {
                Some((a, b)) => self.collect_calls(a, b),
                None => Vec::new(),
            };
            fns.push(FnItem {
                name,
                owner: self.owner_of(mi, impls),
                is_pub,
                has_self,
                in_test: self.is_test(mi),
                line,
                col,
                body,
                calls,
            });
        }
        self.fns = fns;
    }

    /// Call sites between meaningful indices `a..=b`.
    fn collect_calls(&self, a: usize, b: usize) -> Vec<CallSite> {
        const KEYWORDS: [&[u8]; 16] = [
            b"if", b"else", b"match", b"while", b"for", b"loop", b"return", b"in", b"as", b"move",
            b"let", b"fn", b"impl", b"use", b"where", b"break",
        ];
        let mut out = Vec::new();
        for mi in a..=b.min(self.meaningful.len().saturating_sub(1)) {
            let Some(t) = self.tok(mi) else { continue };
            if t.kind != TokenKind::Ident {
                continue;
            }
            let text = t.bytes(&self.src);
            if KEYWORDS.contains(&text) {
                continue;
            }
            let next = self.text(mi + 1);
            let kind = if next == b"!" {
                // `name!(…)` / `name![…]` / `name!{…}`.
                let after = self.text(mi + 2);
                if after == b"(" || after == b"[" || after == b"{" {
                    CallKind::Macro
                } else {
                    continue;
                }
            } else if next == b"(" {
                if self.text(mi.wrapping_sub(1)) == b"." {
                    CallKind::Method
                } else if self.text(mi.wrapping_sub(1)) == b"fn" {
                    continue; // nested definition, not a call
                } else {
                    CallKind::Path
                }
            } else if next == b":" && self.text(mi + 2) == b":" && self.text(mi + 3) == b"<" {
                // Turbofish path call `name::<T>(…)` — rare enough to
                // skip the generic args and look for the paren.
                continue;
            } else {
                continue;
            };
            // `path::callee(…)` — record the segment before the `::`.
            let qualifier = if kind != CallKind::Method
                && self.text(mi.wrapping_sub(1)) == b":"
                && self.text(mi.wrapping_sub(2)) == b":"
                && self
                    .tok(mi.wrapping_sub(3))
                    .is_some_and(|t| t.kind == TokenKind::Ident)
            {
                Some(String::from_utf8_lossy(self.text(mi.wrapping_sub(3))).into_owned())
            } else {
                None
            };
            let receiver = if kind == CallKind::Method {
                self.tok(mi.wrapping_sub(2))
                    .filter(|t| t.kind == TokenKind::Ident)
                    .map(|t| String::from_utf8_lossy(t.bytes(&self.src)).into_owned())
            } else {
                None
            };
            out.push(CallSite {
                callee: String::from_utf8_lossy(text).into_owned(),
                qualifier,
                kind,
                receiver,
            });
        }
        out
    }

    fn collect_structs(&mut self) {
        let mut out = Vec::new();
        for mi in 0..self.meaningful.len() {
            if self.text(mi) != b"struct" {
                continue;
            }
            let Some(name_tok) = self.tok(mi + 1) else {
                continue;
            };
            if name_tok.kind != TokenKind::Ident {
                continue;
            }
            let name = String::from_utf8_lossy(name_tok.bytes(&self.src)).into_owned();
            // Find the `{` of a named-field body (skipping generics),
            // bailing at `;` (unit) or `(` (tuple struct).
            let mut k = mi + 2;
            let mut angle = 0i64;
            let mut open = None;
            while k < self.meaningful.len() {
                match self.text(k) {
                    b"<" => angle += 1,
                    b">" => angle -= 1,
                    b"{" if angle <= 0 => {
                        open = Some(k);
                        break;
                    }
                    b";" | b"(" if angle <= 0 => break,
                    _ => {}
                }
                k += 1;
            }
            let mut fields = Vec::new();
            if let Some(open) = open {
                let close = self.match_brace(open);
                let mut depth = 0i64;
                let mut k = open;
                while k <= close {
                    match self.text(k) {
                        b"{" => depth += 1,
                        b"}" => depth -= 1,
                        b":" if depth == 1 && self.text(k + 1) != b":" => {
                            // `name :` at field depth — but not `::`.
                            let is_field = self
                                .tok(k.wrapping_sub(1))
                                .is_some_and(|t| t.kind == TokenKind::Ident)
                                && self.text(k.wrapping_sub(2)) != b":";
                            if is_field {
                                let fname = String::from_utf8_lossy(self.text(k.wrapping_sub(1)))
                                    .into_owned();
                                // Type text: tokens to the `,` at depth 1
                                // (angle-tracked) or the closing `}`.
                                let mut ty = Vec::new();
                                let mut angle = 0i64;
                                let mut j = k + 1;
                                while j < close {
                                    let t = self.text(j);
                                    match t {
                                        b"<" => angle += 1,
                                        b">" => angle -= 1,
                                        b"," if angle <= 0 => break,
                                        _ => {}
                                    }
                                    ty.push(String::from_utf8_lossy(t).into_owned());
                                    j += 1;
                                }
                                fields.push(FieldItem {
                                    name: fname,
                                    type_text: ty.join(" "),
                                });
                                k = j;
                                continue;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
            }
            out.push(StructItem { name, fields });
        }
        self.structs = out;
    }
}

/// Wrapper tokens skipped when walking back from a target type to the
/// name it declares (`counts: Mutex<HashMap<…>>` declares `counts`).
const TYPE_WRAPPERS: [&[u8]; 18] = [
    b"std",
    b"collections",
    b"core",
    b"alloc",
    b"sync",
    b"Option",
    b"Mutex",
    b"RwLock",
    b"Arc",
    b"Rc",
    b"Box",
    b"RefCell",
    b"Cell",
    b"VecDeque",
    b"Vec",
    b"<",
    b"&",
    b"mut",
];

/// Collects identifiers declared (or assigned) with any of the target
/// types in this file: `name: …Target<…>` (let bindings, fields, params,
/// statics) and `name = Target::new(…)`, walking back over
/// [`TYPE_WRAPPERS`] and `::` path segments.
pub fn idents_with_type(file: &FileModel, targets: &[&[u8]]) -> BTreeSet<Vec<u8>> {
    let mut out = BTreeSet::new();
    for mi in 0..file.meaningful.len() {
        let t = file.text(mi);
        if !targets.contains(&t) {
            continue;
        }
        let mut k = mi;
        while k > 0 {
            let prev = file.text(k - 1);
            if prev == b":" && k >= 2 && file.text(k - 2) == b":" {
                k -= 2;
            } else if TYPE_WRAPPERS.contains(&prev) || targets.contains(&prev) {
                k -= 1;
            } else {
                break;
            }
        }
        if k == 0 {
            continue;
        }
        let intro = file.text(k - 1);
        let named = |at: usize| {
            file.tok(at)
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.bytes(&file.src).to_vec())
        };
        // `name: Type` (but not `::`) or `name = Type { .. }` both bind.
        let binds = (intro == b":" && !(k >= 2 && file.text(k - 2) == b":")) || intro == b"=";
        if binds {
            if let Some(name) = k.checked_sub(2).and_then(named) {
                out.insert(name);
            }
        }
    }
    out
}

/// Reference to one function in a [`WorkspaceModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FnRef {
    /// Index into [`WorkspaceModel::files`].
    pub file: usize,
    /// Index into that file's [`FileModel::fns`].
    pub item: usize,
}

/// The aggregated pass-1 model of every scanned file.
#[derive(Debug, Clone)]
pub struct WorkspaceModel {
    /// Per-file models, in scan (sorted-path) order.
    pub files: Vec<FileModel>,
    /// Bare function name → every function carrying it.
    pub fn_index: BTreeMap<String, Vec<FnRef>>,
    /// Struct field names typed `HashMap`/`HashSet` anywhere in the
    /// workspace (library files only).
    pub hash_fields: BTreeSet<String>,
    /// Struct/static field names typed `Mutex`/`RwLock` anywhere in the
    /// workspace (library files only).
    pub lock_fields: BTreeSet<String>,
}

impl WorkspaceModel {
    /// Builds the model from `(rel_path, bytes)` pairs. Total.
    pub fn build(inputs: &[(String, Vec<u8>)]) -> WorkspaceModel {
        let files: Vec<FileModel> = inputs
            .iter()
            .map(|(p, src)| FileModel::parse(p, src))
            .collect();
        let mut fn_index: BTreeMap<String, Vec<FnRef>> = BTreeMap::new();
        let mut hash_fields = BTreeSet::new();
        let mut lock_fields = BTreeSet::new();
        for (fi, file) in files.iter().enumerate() {
            for (ii, f) in file.fns.iter().enumerate() {
                fn_index
                    .entry(f.name.clone())
                    .or_default()
                    .push(FnRef { file: fi, item: ii });
            }
            if file.kind == FileKind::Library {
                for s in &file.structs {
                    for field in &s.fields {
                        if field.type_text.contains("HashMap")
                            || field.type_text.contains("HashSet")
                        {
                            hash_fields.insert(field.name.clone());
                        }
                        if field.type_text.contains("Mutex") || field.type_text.contains("RwLock") {
                            lock_fields.insert(field.name.clone());
                        }
                    }
                }
            }
        }
        WorkspaceModel {
            files,
            fn_index,
            hash_fields,
            lock_fields,
        }
    }

    /// The function item behind a [`FnRef`].
    pub fn fn_item(&self, r: FnRef) -> Option<&FnItem> {
        self.files.get(r.file).and_then(|f| f.fns.get(r.item))
    }

    /// Every function named `name`.
    pub fn fns_named(&self, name: &str) -> &[FnRef] {
        self.fn_index.get(name).map(Vec::as_slice).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        FileModel::parse("crates/demo/src/engine.rs", src.as_bytes())
    }

    #[test]
    fn fns_with_owners_and_visibility() {
        let src = "impl Widget {\n    pub fn new() -> Self { Widget }\n    fn helper(&self) {}\n}\npub(crate) fn free() {}\nfn private() {}";
        let m = model(src);
        let names: Vec<(String, Option<String>, bool)> = m
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.owner.clone(), f.is_pub))
            .collect();
        assert_eq!(
            names,
            vec![
                ("new".into(), Some("Widget".into()), true),
                ("helper".into(), Some("Widget".into()), false),
                ("free".into(), None, true),
                ("private".into(), None, false),
            ]
        );
    }

    #[test]
    fn trait_impl_owner_is_the_implementing_type() {
        let src = "impl Display for Verdict {\n    fn fmt(&self) {}\n}\nimpl<T> Cache<T> where T: Clone {\n    fn get(&self) {}\n}";
        let m = model(src);
        assert_eq!(m.fns[0].owner.as_deref(), Some("Verdict"));
        assert_eq!(m.fns[1].owner.as_deref(), Some("Cache"));
    }

    #[test]
    fn call_sites_record_kind_and_qualifier() {
        let src = "fn run() {\n    helper(1);\n    self.advance(2);\n    checkpoint::seal(&buf);\n    panic!(\"no\");\n}";
        let m = model(src);
        let calls = &m.fns[0].calls;
        let find = |n: &str| calls.iter().find(|c| c.callee == n).unwrap();
        assert_eq!(find("helper").kind, CallKind::Path);
        assert_eq!(find("advance").kind, CallKind::Method);
        assert_eq!(find("seal").kind, CallKind::Path);
        assert_eq!(find("seal").qualifier.as_deref(), Some("checkpoint"));
        assert_eq!(find("panic").kind, CallKind::Macro);
    }

    #[test]
    fn struct_fields_capture_type_text() {
        let src = "pub struct Sink {\n    events: Mutex<Vec<Event>>,\n    pub counts: std::collections::HashMap<u64, f64>,\n    tag: u8,\n}";
        let m = model(src);
        let s = &m.structs[0];
        assert_eq!(s.name, "Sink");
        assert_eq!(s.fields.len(), 3);
        assert!(s.fields[0].type_text.contains("Mutex"));
        assert!(s.fields[1].type_text.contains("HashMap"));
        assert_eq!(s.fields[2].type_text, "u8");
    }

    /// `(ident, in_test)` for every identifier token.
    fn flags(src: &str) -> Vec<(String, bool)> {
        let m = model(src);
        m.tokens
            .iter()
            .zip(&m.in_test)
            .filter(|(t, _)| t.kind == TokenKind::Ident)
            .map(|(t, &f)| (String::from_utf8_lossy(t.bytes(&m.src)).into_owned(), f))
            .collect()
    }

    #[test]
    fn cfg_test_mod_is_a_region() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n fn gated() {}\n}\nfn live2() {}";
        let f = flags(src);
        let get = |name: &str| f.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        assert_eq!(get("live"), Some(false));
        assert_eq!(get("gated"), Some(true));
        assert_eq!(get("live2"), Some(false));
        let m = model(src);
        assert!(!m.fns[0].in_test);
        assert!(m.fns[1].in_test);
    }

    #[test]
    fn test_fn_attr_is_a_region() {
        let src = "#[test]\nfn check() { gated(); }\nfn live() {}";
        let f = flags(src);
        assert!(f.iter().any(|(n, v)| n == "gated" && *v));
        assert!(f.iter().any(|(n, v)| n == "live" && !*v));
    }

    #[test]
    fn cfg_not_test_stays_live() {
        let src = "#[cfg(not(test))]\nfn live() { hazard(); }";
        let f = flags(src);
        assert!(f.iter().any(|(n, v)| n == "hazard" && !*v));
    }

    #[test]
    fn typed_ident_collection_generalises() {
        let src = "struct S { cache: Mutex<Cache>, counts: HashMap<u64, u64> }\nfn f(m: &Mutex<u8>) {\n    let local = RwLock::new(0);\n    let h = HashSet::new();\n}";
        let m = model(src);
        let locks = idents_with_type(&m, &[b"Mutex", b"RwLock"]);
        assert!(locks.contains(b"cache".as_slice()));
        assert!(locks.contains(b"m".as_slice()));
        assert!(locks.contains(b"local".as_slice()));
        let hashes = idents_with_type(&m, &[b"HashMap", b"HashSet"]);
        assert!(hashes.contains(b"counts".as_slice()));
        assert!(hashes.contains(b"h".as_slice()));
    }

    #[test]
    fn workspace_model_indexes_fns_and_fields() {
        let a = (
            "crates/a/src/lib.rs".to_string(),
            b"pub struct M { weights: HashMap<u64, f64> }\nimpl M { pub fn run(&self) { self.step(); } fn step(&self) {} }".to_vec(),
        );
        let b = (
            "crates/b/src/lib.rs".to_string(),
            b"pub fn run() {}".to_vec(),
        );
        let w = WorkspaceModel::build(&[a, b]);
        assert_eq!(w.fns_named("run").len(), 2);
        assert_eq!(w.fns_named("step").len(), 1);
        assert!(w.hash_fields.contains("weights"));
        let r = w.fns_named("step")[0];
        assert_eq!(w.fn_item(r).unwrap().owner.as_deref(), Some("M"));
    }

    #[test]
    fn bodiless_and_garbage_inputs_do_not_panic() {
        let m = model("trait T { fn decl(&self); }\nfn broken( {{{");
        assert!(m.fns.iter().any(|f| f.name == "decl" && f.body.is_none()));
        let _ = FileModel::parse("x.rs", &[0xFF, 0xFE, b'f', b'n', 0x00]);
    }
}
