//! The cross-file analyses over the workspace model.
//!
//! Four analyses run on the [`WorkspaceModel`] built by [`crate::model`];
//! each guards a bug class that the per-file token rules cannot see:
//!
//! * [`codec_symmetry`] — encode/decode field drift in the VPCK/VPCY
//!   framings (and any future wire codec following their style);
//! * [`lock_order`] — inconsistent nested-guard acquisition order,
//!   double-acquisition, and channel sends while a guard is held;
//! * [`float_accumulation`] — f64/f32 accumulators folded in
//!   default-hasher iteration order, hash-typed fields declared in other
//!   files included;
//! * [`panic_reachability`] — panic-capable sites on the call graph from
//!   `StreamingRuntime`'s public entry points.
//!
//! All four are over-approximations by design (the model is lexical; see
//! the module docs of [`crate::model`] for the exact approximations), so
//! every diagnostic honors the same `// vp-lint: allow(<rule>) — <reason>`
//! marker scheme as the per-file rules. `panic-reachability` additionally
//! accepts a marker on the *function declaration* line, because one
//! function often contains many sites of the same kind.

use std::collections::{BTreeMap, BTreeSet};

use crate::context::{FileKind, Marker};
use crate::lexer::TokenKind;
use crate::model::{idents_with_type, FileModel, FnRef, WorkspaceModel};
use crate::rules::{diag, Diagnostic, RuleId};

/// Deterministic counters describing one analysis' coverage
/// (`pairs_checked`, `reachable_fns`, …), for the summary JSON.
pub type Coverage = BTreeMap<&'static str, u64>;

type Analysis = fn(&WorkspaceModel) -> (Vec<Diagnostic>, Coverage);

/// The cross-file analyses, in stable (report) order.
const ANALYSES: [(RuleId, Analysis); 4] = [
    (RuleId::CodecSymmetry, codec_symmetry),
    (RuleId::LockOrder, lock_order),
    (RuleId::FloatAccumulation, float_accumulation),
    (RuleId::PanicReachability, panic_reachability),
];

/// Runs every analysis over the model, appending its findings to `diags`
/// (markers are applied by the caller, with the per-file rules'), and
/// returns each analysis' coverage counters in [`ANALYSES`] order.
pub(crate) fn run_all(
    model: &WorkspaceModel,
    diags: &mut Vec<Diagnostic>,
) -> Vec<(RuleId, Coverage)> {
    ANALYSES
        .into_iter()
        .map(|(rule, analysis)| {
            let (found, coverage) = analysis(model);
            diags.extend(found);
            (rule, coverage)
        })
        .collect()
}

/// A valid marker that suppressed nothing in a run — dead weight that
/// should be removed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaleMarker {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line of the marker comment.
    pub line: u32,
    /// The rules the marker names.
    pub rules: Vec<String>,
}

/// Finds valid markers in library (non-test) code that no allowed
/// diagnostic in `diags` — every rule's, markers applied — credits.
pub(crate) fn stale_markers(model: &WorkspaceModel, diags: &[Diagnostic]) -> Vec<StaleMarker> {
    let mut used: BTreeSet<(&str, u32)> = BTreeSet::new();
    for d in diags.iter().filter(|d| d.allowed) {
        // Credit both lines a marker could sit on for this finding.
        used.insert((d.path.as_str(), d.line));
        used.insert((d.path.as_str(), d.line.saturating_sub(1)));
        if d.rule != RuleId::PanicReachability {
            continue;
        }
        // Panic-reachability also accepts markers on the declaration of
        // the function containing the site; credit those lines too.
        let Some(file) = model.files.iter().find(|f| f.path == d.path) else {
            continue;
        };
        for item in &file.fns {
            let Some((_, b1)) = item.body else { continue };
            let end = file.tok(b1).map_or(d.line, |t| t.line);
            if item.line <= d.line && d.line <= end {
                used.insert((d.path.as_str(), item.line));
                used.insert((d.path.as_str(), item.line.saturating_sub(1)));
            }
        }
    }
    let mut out = Vec::new();
    for file in &model.files {
        if file.kind != FileKind::Library {
            continue;
        }
        for m in &file.markers {
            let valid = m.reason.is_some()
                && !m.rules.is_empty()
                && m.rules.iter().all(|r| RuleId::from_name(r).is_some());
            if !valid || marker_in_test(file, m) {
                continue;
            }
            if !used.contains(&(file.path.as_str(), m.line)) {
                out.push(StaleMarker {
                    path: file.path.clone(),
                    line: m.line,
                    rules: m.rules.clone(),
                });
            }
        }
    }
    out
}

/// Whether the marker's comment token sits in a test region (markers
/// there can never suppress anything — rules skip test code).
fn marker_in_test(file: &FileModel, m: &Marker) -> bool {
    file.tokens
        .iter()
        .zip(&file.in_test)
        .filter(|(t, _)| {
            t.line == m.line && matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
        })
        .any(|(_, &f)| f)
}

// ---------------------------------------------------------------------------
// codec-symmetry
// ---------------------------------------------------------------------------

/// Integer/float width of one codec operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Width {
    W8,
    W16,
    W32,
    W64,
    F32,
    F64,
    /// Width the lexical model cannot determine; matches anything.
    Any,
}

impl Width {
    fn name(self) -> &'static str {
        match self {
            Width::W8 => "u8",
            Width::W16 => "u16",
            Width::W32 => "u32",
            Width::W64 => "u64",
            Width::F32 => "f32",
            Width::F64 => "f64",
            Width::Any => "?",
        }
    }

    fn matches(self, other: Width) -> bool {
        self == Width::Any || other == Width::Any || self == other
    }

    fn from_ident(t: &[u8]) -> Option<Width> {
        match t {
            b"u8" | b"i8" => Some(Width::W8),
            b"u16" | b"i16" => Some(Width::W16),
            b"u32" | b"i32" => Some(Width::W32),
            b"u64" | b"i64" => Some(Width::W64),
            b"f32" => Some(Width::F32),
            b"f64" => Some(Width::F64),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct CodecOp {
    width: Width,
    mi: usize,
}

/// The straight-line codec-operation prefix of one function body.
#[derive(Debug, Clone, Default)]
struct CodecOps {
    writes: Vec<CodecOp>,
    reads: Vec<CodecOp>,
    /// Extraction stopped at a control-flow block containing further
    /// codec ops, so the lists are prefixes, not totals.
    truncated: bool,
}

/// Encoder name → decoder name, or `None` when `name` is not a
/// recognised encode-side name.
fn decode_counterpart(name: &str) -> Option<String> {
    const EXACT: [(&str, &str); 5] = [
        ("encode", "decode"),
        ("checkpoint", "restore"),
        ("seal", "open"),
        ("to_bytes", "from_bytes"),
        ("serialize", "deserialize"),
    ];
    const PREFIX: [(&str, &str); 3] = [
        ("encode_", "decode_"),
        ("write_", "read_"),
        ("seal_", "open_"),
    ];
    for (e, d) in EXACT {
        if name == e {
            return Some(d.to_string());
        }
    }
    for (e, d) in PREFIX {
        if let Some(rest) = name.strip_prefix(e) {
            return Some(format!("{d}{rest}"));
        }
    }
    None
}

/// Widths of simply-typed struct fields, consts and statics across the
/// workspace (`cell: u64`, `const VERSION: u16`), used to type
/// `x.field.to_le_bytes()` receivers. Conflicting declarations collapse
/// to [`Width::Any`].
fn declared_widths(model: &WorkspaceModel) -> BTreeMap<Vec<u8>, Width> {
    let mut out: BTreeMap<Vec<u8>, Width> = BTreeMap::new();
    let mut put = |name: Vec<u8>, w: Width| {
        out.entry(name)
            .and_modify(|old| {
                if *old != w {
                    *old = Width::Any;
                }
            })
            .or_insert(w);
    };
    for file in model.files.iter().filter(|f| f.kind == FileKind::Library) {
        for s in &file.structs {
            for field in &s.fields {
                if let Some(w) = Width::from_ident(field.type_text.as_bytes()) {
                    put(field.name.clone().into_bytes(), w);
                }
            }
        }
        // `const NAME : <width>` / `static NAME : <width>`.
        for mi in 0..file.meaningful.len() {
            let t = file.text(mi);
            if (t == b"const" || t == b"static")
                && file.text(mi + 2) == b":"
                && file.text(mi + 3) != b":"
            {
                if let Some(w) = Width::from_ident(file.text(mi + 3)) {
                    if file.tok(mi + 1).is_some_and(|t| t.kind == TokenKind::Ident) {
                        put(file.text(mi + 1).to_vec(), w);
                    }
                }
            }
        }
    }
    out
}

const WRITE_CALLS: [(&[u8], Width); 6] = [
    (b"put_u8", Width::W8),
    (b"put_u16", Width::W16),
    (b"put_u32", Width::W32),
    (b"put_u64", Width::W64),
    (b"put_f32", Width::F32),
    (b"put_f64", Width::F64),
];

const READ_CALLS: [(&[u8], Width); 7] = [
    (b"get_u8", Width::W8),
    (b"get_u16", Width::W16),
    (b"get_u32", Width::W32),
    (b"get_u64", Width::W64),
    (b"get_f32", Width::F32),
    (b"get_f64", Width::F64),
    // `get_count` reads a u32 length prefix (see runtime::checkpoint).
    (b"get_count", Width::W32),
];

/// The codec op at meaningful index `mi`, if any.
fn codec_op_at(
    file: &FileModel,
    mi: usize,
    widths: &BTreeMap<Vec<u8>, Width>,
) -> Option<(bool, CodecOp)> {
    let t = file.text(mi);
    if file.text(mi + 1) != b"(" {
        return None;
    }
    for (name, w) in WRITE_CALLS {
        if t == name {
            return Some((true, CodecOp { width: w, mi }));
        }
    }
    for (name, w) in READ_CALLS {
        if t == name {
            return Some((false, CodecOp { width: w, mi }));
        }
    }
    if (t == b"to_le_bytes" || t == b"to_be_bytes") && file.text(mi.wrapping_sub(1)) == b"." {
        // Width from an `as uN` cast in the receiver expression, else
        // from the declared width of the receiver's last identifier.
        let mut width = Width::Any;
        for back in 2..=12usize {
            let Some(k) = mi.checked_sub(back) else { break };
            let p = file.text(k);
            if matches!(p, b";" | b"{" | b"}") {
                break;
            }
            if let Some(w) = Width::from_ident(p) {
                width = w;
                break;
            }
        }
        if width == Width::Any {
            if let Some(w) = widths.get(file.text(mi.wrapping_sub(2))) {
                width = *w;
            }
        }
        return Some((true, CodecOp { width, mi }));
    }
    if (t == b"from_le_bytes" || t == b"from_be_bytes")
        && file.text(mi.wrapping_sub(1)) == b":"
        && file.text(mi.wrapping_sub(2)) == b":"
    {
        let width = Width::from_ident(file.text(mi.wrapping_sub(3))).unwrap_or(Width::Any);
        return Some((false, CodecOp { width, mi }));
    }
    None
}

/// Extracts the straight-line codec-op prefix of a body. Control-flow
/// blocks (`if`/`match`/`for`/…) that contain no codec ops — length
/// guards, error returns — are skipped; the first one that *does* contain
/// ops truncates extraction, because op order past it is conditional.
fn codec_ops(
    file: &FileModel,
    body: (usize, usize),
    widths: &BTreeMap<Vec<u8>, Width>,
) -> CodecOps {
    const CTRL: [&[u8]; 6] = [b"if", b"else", b"match", b"for", b"while", b"loop"];
    let mut ops = CodecOps::default();
    let mut pending_ctrl = false;
    let mut mi = body.0 + 1;
    while mi < body.1 {
        let t = file.text(mi);
        if CTRL.contains(&t) {
            pending_ctrl = true;
        } else if t == b";" {
            pending_ctrl = false;
        } else if t == b"{" {
            if pending_ctrl {
                let close = file.match_brace(mi);
                let has_ops = (mi + 1..close).any(|k| codec_op_at(file, k, widths).is_some());
                if has_ops {
                    ops.truncated = true;
                    return ops;
                }
                mi = close + 1;
                pending_ctrl = false;
                continue;
            }
        } else if let Some((is_write, op)) = codec_op_at(file, mi, widths) {
            if is_write {
                ops.writes.push(op);
            } else {
                ops.reads.push(op);
            }
        }
        mi += 1;
    }
    ops
}

/// Pairs `encode`-side functions with their `decode`-side counterparts
/// and verifies field count, order and width agreement over the common
/// straight-line prefix.
fn codec_symmetry(model: &WorkspaceModel) -> (Vec<Diagnostic>, Coverage) {
    let widths = declared_widths(model);
    let mut diags = Vec::new();
    let mut pairs_checked = 0u64;
    let mut unpaired = 0u64;
    let mut ambiguous = 0u64;
    for (fi, file) in model.files.iter().enumerate() {
        if file.kind != FileKind::Library {
            continue;
        }
        for enc in file.fns.iter().filter(|f| !f.in_test) {
            let Some(dec_name) = decode_counterpart(&enc.name) else {
                continue;
            };
            let Some(enc_body) = enc.body else { continue };
            let enc_ops = codec_ops(file, enc_body, &widths);
            if enc_ops.writes.is_empty() {
                continue; // not actually an encoder (e.g. a dispatcher)
            }
            // Resolve the decoder: same owner first, then same file, then
            // a unique workspace-wide match.
            let candidates: Vec<FnRef> = model
                .fns_named(&dec_name)
                .iter()
                .copied()
                .filter(|r| {
                    model
                        .files
                        .get(r.file)
                        .is_some_and(|f| f.kind == FileKind::Library)
                        && model.fn_item(*r).is_some_and(|f| !f.in_test)
                })
                .collect();
            let same_owner: Vec<FnRef> = candidates
                .iter()
                .copied()
                .filter(|r| model.fn_item(*r).is_some_and(|f| f.owner == enc.owner))
                .collect();
            let same_file: Vec<FnRef> = candidates
                .iter()
                .copied()
                .filter(|r| r.file == fi)
                .collect();
            let pick = [same_owner, same_file, candidates]
                .into_iter()
                .find(|set| !set.is_empty());
            let Some(set) = pick else {
                unpaired += 1;
                continue;
            };
            if set.len() > 1 {
                ambiguous += 1;
                continue;
            }
            let dref = set[0];
            let (Some(dfile), Some(dec)) = (model.files.get(dref.file), model.fn_item(dref)) else {
                continue;
            };
            let Some(dec_body) = dec.body else { continue };
            let dec_ops = codec_ops(dfile, dec_body, &widths);
            if dec_ops.reads.is_empty() {
                unpaired += 1;
                continue;
            }
            if enc_ops.writes.len() < 2 && dec_ops.reads.len() < 2 {
                continue; // too little structure to call it a codec pair
            }
            pairs_checked += 1;
            let common = enc_ops.writes.len().min(dec_ops.reads.len());
            let mut mismatched = false;
            for i in 0..common {
                let w = enc_ops.writes[i].width;
                let r = dec_ops.reads[i].width;
                if !w.matches(r) {
                    mismatched = true;
                    diags.push(diag(
                        RuleId::CodecSymmetry,
                        dfile,
                        dec_ops.reads[i].mi,
                        format!(
                            "`{}` reads {} as field {} where `{}` ({}:{}) writes {} — \
                             encode/decode field drift",
                            dec.qualified(),
                            r.name(),
                            i + 1,
                            enc.qualified(),
                            file.path,
                            file.pos(enc_ops.writes[i].mi).0,
                            w.name(),
                        ),
                    ));
                    break; // later fields are desynced; one diag per pair
                }
            }
            if !mismatched
                && !enc_ops.truncated
                && !dec_ops.truncated
                && enc_ops.writes.len() != dec_ops.reads.len()
            {
                // Find the fn-decl meaningful index for the diag site.
                let decl_mi = (0..dfile.meaningful.len())
                    .find(|&k| dfile.pos(k) == (dec.line, dec.col))
                    .unwrap_or(0);
                diags.push(diag(
                    RuleId::CodecSymmetry,
                    dfile,
                    decl_mi,
                    format!(
                        "`{}` reads {} fields where `{}` ({}) writes {} — \
                         encode/decode field-count drift",
                        dec.qualified(),
                        dec_ops.reads.len(),
                        enc.qualified(),
                        file.path,
                        enc_ops.writes.len(),
                    ),
                ));
            }
        }
    }
    let meta = BTreeMap::from([
        ("pairs_checked", pairs_checked),
        ("unpaired", unpaired),
        ("ambiguous", ambiguous),
    ]);
    (diags, meta)
}

// ---------------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Guard {
    name: Vec<u8>,
    /// Brace depth (relative to the fn body) at the binding site.
    depth: i64,
    /// `let` binding name, when one exists.
    binding: Option<Vec<u8>>,
    /// A temporary (no `let`): released at the end of the statement.
    temp: bool,
    /// Acquired via `.read()` — shared, so re-acquiring via `.read()`
    /// is not a self-deadlock.
    shared: bool,
}

/// Channel-sender names visible in one file: destructured
/// `let (tx, _) = sync_channel(…)` bindings plus `Sender`/`SyncSender`
/// typed idents.
fn sender_names(file: &FileModel) -> BTreeSet<Vec<u8>> {
    let mut out = idents_with_type(file, &[b"Sender", b"SyncSender"]);
    for mi in 0..file.meaningful.len() {
        if (file.text(mi) == b"sync_channel" || file.text(mi) == b"channel")
            && file.text(mi + 1) == b"("
        {
            // Walk back over `=`, `)`, pattern, `(`, [`mut`], to `let`:
            // `let ( tx , rx ) = [path ::] sync_channel (`.
            let mut k = mi;
            while k > 0 && file.text(k - 1) == b":" {
                k -= 2; // path segments
                if k > 0 && file.tok(k - 1).is_some_and(|t| t.kind == TokenKind::Ident) {
                    k -= 1;
                }
            }
            if k == 0 || file.text(k - 1) != b"=" {
                continue;
            }
            if file.text(k - 2) != b")" {
                continue;
            }
            // Scan back to the `(` of the tuple pattern, keeping the
            // first ident after it.
            let mut j = k - 2;
            let mut first_ident = None;
            while j > 0 {
                j -= 1;
                let t = file.text(j);
                if t == b"(" {
                    break;
                }
                if file.tok(j).is_some_and(|t| t.kind == TokenKind::Ident) {
                    first_ident = Some(file.text(j).to_vec());
                }
            }
            if j > 0 && file.text(j.wrapping_sub(1)) == b"let" {
                if let Some(tx) = first_ident {
                    out.insert(tx);
                }
            }
        }
    }
    out
}

/// The lock acquisition at `mi`, if any: `(lock_name, shared)`.
fn acquisition_at(
    file: &FileModel,
    mi: usize,
    lock_names: &BTreeSet<Vec<u8>>,
) -> Option<(Vec<u8>, bool)> {
    let t = file.text(mi);
    if file.text(mi + 1) != b"(" {
        return None;
    }
    if matches!(t, b"lock" | b"read" | b"write") && file.text(mi.wrapping_sub(1)) == b"." {
        let recv = file.text(mi.wrapping_sub(2));
        if lock_names.contains(recv) {
            return Some((recv.to_vec(), t == b"read"));
        }
        return None;
    }
    // Lock-helper call: `lock_unpoisoned(&SINK)`, `self.lock_cache()` on a
    // known lock argument.
    if t.starts_with(b"lock") && t != b"lock" {
        let close = {
            // Matching `)` of the argument list.
            let mut depth = 0i64;
            let mut k = mi + 1;
            loop {
                match file.text(k) {
                    b"(" => depth += 1,
                    b")" => {
                        depth -= 1;
                        if depth == 0 {
                            break k;
                        }
                    }
                    b"" => break k,
                    _ => {}
                }
                k += 1;
            }
        };
        for k in mi + 2..close {
            let a = file.text(k);
            if lock_names.contains(a) {
                return Some((a.to_vec(), false));
            }
        }
    }
    None
}

/// Statement start (exclusive) scanning back from `mi`: the nearest
/// `;`/`{`/`}` at or before it.
fn stmt_start(file: &FileModel, mi: usize) -> usize {
    for k in (0..mi).rev() {
        if matches!(file.text(k), b";" | b"{" | b"}") {
            return k;
        }
        if mi - k > 80 {
            return k;
        }
    }
    0
}

/// Walks every library function tracking held guards; reports
/// inconsistent global acquisition order, double-acquisition, and channel
/// sends under a guard.
fn lock_order(model: &WorkspaceModel) -> (Vec<Diagnostic>, Coverage) {
    let mut diags = Vec::new();
    // (first_lock, second_lock) → first site observed, per direction.
    let mut edges: BTreeMap<(Vec<u8>, Vec<u8>), (usize, usize)> = BTreeMap::new();
    let mut fns_walked = 0u64;
    let mut acquisitions = 0u64;
    for (fi, file) in model.files.iter().enumerate() {
        if file.kind != FileKind::Library {
            continue;
        }
        let mut lock_names = idents_with_type(file, &[b"Mutex", b"RwLock"]);
        for f in &model.lock_fields {
            lock_names.insert(f.clone().into_bytes());
        }
        if lock_names.is_empty() {
            continue;
        }
        let senders = sender_names(file);
        for item in file.fns.iter().filter(|f| !f.in_test) {
            let Some((a, b)) = item.body else { continue };
            fns_walked += 1;
            let mut depth = 0i64;
            let mut guards: Vec<Guard> = Vec::new();
            for mi in a..=b.min(file.meaningful.len().saturating_sub(1)) {
                let t = file.text(mi);
                match t {
                    b"{" => depth += 1,
                    b"}" => {
                        depth -= 1;
                        guards.retain(|g| g.depth <= depth);
                    }
                    b";" => guards.retain(|g| !(g.temp && g.depth == depth)),
                    b"drop" if file.text(mi + 1) == b"(" => {
                        let arg = file.text(mi + 2).to_vec();
                        guards.retain(|g| g.binding.as_deref() != Some(&arg));
                    }
                    b"send" | b"try_send"
                        if file.text(mi.wrapping_sub(1)) == b"."
                            && file.text(mi + 1) == b"("
                            && senders.contains(file.text(mi.wrapping_sub(2)))
                            && !guards.is_empty() =>
                    {
                        let held = String::from_utf8_lossy(&guards[0].name).into_owned();
                        diags.push(diag(
                            RuleId::LockOrder,
                            file,
                            mi,
                            format!(
                                "channel `{}` while guard on `{held}` is held in `{}` — a \
                                 full sync_channel blocks with the lock held (vp-city wave \
                                 hazard); send after releasing the guard",
                                String::from_utf8_lossy(t),
                                item.qualified(),
                            ),
                        ));
                    }
                    _ => {
                        if let Some((name, shared)) = acquisition_at(file, mi, &lock_names) {
                            acquisitions += 1;
                            if let Some(prior) = guards.iter().find(|g| g.name == name) {
                                if !(prior.shared && shared) {
                                    diags.push(diag(
                                        RuleId::LockOrder,
                                        file,
                                        mi,
                                        format!(
                                            "`{}` re-acquires lock `{}` already held in this \
                                             scope — self-deadlock",
                                            item.qualified(),
                                            String::from_utf8_lossy(&name),
                                        ),
                                    ));
                                }
                            } else {
                                for held in &guards {
                                    edges
                                        .entry((held.name.clone(), name.clone()))
                                        .or_insert((fi, mi));
                                }
                            }
                            // Binding: `let [mut] g = …` at statement start.
                            let start = stmt_start(file, mi);
                            let mut binding = None;
                            let mut temp = true;
                            if file.text(start + 1) == b"let" {
                                temp = false;
                                let mut k = start + 2;
                                if file.text(k) == b"mut" {
                                    k += 1;
                                }
                                if file.tok(k).is_some_and(|t| t.kind == TokenKind::Ident) {
                                    binding = Some(file.text(k).to_vec());
                                }
                            }
                            guards.push(Guard {
                                name,
                                depth,
                                binding,
                                temp,
                                shared,
                            });
                        }
                    }
                }
            }
        }
    }
    // Cross-function order conflicts: (a, b) and (b, a) both observed.
    let mut conflicts = 0u64;
    let keys: Vec<(Vec<u8>, Vec<u8>)> = edges.keys().cloned().collect();
    for key in &keys {
        let (a, b) = key;
        if a >= b {
            continue;
        }
        let rev = (b.clone(), a.clone());
        if let (Some(&(f1, m1)), Some(&(f2, m2))) = (edges.get(key), edges.get(&rev)) {
            conflicts += 1;
            for (fi, mi, first, second, ofi, omi) in
                [(f1, m1, a, b, f2, m2), (f2, m2, b, a, f1, m1)]
            {
                let (Some(file), Some(other)) = (model.files.get(fi), model.files.get(ofi)) else {
                    continue;
                };
                let (oline, _) = other.pos(omi);
                diags.push(diag(
                    RuleId::LockOrder,
                    file,
                    mi,
                    format!(
                        "lock `{}` acquired while `{}` is held, but the opposite order \
                         occurs at {}:{} — pick one global order to rule out deadlock",
                        String::from_utf8_lossy(second),
                        String::from_utf8_lossy(first),
                        other.path,
                        oline,
                    ),
                ));
            }
        }
    }
    let meta = BTreeMap::from([
        ("fns_walked", fns_walked),
        ("acquisitions", acquisitions),
        ("nesting_edges", edges.len() as u64),
        ("order_conflicts", conflicts),
    ]);
    (diags, meta)
}

// ---------------------------------------------------------------------------
// float-accumulation
// ---------------------------------------------------------------------------

/// Hash-iteration method names whose output order feeds a fold.
const HASH_ITER: [&[u8]; 8] = [
    b"iter",
    b"iter_mut",
    b"values",
    b"values_mut",
    b"into_iter",
    b"into_values",
    b"keys",
    b"drain",
];

const FOLDS: [&[u8]; 3] = [b"sum", b"product", b"fold"];

/// Float-typed local idents of one body: `let x = 1.0;`-style bindings
/// and `x: f64` annotations.
fn float_idents(file: &FileModel, body: (usize, usize)) -> BTreeSet<Vec<u8>> {
    let mut out = BTreeSet::new();
    for mi in body.0..=body.1.min(file.meaningful.len().saturating_sub(1)) {
        let t = file.text(mi);
        if (t == b"f64" || t == b"f32")
            && file.text(mi.wrapping_sub(1)) == b":"
            && file.text(mi.wrapping_sub(2)) != b":"
        {
            if let Some(tok) = file.tok(mi.wrapping_sub(2)) {
                if tok.kind == TokenKind::Ident {
                    out.insert(file.text(mi.wrapping_sub(2)).to_vec());
                }
            }
        }
        if file.tok(mi).is_some_and(|t| t.kind == TokenKind::Number)
            && (t.contains(&b'.') || t.ends_with(b"f64") || t.ends_with(b"f32"))
            && file.text(mi.wrapping_sub(1)) == b"="
        {
            // `let [mut] name = 0.0` — name sits before the `=`.
            let name_mi = mi.wrapping_sub(2);
            let intro = file.text(name_mi.wrapping_sub(1));
            if (intro == b"let" || intro == b"mut")
                && file
                    .tok(name_mi)
                    .is_some_and(|t| t.kind == TokenKind::Ident)
            {
                out.insert(file.text(name_mi).to_vec());
            }
        }
    }
    out
}

/// Flags f64/f32 folds over default-hasher iteration: inline
/// `hash.values().sum::<f64>()` chains and `for`-loop `+=` accumulation.
fn float_accumulation(model: &WorkspaceModel) -> (Vec<Diagnostic>, Coverage) {
    let mut diags = Vec::new();
    let mut folds_seen = 0u64;
    for file in &model.files {
        if file.kind != FileKind::Library {
            continue;
        }
        let mut hash_names = idents_with_type(file, &[b"HashMap", b"HashSet"]);
        for f in &model.hash_fields {
            hash_names.insert(f.clone().into_bytes());
        }
        if hash_names.is_empty() {
            continue;
        }
        for item in file.fns.iter().filter(|f| !f.in_test) {
            let Some((a, b)) = item.body else { continue };
            let floats = float_idents(file, (a, b));
            let end = b.min(file.meaningful.len().saturating_sub(1));
            for mi in a..=end {
                if file.is_test(mi) {
                    continue;
                }
                let t = file.text(mi);
                // Inline chain: `<hash> . iter-ish ( ) … sum/fold` within
                // the same statement, with float evidence in the statement.
                if HASH_ITER.contains(&t)
                    && file.text(mi.wrapping_sub(1)) == b"."
                    && hash_names.contains(file.text(mi.wrapping_sub(2)))
                    && file.text(mi + 1) == b"("
                {
                    let mut fold_at = None;
                    let mut float_seen = false;
                    let mut depth = 0i64;
                    for k in mi..(mi + 200).min(end + 1) {
                        let u = file.text(k);
                        match u {
                            b"(" | b"[" | b"{" => depth += 1,
                            b")" | b"]" | b"}" => {
                                depth -= 1;
                                if depth < 0 {
                                    break;
                                }
                            }
                            b";" if depth == 0 => break,
                            b"f64" | b"f32" => float_seen = true,
                            _ => {
                                if FOLDS.contains(&u) && fold_at.is_none() {
                                    fold_at = Some(k);
                                }
                                if file.tok(k).is_some_and(|t| t.kind == TokenKind::Number)
                                    && u.contains(&b'.')
                                {
                                    float_seen = true;
                                }
                            }
                        }
                    }
                    if let (Some(f), true) = (fold_at, float_seen) {
                        folds_seen += 1;
                        diags.push(diag(
                            RuleId::FloatAccumulation,
                            file,
                            f,
                            format!(
                                "float fold over default-hasher collection `{}` in `{}` — \
                                 addition is not associative, so hasher order changes the \
                                 result; fold in sorted (BTree/slice) order",
                                String::from_utf8_lossy(file.text(mi.wrapping_sub(2))),
                                item.qualified(),
                            ),
                        ));
                    }
                }
                // Loop form: `for _ in [&][mut] <hash> [. iter-ish ( )] {`
                // with a `+=`/`-=`/`*=` on a float ident inside.
                if t == b"in" {
                    let mut k = mi + 1;
                    while file.text(k) == b"&" || file.text(k) == b"mut" {
                        k += 1;
                    }
                    if !hash_names.contains(file.text(k)) {
                        continue;
                    }
                    let recv = file.text(k).to_vec();
                    let mut open = k + 1;
                    // Allow a short method chain before the loop body.
                    while open < end && file.text(open) != b"{" && open - k < 10 {
                        open += 1;
                    }
                    if file.text(open) != b"{" {
                        continue;
                    }
                    let close = file.match_brace(open);
                    for j in open..close.min(end) {
                        let u = file.text(j);
                        if floats.contains(u)
                            && matches!(file.text(j + 1), b"+" | b"-" | b"*")
                            && file.text(j + 2) == b"="
                        {
                            folds_seen += 1;
                            diags.push(diag(
                                RuleId::FloatAccumulation,
                                file,
                                j,
                                format!(
                                    "float accumulator `{}` updated inside a loop over \
                                     default-hasher collection `{}` in `{}` — iteration \
                                     order changes the sum; iterate a sorted view",
                                    String::from_utf8_lossy(u),
                                    String::from_utf8_lossy(&recv),
                                    item.qualified(),
                                ),
                            ));
                            break; // one diag per loop
                        }
                    }
                }
            }
        }
    }
    let meta = BTreeMap::from([("flagged_folds", folds_seen)]);
    (diags, meta)
}

// ---------------------------------------------------------------------------
// panic-reachability
// ---------------------------------------------------------------------------

/// Panic-site kinds, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SiteKind {
    Indexing,
    UnwrapExpect,
    PanicMacro,
    SliceOp,
}

impl SiteKind {
    fn name(self) -> &'static str {
        match self {
            SiteKind::Indexing => "slice/array indexing",
            SiteKind::UnwrapExpect => "`unwrap`/`expect`",
            SiteKind::PanicMacro => "a panic-family macro",
            SiteKind::SliceOp => "a slice-fitting op (`copy_from_slice`/`split_at`)",
        }
    }
}

const PANIC_MACROS: [&[u8]; 10] = [
    b"panic",
    b"unreachable",
    b"todo",
    b"unimplemented",
    b"assert",
    b"assert_eq",
    b"assert_ne",
    b"debug_assert",
    b"debug_assert_eq",
    b"debug_assert_ne",
];

/// Macros that flag as reachable-panic sites. The assert family is
/// deliberately absent: asserts are the repo's sanctioned precondition
/// mechanism (the lexical `forbidden-panic` rule excludes them for the
/// same reason, and the guarded fns document them under `# Panics`).
const SITE_MACROS: [&[u8]; 4] = [b"panic", b"unreachable", b"todo", b"unimplemented"];

/// Release-mode assert macros that count as bounds guards for indexing
/// later in the same body (`debug_assert*` vanishes in release builds,
/// so it guards nothing).
const GUARD_MACROS: [&[u8]; 3] = [b"assert", b"assert_eq", b"assert_ne"];

/// The panic site at `mi`, if any.
fn panic_site_at(file: &FileModel, mi: usize) -> Option<SiteKind> {
    let t = file.text(mi);
    if t == b"[" {
        let prev = file.tok(mi.wrapping_sub(1))?;
        let prev_text = prev.bytes(&file.src);
        // A keyword before `[` means an array/slice *literal* or a type
        // (`in [a, b]`, `&mut [T]`, `return [x]`), never an index.
        const NON_RECEIVER_KEYWORDS: [&[u8]; 14] = [
            b"in", b"return", b"break", b"mut", b"ref", b"else", b"match", b"if", b"while",
            b"loop", b"move", b"as", b"let", b"box",
        ];
        let indexing = (prev.kind == TokenKind::Ident || prev_text == b")" || prev_text == b"]")
            && !PANIC_MACROS.contains(&prev_text)
            && !NON_RECEIVER_KEYWORDS.contains(&prev_text);
        if !indexing {
            return None;
        }
        // `[..]` (full range) and literal indices `[0]` are excluded:
        // full ranges cannot fail, and literal indexing of fixed-size
        // buffers is the dominant benign pattern. Documented
        // approximation — a literal index *can* still be out of range.
        if file.text(mi + 1) == b"." && file.text(mi + 2) == b"." && file.text(mi + 3) == b"]" {
            return None;
        }
        if file
            .tok(mi + 1)
            .is_some_and(|t| t.kind == TokenKind::Number)
            && file.text(mi + 2) == b"]"
        {
            return None;
        }
        return Some(SiteKind::Indexing);
    }
    if file.text(mi + 1) == b"!" && SITE_MACROS.contains(&t) {
        let after = file.text(mi + 2);
        if after == b"(" || after == b"[" || after == b"{" {
            return Some(SiteKind::PanicMacro);
        }
        return None;
    }
    if file.text(mi + 1) != b"(" || file.text(mi.wrapping_sub(1)) != b"." {
        return None;
    }
    match t {
        b"unwrap" | b"expect" => Some(SiteKind::UnwrapExpect),
        b"copy_from_slice" | b"split_at" | b"split_at_mut" => Some(SiteKind::SliceOp),
        _ => None,
    }
}

/// Whether a marker on `line` or the line above justifies a panic site
/// (either as `forbidden-panic` — the lexical rule's markers double as
/// justification — or as `panic-reachability`).
fn site_justified(markers: &[Marker], line: u32) -> bool {
    markers.iter().any(|m| {
        m.covers(line, RuleId::ForbiddenPanic.name())
            || m.covers(line, RuleId::PanicReachability.name())
    })
}

/// Identifier → declared type name, used to resolve `x.method()` edges:
/// per-file `name: Type` annotations and workspace-wide struct fields.
/// `None` marks a name declared with conflicting types (treated as
/// untyped — the conservative, more-edges direction).
struct ReceiverTypes {
    fields: BTreeMap<String, Option<String>>,
    locals: Vec<BTreeMap<String, Option<String>>>,
}

/// First uppercase-starting identifier of a type-token string — the
/// receiver's immediate type (`& mut Collector` → `Collector`,
/// `RefCell < Cache >` → `RefCell`, because direct method calls dispatch
/// on the outermost type).
fn head_type(type_text: &str) -> Option<String> {
    type_text
        .split_whitespace()
        .find(|t| t.chars().next().is_some_and(|c| c.is_ascii_uppercase()))
        .map(str::to_string)
}

fn receiver_types(model: &WorkspaceModel) -> ReceiverTypes {
    let mut fields: BTreeMap<String, Option<String>> = BTreeMap::new();
    let put = |map: &mut BTreeMap<String, Option<String>>, k: String, v: String| {
        map.entry(k)
            .and_modify(|old| {
                if old.as_deref() != Some(v.as_str()) {
                    *old = None;
                }
            })
            .or_insert(Some(v));
    };
    let mut locals = Vec::with_capacity(model.files.len());
    for file in &model.files {
        let mut local: BTreeMap<String, Option<String>> = BTreeMap::new();
        if file.kind == FileKind::Library {
            for s in &file.structs {
                for f in &s.fields {
                    if let Some(t) = head_type(&f.type_text) {
                        put(&mut fields, f.name.clone(), t);
                    }
                }
            }
            // `name : Type` annotations (params, lets, statics).
            for mi in 0..file.meaningful.len() {
                if file.text(mi) != b":" || file.text(mi + 1) == b":" {
                    continue;
                }
                if file.text(mi.wrapping_sub(1)) == b":" || file.text(mi.wrapping_sub(2)) == b":" {
                    continue; // path segment, not an annotation
                }
                let Some(name_tok) = file.tok(mi.wrapping_sub(1)) else {
                    continue;
                };
                if name_tok.kind != TokenKind::Ident {
                    continue;
                }
                // Type position: skip `&`/`mut` to the first ident.
                let mut k = mi + 1;
                while matches!(file.text(k), b"&" | b"mut") {
                    k += 1;
                }
                let t = file.text(k);
                if file.tok(k).is_some_and(|t| t.kind == TokenKind::Ident)
                    && t.first().is_some_and(u8::is_ascii_uppercase)
                {
                    put(
                        &mut local,
                        String::from_utf8_lossy(name_tok.bytes(&file.src)).into_owned(),
                        String::from_utf8_lossy(t).into_owned(),
                    );
                }
            }
        }
        locals.push(local);
    }
    ReceiverTypes { fields, locals }
}

/// Walks the name-resolved call graph from `StreamingRuntime`'s public
/// entry points and reports panic-capable sites in reachable functions,
/// aggregated to one diagnostic per (function, site kind).
fn panic_reachability(model: &WorkspaceModel) -> (Vec<Diagnostic>, Coverage) {
    const ENTRY_OWNER: &str = "StreamingRuntime";
    const DEPTH_CAP: u32 = 20;
    let types = receiver_types(model);
    let mut entries = Vec::new();
    for (fi, file) in model.files.iter().enumerate() {
        if file.kind != FileKind::Library {
            continue;
        }
        for (ii, f) in file.fns.iter().enumerate() {
            if f.is_pub && !f.in_test && f.owner.as_deref() == Some(ENTRY_OWNER) {
                entries.push(FnRef { file: fi, item: ii });
            }
        }
    }
    // BFS with predecessors for path reporting.
    let mut pred: BTreeMap<FnRef, Option<FnRef>> = BTreeMap::new();
    let mut queue: Vec<(FnRef, u32)> = Vec::new();
    for &e in &entries {
        pred.insert(e, None);
        queue.push((e, 0));
    }
    let mut head = 0usize;
    while head < queue.len() {
        let (cur, depth) = queue[head];
        head += 1;
        if depth >= DEPTH_CAP {
            continue;
        }
        let Some(item) = model.fn_item(cur) else {
            continue;
        };
        for call in &item.calls {
            if call.kind == crate::model::CallKind::Macro {
                continue;
            }
            let named = model.fns_named(&call.callee);
            let live: Vec<FnRef> = named
                .iter()
                .copied()
                .filter(|r| {
                    model
                        .files
                        .get(r.file)
                        .is_some_and(|f| f.kind == FileKind::Library)
                        && model.fn_item(*r).is_some_and(|f| !f.in_test)
                })
                .collect();
            // Edge resolution, from most to least information:
            //
            // * type-like qualifier (`Collector::new`, `Self::step`) —
            //   binds to fns with that owner, and to NOTHING when the
            //   workspace defines none (the call targets an external
            //   type like `VecDeque::new`; without this every `X::new`
            //   would edge to every constructor in the workspace);
            // * module-like qualifier (`checkpoint::seal`) — prefers
            //   free functions;
            // * method call — only fns taking `self`; `self.m()` binds
            //   to the caller's own impl when it has an `m`, and a
            //   receiver with a known declared type binds to (only)
            //   that type's impls;
            // * bare path call — prefers free functions.
            let by_owner = |owner: Option<&str>| -> Vec<FnRef> {
                live.iter()
                    .copied()
                    .filter(|r| {
                        model
                            .fn_item(*r)
                            .is_some_and(|f| f.owner.as_deref() == owner)
                    })
                    .collect()
            };
            let targets: Vec<FnRef> = match (&call.qualifier, call.kind) {
                (Some(q), _) => {
                    let type_like =
                        q == "Self" || q.chars().next().is_some_and(|c| c.is_ascii_uppercase());
                    if type_like {
                        let owner = if q == "Self" {
                            item.owner.clone()
                        } else {
                            Some(q.clone())
                        };
                        by_owner(owner.as_deref())
                    } else {
                        let free = by_owner(None);
                        if free.is_empty() {
                            live
                        } else {
                            free
                        }
                    }
                }
                (None, crate::model::CallKind::Method) => {
                    let methods: Vec<FnRef> = live
                        .iter()
                        .copied()
                        .filter(|r| model.fn_item(*r).is_some_and(|f| f.has_self))
                        .collect();
                    match call.receiver.as_deref() {
                        Some("self") => {
                            let own: Vec<FnRef> = methods
                                .iter()
                                .copied()
                                .filter(|r| {
                                    model.fn_item(*r).is_some_and(|f| f.owner == item.owner)
                                })
                                .collect();
                            if own.is_empty() {
                                methods
                            } else {
                                own
                            }
                        }
                        Some(recv) => {
                            let ty = types
                                .locals
                                .get(cur.file)
                                .and_then(|m| m.get(recv))
                                .or_else(|| types.fields.get(recv));
                            match ty {
                                Some(Some(t)) => methods
                                    .iter()
                                    .copied()
                                    .filter(|r| {
                                        model
                                            .fn_item(*r)
                                            .is_some_and(|f| f.owner.as_deref() == Some(t.as_str()))
                                    })
                                    .collect(),
                                _ => methods,
                            }
                        }
                        None => methods,
                    }
                }
                (None, _) => {
                    let free = by_owner(None);
                    if free.is_empty() {
                        live
                    } else {
                        free
                    }
                }
            };
            for t in targets {
                if let std::collections::btree_map::Entry::Vacant(v) = pred.entry(t) {
                    v.insert(Some(cur));
                    queue.push((t, depth + 1));
                }
            }
        }
    }
    // Site scan per reachable fn, one diagnostic per (fn, kind).
    let mut diags = Vec::new();
    let mut sites_total = 0u64;
    let mut sites_justified = 0u64;
    let mut sites_asserted = 0u64;
    for &r in pred.keys() {
        let (Some(file), Some(item)) = (model.files.get(r.file), model.fn_item(r)) else {
            continue;
        };
        let Some((a, b)) = item.body else { continue };
        let mut first_per_kind: BTreeMap<SiteKind, usize> = BTreeMap::new();
        let mut count_per_kind: BTreeMap<SiteKind, u64> = BTreeMap::new();
        // Validate-then-index: once a release-mode assert has run in
        // this body, later indexing/slice-fitting is considered guarded
        // by it (the repo's documented `# Panics` idiom).
        let mut assert_seen = false;
        for mi in a..=b.min(file.meaningful.len().saturating_sub(1)) {
            if file.is_test(mi) {
                continue;
            }
            if GUARD_MACROS.contains(&file.text(mi)) && file.text(mi + 1) == b"!" {
                assert_seen = true;
                continue;
            }
            let Some(kind) = panic_site_at(file, mi) else {
                continue;
            };
            sites_total += 1;
            if assert_seen && matches!(kind, SiteKind::Indexing | SiteKind::SliceOp) {
                sites_asserted += 1;
                continue;
            }
            let (line, _) = file.pos(mi);
            if site_justified(&file.markers, line) {
                sites_justified += 1;
                continue;
            }
            first_per_kind.entry(kind).or_insert(mi);
            *count_per_kind.entry(kind).or_insert(0) += 1;
        }
        if first_per_kind.is_empty() {
            continue;
        }
        // Render the call path entry → … → this fn (capped).
        let mut path_names = Vec::new();
        let mut cur = Some(r);
        while let Some(c) = cur {
            if let Some(i) = model.fn_item(c) {
                path_names.push(i.qualified());
            }
            cur = pred.get(&c).copied().flatten();
            if path_names.len() >= 6 {
                path_names.push("…".to_string());
                break;
            }
        }
        path_names.reverse();
        let chain = path_names.join(" → ");
        let decl_justified = file
            .markers
            .iter()
            .find(|m| m.covers(item.line, RuleId::PanicReachability.name()));
        for (kind, mi) in first_per_kind {
            let n = count_per_kind.get(&kind).copied().unwrap_or(1);
            let mut d = diag(
                RuleId::PanicReachability,
                file,
                mi,
                format!(
                    "{} in `{}` ({} unjustified site{}) is reachable from a runtime round \
                     entry point via {chain}; make the site infallible or justify it with \
                     allow(panic-reachability) at the site or the fn declaration",
                    kind.name(),
                    item.qualified(),
                    n,
                    if n == 1 { "" } else { "s" },
                ),
            );
            if let Some(m) = decl_justified {
                d.allowed = true;
                d.reason.clone_from(&m.reason);
            }
            diags.push(d);
        }
    }
    let meta = BTreeMap::from([
        ("entry_points", entries.len() as u64),
        ("reachable_fns", pred.len() as u64),
        ("panic_sites", sites_total),
        ("justified_sites", sites_justified),
        ("assert_guarded_sites", sites_asserted),
    ]);
    (diags, meta)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: &str = "crates/demo/src/engine.rs";

    /// `rule`'s `(active, allowed)` findings on one library file.
    fn run(src: &str, rule: RuleId) -> (Vec<Diagnostic>, Vec<Diagnostic>) {
        crate::lint(&[(LIB.to_string(), src.as_bytes().to_vec())])
            .diagnostics
            .into_iter()
            .filter(|d| d.rule == rule)
            .partition(|d| !d.allowed)
    }

    #[test]
    fn codec_symmetry_catches_width_drift() {
        let src = "impl Snap {\n    pub fn checkpoint(&self) -> Vec<u8> {\n        let mut w = Writer::new();\n        w.put_f64(self.window);\n        w.put_u64(self.rounds);\n        w.put_u32(self.misses);\n        w.finish()\n    }\n    pub fn restore(bytes: &[u8]) -> Result<Self, Err> {\n        let mut r = Reader::new(bytes)?;\n        let window = r.get_f64()?;\n        let rounds = r.get_u32()?;\n        let misses = r.get_u32()?;\n        Ok(Snap { window, rounds, misses })\n    }\n}";
        let (active, _) = run(src, RuleId::CodecSymmetry);
        assert_eq!(active.len(), 1, "{active:?}");
        assert_eq!(active[0].line, 12); // the u32 read of a u64 field
        assert!(active[0].message.contains("field 2"));
    }

    #[test]
    fn codec_symmetry_catches_field_order_swap() {
        let src = "fn encode(s: &S) -> Vec<u8> {\n    let mut w = Writer::new();\n    w.put_u64(s.a);\n    w.put_u8(s.b);\n    w.finish()\n}\nfn decode(b: &[u8]) -> Result<S, E> {\n    let mut r = Reader::new(b)?;\n    let b2 = r.get_u8()?;\n    let a = r.get_u64()?;\n    Ok(S { a, b: b2 })\n}";
        let (active, _) = run(src, RuleId::CodecSymmetry);
        assert_eq!(active.len(), 1, "{active:?}");
        assert_eq!(active[0].line, 9);
    }

    #[test]
    fn codec_symmetry_counts_fields_when_straight_line() {
        let src = "fn encode(s: &S) -> Vec<u8> {\n    let mut w = Writer::new();\n    w.put_u32(s.a);\n    w.put_u32(s.b);\n    w.put_u32(s.c);\n    w.finish()\n}\nfn decode(b: &[u8]) -> Result<S, E> {\n    let mut r = Reader::new(b)?;\n    let a = r.get_u32()?;\n    let b2 = r.get_u32()?;\n    Ok(S { a, b: b2 })\n}";
        let (active, _) = run(src, RuleId::CodecSymmetry);
        assert_eq!(active.len(), 1, "{active:?}");
        assert!(active[0].message.contains("field-count"));
    }

    #[test]
    fn codec_symmetry_accepts_matching_pair_with_guards() {
        let src = "fn encode(s: &S) -> Vec<u8> {\n    let mut w = Writer::new();\n    w.put_u64(s.a);\n    w.put_f64(s.x);\n    w.finish()\n}\nfn decode(b: &[u8]) -> Result<S, E> {\n    if b.len() < 4 {\n        return Err(E::Short);\n    }\n    let mut r = Reader::new(b)?;\n    let a = r.get_u64()?;\n    let x = r.get_f64()?;\n    Ok(S { a, x })\n}";
        let (active, _) = run(src, RuleId::CodecSymmetry);
        assert_eq!(active, vec![], "guard blocks without ops must be skipped");
    }

    #[test]
    fn codec_symmetry_le_bytes_style_with_const_width() {
        let src = "const VERSION: u16 = 2;\nfn encode(s: &S) -> Vec<u8> {\n    let mut out = Vec::new();\n    out.extend_from_slice(&VERSION.to_le_bytes());\n    out.extend_from_slice(&(s.n as u32).to_le_bytes());\n    out\n}\nfn decode(b: &[u8]) -> Result<S, E> {\n    let v = u16::from_le_bytes([b[0], b[1]]);\n    let n = u64::from_le_bytes([b[2], b[3], b[4], b[5], b[6], b[7], b[8], b[9]]);\n    Ok(S { v, n })\n}";
        let (active, _) = run(src, RuleId::CodecSymmetry);
        assert_eq!(active.len(), 1, "{active:?}");
        assert!(active[0].message.contains("u64"), "{}", active[0].message);
    }

    #[test]
    fn lock_order_conflict_is_flagged_at_both_sites() {
        let src = "struct S { a: Mutex<u8>, b: Mutex<u8> }\nimpl S {\n    fn forward(&self) {\n        let ga = self.a.lock();\n        let gb = self.b.lock();\n    }\n    fn backward(&self) {\n        let gb = self.b.lock();\n        let ga = self.a.lock();\n    }\n}";
        let (active, _) = run(src, RuleId::LockOrder);
        assert_eq!(active.len(), 2, "{active:?}");
        let lines: Vec<u32> = active.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![5, 9]);
    }

    #[test]
    fn lock_order_double_acquire_is_flagged() {
        let src = "struct S { a: Mutex<u8> }\nimpl S {\n    fn f(&self) {\n        let g1 = self.a.lock();\n        let g2 = self.a.lock();\n    }\n}";
        let (active, _) = run(src, RuleId::LockOrder);
        assert_eq!(active.len(), 1, "{active:?}");
        assert!(active[0].message.contains("self-deadlock"));
    }

    #[test]
    fn lock_order_scoped_guards_are_clean() {
        let src = "struct S { a: Mutex<u8>, b: Mutex<u8> }\nimpl S {\n    fn f(&self) {\n        {\n            let ga = self.a.lock();\n        }\n        let gb = self.b.lock();\n        drop(gb);\n        let ga = self.a.lock();\n    }\n}";
        let (active, _) = run(src, RuleId::LockOrder);
        assert_eq!(active, vec![]);
    }

    #[test]
    fn send_under_guard_is_flagged() {
        let src = "struct S { state: Mutex<u8> }\nimpl S {\n    fn f(&self) {\n        let (tx, rx) = std::sync::mpsc::sync_channel(1);\n        let g = self.state.lock();\n        tx.send(1);\n    }\n}";
        let (active, _) = run(src, RuleId::LockOrder);
        assert_eq!(active.len(), 1, "{active:?}");
        assert!(active[0].message.contains("wave hazard"));
    }

    #[test]
    fn float_accumulation_inline_fold() {
        let src = "fn total(m: HashMap<u64, f64>) -> f64 {\n    m.values().sum::<f64>()\n}";
        let (active, _) = run(src, RuleId::FloatAccumulation);
        assert_eq!(active.len(), 1, "{active:?}");
        assert_eq!(active[0].line, 2);
    }

    #[test]
    fn float_accumulation_loop_accumulator() {
        let src = "fn total(m: HashMap<u64, f64>) -> f64 {\n    let mut acc = 0.0;\n    for (_, v) in &m {\n        acc += v;\n    }\n    acc\n}";
        let (active, _) = run(src, RuleId::FloatAccumulation);
        assert_eq!(active.len(), 1, "{active:?}");
        assert_eq!(active[0].line, 4);
    }

    #[test]
    fn integer_fold_over_hash_is_not_float_accumulation() {
        let src = "fn total(m: HashMap<u64, u64>) -> u64 {\n    m.values().sum::<u64>()\n}";
        let (active, _) = run(src, RuleId::FloatAccumulation);
        assert_eq!(active, vec![]);
    }

    #[test]
    fn cross_file_hash_field_is_seen() {
        let a = (
            "crates/a/src/state.rs".to_string(),
            b"pub struct State { pub weights: HashMap<u64, f64> }".to_vec(),
        );
        let b = (
            "crates/a/src/calc.rs".to_string(),
            b"impl State {\n    pub fn total(&self) -> f64 {\n        self.weights.values().sum::<f64>()\n    }\n}"
                .to_vec(),
        );
        let report = crate::lint(&[a, b]);
        let fa: Vec<&Diagnostic> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == RuleId::FloatAccumulation)
            .collect();
        assert_eq!(fa.len(), 1, "{fa:?}");
        assert_eq!(fa[0].path, "crates/a/src/calc.rs");
        // The per-file iteration rule cannot see the other file's field.
        assert!(report
            .diagnostics
            .iter()
            .all(|d| d.rule != RuleId::NondeterministicIteration));
    }

    #[test]
    fn panic_reachability_walks_the_call_graph() {
        let src = "impl StreamingRuntime {\n    pub fn advance_to(&mut self, t: f64) {\n        step(t);\n    }\n}\nfn step(t: f64) -> u8 {\n    let buf = [0u8; 4];\n    let i = t as usize;\n    buf[i]\n}\nfn unreached(buf: &[u8], i: usize) -> u8 {\n    buf[i]\n}";
        let (active, _) = run(src, RuleId::PanicReachability);
        assert_eq!(active.len(), 1, "{active:?}");
        assert_eq!(active[0].line, 9);
        assert!(
            active[0].message.contains("advance_to"),
            "{}",
            active[0].message
        );
    }

    #[test]
    fn panic_reachability_decl_marker_allows_whole_fn() {
        let src = "impl StreamingRuntime {\n    pub fn advance_to(&mut self) {\n        kernel(&[1.0], 0);\n    }\n}\n// vp-lint: allow(panic-reachability) — bounds pinned by caller invariant\nfn kernel(xs: &[f64], i: usize) -> f64 {\n    xs[i] + xs[i + 1]\n}";
        let (active, allowed) = run(src, RuleId::PanicReachability);
        assert_eq!(active, vec![], "{active:?}");
        assert_eq!(allowed.len(), 1);
        assert!(allowed[0].reason.is_some());
    }

    #[test]
    fn panic_reachability_honors_forbidden_panic_site_markers() {
        let src = "impl StreamingRuntime {\n    pub fn advance_to(&mut self) {\n        check(0);\n    }\n}\nfn check(n: u32) {\n    // vp-lint: allow(forbidden-panic) — construction invariant\n    assert!(n < 10);\n}";
        let (active, _) = run(src, RuleId::PanicReachability);
        assert_eq!(active, vec![], "{active:?}");
    }

    #[test]
    fn literal_index_and_full_range_are_exempt() {
        let src = "impl StreamingRuntime {\n    pub fn advance_to(&mut self) {\n        peek(&[0u8; 4]);\n    }\n}\nfn peek(buf: &[u8]) -> u8 {\n    let whole = &buf[..];\n    whole[0]\n}";
        let (active, _) = run(src, RuleId::PanicReachability);
        assert_eq!(active, vec![], "{active:?}");
    }

    #[test]
    fn stale_marker_detection() {
        let src = "fn quiet() {\n    // vp-lint: allow(wall-clock) — nothing here reads a clock\n    let x = 1;\n}";
        let stale = crate::lint(&[(LIB.to_string(), src.as_bytes().to_vec())]).stale_markers;
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].line, 2);
        assert_eq!(stale[0].rules, vec!["wall-clock"]);
    }

    #[test]
    fn used_marker_is_not_stale() {
        let src = "fn timed() {\n    // vp-lint: allow(wall-clock) — measured for the report only\n    let t = std::time::Instant::now();\n}";
        let report = crate::lint(&[(LIB.to_string(), src.as_bytes().to_vec())]);
        assert!(report.diagnostics.iter().any(|d| d.allowed));
        assert_eq!(report.stale_markers, vec![]);
    }
}
