//! The linter runs over every byte of the workspace on every CI push, so
//! it must be total: no panic, for any input. Every generator drives the
//! one entry point, [`vp_lint::lint`], which lexes and parses each file
//! once and runs every rule over the parse: raw words (all byte values,
//! invalid UTF-8 included), printable text, a syntax-heavy alphabet
//! biased toward quote/comment openers that stress the string, raw-string
//! and nested-comment lexer paths, Rust-shaped token salad that steers
//! toward the constructs the model parses, and many garbage files at once.

use vp_lint::lexer::lex;
use vp_lint::{lint, FileModel};
use vp_stats::rng::SplitMix64;

/// Every loop below runs this many seeded cases.
const CASES: u64 = 256;

const PATH: &str = "crates/demo/src/engine.rs";

/// `0..max` raw words.
fn raw_words(rng: &mut SplitMix64, max: usize) -> Vec<u64> {
    let len = rng.range_usize(0..max);
    (0..len).map(|_| rng.next_u64()).collect()
}

fn words_to_bytes(words: &[u64]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// Lints one file at `path`, and reads the parse's token accessors past
/// their end.
fn drive(path: &str, src: &[u8]) {
    let model = FileModel::parse(path, src);
    for mi in 0..model.meaningful.len() + 2 {
        let _ = (model.text(mi), model.pos(mi), model.is_test(mi));
    }
    let report = lint(&[(path.to_string(), src.to_vec())]);
    assert_eq!(report.files_scanned, 1);
}

/// Bytes the lexer treats specially, over-represented on purpose.
const SPICY: &[u8] = b"\"'/*rb#!\\{}();n \n\r0azA_=<>&.:~-";

/// Fragments that steer random composition toward the constructs the
/// model actually parses: items, impl blocks, codec calls, locks,
/// folds, markers, and deliberately unbalanced delimiters.
const FRAGMENTS: &[&str] = &[
    "fn ",
    "pub ",
    "pub(crate) ",
    "impl ",
    "struct ",
    "use ",
    "mod tests ",
    "#[cfg(test)]\n",
    "self",
    "Self",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    "<",
    ">",
    "::",
    ".",
    ",",
    ";",
    "->",
    "=>",
    "put_u32(",
    "get_u64()?",
    "to_le_bytes()",
    "from_le_bytes(",
    ".lock()",
    ".read()",
    "sync_channel(1)",
    ".send(x)",
    "HashMap<u64, f64>",
    ".values()",
    ".sum::<f64>()",
    "for v in ",
    "+= v",
    "let mut ",
    "unwrap()",
    "expect(\"x\")",
    "panic!(\"y\")",
    "assert!(n < 4)",
    "// vp-lint: allow(codec-symmetry) — r\n",
    "//~ lock-order\n",
    "r#\"",
    "\"",
    "r\"",
    "'a",
    "'x'",
    "b\"",
    "0x1f",
    "1.5e3",
    "\\u{1F600}",
    "/*",
    "*/",
    "\n",
    "StreamingRuntime",
    "advance_to",
    "Mutex<u8>",
    "where T: Send",
    "as usize",
];

#[test]
fn lexing_and_linting_arbitrary_bytes_never_panics() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(case);
        let words = raw_words(&mut rng, 192);
        let cut = rng.range_usize(0..8);
        let mut bytes = words_to_bytes(&words);
        let len = bytes.len().saturating_sub(cut);
        bytes.truncate(len);
        for t in lex(&bytes) {
            assert!(t.start <= t.end && t.end <= bytes.len(), "case {case}");
        }
        drive("crates/demo/src/lib.rs", &bytes);
    }
}

#[test]
fn lexing_syntax_heavy_soup_never_panics() {
    for case in 0..CASES {
        let words = raw_words(&mut SplitMix64::seed_from_u64(case), 192);
        let bytes: Vec<u8> = words_to_bytes(&words)
            .into_iter()
            .map(|b| SPICY[b as usize % SPICY.len()])
            .collect();
        let tokens = lex(&bytes);
        // Spans are in bounds, non-overlapping and in order.
        let mut prev_end = 0usize;
        for t in &tokens {
            assert!(
                t.start >= prev_end && t.start <= t.end && t.end <= bytes.len(),
                "case {case}"
            );
            prev_end = t.end;
        }
        drive(PATH, &bytes);
    }
}

#[test]
fn linting_printable_text_never_panics() {
    for case in 0..CASES {
        let words = raw_words(&mut SplitMix64::seed_from_u64(case), 128);
        // Fold every byte into the printable ASCII range plus newline/tab,
        // so the text-heavy paths (markers, comments, strings) get dense
        // coverage instead of bailing on control bytes.
        let src: Vec<u8> = words_to_bytes(&words)
            .into_iter()
            .map(|b| match b % 97 {
                95 => b'\n',
                96 => b'\t',
                p => b' ' + p,
            })
            .collect();
        drive(PATH, &src);
    }
}

#[test]
fn linting_rust_shaped_soup_never_panics() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(case);
        let picks = rng.range_usize(0..120);
        let src: Vec<u8> = (0..picks)
            .flat_map(|_| FRAGMENTS[rng.range_usize(0..FRAGMENTS.len())].bytes())
            .collect();
        drive(PATH, &src);
    }
}

#[test]
fn linting_many_garbage_files_never_panics() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(case);
        let n_files = rng.range_usize(0..8);
        let inputs: Vec<(String, Vec<u8>)> = (0..n_files)
            .map(|i| {
                let words = raw_words(&mut rng, 32);
                (format!("crates/demo/src/m{i}.rs"), words_to_bytes(&words))
            })
            .collect();
        assert_eq!(lint(&inputs).files_scanned, inputs.len(), "case {case}");
    }
}
