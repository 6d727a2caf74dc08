//! The tidy workspace lint: a hand-rolled line/token scanner over
//! `crates/**/src/**/*.rs` enforcing the DeepLens hygiene rules.
//!
//! Rules (each one unit-tested against fixture snippets below):
//!
//! 1. **raw-lock** — no raw `parking_lot::{Mutex, RwLock}` or
//!    `std::sync::{Mutex, Condvar}` outside the [`crate::sync`] module and
//!    the explicit [`RAW_LOCK_WHITELIST`]; all engine locking goes through
//!    the ranked wrappers so the lockdep checker sees it.
//! 2. **serve-panic** — no `.unwrap()` / `.expect(` / `panic!` /
//!    `unreachable!` in non-test `crates/serve` request-handling code, nor in
//!    the core files every served query plans and runs through
//!    ([`SERVED_CORE_FILES`]) and the core files every served write
//!    publishes through ([`SERVED_WRITE_FILES`]); a malformed request must
//!    produce an `Error` wire reply, never a dead connection thread. The
//!    codec's DLV1 decode path ([`DECODE_PATH_FILES`]) is held to the same
//!    rule, so a corrupt stream is an error, not a panic mid-ingest.
//! 3. **no-debug-macro** — no `todo!` / `unimplemented!` / `dbg!` anywhere
//!    (test code included).
//! 4. **allow-justification** — every `#[allow(...)]` in non-test code
//!    carries a justification: a trailing `//` comment on the same line or a
//!    `//` comment on the line directly above.
//! 5. **module-doc** — every `src/**/*.rs` file of a crate opens with a
//!    `//!` module doc as its first non-blank line, so `cargo doc` renders a
//!    description for every module and the docs burndown cannot silently
//!    regress.
//! 6. **unreached-pub** — every `pub fn|struct|enum|trait|const|type|static|mod`
//!    in non-test code of the seven engine crates (`analyze`, `codec`, `core`,
//!    `exec`, `index`, `serve`, `storage`; `src/bin/` excluded) names
//!    something another line of the tree uses: its name must appear on at
//!    least one other non-test, non-comment line under `crates/`, `src/`,
//!    `examples/`, `benchmark/src/` or `tests/` that is not a `pub use`
//!    re-export. Code only the benchmark or a figure binary needs belongs in
//!    that caller (or `crates/bench`), not in a crate the server links. The
//!    match is by name only, so an unrelated item sharing the name can hide a
//!    dead one, but a live item is never flagged.
//! 7. **no-global-counter** — no `static …: Atomic*` in non-test code of
//!    the engine crates: a process-global counter is shared by every
//!    catalog and every test in the process, so counts belong to the
//!    catalog that did the work (its counter registry,
//!    `deeplens_core::counters`). The two left are named in
//!    [`GLOBAL_COUNTER_ALLOWLIST`]; only the benchmark still reads them.
//! 8. **no-unsafe** — no `unsafe` block, function, impl or trait in non-test
//!    code of the engine crates. Every kernel's speed comes from code the
//!    compiler can vectorize as written (safe selects and bit casts, not
//!    unchecked conversions or indexing), so a memory-safety bug cannot
//!    hide in the engine. The counting allocators of the integration tests
//!    under `tests/` are outside the crates this rule scans.
//! 9. **no-test-lock** — no `static …: Mutex<()>` in a file under a
//!    `tests/` directory or in the `#[cfg(test)]` section of an
//!    engine-crate file. A lock that guards nothing serializes tests, and
//!    tests serialize only to read a process-global count; each test reads
//!    its own catalog's counters instead. Test files are scanned for this
//!    rule alone.
//!
//! The scanner is deliberately line-based, not a Rust parser: it strips
//! `//` comments (with a string-literal heuristic so `"https://..."`
//! survives), and treats everything after a line reading `#[cfg(test)]` as
//! test code (the workspace convention keeps test modules trailing).
//! Violations carry `file:line` so they print as clickable diagnostics.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Files (workspace-relative, `/`-separated) exempt from the **raw-lock**
/// rule: the ranked wrappers themselves.
pub const RAW_LOCK_WHITELIST: &[&str] = &["crates/analyze/src/sync.rs"];

/// `(file, static)` pairs exempt from the **no-global-counter** rule: the
/// two process-global counters left. The engine and its tests count on each
/// catalog's registry; only the benchmark's `*_per_op` layer metrics still
/// read these two, and they go when the benchmark reads the registry.
pub const GLOBAL_COUNTER_ALLOWLIST: &[(&str, &str)] = &[
    ("crates/codec/src/video.rs", "FRAMES_DECODED"),
    ("crates/core/src/scan.rs", "ROWS_MATERIALIZED"),
];

/// Core files (workspace-relative) on every served query's plan and run
/// path — including the result cache every served batch member is looked
/// up in and offered to — held to the **serve-panic** rule like
/// `crates/serve` itself.
pub const SERVED_CORE_FILES: &[&str] = &[
    "crates/core/src/plan.rs",
    "crates/core/src/batch.rs",
    "crates/core/src/ops.rs",
    "crates/core/src/cache.rs",
];

/// Core files (workspace-relative) every served `Materialize` runs through
/// — publish and carry — held to the **serve-panic** rule like
/// [`SERVED_CORE_FILES`].
pub const SERVED_WRITE_FILES: &[&str] =
    &["crates/core/src/shared.rs", "crates/core/src/catalog.rs"];

/// Codec files (workspace-relative) every ingest decodes its DLV1 bytes
/// through, held to the **serve-panic** rule: a corrupt stream must come
/// back as a `CodecError`, never a panic in the ingesting thread.
pub const DECODE_PATH_FILES: &[&str] = &[
    "crates/codec/src/video.rs",
    "crates/codec/src/bitstream.rs",
    "crates/codec/src/entropy.rs",
    "crates/codec/src/intra.rs",
    "crates/codec/src/quant.rs",
    "crates/codec/src/dct.rs",
    "crates/codec/src/motion.rs",
    "crates/codec/src/image.rs",
];

/// One rule violation at a specific source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Short rule identifier (e.g. `raw-lock`).
    pub rule: &'static str,
    /// Human-readable description of the problem.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

// Banned-pattern strings are assembled with `concat!` so this file does not
// trip its own rules when tidy scans the workspace it lives in.
const TODO_MACRO: &str = concat!("to", "do!");
const UNIMPLEMENTED_MACRO: &str = concat!("unimpl", "emented!");
const DBG_MACRO: &str = concat!("db", "g!");
const UNWRAP_CALL: &str = concat!(".unw", "rap()");
const EXPECT_CALL: &str = concat!(".exp", "ect(");
const PANIC_MACRO: &str = concat!("pan", "ic!");
const UNREACHABLE_MACRO: &str = concat!("unreach", "able!");
const ALLOW_OUTER: &str = concat!("#[", "allow(");
const ALLOW_INNER: &str = concat!("#![", "allow(");
const CFG_TEST: &str = concat!("#[", "cfg(te", "st)]");
const PARKING_LOT_CRATE: &str = concat!("parking", "_lot");
const STD_SYNC_PATH: &str = concat!("std::", "sync");
const MUTEX_TYPE: &str = concat!("Mu", "tex");
const RWLOCK_TYPE: &str = concat!("Rw", "Lock");
const CONDVAR_TYPE: &str = concat!("Cond", "var");
const UNSAFE_KEYWORD: &str = concat!("un", "safe");

/// One preprocessed source line.
struct Line<'a> {
    /// 1-based line number.
    number: usize,
    /// The raw text, untouched.
    raw: &'a str,
    /// The text with `//` comments stripped.
    code: String,
    /// Whether this line sits at or below the file's first `#[cfg(test)]`.
    in_test: bool,
}

/// Strip a trailing `//` comment, leaving string literals intact.
///
/// Walks the line tracking double-quoted string state (with `\` escapes) and
/// skipping `'"'` char literals, so `let url = "a://b"; // note` keeps the
/// URL and drops the note. Raw strings spanning lines are out of scope for a
/// line lint; none of the enforced patterns can hide in one without also
/// appearing on a single line.
fn strip_comment(line: &str) -> String {
    let bytes = line.as_bytes();
    let mut in_string = false;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if in_string {
            match b {
                b'\\' => i += 1, // skip the escaped byte
                b'"' => in_string = false,
                _ => {}
            }
        } else {
            match b {
                // A char literal that would confuse the quote tracker.
                b'\'' if i + 2 < bytes.len() && bytes[i + 1] == b'"' && bytes[i + 2] == b'\'' => {
                    i += 2;
                }
                b'"' => in_string = true,
                b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                    return line[..i].to_string();
                }
                _ => {}
            }
        }
        i += 1;
    }
    line.to_string()
}

/// True when `needle` occurs in `haystack` not preceded by an identifier
/// character — so `Mutex` matches `std::sync::Mutex` but not `OrderedMutex`.
fn has_word(haystack: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(needle) {
        let abs = start + pos;
        let preceded = haystack[..abs]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if !preceded {
            return true;
        }
        start = abs + needle.len();
    }
    false
}

/// True when `word` occurs in `haystack` as a whole word: neither preceded
/// nor followed by an identifier character, so a keyword does not match
/// inside a longer identifier.
fn has_keyword(haystack: &str, word: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    haystack.match_indices(word).any(|(at, _)| {
        let before = haystack[..at].chars().next_back().is_some_and(ident);
        let after = haystack[at + word.len()..]
            .chars()
            .next()
            .is_some_and(ident);
        !before && !after
    })
}

/// Preprocess a file into lines: strip comments, mark the trailing test
/// section.
fn preprocess(text: &str) -> Vec<Line<'_>> {
    let mut in_test = false;
    text.lines()
        .enumerate()
        .map(|(idx, raw)| {
            if raw.trim() == CFG_TEST {
                in_test = true;
            }
            Line {
                number: idx + 1,
                raw,
                code: strip_comment(raw),
                in_test,
            }
        })
        .collect()
}

/// Run the per-file rules (all but rule 6) against one source file.
///
/// `rel_path` is the workspace-relative, `/`-separated path; it decides rule
/// applicability (whitelists, the serve-only panic rule).
pub fn check_source(rel_path: &str, text: &str) -> Vec<Violation> {
    let lines = preprocess(text);
    let mut out = Vec::new();
    check_raw_locks(rel_path, &lines, &mut out);
    check_serve_panics(rel_path, &lines, &mut out);
    check_debug_macros(rel_path, &lines, &mut out);
    check_allow_justifications(rel_path, &lines, &mut out);
    check_module_docs(rel_path, text, &mut out);
    check_global_counters(rel_path, &lines, &mut out);
    check_unsafe(rel_path, &lines, &mut out);
    check_test_locks(rel_path, &lines, &mut out);
    out
}

/// Run the one rule that reads test files (rule 9) against a file under a
/// `tests/` directory.
fn check_test_source(rel_path: &str, text: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    check_test_locks(rel_path, &preprocess(text), &mut out);
    out
}

/// Rule 1: raw lock types outside the sync module and whitelist.
fn check_raw_locks(rel_path: &str, lines: &[Line<'_>], out: &mut Vec<Violation>) {
    if RAW_LOCK_WHITELIST.contains(&rel_path) {
        return;
    }
    for line in lines {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        let parking = code.contains(PARKING_LOT_CRATE)
            && (has_word(code, MUTEX_TYPE) || has_word(code, RWLOCK_TYPE));
        let std_sync = code.contains(STD_SYNC_PATH)
            && (has_word(code, MUTEX_TYPE) || has_word(code, CONDVAR_TYPE));
        if parking || std_sync {
            out.push(Violation {
                file: rel_path.to_string(),
                line: line.number,
                rule: "raw-lock",
                msg: format!(
                    "raw lock primitive outside the sync module; use \
                     deeplens_analyze::sync::{{OrderedMutex, OrderedRwLock, \
                     OrderedCondvar}} (or extend RAW_LOCK_WHITELIST): `{}`",
                    line.raw.trim()
                ),
            });
        }
    }
}

/// Rule 2: panicking calls in non-test serve request paths.
fn check_serve_panics(rel_path: &str, lines: &[Line<'_>], out: &mut Vec<Violation>) {
    let serve = rel_path.starts_with("crates/serve/src/") && !rel_path.contains("/bin/");
    let held = [SERVED_CORE_FILES, SERVED_WRITE_FILES, DECODE_PATH_FILES]
        .iter()
        .any(|files| files.contains(&rel_path));
    if !serve && !held {
        return;
    }
    for line in lines {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        for (pat, what) in [
            (UNWRAP_CALL, "unwrap"),
            (EXPECT_CALL, "expect"),
            (PANIC_MACRO, "panic"),
            (UNREACHABLE_MACRO, "unreachable"),
        ] {
            if code.contains(pat) {
                out.push(Violation {
                    file: rel_path.to_string(),
                    line: line.number,
                    rule: "serve-panic",
                    msg: format!(
                        "`{what}` on a served request path; reply with \
                         Response::Error or propagate a Result instead: `{}`",
                        line.raw.trim()
                    ),
                });
            }
        }
    }
}

/// Rule 3: leftover debug macros, anywhere (tests included).
fn check_debug_macros(rel_path: &str, lines: &[Line<'_>], out: &mut Vec<Violation>) {
    for line in lines {
        let code = &line.code;
        for (pat, what) in [
            (TODO_MACRO, TODO_MACRO),
            (UNIMPLEMENTED_MACRO, UNIMPLEMENTED_MACRO),
            (DBG_MACRO, DBG_MACRO),
        ] {
            if has_word(code, pat) {
                out.push(Violation {
                    file: rel_path.to_string(),
                    line: line.number,
                    rule: "no-debug-macro",
                    msg: format!("`{what}` must not be committed: `{}`", line.raw.trim()),
                });
            }
        }
    }
}

/// Rule 4: `#[allow(...)]` without a justification comment.
fn check_allow_justifications(rel_path: &str, lines: &[Line<'_>], out: &mut Vec<Violation>) {
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        if !(code.contains(ALLOW_OUTER) || code.contains(ALLOW_INNER)) {
            continue;
        }
        // Justified if the raw line carries a trailing comment (strip_comment
        // shortened it), or the previous line is a comment.
        let trailing = line.raw.len() > line.code.len();
        let above = idx
            .checked_sub(1)
            .map(|i| lines[i].raw.trim_start().starts_with("//"))
            .unwrap_or(false);
        if !(trailing || above) {
            out.push(Violation {
                file: rel_path.to_string(),
                line: line.number,
                rule: "allow-justification",
                msg: format!(
                    "`{ALLOW_OUTER}...)]` needs a justification comment on the \
                     same line or the line above: `{}`",
                    line.raw.trim()
                ),
            });
        }
    }
}

/// Rule 5: every module file opens with `//!` module docs.
///
/// Works on the raw text (not the comment-stripped lines — the doc comment
/// IS a comment): the first non-blank line must start with `//!`.
fn check_module_docs(rel_path: &str, text: &str, out: &mut Vec<Violation>) {
    let first = text
        .lines()
        .enumerate()
        .find(|(_, raw)| !raw.trim().is_empty());
    let Some((idx, raw)) = first else {
        out.push(Violation {
            file: rel_path.to_string(),
            line: 1,
            rule: "module-doc",
            msg: "empty module file; add `//!` docs or delete it".to_string(),
        });
        return;
    };
    if !raw.trim_start().starts_with("//!") {
        out.push(Violation {
            file: rel_path.to_string(),
            line: idx + 1,
            rule: "module-doc",
            msg: format!(
                "module must open with `//!` docs (first non-blank line is \
                 `{}`); describe what the module is for",
                raw.trim()
            ),
        });
    }
}

/// The name and type of the `static` item `code` declares, if it declares
/// one (`static mut` names what follows `mut`).
fn static_decl(code: &str) -> Option<(&str, &str)> {
    let mut rest = code.trim_start();
    loop {
        let (word, tail) = rest.split_once(char::is_whitespace)?;
        rest = tail.trim_start();
        if word == "static" {
            break;
        }
    }
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let (name, ty) = rest.split_once(':')?;
    let name = name.trim();
    let ident = !name.is_empty() && name.chars().all(|c| c.is_alphanumeric() || c == '_');
    ident.then(|| (name, ty.split('=').next().unwrap_or(ty)))
}

/// Rule 7: process-global atomic counters in non-test engine-crate code.
fn check_global_counters(rel_path: &str, lines: &[Line<'_>], out: &mut Vec<Violation>) {
    if !is_engine_source(rel_path) {
        return;
    }
    for line in lines {
        if line.in_test {
            continue;
        }
        let Some((name, ty)) = static_decl(&line.code) else {
            continue;
        };
        if !has_word(ty, "Atomic") || GLOBAL_COUNTER_ALLOWLIST.contains(&(rel_path, name)) {
            continue;
        }
        out.push(Violation {
            file: rel_path.to_string(),
            line: line.number,
            rule: "no-global-counter",
            msg: format!(
                "process-global atomic `{name}`; give the count to the catalog \
                 (or session) that does the work: `{}`",
                line.raw.trim()
            ),
        });
    }
}

/// Rule 8: `unsafe` in non-test engine-crate code.
fn check_unsafe(rel_path: &str, lines: &[Line<'_>], out: &mut Vec<Violation>) {
    if !is_engine_source(rel_path) {
        return;
    }
    for line in lines {
        if line.in_test || !has_keyword(&line.code, UNSAFE_KEYWORD) {
            continue;
        }
        out.push(Violation {
            file: rel_path.to_string(),
            line: line.number,
            rule: concat!("no-", "un", "safe"),
            msg: format!(
                "`{UNSAFE_KEYWORD}` in engine code; write the kernel so the compiler \
                 vectorizes it safely (selects, bit casts, chunked slices): `{}`",
                line.raw.trim()
            ),
        });
    }
}

/// Rule 9: a `static …: Mutex<()>` anywhere in a test file, or in the
/// test section of an engine-crate file.
fn check_test_locks(rel_path: &str, lines: &[Line<'_>], out: &mut Vec<Violation>) {
    let whole_file = is_test_file(rel_path);
    if !whole_file && !is_engine_source(rel_path) {
        return;
    }
    let unit_mutex = format!("{MUTEX_TYPE}<()>");
    for line in lines {
        if !(whole_file || line.in_test) {
            continue;
        }
        let Some((name, ty)) = static_decl(&line.code) else {
            continue;
        };
        let ty: String = ty.split_whitespace().collect();
        if !has_word(&ty, &unit_mutex) {
            continue;
        }
        out.push(Violation {
            file: rel_path.to_string(),
            line: line.number,
            rule: "no-test-lock",
            msg: format!(
                "test-serialization lock `{name}`; read the counts of the test's \
                 own catalog (`SharedCatalog::counters`) instead of a \
                 process-global one: `{}`",
                line.raw.trim()
            ),
        });
    }
}

/// Whether `rel_path` sits under a `tests/` directory (the workspace's
/// integration tests, or a crate's).
fn is_test_file(rel_path: &str) -> bool {
    rel_path.starts_with("tests/") || rel_path.contains("/tests/")
}

/// Engine crates (under `crates/`) whose `pub` items rule 6 covers.
const ENGINE_CRATES: &[&str] = &[
    "analyze", "codec", "core", "exec", "index", "serve", "storage",
];

/// Workspace-relative directories whose lines count as rule 6 callers.
const CALLER_ROOTS: &[&str] = &["crates", "src", "examples", "benchmark/src", "tests"];

/// Item keywords rule 6 covers.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "const", "type", "static", "mod",
];

/// Whether `rel_path` is non-binary source of an engine crate.
fn is_engine_source(rel_path: &str) -> bool {
    ENGINE_CRATES.iter().any(|krate| {
        rel_path
            .strip_prefix("crates/")
            .and_then(|p| p.strip_prefix(krate))
            .and_then(|p| p.strip_prefix("/src/"))
            .is_some_and(|p| !p.starts_with("bin/"))
    })
}

/// The name a plain-`pub` item declaration introduces, if `code` is one of
/// the kinds rule 6 covers (`pub const fn` / `pub unsafe fn` count as `fn`;
/// `pub static mut X` names `X`).
fn pub_item_name(code: &str) -> Option<&str> {
    let words: Vec<&str> = code
        .trim_start()
        .strip_prefix("pub ")?
        .split_whitespace()
        .collect();
    let qualifier =
        |w: &str| w == UNSAFE_KEYWORD || matches!(w, "const" | "async" | "extern" | "\"C\"");
    let mut i = 0;
    while i + 1 < words.len()
        && qualifier(words[i])
        && (qualifier(words[i + 1]) || words[i + 1] == "fn")
    {
        i += 1;
    }
    if !ITEM_KEYWORDS.contains(words.get(i)?) {
        return None;
    }
    let mut name = *words.get(i + 1)?;
    if words[i] == "static" && name == "mut" {
        name = words.get(i + 2)?;
    }
    let end = name
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(name.len());
    let name = &name[..end];
    (!name.is_empty()).then_some(name)
}

/// Whether `code` opens a `pub use` (or `pub(..) use`) re-export.
fn is_pub_use(code: &str) -> bool {
    let Some(rest) = code.trim_start().strip_prefix("pub") else {
        return false;
    };
    let rest = match rest.strip_prefix('(') {
        Some(scoped) => scoped.split_once(')').map_or("", |(_, after)| after),
        None => rest,
    };
    rest.trim_start().starts_with("use ")
}

/// Rule 6: `pub` items of the engine crates whose name no other line uses.
///
/// `files` is every `(workspace-relative path, text)` pair under the caller
/// roots; declarations are read from the engine-crate files among them.
/// A line counts as a use when it is non-test, not comment-only and not part
/// of a `pub use` statement.
fn check_unreached_pub(files: &[(&str, &str)]) -> Vec<Violation> {
    // Number of counting lines each identifier appears on.
    let mut lines_with: HashMap<&str, usize> = HashMap::new();
    let mut decls = Vec::new();
    for &(rel_path, text) in files {
        let engine = is_engine_source(rel_path);
        let mut in_pub_use = false;
        for line in preprocess(text) {
            if line.in_test {
                break;
            }
            let code = line.code.trim();
            if code.is_empty() {
                continue;
            }
            if in_pub_use || is_pub_use(code) {
                in_pub_use = !code.contains(';');
                continue;
            }
            let mut words: Vec<&str> = line
                .raw
                .get(..line.code.len())
                .unwrap_or_default()
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .filter(|w| !w.is_empty())
                .collect();
            words.sort_unstable();
            words.dedup();
            for w in words {
                *lines_with.entry(w).or_default() += 1;
            }
            if engine {
                if let Some(name) = pub_item_name(code) {
                    decls.push((rel_path, line.number, name.to_string()));
                }
            }
        }
    }
    decls
        .into_iter()
        .filter(|(_, _, name)| lines_with.get(name.as_str()).copied().unwrap_or(0) <= 1)
        .map(|(file, line, name)| Violation {
            file: file.to_string(),
            line,
            rule: "unreached-pub",
            msg: format!(
                "`pub` item `{name}` is used by no other non-test line of the tree; \
                 delete it, gate it `#[cfg(test)]`, or move it to its only caller"
            ),
        })
        .collect()
}

/// Recursively collect `.rs` files under `dir`, appending to `acc`.
fn collect_rs(dir: &Path, acc: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, acc);
        } else if path.extension().is_some_and(|e| e == "rs") {
            acc.push(path);
        }
    }
}

/// Whether `rel_path` is crate library or binary source the per-file rules
/// (1–5) scan: `crates/<name>/src/**`.
fn is_crate_source(rel_path: &str) -> bool {
    let Some(rest) = rel_path.strip_prefix("crates/") else {
        return false;
    };
    rest.split('/').nth(1) == Some("src")
}

/// Run every rule over the workspace rooted at `root`. Returns all
/// violations, sorted by file then line.
pub fn check_workspace(root: &Path) -> Vec<Violation> {
    let crates_dir = root.join("crates");
    if fs::read_dir(&crates_dir).is_err() {
        return vec![Violation {
            file: "crates".to_string(),
            line: 1,
            rule: "workspace",
            msg: format!("cannot read {}", crates_dir.display()),
        }];
    }
    let mut paths = Vec::new();
    for dir in CALLER_ROOTS {
        collect_rs(&root.join(dir), &mut paths);
    }
    paths.sort();
    let mut out = Vec::new();
    let mut sources = Vec::new();
    for path in &paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        match fs::read_to_string(path) {
            Ok(text) => sources.push((rel, text)),
            Err(e) => out.push(Violation {
                file: rel,
                line: 1,
                rule: "workspace",
                msg: format!("cannot read file: {e}"),
            }),
        }
    }
    for (rel, text) in &sources {
        if is_crate_source(rel) {
            out.extend(check_source(rel, text));
        } else if is_test_file(rel) {
            out.extend(check_test_source(rel, text));
        }
    }
    // Rule 6 reads the whole tree at once: callers live outside `crates/`.
    let borrowed: Vec<(&str, &str)> = sources
        .iter()
        .map(|(rel, text)| (rel.as_str(), text.as_str()))
        .collect();
    out.extend(check_unreached_pub(&borrowed));
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Fixtures build banned tokens with `format!`/concat so scanning THIS
    // file (rule 3 applies to test code too) stays clean.

    /// Run `check_source` on a fixture, prefixing the module docs rule 6
    /// demands so each test exercises only the rule it targets.
    fn rules_hit(rel: &str, text: &str) -> Vec<&'static str> {
        let documented = format!("//! Fixture module.\n\n{text}");
        check_source(rel, &documented)
            .into_iter()
            .map(|v| v.rule)
            .collect()
    }

    #[test]
    fn raw_lock_flags_parking_lot_import() {
        let src = "use parking_lot::{Mutex, RwLock};\n";
        assert_eq!(rules_hit("crates/core/src/shared.rs", src), ["raw-lock"]);
    }

    #[test]
    fn raw_lock_flags_std_sync_mutex_and_condvar() {
        let src = "use std::sync::{Condvar, Mutex};\n";
        assert_eq!(
            rules_hit("crates/serve/src/admission.rs", src),
            ["raw-lock"]
        );
    }

    #[test]
    fn raw_lock_ignores_ordered_wrappers_and_arc() {
        let src = "use std::sync::Arc;\nuse deeplens_analyze::sync::OrderedMutex;\nstruct S { m: OrderedMutex<u32> }\n";
        assert!(rules_hit("crates/core/src/shared.rs", src).is_empty());
    }

    #[test]
    fn raw_lock_respects_whitelist_and_tests() {
        let src = "use std::sync::Mutex;\n";
        assert!(rules_hit("crates/analyze/src/sync.rs", src).is_empty());
        let test_src = format!("{CFG_TEST}\nuse std::sync::Mutex;\n");
        assert!(rules_hit("crates/core/src/shared.rs", &test_src).is_empty());
    }

    #[test]
    fn serve_panic_flags_unwrap_expect_panic() {
        let src = format!(
            "fn f() {{ x{UNWRAP_CALL}; y{EXPECT_CALL}\"boom\"); {PANIC_MACRO}(\"no\"); }}\n"
        );
        let hits = rules_hit("crates/serve/src/server.rs", &src);
        assert_eq!(hits, ["serve-panic", "serve-panic", "serve-panic"]);
    }

    #[test]
    fn serve_panic_only_applies_to_serve_non_test() {
        let src = format!("fn f() {{ x{UNWRAP_CALL}; }}\n");
        assert!(rules_hit("crates/core/src/session.rs", &src).is_empty());
        let test_src = format!("{CFG_TEST}\nfn f() {{ x{UNWRAP_CALL}; }}\n");
        assert!(rules_hit("crates/serve/src/server.rs", &test_src).is_empty());
    }

    #[test]
    fn serve_panic_covers_the_served_core_plan_and_run_path() {
        let src = format!("fn f() {{ x{EXPECT_CALL}\"every member\"); }}\n");
        for rel in SERVED_CORE_FILES {
            assert_eq!(rules_hit(rel, &src), ["serve-panic"], "{rel}");
        }
        assert_eq!(rules_hit("crates/core/src/batch.rs", &src), ["serve-panic"]);
        // Ingest is not a served request path.
        assert!(rules_hit("crates/core/src/etl.rs", &src).is_empty());
        let test_src = format!("{CFG_TEST}\n{src}");
        assert!(rules_hit("crates/core/src/batch.rs", &test_src).is_empty());
    }

    #[test]
    fn serve_panic_covers_the_served_write_path() {
        let src = format!("fn f() {{ x{EXPECT_CALL}\"free slot\"); }}\n");
        for rel in SERVED_WRITE_FILES {
            assert_eq!(rules_hit(rel, &src), ["serve-panic"], "{rel}");
        }
        // A core file on no list stays unchecked.
        assert!(rules_hit("crates/core/src/patch.rs", &src).is_empty());
        let test_src = format!("{CFG_TEST}\n{src}");
        assert!(rules_hit("crates/core/src/shared.rs", &test_src).is_empty());
    }

    #[test]
    fn serve_panic_covers_the_codec_decode_path() {
        let src = format!("fn f() {{ x{UNWRAP_CALL}; }}\n");
        for rel in DECODE_PATH_FILES {
            assert_eq!(rules_hit(rel, &src), ["serve-panic"], "{rel}");
        }
        // Quality metrics are not decode work.
        assert!(rules_hit("crates/codec/src/metrics.rs", &src).is_empty());
        let test_src = format!("{CFG_TEST}\n{src}");
        assert!(rules_hit("crates/codec/src/video.rs", &test_src).is_empty());
    }

    #[test]
    fn serve_panic_ignores_doc_comments() {
        let src = format!("/// Example: `conn{UNWRAP_CALL}` is fine in docs.\nfn f() {{}}\n");
        assert!(rules_hit("crates/serve/src/protocol.rs", &src).is_empty());
    }

    #[test]
    fn debug_macros_flagged_everywhere_even_in_tests() {
        let src = format!("{CFG_TEST}\nfn f() {{ {TODO_MACRO}() }}\n");
        assert_eq!(
            rules_hit("crates/index/src/rtree.rs", &src),
            ["no-debug-macro"]
        );
        let src2 = format!("fn g() {{ {DBG_MACRO}(x); {UNIMPLEMENTED_MACRO}() }}\n");
        assert_eq!(
            rules_hit("crates/exec/src/pool.rs", &src2),
            ["no-debug-macro", "no-debug-macro"]
        );
    }

    #[test]
    fn allow_without_justification_flagged() {
        let src = format!("{ALLOW_OUTER}dead_code)]\nfn unused() {{}}\n");
        assert_eq!(
            rules_hit("crates/index/src/rtree.rs", &src),
            ["allow-justification"]
        );
    }

    #[test]
    fn allow_with_comment_above_or_trailing_passes() {
        let above = format!(
            "// kept for symmetry with len()\n{ALLOW_OUTER}dead_code)]\nfn unused() {{}}\n"
        );
        assert!(rules_hit("crates/index/src/rtree.rs", &above).is_empty());
        let trailing = format!("{ALLOW_OUTER}dead_code)] // kept for symmetry\nfn unused() {{}}\n");
        assert!(rules_hit("crates/index/src/rtree.rs", &trailing).is_empty());
    }

    #[test]
    fn module_doc_required_as_first_non_blank_line() {
        // `check_source` directly (not `rules_hit`) — these fixtures test
        // the module header itself.
        let undocumented = "use std::fmt;\nfn f() {}\n";
        let hits: Vec<_> = check_source("crates/core/src/ops.rs", undocumented)
            .into_iter()
            .map(|v| (v.rule, v.line))
            .collect();
        assert_eq!(hits, [("module-doc", 1)]);

        // Leading blank lines don't count; the violation names the first
        // non-blank line.
        let late = "\n\nuse std::fmt;\n";
        let hits: Vec<_> = check_source("crates/core/src/ops.rs", late)
            .into_iter()
            .map(|v| (v.rule, v.line))
            .collect();
        assert_eq!(hits, [("module-doc", 3)]);

        // `///` item docs are not module docs.
        let item_doc = "/// Item doc.\nfn f() {}\n";
        assert_eq!(
            check_source("crates/core/src/ops.rs", item_doc)
                .into_iter()
                .map(|v| v.rule)
                .collect::<Vec<_>>(),
            ["module-doc"]
        );

        let empty = "";
        assert_eq!(
            check_source("crates/core/src/ops.rs", empty)
                .into_iter()
                .map(|v| v.rule)
                .collect::<Vec<_>>(),
            ["module-doc"]
        );
    }

    #[test]
    fn module_doc_passes_documented_files_and_flags_every_crate() {
        let documented = "//! Module docs.\nuse std::fmt;\n";
        assert!(check_source("crates/core/src/ops.rs", documented).is_empty());
        let indented = "  //! Indented docs still count.\nfn f() {}\n";
        assert!(check_source("crates/exec/src/pool.rs", indented).is_empty());
        let undocumented = "pub struct SplitMix64;\n";
        let flagged = check_source("crates/vision/src/rng.rs", undocumented);
        assert_eq!(
            flagged.into_iter().map(|v| v.rule).collect::<Vec<_>>(),
            ["module-doc"]
        );
    }

    #[test]
    fn comment_stripping_keeps_urls_in_strings() {
        let line = "let url = \"https://example.com\"; // trailing note";
        assert_eq!(strip_comment(line), "let url = \"https://example.com\"; ");
        let quote_char = "if c == '\"' { nested = true } // quote literal";
        assert_eq!(strip_comment(quote_char), "if c == '\"' { nested = true } ");
    }

    #[test]
    fn word_boundary_rejects_ordered_prefix() {
        assert!(has_word("std::sync::Mutex<u32>", "Mutex"));
        assert!(!has_word("OrderedMutex<u32>", "Mutex"));
        assert!(has_word("MutexGuard<'a, T>", "Mutex"));
    }

    /// Rule 6 over a fixture tree: the `(path, line)` of every hit.
    fn unreached(files: &[(&str, &str)]) -> Vec<(String, usize)> {
        check_unreached_pub(files)
            .into_iter()
            .map(|v| {
                assert_eq!(v.rule, "unreached-pub");
                (v.file, v.line)
            })
            .collect()
    }

    const ENGINE_FILE: &str = "crates/index/src/kd.rs";

    #[test]
    fn unreached_pub_flags_item_called_only_from_its_own_unit_tests() {
        let src = format!(
            "pub fn nearest() -> u32 {{ 0 }}\n{CFG_TEST}\nmod tests {{ fn t() {{ super::nearest(); }} }}\n"
        );
        assert_eq!(
            unreached(&[(ENGINE_FILE, &src)]),
            [(ENGINE_FILE.to_string(), 1)]
        );
    }

    #[test]
    fn unreached_pub_passes_item_called_from_integration_tests() {
        let src = "pub struct KdTree;\n";
        let test = "use deeplens::index::kd::KdTree;\n#[test]\nfn t() { let _ = KdTree; }\n";
        assert!(unreached(&[(ENGINE_FILE, src), ("tests/property_based.rs", test)]).is_empty());
    }

    #[test]
    fn unreached_pub_passes_item_called_from_another_crate() {
        let src = "pub const LEAF_SIZE: usize = 8;\npub mod kd {}\n";
        let caller = "fn f() -> usize { deeplens_index::kd::LEAF_SIZE }\n";
        assert!(
            unreached(&[(ENGINE_FILE, src), ("crates/core/src/catalog.rs", caller)]).is_empty()
        );
    }

    #[test]
    fn unreached_pub_ignores_reexports_comments_and_tests_as_callers() {
        let src = "pub fn probe() {}\n";
        let reexport = "pub use kd::probe;\npub(crate) use kd::{\n    probe,\n};\n";
        let comment = "// probe() is called elsewhere\n/// See [`probe`].\n";
        let unit_test = format!("{CFG_TEST}\nfn t() {{ probe(); }}\n");
        let hits = unreached(&[
            (ENGINE_FILE, src),
            ("crates/index/src/lib.rs", reexport),
            ("crates/core/src/ops.rs", comment),
            ("crates/core/src/plan.rs", &unit_test),
        ]);
        assert_eq!(hits, [(ENGINE_FILE.to_string(), 1)]);
    }

    #[test]
    fn unreached_pub_covers_only_engine_crate_library_code() {
        let dead = "pub fn orphan() {}\n";
        // Binaries, the reproduction crate and test code declare nothing
        // rule 6 checks.
        assert!(unreached(&[("crates/serve/src/bin/serve.rs", dead)]).is_empty());
        assert!(unreached(&[("crates/bench/src/repro/kdtree.rs", dead)]).is_empty());
        assert!(unreached(&[("tests/serving.rs", dead)]).is_empty());
        let test_only = format!("{CFG_TEST}\n{dead}");
        assert!(unreached(&[(ENGINE_FILE, &test_only)]).is_empty());
        // Restricted visibility is not `pub`.
        assert!(unreached(&[(ENGINE_FILE, "pub(crate) fn orphan() {}\n")]).is_empty());
    }

    #[test]
    fn per_file_rules_scan_crate_sources_only() {
        for rel in [
            "crates/core/src/ops.rs",
            "crates/bench/src/bin/run_all.rs",
            "crates/vision/src/rng.rs",
        ] {
            assert!(is_crate_source(rel), "{rel}");
        }
        for rel in ["src/lib.rs", "tests/serving.rs", "benchmark/src/main.rs"] {
            assert!(!is_crate_source(rel), "{rel}");
        }
    }

    #[test]
    fn pub_item_names_cover_every_item_kind() {
        for (line, name) in [
            ("pub fn range_query(points: &[f32]) {", "range_query"),
            ("    pub const fn new() -> Self {", "new"),
            ("pub unsafe fn raw<T>() {}", "raw"),
            ("pub struct BallTree {", "BallTree"),
            ("pub enum Node<T> {", "Node"),
            ("pub trait Generator: Send {", "Generator"),
            ("pub const MAX_ENTRIES: usize = 16;", "MAX_ENTRIES"),
            ("pub type Result<T> = std::result::Result<T, E>;", "Result"),
            ("pub static mut COUNTER: u64 = 0;", "COUNTER"),
            ("pub mod balltree;", "balltree"),
        ] {
            assert_eq!(pub_item_name(line), Some(name), "{line}");
        }
        for line in [
            "pub use balltree::BallTree;",
            "pub(crate) fn hidden() {}",
            "pub name: String,",
            "fn private() {}",
            "pub impl_detail",
        ] {
            assert_eq!(pub_item_name(line), None, "{line}");
        }
    }

    #[test]
    fn global_counter_flags_atomic_statics_in_engine_code() {
        for decl in [
            "static HITS: AtomicU64 = AtomicU64::new(0);\n",
            "pub static HITS: std::sync::atomic::AtomicUsize = AtomicUsize::new(0);\n",
            "fn f() {\n    static mut SEEN: AtomicBool = AtomicBool::new(false);\n}\n",
        ] {
            assert_eq!(
                rules_hit("crates/index/src/balltree.rs", decl),
                ["no-global-counter"],
                "{decl}"
            );
        }
    }

    #[test]
    fn global_counter_spares_allowlist_tests_other_statics_and_other_crates() {
        let decl = |name: &str| format!("static {name}: AtomicU64 = AtomicU64::new(0);\n");
        for (file, name) in GLOBAL_COUNTER_ALLOWLIST {
            assert!(rules_hit(file, &decl(name)).is_empty(), "{file}");
            // The allowlist names a static, not a file.
            assert_eq!(
                rules_hit(file, &decl("OTHER")),
                ["no-global-counter"],
                "{file}"
            );
        }
        let test_only = format!("{CFG_TEST}\n{}", decl("HITS"));
        assert!(rules_hit("crates/core/src/scan.rs", &test_only).is_empty());
        // Binaries, the reproduction crate and non-atomic statics pass.
        assert!(rules_hit("crates/serve/src/bin/serve.rs", &decl("HITS")).is_empty());
        assert!(rules_hit("crates/bench/src/report.rs", &decl("HITS")).is_empty());
        let plain = "static NAMES: &[&str] = &[\"a\"];\nconst GREETING: &'static str = \"hi\";\n";
        assert!(rules_hit("crates/core/src/etl.rs", plain).is_empty());
    }

    #[test]
    fn no_unsafe_flags_blocks_functions_and_impls_in_engine_code() {
        for src in [
            format!("fn f(v: f32) -> u8 {{ {UNSAFE_KEYWORD} {{ v.to_int_unchecked() }} }}\n"),
            format!("pub {UNSAFE_KEYWORD} fn raw(p: *const u8) -> u8 {{ *p }}\n"),
            format!("{UNSAFE_KEYWORD} impl Send for Frame {{}}\n"),
            format!("let b = {UNSAFE_KEYWORD}{{ *data.get_unchecked(i) }};\n"),
        ] {
            for rel in ["crates/codec/src/image.rs", "crates/core/src/etl.rs"] {
                assert_eq!(rules_hit(rel, &src), ["no-unsafe"], "{rel}: {src}");
            }
        }
    }

    #[test]
    fn no_unsafe_spares_tests_comments_identifiers_and_other_crates() {
        let block = format!("fn f() {{ {UNSAFE_KEYWORD} {{ g() }} }}\n");
        let test_only = format!("{CFG_TEST}\n{block}");
        assert!(rules_hit("crates/codec/src/image.rs", &test_only).is_empty());
        // Binaries and the non-engine crates are out of scope.
        assert!(rules_hit("crates/serve/src/bin/serve.rs", &block).is_empty());
        assert!(rules_hit("crates/bench/src/report.rs", &block).is_empty());
        assert!(rules_hit("crates/vision/src/rng.rs", &block).is_empty());
        // The word inside a longer identifier, or in a comment, is no
        // `unsafe` code.
        let words = format!(
            "#![forbid({UNSAFE_KEYWORD}_code)]\nfn is_{UNSAFE_KEYWORD}() {{}}\n\
             // no {UNSAFE_KEYWORD} here\n/// Never {UNSAFE_KEYWORD}.\nfn g() {{}}\n"
        );
        assert!(rules_hit("crates/codec/src/image.rs", &words).is_empty());
    }

    #[test]
    fn test_lock_flags_unit_mutex_statics_in_tests_and_engine_test_modules() {
        let lock = |ty: &str| format!("static COUNTER_LOCK: {ty} = {MUTEX_TYPE}::new(());\n");
        for ty in [
            format!("{MUTEX_TYPE}<()>"),
            format!("{STD_SYNC_PATH}::{MUTEX_TYPE}<()>"),
            format!("{MUTEX_TYPE}< ( ) >"),
        ] {
            // Anywhere in an integration-test file, a crate's included.
            for rel in ["tests/batched_etl.rs", "crates/codec/tests/decode.rs"] {
                let hits: Vec<_> = check_test_source(rel, &lock(&ty))
                    .into_iter()
                    .map(|v| v.rule)
                    .collect();
                assert_eq!(hits, ["no-test-lock"], "{rel}: {ty}");
            }
            // In the test module of an engine-crate file.
            let in_test = format!("{CFG_TEST}\nmod tests {{\n    {}}}\n", lock(&ty));
            assert_eq!(
                rules_hit("crates/core/src/etl.rs", &in_test),
                ["no-test-lock"],
                "{ty}"
            );
        }
    }

    #[test]
    fn test_lock_spares_other_statics_and_non_test_code() {
        let statics = format!(
            "static BYTES: OnceLock<Vec<u8>> = OnceLock::new();\n\
             static CACHE: {MUTEX_TYPE}<Vec<u8>> = {MUTEX_TYPE}::new(Vec::new());\n\
             static RANKED: Ordered{MUTEX_TYPE}<()> = ranked();\n\
             static GLOBAL: CountingAlloc = CountingAlloc;\n\
             // static OLD_LOCK: {MUTEX_TYPE}<()> = {MUTEX_TYPE}::new(());\n"
        );
        assert!(check_test_source("tests/columnar_counters.rs", &statics).is_empty());
        let in_test = format!("{CFG_TEST}\nmod tests {{\n{statics}}}\n");
        assert!(rules_hit("crates/core/src/etl.rs", &in_test).is_empty());
        // Outside test code, and outside the engine crates, rule 9 is silent
        // (rule 1 covers raw locks in engine code).
        let lock = format!("static LOCK: {MUTEX_TYPE}<()> = {MUTEX_TYPE}::new(());\n");
        assert!(rules_hit("crates/core/src/etl.rs", &lock).is_empty());
        let bench_test = format!("{CFG_TEST}\n{lock}");
        assert!(rules_hit("crates/bench/src/report.rs", &bench_test).is_empty());
        assert!(!is_test_file("crates/core/src/etl.rs"));
    }

    #[test]
    fn every_listed_path_exists_in_the_workspace() {
        // A deleted or renamed file must leave no stale entry behind.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let counters = GLOBAL_COUNTER_ALLOWLIST.iter().map(|(file, _)| file);
        let listed = SERVED_CORE_FILES
            .iter()
            .chain(SERVED_WRITE_FILES)
            .chain(DECODE_PATH_FILES)
            .chain(counters);
        for rel in listed {
            assert!(root.join(rel).is_file(), "{rel} is listed but missing");
        }
    }

    #[test]
    fn clean_tree_snippet_passes_all_rules() {
        let src = "use deeplens_analyze::sync::{LockRank, OrderedRwLock};\n\
                   struct Catalog { shards: Vec<OrderedRwLock<u32>> }\n";
        assert!(rules_hit("crates/core/src/shared.rs", src).is_empty());
    }
}
