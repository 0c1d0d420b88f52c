//! Nothing ships uncalled.
//!
//! Lessons, figures, commands, examples and the benchmark are what this
//! code serves. A public function none of them reaches, or a dependency
//! its crate never names, is still code to read, document and keep
//! compiling. These tests read the source and fail on either, unless the
//! name is in a `KEPT` list that says why it stays. A `KEPT` entry that
//! gains a caller, or whose item is gone, fails too, so the lists stay
//! exact.
//!
//! Non-test code is the part of a file before its first column-0
//! `#[cfg(test)]`, the boundary the ROADMAP's line counts use. A caller is
//! a name in the non-test code of `crates/*/src`, `src`, `examples` or
//! `perfbench/src`, outside comments and `use` declarations, used where a
//! function can be: called (`name(`, `.name(`), as a path's last segment
//! (`::name`), with a turbofish (`name::<`), or passed bare as a call's
//! argument. A field access, a struct-literal field, a pattern binding or
//! a local variable of the same name is not a caller. Words in string
//! literals count: a function named in a string (a serde `default = "…"`,
//! say) is reached by name. The scan matches names, not items, which is
//! its blind spot: a method passes when another item of its name has a
//! caller (`NetworkConfig::delay` hid an uncalled `CampaignConfig::delay`),
//! when its name is a word in any string, or when a local of its name is
//! passed to a call, so check such a survivor's callers by hand.
//!
//! One more test keeps every parallel loop over indices on the one worker
//! pool, `anacin_obs::pool`: non-test code may start scoped threads only
//! in the files `SCOPED_THREADS` lists, once each.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Public functions that no non-test code calls, kept on purpose.
#[rustfmt::skip]
const KEPT_FUNCTIONS: &[(&str, &str)] = &[
    ("rebuild_index", "mpisim CallStackTable: restores the index serde skips"),
    ("intern_frames", "mpisim CallStackTable: interns a stack of frame strings"),
    ("integral", "stats KdeCurve: the curve's mass, checked to be about 1"),
    ("fnv1a", "event-graph: the label hash; tests/sim_golden.rs digests with it"),
    ("from_json", "event-graph export: the inverse of to_json, for round trips"),
    ("decode_frame", "serve: decodes one frame; protocol properties feed it prefixes"),
    ("label_rounds", "kernels WlKernel: each round's labels, tests/pipeline.rs's referee"),
    ("snapshot", "obs MemorySink: the records a sink's file is checked against"),
    ("contents", "obs SharedBuffer: what a streaming sink wrote"),
    ("matched_spans", "obs TraceSnapshot: the recorded spans a file's span totals must equal"),
    ("oracle_schedule_exhaustiveness", "testkit: an oracle for the schedule explorer"),
    ("kendall_tau", "stats: for Fig. 7's claim over seeds to adopt or drop"),
    ("mean_ci", "stats: for Fig. 7's claim over seeds to adopt or drop"),
];

/// Dependencies their crate never names, kept on purpose: the crate's
/// directory, the dependency, and why.
#[rustfmt::skip]
const KEPT_DEPENDENCIES: &[(&str, &str, &str)] = &[
    ("crates/core", "rand", "perfbench/Cargo.lock records the edge"),
    ("crates/kernels", "rand", "perfbench/Cargo.lock records the edge"),
    ("crates/event-graph", "anacin-obs", "perfbench/Cargo.lock records the edge"),
];

/// The files whose non-test code may name `thread::scope`, once each,
/// and why each starts its own threads instead of using the pool.
#[rustfmt::skip]
const SCOPED_THREADS: &[(&str, &str)] = &[
    ("crates/obs/src/pool.rs", "the pool itself"),
    ("crates/kernels/src/matrix.rs", "label-major Gram: its workers meet at a barrier every round, so all must run at once"),
    ("crates/serve/src/server.rs", "a job's progress ticker runs beside its worker"),
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `sub` inside the root-relative directory `dir`.
fn within(dir: &str, sub: &str) -> String {
    if dir.is_empty() {
        sub.to_string()
    } else {
        format!("{dir}/{sub}")
    }
}

/// The root facade and every `crates/*`, as directories relative to the
/// root ("" for the root).
fn crate_dirs() -> Vec<String> {
    let mut dirs: Vec<String> = std::fs::read_dir(root().join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .map(|p| p.strip_prefix(root()).unwrap().display().to_string())
        .collect();
    dirs.sort();
    dirs.insert(0, String::new());
    dirs
}

/// A source file: its path relative to the root, and its text.
struct Source {
    path: String,
    text: String,
}

impl Source {
    /// Every `.rs` file under the root-relative `dir`, in path order;
    /// none if `dir` is absent.
    fn under(dir: &str) -> Vec<Source> {
        fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return;
            };
            let mut paths: Vec<PathBuf> = entries.map(|e| e.unwrap().path()).collect();
            paths.sort();
            for path in paths {
                if path.is_dir() {
                    walk(&path, files);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    files.push(path);
                }
            }
        }
        let mut files = Vec::new();
        walk(&root().join(dir), &mut files);
        files
            .into_iter()
            .map(|path| Source {
                text: std::fs::read_to_string(&path).unwrap(),
                path: path.strip_prefix(root()).unwrap().display().to_string(),
            })
            .collect()
    }

    /// The part before the first column-0 `#[cfg(test)]`.
    fn non_test(&self) -> &str {
        let end = self
            .text
            .match_indices("#[cfg(test)]")
            .map(|(at, _)| at)
            .find(|&at| at == 0 || self.text.as_bytes()[at - 1] == b'\n');
        &self.text[..end.unwrap_or(self.text.len())]
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'a> {
    /// An identifier or keyword.
    Ident(&'a str),
    /// An identifier-shaped word inside a string literal.
    Word(&'a str),
    Punct(u8),
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The tokens of Rust source that matter here, each with its 1-based
/// line. Comments, character literals, lifetimes and numbers leave none;
/// a string literal leaves its words.
fn tokens(code: &str) -> Vec<(Tok<'_>, usize)> {
    let s = code.as_bytes();
    let mut out = Vec::new();
    let (mut i, mut line) = (0, 1);
    // Just past the next unescaped `close` at or after `i`.
    let quoted_end = |mut i: usize, close: u8| {
        while i < s.len() && s[i] != close {
            i += if s[i] == b'\\' { 2 } else { 1 };
        }
        (i + 1).min(s.len())
    };
    while i < s.len() {
        let (start, b) = (i, s[i]);
        // Where the body of a string literal starts, with its quote.
        let mut literal = None;
        if s[i..].starts_with(b"//") {
            while i < s.len() && s[i] != b'\n' {
                i += 1;
            }
        } else if s[i..].starts_with(b"/*") {
            let mut depth = 0;
            while i < s.len() {
                if s[i..].starts_with(b"/*") {
                    depth += 1;
                    i += 2;
                } else if s[i..].starts_with(b"*/") {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
        } else if b == b'"' {
            literal = Some(i);
            i = quoted_end(i + 1, b'"');
        } else if b == b'\'' {
            // A character literal, or a lifetime or loop label.
            let width = match s.get(i + 1) {
                Some(b'\\') => 0,
                Some(&c) => 1 + [0xC0, 0xE0, 0xF0].iter().filter(|&&f| c >= f).count(),
                None => 1,
            };
            if width == 0 {
                i = quoted_end(i + 1, b'\'');
            } else if s.get(i + 1 + width) == Some(&b'\'') {
                i += width + 2;
            } else {
                i += 1;
                while i < s.len() && is_ident(s[i]) {
                    i += 1;
                }
            }
        } else if is_ident(b) {
            while i < s.len() && is_ident(s[i]) {
                i += 1;
            }
            let word = &code[start..i];
            let hashes = s[i..].iter().take_while(|&&c| c == b'#').count();
            if matches!(word, "r" | "br") && s.get(i + hashes) == Some(&b'"') {
                // A raw string: it ends at `"` and as many `#`s.
                literal = Some(i);
                let close = format!("\"{}", "#".repeat(hashes));
                i += hashes + 1;
                i += code[i..]
                    .find(&close)
                    .map_or(code.len() - i, |e| e + close.len());
            } else if !b.is_ascii_digit() {
                out.push((Tok::Ident(word), line));
            }
        } else {
            if b.is_ascii_graphic() {
                out.push((Tok::Punct(b), line));
            }
            i += 1;
        }
        if let Some(body) = literal {
            for (n, text) in code[body..i].split('\n').enumerate() {
                for word in text.split(|c: char| !c.is_ascii_alphanumeric() && c != '_') {
                    if word.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_') {
                        out.push((Tok::Word(word), line + n));
                    }
                }
            }
        }
        line += code[start..i].matches('\n').count();
    }
    out
}

/// The public functions (`pub fn`, `pub const fn`) that `toks` define,
/// each with its line.
fn public_functions<'a>(toks: &[(Tok<'a>, usize)]) -> Vec<(&'a str, usize)> {
    let mut defs = Vec::new();
    for (at, &(tok, line)) in toks.iter().enumerate() {
        if tok != Tok::Ident("pub") {
            continue;
        }
        let mut rest = toks[at + 1..].iter().map(|t| t.0);
        let mut head = rest.next();
        if head == Some(Tok::Ident("const")) {
            head = rest.next();
        }
        if let (Some(Tok::Ident("fn")), Some(Tok::Ident(name))) = (head, rest.next()) {
            defs.push((name, line));
        }
    }
    defs
}

/// The names in `toks` that call or name a function: `name(` and
/// `.name(`, a path's last segment `::name`, a turbofish `name::<`, a
/// bare name passed as an argument of a call, and every word in a string
/// literal. The name after `fn` and the whole of each `use` declaration
/// are left out.
fn callers<'a>(toks: &[(Tok<'a>, usize)]) -> Vec<(&'a str, usize)> {
    let tok = |at: usize| toks.get(at).map(|t| t.0);
    let punct = |at: usize, p: &[u8]| {
        p.iter()
            .enumerate()
            .all(|(k, &c)| tok(at + k) == Some(Tok::Punct(c)))
    };
    // A name before `(` that calls: lowercase, and not a keyword, so
    // the parentheses of `Some(x)`, `let (a, b)` and `for (i, x)` are
    // not a call's.
    let callee = |name: &str| {
        name.starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
            && !matches!(
                name,
                "if" | "while" | "match" | "for" | "in" | "let" | "return" | "mut" | "ref"
            )
    };
    let mut names = Vec::new();
    let (mut in_use, mut after_fn) = (false, false);
    // Each open bracket, and whether it opens a call's arguments.
    let mut open: Vec<bool> = Vec::new();
    for (at, &(this, line)) in toks.iter().enumerate() {
        let prev = at.checked_sub(1).and_then(tok);
        match this {
            Tok::Ident("use") => in_use = true,
            Tok::Punct(b';') => in_use = false,
            Tok::Punct(b'(' | b'[' | b'{') => open.push(
                this == Tok::Punct(b'(') && matches!(prev, Some(Tok::Ident(name)) if callee(name)),
            ),
            Tok::Punct(b')' | b']' | b'}') => {
                open.pop();
            }
            Tok::Ident(name) if !in_use && !after_fn => {
                let argument = open.last() == Some(&true)
                    && matches!(prev, Some(Tok::Punct(b'(' | b',')))
                    && (punct(at + 1, b")") || punct(at + 1, b","));
                let called = (punct(at + 1, b"(") && callee(name))
                    || (at >= 2 && punct(at - 2, b"::"))
                    || punct(at + 1, b"::<")
                    || argument;
                if called {
                    names.push((name, line));
                }
            }
            Tok::Word(word) => names.push((word, line)),
            _ => {}
        }
        after_fn = this == Tok::Ident("fn");
    }
    names
}

#[test]
fn every_public_function_has_a_caller() {
    // The scanner sees through comments, literals and lifetimes.
    let sample = "pub fn f<'a>(x: &'a str) -> char { // g\n\
                  /* h /* i */ j */ s(\"k \\\" l\", r#\"m\"#, b'n', '\\'', 'é');\n\
                  use t::{u,\n v}; 'o: loop { break 'o; } p(1u32) }";
    let toks = tokens(sample);
    assert_eq!(public_functions(&toks), [("f", 1)]);
    let named = |code| {
        let names: Vec<String> = callers(&tokens(code))
            .iter()
            .map(|(name, line)| format!("{name}:{line}"))
            .collect();
        names.join(" ")
    };
    assert_eq!(named(sample), "s:2 k:2 l:2 m:2 b:2 p:4");
    // Calls, paths, turbofish and names passed to a call count; fields,
    // struct-literal fields, pattern bindings and locals do not.
    let sample = "let v = S { field: 1, short, other }; v.field; let local = v;\n\
                  if let Some(bound) = local.meth() { T::path; turbo::<u8>(); }\n\
                  g(h, fname); for (i, x) in w { let (a, b) = (i, x); }";
    let expected = "meth:2 path:2 turbo:2 g:3 h:3 fname:3";
    assert_eq!(named(sample), expected);

    let mut defining = Vec::new();
    for dir in crate_dirs() {
        defining.extend(Source::under(&within(&dir, "src")));
    }
    let mut calling = Source::under("examples");
    calling.extend(Source::under("perfbench/src"));
    assert!(defining.len() > 100, "found {} files", defining.len());

    let mut defined: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    let mut called: BTreeMap<&str, String> = BTreeMap::new();
    for (n, source) in defining.iter().chain(&calling).enumerate() {
        let toks = tokens(source.non_test());
        if n < defining.len() {
            for (name, line) in public_functions(&toks) {
                let at = format!("{}:{line}", source.path);
                defined.entry(name).or_default().push(at);
            }
        }
        for (name, line) in callers(&toks) {
            called
                .entry(name)
                .or_insert_with(|| format!("{}:{line}", source.path));
        }
    }
    assert!(
        defined.len() > 300,
        "found {} public functions",
        defined.len()
    );

    let mut failures = Vec::new();
    for (name, at) in &defined {
        if !called.contains_key(name) && !KEPT_FUNCTIONS.iter().any(|k| k.0 == *name) {
            for at in at {
                failures.push(format!("{at}: pub fn {name} has no caller outside tests"));
            }
        }
    }
    for (name, _) in KEPT_FUNCTIONS {
        match (defined.get(name), called.get(name)) {
            (None, _) => failures.push(format!("KEPT pub fn {name} is defined nowhere")),
            (Some(at), Some(call)) => failures.push(format!(
                "{}: KEPT pub fn {name} is called at {call}; drop it from KEPT",
                at[0]
            )),
            (Some(_), None) => {}
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// The `[dependencies]` and `[dev-dependencies]` keys of a manifest, each
/// with its line and whether it is a dev-dependency.
fn dependencies(manifest: &str) -> Vec<(&str, usize, bool)> {
    let mut deps = Vec::new();
    let mut section = "";
    for (at, line) in manifest.lines().enumerate() {
        let line = line.trim();
        if line.starts_with('[') {
            section = line;
            assert!(
                !section.contains("dependencies.") && !section.starts_with("[target"),
                "{section}: only plain dependency tables are read"
            );
        } else if let Some((key, _)) = line.split_once('=') {
            match section {
                "[dependencies]" => deps.push((key.trim(), at + 1, false)),
                "[dev-dependencies]" => deps.push((key.trim(), at + 1, true)),
                _ => {}
            }
        }
    }
    deps
}

/// Every name in `code`, `use` declarations included.
fn names<'a>(code: impl IntoIterator<Item = &'a str>) -> BTreeSet<&'a str> {
    let toks = code.into_iter().flat_map(tokens);
    toks.filter_map(|(tok, _)| match tok {
        Tok::Ident(name) | Tok::Word(name) => Some(name),
        Tok::Punct(_) => None,
    })
    .collect()
}

#[test]
fn every_dependency_is_named() {
    let mut failures = Vec::new();
    let mut kept_unseen: Vec<_> = KEPT_DEPENDENCIES.iter().collect();
    for dir in crate_dirs() {
        let src = Source::under(&within(&dir, "src"));
        let mut rest = Source::under(&within(&dir, "tests"));
        rest.extend(Source::under(&within(&dir, "examples")));
        rest.extend(Source::under(&within(&dir, "benches")));
        let non_test = names(src.iter().map(Source::non_test));
        let all = names(src.iter().chain(&rest).map(|s| s.text.as_str()));

        let manifest = within(&dir, "Cargo.toml");
        let text = std::fs::read_to_string(root().join(&manifest)).unwrap();
        for (dep, line, dev) in dependencies(&text) {
            let ident = dep.replace('-', "_");
            let named = if dev { &all } else { &non_test }.contains(ident.as_str());
            let kept = !dev && KEPT_DEPENDENCIES.iter().any(|k| k.0 == dir && k.1 == dep);
            if kept {
                kept_unseen.retain(|k| !(k.0 == dir && k.1 == dep));
                if named {
                    failures.push(format!(
                        "{manifest}:{line}: KEPT dependency {dep} is named; drop it from KEPT"
                    ));
                }
            } else if !named && dev {
                failures.push(format!(
                    "{manifest}:{line}: dev-dependency {dep} is named in none of \
                     src, tests, examples or benches"
                ));
            } else if !named {
                failures.push(format!(
                    "{manifest}:{line}: dependency {dep} is not named in non-test src"
                ));
            }
        }
    }
    for (dir, dep, _) in kept_unseen {
        failures.push(format!(
            "KEPT dependency {dep} of {dir} is declared nowhere"
        ));
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn parallel_loops_share_one_pool() {
    let scope = [
        Tok::Ident("thread"),
        Tok::Punct(b':'),
        Tok::Punct(b':'),
        Tok::Ident("scope"),
    ];
    let mut sites: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for dir in crate_dirs() {
        for source in Source::under(&within(&dir, "src")) {
            for w in tokens(source.non_test()).windows(scope.len()) {
                if w.iter().map(|t| t.0).eq(scope) {
                    sites.entry(source.path.clone()).or_default().push(w[0].1);
                }
            }
        }
    }
    let mut failures = Vec::new();
    for (path, lines) in &sites {
        if !SCOPED_THREADS.iter().any(|k| k.0 == path) {
            for line in lines {
                failures.push(format!(
                    "{path}:{line}: thread::scope outside the pool; \
                     use anacin_obs::pool::map_indexed"
                ));
            }
        } else if lines.len() > 1 {
            failures.push(format!(
                "{path}: thread::scope at lines {lines:?}; SCOPED_THREADS allows one"
            ));
        }
    }
    for (path, _) in SCOPED_THREADS {
        if !sites.contains_key(*path) {
            failures.push(format!(
                "{path}: listed in SCOPED_THREADS but names no thread::scope; drop it"
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}
