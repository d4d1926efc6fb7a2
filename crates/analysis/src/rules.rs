//! The rule catalog and the engine that applies it.
//!
//! Rules are *data*: each one names the invariant it protects, the token
//! pattern (or analysis) that detects violations, where it applies, and
//! whether `#[cfg(test)]` code is exempt. Adding a rule means adding one
//! entry to [`ALL`] — the engine, suppression handling, and CLI pick it
//! up automatically.
//!
//! Suppressions: `// rl-lint: allow(rule-id)` (comma-separate several
//! ids) suppresses findings of those rules on the comment's own line and
//! on the line directly below it — so both trailing comments and
//! a-justification-line-above work. Suppressions should carry a reason in
//! the rest of the comment.

use crate::lexer::{is_ident_char, LexedFile};
use crate::lockorder;

/// One diagnostic: `file:line: rule-id: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A sequence of literal fragments that must appear in order in the
/// masked source, separated by nothing but whitespace. The first
/// fragment is word-bounded on the left (so `sleep(` does not match
/// `nanosleep(`).
pub struct CodePattern {
    pub parts: &'static [&'static str],
    pub message: &'static str,
}

/// What a rule matches on.
pub enum RuleKind {
    /// Token patterns over the masked (comment- and literal-free) source.
    Code(&'static [CodePattern]),
    /// Substring patterns over string-literal contents. `.0` matches
    /// normal literals (escapes as written), `.1` matches raw literals.
    Strings {
        escaped: &'static [&'static str],
        raw: &'static [&'static str],
        message: &'static str,
    },
    /// The static nested-lock graph: see [`crate::lockorder`].
    LockOrder,
}

/// One lint rule.
pub struct Rule {
    pub id: &'static str,
    /// The invariant this protects, shown by `--list-rules`.
    pub rationale: &'static str,
    pub kind: RuleKind,
    /// Workspace-relative path fragments where the rule does not apply
    /// (matched with `path_matches`).
    pub exempt: &'static [&'static str],
    /// Whether `#[cfg(test)]` modules are exempt.
    pub skip_test_code: bool,
}

/// The rule catalog. Order is the report order.
pub static ALL: &[Rule] = &[
    Rule {
        id: "lock-poison",
        rationale: "a panic while a Mutex is held must not cascade: use the \
                    poison-recovering rl_fdb::sync::lock()/lock_ranked() helpers \
                    instead of .lock().unwrap()/.expect()",
        kind: RuleKind::Code(&[
            CodePattern {
                parts: &[".lock()", ".unwrap()"],
                message: "bare `.lock().unwrap()` — use `rl_fdb::sync::lock()` \
                          (poison-recovering) instead",
            },
            CodePattern {
                parts: &[".lock()", ".expect("],
                message: "bare `.lock().expect(…)` — use `rl_fdb::sync::lock()` \
                          (poison-recovering) instead",
            },
        ]),
        exempt: &[],
        skip_test_code: false,
    },
    Rule {
        id: "lock-order",
        rationale: "nested lock acquisitions must follow one global order; a \
                    cycle in the static lock graph is a latent deadlock the \
                    parallel-simulator work would hit",
        kind: RuleKind::LockOrder,
        exempt: &[],
        skip_test_code: false,
    },
    Rule {
        id: "wall-clock",
        rationale: "library crates must stay deterministic (FDB-style simulation \
                    testing): wall-clock reads belong in rl_obs and the \
                    harness timing paths only",
        kind: RuleKind::Code(&[
            CodePattern {
                parts: &["Instant::now"],
                message: "`Instant::now` in a library crate — route timing through \
                          rl_obs or the logical clock (Database::advance_clock)",
            },
            CodePattern {
                parts: &["SystemTime::now"],
                message: "`SystemTime::now` in a library crate — route timing through \
                          rl_obs or the logical clock (Database::advance_clock)",
            },
        ]),
        exempt: &["crates/obs/", "crates/harness/", "tests/", "examples/"],
        skip_test_code: true,
    },
    Rule {
        id: "no-sleep-in-lib",
        rationale: "library code never sleeps: the simulator's logical clock \
                    (advance_clock) is the only way time passes, so tests stay \
                    fast and deterministic",
        kind: RuleKind::Code(&[CodePattern {
            parts: &["thread::sleep"],
            message: "`thread::sleep` in a library crate — advance the logical \
                      clock instead",
        }]),
        exempt: &["crates/harness/", "tests/", "examples/"],
        skip_test_code: true,
    },
    Rule {
        id: "json-via-builder",
        rationale: "BENCH_*.json must stay schema-stable and parseable: emit \
                    through rl_harness::json::Json, not hand-concatenated format! \
                    strings",
        kind: RuleKind::Strings {
            escaped: &["{\\\""],
            raw: &["{\""],
            message: "hand-concatenated JSON in a string literal — build a \
                      `rl_harness::json::Json` tree instead",
        },
        exempt: &["crates/analysis/"],
        skip_test_code: true,
    },
    Rule {
        id: "no-todo-panic",
        rationale: "todo!/unimplemented! in non-test code is a runtime landmine; \
                    return an Error or finish the path",
        kind: RuleKind::Code(&[
            CodePattern {
                parts: &["todo!"],
                message: "`todo!` in non-test code",
            },
            CodePattern {
                parts: &["unimplemented!"],
                message: "`unimplemented!` in non-test code",
            },
        ]),
        exempt: &["tests/"],
        skip_test_code: true,
    },
];

/// Look a rule up by id.
pub fn by_id(id: &str) -> Option<&'static Rule> {
    ALL.iter().find(|r| r.id == id)
}

/// True when `rel_path` (forward slashes) is covered by exemption
/// fragment `frag`: either the path starts with it or contains it at a
/// directory boundary.
fn path_matches(rel_path: &str, frag: &str) -> bool {
    rel_path.starts_with(frag) || rel_path.contains(&format!("/{frag}"))
}

/// Line ranges (1-based, inclusive) covered by `#[cfg(test)]` items.
fn test_line_ranges(masked: &str) -> Vec<(usize, usize)> {
    let chars: Vec<char> = masked.chars().collect();
    let needle: Vec<char> = "#[cfg(test)]".chars().collect();
    let mut ranges = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    while i < chars.len() {
        if chars[i] == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if chars[i..].starts_with(&needle) {
            let start_line = line;
            // Find the opening brace of the annotated item, then its
            // matching close.
            let mut j = i + needle.len();
            let mut l = line;
            while j < chars.len() && chars[j] != '{' && chars[j] != ';' {
                if chars[j] == '\n' {
                    l += 1;
                }
                j += 1;
            }
            if j < chars.len() && chars[j] == '{' {
                let mut depth = 0i32;
                while j < chars.len() {
                    match chars[j] {
                        '{' => depth += 1,
                        '}' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        '\n' => l += 1,
                        _ => {}
                    }
                    j += 1;
                }
            }
            ranges.push((start_line, l));
            line = l;
            i = j.max(i + 1);
            continue;
        }
        i += 1;
    }
    ranges
}

fn in_ranges(line: usize, ranges: &[(usize, usize)]) -> bool {
    ranges.iter().any(|&(a, b)| line >= a && line <= b)
}

/// Parse suppression comments into the set of (line, rule-id) pairs they
/// cover. A suppression covers its own line and the next line.
fn suppressions(lexed: &LexedFile) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        let Some(pos) = c.text.find("rl-lint:") else {
            continue;
        };
        let rest = &c.text[pos + "rl-lint:".len()..];
        let Some(open) = rest.find("allow(") else {
            continue;
        };
        let Some(close) = rest[open..].find(')') else {
            continue;
        };
        // Count lines the comment itself spans up to the allow(): block
        // comments may be multi-line.
        let line = c.line + c.text[..pos].chars().filter(|&ch| ch == '\n').count();
        for id in rest[open + "allow(".len()..open + close].split(',') {
            let id = id.trim().to_string();
            if !id.is_empty() {
                out.push((line, id.clone()));
                out.push((line + 1, id));
            }
        }
    }
    out
}

fn is_suppressed(supp: &[(usize, String)], line: usize, rule: &str) -> bool {
    supp.iter().any(|(l, id)| *l == line && id == rule)
}

/// 1-based line of char index `at` in `s`.
fn line_of(s: &str, at: usize) -> usize {
    s.chars().take(at).filter(|&c| c == '\n').count() + 1
}

/// Match `pattern` (fragments separated by optional whitespace) in the
/// masked source, returning the char indices where matches begin.
fn match_pattern(masked: &[char], pattern: &CodePattern) -> Vec<usize> {
    let mut found = Vec::new();
    let first: Vec<char> = pattern.parts[0].chars().collect();
    let mut i = 0usize;
    'outer: while i + first.len() <= masked.len() {
        if !masked[i..].starts_with(&first) {
            i += 1;
            continue;
        }
        // Word boundary on the left for identifier-starting patterns
        // (so `thread::sleep` won't match an identifier ending in
        // "thread", but `std::thread::sleep` still does).
        if (first[0].is_alphanumeric() || first[0] == '_') && i > 0 && is_ident_char(masked[i - 1])
        {
            i += 1;
            continue;
        }
        let mut j = i + first.len();
        for part in &pattern.parts[1..] {
            while j < masked.len() && masked[j].is_whitespace() {
                j += 1;
            }
            let frag: Vec<char> = part.chars().collect();
            if !masked[j..].starts_with(&frag) {
                i += 1;
                continue 'outer;
            }
            j += frag.len();
        }
        found.push(i);
        i = j.max(i + 1);
    }
    found
}

/// Apply every rule in `rules` to one file. `rel_path` uses forward
/// slashes and is relative to the workspace root.
pub fn lint_file(rel_path: &str, src: &str, rules: &[Rule]) -> Vec<Diagnostic> {
    let lexed = crate::lexer::lex(src);
    let masked_chars: Vec<char> = lexed.masked.chars().collect();
    let supp = suppressions(&lexed);
    let test_ranges = test_line_ranges(&lexed.masked);
    let in_tests_dir = |frag: &str| path_matches(rel_path, frag);
    let mut out = Vec::new();

    for rule in rules {
        if rule.exempt.iter().any(|f| in_tests_dir(f)) {
            continue;
        }
        let mut push = |line: usize, message: String| {
            if rule.skip_test_code && in_ranges(line, &test_ranges) {
                return;
            }
            if is_suppressed(&supp, line, rule.id) {
                return;
            }
            out.push(Diagnostic {
                file: rel_path.to_string(),
                line,
                rule: rule.id,
                message,
            });
        };
        match &rule.kind {
            RuleKind::Code(patterns) => {
                for p in *patterns {
                    for at in match_pattern(&masked_chars, p) {
                        push(line_of(&lexed.masked, at), p.message.to_string());
                    }
                }
            }
            RuleKind::Strings {
                escaped,
                raw,
                message,
            } => {
                for s in &lexed.strings {
                    let patterns = if s.raw { raw } else { escaped };
                    if patterns.iter().any(|p| s.content.contains(p)) {
                        push(s.line, message.to_string());
                    }
                }
            }
            RuleKind::LockOrder => {
                // Acquisition sites are collected per file here; the graph
                // is assembled and checked globally by the caller
                // (`lint_tree`), because cycles span files.
            }
        }
    }
    out
}

/// Lint a set of files as one unit: per-file rules plus the global
/// lock-order graph. Input is `(rel_path, source)` pairs.
pub fn lint_files(files: &[(String, String)], rules: &[Rule]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (rel, src) in files {
        out.extend(lint_file(rel, src, rules));
    }
    if let Some(rule) = rules.iter().find(|r| matches!(r.kind, RuleKind::LockOrder)) {
        let mut graph = lockorder::LockGraph::default();
        let mut supp_by_file: Vec<(String, Vec<(usize, String)>)> = Vec::new();
        for (rel, src) in files {
            if rule.exempt.iter().any(|f| path_matches(rel, f)) {
                continue;
            }
            let lexed = crate::lexer::lex(src);
            graph.add_file(rel, &lexed.masked);
            supp_by_file.push((rel.clone(), suppressions(&lexed)));
        }
        for d in graph.check(rule.id) {
            let suppressed = supp_by_file
                .iter()
                .find(|(f, _)| *f == d.file)
                .is_some_and(|(_, s)| is_suppressed(s, d.line, rule.id));
            if !suppressed {
                out.push(d);
            }
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}
