//! # rl_analysis — static analysis over the workspace's own source
//!
//! A zero-dependency lint engine (binary: `rl_lint`) protecting the
//! invariants the ROADMAP's concurrency work depends on:
//!
//! * **lock hygiene** — every `Mutex` acquisition goes through the
//!   poison-recovering `rl_fdb::sync` helpers ([`rules`]: `lock-poison`),
//! * **lock ordering** — the static nested-lock graph is acyclic
//!   (`lock-order`; [`lockorder`]), the compile-time half of the
//!   runtime lock-rank tracker in `rl_fdb::sync`,
//! * **determinism** — no wall-clock reads or sleeps in library crates
//!   (`wall-clock`, `no-sleep-in-lib`), so FDB-style deterministic
//!   simulation stays possible,
//! * **report hygiene** — benchmark JSON goes through
//!   `rl_harness::json::Json`, not `format!` (`json-via-builder`), and no
//!   `todo!`/`unimplemented!` ships in non-test code (`no-todo-panic`).
//!
//! The [`lexer`] is deliberately conservative: rule patterns only ever
//! match *code*, never text inside comments, strings, raw strings, or
//! char literals (property-tested in `tests/`). Findings are suppressed
//! inline with `// rl-lint: allow(rule-id) — reason`.

pub mod lexer;
pub mod lockorder;
pub mod rules;

pub use rules::{lint_file, lint_files, Diagnostic, Rule, ALL};

use std::path::{Path, PathBuf};

/// Directories never linted.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github"];

/// Collect every `.rs` file under `root` (skipping build output),
/// returning `(workspace-relative path, contents)` pairs sorted by path.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                files.push((rel, std::fs::read_to_string(&path)?));
            }
        }
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(files)
}

/// Lint the whole tree under `root` with the full rule catalog.
pub fn lint_tree(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    Ok(rules::lint_files(&collect_sources(root)?, rules::ALL))
}

/// Walk upward from `start` to the directory containing the workspace
/// `Cargo.toml` (the one with a `[workspace]` section).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
