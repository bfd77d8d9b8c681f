//! The six tidy lints.
//!
//! Each lint reports [`Diagnostic`]s against the [`SourceFile`] model; all
//! of them honour `// tidy:allow(<lint>): <reason>` on the offending line
//! (or in the comment block above it). See `xtask/fixtures/<lint>/` for one
//! file that must trigger each lint and one that must pass — those fixtures
//! run as unit tests here, so a lint that silently stops matching fails CI.

use crate::source::{Line, SourceFile};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub rel: String,
    /// 1-based line number.
    pub line: usize,
    /// Lint name (what a `tidy:allow` must name).
    pub lint: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.rel, self.line, self.lint, self.msg
        )
    }
}

/// A `codec-exhaustive` rule: every variant of `enum_name` (defined in the
/// file whose rel path ends with `def_suffix`) must appear as
/// `Enum::Variant` in the file ending with `match_suffix`.
pub struct EnumMatchRule {
    pub enum_name: &'static str,
    pub def_suffix: &'static str,
    pub match_suffix: &'static str,
}

/// The tree's codec rules: the durability codec must name every `Value`
/// variant, so adding a variant without teaching the codec is caught
/// before it becomes silent tag drift on disk.
pub const CODEC_RULES: &[EnumMatchRule] = &[EnumMatchRule {
    enum_name: "Value",
    def_suffix: "crates/types/src/value.rs",
    match_suffix: "crates/durability/src/codec.rs",
}];

/// Crates whose non-test code must be panic-free: recovery must degrade to
/// `Err`, and the cache/executor run under RAII guards whose cleanup a
/// panic would skip or poison.
const NO_PANIC_CRATES: &[&str] = &[
    "crates/durability/src/",
    "crates/cache/src/",
    "crates/exec/src/",
    // The SQL front end parses untrusted wire input; the server holds
    // per-connection sessions that must outlive any one bad request.
    "crates/sql/src/",
    "crates/server/src/",
];

/// The one file allowed to touch raw threads: the persistent worker pool
/// (workers are spawned exactly once there, joined on drop). Even the
/// morsel scheduler in `parallel.rs` may not spawn — phases borrow pool
/// workers through `WorkerPool::run_phase`.
const SPAWN_HOME: &str = "crates/exec/src/pool.rs";

fn diag(out: &mut Vec<Diagnostic>, f: &SourceFile, idx: usize, lint: &'static str, msg: String) {
    out.push(Diagnostic {
        rel: f.rel.clone(),
        line: idx + 1,
        lint,
        msg,
    });
}

/// Skip test code and lines carrying an explicit allow.
fn live(line: &Line, lint: &str) -> bool {
    !line.in_test && !line.allows(lint)
}

// ------------------------------------------------------------ no-std-hasher

/// Forbid `DefaultHasher`/`RandomState` outside test code: both are seeded
/// or unspecified per process/toolchain, and fingerprint + shard routing
/// must be identical across processes for warm restart (use
/// `hashstash_types::StableHasher`, `Value::key64` or
/// `ShapeKey::stable_hash` instead).
fn no_std_hasher(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    const LINT: &str = "no-std-hasher";
    for (i, line) in f.lines.iter().enumerate() {
        if !live(line, LINT) {
            continue;
        }
        for tok in ["DefaultHasher", "RandomState"] {
            if line.code.contains(tok) {
                diag(
                    out,
                    f,
                    i,
                    LINT,
                    format!(
                        "{tok} is process-seeded / version-dependent; route hashing through \
                         the pinned FNV-1a (StableHasher, Value::key64, ShapeKey::stable_hash)"
                    ),
                );
            }
        }
    }
}

// ----------------------------------------------------------- no-panic-paths

/// Forbid `unwrap()`/`expect()`/`panic!` in the durability, cache and exec
/// crates' non-test code, and inside *any* `Drop` impl anywhere (a panic
/// in `Drop` during unwind aborts the process). Intentional sites carry
/// `// tidy:allow(no-panic-paths): <why it cannot fire>`.
fn no_panic_paths(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    const LINT: &str = "no-panic-paths";
    let gated_crate = NO_PANIC_CRATES.iter().any(|p| f.rel.starts_with(p));
    for (i, line) in f.lines.iter().enumerate() {
        if !live(line, LINT) {
            continue;
        }
        if !gated_crate && !line.in_drop {
            continue;
        }
        for tok in [".unwrap()", ".expect(", "panic!"] {
            if line.code.contains(tok) {
                let place = if line.in_drop {
                    "inside a Drop impl (a panic during unwind aborts)"
                } else {
                    "in a panic-free crate (recovery and guards must degrade to Err)"
                };
                diag(out, f, i, LINT, format!("{tok} {place}"));
            }
        }
    }
}

// ------------------------------------------------------------- no-raw-spawn

/// All engine threads live in the persistent worker pool; raw
/// `std::thread::{spawn,scope}` anywhere else bypasses the worker-count
/// knob, the cost model's dispatch pricing, pool shutdown-join on drop,
/// and the determinism battery.
fn no_raw_spawn(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    const LINT: &str = "no-raw-spawn";
    if f.rel == SPAWN_HOME {
        return;
    }
    for (i, line) in f.lines.iter().enumerate() {
        if !live(line, LINT) {
            continue;
        }
        for tok in ["thread::spawn", "thread::scope"] {
            if line.code.contains(tok) {
                diag(
                    out,
                    f,
                    i,
                    LINT,
                    format!("{tok} outside {SPAWN_HOME}; use the worker pool"),
                );
            }
        }
    }
}

// ------------------------------------------------------ no-value-in-kernels

/// The columnar kernel module: selection vectors and monomorphized key /
/// range kernels only. A live `Value` token there means per-row boxed
/// scalars crept back into a hot loop — predicate lowering (which
/// legitimately inspects boxed bounds) belongs in `exec.rs`, which hands
/// down `RangeKernel`s.
const KERNEL_HOME: &str = "crates/exec/src/vector.rs";

/// Whether `code` contains `Value` as a whole identifier (not as a prefix
/// or suffix of a longer one, so `KeyValue`/`Values` don't count).
fn has_value_token(code: &str) -> bool {
    let bytes = code.as_bytes();
    let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut from = 0;
    while let Some(at) = code[from..].find("Value") {
        let at = from + at;
        let end = at + "Value".len();
        if (at == 0 || !ident(bytes[at - 1])) && (end == code.len() || !ident(bytes[end])) {
            return true;
        }
        from = end;
    }
    false
}

/// Keep the kernel module scalar-free: typed slices and `key64_*`
/// primitives only, so the per-batch loops never allocate per row.
fn no_value_in_kernels(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    const LINT: &str = "no-value-in-kernels";
    if f.rel != KERNEL_HOME {
        return;
    }
    for (i, line) in f.lines.iter().enumerate() {
        if !live(line, LINT) {
            continue;
        }
        if has_value_token(&line.code) {
            diag(
                out,
                f,
                i,
                LINT,
                "boxed scalar `Value` in the kernel module; kernels run over typed \
                 slices — lower the predicate in exec.rs and hand down a RangeKernel"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------- lock-discipline

/// If `code` declares a struct field, return its name. Heuristic: an
/// optionally-`pub` identifier directly followed by `:` (not `::`).
fn field_name(code: &str) -> Option<&str> {
    let mut t = code.trim_start();
    if let Some(after) = t.strip_prefix("pub") {
        // Only strip `pub` when it is a keyword (followed by whitespace or
        // a visibility paren), not an ident prefix as in `pubx: …`.
        if after.starts_with(|c: char| c.is_whitespace() || c == '(') {
            let after = after.trim_start();
            t = match after.strip_prefix('(') {
                Some(vis) => vis.split_once(')')?.1.trim_start(),
                None => after,
            };
        }
    }
    let end = t
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(t.len());
    if end == 0 || t.as_bytes()[0].is_ascii_digit() {
        return None;
    }
    let (name, rest) = t.split_at(end);
    if matches!(
        name,
        "fn" | "let" | "use" | "type" | "impl" | "const" | "static" | "return" | "match" | "if"
    ) {
        return None;
    }
    let rest = rest.trim_start();
    if rest.starts_with(':') && !rest.starts_with("::") {
        Some(name)
    } else {
        None
    }
}

/// Parse `lock-order: <level> (<description>)` out of a raw comment line.
/// Returns `Some(Ok(level))`, `Some(Err(()))` for a malformed annotation,
/// `None` when the line has no annotation at all.
fn parse_lock_order(raw: &str) -> Option<Result<u32, ()>> {
    let at = raw.find("lock-order:")?;
    let rest = raw[at + "lock-order:".len()..].trim_start();
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    if digits.is_empty() {
        return Some(Err(()));
    }
    Some(digits.parse::<u32>().map_err(|_| ()))
}

/// Every `Mutex`/`RwLock` field must declare its place in the global lock
/// order via `// lock-order: <level> (<name>)` on its own line or in the
/// comment block above. tidy builds the declared order across the tree and rejects
/// missing annotations and level collisions, so the ordering the runtime
/// `analysis` tracker asserts is always written down next to the lock.
fn lock_discipline(
    f: &SourceFile,
    out: &mut Vec<Diagnostic>,
    declared: &mut Vec<(String, usize, String, u32)>,
) {
    const LINT: &str = "lock-discipline";
    for (i, line) in f.lines.iter().enumerate() {
        if !live(line, LINT) {
            continue;
        }
        if !(line.code.contains("Mutex<") || line.code.contains("RwLock<")) {
            continue;
        }
        let Some(name) = field_name(&line.code) else {
            continue; // not a field declaration (local, return type, …)
        };
        // The annotation may trail the field or live anywhere in the
        // contiguous comment block above it (annotations wrap, and doc
        // comments or attributes may share the block).
        let ann = parse_lock_order(&line.raw).or_else(|| {
            let mut j = i;
            while j > 0 {
                j -= 1;
                let prev = &f.lines[j];
                if prev.raw.trim_start().starts_with("//") {
                    if let Some(found) = parse_lock_order(&prev.raw) {
                        return Some(found);
                    }
                } else if !prev.code.trim_start().starts_with("#[") {
                    return None;
                }
            }
            None
        });
        match ann {
            None => diag(
                out,
                f,
                i,
                LINT,
                format!(
                    "lock field `{name}` has no `// lock-order: <level> (<name>)` annotation; \
                     see the lock-order table in README `Correctness tooling`"
                ),
            ),
            Some(Err(())) => diag(
                out,
                f,
                i,
                LINT,
                format!("malformed lock-order annotation on field `{name}` (want `lock-order: <level> (<name>)`)"),
            ),
            Some(Ok(level)) => declared.push((f.rel.clone(), i + 1, name.to_string(), level)),
        }
    }
}

/// Cross-file half of `lock-discipline`: the declared levels must form a
/// total order — two distinct lock fields on the same level would make the
/// order ambiguous exactly where it matters.
fn lock_discipline_finish(declared: &[(String, usize, String, u32)], out: &mut Vec<Diagnostic>) {
    for (i, (rel, line, name, level)) in declared.iter().enumerate() {
        for (rel2, line2, name2, level2) in &declared[i + 1..] {
            if level == level2 {
                out.push(Diagnostic {
                    rel: rel.clone(),
                    line: *line,
                    lint: "lock-discipline",
                    msg: format!(
                        "lock-order level {level} declared for both `{name}` and `{name2}` \
                         ({rel2}:{line2}); every lock class needs its own level"
                    ),
                });
            }
        }
    }
}

// --------------------------------------------------------- codec-exhaustive

/// Extract the variant names of `pub enum <name>` from a file.
fn enum_variants(f: &SourceFile, name: &str) -> Option<(usize, Vec<String>)> {
    let header_a = format!("pub enum {name} ");
    let header_b = format!("pub enum {name}{{");
    let start = f.lines.iter().position(|l| {
        let c = l.code.trim_start();
        c.starts_with(&header_a) || c.starts_with(&header_b)
    })?;
    let mut depth = 0usize;
    let mut opened = false;
    let mut variants = Vec::new();
    for line in &f.lines[start..] {
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        if opened && depth == 1 {
            let t = line.code.trim_start();
            let end = t
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(t.len());
            if end > 0 && t.as_bytes()[0].is_ascii_uppercase() {
                variants.push(t[..end].to_string());
            }
        }
        if opened && depth == 0 {
            break;
        }
    }
    Some((start + 1, variants))
}

/// Every persisted enum's variants must be named in the codec: a variant
/// added to `Value` without a codec arm becomes a silent
/// decode failure (or an `unknown tag`) on the next restart.
fn codec_exhaustive(files: &[SourceFile], rules: &[EnumMatchRule], out: &mut Vec<Diagnostic>) {
    const LINT: &str = "codec-exhaustive";
    for rule in rules {
        let Some(def) = files.iter().find(|f| f.rel.ends_with(rule.def_suffix)) else {
            out.push(Diagnostic {
                rel: rule.def_suffix.to_string(),
                line: 1,
                lint: LINT,
                msg: format!("definition file for enum {} not found", rule.enum_name),
            });
            continue;
        };
        let Some((def_line, variants)) = enum_variants(def, rule.enum_name) else {
            out.push(Diagnostic {
                rel: def.rel.clone(),
                line: 1,
                lint: LINT,
                msg: format!("pub enum {} not found", rule.enum_name),
            });
            continue;
        };
        let Some(codec) = files.iter().find(|f| f.rel.ends_with(rule.match_suffix)) else {
            out.push(Diagnostic {
                rel: rule.match_suffix.to_string(),
                line: 1,
                lint: LINT,
                msg: format!("codec file for enum {} not found", rule.enum_name),
            });
            continue;
        };
        let codec_code: String = codec
            .lines
            .iter()
            .map(|l| l.code.as_str())
            .collect::<Vec<_>>()
            .join("\n");
        for v in variants {
            let qualified = format!("{}::{v}", rule.enum_name);
            if !codec_code.contains(&qualified) {
                out.push(Diagnostic {
                    rel: def.rel.clone(),
                    line: def_line,
                    lint: LINT,
                    msg: format!(
                        "variant {qualified} has no arm in {}; encode/decode it (and bump the \
                         format) before it reaches disk",
                        codec.rel
                    ),
                });
            }
        }
    }
}

// ------------------------------------------------------------------ driver

/// Run every lint over the analyzed files. `rules` parameterizes
/// `codec-exhaustive` so the fixture tests can point it at fixture enums.
pub fn run(files: &[SourceFile], rules: &[EnumMatchRule]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut locks = Vec::new();
    for f in files {
        for (i, line) in f.lines.iter().enumerate() {
            // Test code may quote broken allows as data; live code may not.
            if line.malformed_allow && !line.in_test {
                diag(
                    &mut out,
                    f,
                    i,
                    "tidy",
                    "malformed tidy:allow — want `tidy:allow(<lint>): <reason>`".to_string(),
                );
            }
        }
        no_std_hasher(f, &mut out);
        no_panic_paths(f, &mut out);
        no_raw_spawn(f, &mut out);
        no_value_in_kernels(f, &mut out);
        lock_discipline(f, &mut out, &mut locks);
    }
    lock_discipline_finish(&locks, &mut out);
    codec_exhaustive(files, rules, &mut out);
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::analyze;
    use std::path::Path;

    /// Analyze a fixture file under a synthetic rel path that puts it in
    /// the lint's scope (fixtures are *not* scanned by the real tidy walk).
    fn fixture(lint: &str, which: &str, rel: &str) -> SourceFile {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(lint)
            .join(which);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("fixture {} missing: {e}", path.display()));
        analyze(rel.to_string(), &text, false)
    }

    fn run_one(lint: &'static str, which: &str, rel: &str) -> Vec<Diagnostic> {
        let f = fixture(lint, which, rel);
        let rules: &[EnumMatchRule] = if lint == "codec-exhaustive" {
            &[EnumMatchRule {
                enum_name: "Value",
                def_suffix: "fixture.rs",
                match_suffix: "fixture.rs",
            }]
        } else {
            &[]
        };
        run(std::slice::from_ref(&f), rules)
            .into_iter()
            .filter(|d| d.lint == lint)
            .collect()
    }

    /// Each lint must fire on its trigger fixture and stay silent on its
    /// pass fixture — a lint that rots fails here, not in review.
    #[test]
    fn every_lint_has_a_firing_trigger_and_a_clean_pass() {
        let cases: &[(&'static str, &str)] = &[
            ("no-std-hasher", "crates/opt/src/fixture.rs"),
            ("no-panic-paths", "crates/cache/src/fixture.rs"),
            ("no-raw-spawn", "crates/opt/src/fixture.rs"),
            ("no-value-in-kernels", "crates/exec/src/vector.rs"),
            ("lock-discipline", "crates/core/src/fixture.rs"),
            ("codec-exhaustive", "crates/durability/src/fixture.rs"),
        ];
        for (lint, rel) in cases {
            let fired = run_one(lint, "trigger.rs", rel);
            assert!(
                !fired.is_empty(),
                "[{lint}] trigger.rs produced no diagnostics"
            );
            let clean = run_one(lint, "pass.rs", rel);
            assert!(
                clean.is_empty(),
                "[{lint}] pass.rs produced diagnostics: {clean:?}"
            );
        }
    }

    #[test]
    fn panic_paths_gate_drop_impls_everywhere() {
        // Outside the panic-free crates, unwrap is fine in ordinary code…
        let ok = analyze(
            "crates/opt/src/f.rs".into(),
            "fn f() { x.unwrap(); }",
            false,
        );
        assert!(run(std::slice::from_ref(&ok), &[])
            .iter()
            .all(|d| d.lint != "no-panic-paths"));
        // …but not inside a Drop impl.
        let bad = analyze(
            "crates/opt/src/f.rs".into(),
            "impl Drop for G {\n    fn drop(&mut self) { self.x.unwrap(); }\n}",
            false,
        );
        assert!(run(std::slice::from_ref(&bad), &[])
            .iter()
            .any(|d| d.lint == "no-panic-paths"));
    }

    #[test]
    fn spawn_home_is_exempt() {
        let f = analyze(
            "crates/exec/src/pool.rs".into(),
            "fn workers() { std::thread::Builder::new(); std::thread::scope(|s| {}); }",
            false,
        );
        assert!(run(std::slice::from_ref(&f), &[])
            .iter()
            .all(|d| d.lint != "no-raw-spawn"));
    }

    #[test]
    fn duplicate_lock_levels_are_rejected() {
        let a = analyze(
            "crates/a/src/a.rs".into(),
            "struct A {\n    // lock-order: 7 (a)\n    m: Mutex<u8>,\n}",
            false,
        );
        let b = analyze(
            "crates/b/src/b.rs".into(),
            "struct B {\n    // lock-order: 7 (b)\n    n: Mutex<u8>,\n}",
            false,
        );
        let out = run(&[a, b], &[]);
        assert!(out
            .iter()
            .any(|d| d.lint == "lock-discipline" && d.msg.contains("level 7")));
    }
}
