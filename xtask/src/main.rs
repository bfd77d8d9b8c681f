//! In-tree developer tooling. Two subcommands:
//!
//! ```text
//! cargo run -p xtask -- tidy
//! cargo run -p xtask -- loc
//! ```
//!
//! `tidy` walks the workspace's Rust sources and enforces the six
//! repo-specific lints (see [`lints`]). Exit code 0 means clean; 1 means
//! diagnostics were printed (one `path:line: [lint] message` per finding);
//! 2 means usage or I/O trouble.
//!
//! `loc` prints the lines of non-test code per crate and in total: every
//! `.rs` file under `crates/*/src`, counted up to its first `#[cfg(test)]`.

mod lints;
mod source;

use std::path::{Path, PathBuf};

/// Directories (relative to the workspace root) whose `.rs` files tidy
/// scans. `vendor/` is third-party, `target/` is build output, and
/// `xtask/fixtures/` holds files that *intentionally* trip lints.
const ROOTS: &[&str] = &["crates", "src", "tests", "examples", "xtask/src"];
const SKIP_DIRS: &[&str] = &["target", "fixtures", "vendor", ".git"];

fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            collect(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn tidy(root: &Path) -> std::io::Result<i32> {
    let mut paths = Vec::new();
    for r in ROOTS {
        let dir = root.join(r);
        if dir.is_dir() {
            collect(&dir, &mut paths)?;
        }
    }
    paths.sort();

    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        // Files under a `tests/` directory are integration tests in their
        // entirety; benches and examples are live code.
        let force_test = rel.starts_with("tests/") || rel.contains("/tests/");
        let text = std::fs::read_to_string(&path)?;
        files.push(source::analyze(rel, &text, force_test));
    }

    let diags = lints::run(&files, lints::CODEC_RULES);
    for d in &diags {
        eprintln!("{d}");
    }
    if diags.is_empty() {
        eprintln!("tidy: {} files clean", files.len());
        Ok(0)
    } else {
        eprintln!(
            "tidy: {} error(s); silence intentional sites with `// tidy:allow(<lint>): <reason>`",
            diags.len()
        );
        Ok(1)
    }
}

/// Lines of `text` before its first `#[cfg(test)]` (all of it if none).
fn live_lines(text: &str) -> usize {
    text.lines()
        .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
        .count()
}

fn loc(root: &Path) -> std::io::Result<i32> {
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))?
        .map(|e| e.map(|e| e.path().join("src")))
        .collect::<std::io::Result<_>>()?;
    crates.retain(|src| src.is_dir());
    crates.sort();
    let mut total = 0;
    for src in crates {
        let mut files = Vec::new();
        collect(&src, &mut files)?;
        let mut lines = 0;
        for f in files {
            lines += live_lines(&std::fs::read_to_string(f)?);
        }
        let rel = src.strip_prefix(root).unwrap_or(&src);
        println!("{:<24} {lines:>6}", rel.display());
        total += lines;
    }
    println!("{:<24} {total:>6}", "total");
    Ok(0)
}

fn main() {
    // xtask lives one level below the workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match args.first().map(String::as_str) {
        Some("tidy") => tidy,
        Some("loc") => loc,
        _ => {
            eprintln!("usage: cargo run -p xtask -- tidy|loc");
            std::process::exit(2);
        }
    };
    let code = run(&root).unwrap_or_else(|e| {
        eprintln!("xtask: i/o error: {e}");
        2
    });
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::live_lines;

    #[test]
    fn live_lines_stop_at_the_first_test_module() {
        assert_eq!(live_lines("a\nb\n"), 2);
        assert_eq!(live_lines("a\n  #[cfg(test)]\nmod t {}\n#[cfg(test)]\n"), 1);
        assert_eq!(live_lines("#[cfg(any(test, feature = \"x\"))]\nb"), 2);
    }
}
