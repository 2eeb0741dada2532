//! Ratchet on the public surface of the seven library crates.
//!
//! For each crate this counts the lines in `crates/<c>/src/*.rs` that
//! declare a public item, the same lines as
//! `grep -cE '^\s*pub (fn|struct|enum|const|trait|type|static|mod) '`,
//! and fails when a count rises above its ceiling in [`CEILINGS`]. Growing
//! the surface is then a reviewed edit to that table; after a change that
//! shrinks a crate, lower its ceiling to the new count.

use std::fs;
use std::path::Path;

/// `(crate directory, ceiling)`: the most public-item lines each crate may
/// declare.
const CEILINGS: [(&str, usize); 7] = [
    ("numerics", 111),
    ("dft", 113),
    ("sim", 118),
    ("shmem", 49),
    ("sched", 56),
    ("core", 74),
    ("serve", 377),
];

const ITEM_KEYWORDS: [&str; 8] = [
    "fn", "struct", "enum", "const", "trait", "type", "static", "mod",
];

/// True for a line the grep pattern above matches.
fn declares_public_item(line: &str) -> bool {
    line.trim_start()
        .strip_prefix("pub ")
        .and_then(|rest| rest.split_once(' '))
        .is_some_and(|(keyword, _)| ITEM_KEYWORDS.contains(&keyword))
}

/// Public-item lines over the `.rs` files directly under `src`.
fn public_items(src: &Path) -> usize {
    fs::read_dir(src)
        .unwrap_or_else(|e| panic!("reading {}: {e}", src.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .map(|path| {
            fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
                .lines()
                .filter(|line| declares_public_item(line))
                .count()
        })
        .sum()
}

#[test]
fn public_item_counts_stay_under_their_ceilings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let over: Vec<String> = CEILINGS
        .iter()
        .filter_map(|&(krate, ceiling)| {
            let count = public_items(&root.join("crates").join(krate).join("src"));
            (count > ceiling).then(|| format!("ndft_{krate}: {count} > ceiling {ceiling}"))
        })
        .collect();
    assert!(
        over.is_empty(),
        "public surface grew; make the new items private, or raise the \
         ceiling in tests/public_surface.rs in a reviewed change:\n{}",
        over.join("\n")
    );
}

#[test]
fn item_pattern_matches_the_grep() {
    assert!(declares_public_item(
        "pub fn plan(stages: &[KernelDescriptor])"
    ));
    assert!(declares_public_item(
        "    pub const ZERO: KernelCost = KernelCost {"
    ));
    assert!(declares_public_item("pub mod gemm;"));
    assert!(!declares_public_item(
        "pub(crate) fn inflight(&self) -> u64 {"
    ));
    assert!(!declares_public_item("pub use gemm::gemm_f64;"));
    assert!(!declares_public_item("    pub flops: u64,"));
    // `const fn` matches on its `const`, as the grep does.
    assert!(declares_public_item(
        "    pub const fn new(flops: u64) -> Self {"
    ));
    assert!(!declares_public_item("// pub fn commented_out()"));
}
