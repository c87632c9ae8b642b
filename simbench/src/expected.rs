//! Simulated statistics pinned at the default seed: one FNV-1a digest of
//! each cell's full statistics per line, `<cell key> <digest> <ipc>` (the
//! IPC is for the reader; only the digest is compared).

use std::collections::BTreeMap;
use std::path::PathBuf;

/// The pinned file's text for `workload`, empty if it has none.
pub fn text(workload: &str) -> &'static str {
    match workload {
        "grid_fast" => include_str!("../expected/grid_fast.txt"),
        "mem_steady" => include_str!("../expected/mem_steady.txt"),
        "mix_contention" => include_str!("../expected/mix_contention.txt"),
        _ => "",
    }
}

/// Cell key → pinned digest.
pub fn parse(text: &str) -> BTreeMap<&str, &str> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            Some((it.next()?, it.next()?))
        })
        .collect()
}

/// Renders `(key, digest, ipc)` rows in the pinned format.
pub fn render(workload: &str, rows: &[(String, String, f64)]) -> String {
    let mut out = format!(
        "# {workload}: simulated statistics at the default seed (cell, FNV-1a digest, IPC).\n\
         # Regenerate with `--bless` only when simulated behaviour changes on purpose.\n"
    );
    for (key, digest, ipc) in rows {
        out.push_str(&format!("{key} {digest} {ipc}\n"));
    }
    out
}

/// Where `--bless` writes `workload`'s pinned file.
pub fn path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{workload}.txt"))
}
