//! Host crate for cross-crate integration tests; see `tests/tests/`. The
//! helpers below are shared by those test files.

use std::path::PathBuf;

use volcanoml_core::StudyState;

/// A fresh, empty directory under the system temp dir, unique to this test
/// process (`/` in `name` becomes `-`).
pub fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "volcanoml-it-{}-{}",
        name.replace('/', "-"),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// FNV-1a over the lines, each followed by `\n` — the digest the golden
/// tests pin.
pub fn fnv1a(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in lines
        .iter()
        .flat_map(|l| l.bytes().chain(std::iter::once(b'\n')))
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `StudyState` lines without their wall-clock `cost=<16 hex digits>` field
/// (evaluator log and joint history rows in a cost-blind search) — the only
/// part of a cost-blind search's state that differs between two live runs.
pub fn strip_costs(state: &StudyState) -> Vec<String> {
    state
        .lines
        .iter()
        .map(|l| match l.find(" cost=") {
            Some(i) => format!("{}{}", &l[..i], &l[i + " cost=".len() + 16..]),
            None => l.clone(),
        })
        .collect()
}
