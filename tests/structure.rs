//! Structural guards: facts about the source tree that keep one
//! implementation per idea. Each test names its guard, and a failure
//! names every offending file and line.
//!
//! The two size bounds are ratchets: a change that deletes lines lowers
//! its bound to where it landed, so the code cannot quietly grow back.

use std::fs;
use std::path::Path;

/// `cat crates/core/src/*.rs crates/net/src/*.rs | wc -l` may not exceed
/// this. ROADMAP item 6 takes the pair down to 8 482.
const CORE_NET_MAX_LINES: usize = 9955;

/// `cat crates/bench/src/lib.rs crates/bench/src/bin/reproduce.rs | wc -l`
/// may not exceed this: every optimised/naive pair of bench-json is one
/// call of one checked helper, and the ACV reference is written once.
const BENCH_MAX_LINES: usize = 2505;

fn read(path: &str) -> String {
    fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(path))
        .unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn exists(path: &str) -> bool {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(path).exists()
}

/// The `*.rs` files under `dir`, subdirectories included, sorted, as
/// repo-relative paths.
fn rust_files(dir: &str) -> Vec<String> {
    let mut files = Vec::new();
    for entry in fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(dir))
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
    {
        let entry = entry.expect("directory entry");
        let path = format!("{dir}/{}", entry.file_name().to_string_lossy());
        if entry.path().is_dir() {
            files.extend(rust_files(&path));
        } else if path.ends_with(".rs") {
            files.push(path);
        }
    }
    files.sort();
    files
}

/// Every `crates/*/src` file.
fn crate_sources() -> Vec<String> {
    let mut files = Vec::new();
    for entry in
        fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("crates")).expect("crates/")
    {
        let name = entry.expect("directory entry").file_name();
        let dir = format!("crates/{}/src", name.to_string_lossy());
        if exists(&dir) {
            files.extend(rust_files(&dir));
        }
    }
    files.sort();
    files
}

/// The root manifest and every crate's.
fn manifests() -> Vec<String> {
    let mut files = vec!["Cargo.toml".to_string()];
    for entry in
        fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("crates")).expect("crates/")
    {
        let name = entry.expect("directory entry").file_name();
        let manifest = format!("crates/{}/Cargo.toml", name.to_string_lossy());
        if exists(&manifest) {
            files.push(manifest);
        }
    }
    files.sort();
    files
}

/// Newline count, as `wc -l` gives it.
fn line_count(files: &[String]) -> usize {
    files
        .iter()
        .map(|f| read(f).bytes().filter(|b| *b == b'\n').count())
        .sum()
}

/// `file:line: text` for every line of `files` that `hit` matches, up to
/// each file's first `#[cfg(test)]` line when `skip_tests` is set.
fn hits(files: &[String], skip_tests: bool, hit: impl Fn(&str) -> bool) -> Vec<String> {
    let mut found = Vec::new();
    for file in files {
        for (n, line) in read(file).lines().enumerate() {
            if skip_tests && line.starts_with("#[cfg(test)]") {
                break;
            }
            if hit(line) {
                found.push(format!("{file}:{}: {}", n + 1, line.trim()));
            }
        }
    }
    found
}

/// Whether `word` occurs in `line` with no word character on either side
/// (`grep -w`).
fn has_word(line: &str, word: &str) -> bool {
    let is_word = |c: char| c.is_alphanumeric() || c == '_';
    line.match_indices(word).any(|(at, _)| {
        let before = line[..at].chars().next_back();
        let after = line[at + word.len()..].chars().next();
        !before.is_some_and(is_word) && !after.is_some_and(is_word)
    })
}

fn assert_none(guard: &str, found: Vec<String>) {
    assert!(found.is_empty(), "{guard}:\n{}", found.join("\n"));
}

fn assert_absent(guard: &str, paths: &[&str]) {
    let present: Vec<String> = paths
        .iter()
        .filter(|p| exists(p))
        .map(|p| format!("{p} exists"))
        .collect();
    assert_none(guard, present);
}

fn assert_at_most(guard: &str, files: &[String], bound: usize) {
    let total = line_count(files);
    let per_file: Vec<String> = files
        .iter()
        .map(|f| format!("{f}: {}", line_count(std::slice::from_ref(f))))
        .collect();
    assert!(
        total <= bound,
        "{guard}: {total} lines, bound {bound}\n{}",
        per_file.join("\n")
    );
}

/// Size ratchet: `pbcd_core` + `pbcd_net` source lines.
#[test]
fn size_ratchet_core_and_net() {
    let mut files = rust_files("crates/core/src");
    files.extend(rust_files("crates/net/src"));
    assert_at_most("core + net size ratchet", &files, CORE_NET_MAX_LINES);
}

/// Size ratchet: the reproduction harness may not grow back per-pair
/// blocks.
#[test]
fn size_ratchet_bench_harness() {
    let files = [
        "crates/bench/src/lib.rs".to_string(),
        "crates/bench/src/bin/reproduce.rs".to_string(),
    ];
    assert_at_most("pbcd_bench size ratchet", &files, BENCH_MAX_LINES);
}

/// One connection lifecycle: the broker, its relay links and the
/// registration endpoint accept through `crates/net/src/server.rs`. Test
/// modules, which open loopback socket pairs, do not count.
#[test]
fn one_accept_loop() {
    let found = hits(&rust_files("crates/net/src"), true, |l| {
        l.contains(".accept()")
    });
    assert!(
        found.len() == 1,
        "one accept loop: {} `.accept()` lines outside test modules\n{}",
        found.len(),
        found.join("\n")
    );
}

/// Two harnesses, not three (`benchmark/` times the system, `reproduce`
/// the paper), no SHA-1 and one byte codec: neither the criterion
/// stand-in, nor a `sha1.rs` in `pbcd_crypto`, nor the `bytes` stand-in may
/// come back, and no manifest may name criterion or a `bytes` crate.
#[test]
fn no_criterion_sha1_or_bytes_crate() {
    let guard = "no criterion harness, no SHA-1, no bytes crate";
    assert_absent(
        guard,
        &[
            "vendor/criterion",
            "crates/crypto/src/sha1.rs",
            "vendor/bytes",
        ],
    );
    let manifests = manifests();
    assert_none(
        guard,
        hits(&manifests, false, |l| {
            l.to_lowercase().contains("criterion") || has_word(l, "bytes")
        }),
    );
}

/// One verification path: the prepared-key check. Straus double
/// exponentiation may not come back as a second one (the word boundary
/// spares the `exp2_total` tally).
#[test]
fn no_second_verification_path() {
    let found = hits(&rust_files("crates/group/src"), false, |l| {
        l.contains("fn straus2") || has_word(l, "fn exp2")
    });
    assert_none("no second verification path", found);
}

/// One field inversion: the constant-time safegcd `p256_field::inv`. The
/// variable-time binary xgcd may not come back beside it.
#[test]
fn one_field_inversion() {
    let found = hits(&rust_files("crates/group/src"), false, |l| {
        l.contains("fn inv_vartime")
    });
    assert_none("one field inversion", found);
}

/// One broadcast path: no parallelism switch, no second encrypt path, and
/// no 64-bit child seeds (each configuration gets a full seed).
#[test]
fn no_second_broadcast_path() {
    let files = ["crates/core/src/publisher.rs".to_string()];
    let found = hits(&files, false, |l| {
        [
            "parallel_broadcast",
            "encrypt_groups_parallel",
            "seed_from_u64",
        ]
        .iter()
        .any(|p| l.contains(p))
    });
    assert_none("no second broadcast path", found);
}

/// One ACV row function: a ChaCha20 keystream per row. The per-entry
/// SHA-256 midstate path may not come back beside it.
#[test]
fn one_acv_row_function() {
    let files = ["crates/gkm/src/acv.rs".to_string()];
    let found = hits(&files, false, |l| l.contains("midstate.clone()"));
    assert_none("one ACV row function", found);
}

/// One AEAD: ChaCha20-Poly1305. Neither the AES kernel nor an HMAC tag
/// may come back beside it as a second cipher.
#[test]
fn one_aead() {
    let guard = "one AEAD (no AES module, no HMAC in authenc)";
    assert_absent(guard, &["crates/crypto/src/aes.rs"]);
    let files = ["crates/crypto/src/authenc.rs".to_string()];
    assert_none(guard, hits(&files, false, |l| l.contains("Hmac")));
}

/// One bulk digest: BLAKE2b is the container digest of a signed publish
/// and nothing else, so a second hash does not spread without a decision.
/// Outside test modules, the only lines that name it are its module
/// (`crates/crypto/src/blake2b.rs` and its `pub mod`), the one re-export
/// in `pbcd_group` and the one call, in `frame::publish_auth_message`.
#[test]
fn one_bulk_digest() {
    let mut files = rust_files("src");
    files.extend(rust_files("examples"));
    files.extend(crate_sources());
    files.retain(|f| f != "crates/crypto/src/blake2b.rs");
    let mut found = Vec::new();
    for file in &files {
        let mut in_fn = "";
        for (n, line) in read(file).lines().enumerate() {
            let code = line.trim();
            if line.starts_with("#[cfg(test)]") {
                break;
            }
            if code.starts_with("//") {
                continue;
            }
            if let Some(at) = code.find("fn ") {
                in_fn = &code[at + 3..];
            }
            let allowed = match file.as_str() {
                "crates/crypto/src/lib.rs" => code == "pub mod blake2b;",
                "crates/group/src/lib.rs" => code == "pub use pbcd_crypto::blake2b::blake2b_256;",
                "crates/net/src/frame.rs" => in_fn.starts_with("publish_auth_message("),
                _ => false,
            };
            if code.to_lowercase().contains("blake2") && !allowed {
                found.push(format!("{file}:{}: {code}", n + 1));
            }
        }
    }
    assert_none("one bulk digest", found);
}

/// One CSS table: `pbcd_gkm::CssTable`, one map behind one lock. The
/// sharded table and its shard-count knob may not come back beside it,
/// and the publisher service may not cache request generators per thread
/// again (each request runs on a generator from a full 32-byte seed).
#[test]
fn one_css_table() {
    let mut found = hits(&crate_sources(), false, |l| {
        ["ShardedCssTable", "DEFAULT_CSS_SHARDS", "with_shards"]
            .iter()
            .any(|p| l.contains(p))
    });
    let service = ["crates/core/src/service.rs".to_string()];
    found.extend(hits(&service, false, |l| l.contains("thread_local!")));
    assert_none("one CSS table", found);
}
