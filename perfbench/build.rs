//! Records the compiler version and the source commit for the
//! benchmark's provenance line.

use std::process::Command;

fn capture(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = capture(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    // An exported tree has no git metadata; do not let git find the
    // repository of some enclosing directory instead.
    let commit = std::path::Path::new("../.git")
        .exists()
        .then(|| capture("git", &["-C", "..", "rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
    if std::path::Path::new("../.git").exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
        println!("cargo:rerun-if-changed=../.git/refs/heads");
    }
}
