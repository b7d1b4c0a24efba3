//! Records the compiler version and, when built from a git checkout, the commit, so
//! every result names the toolchain and source it was measured with.

use std::path::Path;
use std::process::Command;

fn output(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().to_string()).filter(|t| !t.is_empty())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = output(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    // Only a git work tree rooted at this repository names the commit; a checkout
    // without one (or nested inside another repository) reports "unknown".
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let root = root.canonicalize().unwrap_or(root);
    let root_str = root.to_string_lossy().to_string();
    let toplevel = output("git", &["-C", &root_str, "rev-parse", "--show-toplevel"]);
    let commit = toplevel
        .filter(|t| Path::new(t).canonicalize().ok().as_deref() == Some(root.as_path()))
        .and_then(|_| output("git", &["-C", &root_str, "rev-parse", "--short=12", "HEAD"]))
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
    for head in ["../.git/HEAD", "../.git/index"] {
        if Path::new(head).exists() {
            println!("cargo:rerun-if-changed={head}");
        }
    }
}
