//! The binary's exit-code contract: a run the program refuses to attempt
//! prints one `error:` line on stderr and exits 1, never a panic (101).

use std::process::Command;

#[test]
fn ctrl_with_k_past_the_parser_budget_is_an_error_not_a_panic() {
    let out = Command::new(env!("CARGO_BIN_EXE_switchml-cli"))
        .args(["ctrl", "--k", "64"])
        .output()
        .expect("run switchml-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.starts_with("error: job admission:"), "{stderr}");
    assert!(stderr.contains("max_k"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
