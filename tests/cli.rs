//! The `shidiannao` command line turns a bad accelerator configuration
//! into a one-line error and exit status 1, never a panic.

use std::process::Command;

#[test]
fn zero_pe_mesh_is_a_one_line_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_shidiannao"))
        .args(["--pe", "0", "LeNet-5"])
        .output()
        .expect("the CLI starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert_eq!(
        stderr.trim_end(),
        "invalid accelerator configuration: PE mesh must be non-empty"
    );
    assert!(out.stdout.is_empty());
}

#[test]
fn oversized_pe_mesh_is_a_one_line_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_shidiannao"))
        .args(["--pe", "100000", "LeNet-5"])
        .output()
        .expect("the CLI starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert_eq!(
        stderr.trim_end(),
        "invalid accelerator configuration: PE mesh 100000 x 100000 exceeds the 256 x 256 bound"
    );
    assert!(out.stdout.is_empty());
}
