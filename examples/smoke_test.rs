//! Smoke test: every example binary must run to completion.
//!
//! `cargo test` builds the package's bin targets and exposes their paths
//! via `CARGO_BIN_EXE_<name>`, so this exercises exactly the binaries a
//! user would run. The examples are already written against tiny
//! parameters; each should finish in seconds.

use std::process::Command;

fn run(name: &str, exe: &str) {
    let output = Command::new(exe)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn example `{name}` ({exe}): {e}"));
    assert!(
        output.status.success(),
        "example `{name}` exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    assert!(!output.stdout.is_empty(), "example `{name}` produced no output");
}

#[test]
fn quickstart_runs() {
    run("quickstart", env!("CARGO_BIN_EXE_quickstart"));
}

#[test]
fn attack_and_defense_runs() {
    run("attack_and_defense", env!("CARGO_BIN_EXE_attack_and_defense"));
}

#[test]
fn dp_federated_hospital_runs() {
    run("dp_federated_hospital", env!("CARGO_BIN_EXE_dp_federated_hospital"));
}

#[test]
fn enclave_attestation_runs() {
    run("enclave_attestation", env!("CARGO_BIN_EXE_enclave_attestation"));
}
