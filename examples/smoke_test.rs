//! Smoke test: every example binary must run to completion.
//!
//! `cargo test` builds the package's bin targets and exposes their paths
//! via `CARGO_BIN_EXE_<name>`, so this exercises exactly the binaries a
//! user would run. The examples are already written against tiny
//! parameters; each should finish in seconds.
//!
//! A child process is also the one place a test can set `OLIVE_FAULTS`
//! (the plan is parsed once per process), so the two cases that pin where
//! the environment plan is armed live here, on `quickstart`'s 8 rounds.

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

/// `quickstart` under exactly `envs`: every other `OLIVE_*` knob unset.
fn quickstart_under(envs: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_quickstart"));
    for (knob, _) in std::env::vars().filter(|(knob, _)| knob.starts_with("OLIVE_")) {
        cmd.env_remove(knob);
    }
    cmd.envs(envs.iter().copied()).output().expect("failed to spawn quickstart")
}

/// The environment plan is armed where a round starts, at every S: a
/// scripted coordinator crash ends an unsharded run too.
#[test]
fn env_fault_plan_is_armed_on_unsharded_rounds() {
    let out = quickstart_under(&[("OLIVE_CHUNK", "2"), ("OLIVE_FAULTS", "crash@0")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "crash@0 must interrupt round 0 at S = 1");
    assert!(stderr.contains("CoordinatorKilled"), "stderr names the crash:\n{stderr}");
}

/// ... and armed afresh by every round: an event no round reaches
/// (`kill@99.0`) must not outlive its round as a script of its own and
/// keep the plan from re-arming.
#[test]
fn env_fault_plan_is_armed_afresh_by_every_round() {
    let envs = [
        ("OLIVE_SHARDS", "2"),
        ("OLIVE_FAULTS", "kill@0.0,kill@99.0"),
        ("OLIVE_METRICS", "stdout"),
    ];
    let out = quickstart_under(&envs);
    assert!(out.status.success(), "shard kills recover in-band");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let relaunches = stdout.lines().filter(|l| l.contains("\"name\":\"shard_relaunch\"")).count();
    assert_eq!(relaunches, 8, "kill@0.0 relaunches shard 0 once in each of the 8 rounds");
}
