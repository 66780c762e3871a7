//! End-to-end tests of the `fastofd` command-line binary: generate →
//! check (violated) → clean → check (satisfied), all through real files.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fastofd"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fastofd_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn generate_check_clean_round_trip() {
    let dir = tmp_dir("roundtrip");
    let data = dir.join("d.csv");
    let onto = dir.join("o.txt");
    let repaired = dir.join("r.csv");
    let repaired_onto = dir.join("ro.txt");

    // 1. Generate a corrupted dataset.
    let out = bin()
        .args(["generate", "--preset", "clinical", "--rows", "800"])
        .args(["--err", "3", "--inc", "4", "--seed", "7"])
        .args(["--out", data.to_str().unwrap()])
        .args(["--onto-out", onto.to_str().unwrap()])
        .output()
        .expect("run generate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(data.exists() && onto.exists());

    // 2. Check: the planted OFD must be violated on the dirty data.
    let out = bin()
        .args(["check", "--data", data.to_str().unwrap()])
        .args(["--ontology", onto.to_str().unwrap()])
        .args(["--ofd", "CC->CTRY"])
        .output()
        .expect("run check");
    assert!(!out.status.success(), "dirty data must fail the check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("VIOLATED"), "{stdout}");

    // 3. Clean.
    let out = bin()
        .args(["clean", "--data", data.to_str().unwrap()])
        .args(["--ontology", onto.to_str().unwrap()])
        .args(["--ofd", "CC->CTRY", "--ofd", "CC,SYMP->MED"])
        .args(["--out", repaired.to_str().unwrap()])
        .args(["--onto-out", repaired_onto.to_str().unwrap()])
        .output()
        .expect("run clean");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("satisfied: true"), "{stdout}");

    // 4. Re-check the repaired artifacts.
    let out = bin()
        .args(["check", "--data", repaired.to_str().unwrap()])
        .args(["--ontology", repaired_onto.to_str().unwrap()])
        .args(["--ofd", "CC->CTRY", "--ofd", "CC,SYMP->MED"])
        .output()
        .expect("run re-check");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("SATISFIED").count(), 2, "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn discover_prints_minimal_ofds() {
    let dir = tmp_dir("discover");
    let data = dir.join("d.csv");
    let onto = dir.join("o.txt");
    let out = bin()
        .args(["generate", "--preset", "kiva", "--rows", "500", "--seed", "3"])
        .args(["--out", data.to_str().unwrap()])
        .args(["--onto-out", onto.to_str().unwrap()])
        .output()
        .expect("run generate");
    assert!(out.status.success());

    let out = bin()
        .args(["discover", "--data", data.to_str().unwrap()])
        .args(["--ontology", onto.to_str().unwrap()])
        .args(["--max-level", "2", "--threads", "2"])
        .output()
        .expect("run discover");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The planted level-2 dependency CC →syn CTRY must appear.
    assert!(stdout.contains("[CC] ->syn CTRY"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn enforce_discovers_rules_and_makes_them_exact() {
    let dir = tmp_dir("enforce");
    let data = dir.join("d.csv");
    let onto = dir.join("o.txt");
    let out = bin()
        .args(["generate", "--preset", "clinical", "--rows", "700"])
        .args(["--err", "3", "--seed", "11"])
        .args(["--out", data.to_str().unwrap()])
        .args(["--onto-out", onto.to_str().unwrap()])
        .output()
        .expect("run generate");
    assert!(out.status.success());

    let out = bin()
        .args(["enforce", "--data", data.to_str().unwrap()])
        .args(["--ontology", onto.to_str().unwrap()])
        .args(["--kappa", "0.9"])
        .output()
        .expect("run enforce");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("all rules exact: true"), "{stdout}");
    assert!(stdout.contains("[CC] ->syn CTRY"), "planted rule recovered: {stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_explain_prints_options() {
    let dir = tmp_dir("explain");
    let data = dir.join("d.csv");
    let onto = dir.join("o.txt");
    let out = bin()
        .args(["generate", "--preset", "demo", "--rows", "600"])
        .args(["--err", "4", "--seed", "21"])
        .args(["--out", data.to_str().unwrap()])
        .args(["--onto-out", onto.to_str().unwrap()])
        .output()
        .expect("run generate");
    assert!(out.status.success());

    let out = bin()
        .args(["check", "--data", data.to_str().unwrap()])
        .args(["--ontology", onto.to_str().unwrap()])
        .args(["--ofd", "CC->CTRY", "--explain"])
        .output()
        .expect("run check --explain");
    assert!(!out.status.success(), "dirty data fails the check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("violated for class"), "{stdout}");
    assert!(stdout.contains("option 1"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

/// A run that trips an execution limit exits with the dedicated
/// INCOMPLETE code (3): the printed partial result is sound, and scripts
/// can tell "finished early under a budget" from an outright failure.
#[test]
fn incomplete_run_exits_with_code_3() {
    let dir = tmp_dir("exit3");
    let data = dir.join("d.csv");
    let onto = dir.join("o.txt");
    let out = bin()
        .args(["generate", "--preset", "clinical", "--rows", "600", "--seed", "5"])
        .args(["--out", data.to_str().unwrap()])
        .args(["--onto-out", onto.to_str().unwrap()])
        .output()
        .expect("run generate");
    assert!(out.status.success());

    let out = bin()
        .args(["discover", "--data", data.to_str().unwrap()])
        .args(["--ontology", onto.to_str().unwrap()])
        .args(["--max-work", "1"])
        .output()
        .expect("run budget-capped discover");
    assert_eq!(
        out.status.code(),
        Some(3),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    // An outright usage error stays on the generic failure code.
    let out = bin().args(["discover"]).output().expect("missing --data");
    assert_eq!(out.status.code(), Some(1));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn out_of_range_kappa_is_a_typed_error() {
    let dir = tmp_dir("kappa");
    let data = dir.join("d.csv");
    let onto = dir.join("o.txt");
    let out = bin()
        .args(["generate", "--preset", "clinical", "--rows", "200", "--seed", "5"])
        .args(["--out", data.to_str().unwrap()])
        .args(["--onto-out", onto.to_str().unwrap()])
        .output()
        .expect("run generate");
    assert!(out.status.success());
    let run = |command: &str, kappa: &str| {
        bin()
            .args([command, "--data", data.to_str().unwrap()])
            .args(["--ontology", onto.to_str().unwrap()])
            .args(["--kappa", kappa, "--max-level", "2"])
            .output()
            .expect("run with --kappa")
    };
    for (command, kappa) in [
        ("discover", "1.5"),
        ("discover", "nan"),
        ("discover", "-0.1"),
        ("discover", "0"),
        ("discover", "abc"),
        ("enforce", "1.5"),
        ("enforce", "0"),
    ] {
        let out = run(command, kappa);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let what = format!("{command} --kappa {kappa}: {stderr}");
        assert_eq!(out.status.code(), Some(1), "{what}");
        assert!(stderr.contains("error:"), "{what}");
        assert!(!stderr.contains("panicked"), "{what}");
    }
    let out = run("discover", "0.9");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("->"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A `--max-body-mib` whose bytes overflow `usize` is a typed error in
/// both serve modes, raised before anything binds or spawns: never an
/// overflow panic, and never a router left listening in front of a worker
/// that died on the flag. The child is polled against a deadline because
/// a router that does start runs until it is killed.
#[test]
fn oversized_max_body_is_a_typed_error() {
    for mode in [&[][..], &["--router", "--workers", "1"][..]] {
        let mut child = bin()
            .args(["serve", "--addr", "127.0.0.1:0", "--max-body-mib", "17592186044416"])
            .args(mode)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn serve");
        let deadline = Instant::now() + Duration::from_secs(20);
        while child.try_wait().expect("poll serve").is_none() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        let _ = child.kill();
        let out = child.wait_with_output().expect("serve output");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let what = format!("serve {mode:?}: {stderr}");
        assert_eq!(out.status.code(), Some(1), "{what}");
        assert!(stderr.contains("error:"), "{what}");
        assert!(!stderr.contains("panicked"), "{what}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("listening on"), "{what}");
    }
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = bin().output().expect("run with no args");
    assert!(!out.status.success());
    let out = bin()
        .args(["discover"])
        .output()
        .expect("missing --data");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--data"));
    let out = bin()
        .args(["frobnicate"])
        .output()
        .expect("unknown command");
    assert!(!out.status.success());
}
