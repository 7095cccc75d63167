//! End-to-end tests of the installed `ipmark` binary: real process spawns,
//! real files, real exit codes.

use std::path::PathBuf;
use std::process::Command;

fn ipmark() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ipmark"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ipmark-bin-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn help_exits_zero_and_prints_usage() {
    let out = ipmark().arg("help").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("verify"));
}

#[test]
fn unknown_command_exits_with_usage_code() {
    let out = ipmark().arg("frobnicate").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"), "stderr: {err}");
    assert!(err.contains("ipmark help"));
}

#[test]
fn simulate_rejects_zero_cycles_before_creating_the_vcd() {
    let vcd = tmp("zero-cycles.vcd");
    let _ = std::fs::remove_file(&vcd);
    let vcd_arg = vcd.to_str().expect("utf-8 temp path");
    let out = ipmark()
        .args(["simulate", "--ip", "A", "--cycles", "0", "--vcd", vcd_arg])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--cycles"), "stderr: {err}");
    assert!(!vcd.exists(), "no VCD may be created for a usage error");

    let out = ipmark()
        .args(["simulate", "--ip", "A", "--cycles", "0"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(!String::from_utf8_lossy(&out.stdout).contains("NaN"));
}

#[test]
fn missing_file_exits_with_failure_code() {
    let out = ipmark()
        .args([
            "verify",
            "--refd",
            "/nonexistent/refd.bin",
            "--dut",
            "/nonexistent/dut.bin",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    assert!(!String::from_utf8_lossy(&out.stderr).is_empty());
}

#[test]
fn acquire_verify_pipeline_through_the_binary() {
    let refd = tmp("refd.bin");
    let dut_good = tmp("dut_good.bin");
    let dut_bad = tmp("dut_bad.bin");

    let acquire = |ip: &str, die: &str, n: &str, seed: &str, path: &PathBuf| {
        let out = ipmark()
            .args([
                "acquire",
                "--ip",
                ip,
                "--die-seed",
                die,
                "--traces",
                n,
                "--cycles",
                "128",
                "--seed",
                seed,
                "--out",
            ])
            .arg(path)
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "acquire failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    acquire("d", "1", "60", "1", &refd);
    acquire("d", "2", "600", "2", &dut_good);
    acquire("a", "3", "600", "3", &dut_bad);

    let out = ipmark()
        .args(["verify", "--refd"])
        .arg(&refd)
        .arg("--dut")
        .arg(&dut_good)
        .arg("--dut")
        .arg(&dut_bad)
        .args(["--k", "15", "--m", "10"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "verify failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let verdict_line = text
        .lines()
        .find(|l| l.contains("VERDICT"))
        .unwrap_or_else(|| panic!("no verdict in:\n{text}"));
    assert!(verdict_line.contains("dut_good"), "verdict: {verdict_line}");
}

#[test]
fn params_command_prints_the_paper_plan() {
    let out = ipmark()
        .args(["params", "--alpha", "10", "--band", "0.05", "--k", "50"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("P(zeta)"), "stdout: {text}");
}
