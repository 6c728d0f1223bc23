//! `qres sweep|serve --loads` rejects loads that are not positive, finite
//! numbers with a usage error (exit 2) that names the bad value, instead
//! of panicking in `Scenario::validate` or simulating forever.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use qres::sim::Scenario;

/// Longest a rejected invocation may take before the test kills it.
const DEADLINE: Duration = Duration::from_secs(10);

#[test]
fn non_positive_and_non_finite_loads_are_usage_errors() {
    // `serve` writes telemetry files into its working directory.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_loads");
    std::fs::create_dir_all(&dir).unwrap();
    let template = Scenario::paper_baseline().duration_secs(20.0);
    std::fs::write(dir.join("short.json"), qres_json::to_string(&template)).unwrap();
    for subcommand in ["sweep", "serve"] {
        for bad in ["0", "-5", "nan", "inf"] {
            let args = [subcommand, "short.json", "--loads", &format!("60,{bad}")];
            let mut child = Command::new(env!("CARGO_BIN_EXE_qres"))
                .args(args)
                .current_dir(&dir)
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .unwrap();
            let start = Instant::now();
            while child.try_wait().unwrap().is_none() {
                if start.elapsed() > DEADLINE {
                    child.kill().unwrap();
                    panic!("qres {args:?} still running after {DEADLINE:?}");
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            let out = child.wait_with_output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "qres {args:?}: {stderr}");
            let message = format!("--loads expects positive finite numbers, got `{bad}`");
            assert!(stderr.contains(&message), "qres {args:?}: {stderr}");
        }
    }
}
