//! The five run switches (`INTANG_BATCH`, `INTANG_FLIGHT`, `INTANG_SERIES`,
//! `INTANG_SPANS`, `INTANG_SIMCHECK`) accept only unset, `0` or `1`. Any
//! other value exits 2 with an error naming the variable before a run
//! starts, instead of silently meaning "on" (`INTANG_SIMCHECK=false` once
//! enabled the checker, and `INTANG_BATCH=off` left batching on).

use std::process::Command;

const SWITCHES: [&str; 5] = ["INTANG_BATCH", "INTANG_FLIGHT", "INTANG_SERIES", "INTANG_SPANS", "INTANG_SIMCHECK"];

/// Run `bin` with `args` and the switch `name` set to `value` (the other
/// switches unset); returns the exit code, stdout and stderr.
fn run(bin: &str, args: &[&str], name: &str, value: &str) -> (Option<i32>, String, String) {
    let mut cmd = Command::new(bin);
    cmd.args(args);
    for s in SWITCHES {
        cmd.env_remove(s);
    }
    let out = cmd.env(name, value).output().expect("spawn the binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_switch_values_exit_2_naming_the_variable() {
    let bins = [
        (env!("CARGO_BIN_EXE_table1"), &["--quick"][..]),
        (env!("CARGO_BIN_EXE_metropolis"), &["--quick"][..]),
    ];
    for (bin, args) in bins {
        for name in SWITCHES {
            for bad in ["false", "off", "true", "yes", "2", "", " 1", "01"] {
                let (code, stdout, stderr) = run(bin, args, name, bad);
                assert_eq!(code, Some(2), "{bin} {name}={bad:?} must exit 2; stderr:\n{stderr}");
                assert!(!stderr.contains("panicked"), "{bin} {name}={bad:?} panicked:\n{stderr}");
                assert!(stderr.contains(name), "{bin} {name}={bad:?}: the error must name it:\n{stderr}");
                assert!(stdout.is_empty(), "{bin} {name}={bad:?} started a run:\n{stdout}");
            }
        }
    }
}

#[test]
fn zero_and_one_run() {
    for (name, value) in [("INTANG_BATCH", "0"), ("INTANG_SERIES", "1")] {
        let (code, _, stderr) = run(env!("CARGO_BIN_EXE_table1"), &["--quick"], name, value);
        assert_eq!(code, Some(0), "{name}={value} must run; stderr:\n{stderr}");
    }
}
