//! A sweep binary rejects a bad `INTANG_THREADS` with exit code 2 and an
//! error naming the variable, instead of silently falling back to the
//! machine's parallelism.

use std::process::Command;

/// Run `table1 --quick` with `INTANG_THREADS` set to `value`; returns the
/// exit code and stderr.
fn table1_quick(value: &str) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .arg("--quick")
        .env("INTANG_THREADS", value)
        .env_remove("INTANG_SIMCHECK")
        .output()
        .expect("spawn the table1 binary");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn bad_thread_counts_exit_2_naming_the_variable() {
    for bad in ["0", "many", "-1", "1.5", "", "18446744073709551616"] {
        let (code, stderr) = table1_quick(bad);
        assert_eq!(code, Some(2), "INTANG_THREADS={bad:?} must exit 2; stderr:\n{stderr}");
        assert!(!stderr.contains("panicked"), "INTANG_THREADS={bad:?} panicked:\n{stderr}");
        assert!(
            stderr.contains("INTANG_THREADS"),
            "INTANG_THREADS={bad:?}: the error must name it:\n{stderr}"
        );
    }
}

#[test]
fn a_positive_thread_count_runs() {
    let (code, stderr) = table1_quick("2");
    assert_eq!(code, Some(0), "INTANG_THREADS=2 must run; stderr:\n{stderr}");
}
