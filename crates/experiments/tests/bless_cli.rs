//! `bench_sweep` accepts only unset, `0` or `1` for `INTANG_BLESS`. Any
//! other value exits 2 at startup with an error naming the variable,
//! instead of `INTANG_BLESS=true` silently skipping the re-bless.

use std::process::Command;

#[test]
fn bad_bless_values_exit_2_before_the_run() {
    for bad in ["true", "yes", "on", "2", "", " 1", "01"] {
        let out = Command::new(env!("CARGO_BIN_EXE_bench_sweep"))
            .arg("--quick")
            .env("INTANG_BLESS", bad)
            .env_remove("INTANG_ALLOC_GATE")
            .env_remove("INTANG_SIMCHECK")
            .output()
            .expect("spawn the bench_sweep binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "INTANG_BLESS={bad:?} must exit 2; stderr:\n{stderr}");
        assert!(!stderr.contains("panicked"), "INTANG_BLESS={bad:?} panicked:\n{stderr}");
        assert!(
            stderr.contains("INTANG_BLESS"),
            "INTANG_BLESS={bad:?}: the error must name it:\n{stderr}"
        );
        assert!(
            !stderr.contains("scenario="),
            "INTANG_BLESS={bad:?}: rejected only after the run started:\n{stderr}"
        );
    }
}
