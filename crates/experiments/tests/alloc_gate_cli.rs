//! `bench_sweep` rejects a bad `INTANG_ALLOC_GATE` at startup with exit
//! code 2 and an error naming the variable, instead of panicking after the
//! whole timed run.

use std::process::Command;

#[test]
fn bad_alloc_gates_exit_2_before_the_run() {
    for bad in ["abc", "", "0", "-5", "NaN", "inf", "1e999", "100 trials"] {
        let out = Command::new(env!("CARGO_BIN_EXE_bench_sweep"))
            .arg("--quick")
            .env("INTANG_ALLOC_GATE", bad)
            .env_remove("INTANG_SIMCHECK")
            .output()
            .expect("spawn the bench_sweep binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "INTANG_ALLOC_GATE={bad:?} must exit 2; stderr:\n{stderr}"
        );
        assert!(!stderr.contains("panicked"), "INTANG_ALLOC_GATE={bad:?} panicked:\n{stderr}");
        assert!(
            stderr.contains("INTANG_ALLOC_GATE"),
            "INTANG_ALLOC_GATE={bad:?}: the error must name it:\n{stderr}"
        );
        assert!(
            !stderr.contains("scenario="),
            "INTANG_ALLOC_GATE={bad:?}: rejected only after the run started:\n{stderr}"
        );
    }
}
