//! The `--kernel` flag of `ukc solve` against the real binary: both
//! kernel names solve, `blocked` (the name of a retired kernel) is
//! accepted as an alias of `tiled`, and an unknown name is a usage
//! error.

use std::process::{Command, Output};

use ukc_json::Json;

fn ukc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ukc"))
        .args(args)
        .output()
        .expect("run ukc")
}

#[test]
fn solve_accepts_blocked_as_an_alias_of_tiled() {
    let dir = std::env::temp_dir().join(format!("ukc-kernel-flag-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("inst.json");
    let inst = path.to_str().expect("utf-8 temp path");
    let generate = ukc(&[
        "generate",
        "--workload",
        "clustered",
        "--n",
        "40",
        "--z",
        "3",
        "--dim",
        "4",
        "--seed",
        "5",
        "--out",
        inst,
    ]);
    assert!(
        generate.status.success(),
        "{}",
        String::from_utf8_lossy(&generate.stderr)
    );

    // The solution fields (timings aside) of a JSON solve.
    let solve = |kernel: &str| {
        let out = ukc(&[
            "solve",
            "--instance",
            inst,
            "--k",
            "3",
            "--kernel",
            kernel,
            "--format",
            "json",
        ]);
        assert!(
            out.status.success(),
            "--kernel {kernel}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("JSON solve output");
        ["centers", "assignment", "ecost", "certain_radius"]
            .map(|key| doc.get(key).expect("solution field").compact())
    };
    assert_eq!(solve("blocked"), solve("tiled"));
    assert_eq!(solve("scalar")[1], solve("tiled")[1], "assignment");

    let unknown = ukc(&["solve", "--instance", inst, "--k", "3", "--kernel", "simd"]);
    assert!(!unknown.status.success());
    assert!(String::from_utf8_lossy(&unknown.stderr).contains("--kernel"));
    let _ = std::fs::remove_dir_all(&dir);
}
