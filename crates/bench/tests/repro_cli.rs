//! The `repro` command line as a contract: which names it accepts, how it
//! fails on what it does not understand, and that it leaves nothing behind
//! in the directory it runs in.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, Output};

/// Every accepted experiment name, in the order the usage line prints them.
const NAMES: &[&str] = &[
    "fig3-left",
    "fig3-right",
    "fig4",
    "transfer-time",
    "transfer",
    "transfer-traffic",
    "transfer-ablation",
    "fig5",
    "fig5-time",
    "fig5-traffic",
    "fig6",
    "rounds",
    "scenarios",
    "analyze",
    "naive-baseline",
    "utility",
    "edge-privacy",
    "contagion",
    "all",
];

/// Experiments earlier revisions had; `benchmark/` workloads and named
/// tests answer their questions now.
const DELETED: &[&str] = &["scale", "persist", "sockets", "concurrency", "bytes"];

struct Cwd(PathBuf);

impl Cwd {
    fn fresh() -> Cwd {
        let dir = std::env::temp_dir().join(format!("dstress-repro-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir is creatable");
        Cwd(dir)
    }

    fn repro(&self, args: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .current_dir(&self.0)
            .output()
            .expect("repro binary runs")
    }
}

impl Drop for Cwd {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The names on the `experiments:` line of a usage message.
fn usage_names(stderr: &[u8]) -> Vec<String> {
    let text = String::from_utf8_lossy(stderr);
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix("experiments: "))
        .unwrap_or_else(|| panic!("no `experiments:` line in {text:?}"));
    line.split_whitespace().map(str::to_owned).collect()
}

#[test]
fn repro_runs_what_it_is_asked_and_rejects_what_it_does_not_understand() {
    let cwd = Cwd::fresh();

    let out = cwd.repro(&["utility"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("=== §4.5:"));

    // An unknown experiment: exit 1, and the usage line is the table.
    let out = cwd.repro(&["bogus"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    assert_eq!(usage_names(&out.stderr), NAMES);
    for name in DELETED {
        assert_eq!(cwd.repro(&[name]).status.code(), Some(1), "{name}");
    }

    // Usage errors: exit 2 with the same usage line, before anything runs.
    for args in [
        &["--thread", "2", "fig6"][..],
        &["--threads=2"],
        &["--threads", "x"],
        &["--threads", "0"],
        &["fig6", "--threads"],
        &["fig6", "--ful"],
        &["fig6", "fig5"],
    ] {
        let out = cwd.repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        assert_eq!(usage_names(&out.stderr), NAMES, "{args:?}");
    }

    // Nothing is written next to the caller.
    let left: Vec<_> = std::fs::read_dir(&cwd.0)
        .expect("temp dir is readable")
        .map(|e| e.expect("entry is readable").file_name())
        .collect();
    assert!(left.is_empty(), "repro left {left:?} behind");
}

#[test]
fn module_doc_lists_exactly_the_accepted_names() {
    // The first cell of each row of the doc's experiment table, backticked
    // names only.
    let source = include_str!("../src/bin/repro.rs");
    let documented: BTreeSet<&str> = source
        .lines()
        .filter_map(|l| l.strip_prefix("//! | `"))
        .flat_map(|row| {
            let cell = row.split(" | ").next().expect("split yields a first item");
            cell.split('`').step_by(2).filter(|name| !name.is_empty())
        })
        .collect();
    assert_eq!(documented, NAMES.iter().copied().collect());
}
