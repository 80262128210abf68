//! Workspace self-analysis regression: the sharded lock topology (striped
//! circuit breaker, sharded store buffers, pipelined checkpoint) must keep the
//! whole workspace clean under the in-repo analyzer — in particular the
//! R6 may-hold-while-acquiring graph must stay cycle-free — with no
//! grandfathering: the ratchet baseline stays absent.

use lint::engine::BASELINE_FILE;
use lint::run;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_has_no_failing_findings() {
    let report = run(&workspace_root(), None).expect("workspace tree scans");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — wrong root?",
        report.files_scanned
    );
    // `render()` carries the witness chains for lock-order cycles, so a
    // regression prints the full deadlock evidence, not just a count.
    assert_eq!(
        report.failing(),
        0,
        "the workspace must stay lint-clean:\n{}",
        report.render()
    );
}

/// The lock-order rule specifically: no finding of any status. A cycle
/// that someone grandfathers into a future baseline would still fail
/// here — deadlock topology is not negotiable.
#[test]
fn lock_order_graph_is_acyclic() {
    let report = run(&workspace_root(), None).expect("workspace tree scans");
    let lock_order: Vec<String> = report
        .findings
        .iter()
        .filter(|(f, _)| f.rule == "lock-order")
        .map(|(f, _)| format!("{}:{}: {}", f.path, f.line, f.message))
        .collect();
    assert!(
        lock_order.is_empty(),
        "lock-order cycle(s) in the refactored topology:\n{}",
        lock_order.join("\n")
    );
}

/// The ratchet baseline must remain empty (absent): nothing in the
/// refactored tree is grandfathered.
#[test]
fn lint_baseline_remains_empty() {
    let baseline = workspace_root().join(BASELINE_FILE);
    assert!(
        !baseline.exists(),
        "{} exists — the workspace baseline is expected to stay empty/absent",
        baseline.display()
    );
    let report = run(&workspace_root(), None).expect("workspace tree scans");
    assert_eq!(
        report.grandfathered(),
        0,
        "no finding may be grandfathered:\n{}",
        report.render()
    );
}
