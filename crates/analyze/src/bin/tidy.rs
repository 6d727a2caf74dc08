//! Workspace hygiene lint, run in CI as a blocking job:
//!
//! ```text
//! cargo run -p deeplens-analyze --bin tidy
//! ```
//!
//! Scans `crates/**/src/**/*.rs` with the rules in [`deeplens_analyze::tidy`]
//! (the unreached-`pub` rule also reads `src/`, `examples/`,
//! `benchmark/src/` and `tests/` for callers) and exits non-zero if any
//! violation is found, printing one `file:line: [rule] message` diagnostic
//! per finding.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    // crates/analyze -> crates -> workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/analyze");
    let violations = deeplens_analyze::tidy::check_workspace(root);
    if violations.is_empty() {
        println!("tidy: workspace clean");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("{v}");
        }
        eprintln!("tidy: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}
