//! Thin CLI wrapper: BCSR kernels (generic reference vs unrolled fixed)
//! per block size.
//! The core loop lives in `fun3d_bench::runners::blockspec`.
//!
//! Usage: `cargo run --release -p fun3d-bench --bin blockspec [--scale f]
//!   [--json out.json] [--trace trace.json]`

use fun3d_bench::{runners, BenchArgs};

fn main() {
    let args = BenchArgs::parse_for("blockspec", 0.25);
    let out = runners::blockspec::run(&args);
    args.emit_report(&out.report);
    args.emit_trace(&out.telemetry);
}
