//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints its metrics by name with units, and ends with
//! the JSON result line.  A traced run also prints the span tree and writes
//! the spans to `out/spans-<workload>-<seed>.json` in this package.

use perfbench::cli::Args;
use perfbench::metrics::result_line;
use perfbench::trace::{self, Tracer};
use perfbench::workloads;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let out = workloads::run(&args, &tracer);

    println!(
        "workload {} seed {} ({} run, {} hardware threads available)",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for line in &out.summary {
        println!("  {line}");
    }
    if args.trace {
        let spans = tracer.spans();
        println!("\nspan tree (self = total minus children):");
        print!("{}", trace::render(&spans));
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-{}.json", args.workload.name(), args.seed));
        let json = trace::to_json(args.workload.name(), args.seed, &spans);
        match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, json)) {
            Ok(()) => println!("wrote {} spans to {}", spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    let selected = out.metrics.selected(args.trace);
    println!();
    for (name, unit, value) in &selected {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    println!(
        "  {:<32} {:>16.6} ({} of {} operations)",
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    println!(
        "{}",
        result_line(out.failed == 0, out.attempted, out.failed, &selected)
    );
}
