//! Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.

use std::fmt;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Time to convergence of an incompressible solve, 1 thread.
    Converge,
    /// Fixed-step compressible solve whose matrices spill the last-level
    /// cache, 2 threads.
    KernelSpill,
    /// Distributed ΨNKS on 2 message-passing ranks.
    Dist2,
    /// Closed-loop serving of two small warm families.
    ServeWarm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Converge,
        Workload::KernelSpill,
        Workload::Dist2,
        Workload::ServeWarm,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Converge => "converge",
            Workload::KernelSpill => "kernel-spill",
            Workload::Dist2 => "dist2",
            Workload::ServeWarm => "serve-warm",
        }
    }

    /// Parse a workload name.
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// How long the measured section runs (at least one operation).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

/// A command-line error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
            self.0,
            Workload::ALL.map(Workload::name).join("|")
        )
    }
}

impl std::error::Error for UsageError {}

impl Args {
    /// Parse `argv` without the program name.  `--seed` defaults to 1,
    /// `--seconds` to 10 and `--trace` to 0; `--workload` is required.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Self, UsageError> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| UsageError(format!("{flag} needs a value")))
            };
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload = Some(
                        Workload::from_name(&v)
                            .ok_or_else(|| UsageError(format!("unknown workload {v:?}")))?,
                    );
                }
                "--seed" => {
                    let v = value()?;
                    seed = v
                        .parse()
                        .map_err(|_| UsageError(format!("bad --seed {v:?}")))?;
                }
                "--seconds" => {
                    let v = value()?;
                    seconds = v
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| UsageError(format!("bad --seconds {v:?}")))?;
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(UsageError(format!("bad --trace {v:?}"))),
                    };
                }
                other => return Err(UsageError(format!("unknown argument {other:?}"))),
            }
        }
        let workload = workload.ok_or_else(|| UsageError("--workload is required".into()))?;
        Ok(Self {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = Args::parse(argv("--workload dist2 --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::Dist2);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 12.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Args::parse(argv("--seed 1")).is_err());
        assert!(Args::parse(argv("--workload nope")).is_err());
        assert!(Args::parse(argv("--workload converge --trace 2")).is_err());
        assert!(Args::parse(argv("--workload converge --seconds -1")).is_err());
        assert!(Args::parse(argv("--workload converge --seed")).is_err());
    }
}
