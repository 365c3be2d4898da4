//! Command-line configuration shared by every experiment.

use std::error::Error;
use std::fmt;

use gqos_parallel::WorkerPool;
use gqos_trace::SimDuration;

/// The usage line printed under every CLI error.
pub const USAGE: &str = "usage: gqos-bench <experiment|all> [--span <s>] [--seed <n>] [--quick] \
     [--out <dir>] [--threads <n>]";

/// The largest `--threads` accepted.
const MAX_THREADS: u64 = 256;

/// A malformed command line, reported instead of a panic so the CLI can
/// exit with a clear diagnostic.
#[derive(Clone, Eq, PartialEq, Debug)]
pub enum ConfigError {
    /// A flag that takes a value was the last argument.
    MissingValue {
        /// The flag missing its value.
        flag: &'static str,
        /// What the value should have been.
        expected: &'static str,
    },
    /// A flag's value failed to parse.
    InvalidValue {
        /// The flag whose value was rejected.
        flag: &'static str,
        /// The offending value, verbatim.
        value: String,
        /// What the value should have been.
        expected: &'static str,
    },
    /// `--threads 0` — zero workers cannot run anything; ask for 1 (serial)
    /// or more.
    ZeroThreads,
    /// An unrecognised flag.
    UnknownFlag(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::MissingValue { flag, expected } => {
                write!(f, "{flag} requires {expected}")
            }
            ConfigError::InvalidValue {
                flag,
                value,
                expected,
            } => write!(f, "{flag} value must be {expected} (got `{value}`)"),
            ConfigError::ZeroThreads => {
                f.write_str("--threads value must be at least 1 (use 1 for a serial run)")
            }
            ConfigError::UnknownFlag(flag) => write!(
                f,
                "unknown flag `{flag}`; supported: --span <s>, --seed <n>, --quick, \
                 --out <dir>, --threads <n>"
            ),
        }
    }
}

impl Error for ConfigError {}

/// Configuration parsed from the `gqos-bench` flags after the experiment
/// name.
///
/// Supported flags:
///
/// - `--span <seconds>` — trace length to synthesise (default 1200 s);
/// - `--seed <n>` — generator seed (default 42);
/// - `--quick` — shorthand for `--span 120`, for smoke runs;
/// - `--out <dir>` — output directory for CSV files (default `results`);
/// - `--threads <n>` — fan independent cells over a pool of `n` workers
///   (default 1 = serial).
///
/// Parallelism never changes results: every experiment assembles its cells
/// in a fixed order (see [`WorkerPool::map`]), so output at any `--threads`
/// count is byte-identical to a serial run. The config holds the process's
/// one pool: its clones share the workers, so no experiment spawns threads
/// of its own to fan out over `--threads`.
#[derive(Clone, PartialEq, Debug)]
pub struct ExpConfig {
    /// Length of the synthesised traces.
    pub span: SimDuration,
    /// Seed for every generator (experiments derive per-workload seeds).
    pub seed: u64,
    /// Directory CSV outputs are written into.
    pub out_dir: String,
    /// The pool independent experiment cells fan out over (serial by
    /// default).
    pub pool: WorkerPool,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            span: SimDuration::from_secs(1200),
            seed: 42,
            out_dir: "results".to_string(),
            pool: WorkerPool::serial(),
        }
    }
}

impl ExpConfig {
    /// Parses configuration from an argument iterator (excluding the
    /// program name), reporting malformed input as a typed [`ConfigError`].
    ///
    /// # Errors
    ///
    /// Returns an error for unknown flags, flags missing their value,
    /// unparsable values, and `--threads 0`.
    fn try_parse<I, S>(args: I) -> Result<Self, ConfigError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        fn value<S: AsRef<str>>(
            it: &mut impl Iterator<Item = S>,
            flag: &'static str,
            expected: &'static str,
        ) -> Result<String, ConfigError> {
            match it.next() {
                Some(v) => Ok(v.as_ref().to_string()),
                None => Err(ConfigError::MissingValue { flag, expected }),
            }
        }
        fn integer(
            raw: &str,
            flag: &'static str,
            expected: &'static str,
        ) -> Result<u64, ConfigError> {
            raw.parse().map_err(|_| ConfigError::InvalidValue {
                flag,
                value: raw.to_string(),
                expected,
            })
        }
        let mut cfg = ExpConfig::default();
        let mut threads = 1;
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_ref() {
                "--span" => {
                    let raw = value(&mut it, "--span", "a value in seconds")?;
                    cfg.span = SimDuration::from_secs(integer(
                        &raw,
                        "--span",
                        "an integer number of seconds",
                    )?);
                }
                "--seed" => {
                    let raw = value(&mut it, "--seed", "a value")?;
                    cfg.seed = integer(&raw, "--seed", "an integer")?;
                }
                "--quick" => cfg.span = SimDuration::from_secs(120),
                "--out" => {
                    cfg.out_dir = value(&mut it, "--out", "a directory")?;
                }
                "--threads" => {
                    let raw = value(&mut it, "--threads", "a value")?;
                    threads = integer(&raw, "--threads", "a positive integer worker count")?;
                    if threads == 0 {
                        return Err(ConfigError::ZeroThreads);
                    }
                    // The pool spawns its workers up front, so a count no
                    // host could use is refused here rather than spawned.
                    if threads > MAX_THREADS {
                        return Err(ConfigError::InvalidValue {
                            flag: "--threads",
                            value: raw,
                            expected: "a worker count of at most 256",
                        });
                    }
                }
                other => return Err(ConfigError::UnknownFlag(other.to_string())),
            }
        }
        cfg.pool = WorkerPool::new(threads as usize);
        Ok(cfg)
    }

    /// Parses configuration from command-line arguments, verifying that
    /// the output directory is usable. On any problem it prints
    /// `error: <what>` plus the usage line to stderr and exits with status
    /// 2 — the CLI never panics on a malformed command line.
    pub fn from_args<I, S>(args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let cfg = ExpConfig::try_parse(args).unwrap_or_else(|err| {
            exit_usage(USAGE, &err.to_string());
        });
        if let Err(err) = std::fs::create_dir_all(&cfg.out_dir) {
            exit_usage(
                USAGE,
                &format!("cannot create output directory `{}`: {err}", cfg.out_dir),
            );
        }
        cfg
    }
}

/// Prints `error: <message>` and the binary's `usage` line to stderr, then
/// exits with status 2 (the conventional usage-error code). Shared by every
/// binary of the crate so malformed command lines never surface as panics.
pub fn exit_usage(usage: &str, message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("{usage}");
    std::process::exit(2)
}

impl fmt::Display for ExpConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "span={:.0}s seed={} out={}",
            self.span.as_secs_f64(),
            self.seed,
            self.out_dir
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = ExpConfig::default();
        assert_eq!(c.span, SimDuration::from_secs(1200));
        assert_eq!(c.seed, 42);
        assert_eq!(c.out_dir, "results");
    }

    #[test]
    fn parses_all_flags() {
        let c = ExpConfig::try_parse(["--span", "300", "--seed", "7", "--out", "/tmp/x"]).unwrap();
        assert_eq!(c.span, SimDuration::from_secs(300));
        assert_eq!(c.seed, 7);
        assert_eq!(c.out_dir, "/tmp/x");
    }

    #[test]
    fn quick_flag_shortens_span() {
        let c = ExpConfig::try_parse(["--quick"]).unwrap();
        assert_eq!(c.span, SimDuration::from_secs(120));
    }

    #[test]
    fn threads_flags() {
        assert!(ExpConfig::default().pool.is_serial());
        let c = ExpConfig::try_parse(["--threads", "6"]).unwrap();
        assert_eq!(c.pool.threads(), 6);
    }

    #[test]
    fn display() {
        assert!(ExpConfig::default().to_string().contains("seed=42"));
    }

    #[test]
    fn try_parse_reports_typed_errors() {
        assert_eq!(
            ExpConfig::try_parse(["--bogus"]),
            Err(ConfigError::UnknownFlag("--bogus".to_string()))
        );
        assert_eq!(
            ExpConfig::try_parse(["--span"]),
            Err(ConfigError::MissingValue {
                flag: "--span",
                expected: "a value in seconds"
            })
        );
        assert!(matches!(
            ExpConfig::try_parse(["--span", "abc"]),
            Err(ConfigError::InvalidValue { flag: "--span", .. })
        ));
        assert!(matches!(
            ExpConfig::try_parse(["--seed", "12.5"]),
            Err(ConfigError::InvalidValue { flag: "--seed", .. })
        ));
    }

    #[test]
    fn zero_and_negative_threads_are_rejected() {
        assert_eq!(
            ExpConfig::try_parse(["--threads", "0"]),
            Err(ConfigError::ZeroThreads)
        );
        assert!(matches!(
            ExpConfig::try_parse(["--threads", "257"]),
            Err(ConfigError::InvalidValue {
                flag: "--threads",
                ..
            })
        ));
        // A negative count is a parse failure (the count is unsigned), not
        // a silent wrap to a huge pool.
        assert!(matches!(
            ExpConfig::try_parse(["--threads", "-3"]),
            Err(ConfigError::InvalidValue {
                flag: "--threads",
                ..
            })
        ));
    }

    #[test]
    fn error_messages_name_the_flag_and_input() {
        let err = ExpConfig::try_parse(["--threads", "lots"]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("--threads"), "{msg}");
        assert!(msg.contains("`lots`"), "{msg}");
        assert!(ConfigError::ZeroThreads.to_string().contains("at least 1"));
        assert!(USAGE.contains("--threads"));
    }
}
