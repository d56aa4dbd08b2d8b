//! Minimal command-line flag parsing for the harness binaries.
//!
//! Deliberately tiny (no external dependency): `--key value` pairs and
//! boolean `--flag`s, with typed accessors and helpful errors.

use crate::experiment::Effort;
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// Most worker threads `--jobs` accepts: each one is an operating-system
/// thread, and no host this workspace targets has more cores.
pub const MAX_JOBS: usize = 256;

/// Parsed `--key value` / `--flag` arguments.
///
/// # Examples
///
/// ```
/// use mmhew_harness::cli::Args;
///
/// let args = Args::parse_from(["--nodes", "16", "--verbose"].iter().map(|s| s.to_string()))?;
/// assert_eq!(args.get_or("nodes", 4usize)?, 16);
/// assert!(args.flag("verbose"));
/// assert_eq!(args.get_or("missing", 7u64)?, 7);
/// # Ok::<(), mmhew_harness::cli::CliError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Argument parsing/lookup errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// An argument did not start with `--`.
    NotAFlag(String),
    /// A value failed to parse as the requested type.
    BadValue {
        /// The flag name.
        key: String,
        /// The raw value.
        value: String,
    },
    /// An enum-like flag had an unknown variant.
    UnknownVariant {
        /// The flag name.
        key: String,
        /// The raw value.
        value: String,
        /// Allowed values.
        allowed: &'static [&'static str],
    },
    /// A parsed value outside the range the flag accepts.
    OutOfRange {
        /// The flag name.
        key: String,
        /// The parsed value.
        value: String,
        /// What the flag accepts.
        expected: &'static str,
    },
    /// A flag that takes a value was given without one.
    MissingValue(String),
    /// A boolean flag was given a value.
    UnexpectedValue {
        /// The flag name.
        key: String,
        /// The value it was given.
        value: String,
    },
    /// A flag not accepted by this binary (probably a typo) was given.
    UnknownFlag(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::NotAFlag(a) => write!(f, "expected --flag, got {a:?}"),
            CliError::BadValue { key, value } => {
                write!(f, "--{key}: cannot parse {value:?}")
            }
            CliError::UnknownVariant {
                key,
                value,
                allowed,
            } => {
                write!(f, "--{key}: unknown value {value:?} (allowed: {allowed:?})")
            }
            CliError::OutOfRange {
                key,
                value,
                expected,
            } => write!(f, "--{key}: {value} is out of range (expected {expected})"),
            CliError::MissingValue(key) => write!(f, "--{key}: missing value"),
            CliError::UnexpectedValue { key, value } => {
                write!(f, "--{key}: takes no value, got {value:?}")
            }
            CliError::UnknownFlag(key) => {
                write!(f, "--{key}: unknown flag (misspelled?)")
            }
        }
    }
}

impl std::error::Error for CliError {}

impl Args {
    /// Parses from the process arguments (skipping the binary name).
    ///
    /// # Errors
    ///
    /// Returns [`CliError::NotAFlag`] for positional arguments.
    pub fn parse() -> Result<Self, CliError> {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator.
    ///
    /// A token starting with `--` followed by a token not starting with
    /// `--` is a key/value pair; a `--token` followed by another flag (or
    /// nothing) is a boolean flag.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::NotAFlag`] for positional arguments.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, CliError> {
        let tokens: Vec<String> = args.into_iter().collect();
        let mut out = Args::default();
        let mut i = 0;
        while i < tokens.len() {
            let tok = &tokens[i];
            let Some(key) = tok.strip_prefix("--") else {
                return Err(CliError::NotAFlag(tok.clone()));
            };
            match tokens.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    out.values.insert(key.to_string(), v.clone());
                    i += 2;
                }
                _ => {
                    out.flags.push(key.to_string());
                    i += 1;
                }
            }
        }
        Ok(out)
    }

    /// True if the boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The raw value of a key, if present.
    pub fn raw(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Typed value with a default when absent.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::BadValue`] if present but unparseable.
    pub fn get_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| CliError::BadValue {
                key: name.to_string(),
                value: v.clone(),
            }),
        }
    }

    /// Typed value with a default when absent, which must satisfy `ok`;
    /// `expected` says in words what `ok` accepts.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::BadValue`] if present but unparseable, and
    /// [`CliError::OutOfRange`] if the value fails `ok`.
    pub fn get_checked<T: FromStr + fmt::Display>(
        &self,
        name: &str,
        default: T,
        expected: &'static str,
        ok: impl FnOnce(&T) -> bool,
    ) -> Result<T, CliError> {
        let value = self.get_or(name, default)?;
        if ok(&value) {
            Ok(value)
        } else {
            Err(CliError::OutOfRange {
                key: name.to_string(),
                value: value.to_string(),
                expected,
            })
        }
    }

    /// An enum-like value restricted to `allowed` (returns the matched
    /// allowed entry), defaulting to the first entry.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::UnknownVariant`] for anything else.
    pub fn one_of(
        &self,
        name: &str,
        allowed: &'static [&'static str],
    ) -> Result<&'static str, CliError> {
        match self.values.get(name) {
            None => Ok(allowed[0]),
            Some(v) => allowed
                .iter()
                .find(|a| a.eq_ignore_ascii_case(v))
                .copied()
                .ok_or_else(|| CliError::UnknownVariant {
                    key: name.to_string(),
                    value: v.clone(),
                    allowed,
                }),
        }
    }

    /// The effort level from the `--quick`/`--full` flags (defaults to
    /// quick; `--full` wins when both are given).
    pub fn effort(&self) -> Effort {
        if self.flag("full") {
            Effort::Full
        } else {
            Effort::Quick
        }
    }

    /// The worker count from the `--jobs N` key, if given: a thread count
    /// from 1 to [`MAX_JOBS`].
    ///
    /// Callers typically feed this to [`crate::sweep::set_jobs`].
    ///
    /// # Errors
    ///
    /// Returns [`CliError::BadValue`] if present but unparseable, and
    /// [`CliError::OutOfRange`] outside `1..=MAX_JOBS`.
    pub fn jobs(&self) -> Result<Option<usize>, CliError> {
        self.values
            .get("jobs")
            .map(|_| self.get_checked("jobs", 1, "from 1 to 256", |j| (1..=MAX_JOBS).contains(j)))
            .transpose()
    }

    /// Rejects any argument outside the given vocabularies: `keys` are
    /// the accepted `--key value` names, `flags` the accepted boolean
    /// `--flag`s. Each binary lists every flag it reads, `--jobs`,
    /// `--quick` and `--full` included, so a misspelled or unread flag is
    /// an error instead of being silently ignored.
    ///
    /// # Errors
    ///
    /// Names the first offender: [`CliError::UnexpectedValue`] for a
    /// boolean flag given a value, [`CliError::MissingValue`] for a key
    /// given without one, and [`CliError::UnknownFlag`] for anything else.
    pub fn expect_only(&self, keys: &[&str], flags: &[&str]) -> Result<(), CliError> {
        let is_key = |name: &String| keys.iter().any(|k| k == name);
        let is_flag = |name: &String| flags.iter().any(|f| f == name);
        for (key, value) in &self.values {
            if is_flag(key) {
                return Err(CliError::UnexpectedValue {
                    key: key.clone(),
                    value: value.clone(),
                });
            }
            if !is_key(key) {
                return Err(CliError::UnknownFlag(key.clone()));
            }
        }
        for flag in &self.flags {
            if is_key(flag) {
                return Err(CliError::MissingValue(flag.clone()));
            }
            if !is_flag(flag) {
                return Err(CliError::UnknownFlag(flag.clone()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Args {
        Args::parse_from(args.iter().map(|s| s.to_string())).expect("parse")
    }

    #[test]
    fn key_values_and_flags() {
        let a = parse(&["--n", "12", "--fast", "--eps", "0.5"]);
        assert_eq!(a.get_or("n", 0usize).expect("n"), 12);
        assert_eq!(a.get_or("eps", 0.0f64).expect("eps"), 0.5);
        assert!(a.flag("fast"));
        assert!(!a.flag("slow"));
        assert_eq!(a.raw("n"), Some("12"));
        assert_eq!(a.raw("zzz"), None);
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&[]);
        assert_eq!(a.get_or("n", 42usize).expect("default"), 42);
        assert_eq!(
            a.one_of("algo", &["alg1", "alg2"]).expect("default"),
            "alg1"
        );
    }

    #[test]
    fn errors_are_specific() {
        let a = parse(&["--n", "abc", "--algo", "bogus"]);
        assert!(matches!(
            a.get_or("n", 0usize),
            Err(CliError::BadValue { .. })
        ));
        assert!(matches!(
            a.one_of("algo", &["alg1"]),
            Err(CliError::UnknownVariant { .. })
        ));
        assert!(matches!(
            Args::parse_from(["oops".to_string()]),
            Err(CliError::NotAFlag(_))
        ));
    }

    #[test]
    fn trailing_flag_and_case_insensitive_variant() {
        let a = parse(&["--algo", "ALG2", "--verbose"]);
        assert_eq!(a.one_of("algo", &["alg1", "alg2"]).expect("match"), "alg2");
        assert!(a.flag("verbose"));
    }

    #[test]
    fn error_display() {
        let e = CliError::UnknownVariant {
            key: "x".into(),
            value: "y".into(),
            allowed: &["a"],
        };
        assert!(e.to_string().contains("unknown value"));
        assert!(CliError::UnknownFlag("ful".into())
            .to_string()
            .contains("unknown flag"));
    }

    #[test]
    fn effort_and_jobs_parse_uniformly() {
        let a = parse(&["--full", "--jobs", "3"]);
        assert_eq!(a.effort(), Effort::Full);
        assert_eq!(a.jobs().expect("jobs"), Some(3));
        let b = parse(&["--quick"]);
        assert_eq!(b.effort(), Effort::Quick);
        assert_eq!(b.jobs().expect("jobs"), None);
        let c = parse(&["--jobs", "many"]);
        assert!(matches!(c.jobs(), Err(CliError::BadValue { .. })));
    }

    #[test]
    fn jobs_outside_one_to_the_cap_are_named() {
        // Checked on the parsed value: nothing here starts a thread.
        let top = MAX_JOBS.to_string();
        assert_eq!(parse(&["--jobs", &top]).jobs(), Ok(Some(MAX_JOBS)));
        assert_eq!(parse(&["--jobs", "1"]).jobs(), Ok(Some(1)));
        for bad in [
            "0".to_string(),
            (MAX_JOBS + 1).to_string(),
            u64::MAX.to_string(),
        ] {
            let e = parse(&["--jobs", &bad]).jobs().unwrap_err();
            assert_eq!(
                e.to_string(),
                format!("--jobs: {bad} is out of range (expected from 1 to {MAX_JOBS})")
            );
        }
    }

    #[test]
    fn expect_only_rejects_misspellings() {
        // Only the listed flags are accepted, the effort and jobs ones too.
        let a = parse(&["--full", "--jobs", "2", "--seed", "7"]);
        assert!(a.expect_only(&["seed", "jobs"], &["full"]).is_ok());
        assert_eq!(
            a.expect_only(&["seed", "jobs"], &[]),
            Err(CliError::UnknownFlag("full".into()))
        );
        assert_eq!(
            a.expect_only(&["seed"], &["full"]),
            Err(CliError::UnknownFlag("jobs".into()))
        );
        // A misspelled flag is an error, not silently a boolean.
        let b = parse(&["--ful"]);
        assert_eq!(
            b.expect_only(&["seed"], &[]),
            Err(CliError::UnknownFlag("ful".into()))
        );
        let c = parse(&["--sed", "7"]);
        assert_eq!(
            c.expect_only(&["seed"], &[]),
            Err(CliError::UnknownFlag("sed".into()))
        );
    }

    #[test]
    fn missing_and_unexpected_values_are_named() {
        // A valued key at the end, or followed by another flag, has no value.
        for args in [&["--only"][..], &["--only", "--markdown"]] {
            let e = parse(args)
                .expect_only(&["only"], &["markdown"])
                .unwrap_err();
            assert_eq!(e, CliError::MissingValue("only".into()));
            assert_eq!(e.to_string(), "--only: missing value");
        }
        // Boolean flags take no value.
        for (args, key, value) in [
            (&["--metrics", "5"][..], "metrics", "5"),
            (&["--full", "3"], "full", "3"),
        ] {
            let e = parse(args)
                .expect_only(&[], &["metrics", "full"])
                .unwrap_err();
            assert_eq!(
                e,
                CliError::UnexpectedValue {
                    key: key.into(),
                    value: value.into()
                }
            );
            assert!(e
                .to_string()
                .starts_with(&format!("--{key}: takes no value")));
        }
    }

    #[test]
    fn checked_values_name_the_flag_and_the_range() {
        let a = parse(&["--eps", "2", "--n", "x"]);
        let e = a
            .get_checked("eps", 0.5, "in (0, 1)", |e| *e > 0.0 && *e < 1.0)
            .unwrap_err();
        assert_eq!(
            e.to_string(),
            "--eps: 2 is out of range (expected in (0, 1))"
        );
        assert!(matches!(
            a.get_checked("n", 1u32, "positive", |&n| n > 0),
            Err(CliError::BadValue { .. })
        ));
        assert_eq!(a.get_checked("m", 4u32, "positive", |&n| n > 0), Ok(4));
    }
}
