//! The command-line parser shared by the `figures` binary and the
//! `tpch_hybrid` example.
//!
//! A command line is a set of known `--flags`, some of which take the
//! next argument as their value, plus positional arguments. Anything else
//! — a typo like `--trase x.json` — is rejected with a typed
//! [`CliError`], so a run never silently ignores an intended flag.

use std::fmt;
use std::str::FromStr;

/// A rejected command line.
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// A `--flag` that is neither a value flag nor a boolean flag.
    UnknownFlag(String),
    /// A value flag at the end of the line, with nothing following it.
    MissingValue(String),
    /// A value that does not parse as what its flag expects.
    InvalidValue {
        /// The flag (or positional argument) the value belongs to.
        flag: String,
        /// The rejected value.
        value: String,
        /// Why it was rejected.
        reason: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownFlag(flag) => write!(f, "unknown flag: {flag}"),
            CliError::MissingValue(flag) => write!(f, "{flag} expects a value"),
            CliError::InvalidValue { flag, value, reason } => {
                write!(f, "{flag}: invalid value {value:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// A validated command line.
#[derive(Debug)]
pub struct Args {
    /// `(flag, value)` for every value flag given, in order.
    values: Vec<(String, String)>,
    /// Boolean flags given.
    bools: Vec<String>,
    /// Positional arguments, in order.
    positionals: Vec<String>,
}

impl Args {
    /// Split `args` into flags, flag values and positionals. Every
    /// `--`-prefixed argument must be one of `value_flags` (whose value is
    /// the next argument, so `--sf 0.1` never makes `0.1` a positional) or
    /// `bool_flags`.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        value_flags: &[&str],
        bool_flags: &[&str],
    ) -> Result<Self, CliError> {
        let mut parsed =
            Args { values: Vec::new(), bools: Vec::new(), positionals: Vec::new() };
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            if value_flags.contains(&a.as_str()) {
                let value = args.next().ok_or_else(|| CliError::MissingValue(a.clone()))?;
                parsed.values.push((a, value));
            } else if bool_flags.contains(&a.as_str()) {
                parsed.bools.push(a);
            } else if a.starts_with("--") {
                return Err(CliError::UnknownFlag(a));
            } else {
                parsed.positionals.push(a);
            }
        }
        Ok(parsed)
    }

    /// Whether boolean `flag` was given.
    pub fn flag(&self, flag: &str) -> bool {
        self.bools.iter().any(|b| b == flag)
    }

    /// The raw value of `flag`, if given (the first occurrence wins).
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values.iter().find(|(f, _)| f == flag).map(|(_, v)| v.as_str())
    }

    /// The first positional argument.
    pub fn positional(&self) -> Option<&str> {
        self.positionals.first().map(String::as_str)
    }

    /// The value of `flag` parsed as `T`.
    pub fn get<T: FromStr>(&self, flag: &str) -> Result<Option<T>, CliError>
    where
        T::Err: fmt::Display,
    {
        self.value(flag).map(|v| parse_value(flag, v)).transpose()
    }

    /// The value of `flag` as a comma-separated list of `T`.
    pub fn list<T: FromStr>(&self, flag: &str) -> Result<Option<Vec<T>>, CliError>
    where
        T::Err: fmt::Display,
    {
        self.value(flag)
            .map(|v| v.split(',').map(|item| parse_value(flag, item)).collect())
            .transpose()
    }
}

/// Parse one value of `flag`, naming the flag in the error.
pub fn parse_value<T: FromStr>(flag: &str, value: &str) -> Result<T, CliError>
where
    T::Err: fmt::Display,
{
    value.parse().map_err(|e: T::Err| CliError::InvalidValue {
        flag: flag.to_string(),
        value: value.to_string(),
        reason: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const VALUE: [&str; 2] = ["--sf", "--placements"];
    const BOOL: [&str; 2] = ["--smoke", "--verify"];

    fn parse(line: &str) -> Result<Args, CliError> {
        Args::parse(line.split_whitespace().map(String::from), &VALUE, &BOOL)
    }

    #[test]
    fn unknown_flag_is_rejected() {
        assert_eq!(
            parse("fig8 --trase x.json").unwrap_err(),
            CliError::UnknownFlag("--trase".into())
        );
    }

    #[test]
    fn value_flag_at_the_end_is_a_missing_value() {
        assert_eq!(parse("--smoke --sf").unwrap_err(), CliError::MissingValue("--sf".into()));
    }

    #[test]
    fn a_flag_value_is_not_the_positional() {
        let args = parse("--sf 0.1 fig8").unwrap();
        assert_eq!(args.positional(), Some("fig8"));
        assert_eq!(args.get::<f64>("--sf").unwrap(), Some(0.1));
        assert_eq!(parse("--sf 0.1").unwrap().positional(), None);
    }

    #[test]
    fn boolean_flags_are_accepted() {
        let args = parse("--smoke --verify").unwrap();
        assert!(args.flag("--smoke") && args.flag("--verify"));
        assert!(!parse("--smoke").unwrap().flag("--verify"));
    }

    #[test]
    fn values_parse_typed_and_lists_split_on_commas() {
        let args = parse("--placements 1,2,3 --sf x").unwrap();
        assert_eq!(args.list::<u32>("--placements").unwrap(), Some(vec![1, 2, 3]));
        assert!(matches!(
            args.get::<f64>("--sf").unwrap_err(),
            CliError::InvalidValue { ref flag, ref value, .. } if flag == "--sf" && value == "x"
        ));
        assert_eq!(args.get::<f64>("--absent").unwrap(), None);
    }
}
