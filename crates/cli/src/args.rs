//! A minimal `--flag value` argument parser (no external dependency).
//!
//! Grammar: `ipmark <subcommand> [--flag [value]]...`. A flag given
//! without a following value (next token starts with `--`, or end of
//! input) is boolean. Repeating a flag accumulates values (`--dut a --dut
//! b`).

use std::collections::BTreeMap;

use crate::error::CliError;

/// Parsed command line: the subcommand plus its flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (first non-flag token).
    pub command: String,
    flags: BTreeMap<String, Vec<String>>,
}

impl Args {
    /// Parses raw tokens (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] when no subcommand is given or a
    /// positional token appears after flags began.
    pub fn parse<I, S>(tokens: I) -> Result<Self, CliError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let tokens: Vec<String> = tokens.into_iter().map(Into::into).collect();
        let mut it = tokens.into_iter().peekable();
        let command = match it.next() {
            Some(c) if !c.starts_with("--") => c,
            _ => {
                return Err(CliError::Usage(
                    "expected a subcommand; try `ipmark help`".into(),
                ))
            }
        };
        let mut flags: BTreeMap<String, Vec<String>> = BTreeMap::new();
        while let Some(tok) = it.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(CliError::Usage(format!(
                    "unexpected positional argument `{tok}`"
                )));
            };
            if name.is_empty() {
                return Err(CliError::Usage("empty flag `--`".into()));
            }
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => Some(it.next().expect("peeked")),
                _ => None,
            };
            let entry = flags.entry(name.to_owned()).or_default();
            if let Some(v) = value {
                entry.push(v);
            }
        }
        Ok(Self { command, flags })
    }

    /// Whether the flag was given at all (with or without values).
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// The names of every flag given, in sorted order.
    pub fn flag_names(&self) -> impl Iterator<Item = &str> {
        self.flags.keys().map(String::as_str)
    }

    /// All values of a repeatable flag.
    pub fn all(&self, name: &str) -> &[String] {
        self.flags.get(name).map_or(&[], Vec::as_slice)
    }

    /// The single value of a flag, if present.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] when the flag is repeated or present
    /// without a value.
    pub fn get(&self, name: &str) -> Result<Option<&str>, CliError> {
        match self.flags.get(name) {
            None => Ok(None),
            Some(vs) if vs.len() == 1 => Ok(Some(&vs[0])),
            Some(vs) if vs.is_empty() => {
                Err(CliError::Usage(format!("flag --{name} needs a value")))
            }
            Some(_) => Err(CliError::Usage(format!(
                "flag --{name} given more than once"
            ))),
        }
    }

    /// A required string flag.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] when missing.
    pub fn require(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)?
            .ok_or_else(|| CliError::Usage(format!("missing required flag --{name}")))
    }

    /// An optional parsed value with a default.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] for an unparsable value.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.get(name)? {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("flag --{name}: cannot parse `{v}`"))),
        }
    }

    /// A required parsed value.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] when missing or unparsable.
    pub fn require_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<T, CliError> {
        let v = self.require(name)?;
        v.parse()
            .map_err(|_| CliError::Usage(format!("flag --{name}: cannot parse `{v}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_and_flags() {
        let a = Args::parse(["verify", "--refd", "r.bin", "--k", "50", "--json"]).unwrap();
        assert_eq!(a.command, "verify");
        assert_eq!(a.get("refd").unwrap(), Some("r.bin"));
        assert_eq!(a.get_or("k", 0usize).unwrap(), 50);
        assert!(a.has("json"));
        assert!(!a.has("csv"));
        assert_eq!(a.get("missing").unwrap(), None);
    }

    #[test]
    fn repeatable_flags_accumulate() {
        let a = Args::parse(["identify", "--dut", "a.bin", "--dut", "b.bin"]).unwrap();
        assert_eq!(a.all("dut"), ["a.bin".to_owned(), "b.bin".to_owned()]);
        assert!(a.get("dut").is_err(), "get() on repeated flag must error");
    }

    #[test]
    fn usage_errors() {
        assert!(Args::parse(Vec::<String>::new()).is_err());
        assert!(Args::parse(["--flag"]).is_err());
        assert!(Args::parse(["cmd", "stray"]).is_err());
        assert!(Args::parse(["cmd", "--"]).is_err());
        let a = Args::parse(["cmd", "--n", "abc"]).unwrap();
        assert!(a.get_or("n", 1usize).is_err());
        assert!(a.require("missing").is_err());
        assert!(a.require_parsed::<usize>("n").is_err());
    }

    #[test]
    fn boolean_then_valued_flag() {
        let a = Args::parse(["cmd", "--json", "--k", "5"]).unwrap();
        assert!(a.has("json"));
        assert_eq!(a.get_or("k", 0usize).unwrap(), 5);
    }

    #[test]
    fn defaults_pass_through() {
        let a = Args::parse(["cmd"]).unwrap();
        assert_eq!(a.get_or("cycles", 256usize).unwrap(), 256);
    }
}
