//! Tiny hand-rolled `--flag value` argument parser (no external
//! dependencies, consistent with the workspace policy).

use std::collections::BTreeMap;

/// Parsed arguments: a subcommand plus `--key value` options.
#[derive(Debug, Default)]
pub struct Args {
    /// The subcommand (first positional).
    pub command: String,
    options: BTreeMap<String, String>,
}

/// Argument parsing failure.
#[derive(Debug)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse `argv` (without the program name).
    pub fn parse(argv: &[String]) -> Result<Self, ArgError> {
        let mut out = Args::default();
        let mut it = argv.iter();
        out.command = it
            .next()
            .ok_or_else(|| ArgError("missing subcommand (try `dlr help`)".into()))?
            .clone();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| ArgError(format!("expected --flag, got `{flag}`")))?;
            let value = it
                .next()
                .ok_or_else(|| ArgError(format!("--{key} requires a value")))?;
            if out.options.insert(key.to_string(), value.clone()).is_some() {
                return Err(ArgError(format!("--{key} given twice")));
            }
        }
        Ok(out)
    }

    /// Fail on the first option not in `known`, naming it: a mistyped or
    /// retired flag must not be silently ignored.
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), ArgError> {
        match self.options.keys().find(|k| !known.contains(&k.as_str())) {
            Some(key) => Err(ArgError(format!(
                "unknown flag --{key} for `{}` (try `dlr help`)",
                self.command
            ))),
            None => Ok(()),
        }
    }

    /// Required option.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| ArgError(format!("missing required --{key}")))
    }

    /// Optional option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.options.get(key).map(String::as_str).unwrap_or(default)
    }

    /// Optional option without a default.
    pub fn options_get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Optional numeric option.
    pub fn get_u32_or(&self, key: &str, default: u32) -> Result<u32, ArgError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key} must be a number, got `{v}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let a = Args::parse(&sv(&["keygen", "--out-dir", "keys", "--lambda", "256"])).unwrap();
        assert_eq!(a.command, "keygen");
        assert_eq!(a.require("out-dir").unwrap(), "keys");
        assert_eq!(a.get_u32_or("lambda", 0).unwrap(), 256);
        assert_eq!(a.get_or("curve", "toy"), "toy");
    }

    #[test]
    fn rejects_malformed() {
        assert!(Args::parse(&sv(&[])).is_err());
        assert!(Args::parse(&sv(&["x", "naked"])).is_err());
        assert!(Args::parse(&sv(&["x", "--a"])).is_err());
        assert!(Args::parse(&sv(&["x", "--a", "1", "--a", "2"])).is_err());
        let a = Args::parse(&sv(&["x", "--n", "abc"])).unwrap();
        assert!(a.get_u32_or("n", 1).is_err());
        assert!(a.require("missing").is_err());
    }
}
