//! Minimal `--flag value` argument parsing (no external dependencies).

use std::collections::HashMap;

/// The options that take no value, each read by [`Args::flag`]. A switch
/// never takes the next token, so `explore --brute-force stats` keeps
/// `stats` as the action and `figure --paper-scale 7` the figure id.
/// `--stream` alone is read by nothing: it is accepted for old scripts
/// and does nothing.
const SWITCHES: &[&str] = &[
    "json",
    "progress",
    "explore",
    "brute-force",
    "paper-scale",
    "answers",
    "agenda",
    "related-work",
    "solve",
    "stream",
    "help",
];

/// The options that take a value, each read by [`Args::get`]. Any option
/// in neither table is an error, never silently ignored.
const OPTIONS: &[&str] = &[
    "append-to",
    "budget",
    "bytes",
    "connect",
    "count",
    "dot",
    "format",
    "from",
    "iterations",
    "job",
    "job-timeout",
    "kind",
    "lesson",
    "level",
    "listen",
    "metrics",
    "nd",
    "nodes",
    "out",
    "out-dir",
    "pattern",
    "peer",
    "procs",
    "progress-interval",
    "queue-capacity",
    "range",
    "record",
    "retries",
    "rounds",
    "runs",
    "schedule-budget",
    "seed",
    "seed-a",
    "seed-b",
    "slices",
    "socket",
    "stats",
    "store",
    "to",
    "top",
    "trace",
    "workers",
];

/// Parsed arguments: a subcommand plus `--key value` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: Option<String>,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    options: HashMap<String, String>,
}

impl Args {
    /// Parse from an iterator of arguments (excluding argv\[0\]).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = args.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if !SWITCHES.contains(&key) && !OPTIONS.contains(&key) {
                    return Err(format!("unknown option --{key}; try 'anacin help'"));
                }
                let value = it
                    .next_if(|v| !SWITCHES.contains(&key) && !v.starts_with("--"))
                    .unwrap_or_else(|| "true".to_string());
                out.options.insert(key.to_string(), value);
            } else if out.command.is_none() {
                out.command = Some(a);
            } else {
                out.positional.push(a);
            }
        }
        Ok(out)
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        debug_assert!(OPTIONS.contains(&key), "--{key} is not in OPTIONS");
        self.options.get(key).map(String::as_str)
    }

    /// A string option with a default.
    pub fn get_or(&self, key: &str, default: &str) -> String {
        self.get(key).unwrap_or(default).to_string()
    }

    /// A parsed numeric/typed option with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value '{v}' for --{key}")),
        }
    }

    /// A value-less switch such as `--json`: true when present.
    pub fn flag(&self, key: &str) -> bool {
        debug_assert!(SWITCHES.contains(&key), "--{key} is not in SWITCHES");
        self.options.contains_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Args {
        Args::parse(s.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn command_and_options() {
        let a = parse(&["run", "--pattern", "amg2013", "--procs", "8", "--json"]);
        assert_eq!(a.command.as_deref(), Some("run"));
        assert_eq!(a.get("pattern"), Some("amg2013"));
        assert_eq!(a.get_parsed("procs", 0u32).unwrap(), 8);
        assert!(a.flag("json"));
        assert!(!a.flag("progress"));
    }

    #[test]
    fn positional_arguments() {
        let a = parse(&["figure", "7", "--runs", "5"]);
        assert_eq!(a.command.as_deref(), Some("figure"));
        assert_eq!(a.positional, vec!["7"]);
    }

    #[test]
    fn a_switch_never_takes_the_next_token() {
        let a = parse(&["explore", "--brute-force", "stats", "--procs", "3"]);
        assert_eq!(a.command.as_deref(), Some("explore"));
        assert_eq!(a.positional, vec!["stats"]);
        assert!(a.flag("brute-force"));
        assert_eq!(a.get("procs"), Some("3"));
        let a = parse(&["figure", "--paper-scale", "7"]);
        assert_eq!(a.positional, vec!["7"]);
        assert!(a.flag("paper-scale"));
    }

    #[test]
    fn defaults_and_errors() {
        let a = parse(&["run"]);
        assert_eq!(a.get_or("pattern", "race"), "race");
        assert_eq!(a.get_parsed("procs", 4u32).unwrap(), 4);
        let bad = parse(&["run", "--procs", "eight"]);
        assert!(bad.get_parsed("procs", 4u32).is_err());
        let err = Args::parse(["run", "--bogus-option", "7"].map(String::from)).unwrap_err();
        assert_eq!(err, "unknown option --bogus-option; try 'anacin help'");
        let a = parse(&["run", "--stream", "--help"]);
        assert_eq!(a.command.as_deref(), Some("run"));
    }
}
