//! Command-line parsing against the command table: a command accepts
//! exactly the options and positional arguments its entry in
//! [`COMMANDS`] declares, and anything else is an error.

use crate::commands::{COMMANDS, GROUPS, OPTIONS};

/// One entry of the command table: a command, or one action of a
/// command whose actions read different options.
#[derive(Debug)]
pub struct Command {
    /// The command, then its action if it has one: `run`, `store gc`.
    pub name: &'static str,
    /// The positional arguments in capitals (`[ID]` when optional), then
    /// every option the command reads: `--name`, or a group of `GROUPS`.
    pub args: &'static str,
    /// The one-line summary.
    pub about: &'static str,
    /// The handler.
    pub run: fn(&Args) -> Result<(), String>,
}

impl Command {
    /// The positional arguments, then every option with its value, groups
    /// expanded: `FILE`, `--json`, `--out FILE`.
    pub fn synopsis(&self) -> Vec<&'static str> {
        fn expand(args: &'static str, out: &mut Vec<&'static str>) {
            for word in args.split_whitespace() {
                match GROUPS.iter().find(|(group, _)| *group == word) {
                    Some((_, options)) => expand(options, out),
                    None => out.push(word.strip_prefix("--").and_then(spec).unwrap_or(word)),
                }
            }
        }
        let mut out = Vec::new();
        expand(self.args, &mut out);
        out
    }
}

/// `--name`'s line in [`OPTIONS`] without its help: `--name`, or
/// `--name VALUE` for an option that takes a value.
fn spec(name: &str) -> Option<&'static str> {
    OPTIONS
        .lines()
        .filter_map(|line| line.split_once("  ").map(|(spec, _)| spec))
        .find(|spec| spec.split(' ').next().and_then(|o| o.strip_prefix("--")) == Some(name))
}

/// A parsed command line: its command's entry, positional arguments and
/// `--key value` options.
#[derive(Debug, Clone)]
pub struct Args {
    /// The command's table entry.
    pub command: &'static Command,
    /// Positional arguments after the command and its action.
    pub positional: Vec<String>,
    /// Each option with its value (empty for a switch), in order.
    options: Vec<(String, String)>,
}

impl Args {
    /// Parse from an iterator of arguments (excluding argv\[0\]). The
    /// command comes first; `--help` anywhere, or no command, selects
    /// `help`. A switch never takes the next token, so `explore
    /// --brute-force stats` keeps `stats` as the action.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
        let (mut help, mut words, mut options) = (false, Vec::new(), Vec::new());
        let mut it = args.into_iter().peekable();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some("help") => help = true,
                Some(key) if !words.is_empty() => {
                    let Some(spec) = spec(key) else {
                        return Err(format!("unknown option --{key}; try 'anacin help'"));
                    };
                    let value = match spec.contains(' ') {
                        true => it.next_if(|v| !v.starts_with("--")),
                        false => Some(String::new()),
                    };
                    let value = value.ok_or_else(|| format!("--{key} needs a value"))?;
                    options.push((key.to_string(), value));
                }
                _ => words.push(a),
            }
        }
        // `--help` anywhere selects `help`, whatever else the line holds.
        options.retain(|_| !help);
        let mut words = words.into_iter().filter(|_| !help);
        let word = words.next().unwrap_or_else(|| "help".to_string());
        let word = if word == "campaign" { "run" } else { &word };
        let mut positional: Vec<String> = words.collect();
        let entry = |name: &str| COMMANDS.iter().find(|c| c.name == name);
        let command = match positional
            .first()
            .and_then(|a| entry(&format!("{word} {a}")))
        {
            Some(action) => {
                positional.remove(0);
                action
            }
            None => entry(word).ok_or_else(|| {
                let prefix = format!("{word} ");
                let actions: Vec<&str> = COMMANDS
                    .iter()
                    .filter_map(|c| c.name.strip_prefix(&prefix))
                    .collect();
                match actions.as_slice() {
                    [] => format!("unknown command '{word}'; try 'anacin help'"),
                    _ => format!("{word} requires an action: {}", actions.join(", ")),
                }
            })?,
        };
        let synopsis = command.synopsis();
        if let Some((key, _)) = options
            .iter()
            .find(|(k, _)| !synopsis.contains(&spec(k).unwrap_or_default()))
        {
            return Err(format!("unknown option --{key}; try 'anacin help'"));
        }
        let slots = synopsis.iter().filter(|w| !w.starts_with("--")).count();
        if let Some(extra) = positional.get(slots) {
            return Err(format!("unexpected argument '{extra}'; try 'anacin help'"));
        }
        Ok(Args {
            command,
            positional,
            options,
        })
    }

    /// Whether the command declares `--key`, taking a value or not.
    fn declares(&self, key: &str, value: bool) -> bool {
        spec(key).is_some_and(|s| s.contains(' ') == value && self.command.synopsis().contains(&s))
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        debug_assert!(self.declares(key, true), "undeclared --{key} VALUE");
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
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
        debug_assert!(self.declares(key, false), "undeclared switch --{key}");
        self.options.iter().any(|(k, _)| k == key)
    }

    /// Refuse the options of `keys` (space-separated names) unless `mode`
    /// holds: the command reads them only in a mode this line is not in,
    /// described by `needs`.
    pub(crate) fn only_with(&self, keys: &str, mode: bool, needs: &str) -> Result<(), String> {
        let given = keys.split(' ').find(|key| {
            debug_assert!(self.declares(key, true) || self.declares(key, false));
            self.options.iter().any(|(k, _)| k == key)
        });
        match given {
            Some(key) if !mode => Err(format!("--{key} is read only with {needs}")),
            _ => Ok(()),
        }
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
        assert_eq!(a.command.name, "run");
        assert_eq!(a.get("pattern"), Some("amg2013"));
        assert_eq!(a.get_parsed("procs", 0u32).unwrap(), 8);
        assert!(a.flag("json"));
        assert!(!a.flag("progress"));
    }

    #[test]
    fn positional_arguments() {
        let a = parse(&["figure", "7", "--out-dir", "figs"]);
        assert_eq!(a.command.name, "figure");
        assert_eq!(a.positional, vec!["7"]);
        let a = parse(&["bench", "compare", "--json", "a", "b"]);
        assert_eq!(a.command.name, "bench compare");
        assert_eq!(a.positional, vec!["a", "b"]);
    }

    #[test]
    fn a_switch_never_takes_the_next_token() {
        let a = parse(&["explore", "--brute-force", "stats", "--procs", "3"]);
        assert_eq!(a.command.name, "explore stats");
        assert!(a.positional.is_empty());
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
        let err = |s: &[&str]| Args::parse(s.iter().map(|s| s.to_string())).unwrap_err();
        for (args, want) in [
            (
                &["run", "--bogus-option", "7"][..],
                "unknown option --bogus-option; try 'anacin help'",
            ),
            (
                &["graph", "--runs", "5"],
                "unknown option --runs; try 'anacin help'",
            ),
            (&["run", "--procs"], "--procs needs a value"),
            (&["run", "--procs", "--json"], "--procs needs a value"),
            (
                &["run", "--json", "5"],
                "unexpected argument '5'; try 'anacin help'",
            ),
            (
                &["store", "--store", "s"],
                "store requires an action: stats, verify, gc",
            ),
            (
                &["--procs", "3", "run"],
                "unknown command '--procs'; try 'anacin help'",
            ),
            (
                &["bench", "--bogus", "7", "compare"],
                "unknown option --bogus; try 'anacin help'",
            ),
        ] {
            assert_eq!(err(args), want, "{args:?}");
        }
        for help in [&["run", "--json", "--help"][..], &["--help", "run"], &[]] {
            assert_eq!(parse(help).command.name, "help");
        }
        assert_eq!(parse(&["campaign", "--runs", "3"]).command.name, "run");
    }

    /// Every name in an entry is an option of [`OPTIONS`], a group or a
    /// positional argument in capitals; every option some entry declares.
    #[test]
    fn the_table_is_well_formed() {
        let mut names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COMMANDS.len(), "one entry per name");
        let declared: Vec<&str> = COMMANDS.iter().flat_map(Command::synopsis).collect();
        for word in &declared {
            match word.strip_prefix("--") {
                Some(option) => assert_eq!(spec(option.split(' ').next().unwrap()), Some(*word)),
                None => assert!(
                    word.trim_matches(['[', ']'])
                        .chars()
                        .all(|c| c.is_ascii_uppercase() || c == '_'),
                    "'{word}' is neither an option, a group nor a positional argument"
                ),
            }
        }
        for line in OPTIONS.lines() {
            let (spec, _) = line.split_once("  ").expect("--name [VALUE]  help");
            assert!(declared.contains(&spec), "no entry declares {spec}");
        }
    }
}
