//! Declarative command-line flag tables for the workspace's binaries.
//!
//! A program declares each flag once as a [`Flag`] (name, value kind,
//! metavar, one help line, optional range rule) and lists its subcommands
//! as [`Form`]s built from slices of flags, so flags several subcommands
//! share are grouped once. [`main`] walks argv once against the matching
//! form and hands the typed [`Args`] to the form's runner; the usage text
//! is rendered from the same tables.
//!
//! Every malformed invocation is a usage error (exit 2) naming the flag or
//! argument at fault, raised before any simulation starts: an unknown flag,
//! a flag given twice, a missing value (a value never starts with `--`), a
//! value that does not parse or breaks its range rule, a stray or missing
//! positional, a missing required flag, and two flags declared exclusive.

use crate::run::Mechanism;

/// What a flag's value parses as.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// A presence switch; takes no value.
    Switch,
    /// An unsigned integer.
    Int,
    /// A finite number.
    Float,
    /// Free text: a path, a ref, a substring.
    Text,
    /// A comma-separated list of non-empty names.
    List,
    /// One mechanism name.
    Mech,
    /// A comma-separated list of mechanism names.
    Mechs,
}

/// One flag declaration.
#[derive(Debug)]
pub struct Flag {
    /// The flag as typed, `--name`.
    pub name: &'static str,
    /// What its value parses as.
    pub kind: Kind,
    /// Placeholder for the value in the help text (empty for switches).
    pub metavar: &'static str,
    /// One help line.
    pub help: &'static str,
    /// Range rule on a numeric value, such as
    /// [`check_sizing`](crate::check_sizing); the error states the rule.
    pub check: Option<fn(f64) -> Result<(), String>>,
}

impl Flag {
    /// A presence switch.
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            kind: Kind::Switch,
            metavar: "",
            help,
            check: None,
        }
    }

    /// A flag taking one value of `kind`.
    pub const fn value(
        name: &'static str,
        kind: Kind,
        metavar: &'static str,
        help: &'static str,
    ) -> Flag {
        Flag {
            name,
            kind,
            metavar,
            help,
            check: None,
        }
    }

    /// The same flag with a range rule on its numeric value.
    pub const fn checked(self, check: fn(f64) -> Result<(), String>) -> Flag {
        Flag {
            check: Some(check),
            ..self
        }
    }
}

/// One subcommand form: its command words, positionals, accepted flags,
/// and the function that runs it.
#[derive(Debug)]
pub struct Form {
    /// Command words after the program name (`"campaign shard"`; empty for
    /// a single-command program).
    pub command: &'static str,
    /// Positional placeholders, in order (`"<workload>"`). Positionals may
    /// appear anywhere among the flags.
    pub positionals: &'static [&'static str],
    /// One help line.
    pub about: &'static str,
    /// Accepted flags, as slices so shared groups are declared once.
    pub flags: &'static [&'static [&'static Flag]],
    /// Flags that must be given.
    pub required: &'static [&'static Flag],
    /// Pairs of flags that may not be given together.
    pub exclusive: &'static [(&'static Flag, &'static Flag)],
    /// Runs the parsed invocation.
    pub run: fn(&Args),
}

impl Form {
    /// A form with no required or exclusive flags.
    pub const fn new(
        command: &'static str,
        positionals: &'static [&'static str],
        about: &'static str,
        flags: &'static [&'static [&'static Flag]],
        run: fn(&Args),
    ) -> Form {
        Form {
            command,
            positionals,
            about,
            flags,
            required: &[],
            exclusive: &[],
            run,
        }
    }

    fn all_flags(&self) -> impl Iterator<Item = &'static Flag> + '_ {
        self.flags.iter().flat_map(|g| g.iter().copied())
    }

    fn find(&self, name: &str) -> Option<&'static Flag> {
        self.all_flags().find(|f| f.name == name)
    }

    fn words(&self) -> std::str::SplitWhitespace<'static> {
        self.command.split_whitespace()
    }
}

/// A parsed flag value.
#[derive(Clone, PartialEq, Debug)]
enum Value {
    Switch,
    Int(u64),
    Float(f64),
    Text(String),
    List(Vec<String>),
    Mech(Mechanism),
    Mechs(Vec<Mechanism>),
}

/// A parsed invocation: positionals in order plus one typed value per flag
/// given. Accessors return `None` (or `false`) for flags not given.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Args {
    positionals: Vec<String>,
    values: Vec<(&'static str, Value)>,
}

impl Args {
    fn get(&self, flag: &Flag) -> Option<&Value> {
        self.values
            .iter()
            .find(|(name, _)| *name == flag.name)
            .map(|(_, v)| v)
    }

    /// The positionals, in the form's declared order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Whether `flag` was given (any kind).
    pub fn has(&self, flag: &Flag) -> bool {
        self.get(flag).is_some()
    }

    /// An [`Kind::Int`] flag's value.
    pub fn int(&self, flag: &Flag) -> Option<u64> {
        match self.get(flag)? {
            Value::Int(v) => Some(*v),
            _ => panic!("{} is declared as {:?}", flag.name, flag.kind),
        }
    }

    /// A [`Kind::Float`] flag's value.
    pub fn float(&self, flag: &Flag) -> Option<f64> {
        match self.get(flag)? {
            Value::Float(v) => Some(*v),
            _ => panic!("{} is declared as {:?}", flag.name, flag.kind),
        }
    }

    /// A [`Kind::Text`] flag's value.
    pub fn text(&self, flag: &Flag) -> Option<&str> {
        match self.get(flag)? {
            Value::Text(v) => Some(v),
            _ => panic!("{} is declared as {:?}", flag.name, flag.kind),
        }
    }

    /// A [`Kind::List`] flag's entries.
    pub fn list(&self, flag: &Flag) -> Option<&[String]> {
        match self.get(flag)? {
            Value::List(v) => Some(v),
            _ => panic!("{} is declared as {:?}", flag.name, flag.kind),
        }
    }

    /// A [`Kind::Mech`] flag's mechanism.
    pub fn mech(&self, flag: &Flag) -> Option<Mechanism> {
        match self.get(flag)? {
            Value::Mech(v) => Some(*v),
            _ => panic!("{} is declared as {:?}", flag.name, flag.kind),
        }
    }

    /// A [`Kind::Mechs`] flag's mechanisms.
    pub fn mechs(&self, flag: &Flag) -> Option<&[Mechanism]> {
        match self.get(flag)? {
            Value::Mechs(v) => Some(v),
            _ => panic!("{} is declared as {:?}", flag.name, flag.kind),
        }
    }
}

/// A refused invocation: the message names the flag or argument at fault;
/// `command` is the subcommand whose usage applies, if one was recognised.
#[derive(Clone, PartialEq, Eq, Debug)]
struct UsageError {
    /// What was wrong.
    message: String,
    /// The recognised command words.
    command: Option<&'static str>,
}

/// Parses `argv` (without the program name) against `forms`: picks the
/// form by its command words and positional count, then walks the rest of
/// argv once. Returns the chosen form's index and its typed arguments.
fn parse(forms: &[Form], argv: &[String]) -> Result<(usize, Args), UsageError> {
    let candidates = command_forms(forms, argv);
    let Some(&first) = candidates.first() else {
        return Err(UsageError {
            message: match argv.first() {
                None => "missing subcommand".to_string(),
                Some(a) => format!("unknown subcommand `{a}`"),
            },
            command: None,
        });
    };
    let command = forms[first].command;
    let rest = &argv[forms[first].words().count()..];
    let index = if candidates.len() == 1 {
        first
    } else {
        pick_by_positionals(forms, &candidates, rest)
    };
    parse_form(&forms[index], rest)
        .map(|args| (index, args))
        .map_err(|message| UsageError {
            message,
            command: Some(command),
        })
}

/// Indices of the forms whose command words begin `argv`.
fn command_forms(forms: &[Form], argv: &[String]) -> Vec<usize> {
    (0..forms.len())
        .filter(|&i| {
            let words = forms[i].words();
            argv.len() >= words.clone().count() && words.zip(argv).all(|(w, a)| a.as_str() == w)
        })
        .collect()
}

/// Among forms sharing one command, the one whose positional count matches
/// argv's (counted with the union of their value flags); when none does,
/// the form whose count is nearest, so its error names what is missing or
/// stray.
fn pick_by_positionals(forms: &[Form], candidates: &[usize], rest: &[String]) -> usize {
    let takes_value = |name: &str| {
        candidates
            .iter()
            .any(|&i| forms[i].find(name).is_some_and(|f| f.kind != Kind::Switch))
    };
    let mut count = 0;
    let mut it = rest.iter().peekable();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            count += 1;
        } else if takes_value(a) && it.peek().is_some_and(|v| !v.starts_with("--")) {
            it.next();
        }
    }
    *candidates
        .iter()
        .min_by_key(|&&i| forms[i].positionals.len().abs_diff(count))
        .expect("at least one candidate")
}

fn parse_form(form: &Form, rest: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            if args.positionals.len() == form.positionals.len() {
                return Err(format!("unexpected argument `{a}`"));
            }
            args.positionals.push(a.clone());
            continue;
        }
        let flag = form.find(a).ok_or_else(|| format!("unknown flag `{a}`"))?;
        if args.has(flag) {
            return Err(format!("`{}` given more than once", flag.name));
        }
        let value = if flag.kind == Kind::Switch {
            Value::Switch
        } else {
            match it.next() {
                Some(v) if !v.starts_with("--") => parse_value(flag, v)?,
                _ => return Err(format!("missing value for `{}`", flag.name)),
            }
        };
        args.values.push((flag.name, value));
    }
    if let Some(missing) = form.positionals.get(args.positionals.len()) {
        return Err(format!("missing {missing}"));
    }
    if let Some(flag) = form.required.iter().find(|f| !args.has(f)) {
        return Err(format!("missing required flag `{}`", flag.name));
    }
    if let Some((a, b)) = form
        .exclusive
        .iter()
        .find(|(a, b)| args.has(a) && args.has(b))
    {
        return Err(format!("`{}` and `{}` exclude each other", a.name, b.name));
    }
    Ok(args)
}

fn parse_value(flag: &Flag, text: &str) -> Result<Value, String> {
    let name = flag.name;
    let number = |v: f64| match flag.check {
        Some(check) => check(v).map_err(|rule| format!("{name} {rule}")),
        None => Ok(()),
    };
    let entries = || -> Result<Vec<&str>, String> {
        let items: Vec<&str> = text.split(',').collect();
        if items.iter().any(|s| s.is_empty()) {
            return Err(format!("`{name}` has an empty entry in `{text}`"));
        }
        Ok(items)
    };
    let mechanism =
        |s: &str| Mechanism::parse(s).ok_or_else(|| format!("`{name}`: unknown mechanism `{s}`"));
    Ok(match flag.kind {
        Kind::Switch => Value::Switch,
        Kind::Int => {
            let v: u64 = text
                .parse()
                .map_err(|_| format!("`{name}` takes an unsigned integer, got `{text}`"))?;
            number(v as f64)?;
            Value::Int(v)
        }
        Kind::Float => {
            let v = text
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("`{name}` takes a finite number, got `{text}`"))?;
            number(v)?;
            Value::Float(v)
        }
        Kind::Text => Value::Text(text.to_string()),
        Kind::List => Value::List(entries()?.into_iter().map(str::to_string).collect()),
        Kind::Mech => Value::Mech(mechanism(text)?),
        Kind::Mechs => Value::Mechs(
            entries()?
                .into_iter()
                .map(mechanism)
                .collect::<Result<_, _>>()?,
        ),
    })
}

/// The help text for `forms` (all of them, or the ones of one command):
/// one entry per form with its positionals and flags.
fn usage(program: &str, forms: &[Form], command: Option<&str>) -> String {
    let mut out = String::from("usage:\n");
    for form in forms
        .iter()
        .filter(|f| command.is_none_or(|c| f.command == c))
    {
        out.push_str(&format!("  {program}"));
        for word in form.words().chain(form.positionals.iter().copied()) {
            out.push_str(&format!(" {word}"));
        }
        if form.all_flags().next().is_some() {
            out.push_str(" [options]");
        }
        out.push_str(&format!("\n      {}\n", form.about));
        for f in form.all_flags() {
            out.push_str(&flag_line(f));
        }
    }
    out
}

fn flag_line(f: &Flag) -> String {
    let spec = if f.metavar.is_empty() {
        f.name.to_string()
    } else {
        format!("{} {}", f.name, f.metavar)
    };
    format!("      {spec:<22} {}\n", f.help)
}

/// Parses the process arguments against `forms` and runs the chosen form.
/// A refused invocation prints the message and the relevant usage to
/// stderr and exits 2 before anything runs.
pub fn main(program: &str, forms: &[Form]) {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(forms, &argv) {
        Ok((index, args)) => (forms[index].run)(&args),
        Err(e) => exit_usage(program, forms, e.command, &e.message),
    }
}

/// Prints `message` and the usage of `command` (every form when `None`)
/// to stderr, then exits 2. For refusals a runner finds after parsing.
pub fn exit_usage(program: &str, forms: &[Form], command: Option<&str>, message: &str) -> ! {
    eprintln!("{program}: {message}\n");
    eprint!("{}", usage(program, forms, command));
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: Flag = Flag::value("--n", Kind::Int, "N", "a count")
        .checked(|v| crate::check_sizing(crate::SizingKnob::Rob, v));
    const X: Flag = Flag::value("--x", Kind::Float, "F", "a number");
    const ON: Flag = Flag::switch("--on", "a switch");
    const OFF: Flag = Flag::switch("--off", "another switch");
    const NAMES: Flag = Flag::value("--names", Kind::List, "a,b", "names");
    const MECHS: Flag = Flag::value("--mechs", Kind::Mechs, "a,b", "mechanisms");
    const SHARED: &[&Flag] = &[&N, &X];

    fn nothing(_: &Args) {}

    const FORMS: &[Form] = &[
        Form {
            command: "one",
            positionals: &["<name>"],
            about: "one positional",
            flags: &[SHARED, &[&ON, &OFF, &NAMES, &MECHS]],
            required: &[],
            exclusive: &[(&ON, &OFF)],
            run: nothing,
        },
        Form {
            command: "one",
            positionals: &["<a>", "<b>"],
            about: "two positionals",
            flags: &[&[&X]],
            required: &[],
            exclusive: &[],
            run: nothing,
        },
        Form {
            command: "two words",
            positionals: &[],
            about: "required flag",
            flags: &[SHARED],
            required: &[&N],
            exclusive: &[],
            run: nothing,
        },
    ];

    fn run(args: &[&str]) -> Result<(usize, Args), String> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse(FORMS, &argv).map_err(|e| e.message)
    }

    fn refused(args: &[&str]) -> String {
        run(args).expect_err("refused")
    }

    #[test]
    fn typed_values_and_positionals_anywhere() {
        let (i, a) = run(&["one", "--n", "3", "w", "--on", "--mechs", "base,cdf"]).unwrap();
        assert_eq!(i, 0);
        assert_eq!(a.positionals(), ["w"]);
        assert_eq!(a.int(&N), Some(3));
        assert!(a.has(&ON) && !a.has(&OFF));
        assert_eq!(a.float(&X), None);
        assert_eq!(
            a.mechs(&MECHS),
            Some(&[Mechanism::Baseline, Mechanism::Cdf][..])
        );
        let (i, a) = run(&["one", "p", "--x", "-1.5", "q"]).unwrap();
        assert_eq!(i, 1, "two positionals pick the second form");
        assert_eq!(a.float(&X), Some(-1.5));
        let (i, _) = run(&["two", "words", "--n", "1"]).unwrap();
        assert_eq!(i, 2);
    }

    #[test]
    fn every_refusal_names_its_cause() {
        for (args, needle) in [
            (&["one", "w", "--bogus"][..], "unknown flag `--bogus`"),
            (&["one", "w", "--n"], "missing value for `--n`"),
            (&["one", "w", "--n", "--on"], "missing value for `--n`"),
            (
                &["one", "w", "--n", "1", "--n", "2"],
                "`--n` given more than once",
            ),
            (&["one", "w", "--n", "x"], "`--n` takes an unsigned integer"),
            (
                &["one", "w", "--n", "0"],
                "--n must be at least 1 (a zero-entry ROB",
            ),
            (&["one", "w", "--x", "nan"], "`--x` takes a finite number"),
            (
                &["one", "w", "--names", "a,,b"],
                "`--names` has an empty entry",
            ),
            (&["one", "w", "--mechs", "warp"], "unknown mechanism `warp`"),
            (
                &["one", "w", "--on", "--off"],
                "`--on` and `--off` exclude each other",
            ),
            (&["one"], "missing <name>"),
            (&["one", "a", "b", "c"], "unexpected argument `c`"),
            (
                &["two", "words", "stray", "--n", "1"],
                "unexpected argument `stray`",
            ),
            (&["two", "words"], "missing required flag `--n`"),
            (&["three"], "unknown subcommand `three`"),
            (&[], "missing subcommand"),
        ] {
            let err = refused(args);
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }

    #[test]
    fn usage_lists_every_form_with_its_flags() {
        let text = usage("prog", FORMS, None);
        assert!(text.contains("prog one <name> [options]"));
        assert!(text.contains("prog one <a> <b> [options]"));
        assert!(text.contains("prog two words [options]"));
        assert_eq!(text.matches("  --x F ").count(), 3, "once per form");
        for f in [&N, &X, &ON, &OFF, &NAMES, &MECHS] {
            assert!(text.contains(f.name), "{} documented", f.name);
        }
        let one = usage("prog", FORMS, Some("two words"));
        assert!(!one.contains("prog one") && one.contains("--n N"));
    }
}
