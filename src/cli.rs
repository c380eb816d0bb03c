//! The one command-line reader of every front end (`rpacalc`, `rpaserved`,
//! `rparouter`, the bench harnesses and `rpaclient`), and the
//! serve-until-drained tail the two daemons share.
//!
//! `-flag` and `--flag` are one flag. A refused command line prints one
//! line — ``-x needs a value``, ``invalid value `v` for -x: expected …``
//! or ``unknown argument `…` `` — then the usage text, and exits 1;
//! `-h` / `--help` prints the usage text alone, also with 1.

use mbrpa_serve::daemon::Daemon;
use mbrpa_serve::router::Router;
use mbrpa_serve::signal;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

/// Why a command line was refused.
#[derive(Debug)]
pub enum CliError {
    /// `-h` or `-help`: print the usage text alone.
    Help,
    /// The one line that says what was wrong.
    Refused(String),
}

/// The process's command line, read one argument at a time.
pub struct Flags {
    args: std::iter::Skip<std::env::Args>,
    /// The last argument read, as typed: messages quote it.
    typed: String,
}

impl Flags {
    /// The value that follows the current flag.
    pub fn value(&mut self) -> Result<String, CliError> {
        self.args
            .next()
            .ok_or_else(|| CliError::Refused(format!("{} needs a value", self.typed)))
    }

    /// A count that must be at least 1.
    pub fn count<T: FromStr + PartialOrd + From<u8>>(&mut self) -> Result<T, CliError> {
        self.integer(1, "a positive integer")
    }

    /// An integer that may be 0.
    pub fn uint<T: FromStr + PartialOrd + From<u8>>(&mut self) -> Result<T, CliError> {
        self.integer(0, "a non-negative integer")
    }

    fn integer<T: FromStr + PartialOrd + From<u8>>(
        &mut self,
        least: u8,
        expected: &str,
    ) -> Result<T, CliError> {
        let v = self.value()?;
        match v.parse::<T>() {
            Ok(n) if n >= T::from(least) => Ok(n),
            _ => Err(CliError::Refused(format!(
                "invalid value `{v}` for {}: expected {expected}",
                self.typed
            ))),
        }
    }

    /// The refusal of the current argument: `-h` / `-help` asks for the
    /// usage text, anything else is unknown.
    pub fn unknown(&self) -> CliError {
        match self.typed.as_str() {
            "-h" | "-help" | "--help" => CliError::Help,
            other => CliError::Refused(format!("unknown argument `{other}`")),
        }
    }
}

/// Hand every argument of the process, a leading `--` read as `-`, to
/// `arm`, which takes the values it needs from the reader; words that are
/// not flags come as they are. A refusal prints its line and `usage`, and
/// exits 1.
pub fn parse_args(usage: &str, mut arm: impl FnMut(&str, &mut Flags) -> Result<(), CliError>) {
    let mut flags = Flags {
        args: std::env::args().skip(1),
        typed: String::new(),
    };
    while let Some(typed) = flags.args.next() {
        let flag = match typed.strip_prefix("--") {
            Some(name) if !name.is_empty() && !name.starts_with('-') => format!("-{name}"),
            _ => typed.clone(),
        };
        flags.typed = typed;
        if let Err(e) = arm(&flag, &mut flags) {
            exit_with(e, usage);
        }
    }
}

/// Refuse a command line that parsed but cannot run: print `message` and
/// `usage`, exit 1.
pub fn refuse(usage: &str, message: &str) -> ! {
    exit_with(CliError::Refused(message.to_string()), usage)
}

fn exit_with(e: CliError, usage: &str) -> ! {
    if let CliError::Refused(line) = e {
        say(&line);
    }
    say(usage.trim_end());
    std::process::exit(1)
}

fn say(line: &str) {
    // lint: allow(print) — the front ends' own stderr
    eprintln!("{line}");
}

/// `-validate <kind> <file>`: check a stored document against its schema,
/// say so, and exit 0 when it is valid, 1 when not.
pub fn validate_and_exit(kind: &str, path: &str) -> ! {
    match mbrpa_serve::job::validate_file(kind, path) {
        Ok(_) => {
            // lint: allow(print) — the verdict is the mode's stdout
            println!("{path}: valid {kind} document");
            std::process::exit(0)
        }
        Err(e) => {
            say(&e);
            std::process::exit(1)
        }
    }
}

/// A bound listener that drains on request: `rpaserved`'s daemon or
/// `rparouter`'s router.
pub trait Drain {
    /// The address it bound.
    fn local_addr(&self) -> SocketAddr;
    /// Whether a client asked for a drain (`POST /v1/shutdown`).
    fn drain_requested(&self) -> bool;
    /// Stop accepting and wind down.
    fn drain(&mut self);
}

// both serve through the same three inherent methods
macro_rules! drain_by_inherent_methods {
    ($($t:ty),+) => {$(
        impl Drain for $t {
            fn local_addr(&self) -> SocketAddr { <$t>::local_addr(self) }
            fn drain_requested(&self) -> bool { <$t>::drain_requested(self) }
            fn drain(&mut self) { <$t>::drain(self) }
        }
    )+};
}
drain_by_inherent_methods!(Daemon, Router);

/// The daemons' tail once bound: print `{who}: listening on <addr>{note}`,
/// write the address to `port_file` at once, park until a signal or a
/// client requests a drain, then drain, saying `{who}: draining
/// ({draining})` first.
pub fn serve_until_drained(
    mut server: impl Drain,
    who: &str,
    note: &str,
    draining: &str,
    port_file: Option<&str>,
) -> ExitCode {
    let bound = server.local_addr();
    say(&format!("{who}: listening on {bound}{note}"));
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(path, bound.to_string()) {
            say(&format!("cannot write {path}: {e}"));
            return ExitCode::FAILURE;
        }
    }
    // A timed poll, not a condvar wait: the termination flag is set by a
    // signal handler, which may not notify one. No request waits on this.
    while !signal::termination_requested() && !server.drain_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    say(&format!("{who}: draining ({draining})"));
    server.drain();
    say(&format!("{who}: drained"));
    ExitCode::SUCCESS
}
