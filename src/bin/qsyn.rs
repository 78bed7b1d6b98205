//! The `qsyn` command-line tool; see [`qsyn::cli`] for the full grammar.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match qsyn::cli::Command::parse(args) {
        Ok(cmd) => cmd,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    let mut stdout = std::io::stdout().lock();
    match qsyn::cli::run(&cmd, &mut stdout) {
        Ok(code) => ExitCode::from(u8::try_from(code).unwrap_or(2)),
        // The reader of a pipeline stopped early (`qsyn list | head -1`):
        // nobody is left to read the rest, so that is a normal end.
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
