//! `anacin` binary entry point; all logic lives in the library so it can
//! be integration-tested.

use anacin_cli::args::Args;

fn main() {
    let parsed = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // Commands that write to sockets keep SIGPIPE ignored, so a peer
    // that goes away stays an error: the daemon, its client, and `bench`,
    // whose serve row runs an in-process daemon.
    if !matches!(
        parsed.command.as_deref(),
        Some("serve" | "client" | "bench")
    ) {
        anacin_obs::shutdown::restore_default_sigpipe();
    }
    let code = match anacin_cli::commands::dispatch(&parsed) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    std::process::exit(code);
}
