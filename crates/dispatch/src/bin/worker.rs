//! `mcdbr-worker`: the worker-process binary behind
//! [`mcdbr_dispatch::ProcessBackend`].
//!
//! Speaks the dispatch wire protocol over stdin/stdout — handshake, then
//! `Plan` / `Task` frames in, columnar partial-result frames out — and
//! exits cleanly on a `Shutdown` frame or when the coordinator closes the
//! pipe.  Protocol failures exit non-zero with the reason on stderr; the
//! coordinator treats that as a crash and respawns.
//!
//! Chaos runs set `MCDBR_FAULTS` (see `mcdbr-faults`) in the worker's
//! environment — inherited from the coordinator, or set per slot by
//! `ProcessBackend` — and the worker injects the plan's stall / slow /
//! drop / partial / delay faults into its own task replies.

fn main() {
    let stdin = std::io::stdin();
    let mut input = stdin.lock();
    // Reply frames go to the stdout pipe directly, one vectored write per
    // frame, not through std's line-buffered `Stdout` (which would split a
    // binary frame at every newline byte it carries).
    #[cfg(unix)]
    let mut output = {
        use std::os::fd::AsFd;
        match std::io::stdout().as_fd().try_clone_to_owned() {
            Ok(fd) => std::fs::File::from(fd),
            Err(e) => {
                eprintln!("mcdbr-worker: cannot open stdout: {e}");
                std::process::exit(1);
            }
        }
    };
    #[cfg(not(unix))]
    let mut output = std::io::stdout().lock();
    let faults = mcdbr_faults::env_injector();
    if let Err(e) =
        mcdbr_dispatch::worker::run_worker_with_faults(&mut input, &mut output, faults.as_deref())
    {
        eprintln!("mcdbr-worker: {e}");
        std::process::exit(1);
    }
}
