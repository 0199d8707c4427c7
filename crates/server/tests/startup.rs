//! `mcdbr-server` start-up checks, run against the real binary.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn process_backend_without_a_worker_binary_refuses_to_start() {
    let missing = std::env::temp_dir().join(format!(
        "mcdbr-worker-absent-{}/mcdbr-worker",
        std::process::id()
    ));
    let mut server = Command::new(env!("CARGO_BIN_EXE_mcdbr-server"))
        .args(["--addr", "127.0.0.1:0"])
        .env("MCDBR_BACKEND", "process")
        .env("MCDBR_WORKER_BIN", &missing)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // A server that did start would wait for a Shutdown frame forever.
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = server.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            let _ = server.kill();
            let _ = server.wait();
            panic!("server started without a worker binary");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut stderr = String::new();
    server
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(!status.success());
    assert!(
        stderr.contains("worker binary not found") && stderr.contains(&*missing.to_string_lossy()),
        "stderr must name the missing path, got: {stderr}"
    );
}
