//! Round-trip latency gate for `mcdbr-server`.
//!
//! A small query on a warm loopback connection must cost what its
//! execution costs.  A frame sent as two writes (length prefix, then
//! payload) to a socket without `TCP_NODELAY` waits for the peer's
//! delayed ACK instead: Nagle's algorithm holds the payload until the
//! prefix is acknowledged, and Linux delays that ACK by ~40 ms.  The gate
//! sits at half that quantum, far above a healthy round trip but below any
//! round trip that includes one such stall.  It lives in its own test
//! binary so no concurrently running test skews its timings.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mcdbr::exec::InProcessBackend;
use mcdbr::server::client::{QueryReply, ServerClient};
use mcdbr::server::demo;
use mcdbr::server::service::{Server, ServerConfig};

#[test]
fn warm_loopback_round_trip_stays_under_half_the_delayed_ack_quantum() {
    let handle = Server::start(
        demo::demo_catalog().unwrap(),
        Arc::new(InProcessBackend::new()),
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = ServerClient::connect(handle.addr()).unwrap();
    let query = demo::demo_query();
    let reps = 4;
    let mut round_trip = |seed: u64| {
        let start = Instant::now();
        let reply = client.query(&query, reps, seed).unwrap();
        assert!(
            matches!(reply, QueryReply::Ok { .. }),
            "query {seed} was refused: {reply:?}"
        );
        start.elapsed()
    };
    // Warm-up: primes the server's session cache, so every timed query is
    // a skeleton hit that runs only phase 2 on 4 repetitions.
    round_trip(0);
    let mut times: Vec<Duration> = (1..=20).map(&mut round_trip).collect();
    times.sort();
    let median = times[times.len() / 2];
    drop(client);
    handle.shutdown();
    assert!(
        median < Duration::from_millis(20),
        "median round trip {median:?} is not below half the 40 ms delayed-ACK \
         quantum (sorted: {times:?})"
    );
}
