//! Connection churn must not grow the server process: a handler's thread
//! is released when its connection ends, not kept until shutdown, and an
//! exited handler that evaluated leaves no flight-recorder log behind.
//!
//! Linux only, since it counts the lines of `/proc/self/maps` (about two
//! per retained thread stack) and the entries of `/proc/self/task`. It
//! lives in its own test binary, with a single test, so no other test's
//! threads share the process while it measures.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use monityre_serve::{Op, Request, ServerConfig, ServerHandle};

/// Connections opened, served and closed one after another, per phase.
const CONNECTIONS: usize = 1000;

/// Allowed growth of `/proc/self/maps` over the ping phase. A server that
/// keeps every exited handler grows by about two lines per connection.
const MAX_MAPS_GROWTH: usize = 100;

/// Allowed growth of the flight recorder over the evaluating phase:
/// eight 256-record rings. A recorder that keeps every exited handler's
/// log grows by several records per connection.
const MAX_RECORD_GROWTH: usize = 8 * 256;

fn maps_lines() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("/proc/self/maps is readable")
        .lines()
        .count()
}

fn tasks() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task is readable")
        .count()
}

/// Sends one line on a fresh connection and returns the reply line.
fn exchange(addr: SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(line.as_bytes()).expect("send request");
    let mut reply = String::new();
    BufReader::new(&stream)
        .read_line(&mut reply)
        .expect("read reply");
    reply
}

/// The `serve.connections.open` gauge, read from the metrics exposition.
fn open_connections(handle: &ServerHandle) -> i64 {
    let text = handle.prometheus_text();
    text.lines()
        .find_map(|line| line.strip_prefix("monityre_serve_connections_open "))
        .and_then(|value| value.trim().parse().ok())
        .unwrap_or_else(|| panic!("no open-connections gauge in:\n{text}"))
}

/// Polls `done` every 10 ms for up to 10 s; returns whether it held.
fn eventually(mut done: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while !done() {
        if start.elapsed() > Duration::from_secs(10) {
            return false;
        }
        thread::sleep(Duration::from_millis(10));
    }
    true
}

#[test]
fn closed_connections_release_their_threads() {
    let handle = ServerConfig::default().start().expect("server starts");
    let addr = handle.addr();
    let ping = "{\"op\":\"ping\"}\n";
    let mut breakeven = Request::new(Op::Breakeven);
    breakeven.params.steps = Some(16);
    let breakeven = serde_json::to_string(&breakeven).expect("encode") + "\n";
    // Warm up so allocator arenas and lazily mapped state exist before
    // the baselines are taken.
    for _ in 0..20 {
        assert!(exchange(addr, ping).contains("Pong"));
        assert!(exchange(addr, &breakeven).contains("\"ok\""));
    }

    let before = maps_lines();
    for _ in 0..CONNECTIONS {
        let reply = exchange(addr, ping);
        assert!(reply.contains("Pong"), "unexpected reply: {reply}");
    }
    let after = maps_lines();
    assert!(
        after < before + MAX_MAPS_GROWTH,
        "{CONNECTIONS} connections grew /proc/self/maps from {before} to {after} lines"
    );

    // Each evaluating connection runs its job on its own handler thread.
    // A handler that just released its count may not have exited yet, so
    // the baseline can only be high, never low.
    assert!(eventually(|| open_connections(&handle) == 0));
    let tasks_before = tasks();
    let records_before = monityre_obs::recorder::snapshot().len();
    for _ in 0..CONNECTIONS {
        let reply = exchange(addr, &breakeven);
        assert!(reply.contains("\"ok\""), "unexpected reply: {reply}");
    }
    assert!(
        eventually(|| open_connections(&handle) == 0 && tasks() <= tasks_before),
        "{CONNECTIONS} evaluating connections left threads behind: {} open, \
         {} tasks (baseline {tasks_before})",
        open_connections(&handle),
        tasks()
    );
    let records_after = monityre_obs::recorder::snapshot().len();
    assert!(
        records_after < records_before + MAX_RECORD_GROWTH,
        "{CONNECTIONS} evaluating connections grew the flight recorder \
         from {records_before} to {records_after} records"
    );
    handle.shutdown();
}
