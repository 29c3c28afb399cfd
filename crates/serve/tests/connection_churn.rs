//! Connection churn must not grow the server process: a handler's thread
//! is released when its connection ends, not kept until shutdown.
//!
//! Linux only, since it counts the lines of `/proc/self/maps` (about two
//! per retained thread stack). It lives in its own test binary so no
//! other test's threads share the process while it measures.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use monityre_serve::ServerConfig;

/// Connections opened, pinged and closed one after another.
const CONNECTIONS: usize = 1000;

/// Allowed growth of `/proc/self/maps` over the whole run. A server that
/// keeps every exited handler grows by about two lines per connection.
const MAX_MAPS_GROWTH: usize = 100;

fn maps_lines() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("/proc/self/maps is readable")
        .lines()
        .count()
}

fn ping(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"{\"op\":\"ping\"}\n").expect("send ping");
    let mut reply = String::new();
    BufReader::new(&stream)
        .read_line(&mut reply)
        .expect("read reply");
    assert!(reply.contains("Pong"), "unexpected reply: {reply}");
}

#[test]
fn closed_connections_release_their_threads() {
    let handle = ServerConfig::default().start().expect("server starts");
    let addr = handle.addr();
    // Warm up so allocator arenas and lazily mapped state exist before
    // the baseline is taken.
    for _ in 0..20 {
        ping(addr);
    }
    let before = maps_lines();
    for _ in 0..CONNECTIONS {
        ping(addr);
    }
    let after = maps_lines();
    assert!(
        after < before + MAX_MAPS_GROWTH,
        "{CONNECTIONS} connections grew /proc/self/maps from {before} to {after} lines"
    );
    handle.shutdown();
}
