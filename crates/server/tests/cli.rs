//! The `sofos-server` binary's argument handling, driven as a process.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

/// `--shards 0` used to die in `ShardRouter::new` ("a store needs at
/// least one shard"); the engine builder now clamps it like `--threads`.
#[test]
fn zero_shards_and_threads_boot_instead_of_panicking() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sofos-server"))
        .args([
            "--port",
            "0",
            "--no-views",
            "--shards",
            "0",
            "--threads",
            "0",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("sofos-server spawns");
    // Lines end at EOF if the process dies, so this cannot hang on a
    // panic; a live server prints the address once it is bound.
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let listening = stdout
        .lines()
        .map_while(Result::ok)
        .any(|line| line.starts_with("listening on http://"));
    child.kill().expect("server stops");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("stderr reads");
    child.wait().expect("server reaped");
    assert!(listening, "server never listened; stderr: {stderr}");
}
