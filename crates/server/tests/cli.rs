//! The `sofos-server` binary's argument handling, driven as a process.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

fn server() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sofos-server"))
}

/// An argument the server does not know (`--shards`, a typo) exits 1
/// before booting and names the flag next to the usage text.
#[test]
fn unknown_flags_exit_1_and_name_the_flag() {
    let cases: [(&[&str], &str); 3] = [
        (&["--shards", "0"], "--shards"),
        (&["--port", "0", "--bogus"], "--bogus"),
        (&["--backend", "serial"], "--backend"),
    ];
    for (args, flag) in cases {
        let output = server().args(args).output().expect("sofos-server runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("--staleness"), "usage text: {stderr}");
        assert!(
            output.stdout.is_empty(),
            "nothing booted: {}",
            String::from_utf8_lossy(&output.stdout)
        );
    }
}

#[test]
fn known_flags_still_boot() {
    let mut child = server()
        .args(["--port", "0", "--no-views"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("sofos-server spawns");
    // Lines end at EOF if the process dies, so this cannot hang on a
    // failed boot; a live server prints the address once it is bound.
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
