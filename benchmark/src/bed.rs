//! The test bed's two child processes: the origin (this binary's
//! `origin` subcommand) and `botwall-serve --threads 1`.
//!
//! Both inherit the load generator's one-CPU mask, are killed by the
//! kernel if the load generator dies, and are reaped on drop, so no run
//! leaves a process behind.

use crate::sys;
use std::io::{self, BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};

fn other(msg: String) -> io::Error {
    io::Error::other(msg)
}

/// Reads lines from `from` until one contains `marker`, and parses the
/// socket address that follows it.
fn read_addr(from: &mut impl BufRead, marker: &str) -> io::Result<SocketAddr> {
    let mut line = String::new();
    loop {
        line.clear();
        if from.read_line(&mut line)? == 0 {
            return Err(other(format!("child exited before printing {marker:?}")));
        }
        if let Some(rest) = line.split(marker).nth(1) {
            let addr = rest.split_whitespace().next().unwrap_or_default();
            return addr
                .parse()
                .map_err(|_| other(format!("child printed an unparseable address {addr:?}")));
        }
    }
}

/// The origin child. Closing its stdin (on drop) ends it.
#[derive(Debug)]
pub struct OriginProc {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl OriginProc {
    /// Starts `exe origin`.
    pub fn spawn(exe: &Path) -> io::Result<OriginProc> {
        let mut cmd = Command::new(exe);
        cmd.arg("origin")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        sys::die_with_parent(&mut cmd);
        let mut child = cmd.spawn()?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let addr = match read_addr(&mut stdout, "origin listening on ") {
            Ok(addr) => addr,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        Ok(OriginProc { child, stdin, addr })
    }
}

impl Drop for OriginProc {
    fn drop(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}

/// The server under test.
#[derive(Debug)]
pub struct ServerProc {
    child: Option<Child>,
    /// Where it listens.
    pub addr: SocketAddr,
    /// Its process id, for `/proc`.
    pub pid: u32,
}

impl ServerProc {
    /// Starts `botwall-serve --threads 1` in front of `origin` on an
    /// ephemeral loopback port, seeded with `seed`.
    pub fn spawn(server_bin: &Path, origin: SocketAddr, seed: u64) -> io::Result<ServerProc> {
        let mut cmd = Command::new(server_bin);
        cmd.args(["--threads", "1", "--listen", "127.0.0.1:0", "--origin"])
            .arg(origin.to_string())
            .args(["--seed", &seed.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        sys::die_with_parent(&mut cmd);
        let mut child = cmd.spawn().map_err(|e| {
            other(format!(
                "cannot start the server {}: {e}",
                server_bin.display()
            ))
        })?;
        let pid = child.id();
        // The banner is the only line before the drain report; the rest
        // of stderr (two short lines) fits the pipe and is read at stop.
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr was piped"));
        match read_addr(&mut stderr, "listening on ") {
            Ok(addr) => {
                child.stderr = Some(stderr.into_inner());
                Ok(ServerProc {
                    child: Some(child),
                    addr,
                    pid,
                })
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// Sends SIGTERM, waits for the drain, and returns the final stats
    /// JSON the server prints on its way out.
    pub fn stop(mut self) -> io::Result<String> {
        let mut child = self.child.take().expect("stop runs once");
        sys::terminate(self.pid);
        let mut out = String::new();
        let read = match child.stdout.take() {
            Some(mut stdout) => stdout.read_to_string(&mut out).map(drop),
            None => Ok(()),
        };
        // Reap first, report afterwards: no path leaves a zombie.
        let status = child.wait()?;
        read?;
        if !status.success() {
            return Err(other(format!("the server exited with {status}")));
        }
        Ok(out)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
