//! The service under test, run as its own process exactly as deployed.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use sss_server::Health;

use crate::load;

/// A running `stream-score serve --port 0 --workers 2`. Dropping it kills
/// the process and waits for it to end.
pub struct Service {
    child: Child,
    /// Held open so the server's start-up lines never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Service {
    /// Start the server and wait for its first `200 /healthz`; returns the
    /// service with the seconds that took.
    pub fn start(bin: &Path) -> Result<(Service, f64), String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(["serve", "--port", "0", "--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => parse_addr(&line),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server did not report its address: {line:?}"));
        };
        let service = Service {
            child,
            _stdout: stdout,
            addr,
        };
        loop {
            if service.healthz().is_some() {
                return Ok((service, t0.elapsed().as_secs_f64()));
            }
            if t0.elapsed() > Duration::from_secs(30) {
                return Err("server never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The current `/healthz` counters.
    pub fn healthz(&self) -> Option<Health> {
        let raw = b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n";
        let (status, body) = load::request(self.addr, raw, Duration::from_secs(5))?;
        if status != 200 {
            return None;
        }
        serde_json::from_str(std::str::from_utf8(&body).ok()?).ok()
    }

    /// The process's peak resident set (`VmHWM`), MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MB.
fn vm_hwm_mb(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `serving on http://127.0.0.1:PORT (...)` → the address.
fn parse_addr(line: &str) -> Option<SocketAddr> {
    let rest = line.split("http://").nth(1)?;
    rest.split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    #[test]
    fn parses_the_start_line() {
        let line = "serving on http://127.0.0.1:41234 (reactor frontend, 2 workers)\n";
        assert_eq!(
            super::parse_addr(line),
            Some("127.0.0.1:41234".parse().unwrap())
        );
    }
}
