//! The outside view of the system: a keep-alive HTTP/1.1 client over
//! loopback, and control of one `ukc serve` child process.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ukc_json::Json;

/// Per-request socket timeout; a request that exceeds it is a failure.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// One keep-alive connection. A transport error drops the socket, and the
/// next request reconnects.
pub struct Conn {
    addr: String,
    stream: Option<BufReader<TcpStream>>,
}

impl Conn {
    pub fn new(addr: &str) -> Conn {
        Conn {
            addr: addr.to_string(),
            stream: None,
        }
    }

    fn open(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.stream.is_none() {
            let s = TcpStream::connect(&self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(IO_TIMEOUT))?;
            s.set_write_timeout(Some(IO_TIMEOUT))?;
            self.stream = Some(BufReader::new(s));
        }
        Ok(self.stream.as_mut().expect("stream just opened"))
    }

    /// Sends one request and returns `(status, body)`.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        let result = self.exchange(method, path, body);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        let reader = self.open()?;
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        {
            let w = reader.get_mut();
            w.write_all(head.as_bytes())?;
            w.write_all(body)?;
            w.flush()?;
        }
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut len = 0usize;
        let mut close = false;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "truncated head",
                ));
            }
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((k, v)) = l.split_once(':') {
                let k = k.trim().to_ascii_lowercase();
                if k == "content-length" {
                    len = v.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                } else if k == "connection" && v.trim().eq_ignore_ascii_case("close") {
                    close = true;
                }
            }
        }
        let mut out = vec![0u8; len];
        reader.read_exact(&mut out)?;
        if close {
            self.stream = None;
        }
        Ok((status, out))
    }

    /// A request whose failure or non-2xx status is a set-up error.
    pub fn expect_ok(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Vec<u8>, String> {
        match self.request(method, path, body) {
            Ok((s, b)) if (200..300).contains(&s) => Ok(b),
            Ok((s, b)) => Err(format!(
                "{method} {path}: status {s}: {}",
                String::from_utf8_lossy(&b)
            )),
            Err(e) => Err(format!("{method} {path}: {e}")),
        }
    }
}

/// `GET path`, parsed as JSON; a failure is a set-up error.
pub fn get_json(conn: &mut Conn, path: &str) -> Result<Json, String> {
    let body = conn.expect_ok("GET", path, b"")?;
    Json::parse(&String::from_utf8_lossy(&body)).map_err(|e| format!("{path}: {e}"))
}

/// The number at `path` inside `doc` (NaN when absent).
pub fn num(doc: &Json, path: &[&str]) -> f64 {
    let mut cur = doc;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return f64::NAN,
        }
    }
    cur.as_f64().unwrap_or(f64::NAN)
}

/// A running `ukc serve` process. Dropping it kills the process (SIGKILL)
/// and waits for it, so no server outlives the benchmark.
pub struct Server {
    child: Child,
    pub addr: String,
}

impl Server {
    /// Starts `ukc serve` on an ephemeral loopback port with `extra`
    /// flags, sending its log to `log`, and waits until it is listening.
    pub fn start(ukc: &Path, extra: &[&str], log: &Path) -> Result<Server, String> {
        let log_file = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(ukc)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .env("UKC_THREADS", "2")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", ukc.display()))?;
        let mut server = Server {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            // The line may arrive in several writes: wait for its end.
            if let Some((addr, _)) = text
                .split("listening on ")
                .nth(1)
                .and_then(|r| r.split_once('\n'))
            {
                server.addr = addr.trim().to_string();
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("ukc serve exited early ({status}): {text}"));
            }
            if Instant::now() > deadline {
                return Err(format!("ukc serve did not start: {text}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (VmHWM) of the server process, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.pid()))
    }

    /// `kill -9` and reap.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// VmHWM from a `/proc/<pid>/status` file, in MiB (NaN if unreadable).
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// A scratch directory inside the checkout, removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(root: &Path, name: &str) -> Result<ScratchDir, String> {
        let dir = root.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    pub fn join(&self, p: &str) -> PathBuf {
        self.0.join(p)
    }

    /// A path under the directory that no earlier call returned.
    pub fn fresh(&self, prefix: &str) -> PathBuf {
        (0..)
            .map(|i| self.0.join(format!("{prefix}-{i}")))
            .find(|p| !p.exists())
            .expect("an unused name")
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
