//! The server under test as a separate process, and the closed-loop client
//! that drives it over loopback.

use crate::gen::Req;
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// Longest any one response may take before the run is abandoned.
const RESPONSE_DEADLINE: Duration = Duration::from_secs(60);

/// A running `slade-cli serve` process.
pub struct ServerProcess {
    child: Child,
    _stderr: BufReader<ChildStderr>,
    addr: String,
}

impl ServerProcess {
    /// Spawns `cli serve` on an ephemeral loopback port with two worker
    /// threads and waits for it to announce its address.
    pub fn spawn(cli: &Path, extra: &[String]) -> Result<ServerProcess, String> {
        let mut child = Command::new(cli)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
            .args(["--cache", &crate::gen::CACHE_CAPACITY.to_string()])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", cli.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let announced = stderr.read_line(&mut line).map_err(|e| e.to_string())?;
        let addr = line
            .trim()
            .strip_prefix("slade-server listening on ")
            .filter(|_| announced > 0)
            .map(str::to_string);
        match addr {
            Some(addr) => Ok(ServerProcess {
                child,
                _stderr: stderr,
                addr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not announce an address: {line:?}"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.addr)
    }

    /// Sends `shutdown` and waits for the process to exit cleanly.
    pub fn shutdown(mut self) -> Result<(), String> {
        let acked = self
            .connect()
            .and_then(|mut c| c.roundtrip(r#"{"op":"shutdown"}"#));
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return acked.map(|_| ()),
                Some(status) => return Err(format!("server exited with {status}")),
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not exit after shutdown".into());
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: std::io::BufWriter<TcpStream>,
    line: String,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(RESPONSE_DEADLINE))
            .map_err(|e| e.to_string())?;
        let reader =
            BufReader::with_capacity(1 << 16, stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: std::io::BufWriter::new(stream),
            line: String::new(),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
            .map_err(|e| format!("sending: {e}"))
    }

    fn flush(&mut self) -> Result<(), String> {
        self.writer.flush().map_err(|e| format!("sending: {e}"))
    }

    fn recv(&mut self) -> Result<&str, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("receiving: {e}")),
        }
    }

    /// One untagged request and its response.
    pub fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.flush()?;
        self.recv().map(str::to_string)
    }
}

/// What one connection saw during one pass over its list.
pub struct PassLog {
    /// Send-to-receive time of each request, in list order.
    pub latency_ns: Vec<u64>,
    /// Hash of each response line, in list order.
    pub hashes: Vec<u64>,
    /// Each response's `cost`, in list order (`NaN` for a failure).
    pub costs: Vec<f64>,
    /// Full response lines, kept only when asked for.
    pub lines: Vec<String>,
    /// Responses that were not `ok` and `feasible`, with the reason.
    pub failures: Vec<(usize, String)>,
}

/// Runs one closed-loop pass over `reqs`: at most `window` requests in
/// flight (tagged with their list index when `window > 1`), and never two
/// on the same plan id.
pub fn run_pass(
    conn: &mut Conn,
    reqs: &[Req],
    lines: &[String],
    window: usize,
    keep_lines: bool,
) -> Result<PassLog, String> {
    let n = reqs.len();
    let mut log = PassLog {
        latency_ns: vec![0; n],
        hashes: vec![0; n],
        costs: vec![f64::NAN; n],
        lines: if keep_lines {
            vec![String::new(); n]
        } else {
            Vec::new()
        },
        failures: Vec::new(),
    };
    let mut inflight: HashMap<usize, Instant> = HashMap::with_capacity(window);
    let mut busy: HashSet<&str> = HashSet::new();
    let mut next = 0;
    while next < n || !inflight.is_empty() {
        let mut sent = false;
        while next < n && inflight.len() < window {
            if let Some(id) = reqs[next].id.as_deref() {
                if !busy.insert(id) {
                    break;
                }
            }
            conn.send(&lines[next])?;
            inflight.insert(next, Instant::now());
            next += 1;
            sent = true;
        }
        if sent {
            conn.flush()?;
        }
        let response = conn.recv()?;
        let done = Instant::now();
        let index = if window > 1 {
            field(response, "seq")
                .and_then(|s| s.parse::<usize>().ok())
                .ok_or_else(|| format!("response without a seq: {response}"))?
        } else {
            *inflight
                .keys()
                .next()
                .ok_or("response with nothing in flight")?
        };
        let started = inflight
            .remove(&index)
            .ok_or_else(|| format!("response for request {index}, which is not in flight"))?;
        if let Some(id) = reqs[index].id.as_deref() {
            busy.remove(id);
        }
        log.latency_ns[index] = (done - started).as_nanos() as u64;
        log.hashes[index] = fnv1a(response.as_bytes());
        if !response.starts_with(r#"{"ok":true"#) || field(response, "feasible") != Some("true") {
            log.failures
                .push((index, response.chars().take(300).collect()));
        } else {
            log.costs[index] = field(response, "cost")
                .and_then(|c| c.parse().ok())
                .unwrap_or(f64::NAN);
        }
        if keep_lines {
            log.lines[index] = response.to_string();
        }
    }
    Ok(log)
}

/// The raw value of the first member named `key` (responses put their
/// summary members before the nested plan, so the first is the top-level
/// one).
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// User+system CPU time of a process, in clock ticks (`/proc/<pid>/stat`).
pub fn cpu_ticks(pid: u32) -> Result<u64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).map_err(|e| e.to_string())?;
    // The command name may hold spaces; fields resume after its `)`.
    let rest = &stat[stat.rfind(')').ok_or("bad /proc stat")? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields
        .get(11)
        .and_then(|f| f.parse().ok())
        .ok_or("bad utime")?;
    let stime: u64 = fields
        .get(12)
        .and_then(|f| f.parse().ok())
        .ok_or("bad stime")?;
    Ok(utime + stime)
}

/// Clock ticks per second of [`cpu_ticks`]: USER_HZ, which is 100 on
/// every Linux ABI.
pub const TICKS_PER_SECOND: f64 = 100.0;

/// A `kB` line of `/proc/<pid>/status`, or a plain count line.
pub fn status_value(pid: u32, key: &str) -> Result<u64, String> {
    let status =
        std::fs::read_to_string(format!("/proc/{pid}/status")).map_err(|e| e.to_string())?;
    status_field(&status, key)
}

fn status_field(status: &str, key: &str) -> Result<u64, String> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .ok_or_else(|| format!("no {key} in /proc status"))
}

/// Context switches (voluntary + involuntary) summed over every thread.
pub fn ctx_switches(pid: u32) -> Result<u64, String> {
    let mut total = 0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).map_err(|e| e.to_string())? {
        let path = task.map_err(|e| e.to_string())?.path().join("status");
        // A thread can exit between listing and reading.
        if let Ok(status) = std::fs::read_to_string(path) {
            total += status_field(&status, "voluntary_ctxt_switches")?
                + status_field(&status, "nonvoluntary_ctxt_switches")?;
        }
    }
    Ok(total)
}
