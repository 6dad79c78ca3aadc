//! The server child process: spawn, wait for health, measure set-up,
//! read peak memory, and always kill, reap and clean up.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::client::Conn;

/// How long the server may take from spawn to its first `200` on
/// `/health` (table generation plus recovery) before the run fails.
const SETUP_TIMEOUT: Duration = Duration::from_secs(120);

/// A directory under the benchmark's output directory that is removed
/// when dropped, whether the run succeeded or not.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(parent: &Path, tag: &str) -> Result<TempDir, String> {
        static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = parent.join(format!("tmp-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running `voxolap-server`. Dropping it kills and reaps the process,
/// joins its log reader and removes its data directory.
pub struct Server {
    child: Child,
    log_reader: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
    /// Spawn → first `200` from `/health`, in seconds.
    pub setup_s: f64,
    _data_dir: Option<TempDir>,
}

impl Server {
    /// Spawn `bin` on an ephemeral port with `flags` (plus `--data-dir`
    /// when `data_dir` is given) and wait until `/health` answers `200`.
    pub fn start(
        bin: &Path,
        flags: &[String],
        data_dir: Option<TempDir>,
    ) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--port", "0"]).args(flags);
        if let Some(dir) = &data_dir {
            cmd.arg("--data-dir").arg(dir.path());
        }
        cmd.stdin(Stdio::null()).stdout(Stdio::null()).stderr(Stdio::piped());
        let t0 = Instant::now();
        let mut child = cmd.spawn().map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        // The server logs every request to stderr; the reader reports the
        // bound address once and then drains the log so the pipe never
        // fills and blocks the server.
        let (tx, rx) = mpsc::channel();
        let log_reader = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.split("listening on http://").nth(1) {
                    if let (Some(tx), Some(addr)) = (tx.take(), rest.split_whitespace().next()) {
                        let _ = tx.send(addr.to_string());
                    }
                }
            }
        });
        let mut server = Server {
            child,
            log_reader: Some(log_reader),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup_s: 0.0,
            _data_dir: data_dir,
        };
        let addr = match rx.recv_timeout(SETUP_TIMEOUT) {
            Ok(a) => a,
            Err(_) => return Err("server did not report its address".to_string()),
        };
        server.addr = addr.parse().map_err(|e| format!("bad server address {addr:?}: {e}"))?;
        loop {
            if let Ok(mut conn) = Conn::connect(server.addr) {
                if let Ok((200, _)) = conn.get("/health") {
                    break;
                }
            }
            if t0.elapsed() > SETUP_TIMEOUT {
                return Err("server never answered /health".to_string());
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited during set-up: {status}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        server.setup_s = t0.elapsed().as_secs_f64();
        Ok(server)
    }

    /// Peak resident set (`VmHWM`) of the server so far, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.log_reader.take() {
            let _ = reader.join();
        }
    }
}
