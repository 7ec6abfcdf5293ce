//! Child-process plumbing: every process the benchmark starts is killed
//! and reaped when its guard drops, and every wait has a deadline.

use std::path::Path;
use std::process::{Child, ExitStatus};
use std::time::{Duration, Instant};

/// A child that is killed and waited for on drop, so a failing or
/// panicking workload never leaves a daemon behind.
pub struct Guarded(pub Child);

impl Guarded {
    pub fn pid(&self) -> u32 {
        self.0.id()
    }

    /// Waits for the child to exit on its own until `deadline`; kills it
    /// when the deadline passes. Returns `None` after a kill.
    pub fn wait_until(&mut self, deadline: Instant) -> Option<ExitStatus> {
        loop {
            match self.0.try_wait() {
                Ok(Some(status)) => return Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    let _ = self.0.kill();
                    let _ = self.0.wait();
                    return None;
                }
            }
        }
    }
}

impl Drop for Guarded {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Peak resident set size (`VmHWM`) of a live process in MB, read from
/// `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Removes and recreates a scratch directory.
pub fn fresh_dir(path: &Path) -> std::io::Result<()> {
    if path.exists() {
        std::fs::remove_dir_all(path)?;
    }
    std::fs::create_dir_all(path)
}
