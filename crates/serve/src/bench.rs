//! Submit→result latency through the service socket, for
//! `anacin bench baseline`'s `serve` row.
//!
//! Spins up an in-process daemon on a scratch Unix socket with a fresh
//! store, runs the same campaign twice over the wire, and reports both
//! times: the first submit is cold (every artifact computed and
//! published), the second is warm (every artifact read back). Both
//! times are end-to-end columns of `anacin bench compare`, the paired
//! perf gate.

use crate::client::{Client, Outcome};
use crate::proto::JobSpec;
use crate::server::{Server, ServerConfig};
use anacin_core::prelude::CampaignConfig;
use anacin_miniapps::Pattern;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Cold and warm submit→result wall times through the socket.
#[derive(Debug, Clone, Copy)]
pub struct ServeLatency {
    /// First submission: empty store, everything computed.
    pub cold_ms: f64,
    /// Second submission of the identical campaign: fully warm.
    pub warm_ms: f64,
}

/// A unique scratch directory (process id + counter keeps concurrent
/// bench invocations and repeated calls apart).
fn scratch_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("anacin-serve-bench-{}-{n}", std::process::id()))
}

/// Measure cold and warm submit→result latency for one campaign
/// through a freshly started daemon. The daemon, store, and socket are
/// torn down before returning.
pub fn measure_serve_latency(
    pattern: Pattern,
    procs: u32,
    runs: u32,
) -> Result<ServeLatency, String> {
    let dir = scratch_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let result = run_measurement(&dir, pattern, procs, runs);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_measurement(
    dir: &std::path::Path,
    pattern: Pattern,
    procs: u32,
    runs: u32,
) -> Result<ServeLatency, String> {
    let socket = dir.join("serve.sock");
    let handle = Server::bind_unix(&socket, ServerConfig::new(dir.join("store")).workers(1))
        .map_err(|e| e.to_string())?
        .spawn();
    let config = CampaignConfig::new(pattern, procs).runs(runs);
    let mut client = Client::connect_unix(&socket, "anacin-bench").map_err(|e| e.to_string())?;
    let mut times_ms = [0.0f64; 2];
    for (i, slot) in times_ms.iter_mut().enumerate() {
        let job = JobSpec::Campaign {
            config: config.clone(),
        };
        let begun = Instant::now();
        match client.run(i as u64 + 1, job, |_| {}) {
            Ok(Outcome::Done(_)) => *slot = begun.elapsed().as_secs_f64() * 1e3,
            Ok(other) => return Err(format!("serve bench job did not complete: {other:?}")),
            Err(e) => return Err(e.to_string()),
        }
    }
    drop(client);
    handle.join();
    Ok(ServeLatency {
        cold_ms: times_ms[0],
        warm_ms: times_ms[1],
    })
}
