//! In-memory spans recorded around the traced pass's calls into each
//! layer. Spans stay in memory until the pass ends; the per-layer metrics
//! are sums and medians over them.

use std::sync::Mutex;
use std::time::Instant;

/// `mpisim::simulate`.
pub const MPISIM: &str = "mpisim";
/// `EventGraph::from_trace`.
pub const GRAPH: &str = "event-graph";
/// `GraphKernel::features`.
pub const FEATURES: &str = "kernels.features";
/// `gram_from_features_with_metrics`, or one appended Gram row.
pub const GRAM: &str = "kernels.gram";
/// `Artifact::encode_into`.
pub const ENCODE: &str = "store.encode";
/// `ArtifactStore::put_bytes` (write, fsync, rename).
pub const PUT: &str = "store.put";
/// `ArtifactStore::get_bytes`.
pub const GET: &str = "store.get";
/// `Artifact::decode_from`.
pub const DECODE: &str = "store.decode";
/// `Client::run`: one job's submit-to-result round trip.
pub const ROUNDTRIP: &str = "serve.roundtrip";
/// One job re-run locally, layer by layer, against an equally warm store.
pub const DIRECT: &str = "serve.direct";

/// The layers whose spans count as busy work; `serve.*` spans enclose
/// them or run in another thread, so they are not added again.
const WORK: [&str; 8] = [MPISIM, GRAPH, FEATURES, GRAM, ENCODE, PUT, GET, DECODE];

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: &'static str,
    /// The request (run or job index) the span belongs to.
    id: usize,
    start_ns: u64,
    end_ns: u64,
    /// Threads the call kept busy (the Gram call fans out internally).
    threads: usize,
}

/// Spans of one traced pass.
pub struct Spans {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Spans {
    /// Run `f` inside a span of `layer` for request `id`.
    pub fn record<T>(&self, layer: &'static str, id: usize, f: impl FnOnce() -> T) -> T {
        self.record_on(layer, id, 1, f)
    }

    /// [`Spans::record`] for a call that keeps `threads` threads busy.
    pub fn record_on<T>(
        &self,
        layer: &'static str,
        id: usize,
        threads: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span list poisoned").push(Span {
            layer,
            id,
            start_ns,
            end_ns,
            threads,
        });
        out
    }

    /// Thread-weighted busy time of `layer`, in nanoseconds.
    pub fn busy_ns(&self, layer: &str) -> f64 {
        self.spans
            .lock()
            .expect("span list poisoned")
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| ((s.end_ns - s.start_ns) * s.threads as u64) as f64)
            .fold(0.0, |a, b| a + b)
    }

    /// Busy time summed over every working layer, in nanoseconds.
    pub fn work_ns(&self) -> f64 {
        WORK.iter().map(|l| self.busy_ns(l)).sum()
    }

    /// Number of spans of `layer`.
    pub fn count(&self, layer: &str) -> usize {
        self.spans
            .lock()
            .expect("span list poisoned")
            .iter()
            .filter(|s| s.layer == layer)
            .count()
    }

    /// Duration of each request's span of `layer`, in milliseconds, indexed
    /// by request id (`None` where the request has no such span).
    pub fn per_request_ms(&self, layer: &str, requests: usize) -> Vec<Option<f64>> {
        let mut out = vec![None; requests];
        for s in self.spans.lock().expect("span list poisoned").iter() {
            if s.layer == layer && s.id < requests {
                out[s.id] = Some((s.end_ns - s.start_ns) as f64 / 1e6);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_time_is_weighted_by_threads_and_grouped_by_request() {
        let nap = || std::thread::sleep(std::time::Duration::from_millis(2));
        let spans = Spans::default();
        assert_eq!(spans.record(MPISIM, 0, || 7), 7);
        spans.record(MPISIM, 0, nap);
        spans.record_on(GRAM, 1, 2, nap);
        assert!(spans.busy_ns(MPISIM) >= 2e6);
        assert!(spans.busy_ns(GRAM) >= 4e6);
        assert_eq!(spans.work_ns(), spans.busy_ns(MPISIM) + spans.busy_ns(GRAM));
        assert_eq!(spans.count(GRAM), 1);
        let per = spans.per_request_ms(GRAM, 3);
        assert!(per[0].is_none() && per[1].is_some() && per[2].is_none());
    }
}
