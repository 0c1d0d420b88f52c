//! The campaign daemon: accept loop, per-connection readers, a shared
//! worker pool, and one shared artifact store.
//!
//! Thread shape (all plain `std::thread`, no async runtime):
//!
//! - one **accept** thread blocked on the listener, so a client is
//!   accepted the moment it connects; a drain wakes it by connecting to
//!   the listener's own address;
//! - one **reader** thread per connection, decoding frames and admitting
//!   or cancelling jobs in the job table;
//! - `workers` **worker** threads claiming jobs from the table and
//!   executing them;
//! - one **ticker** thread per running job, streaming `Progress` frames
//!   every `progress_interval` from the job's registry and enforcing the
//!   per-job timeout, until its worker stops it.
//!
//! Every job opens its own [`ArtifactStore`] handle on the shared root
//! and gets a fresh [`MetricsRegistry`], so per-job progress deltas and
//! per-job hit/miss counts never interleave across concurrent jobs —
//! while the *disk* is shared, which is what makes client B's campaign
//! warm after client A ran the same configuration cold.
//!
//! Graceful drain ([`ServerHandle::drain`]): close the job table (new
//! submits get `Busy`), let workers finish everything queued and in
//! flight, then join. A result that had begun streaming is always
//! delivered.

use crate::frame::{read_frame, write_frame, FrameError};
use crate::jobs::{Cancel, Job, Jobs};
use crate::proto::{Frame, JobSpec, PROTOCOL_SCHEMA};
use anacin_core::prelude::*;
use anacin_core::report::to_json;
use anacin_mpisim::explore::ExploreConfig;
use anacin_obs::{CancelToken, MetricsRegistry, MetricsReport};
use anacin_store::{ArtifactStore, Fingerprint};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How a daemon behaves: where the shared store lives, how much it
/// runs at once, and when it pushes back.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Root of the shared artifact store all jobs read and publish to.
    pub store_dir: PathBuf,
    /// Worker threads executing jobs. `0` is legal (jobs queue but
    /// never run) and exists for backpressure tests.
    pub workers: usize,
    /// Total queued-job capacity; beyond it submits get `Busy`.
    pub queue_capacity: usize,
    /// Cancel a job cooperatively once it has run this long.
    pub job_timeout: Option<Duration>,
    /// How often a running job streams a `Progress` frame.
    pub progress_interval: Duration,
}

/// Backoff, in milliseconds, suggested in `Busy` frames.
pub(crate) const RETRY_AFTER_MS: u64 = 250;

impl ServerConfig {
    /// Defaults: workers from available parallelism (capped at 4),
    /// capacity 64, no timeout, 250 ms progress.
    pub fn new(store_dir: impl Into<PathBuf>) -> Self {
        ServerConfig {
            store_dir: store_dir.into(),
            workers: thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(1),
            queue_capacity: 64,
            job_timeout: None,
            progress_interval: Duration::from_millis(250),
        }
    }

    /// Set the worker-thread count.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Set the queued-job capacity.
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n;
        self
    }

    /// Set the per-job timeout.
    pub fn job_timeout(mut self, t: Duration) -> Self {
        self.job_timeout = Some(t);
        self
    }

    /// Set the progress-frame interval.
    pub fn progress_interval(mut self, t: Duration) -> Self {
        self.progress_interval = t;
        self
    }
}

/// A connected byte stream, Unix-domain or TCP.
pub(crate) enum Stream {
    /// Unix-domain socket (the default transport).
    Unix(UnixStream),
    /// TCP socket (`--listen`).
    Tcp(TcpStream),
}

impl Stream {
    pub(crate) fn connect_unix(path: &Path) -> io::Result<Stream> {
        UnixStream::connect(path).map(Stream::Unix)
    }

    pub(crate) fn connect_tcp(addr: &str) -> io::Result<Stream> {
        TcpStream::connect(addr).map(Stream::Tcp)
    }

    pub(crate) fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

enum Listener {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }
}

/// Where a connection reaches a daemon's listener.
enum Address {
    Unix(PathBuf),
    Tcp(SocketAddr),
}

impl Address {
    fn tcp(&self) -> Option<SocketAddr> {
        match self {
            Address::Tcp(addr) => Some(*addr),
            Address::Unix(_) => None,
        }
    }

    /// Connect and hang up at once: how [`ServerHandle::drain`] wakes the
    /// accept thread blocked on this address, which then sees the closed
    /// job table. False when nobody can reach the listener (say, its
    /// socket file was removed).
    fn knock(&self) -> bool {
        match self {
            Address::Unix(path) => UnixStream::connect(path).is_ok(),
            Address::Tcp(addr) => TcpStream::connect(addr).is_ok(),
        }
    }
}

/// The half-open frame writer of one connection, shared between its
/// reader thread (Busy/Error replies) and whichever workers run its
/// jobs (Progress/Result frames). The mutex serialises whole frames,
/// so concurrent jobs of one client never interleave bytes.
pub(crate) type SharedWriter = Arc<Mutex<Stream>>;

fn send(writer: &SharedWriter, frame: &Frame) -> bool {
    write_frame(&mut *writer.lock().unwrap(), frame).is_ok()
}

struct Shared {
    cfg: ServerConfig,
    /// Every admitted job until its terminal frame is written.
    jobs: Jobs,
    /// Server-level counters and histograms (`serve/*`, queue wait).
    reg: MetricsRegistry,
    /// First client to run each campaign fingerprint — later warm hits
    /// by a *different* client count as cross-client sharing.
    producers: Mutex<HashMap<Fingerprint, u64>>,
    next_client: AtomicU64,
}

/// A bound, not-yet-running daemon. [`Server::spawn`] starts the
/// threads and yields the [`ServerHandle`] used to drain and join.
pub struct Server {
    listener: Listener,
    cfg: ServerConfig,
    addr: Address,
}

impl Server {
    /// Bind a Unix-domain socket at `path` (a stale socket file from a
    /// previous daemon is removed first).
    pub fn bind_unix(path: impl AsRef<Path>, cfg: ServerConfig) -> io::Result<Server> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        Ok(Server {
            listener: Listener::Unix(listener, path.clone()),
            cfg,
            addr: Address::Unix(path),
        })
    }

    /// Bind a TCP listener, e.g. `127.0.0.1:0` for an ephemeral port
    /// (read it back with [`Server::local_addr`]).
    pub fn bind_tcp(addr: &str, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener: Listener::Tcp(listener),
            cfg,
            addr: Address::Tcp(addr),
        })
    }

    /// The bound TCP address (`None` for Unix sockets).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.addr.tcp()
    }

    /// Start the accept loop and worker pool.
    pub fn spawn(self) -> ServerHandle {
        let Server {
            listener,
            cfg,
            addr,
        } = self;
        let reg = MetricsRegistry::new();
        // Touch every serve counter so a drained daemon's report lists
        // the full set even when some never fired.
        for name in [
            "serve/clients",
            "serve/jobs_admitted",
            "serve/jobs_rejected",
            "serve/jobs_completed",
            "serve/jobs_failed",
            "serve/jobs_cancelled",
            "serve/store_hits",
            "serve/store_misses",
            "serve/store_puts",
            "serve/cross_client_hits",
        ] {
            reg.counter(name);
        }
        let shared = Arc::new(Shared {
            jobs: Jobs::new(cfg.queue_capacity, reg.clone()),
            reg,
            producers: Mutex::new(HashMap::new()),
            next_client: AtomicU64::new(1),
            cfg,
        });
        let workers = (0..shared.cfg.workers)
            .map(|i| {
                let sh = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&sh))
                    .expect("spawn worker thread")
            })
            .collect();
        let accept = {
            let sh = Arc::clone(&shared);
            thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(&sh, listener))
                .expect("spawn accept thread")
        };
        ServerHandle {
            shared,
            accept: Some(accept),
            workers,
            addr,
            woken: AtomicBool::new(false),
        }
    }
}

/// A running daemon. Dropping the handle does *not* stop the server;
/// call [`ServerHandle::join`] for a graceful drain.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
    addr: Address,
    /// A drain's wake-up connection reached the listener.
    woken: AtomicBool,
}

impl ServerHandle {
    /// The bound TCP address (`None` for Unix sockets).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.addr.tcp()
    }

    /// A point-in-time snapshot of the server registry (`serve/*`
    /// counters, queue-wait and execution histograms).
    pub fn metrics(&self) -> MetricsReport {
        self.shared.reg.report()
    }

    /// Begin a graceful drain: refuse new submits with `Busy`, and stop
    /// accepting connections. Everything already queued or running still
    /// finishes and delivers its `Result`.
    pub fn drain(&self) {
        self.shared.jobs.close();
        if !self.woken.load(Ordering::SeqCst) {
            self.woken.fetch_or(self.addr.knock(), Ordering::SeqCst);
        }
    }

    /// Drain and wait for the accept loop and every worker to finish,
    /// returning the final metrics snapshot. An accept thread the drain
    /// could not reach (its socket file was removed) can accept nobody,
    /// and is left behind rather than waited for.
    pub fn join(mut self) -> MetricsReport {
        self.drain();
        if let Some(a) = self.accept.take() {
            if self.woken.load(Ordering::SeqCst) {
                let _ = a.join();
            }
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.shared.reg.report()
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: Listener) {
    loop {
        let accepted = listener.accept();
        // The first connection after a drain, its own wake-up or a late
        // client, ends the loop unserved.
        if shared.jobs.is_closed() {
            break;
        }
        match accepted {
            Ok(stream) => {
                let client = shared.next_client.fetch_add(1, Ordering::Relaxed);
                let sh = Arc::clone(shared);
                let spawned = thread::Builder::new()
                    .name(format!("serve-client-{client}"))
                    .spawn(move || handle_client(&sh, stream, client));
                if spawned.is_err() {
                    // Out of threads: the connection drops; the client
                    // sees EOF and can retry.
                }
            }
            // A failing accept (say, out of file descriptors) fails again
            // at once; back off instead of spinning.
            Err(_) => thread::sleep(Duration::from_millis(25)),
        }
    }
    if let Listener::Unix(_, path) = &listener {
        let _ = std::fs::remove_file(path);
    }
}

fn handle_client(shared: &Shared, stream: Stream, client: u64) {
    let writer: SharedWriter = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut reader = stream;
    // The first frame must be Hello; answer with the negotiated schema
    // (the minimum both sides speak).
    match read_frame(&mut reader) {
        Ok(Some(Frame::Hello { schema, .. })) => {
            let negotiated = schema.min(PROTOCOL_SCHEMA);
            let hello = Frame::Hello {
                schema: negotiated,
                peer: "anacin-serve".into(),
            };
            if !send(&writer, &hello) {
                return;
            }
        }
        _ => {
            send(
                &writer,
                &Frame::Error {
                    id: 0,
                    message: "protocol error: expected Hello as the first frame".into(),
                },
            );
            return;
        }
    }
    shared.reg.counter("serve/clients").inc();
    loop {
        match read_frame(&mut reader) {
            Ok(Some(Frame::Submit { id, job })) => {
                let job = Job {
                    client,
                    id,
                    spec: job,
                    enqueued: Instant::now(),
                    writer: Arc::clone(&writer),
                };
                if !shared.jobs.admit(job) {
                    send(
                        &writer,
                        &Frame::Busy {
                            id,
                            retry_after_ms: RETRY_AFTER_MS,
                        },
                    );
                }
            }
            Ok(Some(Frame::Cancel { id })) => {
                let message = match shared.jobs.cancel(client, id) {
                    Cancel::Dequeued => "cancelled",
                    // The worker answers once the in-flight run finishes.
                    Cancel::Signalled => continue,
                    Cancel::Unknown => "no such job",
                };
                send(
                    &writer,
                    &Frame::Error {
                        id,
                        message: message.into(),
                    },
                );
            }
            Ok(Some(other)) => {
                send(
                    &writer,
                    &Frame::Error {
                        id: other.job_id().unwrap_or(0),
                        message: "protocol error: unexpected frame from client".into(),
                    },
                );
            }
            Ok(None) => break,
            Err(FrameError::Decode(e)) => {
                send(
                    &writer,
                    &Frame::Error {
                        id: 0,
                        message: format!("protocol error: {e}"),
                    },
                );
                break;
            }
            Err(_) => break,
        }
    }
    shared.jobs.disconnect(client);
}

fn worker_loop(shared: &Shared) {
    while let Some((job, cancel)) = shared.jobs.claim() {
        shared
            .reg
            .record_span("serve/queue_wait", job.enqueued.elapsed().as_nanos() as u64);
        send(&job.writer, &execute_job(shared, &job, &cancel));
        // Only after the terminal frame: a racing `Cancel` then finds
        // the job running, or answers "no such job" after that frame.
        shared.jobs.finish(job.client, job.id);
    }
}

enum JobOutcome {
    Done {
        payload: String,
        hits: u64,
        misses: u64,
        puts: u64,
    },
    Cancelled,
    Failed(String),
}

/// Run one claimed job and build its terminal frame, with the ticker
/// already joined so no `Progress` frame can follow it.
fn execute_job(shared: &Shared, job: &Job, cancel: &CancelToken) -> Frame {
    // A fresh registry per job: progress deltas and store counts are
    // exactly this job's, even with many jobs in flight.
    let reg = MetricsRegistry::new();
    let start = Instant::now();
    let (outcome, timed_out) = thread::scope(|s| {
        let (stop, stopped) = mpsc::channel::<()>();
        let ticker = thread::Builder::new()
            .name(format!("serve-progress-{}", job.id))
            .spawn_scoped(s, || tick(&shared.cfg, job, &reg, cancel, start, stopped))
            .expect("spawn progress ticker");
        let outcome = run_spec(shared, &job.spec, &reg, cancel);
        drop(stop);
        // A panicked ticker costs only Progress frames; still answer.
        (outcome, ticker.join().unwrap_or(false))
    });
    let elapsed = start.elapsed();
    shared
        .reg
        .record_span("serve/job_exec", elapsed.as_nanos() as u64);
    let id = job.id;
    match outcome {
        JobOutcome::Done {
            payload,
            hits,
            misses,
            puts,
        } => {
            shared.reg.counter("serve/jobs_completed").inc();
            shared.reg.counter("serve/store_hits").add(hits);
            shared.reg.counter("serve/store_misses").add(misses);
            shared.reg.counter("serve/store_puts").add(puts);
            attribute_sharing(shared, &job.spec, job.client, hits);
            Frame::Result {
                id,
                payload,
                elapsed_ms: elapsed.as_millis() as u64,
                store_hits: hits,
                store_misses: misses,
                store_puts: puts,
            }
        }
        JobOutcome::Cancelled => {
            shared.reg.counter("serve/jobs_cancelled").inc();
            let message = match shared.cfg.job_timeout {
                Some(limit) if timed_out => {
                    format!("job timed out after {} ms", limit.as_millis())
                }
                _ => "cancelled".to_string(),
            };
            Frame::Error { id, message }
        }
        JobOutcome::Failed(message) => {
            shared.reg.counter("serve/jobs_failed").inc();
            Frame::Error { id, message }
        }
    }
}

/// Credit warm hits to cross-client sharing when a *different* client
/// first produced this campaign's artifacts.
fn attribute_sharing(shared: &Shared, spec: &JobSpec, client: u64, hits: u64) {
    let fp = campaign_fingerprint(spec.config());
    let mut producers = shared.producers.lock().unwrap();
    match producers.get(&fp) {
        Some(&producer) => {
            if producer != client && hits > 0 {
                shared.reg.counter("serve/cross_client_hits").add(hits);
            }
        }
        None => {
            producers.insert(fp, client);
        }
    }
}

/// Run the job body. Every path opens its own handle on the shared
/// store root and mirrors store activity into the job registry.
fn run_spec(
    shared: &Shared,
    spec: &JobSpec,
    reg: &MetricsRegistry,
    cancel: &CancelToken,
) -> JobOutcome {
    let store = match ArtifactStore::open(&shared.cfg.store_dir) {
        Ok(s) => s,
        Err(e) => return JobOutcome::Failed(format!("store unavailable: {e}")),
    };
    store.attach_metrics(reg);
    let ctx = RunCtx {
        metrics: Some(reg),
        tracer: None,
        cancel: Some(cancel),
        store: Some(&store),
    };
    let payload = match job_payload(spec, &ctx) {
        Ok(payload) => payload,
        Err(e) if matches!(e.downcast_ref(), Some(CampaignError::Cancelled { .. })) => {
            return JobOutcome::Cancelled
        }
        Err(e) => return JobOutcome::Failed(e.to_string()),
    };
    let activity = store.activity();
    JobOutcome::Done {
        payload,
        hits: activity.hits,
        misses: activity.misses,
        puts: activity.puts,
    }
}

/// The job's result payload: exactly what the equivalent local command
/// prints, built through the same `anacin_core::report` functions.
fn job_payload(spec: &JobSpec, ctx: &RunCtx) -> Result<String, Box<dyn std::error::Error>> {
    let payload = match spec {
        JobSpec::Campaign { config } => {
            measurement_json(config, &run_campaign_with(config, ctx)?.matrix)?
        }
        // Same payload shape as `Campaign`; append-then-read is
        // byte-identical to a cold recompute, so the payload is too.
        JobSpec::Append { config } => {
            measurement_json(config, &run_campaign_append(config, ctx)?.matrix)?
        }
        JobSpec::Sweep { kind, config } => {
            let axis: SweepAxis = kind.parse()?;
            let points = axis.default_points(config);
            return Ok(sweep_text(&sweep(axis, config, &points, ctx)?));
        }
        JobSpec::Explore {
            config,
            budget,
            brute_force,
        } => {
            let mut xcfg = ExploreConfig::with_budget(*budget);
            if *brute_force {
                xcfg = xcfg.brute_force();
            }
            let result = run_campaign_with(config, ctx)?;
            let xr = explore_campaign(config, &result.program, &xcfg, ctx)?;
            let m = NdMeasurement::from_campaign(campaign_label(config), &result);
            to_json(&RunWithExploreReport {
                measurement: MeasurementReport::from(&m),
                explore: ExploreSection {
                    config: xcfg,
                    stats: xr.report.stats,
                    coverage: xr.coverage_of(&result),
                },
            })?
        }
    };
    Ok(format!("{payload}\n"))
}

/// Stream `Progress` frames from the job registry's deltas every
/// `progress_interval`, and cancel the job at its deadline, until the
/// worker drops the sender of `stop`. Between frames it sleeps in
/// `stop` until the next frame or the deadline, whichever is sooner.
/// Returns whether the deadline cancelled the job.
fn tick(
    cfg: &ServerConfig,
    job: &Job,
    reg: &MetricsRegistry,
    cancel: &CancelToken,
    start: Instant,
    stop: Receiver<()>,
) -> bool {
    let interval = cfg.progress_interval;
    let mut deadline = cfg.job_timeout.map(|limit| start + limit);
    let mut timed_out = false;
    let mut prev = reg.report();
    let mut last_emit = start;
    loop {
        let wake = deadline.map_or(last_emit + interval, |d| d.min(last_emit + interval));
        let wait = wake.saturating_duration_since(Instant::now());
        if stop.recv_timeout(wait) != Err(RecvTimeoutError::Timeout) {
            return timed_out;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            deadline = None;
            if !cancel.is_cancelled() {
                timed_out = true;
                cancel.cancel();
            }
        }
        if last_emit.elapsed() >= interval {
            let now = reg.report();
            let delta = now.delta_since(&prev);
            let frame = progress_frame(
                job.id,
                job.spec.total_runs(),
                &now,
                &delta,
                last_emit.elapsed(),
                start.elapsed(),
            );
            prev = now;
            last_emit = Instant::now();
            if !send(&job.writer, &frame) {
                // The client is unreachable; stop burning compute on a
                // result nobody will read.
                cancel.cancel();
                return timed_out;
            }
        }
    }
}

/// One `Progress` frame from a cumulative report plus the interval
/// delta — the same inputs the local `--progress` line renders from.
fn progress_frame(
    id: u64,
    total_runs: u64,
    report: &MetricsReport,
    delta: &MetricsReport,
    interval: Duration,
    elapsed: Duration,
) -> Frame {
    let done_runs = report.counter("sim/runs").unwrap_or(0).min(total_runs);
    let events = report.counter("sim/events").unwrap_or(0);
    let interval_events = delta
        .counters
        .iter()
        .find(|c| c.name == "sim/events")
        .map(|c| c.value)
        .unwrap_or(0);
    let secs = interval.as_secs_f64();
    let event_rate = if secs > 0.0 {
        interval_events as f64 / secs
    } else {
        0.0
    };
    let hottest = delta
        .spans
        .iter()
        .max_by_key(|s| s.total_ns)
        .map(|s| s.name.clone())
        .unwrap_or_default();
    let eta_ms = (done_runs > 0 && done_runs < total_runs).then(|| {
        let remaining = elapsed.as_secs_f64() * (total_runs - done_runs) as f64 / done_runs as f64;
        (remaining * 1000.0) as u64
    });
    Frame::Progress {
        id,
        done_runs,
        total_runs,
        events,
        event_rate,
        hottest,
        eta_ms,
    }
}
