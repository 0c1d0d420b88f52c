//! The `serve-mix` workload: an in-process campaign daemon with two
//! workers and a fresh store, driven by two client connections in a
//! closed loop (each sends its next job when the previous one returns,
//! with no think time), as `anacin client` callers block on the reply.
//!
//! A run replays one seeded sequence of 200 jobs per round against a
//! fresh store. 55% are new campaigns (cold: computed and published),
//! 30% repeat an earlier job exactly (warm: served from the store) and
//! 15% append one run to an earlier campaign (the stored prefix is
//! reused). With a cold majority the median job is a cold one rather than
//! whichever job sits on the boundary between the fast and slow classes.
//! Every job is a 10-run, 32-rank campaign over one of the five patterns
//! at ND 0, 50 or 100%.

use crate::report::{Metric, Outcome};
use crate::spans::{self, Spans};
use crate::stats::{median, quantile};
use crate::SETUP_REPS;
use crate::{layer_metrics, parallel_map, secs, Options, ServeReadings, Size, SplitMix64, Tally};
use anacin_core::prelude::*;
use anacin_event_graph::EventGraph;
use anacin_kernels::feature::SparseFeatures;
use anacin_kernels::kernel::GraphKernel;
use anacin_kernels::matrix::{gram_append, gram_from_features_with_metrics};
use anacin_kernels::KernelMatrix;
use anacin_miniapps::Pattern;
use anacin_mpisim::{simulate, Program, Trace};
use anacin_serve::client::{JobResult, Outcome as JobOutcome};
use anacin_serve::{Client, JobSpec, Server, ServerConfig, ServerHandle};
use anacin_store::{Artifact, ArtifactStore, ByteReader, ByteWriter, DistanceSample, Fingerprint};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Daemon worker threads; each job runs on one thread, so two jobs fill
/// two cores.
const WORKERS: usize = 2;
/// Client connections, each in a closed loop.
const CONNECTIONS: usize = 2;
/// The ND settings jobs cycle through.
const NDS: [f64; 3] = [0.0, 50.0, 100.0];
/// A repeat or append job is placed at least this many positions after
/// its twin, so the twin has usually finished when it is sent.
const TWIN_GAP: usize = 4;
/// Steal share below which the CPUs count as quiet.
const QUIET_STEAL: f64 = 0.05;
/// How long one quiet check keeps the CPUs busy.
const QUIET_SLICE: Duration = Duration::from_secs(1);
/// Longest wait for quiet CPUs before measuring anyway.
const QUIET_WAIT: Duration = Duration::from_secs(30);

/// How a job relates to the store when it is sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A campaign nothing before it shares artifacts with.
    Cold,
    /// An exact repeat of an earlier cold job.
    Warm,
    /// An earlier cold job grown by one run.
    Append,
}

/// One job of the sequence.
#[derive(Debug, Clone)]
pub struct Job {
    /// Cold, warm or append.
    pub class: Class,
    /// The campaign it asks for.
    pub config: CampaignConfig,
    /// The cold job a warm or append job derives from; it is sent only
    /// after that job has returned.
    pub twin: Option<usize>,
}

impl Job {
    fn spec(&self) -> JobSpec {
        let config = self.config.clone();
        match self.class {
            Class::Append => JobSpec::Append { config },
            Class::Cold | Class::Warm => JobSpec::Campaign { config },
        }
    }
}

/// (ranks, runs, cold, warm, append) of one round.
fn shape(size: Size) -> (u32, u32, usize, usize, usize) {
    match size {
        Size::Full => (32, 10, 110, 60, 30),
        Size::Tiny => (8, 4, 10, 7, 3),
    }
}

/// The job sequence of one round, a function of `seed` alone. Every
/// pattern is equally common in each class and the classes keep fixed
/// counts, so a round's mix does not vary with the seed; the seed picks
/// the order, the simulator seeds and the twins.
pub fn generate(size: Size, seed: u64) -> Vec<Job> {
    let (ranks, runs, cold, warm, append) = shape(size);
    let patterns = Pattern::ALL;
    let mut rng = SplitMix64::new(seed, 1);
    let mut cold_settings: Vec<(Pattern, f64)> = (0..cold)
        .map(|i| {
            (
                patterns[i % patterns.len()],
                NDS[(i / patterns.len()) % NDS.len()],
            )
        })
        .collect();
    let mut warm_patterns: Vec<Pattern> = (0..warm).map(|i| patterns[i % patterns.len()]).collect();
    let mut append_patterns: Vec<Pattern> =
        (0..append).map(|i| patterns[i % patterns.len()]).collect();
    rng.shuffle(&mut cold_settings);
    rng.shuffle(&mut warm_patterns);
    rng.shuffle(&mut append_patterns);

    let total = cold + warm + append;
    let mut jobs: Vec<Job> = Vec::with_capacity(total);
    let mut appended = vec![false; total];
    let (mut c, mut w, mut a) = (0, 0, 0);
    while jobs.len() < total {
        let pos = jobs.len();
        // Draw a class in proportion to what is left of each.
        let pick = rng.below(total - pos);
        let class = if pick < cold - c {
            Class::Cold
        } else if pick < cold - c + warm - w {
            Class::Warm
        } else {
            Class::Append
        };
        let twin = match class {
            Class::Cold => None,
            Class::Warm | Class::Append => {
                let pattern = if class == Class::Warm {
                    warm_patterns[w]
                } else {
                    append_patterns[a]
                };
                let fits = |j: &usize| {
                    let job: &Job = &jobs[*j];
                    job.class == Class::Cold
                        && job.config.pattern == pattern
                        && (class == Class::Warm || !appended[*j])
                };
                let far: Vec<usize> = (0..(pos + 1).saturating_sub(TWIN_GAP))
                    .filter(fits)
                    .collect();
                let near: Vec<usize> = (0..pos).filter(fits).collect();
                let candidates = if far.is_empty() { near } else { far };
                if candidates.is_empty() {
                    None
                } else {
                    Some(candidates[rng.below(candidates.len())])
                }
            }
        };
        let job = match twin {
            Some(j) if class == Class::Warm => {
                w += 1;
                Job {
                    class,
                    config: jobs[j].config.clone(),
                    twin: Some(j),
                }
            }
            Some(j) => {
                a += 1;
                appended[j] = true;
                let grown = jobs[j].config.runs + 1;
                Job {
                    class,
                    config: jobs[j].config.clone().runs(grown),
                    twin: Some(j),
                }
            }
            // No twin yet for the drawn pattern: send a new campaign.
            None if c < cold => {
                let (pattern, nd) = cold_settings[c];
                c += 1;
                let mut config = CampaignConfig::new(pattern, ranks)
                    .runs(runs)
                    .nd_percent(nd)
                    .base_seed(rng.base_seed());
                config.threads = 1;
                Job {
                    class: Class::Cold,
                    config,
                    twin: None,
                }
            }
            None => unreachable!("every pattern has a cold job once all cold jobs are placed"),
        };
        jobs.push(job);
    }
    jobs
}

/// How one submitted job ended, seen from the client.
struct Sent {
    latency_ms: f64,
    result: Result<JobResult, String>,
    busy: bool,
}

/// Create `dir`, which must not exist yet, so a store opened in it starts
/// empty.
fn fresh_dir(dir: &Path) -> Result<(), String> {
    std::fs::create_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// A daemon on a fresh store in the new directory `dir`, with every
/// connection open.
fn start(dir: &Path) -> Result<(ServerHandle, Vec<Client>), String> {
    fresh_dir(dir)?;
    let store = dir.join("store");
    ArtifactStore::open(&store).map_err(|e| format!("store: {e}"))?;
    let socket = dir.join("serve.sock");
    let handle = Server::bind_unix(&socket, ServerConfig::new(&store).workers(WORKERS))
        .map_err(|e| format!("bind {}: {e}", socket.display()))?
        .spawn();
    let clients: Result<Vec<Client>, _> = (0..CONNECTIONS)
        .map(|_| Client::connect_unix(&socket, "perfbench"))
        .collect();
    match clients {
        Ok(clients) => Ok((handle, clients)),
        Err(e) => {
            handle.join();
            Err(format!("connect: {e}"))
        }
    }
}

/// Run every job through a fresh daemon; returns each job's outcome in
/// sequence order and the wall time from first submit to last result.
fn round(dir: &Path, jobs: &[Job], spans: Option<&Spans>) -> Result<(Vec<Sent>, f64), String> {
    let (handle, clients) = start(dir)?;
    let next = AtomicUsize::new(0);
    let returned = (Mutex::new(vec![false; jobs.len()]), Condvar::new());
    let started = Instant::now();
    let sent: Vec<(usize, Sent)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let (next, returned) = (&next, &returned);
                s.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= jobs.len() {
                            return local;
                        }
                        if let Some(twin) = jobs[k].twin {
                            let mut done = returned.0.lock().expect("job table poisoned");
                            while !done[twin] {
                                done = returned.1.wait(done).expect("job table poisoned");
                            }
                        }
                        let t = Instant::now();
                        let mut call = || client.run(k as u64 + 1, jobs[k].spec(), |_| {});
                        let outcome = match spans {
                            Some(sp) => sp.record(spans::ROUNDTRIP, k, call),
                            None => call(),
                        };
                        let latency_ms = secs(t) * 1e3;
                        let (result, busy) = match outcome {
                            Ok(JobOutcome::Done(r)) => (Ok(r), false),
                            Ok(JobOutcome::Rejected { .. }) => (Err("refused: Busy".into()), true),
                            Ok(JobOutcome::Failed { message }) => (Err(message), false),
                            Err(e) => (Err(e.to_string()), false),
                        };
                        local.push((
                            k,
                            Sent {
                                latency_ms,
                                result,
                                busy,
                            },
                        ));
                        returned.0.lock().expect("job table poisoned")[k] = true;
                        returned.1.notify_all();
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = secs(started);
    handle.join();
    let mut ordered: Vec<Option<Sent>> = (0..jobs.len()).map(|_| None).collect();
    for (k, s) in sent {
        ordered[k] = Some(s);
    }
    Ok((
        ordered
            .into_iter()
            .map(|s| s.expect("every job sent"))
            .collect(),
        wall,
    ))
}

/// `anacin run --json` output of every distinct job, computed locally
/// without store or daemon (warm jobs share their twin's).
fn expected_payloads(jobs: &[Job]) -> Vec<Result<String, String>> {
    let mut expected = parallel_map(WORKERS, jobs.len(), |k| {
        (jobs[k].class != Class::Warm).then(|| {
            let config = &jobs[k].config;
            let matrix = run_campaign(config).map_err(|e| e.to_string())?.matrix;
            payload(config, &matrix)
        })
    });
    // A warm job expects its twin's payload; twins come first.
    for k in 0..jobs.len() {
        if expected[k].is_none() {
            expected[k] = expected[jobs[k].twin.expect("warm jobs have a twin")].clone();
        }
    }
    expected
        .into_iter()
        .map(|e| e.expect("every job has an expected payload"))
        .collect()
}

fn payload(config: &CampaignConfig, matrix: &KernelMatrix) -> Result<String, String> {
    measurement_json(config, matrix)
        .map(|json| format!("{json}\n"))
        .map_err(|e| e.to_string())
}

/// The `"mean"` field of a measurement payload.
fn mean_of(payload: &str) -> Option<f64> {
    let rest = &payload[payload.find("\"mean\":")? + 7..];
    rest[..rest.find([',', '\n'])?].trim().parse().ok()
}

/// Check one round's job `k`; `None` when it passed.
fn check(
    k: usize,
    jobs: &[Job],
    sent: &[Sent],
    expected: &[Result<String, String>],
) -> Option<String> {
    let job = &jobs[k];
    let r = match &sent[k].result {
        Ok(r) => r,
        Err(e) => return Some(format!("job {k}: {e}")),
    };
    match &expected[k] {
        Err(e) => return Some(format!("job {k}: local run failed: {e}")),
        Ok(p) if *p != r.payload => {
            return Some(format!(
                "job {k}: payload differs from local measurement_json"
            ))
        }
        Ok(_) => {}
    }
    // A store left over from another run would serve cold jobs warm.
    if job.class == Class::Cold && (r.store_hits != 0 || r.store_puts == 0) {
        return Some(format!(
            "job {k}: cold job found {} artifacts and published {}",
            r.store_hits, r.store_puts
        ));
    }
    if job.class == Class::Warm {
        let twin = job.twin.expect("warm jobs have a twin");
        let twin_payload = sent[twin].result.as_ref().map(|t| &t.payload);
        if twin_payload != Ok(&r.payload) {
            return Some(format!(
                "job {k}: warm repeat differs from its cold twin {twin}"
            ));
        }
        if r.store_puts != 0 {
            return Some(format!(
                "job {k}: warm repeat published {} artifacts",
                r.store_puts
            ));
        }
    }
    if job.config.nd_percent == 0.0 && mean_of(&r.payload) != Some(0.0) {
        return Some(format!("job {k}: ND 0 job has a nonzero mean distance"));
    }
    None
}

/// Measure `serve-mix`, then trace and check it.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let jobs = generate(opts.size, opts.seed);
    let work = &opts.work_dir;
    let mut out = Outcome::default();

    // A cold job waits on 64 fsyncs, each ended by a wake-up that needs a
    // CPU. While the hypervisor gives this machine's CPUs to other tenants
    // those wake-ups are late: on the 2-core VM this benchmark was tuned
    // on, cold p50 went from 26 ms at 1% steal to 74 ms at 15%, a far
    // larger swing than the stolen share. So the rounds start once the
    // CPUs are quiet, or after QUIET_WAIT at the latest.
    let limit = match opts.size {
        Size::Full => QUIET_WAIT,
        Size::Tiny => Duration::ZERO,
    };
    let (quiet_wait_s, steal) = crate::sys::wait_for_quiet(QUIET_STEAL, QUIET_SLICE, limit);

    // Set-up: store and daemon start, then every connection's handshake.
    let mut setup_s = Vec::new();
    for i in 0..SETUP_REPS {
        let dir = work.join(format!("setup-{i}"));
        let t = Instant::now();
        let (handle, clients) = start(&dir)?;
        setup_s.push(secs(t));
        drop(clients);
        handle.join();
    }

    crate::sys::reset_peak_rss();
    let mut rounds = Vec::new();
    let started = Instant::now();
    while rounds.is_empty() || secs(started) < opts.seconds {
        rounds.push(round(
            &work.join(format!("round-{}", rounds.len())),
            &jobs,
            None,
        )?);
    }
    let peak_rss = crate::sys::peak_rss_mib().unwrap_or(0.0);

    let expected = expected_payloads(&jobs);
    let mut latency = [Vec::new(), Vec::new(), Vec::new()];
    let mut all_ms = Vec::new();
    let mut busy = 0;
    for (sent, _) in &rounds {
        for k in 0..jobs.len() {
            out.attempt(check(k, &jobs, sent, &expected));
            busy += sent[k].busy as u64;
            if sent[k].result.is_ok() {
                all_ms.push(sent[k].latency_ms);
                latency[jobs[k].class as usize].push(sent[k].latency_ms);
            }
        }
    }
    let round_total: f64 = rounds.iter().map(|(_, wall)| wall).sum();
    let [cold_ms, warm_ms, append_ms] = latency;
    out.end_to_end = vec![
        Metric::new("setup_s", "s", median(&setup_s), setup_s.len()),
        Metric::new("campaign_p50_ms", "ms", median(&all_ms), all_ms.len()),
        Metric::new(
            "cold_campaign_p50_ms",
            "ms",
            median(&cold_ms),
            cold_ms.len(),
        ),
        Metric::new(
            "campaigns_per_s",
            "1/s",
            all_ms.len() as f64 / round_total,
            all_ms.len(),
        ),
        Metric::once("peak_rss_mib", "MiB", peak_rss),
    ];
    if opts.trace {
        let untraced = ServeReadings {
            busy_refusals: busy,
            job_p90_ms: (quantile(&all_ms, 0.9).unwrap_or(0.0), all_ms.len()),
            warm_job_p50_ms: (median(&warm_ms), warm_ms.len()),
            append_job_p50_ms: (median(&append_ms), append_ms.len()),
            ..ServeReadings::default()
        };
        let mean_round_s = round_total / rounds.len() as f64;
        out.per_layer = traced(work, &jobs, &expected, mean_round_s, untraced, &mut out)?;
    }
    let (ranks, runs, cold, warm, append) = shape(opts.size);
    out.context.extend([
        ("engine", "anacin_serve::Client::run".to_string()),
        ("ranks", ranks.to_string()),
        ("runs", runs.to_string()),
        (
            "jobs_per_round",
            format!("{} ({cold} cold, {warm} warm, {append} append)", jobs.len()),
        ),
        ("rounds", rounds.len().to_string()),
        ("workers", WORKERS.to_string()),
        ("connections", CONNECTIONS.to_string()),
        (
            "store",
            "fresh per round, under the work directory".to_string(),
        ),
        ("quiet_wait_s", format!("{quiet_wait_s:.1}")),
        ("steal_before_pct", format!("{:.1}", steal * 100.0)),
    ]);
    Ok(out)
}

/// The traced pass: one more round with a span around every round trip,
/// then every job again, locally and layer by layer, checked against the
/// payload the daemon served.
fn traced(
    work: &Path,
    jobs: &[Job],
    expected: &[Result<String, String>],
    mean_round_s: f64,
    mut serve: ServeReadings,
    out: &mut Outcome,
) -> Result<Vec<Metric>, String> {
    let spans = Spans::default();
    let (sent, round_s) = round(&work.join("traced"), jobs, Some(&spans))?;
    let direct = work.join("direct");
    fresh_dir(&direct)?;
    let mut tally = Tally::default();
    let t = Instant::now();
    for (k, job) in jobs.iter().enumerate() {
        let local = spans.record(spans::DIRECT, k, || {
            let mut replay = Replay {
                store: ArtifactStore::open(&direct).map_err(|e| e.to_string())?,
                spans: &spans,
                tally: &mut tally,
                id: k,
            };
            let matrix = replay.job(job)?;
            let a = replay.store.activity();
            Ok::<_, String>((payload(&job.config, &matrix)?, [a.hits, a.misses, a.puts]))
        });
        out.attempt(check(k, jobs, &sent, expected));
        serve.busy_refusals += sent[k].busy as u64;
        // The replay copies the engine's store access order; the daemon's
        // per-job store counts catch the two drifting apart.
        out.attempt(match (local, &sent[k].result) {
            (Err(e), _) => Some(format!("job {k}: local layer-by-layer re-run failed: {e}")),
            (Ok((p, _)), Ok(r)) if p != r.payload => Some(format!(
                "job {k}: local layer-by-layer re-run differs from the served payload"
            )),
            (Ok((_, counts)), Ok(r)) if counts != [r.store_hits, r.store_misses, r.store_puts] => {
                Some(format!(
                    "job {k}: re-run store hits/misses/puts {counts:?}, daemon's {:?}",
                    [r.store_hits, r.store_misses, r.store_puts]
                ))
            }
            (Ok(_), Ok(_)) => None,
            (Ok(_), Err(e)) => Some(format!("job {k}: {e}")),
        });
    }
    let direct_s = secs(t);

    let roundtrip = spans.per_request_ms(spans::ROUNDTRIP, jobs.len());
    let direct = spans.per_request_ms(spans::DIRECT, jobs.len());
    let present = |v: &[Option<f64>]| v.iter().flatten().copied().collect::<Vec<f64>>();
    let overhead: Vec<f64> = roundtrip
        .iter()
        .zip(&direct)
        .filter_map(|(r, d)| Some((*r)? - (*d)?))
        .collect();
    serve.roundtrip_ms = median(&present(&roundtrip));
    serve.direct_ms = median(&present(&direct));
    serve.overhead_ms = median(&overhead);
    serve.payload_bytes = sent
        .iter()
        .filter_map(|s| s.result.as_ref().ok())
        .map(|r| r.payload.len() as u64)
        .sum();
    let overhead_pct = (round_s / mean_round_s - 1.0) * 100.0;
    Ok(layer_metrics(
        &spans,
        &tally,
        1,
        direct_s,
        overhead_pct,
        serve,
    ))
}

/// One job re-run locally, layer by layer, with the artifact lookups
/// and publications the daemon's incremental engine makes, so the store
/// it works on warms exactly as the daemon's does.
struct Replay<'a> {
    store: ArtifactStore,
    spans: &'a Spans,
    tally: &'a mut Tally,
    id: usize,
}

impl Replay<'_> {
    fn get<A: Artifact>(&mut self, fp: Fingerprint) -> Result<Option<A>, String> {
        self.tally.gets += 1;
        let found = self
            .spans
            .record(spans::GET, self.id, || self.store.get_bytes(fp, A::KIND))
            .map_err(|e| e.to_string())?;
        let Some(bytes) = found else {
            return Ok(None);
        };
        self.tally.hits += 1;
        self.spans
            .record(spans::DECODE, self.id, || {
                let mut r = ByteReader::new(&bytes);
                let v = A::decode_from(&mut r)?;
                r.finish().map(|()| v)
            })
            .map(Some)
            .map_err(|e| e.to_string())
    }

    fn put<A: Artifact>(&mut self, fp: Fingerprint, value: &A) -> Result<(), String> {
        let bytes = self.spans.record(spans::ENCODE, self.id, || {
            let mut w = ByteWriter::new();
            value.encode_into(&mut w);
            w.into_bytes()
        });
        self.tally.puts += 1;
        self.tally.put_bytes += bytes.len() as u64;
        self.spans
            .record(spans::PUT, self.id, || {
                self.store.put_bytes(fp, A::KIND, &bytes)
            })
            .map_err(|e| e.to_string())
    }

    /// Every run's event graph: traces and graphs read from the store or
    /// computed and published.
    fn graphs(
        &mut self,
        config: &CampaignConfig,
        program: &Program,
    ) -> Result<Vec<EventGraph>, String> {
        let mut traces: Vec<Option<Trace>> = Vec::with_capacity(config.runs as usize);
        for run in 0..config.runs {
            traces.push(self.get(run_fingerprint(config, run))?);
        }
        for (run, slot) in traces.iter_mut().enumerate() {
            if slot.is_none() {
                let sc = config.sim_config(run as u32);
                let trace = self
                    .spans
                    .record(spans::MPISIM, self.id, || simulate(program, &sc))
                    .map_err(|e| format!("run {run}: {e}"))?;
                self.tally.events += trace.total_events() as u64;
                self.put(run_fingerprint(config, run as u32), &trace)?;
                *slot = Some(trace);
            }
        }
        let mut graphs = Vec::with_capacity(traces.len());
        for (run, trace) in traces.iter().enumerate() {
            let fp = run_fingerprint(config, run as u32);
            let graph = match self.get(fp)? {
                Some(g) => g,
                None => {
                    let trace = trace.as_ref().expect("every trace loaded or simulated");
                    let g = self
                        .spans
                        .record(spans::GRAPH, self.id, || EventGraph::from_trace(trace));
                    self.tally.nodes += g.node_count() as u64;
                    self.put(fp, &g)?;
                    g
                }
            };
            graphs.push(graph);
        }
        Ok(graphs)
    }

    /// Every run's feature vector, read or extracted and published.
    fn features(
        &mut self,
        config: &CampaignConfig,
        graphs: &[EventGraph],
        kernel: &dyn GraphKernel,
    ) -> Result<Vec<SparseFeatures>, String> {
        let mut stored = Vec::with_capacity(graphs.len());
        for run in 0..config.runs {
            stored.push(self.get::<SparseFeatures>(features_fingerprint(config, run))?);
        }
        let mut feats = Vec::with_capacity(graphs.len());
        for (run, slot) in stored.into_iter().enumerate() {
            let f = match slot {
                Some(f) => f,
                None => {
                    let g = &graphs[run];
                    let f = self
                        .spans
                        .record(spans::FEATURES, self.id, || kernel.features(g));
                    self.tally.featurized_nodes += g.node_count() as u64;
                    self.put(features_fingerprint(config, run as u32), &f)?;
                    f
                }
            };
            feats.push(f);
        }
        Ok(feats)
    }

    fn publish(&mut self, config: &CampaignConfig, m: &KernelMatrix) -> Result<(), String> {
        let fp = campaign_fingerprint(config);
        self.put(fp, m)?;
        self.put(fp, &DistanceSample(m.pairwise_distances()))
    }

    fn job(&mut self, job: &Job) -> Result<KernelMatrix, String> {
        let config = &job.config;
        let mut prefix = None;
        if job.class == Class::Append {
            for r in (1..=config.runs).rev() {
                if let Some(m) =
                    self.get::<KernelMatrix>(campaign_fingerprint(&config.clone().runs(r)))?
                {
                    prefix = Some((r, m));
                    break;
                }
            }
        }
        let program = config.pattern.build(&config.app);
        let kernel = config.kernel.instantiate();
        let graphs = self.graphs(config, &program)?;
        let Some((stored_runs, mut m)) = prefix else {
            let feats = self.features(config, &graphs, kernel.as_ref())?;
            if let Some(m) = self.get::<KernelMatrix>(campaign_fingerprint(config))? {
                return Ok(m);
            }
            let n = feats.len() as u64;
            self.tally.dots += n * (n + 1) / 2;
            let m = self.spans.record(spans::GRAM, self.id, || {
                gram_from_features_with_metrics(&kernel.name(), &feats, config.threads, None)
            });
            self.publish(config, &m)?;
            return Ok(m);
        };
        let feats = self.features(config, &graphs, kernel.as_ref())?;
        for grown in stored_runs as usize + 1..=feats.len() {
            self.tally.dots += grown as u64;
            m = self.spans.record(spans::GRAM, self.id, || {
                gram_append(&m, &feats[..grown], config.threads, config.dot, None)
            });
            self.publish(&config.clone().runs(grown as u32), &m)?;
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_mix_is_fixed_and_twins_precede_their_jobs() {
        let jobs = generate(Size::Full, 7);
        let count = |c| jobs.iter().filter(|j| j.class == c).count();
        assert_eq!(
            (count(Class::Cold), count(Class::Warm), count(Class::Append)),
            (110, 60, 30)
        );
        for (k, j) in jobs.iter().enumerate() {
            match j.twin {
                None => assert_eq!(j.class, Class::Cold),
                Some(t) => {
                    assert!(t < k);
                    assert_eq!(jobs[t].class, Class::Cold);
                    assert_eq!(jobs[t].config.pattern, j.config.pattern);
                }
            }
        }
        let other = generate(Size::Full, 8);
        assert_ne!(jobs[0].config.base_seed, other[0].config.base_seed);
        assert_eq!(generate(Size::Full, 7)[5].config, jobs[5].config);
    }

    #[test]
    fn mean_is_read_from_the_payload() {
        assert_eq!(mean_of("{\n  \"n\": 3,\n  \"mean\": 0.0,\n"), Some(0.0));
        assert_eq!(mean_of("{\"mean\": 1.5\n}"), Some(1.5));
        assert_eq!(mean_of("{}"), None);
    }
}
