//! Schedule-space exploration: bounded exhaustive enumeration of the
//! distinct wildcard-match schedules a program admits.
//!
//! The paper's campaigns *sample* non-determinism — random delay draws
//! perturb message arrival order and the kernel distance measures the
//! spread. Sampling can only estimate; this module *enumerates*. It walks
//! every distinct way the message races can resolve (up to a budget),
//! which turns three questions the sampling pipeline cannot answer into
//! computable ones:
//!
//! * **coverage** — how many of the possible schedules did N random runs
//!   actually visit?
//! * **worst case** — what is the maximum kernel distance over *all*
//!   schedules, not just the sampled ones?
//! * **soundness** — is every sampled schedule a member of the enumerated
//!   set? (The strongest differential oracle the testkit has.)
//!
//! ## Branch-point model
//!
//! The only source of communication non-determinism in the simulator is
//! *cross-channel interleaving*: messages on one `(src, dst)` channel are
//! non-overtaking (delivered in send order), but the interleaving of
//! different channels into one destination's arrival stream depends on
//! network delays. A schedule is therefore fully determined by the order
//! in which channel heads are delivered, and the explorer's single
//! transition kind is "deliver the oldest undelivered message on channel
//! `(src, dst)`".
//!
//! There is one interpreter. The walk's state is the simulator's own
//! engine on a deterministic network, with sent messages parked in
//! per-channel FIFOs instead of the timed arrival heap, cloned at branch
//! points. A transition is the engine's `deliver` of the chosen head,
//! which runs every rank it wakes to its next blocking point, exactly as
//! in [`simulate`](crate::engine::simulate) — sound because matching is
//! insensitive to whether a receive is posted before or after a message
//! it does not match (the posted/unexpected queues commute, see
//! [`crate::engine`]). So an op the engine rejects fails the walk with the
//! same [`SimError`]: [`explore`] returns `Err` where `simulate` would.
//!
//! Two reductions keep the walk tractable without losing schedules:
//!
//! * **eager delivery** — a destination with no posted source-wildcard
//!   receive and no source-wildcard receive left in its program cannot
//!   observe cross-channel order (per-channel FIFO scans make its matching
//!   order-invariant), so its arrivals are delivered immediately instead
//!   of branched over;
//! * **sleep sets** — deliveries to *different* destinations commute
//!   (they touch disjoint match engines; any rank executions they unblock
//!   are rank-local), so of two independent transitions explored in one
//!   order, the opposite order is pruned (Godefroid's sleep-set
//!   partial-order reduction).
//!
//! Both reductions are switched off by [`ExploreConfig::brute_force`],
//! which the property suite uses to check that reduction never changes
//! the set of distinct schedules.
//!
//! ## Schedules and replay
//!
//! A schedule is a [`MatchRecord`]: the per-rank, per-posting-ordinal
//! `(src, seq)` matching decision table, read off a finished state's
//! `Recv` events by the code that reads a trace's.
//! [`simulate_replay`](crate::engine::simulate_replay) replays one through
//! the timed engine to produce a full [`Trace`](crate::trace::Trace)
//! (bit-identical for a fixed `SimConfig`). [`ScheduleId`]
//! ([`MatchRecord::id`]) is a splitmix64 fingerprint of the canonical
//! decision sequence; the id of an explored schedule equals the id of
//! [`MatchRecord::from_trace`] of any sampled trace that resolved its
//! races the same way, which is what makes set-membership tests and warm
//! artifact-store keys possible.

use crate::engine::{Channels, Engine, SimConfig, SimError};
use crate::ops::Op;
use crate::program::Program;
use crate::replay::MatchRecord;
use crate::types::Rank;
use anacin_obs::MetricsRegistry;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// Canonical fingerprint of one distinct schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ScheduleId(pub u64);

impl fmt::Display for ScheduleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Exploration bounds. All three caps degrade gracefully: when any is
/// hit the walk stops (or narrows) and [`ExploreStats::truncated`] is
/// set, so callers can always tell a complete enumeration from a sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExploreConfig {
    /// Stop once this many distinct schedules have been recorded.
    pub max_schedules: usize,
    /// Work cap: total branch transitions taken. Guards programs whose
    /// interleaving space is huge even when the schedule space is tiny.
    pub max_branches: u64,
    /// Cap on pending (not yet explored) alternatives across the DFS
    /// stack; beyond it new branch points keep only their first choice.
    pub max_frontier: usize,
    /// Apply sleep-set reduction and eager delivery. `false` is the
    /// unpruned brute-force baseline the property tests diff against.
    pub prune: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_schedules: 4096,
            max_branches: 1_000_000,
            max_frontier: 65_536,
            prune: true,
        }
    }
}

impl ExploreConfig {
    /// Default bounds with the given schedule budget.
    pub fn with_budget(max_schedules: usize) -> Self {
        ExploreConfig {
            max_schedules,
            ..Self::default()
        }
    }

    /// Disable partial-order reduction *and* eager delivery: enumerate
    /// every delivery interleaving. Exponential; for tiny programs only.
    pub fn brute_force(mut self) -> Self {
        self.prune = false;
        self
    }
}

/// What the walk did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExploreStats {
    /// Branch transitions taken (DFS edges, reductions included).
    pub branches: u64,
    /// Transitions suppressed by sleep-set reduction.
    pub pruned: u64,
    /// Alternatives dropped by the frontier cap.
    pub dropped: u64,
    /// Distinct complete schedules recorded.
    pub schedules: u64,
    /// Complete terminal states visited (≥ `schedules`; the excess are
    /// interleavings that realised an already-seen schedule).
    pub terminals: u64,
    /// Terminal states where some rank was permanently blocked. These are
    /// genuinely reachable resolutions (a wildcard can starve a later
    /// specific receive); they are counted, not recorded as schedules.
    pub deadlocks: u64,
    /// True iff any cap fired, i.e. the enumeration is a lower bound.
    pub truncated: bool,
}

/// The result of [`explore`]: every distinct schedule found, in
/// deterministic DFS discovery order, plus the walk statistics.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Distinct complete schedules, in discovery order.
    pub schedules: Vec<MatchRecord>,
    /// Walk statistics.
    pub stats: ExploreStats,
}

impl ExploreReport {
    /// Ids of all explored schedules, in discovery order.
    pub fn ids(&self) -> Vec<ScheduleId> {
        self.schedules.iter().map(MatchRecord::id).collect()
    }

    /// Membership test for a (usually sampled) schedule.
    pub fn contains(&self, id: ScheduleId) -> bool {
        self.schedules.iter().any(|s| s.id() == id)
    }

    /// True iff no budget fired: `schedules` is the *entire* schedule
    /// space of the program.
    pub fn is_complete(&self) -> bool {
        !self.stats.truncated
    }
}

/// Per-program facts the walk consults constantly.
struct Shape {
    world: usize,
    /// Highest op index per rank holding a source-wildcard receive; once a
    /// rank's pc passes this (and no posted wildcard remains) the rank can
    /// never observe cross-channel order again.
    last_any_recv: Vec<Option<usize>>,
}

impl Shape {
    fn new(program: &Program) -> Self {
        let world = program.world_size() as usize;
        let last_any_recv = (0..world)
            .map(|r| {
                program.ops(Rank(r as u32)).iter().rposition(|op| match op {
                    Op::Recv { src, .. } | Op::Irecv { src, .. } => src.is_wildcard(),
                    _ => false,
                })
            })
            .collect();
        Shape {
            world,
            last_any_recv,
        }
    }
}

/// The walk's state: the engine itself on a deterministic network, its
/// sent messages parked on their channels until the walk delivers them.
type State<'a> = Engine<'a, Channels>;

/// Deliver everything destined to ranks that cannot observe arrival
/// order, in canonical order, until nothing moves (eager delivery). Each
/// delivery runs the ranks it wakes, so afterwards the only way forward is
/// a branch delivery.
fn settle(state: &mut State<'_>, shape: &Shape) -> Result<(), SimError> {
    loop {
        let mut moved = false;
        for d in 0..shape.world {
            if state.observes_arrival_order(d, shape.last_any_recv[d]) {
                continue;
            }
            for s in 0..shape.world {
                while state.deliver_head(s, d)? {
                    moved = true;
                }
            }
        }
        if !moved {
            return Ok(());
        }
    }
}

/// One DFS node: a settled state plus the transitions still to take.
struct Frame<'a> {
    state: State<'a>,
    transitions: Vec<(u32, u32)>,
    next: usize,
    sleep: Vec<(u32, u32)>,
}

/// Enumerate the distinct schedules of `program` under the bounds in
/// `config`. Deterministic: same inputs, same report, every time. Fails
/// with the error [`simulate`](crate::engine::simulate) would report when
/// some explored path executes an op the engine rejects.
pub fn explore<'p>(
    program: &'p Program,
    config: &ExploreConfig,
) -> Result<ExploreReport, SimError> {
    let shape = Shape::new(program);
    let mut stats = ExploreStats::default();
    let mut seen: HashSet<u64> = HashSet::new();
    let mut schedules: Vec<MatchRecord> = Vec::new();
    let mut stack: Vec<Frame> = Vec::new();
    // Untaken transitions across the whole stack; `- 1` of it is the
    // frontier (one of them is always the path being extended).
    let mut pending: usize = 0;

    // Admit a settled state: record terminals, cap the frontier, push
    // interior nodes. Returns false when the schedule budget halts the
    // whole walk.
    let mut admit = |state: State<'p>,
                     sleep: Vec<(u32, u32)>,
                     stats: &mut ExploreStats,
                     stack: &mut Vec<Frame<'p>>,
                     pending: &mut usize|
     -> bool {
        if state.finished() {
            stats.terminals += 1;
            let schedule = state.match_record();
            if seen.insert(schedule.id().0) {
                schedules.push(schedule);
                if schedules.len() >= config.max_schedules {
                    if *pending > 0 {
                        stats.truncated = true;
                    }
                    return false;
                }
            }
            return true;
        }
        let enabled: Vec<(u32, u32)> = state.heads().collect();
        if enabled.is_empty() {
            stats.deadlocks += 1;
            return true;
        }
        let mut transitions: Vec<(u32, u32)> = if config.prune {
            enabled
                .iter()
                .filter(|t| !sleep.contains(t))
                .copied()
                .collect()
        } else {
            enabled.clone()
        };
        stats.pruned += (enabled.len() - transitions.len()) as u64;
        if transitions.is_empty() {
            // Every continuation is asleep: this state's futures were all
            // covered through commuting transition orders elsewhere.
            return true;
        }
        let alternatives = transitions.len() - 1;
        if *pending + alternatives > config.max_frontier {
            let keep = config.max_frontier.saturating_sub(*pending);
            stats.dropped += (alternatives - keep) as u64;
            stats.truncated = true;
            transitions.truncate(1 + keep);
        }
        *pending += transitions.len();
        stack.push(Frame {
            state,
            transitions,
            next: 0,
            sleep,
        });
        true
    };

    let mut root = Engine::start(
        program,
        &SimConfig::deterministic(),
        None,
        Channels::new(shape.world),
    )?;
    if config.prune {
        settle(&mut root, &shape)?;
    }
    // A root that halts the walk is a terminal, so it leaves the stack
    // empty and the loop below never starts.
    admit(root, Vec::new(), &mut stats, &mut stack, &mut pending);
    while let Some(top) = stack.last_mut() {
        if top.next >= top.transitions.len() {
            stack.pop();
            continue;
        }
        let idx = top.next;
        let t = top.transitions[idx];
        top.next += 1;
        pending -= 1;
        stats.branches += 1;
        if stats.branches > config.max_branches {
            stats.truncated = true;
            break;
        }
        // Sleep set for the child: everything already asleep here plus the
        // siblings explored before `t`, minus whatever depends on `t`
        // (same destination = same match engine = dependent).
        let child_sleep: Vec<(u32, u32)> = if config.prune {
            top.sleep
                .iter()
                .chain(top.transitions[..idx].iter())
                .filter(|u| u.1 != t.1)
                .copied()
                .collect()
        } else {
            Vec::new()
        };
        // A frame's last transition takes its state instead of a copy:
        // nothing reads the frame after it.
        let mut child = if top.next == top.transitions.len() {
            stack.pop().expect("the top frame is on the stack").state
        } else {
            top.state.clone()
        };
        child.deliver_head(t.0 as usize, t.1 as usize)?;
        if config.prune {
            settle(&mut child, &shape)?;
        }
        if !admit(child, child_sleep, &mut stats, &mut stack, &mut pending) {
            break;
        }
    }

    stats.schedules = schedules.len() as u64;
    Ok(ExploreReport { schedules, stats })
}

/// [`explore`] under an `"explore"` span, flushing the walk counters.
pub fn explore_observed(
    program: &Program,
    config: &ExploreConfig,
    metrics: Option<&MetricsRegistry>,
) -> Result<ExploreReport, SimError> {
    let _span = metrics.map(|m| m.span("explore"));
    let report = explore(program, config)?;
    if let Some(m) = metrics {
        flush_explore_metrics(m, &report.stats);
    }
    Ok(report)
}

/// Flush walk statistics into the standard explore counters
/// (`explore/branches`, `explore/pruned`, `explore/schedules`).
pub fn flush_explore_metrics(metrics: &MetricsRegistry, stats: &ExploreStats) {
    metrics.counter("explore/branches").add(stats.branches);
    metrics
        .counter("explore/pruned")
        .add(stats.pruned + stats.dropped);
    metrics.counter("explore/schedules").add(stats.schedules);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, simulate_replay};
    use crate::program::ProgramBuilder;
    use crate::types::{Tag, TagSpec};

    fn message_race(n: u32) -> Program {
        let mut b = ProgramBuilder::new(n);
        for r in 1..n {
            b.rank(Rank(r)).send(Rank(0), Tag(0), 1);
        }
        for _ in 1..n {
            b.rank(Rank(0)).recv_any(TagSpec::Tag(Tag(0)));
        }
        b.build()
    }

    fn id_set(report: &ExploreReport) -> HashSet<u64> {
        report.schedules.iter().map(|s| s.id().0).collect()
    }

    #[test]
    fn deterministic_program_has_one_schedule() {
        // Ping-pong with specific receives: no branch points at all under
        // pruning, and exactly one distinct schedule by brute force.
        let mut b = ProgramBuilder::new(2);
        b.rank(Rank(0))
            .send(Rank(1), Tag(0), 1)
            .recv(Rank(1), TagSpec::Tag(Tag(1)));
        b.rank(Rank(1))
            .recv(Rank(0), TagSpec::Tag(Tag(0)))
            .send(Rank(0), Tag(1), 1);
        let p = b.build();
        let pruned = explore(&p, &ExploreConfig::default()).unwrap();
        assert_eq!(pruned.schedules.len(), 1);
        assert_eq!(pruned.stats.branches, 0, "nothing to branch over");
        assert!(pruned.is_complete());
        let brute = explore(&p, &ExploreConfig::default().brute_force()).unwrap();
        assert_eq!(id_set(&pruned), id_set(&brute));
    }

    #[test]
    fn message_race_enumerates_all_permutations() {
        // n-1 senders race into one wildcard receiver: (n-1)! schedules.
        for (n, want) in [(3u32, 2usize), (4, 6), (5, 24)] {
            let report = explore(&message_race(n), &ExploreConfig::default()).unwrap();
            assert_eq!(report.schedules.len(), want, "race({n})");
            assert!(report.is_complete());
            assert_eq!(report.stats.deadlocks, 0);
            // All ids distinct by construction of the dedupe set.
            assert_eq!(id_set(&report).len(), want);
        }
    }

    #[test]
    fn pruning_matches_brute_force_and_saves_work() {
        // Two independent races (different destinations): 2 × 2 = 4
        // schedules. Brute force interleaves the independent deliveries;
        // sleep sets + eager delivery must not change the schedule set.
        let mut b = ProgramBuilder::new(6);
        for (dst, srcs) in [(0u32, [1u32, 2]), (3, [4, 5])] {
            for s in srcs {
                b.rank(Rank(s)).send(Rank(dst), Tag(0), 1);
            }
            for _ in srcs {
                b.rank(Rank(dst)).recv_any(TagSpec::Tag(Tag(0)));
            }
        }
        let p = b.build();
        let pruned = explore(&p, &ExploreConfig::default()).unwrap();
        let brute = explore(&p, &ExploreConfig::default().brute_force()).unwrap();
        assert!(pruned.is_complete() && brute.is_complete());
        assert_eq!(pruned.schedules.len(), 4);
        assert_eq!(id_set(&pruned), id_set(&brute));
        assert!(
            pruned.stats.branches < brute.stats.branches,
            "reduction saved no work: {} vs {}",
            pruned.stats.branches,
            brute.stats.branches
        );
    }

    #[test]
    fn wildcard_can_starve_a_specific_receive_into_deadlock() {
        // recv(ANY) then recv(src=1): if the wildcard eats rank 1's only
        // message, the specific receive starves. One completing schedule,
        // at least one deadlock terminal — enumerated, not recorded.
        let mut b = ProgramBuilder::new(3);
        b.rank(Rank(1)).send(Rank(0), Tag(0), 1);
        b.rank(Rank(2)).send(Rank(0), Tag(0), 1);
        b.rank(Rank(0))
            .recv_any(TagSpec::Tag(Tag(0)))
            .recv(Rank(1), TagSpec::Tag(Tag(0)));
        let p = b.build();
        let report = explore(&p, &ExploreConfig::default()).unwrap();
        assert_eq!(report.schedules.len(), 1);
        assert!(report.stats.deadlocks >= 1);
        assert!(report.is_complete());
        let brute = explore(&p, &ExploreConfig::default().brute_force()).unwrap();
        assert_eq!(id_set(&report), id_set(&brute));
    }

    #[test]
    fn schedule_budget_truncates() {
        let cfg = ExploreConfig::with_budget(5);
        let report = explore(&message_race(6), &cfg).unwrap();
        assert_eq!(report.schedules.len(), 5);
        assert!(report.stats.truncated);
        assert!(!report.is_complete());
    }

    #[test]
    fn branch_budget_truncates() {
        let cfg = ExploreConfig {
            max_branches: 7,
            ..ExploreConfig::default()
        };
        let report = explore(&message_race(6), &cfg).unwrap();
        assert!(report.stats.truncated);
        assert!(report.stats.branches <= 8);
    }

    #[test]
    fn frontier_cap_degrades_but_still_explores() {
        let cfg = ExploreConfig {
            max_frontier: 1,
            ..ExploreConfig::default()
        };
        let report = explore(&message_race(5), &cfg).unwrap();
        assert!(report.stats.truncated);
        assert!(report.stats.dropped > 0);
        assert!(!report.schedules.is_empty());
        assert!(report.schedules.len() < 24);
    }

    #[test]
    fn explored_schedules_replay_to_themselves() {
        let p = message_race(5);
        let report = explore(&p, &ExploreConfig::default()).unwrap();
        for s in &report.schedules {
            let t = simulate_replay(&p, &SimConfig::with_nd_percent(100.0, 7), s).unwrap();
            assert_eq!(MatchRecord::from_trace(&t).id(), s.id());
            t.validate().unwrap();
        }
    }

    #[test]
    fn sampled_runs_land_inside_the_explored_set() {
        let p = message_race(5);
        let report = explore(&p, &ExploreConfig::default()).unwrap();
        let ids = id_set(&report);
        for seed in 0..200u64 {
            let t = simulate(&p, &SimConfig::with_nd_percent(100.0, seed)).unwrap();
            assert!(
                ids.contains(&MatchRecord::from_trace(&t).id().0),
                "seed {seed} sampled an unenumerated schedule"
            );
        }
    }

    #[test]
    fn nonblocking_waitall_race_enumerates_like_blocking() {
        // Same race expressed with irecv_any + waitall: the schedule
        // space is identical (matching, not completion, is what varies).
        let n = 4u32;
        let mut b = ProgramBuilder::new(n);
        for r in 1..n {
            b.rank(Rank(r)).send(Rank(0), Tag(0), 1);
        }
        {
            let mut r0 = b.rank(Rank(0));
            let reqs: Vec<_> = (1..n).map(|_| r0.irecv_any(TagSpec::Any)).collect();
            r0.waitall(reqs);
        }
        let p = b.build();
        let pruned = explore(&p, &ExploreConfig::default()).unwrap();
        let brute = explore(&p, &ExploreConfig::default().brute_force()).unwrap();
        assert_eq!(pruned.schedules.len(), 6);
        assert_eq!(id_set(&pruned), id_set(&brute));
    }

    #[test]
    fn ssend_sync_chains_explore_cleanly() {
        // Synchronous sends racing into a wildcard receiver: the sender
        // wake-up chain rides through the explorer's match sites.
        let n = 4u32;
        let mut b = ProgramBuilder::new(n);
        for r in 1..n {
            b.rank(Rank(r)).ssend(Rank(0), Tag(0), 1);
        }
        for _ in 1..n {
            b.rank(Rank(0)).recv_any(TagSpec::Tag(Tag(0)));
        }
        let p = b.build();
        let pruned = explore(&p, &ExploreConfig::default()).unwrap();
        let brute = explore(&p, &ExploreConfig::default().brute_force()).unwrap();
        assert_eq!(pruned.schedules.len(), 6);
        assert_eq!(id_set(&pruned), id_set(&brute));
        for s in &pruned.schedules {
            let t = simulate_replay(&p, &SimConfig::deterministic(), s).unwrap();
            assert_eq!(MatchRecord::from_trace(&t).id(), s.id());
        }
    }

    #[test]
    fn tag_wildcards_alone_do_not_branch() {
        // tag-ANY receives with specific sources are deterministic given
        // per-channel FIFO order; the explorer must see a single schedule
        // without taking a single branch.
        let mut b = ProgramBuilder::new(3);
        b.rank(Rank(1)).send(Rank(0), Tag(1), 1);
        b.rank(Rank(2)).send(Rank(0), Tag(2), 1);
        b.rank(Rank(0))
            .recv(Rank(1), TagSpec::Any)
            .recv(Rank(2), TagSpec::Any);
        let p = b.build();
        let report = explore(&p, &ExploreConfig::default()).unwrap();
        assert_eq!(report.schedules.len(), 1);
        assert_eq!(report.stats.branches, 0);
        let brute = explore(&p, &ExploreConfig::default().brute_force()).unwrap();
        assert_eq!(id_set(&report), id_set(&brute));
    }

    #[test]
    fn schedule_ids_are_stable_and_distinct() {
        let p = message_race(4);
        let a = explore(&p, &ExploreConfig::default()).unwrap();
        let b = explore(&p, &ExploreConfig::default()).unwrap();
        assert_eq!(a.ids(), b.ids(), "enumeration must be deterministic");
        assert_eq!(
            a.ids().into_iter().collect::<HashSet<_>>().len(),
            a.schedules.len()
        );
        for s in &a.schedules {
            assert_eq!(format!("{}", s.id()).len(), 16);
        }
    }

    #[test]
    fn explore_observed_flushes_counters() {
        let m = MetricsRegistry::new();
        let report =
            explore_observed(&message_race(4), &ExploreConfig::default(), Some(&m)).unwrap();
        let rep = m.report();
        assert_eq!(
            rep.counter("explore/schedules"),
            Some(report.stats.schedules)
        );
        assert_eq!(rep.counter("explore/branches"), Some(report.stats.branches));
        assert!(rep.span("explore").is_some());
    }
}
