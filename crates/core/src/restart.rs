//! The shared-core parallel restart engine.
//!
//! [`Scg::run`](crate::Scg::run) runs in two
//! stages. The *reduce* stage — implicit + explicit reductions,
//! partitioning and the initial subgradient ascent — is deterministic and
//! runs exactly once per solve, whatever the worker count. The *restarts*
//! stage then schedules each core's `NumIter` randomised constructive runs
//! over a scoped worker pool; this module holds the pieces that stage
//! shares between workers. Disconnected partition blocks are solved one
//! after another, each with its own restarts stage.
//!
//! # Determinism contract
//!
//! The engine promises that a solve's **cost and solution are identical
//! for every worker count and thread schedule** (given a seed and no
//! `time_limit`). That promise shapes the design:
//!
//! * Every restart is a pure function of the reduced core, the initial
//!   ascent and its own seed ([`restart_seed`], a SplitMix64 derivation):
//!   its constructive path never reads concurrent state. In particular a
//!   restart's Lagrangian pruning bound is `min(initial incumbent, its own
//!   offers so far)` — *not* the shared best. Using the shared best to
//!   shape the path looks like a harmless strengthening but is unsound for
//!   determinism: penalty tests and the warm-started ascents all take the
//!   bound as input, so the whole trajectory would depend on which worker
//!   finished first. It is also unsound to *abandon* a restart merely
//!   because the shared best undercuts its branch bound: the final
//!   irredundancy strip can drop a cover below `chosen + LB(residual)`, so
//!   a "dominated" branch can still produce the winning cover.
//! * The winner is the offer minimising `(cost, restart index)` — a total
//!   order independent of arrival order, maintained by `SharedIncumbent`.
//! * Workers do prune against each other's best where it is provably safe:
//!   once any restart's cover reaches the core's bound floor
//!   (`cost ≤ ⌈LB⌉`, the certification condition), no later-indexed
//!   restart can win the selection — every cover costs at least the floor
//!   and ties lose by index. `SharedIncumbent::certify` publishes the
//!   smallest such index; restarts above it stop, mid-run.
//!
//! A `time_limit` deadline is also checked mid-run; it trades the
//! determinism promise for budget adherence, which is what a wall-clock
//! budget asks for.

use cover::{CoverMatrix, Halt, Solution};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use ucp_telemetry::{Event, Probe};

/// The SplitMix64 output function: maps `state` to a well-mixed 64-bit
/// value. Passing consecutive states yields the reference SplitMix64
/// stream (`splitmix64(0)` is the stream's first output for seed 0).
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// RNG seed for constructive restart `restart` (1-based) of a solve
/// seeded with `seed`.
///
/// The previous scheme, `seed.wrapping_add(k)`, made worker `k` of seed
/// `s` collide with worker `k−1` of seed `s+1` and kept the underlying
/// generator streams adjacent. Hashing through SplitMix64 decorrelates
/// both: nearby `(seed, restart)` pairs land on unrelated seeds.
pub fn restart_seed(seed: u64, restart: usize) -> u64 {
    splitmix64(splitmix64(seed).wrapping_add(restart as u64))
}

/// The best core-level cover found so far, shared by all restart workers
/// of one core.
///
/// Selection is by `(cost, restart index)` — lowest cost first, ties to
/// the lowest restart — so the final winner does not depend on the order
/// in which concurrent offers arrive. Index 0 is reserved for the initial
/// ascent's heuristic cover.
pub(crate) struct SharedIncumbent {
    best: Mutex<BestEntry>,
    /// Smallest restart index whose cover reached the core's bound floor
    /// (`usize::MAX` until that happens). Restarts with a larger index
    /// cannot win the selection and stop early.
    stop_at: AtomicUsize,
}

struct BestEntry {
    cost: f64,
    restart: usize,
    solution: Option<Solution>,
}

impl SharedIncumbent {
    pub fn new() -> Self {
        SharedIncumbent {
            best: Mutex::new(BestEntry {
                cost: f64::INFINITY,
                restart: usize::MAX,
                solution: None,
            }),
            stop_at: AtomicUsize::new(usize::MAX),
        }
    }

    /// Offers a candidate cover of `ae` from `restart`; returns its
    /// irredundant cost. The incumbent updates when the offer precedes
    /// the current best in `(cost, restart)` order.
    pub fn offer(&self, ae: &CoverMatrix, mut sol: Solution, restart: usize) -> f64 {
        sol.make_irredundant(ae);
        let cost = sol.cost(ae);
        let mut g = self.best.lock().expect("incumbent lock");
        if cost < g.cost || (cost == g.cost && restart < g.restart) {
            g.cost = cost;
            g.restart = restart;
            g.solution = Some(sol);
        }
        cost
    }

    /// Current best cost (`+∞` before any offer).
    pub fn best_cost(&self) -> f64 {
        self.best.lock().expect("incumbent lock").cost
    }

    /// Records that `restart` reached the bound floor.
    pub fn certify(&self, restart: usize) {
        self.stop_at.fetch_min(restart, Ordering::SeqCst);
    }

    /// `true` when a restart with a smaller index already reached the
    /// bound floor — `restart`'s offers can no longer win the selection.
    pub fn superseded(&self, restart: usize) -> bool {
        self.stop_at.load(Ordering::SeqCst) < restart
    }

    /// Snapshot of the current `(cost, solution)` — how checkpoints read
    /// the incumbent without consuming it.
    pub fn best(&self) -> (f64, Option<Solution>) {
        let g = self.best.lock().expect("incumbent lock");
        (g.cost, g.solution.clone())
    }

    /// Consumes the incumbent, returning the winning `(cost, solution)`.
    pub fn into_best(self) -> (f64, Option<Solution>) {
        let g = self.best.into_inner().expect("incumbent lock");
        (g.cost, g.solution)
    }
}

/// Everything one constructive restart needs to cooperate with its
/// siblings without compromising determinism (see the module docs).
pub(crate) struct RestartCtx<'a> {
    pub incumbent: &'a SharedIncumbent,
    /// This restart's 1-based index.
    pub restart: usize,
    /// Cost of the initial ascent's heuristic cover (`+∞` if none): the
    /// deterministic base of the restart's pruning bound.
    pub base_ub: f64,
    /// The core's lower bound (`⌈LB⌉` under integer costs): any cover
    /// reaching it is optimal and stops the whole restart stage.
    pub core_lb: f64,
    /// Shared halt condition (one per solve, spanning all partition
    /// blocks and restarts).
    pub halt: &'a Halt,
}

impl RestartCtx<'_> {
    /// The deterministic pruning bound: best of the initial incumbent and
    /// this restart's own offers — never the shared best.
    pub fn path_ub(&self, own_best: f64) -> f64 {
        self.base_ub.min(own_best)
    }

    /// Offers a cover to the shared incumbent, returning its irredundant
    /// cost, and publishes the early-stop index when it reaches the bound
    /// floor.
    pub fn offer(&self, ae: &CoverMatrix, sol: Solution) -> f64 {
        let cost = self.incumbent.offer(ae, sol, self.restart);
        if cost <= self.core_lb + 1e-9 {
            self.incumbent.certify(self.restart);
        }
        cost
    }

    /// `true` when the restart should stop mid-run: a lower-indexed
    /// sibling reached the bound floor, or the solve's halt condition
    /// (deadline or cancellation) fired.
    pub fn should_abort(&self) -> bool {
        self.incumbent.superseded(self.restart) || self.halt.reached()
    }
}

/// A [`Probe`] that buffers events in memory on a worker thread; the
/// solve's real probe replays the buffers in restart order afterwards, so
/// traces stay ordered and the user probe never crosses threads.
pub(crate) struct BufferProbe {
    enabled: bool,
    events: Vec<Event>,
}

impl BufferProbe {
    /// `enabled = false` (the real probe is a no-op) skips buffering.
    pub fn new(enabled: bool) -> Self {
        BufferProbe {
            enabled,
            events: Vec::new(),
        }
    }

    pub fn into_events(self) -> Vec<Event> {
        self.events
    }
}

impl Probe for BufferProbe {
    #[inline]
    fn record(&mut self, event: Event) {
        if self.enabled {
            self.events.push(event);
        }
    }

    #[inline]
    fn enabled(&self) -> bool {
        self.enabled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_reference_stream() {
        // First three outputs of the reference SplitMix64 for seed 0
        // (whose internal state advances by the golden gamma per draw).
        const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(GAMMA), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(GAMMA.wrapping_mul(2)), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn restart_seeds_do_not_collide_across_adjacent_user_seeds() {
        // The old scheme had seed s, restart k ≡ seed s+1, restart k−1.
        for s in [0u64, 1, 42, 0xDA7E_2000] {
            for k in 1usize..=8 {
                assert_ne!(restart_seed(s, k), restart_seed(s + 1, k.saturating_sub(1)));
                assert_ne!(restart_seed(s, k), restart_seed(s, k + 1));
            }
        }
    }

    #[test]
    fn incumbent_selects_by_cost_then_restart_index() {
        // Two rows, two interchangeable unit-cost covers for each: every
        // 2-column cover ties at cost 2, so only the index tiebreak moves.
        let m = CoverMatrix::from_rows(4, vec![vec![0, 1], vec![2, 3]]);
        let inc = SharedIncumbent::new();
        inc.offer(&m, Solution::from_cols(vec![0, 2]), 3);
        assert_eq!(inc.best_cost(), 2.0);
        // Restart 1 ties on cost: the tie must go to the lower index
        // regardless of arrival order…
        inc.offer(&m, Solution::from_cols(vec![1, 3]), 1);
        // …and a later tie from a higher index changes nothing.
        inc.offer(&m, Solution::from_cols(vec![0, 3]), 2);
        let (cost, sol) = inc.into_best();
        assert_eq!(cost, 2.0);
        let mut cols = sol.expect("offers were made").cols().to_vec();
        cols.sort_unstable();
        assert_eq!(cols, vec![1, 3]);
    }

    #[test]
    fn incumbent_prefers_cheaper_cover_from_any_index() {
        let m = CoverMatrix::from_rows(3, vec![vec![0, 2], vec![1, 2]]);
        let inc = SharedIncumbent::new();
        inc.offer(&m, Solution::from_cols(vec![0, 1]), 1);
        assert_eq!(inc.best_cost(), 2.0);
        // Column 2 alone covers both rows: cost 1 wins despite the index.
        inc.offer(&m, Solution::from_cols(vec![2]), 4);
        assert_eq!(inc.best_cost(), 1.0);
    }

    #[test]
    fn certification_stops_later_restarts_only() {
        let inc = SharedIncumbent::new();
        assert!(!inc.superseded(5));
        inc.certify(3);
        assert!(inc.superseded(5));
        assert!(!inc.superseded(3), "the certifying restart itself finishes");
        assert!(!inc.superseded(2), "lower restarts keep running");
        inc.certify(7); // a later certification never loosens the stop
        assert!(inc.superseded(4));
    }

    #[test]
    fn buffer_probe_respects_enablement() {
        let mut on = BufferProbe::new(true);
        let mut off = BufferProbe::new(false);
        for p in [&mut on, &mut off] {
            p.record(Event::RestartBegin { run: 1, worker: 0 });
        }
        assert_eq!(on.into_events().len(), 1);
        assert!(off.into_events().is_empty());
    }
}
